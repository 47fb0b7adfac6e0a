"""Self-tests of the benchmark, at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import serve_mix  # noqa: E402

WORKLOADS = ("table1-quick", "assign-large", "serve-mix")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(root, workload, seed=1, trace=0, seconds=2):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(workload, trace):
    """Metric name -> unit a run must print: BENCHMARK.json for the
    gated workloads, serve-mix's own declaration otherwise."""
    spec = _spec()
    if workload in {w["name"] for w in spec["workloads"]}:
        entries = spec["per_layer"] if trace else spec["end_to_end"]
        return {m["name"]: m["unit"] for m in entries}
    return serve_mix.LAYER_METRICS if trace else serve_mix.METRICS


def test_gated_workloads_are_the_batch_ones():
    assert [w["name"] for w in _spec()["workloads"]] == [
        "table1-quick", "assign-large"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(workload, trace):
    result = _result(_run(ROOT, workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(
        workload, trace)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb", "ok_ratio"):
            assert result["metrics"][name]["value"] > 0


def test_traced_counts_repeat_exactly():
    spec = _spec()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    first = _result(_run(ROOT, "table1-quick", trace=1))["metrics"]
    second = _result(_run(ROOT, "table1-quick", trace=1))["metrics"]
    assert first["espresso.exact_calls"]["value"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def _copy_checkout(tmp_path):
    """A checkout copy whose perfbench data can be corrupted."""
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(os.path.join(ROOT, "expected"), root / "expected")
    os.symlink(os.path.join(ROOT, "src"), root / "src")
    return root


@pytest.mark.parametrize("workload,reference,machine,key", [
    ("table1-quick", "table1_enc.json", "lion9", "enc"),
    ("assign-large", "assign_large.json", "s1", "size"),
])
def test_corrupted_reference_fails(tmp_path, workload, reference, machine, key):
    root = _copy_checkout(tmp_path)
    path = root / "perfbench" / "data" / reference
    data = json.loads(path.read_text())
    data[machine][key] += 1
    path.write_text(json.dumps(data))
    result = _result(_run(str(root), workload))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_seed_changes_serve_requests_not_correctness():
    problems = serve_mix.load_problems()
    a, _ = serve_mix.plan(1, 30, problems)
    b, _ = serve_mix.plan(2, 30, problems)
    assert [p.due for p in a] != [p.due for p in b]
    assert [p.body for p in a] != [p.body for p in b]
    # same seed, same sequence
    again, _ = serve_mix.plan(1, 30, problems)
    assert [(p.due, p.body) for p in a] == [(p.due, p.body) for p in again]
    for seed in (1, 2):
        result = _result(_run(ROOT, "serve-mix", seed=seed))
        assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "table1-quick")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
