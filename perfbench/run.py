"""The repository benchmark: one command per run.

Run from the repository root::

    python3 perfbench/run.py --workload table1-quick --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that reports the per-layer metrics.
Every output is checked for correctness outside the timed window.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the whole
result, with its provenance block, is also written to ``.bench_out/``.

``BENCHMARK.json`` lists the workloads and metrics that are gated.
``serve-mix`` runs the same way but is not gated (README.md says why)
and reports its own metric set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-quick", "assign-large", "serve-mix")
OUT_DIR = ".bench_out"


def metric_units(workload: str, trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one run: as ``BENCHMARK.json`` declares
    them, or serve-mix's own set."""
    if workload == "serve-mix":
        import serve_mix

        return serve_mix.LAYER_METRICS if trace else serve_mix.METRICS
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def provenance(root: str, workload: str, seed: int) -> Dict[str, Any]:
    """Where a result came from: code, toolchain, kernel, host, seed."""
    from repro.cubes.bulk import active_kernel

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    # the source digest identifies the code when there is no commit
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": active_kernel().name,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from a checkout that has src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    trace = bool(args.trace)
    if args.workload == "serve-mix":
        import serve_mix

        result = serve_mix.run(root, args.seed, args.seconds, trace,
                               args.tiny, out_dir)
    else:
        import batch

        result = batch.run(args.workload, root, args.seed, args.seconds,
                           trace, args.tiny, out_dir)

    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in metric_units(args.workload, trace).items()
    }
    record = {
        "provenance": provenance(root, args.workload, args.seed),
        "trace": trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "samples": result["samples"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": metrics,
        "host_speed": result.get("host_speed"),
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    for metric, m in metrics.items():
        print(f"{metric} = {m['value']} {m['unit']}")
    if record["host_speed"] is not None:
        print(f"host_speed = {record['host_speed']}")
    print(f"samples = {result['samples']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
