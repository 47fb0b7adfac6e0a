"""The two batch workloads: table1-quick and assign-large.

A *unit* is the public-API work for one machine.  A run makes whole
passes over the machine list, in the order the seed shuffles it, and
times each unit.  Each output is checked after its unit's clock stops.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

#: ``repro.harness.QUICK_FSMS``, the rows of ``picola table1 --quick``;
#: pinned here so the workload cannot change under the benchmark
TABLE1_QUICK = [
    "bbara", "ex3", "ex5", "ex7", "lion9", "mark1", "opus",
    "train11", "s8", "s27", "dk16", "donfile", "ex2", "keyb", "tma",
]

#: the large Table II machines of ``picola encode``
ASSIGN_LARGE = [
    "scf", "s1488", "s1494", "s820", "s832", "planet", "tbk", "styr",
    "sand", "ex1", "s420", "s1",
]

#: small lists for the self-tests
TINY = {
    "table1-quick": ["lion9", "s8", "opus"],
    "assign-large": ["s1", "ex1"],
}


def machines(workload: str, tiny: bool) -> List[str]:
    if tiny:
        return list(TINY[workload])
    return list(TABLE1_QUICK if workload == "table1-quick" else ASSIGN_LARGE)


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- units ---------------------------------------------------------------
def table1_unit(name: str, span: Callable[..., Any]) -> Any:
    from repro.harness import run_table1

    with span("bench/table1", fsm=name):
        report = run_table1([name], include_enc=True, jobs=1)
    return report.rows[0]


def assign_unit(name: str, span: Callable[..., Any]) -> Any:
    from repro.encoding import derive_face_constraints
    from repro.fsm import load_benchmark
    from repro.stateassign import assign_states

    fsm = load_benchmark(name)
    with span("bench/derive", fsm=name):
        cset = derive_face_constraints(fsm)
    with span("bench/assign", fsm=name):
        return assign_states(fsm, "picola", constraints=cset)


UNITS = {"table1-quick": table1_unit, "assign-large": assign_unit}


def no_span(name: str, **attrs: Any) -> Any:
    from repro.obs import NULL_TRACER

    return NULL_TRACER.span(name)


def run_passes(
    workload: str,
    order: List[str],
    seconds: float,
    keep: Callable[[Any], Any],
    span: Callable[..., Any] = no_span,
    speed: Optional[List[float]] = None,
) -> List[Tuple[str, float, Any]]:
    """Whole passes over ``order`` filling about ``seconds``.

    The first pass sets the count: as many whole passes as fit in
    ``seconds`` to the nearest pass, and at least one.  Returns
    ``[(machine, unit_seconds, keep(output)), ...]``; ``keep`` runs
    after the unit's clock has stopped.  With a ``speed`` list, the
    reference loop is timed before each unit and appended to it.
    """
    unit = UNITS[workload]
    clock = time.perf_counter
    samples: List[Tuple[str, float, Any]] = []
    start = clock()
    passes = 1
    done = 0
    while done < passes:
        for name in order:
            if speed is not None:
                speed.append(reference_loop())
            t0 = clock()
            out = unit(name, span)
            samples.append((name, clock() - t0, keep(out)))
        done += 1
        if done == 1:
            passes = max(1, round(seconds / (clock() - start)))
    return samples


def shuffled(names: List[str], seed: int) -> List[str]:
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


# -- correctness -------------------------------------------------------
def table1_reference(root: str) -> Dict[str, Dict[str, Any]]:
    """Expected row cells per machine: the committed Table I golden for
    constraints/NOVA/PICOLA plus this benchmark's ENC reference."""
    golden = load_json(os.path.join(root, "expected", "table1_quick.json"))
    enc = load_json(os.path.join(DATA, "table1_enc.json"))
    ref: Dict[str, Dict[str, Any]] = {}
    for row in golden["rows"]:
        name = row["fsm"]
        ref[name] = {
            "status": "ok",
            "constraints": row["constraints"],
            "nova": row["cubes"]["nova"],
            "picola": row["cubes"]["picola"],
        }
        if name in enc:
            ref[name].update(enc[name])
    return ref


def table1_cells(row: Any) -> Dict[str, Any]:
    return {
        "status": row.status,
        "constraints": row.n_constraints,
        "nova": row.cubes_nova,
        "picola": row.cubes_picola,
        "enc": row.cubes_enc,
        "enc_status": row.enc_status,
    }


def check_table1(row: Any, ref: Dict[str, Dict[str, Any]]) -> List[str]:
    expected = ref.get(row.fsm)
    if expected is None:
        return [f"{row.fsm}: no reference row"]
    got = table1_cells(row)
    return [
        f"{row.fsm}: {key} is {got[key]!r}, reference {want!r}"
        for key, want in sorted(expected.items())
        if got[key] != want
    ]


def assign_cells(result: Any) -> Dict[str, Any]:
    return {"size": result.size, "n_bits": result.encoding.n_bits}


def check_assign(result: Any, ref: Dict[str, Dict[str, Any]]) -> List[str]:
    from repro.espresso.verify import verify_pla_minimization

    name = result.fsm.name
    enc = result.encoding
    n = len(enc.symbols)
    problems = []
    codes = [enc.code_of(s) for s in enc.symbols]
    width = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    if len(set(codes)) != n:
        problems.append(f"{name}: encoding is not injective")
    if enc.n_bits != width or any(c >> width for c in codes):
        problems.append(f"{name}: uses {enc.n_bits} bits, minimum {width}")
    try:
        verify_pla_minimization(result.pla, result.minimized)
    except Exception as exc:  # any failure of the check is a failed unit
        problems.append(f"{name}: minimization check failed: {exc}")
    expected = ref.get(name)
    if expected is None:
        problems.append(f"{name}: no reference")
    elif assign_cells(result) != expected:
        problems.append(
            f"{name}: got {assign_cells(result)}, reference {expected}"
        )
    return problems


def checker(workload: str, root: str) -> Callable[[Any], List[str]]:
    if workload == "table1-quick":
        ref = table1_reference(root)
        return lambda out: check_table1(out, ref)
    ref = load_json(os.path.join(DATA, "assign_large.json"))
    return lambda out: check_assign(out, ref)


def wall_per_pass(samples: List[Tuple[str, float, Any]]) -> float:
    """Seconds per pass: the sum over machines of each machine's
    median unit time."""
    per: Dict[str, List[float]] = {}
    for name, secs, _ in samples:
        per.setdefault(name, []).append(secs)
    return sum(statistics.median(v) for v in per.values())


# -- one run -------------------------------------------------------------
#: fresh interpreters timed for ``setup_s``
SETUP_REPEATS = 11

#: mean time of :func:`reference_loop` at a quiet moment of the host
#: this benchmark was built on (2 cores, Python 3.11.7)
REFERENCE_LOOP_S = 0.0037

_SETUP_PROBE = (
    "import repro\n"
    "from repro.cubes.bulk import active_kernel\n"
    "active_kernel()\n"
    "print('ready', flush=True)\n"
)


def reference_loop() -> float:
    """Seconds this host takes for a fixed pure-Python loop.

    It runs no code of the program, so only the host can move it; a
    run's ``host_speed`` tells a slow host from a slow program."""
    t0 = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(40000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return time.perf_counter() - t0


def setup_seconds(root: str) -> float:
    """Median time from launching a fresh interpreter until ``import
    repro`` and kernel selection are done."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE], cwd=root, env=env,
            stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def run(workload: str, root: str, seed: int, seconds: float, trace: bool,
        tiny: bool, out_dir: str) -> Dict[str, Any]:
    """One run of a batch workload; see run.py for the result shape."""
    order = shuffled(machines(workload, tiny), seed)
    check = checker(workload, root)
    speed: Optional[float] = None
    if not trace:
        setup_s = setup_seconds(root)
        loops: List[float] = []
        samples = run_passes(workload, order, seconds, keep=check,
                             speed=loops)
        speed = REFERENCE_LOOP_S / statistics.mean(loops)
        found = [problems for _, _, problems in samples]
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_per_pass(samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - sum(1 for p in found if p) / len(found),
        }
    else:
        from layers import LayerProbe

        untraced = run_passes(workload, order, 0, keep=check)
        probe = LayerProbe(os.path.join(root, "src"))
        with probe:
            # outputs are checked after the probe is off, so the checks'
            # own minimizations stay out of the per-layer numbers
            traced = run_passes(workload, order, 0, keep=lambda out: out,
                                span=probe.span)
        found = [p for _, _, p in untraced] + [
            check(out) for _, _, out in traced
        ]
        metrics = probe.metrics()
        metrics["trace.overhead_ratio"] = probe.wall / sum(
            secs for _, secs, _ in untraced)
        print(probe.render_table())
        probe.write_spans(
            os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
        samples = traced
    return {
        "metrics": metrics,
        "host_speed": speed,
        "attempted": len(found),
        "failed": sum(1 for problems in found if problems),
        "problems": [p for problems in found for p in problems],
        "samples": len(samples),
    }
