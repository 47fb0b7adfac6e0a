"""Per-layer attribution for the traced benchmark run.

A :class:`LayerProbe` is switched on around one pass of a workload.
It gathers three kinds of evidence, all from outside the program:

* the program's own spans and counters, by installing a
  ``repro.obs.Tracer`` whose spans are kept in memory and written out
  when the run ends;
* exact call counts and inclusive times of a few seams that carry no
  span (``complement_packed``, ``exact_minimize``, the bulk kernel
  methods, ...), by wrapping those functions for the pass;
* self and total time per layer (the packages of ``src/repro``), by a
  stdlib sampling profiler: a ``SIGPROF`` timer whose handler charges
  each sample to the layer of the innermost ``src/repro`` frame on the
  interrupted stack (self) and to every layer on it (total).  Samples
  with no ``src/repro`` frame on the stack are the unattributed
  remainder.

Sampling keeps the traced pass close to untraced speed; ``cProfile``
multiplied table1-quick's pass by 3-4x because that workload is
millions of tiny Python calls, which also skews the proportions.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: sampling period of the profiler (seconds of process CPU time)
SAMPLE_INTERVAL = 0.001

#: layer names in report order
LAYERS = (
    "harness", "fsm", "encoding", "core", "baselines", "solvers",
    "espresso", "cubes", "cubes.bulk", "stateassign", "service",
    "obs/runtime", "other",
)


def layer_of(filename: str, src_root: str) -> Optional[str]:
    """The layer of a source file, or None outside ``src/repro``."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) == 1:
        name = parts[0]
        if name == "solvers.py":
            return "solvers"
        if name == "api.py":
            return "service"
        return "other"
    top = parts[0]
    if top == "cubes" and parts[1] == "bulk":
        return "cubes.bulk"
    if top in ("obs", "runtime"):
        return "obs/runtime"
    return top if top in LAYERS else "other"


class _Sampler:
    """Samples the main thread's stack on a CPU-time timer signal.

    ``SIGPROF`` fires every ``SAMPLE_INTERVAL`` seconds of process CPU
    time; its handler runs in the main thread at the next bytecode
    boundary and tallies the layers on the interrupted stack.  A long
    call into native code (numpy) is charged to the Python frame that
    made it.
    """

    def __init__(self, src_root: str) -> None:
        self.src_root = src_root
        self.samples = 0
        self.self_samples: Counter = Counter()
        self.total_samples: Counter = Counter()
        #: self samples per bulk backend file
        self.bulk_samples: Counter = Counter()
        self._layers: Dict[str, Tuple[Optional[str], str]] = {}
        self._previous: Any = None

    def _classify(self, filename: str) -> Tuple[Optional[str], str]:
        hit = self._layers.get(filename)
        if hit is None:
            hit = (
                layer_of(filename, self.src_root),
                os.path.basename(filename),
            )
            self._layers[filename] = hit
        return hit

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples += 1
        innermost: Optional[str] = None
        innermost_file = ""
        seen = set()
        while frame is not None:
            layer, base = self._classify(frame.f_code.co_filename)
            if layer is not None:
                if innermost is None:
                    innermost, innermost_file = layer, base
                seen.add(layer)
            frame = frame.f_back
        self.self_samples[innermost or "unattributed"] += 1
        self.total_samples.update(seen)
        if innermost == "cubes.bulk":
            self.bulk_samples[innermost_file] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


class _Seam:
    """Call count and inclusive time of one wrapped group of functions.

    Nested calls into the same group (recursion, or one member calling
    another) are counted but timed only at the outermost entry.
    """

    __slots__ = ("calls", "seconds", "depth", "timed")

    def __init__(self, timed: bool) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.timed = timed


def _wrap(fn: Callable, seam: _Seam) -> Callable:
    if not seam.timed:
        def counted(*args: Any, **kwargs: Any) -> Any:
            seam.calls += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    clock = time.perf_counter

    def timed(*args: Any, **kwargs: Any) -> Any:
        seam.calls += 1
        if seam.depth:
            return fn(*args, **kwargs)
        seam.depth = 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            seam.seconds += clock() - start
            seam.depth = 0
    timed.__wrapped__ = fn  # type: ignore[attr-defined]
    return timed


#: seam name -> (timed, [(module, function name), ...]); every module
#: namespace in ``repro`` that holds the function object is patched, so
#: ``from x import f`` call sites are counted too
FUNCTION_SEAMS: Dict[str, Tuple[bool, List[Tuple[str, str]]]] = {
    "complement": (False, [("repro.cubes.complement", "complement_packed")]),
    "tautology": (False, [("repro.cubes.tautology", "tautology_packed")]),
    "exact": (True, [("repro.espresso.exact", "exact_minimize")]),
    "derive": (True, [("repro.encoding.symbolic", "derive_face_constraints")]),
    "evaluate": (True, [
        ("repro.encoding.evaluate", "evaluate_encoding"),
        ("repro.encoding.evaluate", "cubes_for_constraint"),
    ]),
    "constraint": (False, [("repro.encoding.evaluate", "cubes_for_constraint")]),
}


class LayerProbe:
    """Everything the traced pass switches on, and the numbers it yields."""

    def __init__(self, src_root: str) -> None:
        from repro.obs import MemorySink, Tracer

        self.src_root = src_root
        self.sink = MemorySink()
        self.tracer = Tracer(self.sink)
        self.seams: Dict[str, _Seam] = {
            name: _Seam(timed) for name, (timed, _) in FUNCTION_SEAMS.items()
        }
        self.kernel_seam = _Seam(timed=False)
        self._restore: List[Tuple[Any, str, Any]] = []
        self._sampler = _Sampler(src_root)
        self.wall = 0.0
        self._t0 = 0.0

    # -- switching on and off ------------------------------------------
    def _patch_functions(self) -> None:
        """Wrap each seam's function in every ``repro`` namespace that
        holds it; a seam whose function no longer exists stays at 0."""
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for name, (_, targets) in FUNCTION_SEAMS.items():
            seam = self.seams[name]
            for module_name, attr in targets:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                original = getattr(original, "__wrapped__", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if getattr(value, "__wrapped__", value) is original:
                            self._restore.append((module, key, value))
                            setattr(module, key, _wrap(value, seam))

    def _patch_kernel(self) -> None:
        from repro.cubes.bulk import active_kernel

        cls = type(active_kernel())
        for key, value in list(vars(cls).items()):
            if key.startswith("_") or not callable(value):
                continue
            self._restore.append((cls, key, value))
            setattr(cls, key, _wrap(value, self.kernel_seam))

    def __enter__(self) -> "LayerProbe":
        from repro.obs import set_tracer

        self._patch_functions()
        self._patch_kernel()
        set_tracer(self.tracer)
        self._sampler.start()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        from repro.obs import set_tracer

        self.wall = time.perf_counter() - self._t0
        self._sampler.stop()
        set_tracer(None)
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    # -- results -------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Any:
        """A benchmark-owned span around one public call."""
        return self.tracer.span(name, **attrs)

    def spans(self, name: str) -> List[Dict[str, Any]]:
        """Completed spans of ``name`` that are not nested in another."""
        return [
            ev for ev in self.sink.events
            if ev.get("type") == "span" and ev["name"] == name
            and ev.get("parent") != name
        ]

    def span_seconds(self, name: str) -> float:
        return sum(ev["seconds"] for ev in self.spans(name))

    def _seconds(self, samples: int) -> float:
        """Wall seconds that ``samples`` of the traced pass stand for."""
        total = self._sampler.samples
        return self.wall * samples / total if total else 0.0

    def layer_seconds(self) -> Dict[str, Dict[str, float]]:
        """Self and total seconds per layer, scaled from samples."""
        sampler = self._sampler
        rows = {
            layer: {
                "self_s": self._seconds(sampler.self_samples[layer]),
                "total_s": self._seconds(sampler.total_samples[layer]),
            }
            for layer in LAYERS + ("unattributed",)
        }
        rows["unattributed"]["total_s"] = rows["unattributed"]["self_s"]
        return rows

    def bulk_self_seconds(self, filename: str) -> float:
        return self._seconds(self._sampler.bulk_samples[filename])

    def metrics(self) -> Dict[str, float]:
        """Every program-side per-layer metric of the traced pass."""
        counters = self.tracer.counters()
        layers = self.layer_seconds()
        terms = sorted(
            ev["attrs"].get("terms", 0)
            for ev in self.spans("espresso/minimize")
        )
        return {
            "harness.self_s": layers["harness"]["self_s"],
            "encoding.derive_s": self.seams["derive"].seconds,
            "encoding.evaluate_s": self.seams["evaluate"].seconds,
            "encoding.constraint_minimizations": self.seams["constraint"].calls,
            "encoding.self_s": layers["encoding"]["self_s"],
            "core.picola_s": self.span_seconds("picola/encode"),
            "core.beam_states": counters.get("picola.beam_states", 0),
            "core.classify_pairs": counters.get("classify.pairs_checked", 0),
            "core.self_s": layers["core"]["self_s"],
            "baselines.enc_s": self.span_seconds("enc/encode"),
            "baselines.enc_minimizations": counters.get("enc.minimizations", 0),
            "baselines.nova_s": self.span_seconds("nova/encode"),
            "baselines.nova_moves": counters.get("nova.moves", 0),
            "espresso.minimize_calls": len(terms),
            "espresso.minimize_s": self.span_seconds("espresso/minimize"),
            "espresso.minimize_terms_p50": percentile(terms, 50),
            "espresso.minimize_terms_p90": percentile(terms, 90),
            "espresso.iterations": counters.get("espresso.iterations", 0),
            "espresso.exact_calls": self.seams["exact"].calls,
            "espresso.exact_s": self.seams["exact"].seconds,
            "espresso.self_s": layers["espresso"]["self_s"],
            "cubes.complement_calls": self.seams["complement"].calls,
            "cubes.tautology_calls": self.seams["tautology"].calls,
            "cubes.self_s": layers["cubes"]["self_s"],
            "bulk.calls": self.kernel_seam.calls,
            "bulk.numpy_self_s": self.bulk_self_seconds("npbackend.py"),
            "bulk.python_self_s": self.bulk_self_seconds("pybackend.py"),
            "stateassign.minimize_s": self.span_seconds("assign/minimize"),
            "trace.unattributed_s": layers["unattributed"]["self_s"],
        }

    def render_table(self) -> str:
        """The per-layer table printed by the traced run."""
        layers = self.layer_seconds()
        calls = {
            "cubes": self.seams["complement"].calls + self.seams["tautology"].calls,
            "cubes.bulk": self.kernel_seam.calls,
            "espresso": len(self.spans("espresso/minimize"))
            + self.seams["exact"].calls,
            "encoding": self.seams["constraint"].calls,
            "core": len(self.spans("picola/encode")),
            "baselines": len(self.spans("enc/encode"))
            + len(self.spans("nova/encode")),
        }
        lines = [
            f"per-layer attribution ({self._sampler.samples} samples over "
            f"{self.wall:.3f} s traced wall)",
            f"{'layer':<14}{'self_s':>10}{'total_s':>10}{'calls':>12}",
        ]
        for layer in LAYERS + ("unattributed",):
            row = layers[layer]
            if not row["total_s"] and layer not in calls:
                continue
            count = calls.get(layer)
            lines.append(
                f"{layer:<14}{row['self_s']:>10.3f}{row['total_s']:>10.3f}"
                f"{count if count is not None else '':>12}"
            )
        return "\n".join(lines)

    def write_spans(self, path: str) -> None:
        """Write the in-memory spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.sink.events:
                fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
            fh.write(json.dumps(
                {"type": "counters", "values": self.tracer.counters()},
                sort_keys=True,
            ) + "\n")


def percentile(values: List[float], pct: int) -> float:
    """Inclusive-method percentile (0 for an empty list)."""
    if not values:
        return 0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
