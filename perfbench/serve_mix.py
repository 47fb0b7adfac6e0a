"""The serve-mix workload: ``picola serve`` under an open loop.

One generator process with two keep-alive connections sends seeded
Poisson arrivals at one fixed rate to ``POST /v1/encode``.  Requests are
PICOLA encodes of the 33 Table I constraint sets (``data/
serve_problems.json``), each fresh request with its symbols renamed by
a seeded prefix so it misses the daemon's result cache.  In every
block of three requests one is fresh and two repeat an earlier request
byte for byte, so about two thirds are cache hits.  Fresh requests go
round the 33 problems in seeded order, a full round before any problem
comes back, so runs of whole rounds send the same mix of problem sizes.
This workload is not in ``BENCHMARK.json``; README.md says why.

Latency is timed from each request's due time, so a stalled daemon
or a late generator shows as latency, not as a lower offered load.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Tuple

from layers import percentile

HERE = os.path.dirname(os.path.abspath(__file__))

#: offered load, requests per second: about half the daemon's capacity
#: on this mix (10.8 req/s closed-loop on the seed commit; README.md)
RATE = 5.5
#: fewest requests per run: two rounds of the 33 problems as fresh
#: requests, so p95 has ten samples beyond it and every run sends the
#: same problems
MIN_REQUESTS = 198
#: latency limit of ``slo_ok_ratio``, milliseconds
SLO_MS = 2500.0
#: connections of the generator
CONNECTIONS = 2
#: seconds a daemon may take to answer /healthz after launch
LAUNCH_TIMEOUT = 60.0

_HIT_PREFIX = b'{"cached":true,"result":'
_MISS_PREFIX = b'{"cached":false,"result":'


@dataclass
class Planned:
    """One scheduled request."""

    due: float  # seconds after the load starts
    body: bytes
    key: int  # index of the distinct request it carries


@dataclass
class Outcome:
    status: int = 0
    body: bytes = b""
    latency_ms: float = 0.0
    late_ms: float = 0.0
    done: float = 0.0
    error: Optional[str] = None

    @property
    def cached(self) -> Optional[bool]:
        if self.body.startswith(_HIT_PREFIX):
            return True
        if self.body.startswith(_MISS_PREFIX):
            return False
        return None

    @property
    def result(self) -> bytes:
        prefix = _HIT_PREFIX if self.cached else _MISS_PREFIX
        return self.body[len(prefix):-1]


def load_problems() -> List[Dict[str, Any]]:
    with open(os.path.join(HERE, "data", "serve_problems.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["problems"]


def _renamed(request: Dict[str, Any], prefix: str) -> Dict[str, Any]:
    """The same problem with every symbol renamed ``prefix + name``.

    A shared prefix keeps the symbols' relative order and sort order,
    so the solver does the same work as on the original."""
    out = dict(request)
    out["symbols"] = [prefix + s for s in request["symbols"]]
    out["constraints"] = [
        dict(c, symbols=[prefix + s for s in c["symbols"]])
        for c in request["constraints"]
    ]
    return out


def request_count(seconds: float, rate: float = RATE) -> int:
    """Requests of one run: ``rate * seconds`` rounded up to whole
    blocks of three, and never fewer than :data:`MIN_REQUESTS`."""
    return max(MIN_REQUESTS, 3 * math.ceil(rate * seconds / 3))


def plan(seed: int, n: int, problems: List[Dict[str, Any]],
         rate: float = RATE) -> Tuple[List[Planned], List[Dict[str, Any]]]:
    """The seeded request sequence of one run: ``n`` requests over
    ``n / rate`` seconds.

    Arrival times are Poisson arrivals conditioned on their count,
    i.e. sorted uniform times over the window, so every run offers the
    same load for the same time.  Returns the schedule and the
    distinct requests it carries (a planned request's ``key`` indexes
    the latter)."""
    rng = random.Random(seed)
    window = n / rate
    dues = sorted(rng.uniform(0.0, window) for _ in range(n))
    schedule: List[Planned] = []
    distinct: List[Dict[str, Any]] = []
    bodies: List[bytes] = []
    rounds: List[int] = []
    fresh_slot = 0
    for i, due in enumerate(dues):
        if i % 3 == 0:
            fresh_slot = i + rng.randrange(3) if distinct else i
        if i == fresh_slot:
            if not rounds:
                rounds = list(range(len(problems)))
                rng.shuffle(rounds)
            base = problems[rounds.pop()]
            tag = f"q{rng.getrandbits(32):08x}_"
            request = _renamed(base["request"], tag)
            distinct.append(request)
            bodies.append(json.dumps(request, sort_keys=True).encode())
            key = len(distinct) - 1
        else:
            key = rng.randrange(len(distinct))
        schedule.append(Planned(due, bodies[key], key))
    return schedule, distinct


# -- the daemon ----------------------------------------------------------
class Daemon:
    """One ``picola serve`` child process on an ephemeral port."""

    def __init__(self, root: str, extra: Tuple[str, ...] = ()) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "serve", "--port", "0",
             *extra],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, preexec_fn=_default_sigint,
        )
        try:
            line = _readline(self.proc, t0 + LAUNCH_TIMEOUT)
            url = line.decode().strip().rsplit(" ", 1)[-1]
            hostport = url.split("://", 1)[1]
            self.host, port = hostport.rsplit(":", 1)
            self.port = int(port)
            while True:
                try:
                    status, _ = self.get("/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > t0 + LAUNCH_TIMEOUT:
                    raise RuntimeError("daemon did not answer /healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        return json.loads(self.get("/v1/stats")[1])

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the daemon (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _default_sigint() -> None:
    """Give the daemon the default SIGINT action even when this process
    inherited it ignored (as a background job does), so that ``stop``
    shuts it down cleanly instead of waiting for the kill."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _readline(proc: subprocess.Popen, deadline: float) -> bytes:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while time.perf_counter() < deadline:
            if sel.select(timeout=0.05):
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited before listening")
                return line
            if proc.poll() is not None:
                raise RuntimeError("daemon exited before listening")
    raise RuntimeError("daemon did not start in time")


# -- the generator -------------------------------------------------------
def drive(daemon: Daemon, schedule: List[Planned]) -> Tuple[List[Outcome], float, float]:
    """Send the schedule open-loop; returns outcomes, the load start
    and the time the last response arrived (perf_counter seconds)."""
    outcomes = [Outcome() for _ in schedule]
    lock = threading.Lock()
    cursor = [0]
    clock = time.perf_counter
    start = clock() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=120)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                planned, out = schedule[i], outcomes[i]
                due = start + planned.due
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                try:
                    conn.request("POST", "/v1/encode", planned.body,
                                 {"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    out.body = resp.read()
                    out.status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    out.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        daemon.host, daemon.port, timeout=120)
                out.done = clock()
                out.late_ms = (sent - due) * 1000.0
                out.latency_ms = (out.done - due) * 1000.0
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes, start, max((o.done for o in outcomes), default=start)


# -- correctness ---------------------------------------------------------
def _reference(request: Dict[str, Any]) -> Dict[str, Any]:
    """In-process ``repro.encode`` of one wire request, without the
    timing field (runs in a worker process)."""
    from repro import EncodeRequest, encode

    payload = encode(EncodeRequest.from_dict(request)).to_dict()
    payload.pop("seconds", None)
    return payload


def references(distinct: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reference payloads for every distinct request, on two spawned
    worker processes (outside the timed window)."""
    if len(distinct) < 4:
        return [_reference(r) for r in distinct]
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        return list(pool.map(_reference, distinct))


def check(schedule: List[Planned], outcomes: List[Outcome],
          refs: List[Dict[str, Any]]) -> List[str]:
    """Problems found; at most one per request.

    A cache hit must repeat byte for byte the answer the daemon gave
    when it solved that request.  Two copies of a request can be in
    flight at once, so the solved one need not be the earlier one in
    the schedule."""
    problems: List[str] = []
    solved: Dict[int, set] = {}
    for planned, out in zip(schedule, outcomes):
        if out.status == 200 and out.cached is False:
            solved.setdefault(planned.key, set()).add(out.result)
    for i, (planned, out) in enumerate(zip(schedule, outcomes)):
        if out.error or out.status != 200 or out.cached is None:
            problems.append(f"request {i}: HTTP {out.status} {out.error or ''}")
            continue
        payload = json.loads(out.result)
        if payload.get("status") != "ok":
            problems.append(f"request {i}: status {payload.get('status')}")
        elif out.cached:
            if out.result not in solved.get(planned.key, ()):
                problems.append(f"request {i}: cache hit differs from the solved answer")
        else:
            payload.pop("seconds", None)
            if payload != refs[planned.key]:
                problems.append(f"request {i}: payload differs from repro.encode")
    return problems


def spans_from_jsonl(path: str) -> List[Dict[str, Any]]:
    events = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    return events


# -- one run -------------------------------------------------------------
#: daemon launches timed for ``setup_s``
SETUP_REPEATS = 5

#: end-to-end metrics of this workload, name -> unit
METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "slo_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: per-layer metrics of this workload's traced run, name -> unit
LAYER_METRICS = {
    "core.picola_s": "s",
    "core.beam_states": "count",
    "core.classify_pairs": "count",
    "service.hit_p50_ms": "ms",
    "service.miss_p50_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "loadgen.late_p95_ms": "ms",
    "loadgen.sent": "count",
    "trace.overhead_ratio": "ratio",
}

#: problems small enough for the self-tests
TINY = {"lion9", "s8", "opus", "ex3", "dk14", "train11", "s27"}


def _load_phase(root: str, schedule: List[Planned],
                extra: Tuple[str, ...] = ()) -> Dict[str, Any]:
    daemon = Daemon(root, extra)
    try:
        outcomes, start, end = drive(daemon, schedule)
        stats = daemon.stats()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return {"outcomes": outcomes, "wall": end - start, "stats": stats,
            "rss": rss, "setup_s": daemon.setup_s}


def run(root: str, seed: int, seconds: float, trace: bool, tiny: bool,
        out_dir: str) -> Dict[str, Any]:
    """One run of serve-mix; see run.py for the result shape.

    The traced run drives the same schedule twice, against an untraced
    daemon and then against one started with ``--trace``, whose spans
    and counters give the program-side numbers."""
    problems = load_problems()
    if tiny:
        problems = [p for p in problems if p["fsm"] in TINY]
        n = 3 * math.ceil(RATE * seconds / 3)
    else:
        n = request_count(seconds)
    schedule, distinct = plan(seed, n, problems)
    spans_path = os.path.join(out_dir, f"spans-serve-mix-seed{seed}.jsonl")
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            daemon = Daemon(root)
            setups.append(daemon.setup_s)
            daemon.stop()
        phase = _load_phase(root, schedule)
        setups.append(phase["setup_s"])
        phases = [phase]
    else:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        phases = [_load_phase(root, schedule),
                  _load_phase(root, schedule, ("--trace", spans_path))]
        phase = phases[-1]

    refs = references(distinct)
    found = [p for ph in phases for p in check(schedule, ph["outcomes"], refs)]
    result = {"attempted": n * len(phases), "failed": len(found),
              "problems": found}
    outcomes = phase["outcomes"]
    ok = [o for o in outcomes if o.status == 200 and o.cached is not None]
    latencies = [o.latency_ms for o in ok]
    result["samples"] = len(latencies)
    if not trace:
        slo_ok = sum(1 for o in ok if o.latency_ms <= SLO_MS
                     and json.loads(o.result).get("status") == "ok")
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": phase["wall"],
            "req_p50_ms": percentile(latencies, 50),
            "req_p95_ms": percentile(latencies, 95),
            "slo_ok_ratio": slo_ok / n,
            "peak_rss_mb": phase["rss"],
            "ok_ratio": 1.0 - len(found) / n,
        }
        return result

    spans = [e for e in spans_from_jsonl(spans_path)
             if e.get("type") == "span" and e.get("name") == "picola/encode"]
    counters = phase["stats"].get("counters", {})
    cache = phase["stats"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    untraced = [o.latency_ms for o in phases[0]["outcomes"]]
    result["metrics"] = {
        "core.picola_s": sum(e["seconds"] for e in spans),
        "core.beam_states": counters.get("picola.beam_states", 0),
        "core.classify_pairs": counters.get("classify.pairs_checked", 0),
        "service.hit_p50_ms": percentile(
            [o.latency_ms for o in ok if o.cached], 50),
        "service.miss_p50_ms": percentile(
            [o.latency_ms for o in ok if not o.cached], 50),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.rejected": phase["stats"]["queue"]["rejected"],
        "loadgen.late_p95_ms": percentile([o.late_ms for o in outcomes], 95),
        "loadgen.sent": n,
        # mean latency, traced over untraced daemon
        "trace.overhead_ratio": sum(latencies) / sum(untraced),
    }
    return result
