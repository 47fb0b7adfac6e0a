"""The one experiment loop behind every harness driver.

Table I/II rows, ablation FSMs, sweep ``seed/fsm`` cells and fuzz
cases are all an ordered list of independent units, each computed by
a module-level cell function that returns the unit's checkpoint and
stream payload.  An :class:`Experiment` says what differs per
experiment; :func:`run_experiment` owns the rest, and ``picola merge``
replays combined shard cells through it with an in-memory checkpoint.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from ..runtime import Checkpoint
from ..runtime.checkpoint import payload_failed, resumable
from ..runtime.isolation import Outcome
from .parallel import Unit, run_units
from .shard import ShardSpec, StreamWriter, build_meta, resolve_shard

__all__ = ["Experiment", "run_experiment"]

Params = Dict[str, Any]


def failure_reason(payload: Dict[str, Any]) -> str:
    """"timeout", "budget" or the error type of a failed payload."""
    return payload.get("reason") or Outcome(
        label="", status=payload["status"], error=payload.get("error")
    ).reason


@dataclass(frozen=True)
class Experiment:
    """What one experiment contributes to :func:`run_experiment`.

    Its ``params`` are a JSON-able dict: the cell's keyword arguments,
    stamped into shard meta blocks so ``picola merge`` can rebuild
    them.  An optional ``params["units"]`` lists the unit keys
    explicitly and is never passed on.
    """

    name: str  # checkpoint / meta tag
    cell: Callable[..., Any]  # module-level cell(key, **params)
    report: Callable[[Params], Any]  # the empty report
    fold: Callable[[Any, str, Any], None]  # (report, key, payload)
    #: the unit keys when ``params`` carries no ``units`` list
    keys: Optional[Callable[[Params], List[str]]] = None
    #: progress line of a freshly completed unit
    line: Callable[[str, Any], Optional[str]] = lambda key, p: None
    #: payload recorded for a unit that did not complete
    failed: Callable[[str, Outcome, Params], Any] = (
        lambda key, outcome, params: {
            "status": outcome.status,
            "reason": outcome.reason,
            "error": outcome.error,
        }
    )
    #: after the last of a run of units with equal ``group(key)``,
    #: ``finish(report, {key: payload})`` returns a progress line
    group: Optional[Callable[[str], Any]] = None
    finish: Optional[Callable[[Any, Dict[str, Any]], str]] = None


def run_experiment(
    spec: Experiment,
    params: Params,
    *,
    verbose: bool = False,
    checkpoint: Optional[Union[str, pathlib.Path, Checkpoint]] = None,
    jobs: int = 1,
    retry_failed: bool = False,
    shard: Optional[Union[str, ShardSpec]] = None,
    stream: Optional[Union[str, pathlib.Path]] = None,
    tracer: Optional[Any] = None,
) -> Any:
    """Shard → meta → checkpoint → stream → resume → run → fold.

    Checkpointed units fold from their payloads (failed ones re-run
    under ``retry_failed``); the rest run through the process pool and
    are checkpointed and streamed in submission order.
    """
    params = dict(params)
    listed = params.pop("units", None)
    keys = list(listed) if listed is not None else spec.keys(params)
    shard = resolve_shard(shard)
    meta = None
    if shard is not None or stream is not None:
        meta = build_meta(spec.name, keys, params, shard)
    if shard is not None:
        keys = shard.partition(keys)
    if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
        checkpoint = Checkpoint(
            checkpoint, experiment=spec.name,
            meta=meta if shard is not None else None,
        )
    writer = StreamWriter(stream, meta) if stream is not None else None
    # None marks a unit to (re-)run
    resumed = {key: resumable(checkpoint, key, retry_failed) for key in keys}
    outcomes = run_units(
        [
            Unit(key=key, fn=spec.cell, args=(key,), kwargs=params)
            for key in keys if resumed[key] is None
        ],
        jobs=jobs, tracer=tracer,
    )
    report = spec.report(params)
    group: Dict[str, Any] = {}
    try:
        for i, key in enumerate(keys):
            payload = resumed[key]
            if payload is None:
                outcome = next(outcomes)
                payload = (
                    outcome.value if outcome.ok
                    else spec.failed(key, outcome, params)
                )
                if checkpoint is not None:
                    checkpoint.mark_done(key, payload)
            was_resumed = resumed[key] is not None
            if writer is not None:
                writer.emit_cell(key, payload, resumed=was_resumed)
            spec.fold(report, key, payload)
            if verbose:
                if payload_failed(payload):
                    note = ", resumed from checkpoint" if was_resumed else ""
                    line = f"{key}: FAILED ({failure_reason(payload)}{note})"
                elif was_resumed:
                    line = f"{key}: resumed from checkpoint"
                else:
                    line = spec.line(key, payload)
                if line is not None:
                    print(line, flush=True)
            if spec.finish is None:
                continue
            group[key] = payload
            if i + 1 == len(keys) or (
                spec.group(keys[i + 1]) != spec.group(key)
            ):
                line = spec.finish(report, group)
                group = {}
                if verbose:
                    print(line, flush=True)
    finally:
        if writer is not None:
            writer.close()
    return report
