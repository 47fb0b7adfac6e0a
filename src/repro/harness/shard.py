"""Deterministic sharding + streaming results for multi-host sweeps.

The experiment drivers are embarrassingly parallel over their unit
lists (Table I/II rows, sweep ``seed/fsm`` cells, ablation FSMs, fuzz
cases); this module splits that list across *machines* the way
:mod:`repro.harness.parallel` splits it across *processes*:

* :class:`ShardSpec` — the ``--shard K/N`` partition: shard ``K`` of
  ``N`` owns every unit whose position in the full, deterministic
  unit list satisfies ``i % N == K - 1``.  Round-robin by position,
  so heterogeneous unit costs spread evenly and the N shards cover
  every unit exactly once with no coordination.
* :func:`build_meta` — the self-describing run descriptor stamped
  into shard checkpoints and stream headers: schema version,
  experiment tag, shard spec, the full ordered unit universe and the
  experiment parameters.  ``picola merge`` validates these against
  each other before combining results.
* :class:`StreamWriter` / :func:`read_stream` — the ``--stream
  results.jsonl`` sink: one header line describing the run, then one
  JSON line per completed cell *as it finishes* (reusing the
  :class:`~repro.obs.JsonlSink` machinery), then an ``end`` marker.
  CI or a dashboard can ``tail -f`` progress; ``picola merge
  --from-stream`` rebuilds the same report from the lines.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import JsonlSink
from ..runtime import CheckpointError, InvalidSpecError

__all__ = [
    "SCHEMA_VERSION",
    "ShardSpec",
    "parse_shard",
    "resolve_shard",
    "build_meta",
    "StreamWriter",
    "read_stream",
]

#: bump when the shard checkpoint / stream cell payload shape changes
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShardSpec:
    """``--shard index/total`` — 1-based shard ``index`` of ``total``."""

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise InvalidSpecError(
                f"shard total must be >= 1, got {self.total}"
            )
        if not 1 <= self.index <= self.total:
            raise InvalidSpecError(
                f"shard index must be in 1..{self.total}, "
                f"got {self.index}"
            )

    def __str__(self) -> str:
        return f"{self.index}/{self.total}"

    def owns(self, position: int) -> bool:
        """Does this shard own the unit at ``position`` (0-based) in
        the full unit list?"""
        return position % self.total == self.index - 1

    def partition(self, keys: Sequence[str]) -> List[str]:
        """The subsequence of ``keys`` this shard owns.  Over all N
        shards the partitions are disjoint and cover every key."""
        return [k for i, k in enumerate(keys) if self.owns(i)]

    def to_dict(self) -> Dict[str, int]:
        return {"index": self.index, "total": self.total}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardSpec":
        return cls(index=int(data["index"]), total=int(data["total"]))


def parse_shard(text: str) -> ShardSpec:
    """Parse a ``K/N`` command-line value into a :class:`ShardSpec`."""
    parts = text.split("/")
    if len(parts) != 2:
        raise InvalidSpecError(
            f"shard spec must look like K/N, got {text!r}"
        )
    try:
        index, total = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidSpecError(
            f"shard spec must be two integers K/N, got {text!r}"
        ) from None
    return ShardSpec(index=index, total=total)


def resolve_shard(
    shard: Optional[Union[str, ShardSpec]]
) -> Optional[ShardSpec]:
    """Accept ``None``, a ``"K/N"`` string, or a ready spec."""
    if shard is None or isinstance(shard, ShardSpec):
        return shard
    return parse_shard(shard)


def build_meta(
    experiment: str,
    units: Sequence[str],
    params: Dict[str, Any],
    shard: Optional[ShardSpec],
) -> Dict[str, Any]:
    """The self-describing run descriptor for checkpoints/streams.

    ``units`` is the *full* ordered unit universe of the unsharded
    run — every shard of one campaign records the identical list, so
    the merge can both validate compatibility and detect missing or
    overlapping cells.  ``params`` round-trips through JSON so tuples
    and lists compare equal across processes.
    """
    return {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "shard": shard.to_dict() if shard is not None else None,
        "units": list(units),
        "params": json.loads(json.dumps(params)),
    }


class StreamWriter:
    """Append one JSON line per completed cell to a results file.

    Line shapes::

        {"type": "header", "schema": 1, "experiment": ..., "shard":
         {"index": K, "total": N} | null, "units": [...], "params": {...}}
        {"type": "cell", "key": "<unit key>", "resumed": bool,
         "payload": {...}}
        {"type": "end", "cells": <count>}

    The ``header`` carries the same meta a shard checkpoint does, so
    stream files are self-describing and mergeable on their own.  Cell
    payloads are written with sorted keys, so a cell resumed from a
    checkpoint streams the same bytes as when it was computed.
    """

    def __init__(
        self, path: Union[str, pathlib.Path], meta: Dict[str, Any]
    ) -> None:
        self.path = pathlib.Path(path)
        self._sink = JsonlSink(self.path)
        self._cells = 0
        self._closed = False
        self._sink.emit(dict({"type": "header"}, **meta))
        self._flush()

    def _flush(self) -> None:
        # a dashboard tailing the file must see each cell as it
        # finishes, not when the run ends
        self._sink.flush()

    def emit_cell(
        self, key: str, payload: Any, *, resumed: bool = False
    ) -> None:
        self._sink.emit(
            {
                "type": "cell",
                "key": key,
                "resumed": resumed,
                # one byte form whether fresh or resumed: the payload
                # as a checkpoint stores and returns it (keys sorted)
                "payload": json.loads(
                    json.dumps(payload, sort_keys=True, default=str)
                ),
            }
        )
        self._cells += 1
        self._flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._sink.emit({"type": "end", "cells": self._cells})
        self._sink.close()


def read_stream(
    path: Union[str, pathlib.Path]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Parse one stream file back into ``(meta, completed)``.

    The first line must be the header; later lines are cells (last
    write wins, matching a resumed run re-emitting its cells).  A
    truncated *final* line — the run was killed mid-append — is
    dropped silently; a malformed line anywhere else is an error.
    An ``end`` marker is optional but, when present, must agree with
    the number of cells read.
    """
    path = pathlib.Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckpointError(
            f"unreadable stream file {path}: {exc}"
        ) from exc
    meta: Optional[Dict[str, Any]] = None
    completed: Dict[str, Any] = {}
    declared_cells: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn final write of a killed run
            raise CheckpointError(
                f"{path}:{lineno}: malformed stream line: {exc}"
            ) from exc
        kind = event.get("type") if isinstance(event, dict) else None
        if meta is None:
            if kind != "header":
                raise CheckpointError(
                    f"{path}: not a results stream (first line is "
                    f"{kind!r}, expected a 'header')"
                )
            meta = {k: v for k, v in event.items() if k != "type"}
        elif kind == "cell":
            completed[event["key"]] = event["payload"]
        elif kind == "end":
            declared_cells = event.get("cells")
        elif kind == "header":
            raise CheckpointError(
                f"{path}:{lineno}: duplicate stream header"
            )
        else:
            raise CheckpointError(
                f"{path}:{lineno}: unknown stream line type {kind!r}"
            )
    if meta is None:
        raise CheckpointError(f"{path}: empty stream file")
    if declared_cells is not None and declared_cells != len(completed):
        # duplicate keys (resumed re-emits) make the marker count an
        # upper bound; fewer *distinct* cells than declared is fine,
        # more means the file was corrupted
        if len(completed) > declared_cells:
            raise CheckpointError(
                f"{path}: stream records {len(completed)} cells but "
                f"the end marker declares {declared_cells}"
            )
    return meta, completed
