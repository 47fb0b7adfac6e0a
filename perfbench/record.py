"""Regenerate the benchmark's stored references in ``data/``.

Run from the repository root when a change to the program is meant to
change its outputs::

    python3 perfbench/record.py

It writes the ENC cells of table1-quick, the sizes of assign-large
and the 33 Table I problems that serve-mix sends.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _dump(name: str, data: object) -> None:
    path = os.path.join(HERE, "data", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import batch
    from repro import EncodeRequest
    from repro.encoding import derive_face_constraints
    from repro.fsm import TABLE1_FSMS, load_benchmark

    enc = {}
    for name in batch.machines("table1-quick", tiny=False):
        cells = batch.table1_cells(batch.table1_unit(name, batch.no_span))
        enc[name] = {"enc": cells["enc"], "enc_status": cells["enc_status"]}
    _dump("table1_enc.json", enc)

    sizes = {
        name: batch.assign_cells(batch.assign_unit(name, batch.no_span))
        for name in batch.machines("assign-large", tiny=False)
    }
    _dump("assign_large.json", sizes)

    problems = []
    for name in TABLE1_FSMS:
        cset = derive_face_constraints(load_benchmark(name))
        request = EncodeRequest.build(cset, solver="picola").to_dict()
        problems.append({"fsm": name, "request": request})
    _dump("serve_problems.json", {"problems": problems})
    return 0


if __name__ == "__main__":
    sys.exit(main())
