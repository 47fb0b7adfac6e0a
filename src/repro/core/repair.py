"""Final repair: local search on the finished encoding.

The column generator commits to one column at a time; a cheap
post-pass over the complete encoding (swapping code pairs and moving
symbols to unused codes) recovers most of what that myopia loses.
The objective is the same weighted constraint-satisfaction measure
that drives the columns — satisfied faces first, then the fraction of
outsiders already excluded — so the pass never trades a satisfied
constraint for partial progress elsewhere.

This pass is an implementation liberty on top of the paper's
pseudocode (the paper's cost function is unpublished; see DESIGN.md);
``PicolaOptions(final_repair=False)`` disables it, and the ablation
bench measures its contribution.

A set of codes is an int with ``2**nv`` bits, one bit per code.  Faces,
intruders and the occupied codes are such sets, so a trial swap or move
is scored with a few bitwise operations per constraint it can change,
however many symbols there are.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Set, Tuple

from ..encoding.codes import Encoding
from ..encoding.constraints import ConstraintSet, FaceConstraint
from ..obs import resolve_tracer
from ..runtime import InvalidSpecError
from .weights import WeightPolicy

__all__ = ["polish_encoding", "satisfaction_cost_score"]

#: credit for excluding outsiders from a violated constraint's face
_PARTIAL = 0.3
#: weight of the Theorem I cost estimate relative to satisfaction
_COST = 0.12

#: a face as ``(dimension, set of its codes)``
Face = Tuple[int, int]


@lru_cache(maxsize=None)
def _bit_tables(nv: int) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """``((ONE[b], ZERO[b]) for each bit b)`` and the set of all codes.

    ``ONE[b]`` and ``ZERO[b]`` are the sets of the ``2**nv`` codes whose
    bit ``b`` is 1 or 0.
    """
    size = 1 << nv
    everything = (1 << size) - 1
    tables = []
    for b in range(nv):
        one = int(
            "".join(str(c >> b & 1) for c in reversed(range(size))), 2
        )
        tables.append((one, everything ^ one))
    return tuple(tables), everything


def _face(code_set: int, nv: int) -> Face:
    """The smallest face holding a non-empty code set, in O(``nv``)."""
    tables, points = _bit_tables(nv)
    dim = 0
    for one, zero in tables:
        if not code_set & zero:
            points &= one
        elif not code_set & one:
            points &= zero
        else:
            dim += 1
    return dim, points


def _constraint_score(
    members: int,
    face: Face,
    occupied: int,
    n: int,
    weight: float,
    nv: int,
) -> float:
    """Satisfaction first, estimated implementation cost as tie-break.

    A satisfied constraint scores full credit.  A violated one earns
    partial credit for every outsider already excluded from its face,
    minus a term proportional to its estimated cube cost: the paper's
    Theorem I bound ``dim[super(L)] - dim[super(I)]`` when the
    intruders' supercube avoids the members, a pessimistic
    per-intruder count otherwise.  Maximizing this both chases
    satisfied faces (NOVA's objective) and keeps violated constraints
    cheap to implement (PICOLA's).

    ``members`` is the constraint's code set and ``face`` its face,
    ``occupied`` the codes of all ``n`` symbols.
    """
    dim_l, points = face
    intruders = points & occupied & ~members
    if not intruders:
        return weight * (1.0 - _COST)
    n_intruders = bin(intruders).count("1")
    size = bin(members).count("1")
    outsiders = n - size
    dim_i, points_i = _face(intruders, nv)
    if points_i & members:
        estimate = min(1 + n_intruders, size)
    else:
        estimate = max(dim_l - dim_i, 1)
    partial = _PARTIAL * (1.0 - n_intruders / max(outsiders, 1))
    return weight * (partial - _COST * estimate)


def _code_sets(
    encoding: Encoding, constraints: Sequence[FaceConstraint]
) -> Tuple[List[int], int, List[int]]:
    """Each symbol's code, the occupied code set and each constraint's
    member code set."""
    codes = [encoding.code_of(s) for s in encoding.symbols]
    if not encoding.is_injective():
        raise InvalidSpecError(
            "the repair objective needs an injective encoding"
        )
    occupied = 0
    for code in codes:
        occupied |= 1 << code
    members = []
    for c in constraints:
        code_set = 0
        for s in c.symbols:
            code_set |= 1 << encoding.code_of(s)
        members.append(code_set)
    return codes, occupied, members


def satisfaction_cost_score(
    encoding: Encoding, cset: ConstraintSet
) -> float:
    """Total :func:`_constraint_score` of an injective encoding
    (higher = better)."""
    constraints = cset.nontrivial()
    _, occupied, members = _code_sets(encoding, constraints)
    nv = encoding.n_bits
    n = len(encoding.symbols)
    total = 0.0
    for code_set, c in zip(members, constraints):
        total += _constraint_score(
            code_set, _face(code_set, nv), occupied, n, c.weight, nv
        )
    return total


def polish_encoding(
    encoding: Encoding,
    cset: ConstraintSet,
    policy: Optional[WeightPolicy] = None,
    max_sweeps: int = 4,
    tracer=None,
) -> Encoding:
    """Hill-climb over code swaps/moves; returns a (possibly) new
    encoding with at least the same weighted satisfaction score.

    ``encoding`` must be injective.  Each constraint counts with its
    :attr:`FaceConstraint.weight`; ``policy`` is ignored and kept only
    for API compatibility.  ``tracer`` (default: the module-level
    tracer) counts the trials and accepted trials of the call as
    ``picola.repair_trials`` and ``picola.repair_accepted``.
    """
    constraints = cset.nontrivial()
    if not constraints:
        return encoding
    symbols = list(encoding.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    nv = encoding.n_bits
    n = len(symbols)
    codes, occupied, members = _code_sets(encoding, constraints)
    weights = [c.weight for c in constraints]
    touching: List[Set[int]] = [set() for _ in symbols]
    for k, c in enumerate(constraints):
        for s in c.symbols:
            touching[index[s]].add(k)
    # per-constraint state; it changes only when a trial is accepted
    faces = [_face(code_set, nv) for code_set in members]
    scores = [
        _constraint_score(members[k], faces[k], occupied, n, weights[k], nv)
        for k in range(len(constraints))
    ]
    unused = [c for c in range(1 << nv) if not occupied >> c & 1]

    def accept(
        ks: Sequence[int], shifted: Set[int], flip: int, occ: int
    ) -> bool:
        """Rescore constraints ``ks`` (ascending) with the codes in
        ``flip`` toggled in the member sets of those in ``shifted`` and
        ``occ`` occupied; keep the new state if the total improves."""
        delta = 0.0
        updates = []
        for k in ks:
            if k in shifted:
                code_set = members[k] ^ flip
                face = _face(code_set, nv)
            else:
                code_set, face = members[k], faces[k]
            score = _constraint_score(
                code_set, face, occ, n, weights[k], nv
            )
            delta += score - scores[k]
            updates.append((k, code_set, face, score))
        if delta > 1e-9:
            for k, code_set, face, score in updates:
                members[k], faces[k], scores[k] = code_set, face, score
            return True
        return False

    trials = accepted = 0
    for _ in range(max_sweeps):
        improved = False
        # pair swaps where at least one side touches a constraint
        for i in range(n):
            for j in range(i + 1, n):
                if not touching[i] and not touching[j]:
                    continue
                trials += 1
                # a constraint holding both symbols or neither keeps
                # its member set, face and occupied codes, so its score
                changed = touching[i] ^ touching[j]
                flip = (1 << codes[i]) | (1 << codes[j])
                if changed and accept(
                    sorted(changed), changed, flip, occupied
                ):
                    codes[i], codes[j] = codes[j], codes[i]
                    accepted += 1
                    improved = True
        # moves to unused codes
        for i in range(n):
            if not touching[i]:
                continue
            for slot in range(len(unused)):
                trials += 1
                flip = (1 << codes[i]) | (1 << unused[slot])
                # a face holding either code gains or loses an intruder
                ks = [
                    k for k, (_, points) in enumerate(faces)
                    if k in touching[i] or points & flip
                ]
                if accept(ks, touching[i], flip, occupied ^ flip):
                    occupied ^= flip
                    codes[i], unused[slot] = unused[slot], codes[i]
                    accepted += 1
                    improved = True
        if not improved:
            break
    tracer = resolve_tracer(tracer)
    tracer.count("picola.repair_trials", trials)
    tracer.count("picola.repair_accepted", accepted)
    return Encoding.from_code_list(symbols, codes, nv)
