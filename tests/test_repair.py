"""Final repair pass: the bitset implementation against the reference.

``polish_encoding`` scores each trial swap or move from per-constraint
code bitsets.  The functions below are the straightforward version it
replaced, which re-derives every face and rescans every code on each
trial; they are kept verbatim as the reference.  Codes and scores must
match exactly (floats compared with ``==``): the two implementations
evaluate the same float expression, so every accept/reject decision
must come out the same.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import repair
from repro.core.weights import WeightPolicy
from repro.encoding import ConstraintSet, Encoding, FaceConstraint
from repro.encoding.codes import face_of
from repro.fsm import load_benchmark
from repro.obs import Tracer
from repro.runtime import InvalidSpecError
from repro.stateassign import assign_states

#: credit for excluding outsiders from a violated constraint's face
_PARTIAL = 0.3
#: weight of the Theorem I cost estimate relative to satisfaction
_COST = 0.12


# -- reference implementation -------------------------------------------
def _constraint_score(
    members_idx: Sequence[int],
    codes: Sequence[int],
    nv: int,
    weight: float,
    member_mask: Sequence[bool],
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
    """
    mask, value = face_of((codes[i] for i in members_idx), nv)
    intruder_codes = [
        code
        for i, code in enumerate(codes)
        if not member_mask[i] and not (code ^ value) & mask
    ]
    outsiders = len(codes) - len(members_idx)
    if not intruder_codes:
        return weight * (1.0 - _COST)
    dim_l = nv - bin(mask).count("1")
    mask_i, value_i = face_of(intruder_codes, nv)
    hits_member = any(
        not (codes[i] ^ value_i) & mask_i for i in members_idx
    )
    if hits_member:
        estimate = min(1 + len(intruder_codes), len(members_idx))
    else:
        dim_i = nv - bin(mask_i).count("1")
        estimate = max(dim_l - dim_i, 1)
    partial = _PARTIAL * (1.0 - len(intruder_codes) / max(outsiders, 1))
    return weight * (partial - _COST * estimate)


def satisfaction_cost_score(
    encoding: Encoding, cset: ConstraintSet
) -> float:
    """Total :func:`_constraint_score` of an encoding (higher = better)."""
    symbols = list(encoding.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    codes = [encoding.code_of(s) for s in symbols]
    total = 0.0
    for c in cset.nontrivial():
        members_idx = [index[s] for s in c.symbols]
        mask = [False] * len(symbols)
        for s in c.symbols:
            mask[index[s]] = True
        total += _constraint_score(
            members_idx, codes, encoding.n_bits, c.weight, mask
        )
    return total


def polish_encoding(
    encoding: Encoding,
    cset: ConstraintSet,
    policy: Optional[WeightPolicy] = None,
    max_sweeps: int = 4,
) -> Encoding:
    """Hill-climb over code swaps/moves; returns a (possibly) new
    encoding with at least the same weighted satisfaction score."""
    if policy is None:
        policy = WeightPolicy()
    symbols = list(encoding.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    nv = encoding.n_bits
    codes: List[int] = [encoding.code_of(s) for s in symbols]
    constraints = cset.nontrivial()
    if not constraints:
        return encoding

    members_idx = [
        [index[s] for s in c.symbols] for c in constraints
    ]
    member_mask = []
    for c in constraints:
        mask = [False] * len(symbols)
        for s in c.symbols:
            mask[index[s]] = True
        member_mask.append(mask)
    weights = [c.weight for c in constraints]
    touching: List[List[int]] = [[] for _ in symbols]
    for k, idxs in enumerate(members_idx):
        for i in idxs:
            touching[i].append(k)

    def score_all() -> List[float]:
        return [
            _constraint_score(
                members_idx[k], codes, nv, weights[k], member_mask[k]
            )
            for k in range(len(constraints))
        ]

    scores = score_all()
    unused = [c for c in range(1 << nv) if c not in set(codes)]

    def affected(i: int, j: Optional[int], old_codes: Tuple[int, ...]
                 ) -> List[int]:
        """Constraints whose score can change under the move."""
        ks = set(touching[i])
        if j is not None:
            ks.update(touching[j])
        # constraints whose face currently contains a moved code can
        # gain/lose an intruder even when neither symbol is a member
        moved = set(old_codes)
        moved.add(codes[i])
        if j is not None:
            moved.add(codes[j])
        for k in range(len(constraints)):
            if k in ks:
                continue
            mask, value = face_of(
                (codes[m] for m in members_idx[k]), nv
            )
            if any(not (c ^ value) & mask for c in moved):
                ks.add(k)
        return sorted(ks)

    n = len(symbols)
    for _ in range(max_sweeps):
        improved = False
        # pair swaps where at least one side touches a constraint
        for i in range(n):
            for j in range(i + 1, n):
                if not touching[i] and not touching[j]:
                    continue
                old = (codes[i], codes[j])
                codes[i], codes[j] = codes[j], codes[i]
                ks = affected(i, j, old)
                delta = 0.0
                new_scores = {}
                for k in ks:
                    new_scores[k] = _constraint_score(
                        members_idx[k], codes, nv, weights[k],
                        member_mask[k],
                    )
                    delta += new_scores[k] - scores[k]
                if delta > 1e-9:
                    for k, v in new_scores.items():
                        scores[k] = v
                    improved = True
                else:
                    codes[i], codes[j] = old
        # moves to unused codes
        for i in range(n):
            if not touching[i]:
                continue
            for slot in range(len(unused)):
                old_code = codes[i]
                codes[i] = unused[slot]
                ks = affected(i, None, (old_code,))
                delta = 0.0
                new_scores = {}
                for k in ks:
                    new_scores[k] = _constraint_score(
                        members_idx[k], codes, nv, weights[k],
                        member_mask[k],
                    )
                    delta += new_scores[k] - scores[k]
                if delta > 1e-9:
                    unused[slot] = old_code
                    for k, v in new_scores.items():
                        scores[k] = v
                    improved = True
                else:
                    codes[i] = old_code
        if not improved:
            break
    return Encoding.from_code_list(symbols, codes, nv)


# -- differential --------------------------------------------------------
@st.composite
def repair_problems(draw):
    """A random injective encoding with overlapping, weighted
    constraints, at the minimum code length or one bit more."""
    n = draw(st.integers(min_value=2, max_value=40))
    nv = max(1, (n - 1).bit_length()) + draw(st.integers(0, 1))
    symbols = [f"s{i}" for i in range(n)]
    codes = draw(st.permutations(range(1 << nv)))[:n]
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        size = draw(st.integers(min_value=2, max_value=max(2, n - 1)))
        members = draw(st.lists(
            st.sampled_from(symbols), min_size=size, max_size=size,
            unique=True,
        ))
        weight = draw(st.sampled_from([1.0, 0.5, 2.0, 0.35, 1.7, 3.0]))
        constraints.append(FaceConstraint(members, weight=weight))
    encoding = Encoding.from_code_list(symbols, codes, nv)
    sweeps = draw(st.integers(min_value=1, max_value=4))
    return encoding, ConstraintSet(symbols, constraints), sweeps


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(repair_problems())
    def test_same_codes_and_scores(self, problem):
        encoding, cset, sweeps = problem
        want = polish_encoding(encoding, cset, max_sweeps=sweeps)
        got = repair.polish_encoding(encoding, cset, max_sweeps=sweeps)
        assert got.codes == want.codes
        for enc in (encoding, got):
            assert repair.satisfaction_cost_score(enc, cset) == (
                satisfaction_cost_score(enc, cset)
            )

    def test_non_injective_encoding_is_rejected(self):
        cs = ConstraintSet(["a", "b", "c"], [FaceConstraint({"a", "b"})])
        enc = Encoding(["a", "b", "c"], {"a": 0, "b": 1, "c": 1}, 2)
        with pytest.raises(InvalidSpecError):
            repair.polish_encoding(enc, cs)
        with pytest.raises(InvalidSpecError):
            repair.satisfaction_cost_score(enc, cs)


class TestCounters:
    def test_trials_and_accepted(self):
        # {a, b} is satisfied, so one sweep tries every swap with a or
        # b (5 pairs; a<->b changes no constraint's member set) and
        # every move of a or b to the 4 unused codes, and keeps none
        cs = ConstraintSet(
            ["a", "b", "c", "d"], [FaceConstraint({"a", "b"})]
        )
        enc = Encoding(
            ["a", "b", "c", "d"], {"a": 0, "b": 1, "c": 2, "d": 4}, 3
        )
        tracer = Tracer()
        assert repair.polish_encoding(enc, cs, tracer=tracer).codes == (
            enc.codes
        )
        assert tracer.counter("picola.repair_trials") == 5 + 2 * 4
        assert tracer.counter("picola.repair_accepted") == 0

    def test_picola_encode_reports_repair_counters(self):
        from repro.core import picola_encode

        syms = [f"s{i}" for i in range(8)]
        cs = ConstraintSet(syms, [
            FaceConstraint(syms[:3]), FaceConstraint(syms[2:6]),
        ])
        tracer = Tracer()
        picola_encode(cs, tracer=tracer)
        assert tracer.counter("picola.repair_trials") > 0
        assert "picola.repair_accepted" in tracer.counters()


# -- Table II machines ---------------------------------------------------
#: ``(size, codes)`` of ``assign_states(fsm, "picola")``, recorded with
#: the reference repair pass
PINNED: Dict[str, Tuple[int, Dict[str, int]]] = {
    "s1": (63, {
        "st0": 25, "st2": 14, "st1": 11, "st10": 8, "st14": 9, "st7": 19,
        "st3": 18, "st8": 12, "st5": 4, "st4": 31, "st12": 30, "st15": 27,
        "st6": 13, "st11": 5, "st17": 10, "st9": 17, "st19": 2, "st18": 15,
        "st13": 3, "st16": 7,
    }),
    "ex1": (88, {
        "st0": 11, "st7": 4, "st2": 18, "st1": 5, "st5": 30, "st17": 3,
        "st8": 2, "st3": 31, "st9": 19, "st6": 23, "st4": 6, "st12": 8,
        "st16": 10, "st15": 9, "st11": 22, "st10": 7, "st13": 12,
        "st14": 13, "st18": 15, "st19": 14,
    }),
    "s420": (80, {
        "st0": 14, "st1": 10, "st4": 31, "st14": 3, "st11": 25, "st6": 13,
        "st7": 15, "st2": 8, "st9": 4, "st3": 28, "st10": 7, "st13": 11,
        "st8": 0, "st16": 21, "st5": 9, "st15": 30, "st12": 17, "st17": 29,
    }),
    "s820": (165, {
        "st0": 11, "st24": 17, "st2": 16, "st1": 30, "st18": 21, "st3": 25,
        "st11": 22, "st15": 8, "st12": 23, "st17": 3, "st4": 24,
        "st22": 18, "st8": 20, "st9": 10, "st5": 19, "st7": 26, "st6": 31,
        "st16": 12, "st21": 1, "st10": 27, "st13": 28, "st19": 4,
        "st14": 29, "st23": 15, "st20": 13,
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_table2_machine_encoding_is_pinned(name):
    size, codes = PINNED[name]
    result = assign_states(load_benchmark(name), "picola")
    assert result.encoding.codes == codes
    assert result.size == size
