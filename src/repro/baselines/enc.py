"""An ENC-style baseline (Saldanha, Villa, Brayton, S-V, TCAD 1994).

ENC targets the same *partial* encoding problem as PICOLA — minimize
the product terms implementing the complete constraint set — but does
it by keeping the two-level logic minimizer in its inner loop: from a
seed encoding it repeatedly tries code swaps/moves, re-minimizes the
encoded constraints, and keeps any move that lowers the real cube
count.  Quality is therefore comparable to PICOLA's, while the run
time is dominated by the O(moves x constraints) minimizations — the
paper's observation that "ENC is not practical for medium and large
examples" (and is reported to fail on ``scf``) falls straight out of
this structure, which our harness reproduces with an evaluation
budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..encoding.codes import Encoding
from ..encoding.constraints import ConstraintSet, FaceConstraint
from ..encoding.evaluate import cubes_for_constraint
from ..obs import resolve_tracer
from ..runtime import Budget, BudgetExceeded, faults
from .simple import natural_encoding

__all__ = ["EncResult", "EncBudgetExceeded", "enc_encode"]


class EncBudgetExceeded(BudgetExceeded):
    """The minimization budget ran out before reaching a local optimum.

    Mirrors the failure the paper reports for ENC on the largest
    benchmark (scf).
    """


@dataclass
class EncResult:
    encoding: Encoding
    total_cubes: int
    minimizations: int
    converged: bool


class _Scorer:
    """Cube totals for one ``enc_encode`` call, with its budget counts.

    A swap of ``a`` and ``b`` leaves every constraint holding neither
    unchanged, and a rejected move restores the previous codes, so most
    trials repeat constraint functions the call has already minimized.
    ``memo`` maps each function's exact minimizer input -- the on-set
    codes in the order :func:`~repro.encoding.evaluate.constraint_function`
    passes them (sorted symbol names) and the set of unused codes -- to
    its cube count.  The key packs a leading 1, ``nv`` bits per on-set
    code and the ``2**nv``-bit unused-code mask into one int.  Nothing
    is reordered into a canonical form, so a hit returns exactly what
    the minimizer would: its tie-breaks depend on the on-set order.
    """

    def __init__(
        self,
        cset: ConstraintSet,
        nv: int,
        max_minimizations: int,
        budget: Optional[Budget],
    ) -> None:
        self.constraints: List[Tuple[FaceConstraint, Tuple[str, ...]]] = [
            (c, tuple(sorted(c.symbols))) for c in cset.nontrivial()
        ]
        self.nv = nv
        self.max_minimizations = max_minimizations
        self.budget = budget
        self.memo: Dict[int, int] = {}
        self.minimizations = 0
        self.hits = 0

    def total(self, enc: Encoding, *, counted: bool = True) -> int:
        """Summed cube count of ``enc`` over the nontrivial constraints.

        A ``counted`` total (one ENC trial) trips the ``enc.minimize``
        fault site once and counts every constraint evaluation, memo hit
        or not, against ``max_minimizations`` and the budget; the final
        re-score of the result does neither.
        """
        if counted:
            faults.trip("enc.minimize")
        nv = self.nv
        width = 1 << nv
        codes = enc.codes
        used = 0
        for code in codes.values():
            used |= 1 << code
        unused = ((1 << width) - 1) & ~used
        total = 0
        for c, members in self.constraints:
            if counted:
                self.minimizations += 1
                if self.minimizations > self.max_minimizations:
                    raise EncBudgetExceeded(
                        f"exceeded {self.max_minimizations} constraint "
                        f"minimizations"
                    )
                if self.budget is not None:
                    self.budget.tick(where="enc_encode")
            key = 1
            for s in members:
                key = (key << nv) | codes[s]
            key = (key << width) | unused
            cubes = self.memo.get(key)
            if cubes is None:
                cubes = self.memo[key] = cubes_for_constraint(enc, c)
            elif counted:
                self.hits += 1
            total += cubes
        return total


def enc_encode(
    cset: ConstraintSet,
    nv: Optional[int] = None,
    *,
    seed: int = 0,
    max_minimizations: int = 20000,
    max_passes: int = 8,
    strict: bool = False,
    budget: Optional[Budget] = None,
    tracer=None,
) -> EncResult:
    """Iterative minimizer-in-the-loop encoding.

    ``strict=True`` re-raises :class:`EncBudgetExceeded`; by default a
    budget blowout returns the best encoding found with
    ``converged=False`` (the harness reports such rows as failures,
    like the paper does for scf).  An external ``budget`` (wall-clock
    deadline / shared node counter) is *not* degraded here — its
    :class:`~repro.runtime.BudgetExceeded` propagates so the harness
    can mark the cell as timed out rather than merely non-converged.
    """
    tracer = resolve_tracer(tracer)
    symbols = list(cset.symbols)
    if nv is None:
        nv = cset.min_code_length()
    rng = random.Random(seed)
    scorer = _Scorer(cset, nv, max_minimizations, budget)
    # ``best`` is always a fully scored encoding; ``codes`` holds the
    # trial under evaluation, half-applied if the budget runs out
    best = natural_encoding(symbols, nv)
    codes: Dict[str, int] = dict(best.codes)
    passes = 0

    try:
        with tracer.span(
            "enc/encode", symbols=len(symbols), nv=nv
        ):
            best_total = scorer.total(best)
            for _ in range(max_passes):
                passes += 1
                improved = False
                # candidate moves: all pair swaps plus moves to free
                # codes, in a seeded random order (ENC's pairwise
                # interchange)
                moves: List[Tuple[str, Optional[str], int]] = []
                for i, a in enumerate(symbols):
                    for b in symbols[i + 1 :]:
                        moves.append((a, b, -1))
                used = set(codes.values())
                for a in symbols:
                    for free in range(1 << nv):
                        if free not in used:
                            moves.append((a, None, free))
                rng.shuffle(moves)
                for a, b, free in moves:
                    old_a = codes[a]
                    old_b = codes[b] if b is not None else None
                    if b is not None:
                        codes[a], codes[b] = old_b, old_a
                    else:
                        if free in set(codes.values()):
                            continue
                        codes[a] = free
                    trial = Encoding(symbols, codes, nv)
                    total = scorer.total(trial)
                    if total < best_total:
                        best, best_total = trial, total
                        improved = True
                    else:
                        codes[a] = old_a
                        if b is not None:
                            codes[b] = old_b
                if not improved:
                    break
        converged = True
    except EncBudgetExceeded:
        if strict:
            raise
        converged = False
    finally:
        tracer.count("enc.minimizations", scorer.minimizations)
        tracer.count("enc.passes", passes)
        tracer.count("enc.memo_hits", scorer.hits)

    return EncResult(
        encoding=best,
        total_cubes=scorer.total(best, counted=False),
        minimizations=scorer.minimizations,
        converged=converged,
    )
