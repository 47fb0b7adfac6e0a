"""Scoring encodings: product terms needed to implement the constraints.

This is the paper's quality measure for Table I.  Each face constraint
``L`` induces a single-output Boolean function over the code space
(footnote 2 of the paper):

* on-set: the codes of the symbols in ``L``,
* off-set: the codes of the symbols not in ``L``,
* don't-care set: the unused codes.

The number of cubes in a minimized sum-of-products for that function —
one per constraint, summed — measures how economically the encoding
implements the complete constraint set: a satisfied constraint costs
exactly one cube, an infeasible one costs however many its intruders
force (Theorem I gives the constructive bound).

:func:`cubes_for_constraint` uses both facts the constraint already
states.  A satisfied constraint (a non-empty on-set whose face holds no
intruder) scores 1 with no minimizer call: the face is a one-cube cover,
and espresso's first prime grows to the face before any out-of-face
raise.  Otherwise espresso gets the off-set directly, as the minterms of
the used codes outside the on-set, instead of complementing on-set plus
don't-cares.  Both give the count the minimizer alone would.

Every encoder in this repository is scored by this same evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cubes import Space, contains
from ..espresso import ExactLimitError, espresso, exact_minimize
from ..runtime import InvalidSpecError
from .codes import Encoding
from .constraints import ConstraintSet, FaceConstraint, SeedDichotomy

__all__ = [
    "constraint_function",
    "cubes_for_constraint",
    "evaluate_encoding",
    "EvaluationReport",
    "ConstraintScore",
]


@lru_cache(maxsize=None)
def _binary_codes(nv: int) -> Tuple[Space, Tuple[int, ...]]:
    """``Space.binary(nv)`` and the minterm of every ``nv``-bit code.

    Code bit ``nv - 1 - b`` (column ``b``, MSB first) is variable ``b``.
    """
    space = Space.binary(nv)
    minterms = tuple(
        space.minterm([(code >> (nv - 1 - b)) & 1 for b in range(nv)])
        for code in range(1 << nv)
    )
    return space, minterms


def constraint_function(
    encoding: Encoding, constraint: FaceConstraint
) -> Tuple[Space, List[int], List[int]]:
    """(space, onset, dcset) of the constraint's Boolean function."""
    space, minterm = _binary_codes(encoding.n_bits)
    onset = [
        minterm[encoding.code_of(s)] for s in sorted(constraint.symbols)
    ]
    dcset = [minterm[code] for code in encoding.unused_codes()]
    return space, onset, dcset


def cubes_for_constraint(
    encoding: Encoding,
    constraint: FaceConstraint,
    *,
    exact: Optional[bool] = None,
) -> int:
    """Minimized product-term count for one constraint.

    A satisfied constraint costs 1 with no minimizer call (a
    :class:`FaceConstraint` is never empty).  Otherwise this uses the
    exact minimizer on small code spaces (the default for ``nv <= 4``)
    and the espresso heuristic, given the off-set, otherwise.
    """
    if encoding.satisfies(constraint.symbols):
        return 1
    space, onset, dcset = constraint_function(encoding, constraint)
    if exact is None:
        exact = encoding.n_bits <= 4
    if exact:
        try:
            return len(exact_minimize(space, onset, dcset))
        except ExactLimitError:
            pass
    _, minterm = _binary_codes(encoding.n_bits)
    members = {encoding.code_of(s) for s in constraint.symbols}
    offset = [
        minterm[code]
        for code in sorted(set(encoding.codes.values()) - members)
    ]
    return len(
        espresso(space, onset, dcset, offset=offset, use_lastgasp=False)
    )


@dataclass
class ConstraintScore:
    constraint: FaceConstraint
    cubes: int
    satisfied: bool
    intruders: Tuple[str, ...]


@dataclass
class EvaluationReport:
    """Everything Table I needs about one encoding."""

    encoding: Encoding
    scores: List[ConstraintScore] = field(default_factory=list)

    @property
    def total_cubes(self) -> int:
        return sum(s.cubes for s in self.scores)

    @property
    def n_constraints(self) -> int:
        return len(self.scores)

    @property
    def n_satisfied(self) -> int:
        return sum(1 for s in self.scores if s.satisfied)

    def summary(self) -> str:
        return (
            f"{self.n_satisfied}/{self.n_constraints} constraints "
            f"satisfied, {self.total_cubes} cubes total"
        )


def evaluate_encoding(
    encoding: Encoding,
    constraints: ConstraintSet,
    *,
    exact: Optional[bool] = None,
) -> EvaluationReport:
    """Score an encoding against the *original* constraint set."""
    if not encoding.is_injective():
        raise InvalidSpecError("encoding is not injective")
    report = EvaluationReport(encoding)
    n = len(constraints.symbols)
    for constraint in constraints.nontrivial():
        intruders = tuple(encoding.intruders(constraint.symbols))
        cubes = cubes_for_constraint(encoding, constraint, exact=exact)
        report.scores.append(
            ConstraintScore(
                constraint=constraint,
                cubes=cubes,
                satisfied=not intruders,
                intruders=intruders,
            )
        )
    return report


def satisfied_dichotomies(
    encoding: Encoding, constraints: ConstraintSet
) -> Tuple[int, int]:
    """(satisfied, total) seed dichotomies of the nontrivial constraints."""
    total = 0
    done = 0
    columns = encoding.columns()
    for d in constraints.all_seed_dichotomies():
        total += 1
        if any(d.satisfied_by_column(col) for col in columns):
            done += 1
    return done, total
