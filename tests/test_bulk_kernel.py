"""Tests for the packed bulk cube kernel.

Every bulk primitive of :class:`~repro.cubes.bulk.pybackend.PythonKernel`
is pinned against a per-cube reference built from
:mod:`repro.cubes.cube` on hypothesis-generated covers — including
multi-limb spaces wider than 64 bits — and the whole algorithms built
on the kernel (complement, tautology, espresso) are checked against
minterm semantics, so solver output stays tied to the per-cube
definitions.
"""

import itertools
import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Space
from repro.cubes import cube as legacy
from repro.cubes.bulk import active_kernel
from repro.cubes.complement import complement
from repro.cubes.tautology import cover_contains_cube, tautology
from repro.espresso import espresso
from repro.espresso.sparse import make_sparse

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=2, max_value=5), min_size=n, max_size=n
        )
    )
    if draw(st.booleans()):
        sizes = sizes + [4] * 16  # > 64 bits: exercise multi-limb rows
    return Space(sizes)


def _draw_cube(draw, space, allow_void):
    cube = 0
    for size, offset in zip(space.part_sizes, space.offsets):
        low = 0 if allow_void else 1
        field = draw(st.integers(min_value=low, max_value=(1 << size) - 1))
        cube |= field << offset
    return cube


@st.composite
def problems(draw):
    """(space, cover, pivot cube, part, value) for the primitive diffs."""
    space = draw(spaces())
    n = draw(st.integers(min_value=0, max_value=8))
    allow_void = draw(st.booleans())
    cover = [_draw_cube(draw, space, allow_void) for _ in range(n)]
    pivot = _draw_cube(draw, space, allow_void=False)
    part = draw(st.integers(min_value=0, max_value=space.num_parts - 1))
    value = draw(
        st.integers(min_value=0, max_value=space.part_sizes[part] - 1)
    )
    return space, cover, pivot, part, value


def _large_cover():
    """150 cubes over ``Space.binary(10, 5)``: a cover far larger than
    the hypothesis draws, small enough to enumerate (5120 minterms)."""
    space = Space.binary(10, 5)
    rng = random.Random(11)
    cover = []
    for _ in range(150):
        cube = 0
        for size, offset in zip(space.part_sizes, space.offsets):
            field = (
                (1 << size) - 1
                if rng.random() < 0.4
                else 1 << rng.randrange(size)
            )
            cube |= field << offset
        cover.append(cube)
    return space, cover


def _minterms(space):
    """Every minterm of ``space``, or None when there are over 5120."""
    total = 1
    for size in space.part_sizes:
        total *= size
    if total > 5120:
        return None
    return [
        space.minterm(list(values))
        for values in itertools.product(
            *(range(size) for size in space.part_sizes)
        )
    ]


def _covered(cover, points):
    return {m for m in points if any(legacy.contains(c, m) for c in cover)}


def _primitive_results(kernel, space, cover, pivot, part, value):
    """Every primitive the other legacy tests do not pin, unpacked."""
    packed = kernel.pack(space, cover)
    pair = kernel.pack(space, [pivot, space.universe])
    out = {
        "roundtrip": kernel.unpack(space, packed),
        "length": kernel.length(packed),
        "empty": kernel.unpack(space, kernel.empty(space)),
        "single": kernel.unpack(space, kernel.single(space, pivot)),
        "union_info": kernel.union_info(space, packed),
        "popcounts": list(kernel.popcounts(space, packed)),
        "nonfull_counts": list(kernel.nonfull_counts(space, packed)),
        "is_unate": kernel.is_unate(space, packed),
        "binate_part": kernel.binate_part(space, packed),
        "admits_rows": list(kernel.admits_rows(space, packed, pivot)),
        "cofactor_value": kernel.unpack(
            space, kernel.cofactor_value(space, packed, part, value)
        ),
        "and_rows": kernel.unpack(
            space, kernel.and_rows(space, packed, pivot)
        ),
        "merge_part": kernel.unpack(
            space, kernel.merge_part(space, packed, part)
        ),
        "dedup_keep_mask": list(kernel.dedup_keep_mask(space, packed)),
        "cross_intersect": kernel.unpack(
            space, kernel.cross_intersect(space, packed, pair)
        ),
        "cross_intersect_self": kernel.unpack(
            space, kernel.cross_intersect(space, packed, packed)
        ),
        "blocked_raises": kernel.blocked_raises(space, packed, pivot),
        "best_raise": kernel.best_raise(
            space, packed, pivot, space.universe & ~pivot
        ),
        "best_raise_none": kernel.best_raise(space, packed, pivot, 0),
        "concat": kernel.unpack(
            space,
            kernel.concat(space, packed, kernel.pack(space, [pivot])),
        ),
        "select": kernel.unpack(
            space,
            kernel.select(
                space, packed, [i % 2 == 0 for i in range(len(cover))]
            ),
        ),
        "gather": kernel.unpack(
            space, kernel.gather(space, packed, list(range(len(cover)))[::-1])
        ),
    }
    if cover:
        out["row0"] = kernel.row(space, packed, 0)
        out["delete_row"] = kernel.unpack(
            space, kernel.delete_row(space, packed, 0)
        )
        out["with_row"] = kernel.unpack(
            space, kernel.with_row(space, packed, 0, pivot)
        )
    return out


def _reference_results(space, cover, pivot, part, value):
    """The same keys as :func:`_primitive_results`, one cube at a time."""
    parts = range(space.num_parts)

    def weight(c):
        return sum(bin(f).count("1") for f in space.fields(c))

    nonfull = [
        sum(p in legacy.active_parts(space, c) for c in cover) for p in parts
    ]
    literal = space.literal(part, value)

    merged = {}
    for c in cover:
        key = space.with_field(c, part, 0)
        merged[key] = merged.get(key, 0) | space.field(c, part)

    blocked = 0
    for o in cover:
        if legacy.distance(space, o, pivot) == 1:
            (conflict,) = [
                p for p in parts if not space.field(o, p) & space.field(pivot, p)
            ]
            blocked |= o & space.part_masks[conflict]

    def raise_key(bit):
        grown = pivot | bit
        return (
            sum(legacy.contains(grown, o) for o in cover),
            sum(bool(o & bit) for o in cover),
        )

    candidates = [
        1 << i for i in range(space.width) if (space.universe & ~pivot) >> i & 1
    ]

    def meets(a, b):
        return [m for x in a for y in b for m in [legacy.intersect(space, x, y)] if m]

    out = {
        "roundtrip": list(cover),
        "length": len(cover),
        "empty": [],
        "single": [pivot],
        "union_info": (legacy.supercube(cover), space.universe in cover),
        "popcounts": [weight(c) for c in cover],
        "nonfull_counts": nonfull,
        "is_unate": all(
            len({space.field(c, p) for c in cover if p in legacy.active_parts(space, c)})
            <= 1
            for p in parts
        ),
        # the first part among those non-full in the most rows
        "binate_part": nonfull.index(max(nonfull)),
        "admits_rows": [
            any(space.field(c, p) & space.field(pivot, p) for p in parts)
            for c in cover
        ],
        "cofactor_value": [
            legacy.cofactor(space, c, literal)
            for c in cover
            if space.field(c, part) >> value & 1
        ],
        "and_rows": [
            space.make_cube(
                [f & g for f, g in zip(space.fields(c), space.fields(pivot))]
            )
            for c in cover
        ],
        "merge_part": [
            space.with_field(key, part, field) for key, field in merged.items()
        ],
        # keep a row iff no other row strictly contains it and it is
        # the first copy of itself
        "dedup_keep_mask": [
            not any(legacy.strictly_contains(d, c) for d in cover)
            and cover.index(c) == i
            for i, c in enumerate(cover)
        ],
        "cross_intersect": meets(cover, [pivot, space.universe]),
        "cross_intersect_self": meets(cover, cover),
        "blocked_raises": blocked,
        # max() keeps the first of equal keys: the lowest candidate bit
        "best_raise": max(candidates, key=raise_key, default=0),
        "best_raise_none": 0,
        "concat": list(cover) + [pivot],
        "select": cover[::2],
        "gather": cover[::-1],
    }
    if cover:
        out["row0"] = cover[0]
        out["delete_row"] = cover[1:]
        out["with_row"] = [pivot] + cover[1:]
    return out


class TestLegacyEquivalence:
    """The kernel replicates the per-cube int implementations."""

    @SETTINGS
    @given(problems())
    def test_every_primitive_matches(self, problem):
        assert _primitive_results(active_kernel(), *problem) == (
            _reference_results(*problem)
        )

    def test_large_cover_matches(self):
        space, cover = _large_cover()
        for pivot, part in ((cover[0], 0), (cover[1], space.num_parts - 1)):
            problem = (space, cover, pivot, part, 0)
            assert _primitive_results(active_kernel(), *problem) == (
                _reference_results(*problem)
            )

    @SETTINGS
    @given(problems())
    def test_row_masks_match_cube_functions(self, problem):
        space, cover, pivot, _, _ = problem
        kernel = active_kernel()
        packed = kernel.pack(space, cover)
        assert kernel.void_mask(space, packed) == [
            legacy.is_void(space, c) for c in cover
        ]
        assert kernel.contains_rows(space, packed, pivot) == [
            legacy.contains(c, pivot) for c in cover
        ]
        assert kernel.contained_rows(space, packed, pivot) == [
            legacy.contains(pivot, c) for c in cover
        ]
        assert kernel.or_fold(space, packed) == legacy.supercube(cover)
        assert kernel.intersects_any(space, packed, pivot) == any(
            legacy.intersect(space, c, pivot) for c in cover
        )

    @SETTINGS
    @given(problems())
    def test_cofactor_and_absorb_match(self, problem):
        space, cover, pivot, _, _ = problem
        kernel = active_kernel()
        packed = kernel.pack(space, cover)
        lifted = space.universe & ~pivot
        assert kernel.cofactor_cube(space, packed, pivot) == [
            c | lifted for c in cover if legacy.intersect(space, c, pivot)
        ]
        assert kernel.absorb(space, kernel.pack(space, cover)) == (
            legacy.absorb(list(cover))
        )

    @SETTINGS
    @given(problems())
    def test_minterm_count_matches_enumeration(self, problem):
        space, cover, _, _, _ = problem
        total = 1
        for size in space.part_sizes:
            total *= size
        if total > 2048:
            return  # enumeration too large
        kernel = active_kernel()
        count = sum(
            1
            for values in itertools.product(
                *(range(size) for size in space.part_sizes)
            )
            if any(
                legacy.contains(c, space.minterm(list(values)))
                for c in cover
            )
        )
        assert kernel.minterm_count(space, kernel.pack(space, cover)) == count


class TestAlgorithmDifferential:
    """Whole algorithms on the kernel agree with minterm semantics."""

    @SETTINGS
    @given(problems())
    def test_complement_tautology_espresso(self, problem):
        space, cover, pivot, _, _ = problem
        nonvoid = [c for c in cover if not legacy.is_void(space, c)]
        comp = complement(space, nonvoid)
        minimized = espresso(space, list(nonvoid))
        sparse = make_sparse(space, list(nonvoid))
        # per-cube checks that hold at any width, multi-limb included
        for result in (nonvoid, minimized, sparse):
            assert not any(
                legacy.intersect(space, c, d) for c in comp for d in result
            )
        assert tautology(space, nonvoid) == (comp == [])
        assert cover_contains_cube(space, nonvoid, pivot) == (
            not any(legacy.intersect(space, pivot, c) for c in comp)
        )
        points = _minterms(space)
        if points is None:
            return
        on = _covered(nonvoid, points)
        assert _covered(comp, points) == set(points) - on
        assert _covered(minimized, points) == on
        assert _covered(sparse, points) == on
        assert tautology(space, nonvoid) == (len(on) == len(points))
        assert cover_contains_cube(space, nonvoid, pivot) == (
            _covered([pivot], points) <= on
        )

    def test_large_cover_whole_algorithm(self):
        space, cover = _large_cover()
        points = _minterms(space)
        on = _covered(cover, points)
        assert _covered(complement(space, cover), points) == set(points) - on
        assert _covered(espresso(space, list(cover)), points) == on


def test_import_repro_does_not_load_numpy():
    # numpy's import cost would land in every run's start-up time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"
