"""Tests for symbolic constraint derivation and encoding evaluation."""

import random

import pytest

import repro.encoding.evaluate as evaluate_module
from repro.cubes import Space
from repro.encoding import (
    ConstraintSet,
    Encoding,
    FaceConstraint,
    constraint_function,
    constraints_from_cover,
    cubes_for_constraint,
    derive_face_constraints,
    evaluate_encoding,
    minimize_symbolic_cover,
    satisfied_dichotomies,
)
from repro.encoding.symbolic import _fast_symbolic_merge
from repro.espresso import ExactLimitError, espresso, exact_minimize
from repro.fsm import fsm_to_symbolic_cover, load_benchmark, parse_kiss

# two states behave identically on input 0- (both go to 'hub' with
# output 1): symbolic minimization must merge them into one implicant,
# yielding the face constraint {a, b}
MERGEABLE = """
.i 2
.o 1
.r a
0- a hub 1
1- a a 0
0- b hub 1
1- b b 0
0- hub hub 0
1- hub a 0
"""


class TestSymbolicDerivation:
    def test_mergeable_states_become_constraint(self):
        fsm = parse_kiss(MERGEABLE)
        cset = derive_face_constraints(fsm)
        groups = [c.symbols for c in cset.nontrivial()]
        assert frozenset({"a", "b"}) in groups

    def test_constraint_weights_count_implicants(self):
        fsm = parse_kiss(MERGEABLE)
        cset = derive_face_constraints(fsm)
        for c in cset.nontrivial():
            assert c.weight >= 1.0

    def test_minimized_cover_still_covers(self):
        fsm = parse_kiss(MERGEABLE)
        space, original, states = fsm_to_symbolic_cover(fsm)
        space2, minimized, states2 = minimize_symbolic_cover(fsm)
        assert space == space2
        from repro.cubes import cover_contains_cube

        for cube in original:
            assert cover_contains_cube(space, minimized, cube)
        for cube in minimized:
            assert cover_contains_cube(space, original, cube)

    def test_constraints_from_cover_rejects_bad_states(self):
        fsm = parse_kiss(MERGEABLE)
        space, cover, states = fsm_to_symbolic_cover(fsm)
        with pytest.raises(ValueError):
            constraints_from_cover(space, cover, states + ["extra"])

    def test_fast_merge_equivalent_to_cover(self):
        fsm = load_benchmark("dk16")
        space, cover, states = fsm_to_symbolic_cover(fsm)
        merged = _fast_symbolic_merge(space, list(cover), len(states))
        from repro.cubes import cover_contains_cube

        assert len(merged) <= len(cover)
        for cube in cover:
            assert cover_contains_cube(space, merged, cube)
        for cube in merged:
            assert cover_contains_cube(space, cover, cube)

    def test_benchmark_constraint_counts_plausible(self):
        for name in ["bbara", "lion9", "keyb"]:
            cset = derive_face_constraints(load_benchmark(name))
            assert 1 <= len(cset.nontrivial()) <= 60


class TestConstraintFunction:
    def enc(self):
        return Encoding(
            ["a", "b", "c", "d", "e"],
            {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4},
            3,
        )

    def test_onset_and_dcset_shapes(self):
        space, onset, dcset = constraint_function(
            self.enc(), FaceConstraint({"a", "b"})
        )
        assert len(onset) == 2
        assert len(dcset) == 3  # codes 5, 6, 7 unused

    def test_satisfied_costs_one_cube(self):
        assert cubes_for_constraint(
            self.enc(), FaceConstraint({"a", "b"})
        ) == 1

    def test_violated_costs_more(self):
        # {a, d} spans face 0--, which contains b and c
        assert cubes_for_constraint(
            self.enc(), FaceConstraint({"a", "d"})
        ) == 2

    def test_dc_codes_reduce_cost(self):
        # {c, e}: face --0 would contain a; with codes 5..7 dc the
        # minimizer can still do it in 2 cubes at worst
        cost = cubes_for_constraint(self.enc(), FaceConstraint({"c", "e"}))
        assert cost <= 2

    def test_exact_and_heuristic_agree_on_small(self):
        enc = self.enc()
        for members in [{"a", "b"}, {"a", "d"}, {"b", "c", "d"}]:
            c = FaceConstraint(members)
            exact = cubes_for_constraint(enc, c, exact=True)
            heur = cubes_for_constraint(enc, c, exact=False)
            assert heur >= exact
            assert heur - exact <= 1


def reference_cubes(encoding, constraint, exact=None):
    """The evaluator with neither the known off-set nor the one-cube
    shortcut: every constraint goes through a minimizer."""
    space, onset, dcset = constraint_function(encoding, constraint)
    if exact is None:
        exact = encoding.n_bits <= 4
    if exact:
        try:
            return len(exact_minimize(space, onset, dcset))
        except ExactLimitError:
            pass
    return len(espresso(space, onset, dcset, use_lastgasp=False))


class TestCubesForConstraintDifferential:
    """``cubes_for_constraint`` against :func:`reference_cubes` on
    random injective encodings."""

    @pytest.mark.parametrize("nv", [2, 3, 4, 5, 6])
    def test_matches_reference(self, nv):
        rng = random.Random(nv)
        kinds = {"satisfied": 0, "singleton": 0, "intruded": 0}
        for _ in range(20 if nv < 6 else 8):
            n = rng.randint(2, 1 << nv)
            symbols = [f"s{i}" for i in range(n)]
            codes = rng.sample(range(1 << nv), n)
            enc = Encoding(symbols, dict(zip(symbols, codes)), nv)
            # a face's symbols, a singleton and a random subset
            mask = rng.getrandbits(nv)
            value = rng.getrandbits(nv) & mask
            groups = [
                enc.symbols_on_face(mask, value),
                [rng.choice(symbols)],
                rng.sample(symbols, rng.randint(2, n)),
            ]
            for members in groups:
                if not members:
                    continue
                c = FaceConstraint(members)
                if len(members) == 1:
                    kinds["singleton"] += 1
                elif enc.satisfies(c.symbols):
                    kinds["satisfied"] += 1
                else:
                    kinds["intruded"] += 1
                for exact in (None, True, False):
                    if exact and nv == 6 and len(members) > 8:
                        continue  # exact on 64 codes is slow, not wrong
                    assert cubes_for_constraint(
                        enc, c, exact=exact
                    ) == reference_cubes(enc, c, exact), (codes, members)
        assert all(kinds.values()), kinds

    def test_satisfied_constraint_calls_no_minimizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("minimizer called")

        monkeypatch.setattr(evaluate_module, "espresso", refuse)
        monkeypatch.setattr(evaluate_module, "exact_minimize", refuse)
        enc = Encoding(["a", "b", "c", "d"], {"a": 0, "b": 1, "c": 2, "d": 6})
        for exact in (None, True, False):
            assert cubes_for_constraint(
                enc, FaceConstraint({"a", "b"}), exact=exact
            ) == 1
            assert cubes_for_constraint(
                enc, FaceConstraint({"d"}), exact=exact
            ) == 1
            with pytest.raises(AssertionError, match="minimizer called"):
                cubes_for_constraint(
                    enc, FaceConstraint({"a", "d"}), exact=exact
                )


class TestEvaluateEncoding:
    def test_report_totals(self):
        syms = ["a", "b", "c", "d"]
        cset = ConstraintSet(
            syms, [FaceConstraint({"a", "b"}), FaceConstraint({"a", "c"})]
        )
        enc = Encoding(syms, {"a": 0, "b": 1, "c": 2, "d": 3}, 2)
        report = evaluate_encoding(enc, cset)
        assert report.n_constraints == 2
        assert report.n_satisfied == 2
        assert report.total_cubes == 2
        assert "2/2" in report.summary()

    def test_rejects_non_injective(self):
        syms = ["a", "b"]
        cset = ConstraintSet(syms, [])
        enc = Encoding(syms, {"a": 0, "b": 0}, 1)
        with pytest.raises(ValueError):
            evaluate_encoding(enc, cset)

    def test_satisfied_dichotomies_counts(self):
        syms = ["a", "b", "c", "d"]
        cset = ConstraintSet(syms, [FaceConstraint({"a", "b"})])
        enc = Encoding(syms, {"a": 0, "b": 1, "c": 2, "d": 3}, 2)
        done, total = satisfied_dichotomies(enc, cset)
        assert total == 2  # outsiders c and d
        assert done == 2  # column 0 separates both


class TestIncompleteSpecification:
    def test_missing_rows_become_dc(self):
        from repro.fsm import parse_kiss

        # state b has no row for input 1: that territory is dc
        kiss = ".i 1\n.o 1\n.r a\n0 a b 1\n1 a a 0\n0 b a 1\n"
        fsm = parse_kiss(kiss)
        space, cover, dc, states = fsm_to_symbolic_cover(
            fsm, with_dc=True
        )
        assert dc, "unspecified territory must appear as don't-care"
        # the dc cube must cover (input=1, state=b, any output)
        from repro.cubes import contains

        b = states.index("b")
        target = space.make_cube(
            [0b10, 1 << b, space.part_masks[-1] >> space.offsets[-1]]
        )
        assert any(contains(d, target) for d in dc)

    def test_dc_outputs_collected(self):
        from repro.fsm import parse_kiss

        kiss = ".i 1\n.o 2\n.r a\n0 a b 1-\n1 a a 00\n0 b a 11\n1 b b 00\n"
        fsm = parse_kiss(kiss)
        space, cover, dc, states = fsm_to_symbolic_cover(
            fsm, with_dc=True
        )
        # row "0 a b 1-": output 1 of that row is dc
        assert any(
            space.field(d, space.num_parts - 1)
            == 1 << (len(states) + 1)
            for d in dc
        )

    def test_minimization_exploits_dc(self):
        from repro.fsm import parse_kiss
        from repro.encoding import minimize_symbolic_cover

        # two states share behaviour on input 0; state b unspecified
        # on input 1 -> rows can merge with a's thanks to dc
        kiss = (
            ".i 1\n.o 1\n.r a\n"
            "0 a hub 1\n1 a a 0\n"
            "0 b hub 1\n"
            "0 hub hub 0\n1 hub a 0\n"
        )
        fsm = parse_kiss(kiss)
        space, minimized, states = minimize_symbolic_cover(fsm)
        cset = constraints_from_cover(space, minimized, states)
        groups = [c.symbols for c in cset.nontrivial()]
        assert frozenset({"a", "b"}) in groups
