"""Tests for espresso's loop options and statistics."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes import Space, complement, contains
from repro.espresso import EspressoStats, espresso, espresso_pla, Pla


def semantics(space, cover):
    return {
        m
        for m in space.iter_minterms()
        if any(contains(c, m) for c in cover)
    }


class TestLoopOptions:
    def setup_method(self):
        self.space = Space.binary(4)
        self.onset = [
            self.space.parse_cube(r)
            for r in ["0000", "0001", "0011", "0111", "1111", "1110"]
        ]

    def test_no_essentials_still_equivalent(self):
        got = espresso(self.space, self.onset, use_essentials=False)
        assert semantics(self.space, got) == semantics(
            self.space, self.onset
        )

    def test_no_lastgasp_still_equivalent(self):
        got = espresso(self.space, self.onset, use_lastgasp=False)
        assert semantics(self.space, got) == semantics(
            self.space, self.onset
        )

    def test_max_iterations_one(self):
        got = espresso(self.space, self.onset, max_iterations=1)
        assert semantics(self.space, got) == semantics(
            self.space, self.onset
        )

    def test_option_combinations_agree_on_cost_ballpark(self):
        costs = set()
        for ess in (True, False):
            for lg in (True, False):
                got = espresso(
                    self.space, self.onset,
                    use_essentials=ess, use_lastgasp=lg,
                )
                costs.add(len(got))
        assert max(costs) - min(costs) <= 1

    def test_stats_track_essentials(self):
        stats = EspressoStats()
        espresso(self.space, self.onset, stats=stats)
        assert stats.initial_terms == len(self.onset)
        assert stats.final_terms <= stats.initial_terms
        assert stats.essential_terms >= 0

    def test_espresso_pla_forwards_stats(self):
        pla = Pla(2, 1)
        pla.add_term("00", "1")
        pla.add_term("01", "1")
        stats = EspressoStats()
        out = espresso_pla(pla, stats=stats)
        assert stats.final_terms == out.num_terms() == 1


@st.composite
def functions(draw):
    """A binary or multi-valued space with an on-set and a dc-set of
    random (non-void) cubes."""
    if draw(st.booleans()):
        space = Space.binary(draw(st.integers(min_value=1, max_value=5)))
    else:
        space = Space(draw(st.lists(
            st.integers(min_value=2, max_value=4), min_size=1, max_size=4
        )))

    def cube():
        result = 0
        for part, size in enumerate(space.part_sizes):
            field = draw(st.integers(min_value=1, max_value=(1 << size) - 1))
            result |= field << space.offsets[part]
        return result

    onset = [cube() for _ in range(draw(st.integers(0, 6)))]
    dcset = [cube() for _ in range(draw(st.integers(0, 3)))]
    return space, onset, dcset


class TestKnownOffset:
    """``offset=`` only skips the complement: any cover of the same
    points gives the byte-identical result."""

    @settings(max_examples=150, deadline=None)
    @given(functions(), st.booleans(), st.booleans())
    def test_offset_matches_computed_complement(
        self, function, essentials, lastgasp
    ):
        space, onset, dcset = function
        options = dict(use_essentials=essentials, use_lastgasp=lastgasp)
        reference = espresso(space, onset, dcset, **options)
        off = complement(space, list(onset) + list(dcset))
        off_minterms = [
            m for m in space.iter_minterms()
            if not any(contains(c, m) for c in list(onset) + list(dcset))
        ]
        for offset in (off, off_minterms):
            got = espresso(space, onset, dcset, offset=offset, **options)
            assert got == reference

    def test_offset_skips_the_complement(self, monkeypatch):
        # ``repro.espresso`` as an attribute is the function, so fetch
        # the module itself
        minimize_module = importlib.import_module("repro.espresso.minimize")
        space = Space.binary(3)
        onset = [space.parse_cube(r) for r in ["000", "011"]]
        off = complement(space, onset)
        reference = espresso(space, onset)

        def refuse(*args, **kwargs):
            raise AssertionError("complement called despite offset=")

        monkeypatch.setattr(minimize_module, "complement", refuse)
        assert espresso(space, onset, offset=off) == reference


class TestHarnessEncSkip:
    def test_enc_skip_row_not_attempted(self):
        from repro.harness import run_table1
        from repro.harness.table1 import ENC_SKIP

        name = sorted(ENC_SKIP)[0]
        report = run_table1([name], include_enc=True, enc_budget=10)
        row = report.rows[0]
        assert row.cubes_enc is None
        # it was "attempted" at the harness level (include_enc=True),
        # so the table renders `fails`, matching the paper's cell
        assert row.enc_attempted
        assert "fails" in report.render()


class TestStateassignExtras:
    def test_picola_extra_fields(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        result = assign_states(load_benchmark("lion9"), "picola")
        assert "satisfied" in result.extra
        assert "espresso_iterations" in result.extra

    def test_enc_extra_fields(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        result = assign_states(load_benchmark("seq101"), "enc")
        assert "converged" in result.extra

    def test_mustang_extra_fields(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        result = assign_states(load_benchmark("lion"), "mustang_p")
        assert "attraction" in result.extra
