"""Tests for the NOVA-, ENC-style and trivial baseline encoders."""

import pytest

import repro.baselines.enc as enc_module
from repro.baselines import (
    EncBudgetExceeded,
    best_random_encoding,
    enc_encode,
    gray_encoding,
    natural_encoding,
    nova_encode,
    random_encoding,
    state_affinity,
)
from repro.encoding import (
    ConstraintSet,
    FaceConstraint,
    derive_face_constraints,
)
from repro.fsm import load_benchmark, parse_kiss
from repro.obs import Tracer
from repro.runtime import SolverTimeout, faults


def cset_of(n, groups):
    syms = [f"s{i}" for i in range(n)]
    return ConstraintSet(
        syms, [FaceConstraint({f"s{i}" for i in g}) for g in groups]
    )


class TestSimpleEncoders:
    def test_natural(self):
        enc = natural_encoding(["a", "b", "c"])
        assert enc.codes == {"a": 0, "b": 1, "c": 2}
        assert enc.n_bits == 2

    def test_gray_adjacent_codes(self):
        enc = gray_encoding([f"s{i}" for i in range(8)])
        codes = [enc.codes[f"s{i}"] for i in range(8)]
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_random_is_injective_and_seeded(self):
        syms = [f"s{i}" for i in range(9)]
        a = random_encoding(syms, seed=3)
        b = random_encoding(syms, seed=3)
        c = random_encoding(syms, seed=4)
        assert a.codes == b.codes
        assert a.is_injective()
        assert a.codes != c.codes

    def test_too_small_nv_rejected(self):
        with pytest.raises(ValueError):
            natural_encoding(["a", "b", "c"], nv=1)

    def test_best_random_scores_by_satisfaction(self):
        cs = cset_of(4, [[0, 1]])
        enc = best_random_encoding(cs, trials=16)
        assert enc.satisfies({"s0", "s1"})


class TestNova:
    def test_satisfies_easy_constraints(self):
        cs = cset_of(8, [[0, 1], [2, 3], [4, 5, 6, 7]])
        result = nova_encode(cs, seed=1)
        assert result.satisfied == 3
        assert result.encoding.is_injective()

    def test_variants(self):
        cs = cset_of(6, [[0, 1], [2, 3]])
        for variant in ("i_greedy", "i_hybrid"):
            result = nova_encode(cs, variant=variant, seed=2)
            assert result.encoding.is_injective()
            assert result.variant == variant

    def test_io_hybrid_uses_affinity(self):
        cs = cset_of(4, [])
        affinity = {("s0", "s1"): 5.0}
        result = nova_encode(
            cs, variant="io_hybrid", affinity=affinity, seed=0
        )
        # the affinity bonus should pull s0 and s1 close together
        dist = bin(
            result.encoding.code_of("s0") ^ result.encoding.code_of("s1")
        ).count("1")
        assert dist == 1

    def test_unknown_variant_rejected(self):
        cs = cset_of(4, [])
        with pytest.raises(ValueError):
            nova_encode(cs, variant="nope")

    def test_deterministic_per_seed(self):
        cs = cset_of(9, [[0, 1, 2], [3, 4]])
        a = nova_encode(cs, seed=7).encoding.codes
        b = nova_encode(cs, seed=7).encoding.codes
        assert a == b


class TestEnc:
    def test_improves_over_natural(self):
        cs = cset_of(8, [[0, 7], [1, 6]])  # natural numbering violates
        result = enc_encode(cs, max_minimizations=3000)
        assert result.converged
        assert result.encoding.is_injective()
        # two pair constraints are always satisfiable in B^3
        assert result.total_cubes == 2

    def test_budget_failure_nonstrict(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        result = enc_encode(cs, max_minimizations=5)
        assert not result.converged
        assert result.encoding.is_injective()

    def test_budget_failure_strict_raises(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(EncBudgetExceeded):
            enc_encode(cs, max_minimizations=5, strict=True)

    def test_counts_minimizations(self):
        cs = cset_of(4, [[0, 1]])
        result = enc_encode(cs)
        assert result.minimizations > 0


#: enc_encode(seed=1) results recorded before the per-call memo: the
#: memo must leave codes, cube totals and minimization counts as they were
ENC_GOLDEN = {
    # exact minimizer (nv <= 4)
    "lion9": (
        {"st0": 0, "st7": 4, "st1": 12, "st2": 1, "st3": 3, "st4": 13,
         "st5": 10, "st8": 6, "st6": 8},
        5, 1395, True,
    ),
    "ex3": (
        {"st0": 14, "st1": 2, "st7": 1, "st2": 3, "st5": 4, "st3": 5,
         "st4": 0, "st8": 6, "st6": 8, "st9": 9},
        11, 1212, True,
    ),
    "s27": (
        {"st0": 0, "st1": 1, "st4": 3, "st3": 6, "st2": 4, "st5": 5},
        11, 432, True,
    ),
    # espresso (nv = 5)
    "tma": (
        {"st0": 0, "st1": 1, "st2": 23, "st3": 3, "st4": 4, "st12": 5,
         "st6": 16, "st5": 7, "st7": 8, "st10": 28, "st8": 10, "st9": 11,
         "st11": 12, "st14": 13, "st13": 14, "st15": 15, "st16": 6,
         "st17": 26, "st18": 18, "st19": 9},
        7, 3228, True,
    ),
    # budget exhausted at Table I's default enc_budget
    "dk16": (
        {"st0": 0, "st1": 23, "st2": 2, "st3": 30, "st4": 31, "st6": 21,
         "st11": 3, "st7": 18, "st15": 8, "st10": 9, "st5": 10,
         "st24": 22, "st12": 12, "st23": 13, "st20": 16, "st8": 15,
         "st9": 26, "st16": 17, "st25": 7, "st13": 19, "st21": 29,
         "st18": 5, "st14": 14, "st22": 1, "st17": 6, "st19": 25,
         "st26": 27},
        23, 6001, False,
    ),
}


class TestEncGolden:
    @pytest.mark.parametrize("name", sorted(ENC_GOLDEN))
    def test_matches_recorded_result(self, name):
        codes, total, minimizations, converged = ENC_GOLDEN[name]
        cset = derive_face_constraints(load_benchmark(name))
        result = enc_encode(cset, seed=1, max_minimizations=6000)
        assert result.encoding.codes == codes
        assert list(result.encoding.codes) == list(codes)
        assert result.total_cubes == total
        assert result.minimizations == minimizations
        assert result.converged is converged


class TestEncBudgetBlowout:
    """A budget that runs out mid-trial returns the best *scored*
    encoding, never the half-applied trial that was being scored."""

    @pytest.mark.parametrize(
        "name,cap", [("lion9", 50), ("tma", 1000), ("bbara", 500)]
    )
    def test_returns_lowest_counted_trial(self, name, cap, monkeypatch):
        totals = []
        real = enc_module._Scorer.total

        def recording(self, enc, *, counted=True):
            total = real(self, enc, counted=counted)
            if counted:
                totals.append(total)
            return total

        monkeypatch.setattr(enc_module._Scorer, "total", recording)
        cset = derive_face_constraints(load_benchmark(name))
        result = enc_encode(cset, seed=1, max_minimizations=cap)
        assert not result.converged
        assert result.minimizations == cap + 1
        assert result.total_cubes == min(totals)


class TestEncMemo:
    """Memo hits are still constraint evaluations: they count, tick
    the budget and leave the per-trial fault site in place."""

    CSET = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])

    def test_hits_count_toward_max_minimizations(self):
        full = enc_encode(self.CSET, max_minimizations=20000)
        assert full.converged
        cut = enc_encode(self.CSET, max_minimizations=5)
        assert cut.minimizations == 6  # stopped at the same evaluation
        assert not cut.converged
        # a budget that ends mid-run stops at exactly its limit + 1
        half = full.minimizations // 2
        assert enc_encode(
            self.CSET, max_minimizations=half
        ).minimizations == half + 1

    def test_fault_site_trips_once_per_trial(self):
        with faults.inject(
            "enc.minimize", SolverTimeout, after=10**9, times=None
        ) as fault:
            result = enc_encode(self.CSET)
        assert result.converged
        trials = fault.hits
        assert trials * len(self.CSET.nontrivial()) == result.minimizations
        # an armed fault still fires on the trial it names
        with faults.inject("enc.minimize", SolverTimeout, after=trials):
            with pytest.raises(SolverTimeout):
                enc_encode(self.CSET)

    def test_memo_lives_for_one_call(self, monkeypatch):
        calls = []
        real = enc_module.cubes_for_constraint

        def counting(enc, c, **kw):
            calls.append(1)
            return real(enc, c, **kw)

        monkeypatch.setattr(enc_module, "cubes_for_constraint", counting)
        first = enc_encode(self.CSET)
        n_first = len(calls)
        second = enc_encode(self.CSET)
        assert len(calls) == 2 * n_first
        assert second == first
        # the memo saves work: fewer minimizer calls than evaluations
        assert 0 < n_first < first.minimizations

    def test_memo_hits_counter(self):
        tracer = Tracer()
        result = enc_encode(self.CSET, tracer=tracer)
        hits = tracer.counter("enc.memo_hits")
        assert 0 < hits < result.minimizations
        assert tracer.counter("enc.minimizations") == result.minimizations


class TestStateAffinity:
    def test_common_fanout_earns_weight(self):
        fsm = parse_kiss(
            """
.i 1
.o 1
.r a
0 a c 0
1 a a 0
0 b c 0
1 b b 0
0 c c 1
1 c a 1
"""
        )
        affinity = state_affinity(fsm)
        assert affinity.get(("a", "b"), 0) > 0  # both go to c on 0


class TestMustang:
    def test_variants_run(self):
        fsm = parse_kiss(
            """
.i 1
.o 1
.r a
0 a c 0
1 a a 0
0 b c 0
1 b b 0
0 c c 1
1 c a 1
"""
        )
        from repro.baselines import mustang_encode

        for variant in ("p", "n"):
            result = mustang_encode(fsm, variant=variant, seed=2)
            assert result.encoding.is_injective()
            assert result.variant == variant

    def test_attracted_states_get_close_codes(self):
        from repro.baselines import attraction_graph, mustang_encode

        fsm = parse_kiss(
            """
.i 1
.o 1
.r a
0 a c 1
1 a a 0
0 b c 1
1 b b 0
0 c c 0
1 c d 0
0 d d 0
1 d a 0
"""
        )
        graph = attraction_graph(fsm, "p")
        assert graph.get(("a", "b"), 0) > 0
        result = mustang_encode(fsm, variant="p", seed=1)
        dist = bin(
            result.encoding.code_of("a") ^ result.encoding.code_of("b")
        ).count("1")
        assert dist == 1

    def test_unknown_variant_rejected(self):
        from repro.baselines import attraction_graph

        fsm = parse_kiss(".i 1\n.o 1\n.r a\n0 a a 1\n1 a a 0\n")
        with pytest.raises(ValueError):
            attraction_graph(fsm, "x")

    def test_deterministic(self):
        from repro.baselines import mustang_encode
        from repro.fsm import load_benchmark

        fsm = load_benchmark("lion9")
        a = mustang_encode(fsm, seed=5).encoding.codes
        b = mustang_encode(fsm, seed=5).encoding.codes
        assert a == b
