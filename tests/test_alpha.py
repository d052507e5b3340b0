import math
import random
import time
from fractions import Fraction

import pytest

from sunflower_lab import (
    BudgetExceededError,
    EmptyFamilyError,
    ParameterError,
    SetFamily,
    alpha_exact,
    alpha_monte_carlo,
    check_inequalities,
    count_sunflower_tuples,
    evaluate_bound,
    extremal_search,
    find_sunflower,
    lambda_number,
    log_star,
    ls_dimension,
    packing_number,
    transversal_number,
    tree_family,
    vc_dimension,
    write_setfam,
)
import sunflower_lab.alpha
from sunflower_lab.alpha import BOUND_BIT_CAP, INV_E_HI, INV_E_LO, FamilyAnalysis
from sunflower_lab.cli import _analyze_file

from oracles import brute_alpha_monte_carlo, random_family


class TestAlphaExact:
    def test_three_disjoint_sets(self):
        fam = SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5]])
        assert alpha_exact(fam, 3) == Fraction(1, 3)

    def test_single_member_is_one(self):
        fam = SetFamily.from_sets(2, [[0]])
        assert alpha_exact(fam, 3) == 1

    def test_r2_is_one(self, small_corpus):
        for fam in small_corpus:
            if fam.m:
                assert alpha_exact(fam, 2) == 1

    def test_equals_count_over_m_pow_r(self, small_corpus):
        for fam in small_corpus:
            if fam.m:
                assert alpha_exact(fam, 3) == Fraction(
                    count_sunflower_tuples(fam, 3), fam.m**3
                )

    def test_lower_bound_m_pow_1_minus_r(self, small_corpus):
        for fam in small_corpus:
            if fam.m:
                assert alpha_exact(fam, 3) >= Fraction(1, fam.m**2)

    def test_sunflower_free_uniform_value(self):
        fam = tree_family(3, 3)
        assert alpha_exact(fam, 3) == Fraction(1, fam.m**2)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            alpha_exact(SetFamily(1, ()), 3)

    def test_large_r_counts_no_more_petals_than_values(self):
        # three values, so at most three petals join a tuple, whatever r is
        fam = SetFamily.from_sets(4, [[0, 1], [1, 2], [2, 3]])
        assert count_sunflower_tuples(fam, 20_000) == 3
        assert alpha_exact(fam, 20_000) == Fraction(3, 3**20_000)

    def test_m_pow_r_past_the_bit_cap_refused_before_counting(self):
        # the member core {0} has petals {1} and {2}, so a zero budget would
        # abort the first counting step; 3^60000 has 95,098 bits, past the
        # cap though 60,001 bits are all _pow foresees
        fam = SetFamily.from_sets(3, [[0], [0, 1], [0, 2]])
        for r in (60_000, BOUND_BIT_CAP):
            with pytest.raises(ParameterError, match="more than 65536 bits") as refused:
                alpha_exact(fam, r, budget=0)
            assert "(the cap on alpha's denominator m^r)" in str(refused.value)


class TestAlphaMonteCarlo:
    def test_identical_sets_estimate_one(self):
        fam = SetFamily.from_sets(2, [[0, 1]] * 4, multifamily=True)
        est = alpha_monte_carlo(fam, 3, trials=500, seed=3)
        assert est.estimate == 1.0

    def test_deterministic_given_seed(self):
        fam = SetFamily.from_sets(6, [[0, 1], [2, 3], [4, 5], [0, 2]])
        a = alpha_monte_carlo(fam, 3, trials=20_000, seed=1)
        b = alpha_monte_carlo(fam, 3, trials=20_000, seed=1)
        c = alpha_monte_carlo(fam, 3, trials=20_000, seed=2)
        assert a.estimate == b.estimate
        assert a.estimate != c.estimate

    def test_within_five_sigma_of_exact(self):
        rng = random.Random(1234)
        checked = 0
        while checked < 8:
            fam = random_family(rng, max_m=6, max_n=6)
            if fam.m < 2:
                continue
            exact = alpha_exact(fam, 3)
            trials = 20_000
            est = alpha_monte_carlo(fam, 3, trials=trials, seed=checked)
            sigma = math.sqrt(float(exact) * (1 - float(exact)) / trials)
            assert abs(est.estimate - float(exact)) <= max(5 * sigma, 1e-12)
            checked += 1

    def test_requires_trials(self):
        fam = SetFamily.from_sets(2, [[0]])
        with pytest.raises(ParameterError):
            alpha_monte_carlo(fam, 3, trials=0)

    @pytest.mark.parametrize("r", (2, 3, 5))
    @pytest.mark.parametrize("m", (1, 2, 4, 7, 8, 16))
    def test_matches_plain_sampler(self, r, m):
        # powers of two are where a draw is rejected most; the trial counts
        # end on and just past the 4096-trial chunks; members repeat
        rng = random.Random(100 * m + r)
        sets = [rng.sample(range(5), rng.randint(0, 3)) for _ in range(max(1, m - 1))]
        fam = SetFamily.from_sets(5, (sets[:1] + sets)[:m], multifamily=True)
        assert fam.m == m and (m == 1 or fam.members[0] == fam.members[1])
        for trials in (1, 4096, 4097, 8193):
            seed = rng.randrange(1000)
            got = alpha_monte_carlo(fam, r, trials, seed)
            assert got == brute_alpha_monte_carlo(fam, r, trials, seed)

    def test_index_draw_is_randrange(self):
        # alpha_monte_carlo draws an index below m as randrange(m) does:
        # getrandbits of m's bit length, rejecting values >= m
        for seed in range(5):
            for m in range(1, 18):
                plain, ours = random.Random(seed), random.Random(seed)
                for _ in range(50):
                    i = ours.getrandbits(m.bit_length())
                    while i >= m:
                        i = ours.getrandbits(m.bit_length())
                    assert i == plain.randrange(m)


class TestLogStar:
    def test_reference_values(self):
        assert [log_star(k) for k in (2, 4, 5, 16, 65536)] == [0, 1, 2, 2, 3]

    def test_monotone(self):
        values = [log_star(k) for k in range(1, 200)]
        assert values == sorted(values)

    def test_tower_shift(self):
        for x in (2, 3, 4, 5, 16, 17):
            assert log_star(2**x) == 1 + log_star(x)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            log_star(0)


class TestEvaluateBound:
    def test_er(self):
        assert evaluate_bound("ER", r=3, k=2).value == 8

    def test_t1_range(self):
        assert evaluate_bound("T1", r=3, k=1).value == 3**10
        with pytest.raises(ParameterError):
            evaluate_bound("T1", r=2, k=1)

    def test_t2_exponent(self):
        # log*(2) = 0, so the exponent collapses to 10k
        assert evaluate_bound("T2", r=2, k=2, d=2).value == 2**20

    def test_t3u(self):
        bound = evaluate_bound("T3U", r=3, k=2, d=1)
        assert bound.value == 6

    def test_t3u_dominates_exact_h(self):
        res = extremal_search("ls_bounded", 3, 2, d=1)
        assert res.exact_value <= evaluate_bound("T3U", r=3, k=2, d=1).value

    def test_t3l_flagged_asymptotic(self):
        bound = evaluate_bound("T3L", r=3, k=12, d=3)
        assert bound.asymptotic
        assert bound.value == Fraction(12, 1) ** 3

    def test_t7(self):
        assert evaluate_bound("T7", r=3, k=1, lam=1).value == 4**6

    def test_dsw(self):
        assert evaluate_bound("DSW", lam=1, nu=1).value == 220

    def test_ss_delegates(self):
        assert evaluate_bound("SS", n=5, d=1).value == 6

    def test_l3_interval(self):
        bound = evaluate_bound("L3", r=3, g=5)
        assert bound.over_e
        lo, hi = bound.interval
        assert lo == Fraction(1, 25) * INV_E_LO
        assert hi == Fraction(1, 25) * INV_E_HI
        assert 0 < lo < hi < Fraction(1, 25)

    def test_c1_matches_formula(self):
        bound = evaluate_bound("C1", r=3, k=2)
        base = math.factorial(2) * 2**3 + 1
        assert bound.value == Fraction(1, base**2)
        assert bound.over_e

    def test_t4(self):
        assert evaluate_bound("T4", r=3, k=1).value == 503**900

    def test_t6_reciprocal_of_t2(self):
        t2 = evaluate_bound("T2", r=2, k=2, d=2).value
        t6 = evaluate_bound("T6", r=2, k=2, d=2).value
        assert t2 * t6 == 1

    def test_monotone_in_k(self):
        for bid, params in (
            ("ER", dict(r=3)),
            ("T1", dict(r=3)),
            ("T2", dict(r=2, d=2)),
            ("T3U", dict(r=3, d=2)),
            ("T4", dict(r=3)),
        ):
            values = [evaluate_bound(bid, k=k, **params).value for k in (2, 3, 4, 5)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_value_past_bit_cap_refused_before_it_is_computed(self):
        # T2 at (3, 20, 5) has a 2.3-billion-bit value; T6 is its reciprocal
        for bid, params in (
            ("T2", dict(r=3, k=20, d=5)),
            ("T6", dict(r=3, k=20, d=5)),
            ("T1", dict(r=3, k=10**9)),
            ("T4", dict(r=3, k=10**6)),
            ("T7", dict(r=3, k=10**6, lam=10**6)),
            ("ER", dict(r=3, k=10**9)),
            ("C1", dict(r=3, k=10**9)),
        ):
            start = time.perf_counter()
            with pytest.raises(ParameterError, match="bits"):
                evaluate_bound(bid, **params)
            assert time.perf_counter() - start < 0.5, bid

    def test_ss_and_dsw_are_sized_before_they_are_built(self):
        # at d >= n the sum is 2^n: of 65,536 bits at n = 65,535, one too many
        # at n = 65,536
        assert evaluate_bound("SS", n=BOUND_BIT_CAP - 1, d=BOUND_BIT_CAP).value == 2 ** (
            BOUND_BIT_CAP - 1
        )
        # refused from a lower bound on the largest binomial, or, at
        # (130000, 64999), where that bound is under the cap, by the sum
        # passing it after some 15,000 of its 65,000 terms
        for n, d, limit in (
            (BOUND_BIT_CAP, BOUND_BIT_CAP, 0.05),
            (10**18, 10**17, 0.05),
            (3 * 10**5, 10**5, 0.05),
            (130000, 64999, 2.0),
        ):
            start = time.perf_counter()
            with pytest.raises(ParameterError, match="65536 bits"):
                evaluate_bound("SS", n=n, d=d)
            assert time.perf_counter() - start < limit, (n, d)
        # DSW at (16000, 16000) has 64,031 bits
        lam = 16000
        assert evaluate_bound("DSW", lam=lam, nu=lam).value == (
            11 * lam**2 * (2 * lam + 3) * math.comb(2 * lam, lam) ** 2
        )
        with pytest.raises(ParameterError, match="65536 bits"):
            evaluate_bound("DSW", lam=10**9, nu=10**9)

    def test_bit_cap_is_exact(self):
        # T3U at r=1, k=2 is 2^d, of d + 1 bits
        assert evaluate_bound("T3U", r=1, k=2, d=BOUND_BIT_CAP - 1).value == 2 ** (
            BOUND_BIT_CAP - 1
        )
        with pytest.raises(ParameterError):
            evaluate_bound("T3U", r=1, k=2, d=BOUND_BIT_CAP)
        # ER at r=2 is k!: 54,233 bits at k=5000, 66,656 at k=6000
        assert evaluate_bound("ER", r=2, k=5000).value == math.factorial(5000)
        with pytest.raises(ParameterError):
            evaluate_bound("ER", r=2, k=6000)

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            evaluate_bound("NOPE", r=3)

    def test_missing_params(self):
        with pytest.raises(ParameterError):
            evaluate_bound("ER", r=3)


class TestFamilyAnalysisSunflower:
    @staticmethod
    def _outcome(search):
        try:
            return search()
        except BudgetExceededError as exc:
            return str(exc)

    @pytest.mark.parametrize("order", ((3, 4, 5), (5, 4, 3)))
    def test_matches_find_sunflower(self, small_corpus, order):
        # a sunflower-free r answers every larger r without a search; the
        # answer, and any budget abort, must be the standalone search's
        rng = random.Random(8)
        multi = [random_family(rng, max_m=10, max_n=7, multifamily=True) for _ in range(150)]
        for fam in small_corpus + multi:
            for budget in (None, 1, 3, 10, 30):
                analysis = FamilyAnalysis(fam, budget=budget)
                for s in order:
                    got = self._outcome(lambda: analysis.sunflower(s))
                    want = self._outcome(lambda: find_sunflower(fam, s, budget=budget))
                    assert got == want, (fam, s, budget)


class TestCheckInequalities:
    def test_tree_family_all_pass(self):
        report = check_inequalities(tree_family(3, 3), 3)
        assert report.all_passed
        assert not report.failed()
        names = {c.name for c in report.checks}
        assert {"vc<=ls", "ls<=log2(m)", "sauer_shelah", "nu<=tau", "dsw"} <= names

    def test_corpus_never_fails(self, small_corpus, tmp_path):
        path = tmp_path / "fam.setfam"
        for fam in small_corpus:
            report = check_inequalities(fam, 3)
            if fam.m:
                assert report.all_passed, report.failed()
            # analyze reads every field from one cached pass; each must equal
            # the standalone call
            write_setfam(fam, path)
            res = _analyze_file(str(path), 3, 8, None)
            assert res["checks"] == [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in report.checks
            ]
            vc, vc_w = vc_dimension(fam)
            ls, ls_w = ls_dimension(fam)
            assert (res["vc"], res["vc_witness"]) == (vc, list(vc_w))
            assert (res["ls"], res["ls_witness"]) == (ls, ls_w.to_dict() if ls_w else None)
            nu = packing_number(fam)
            assert res["nu"] == {"value": nu.value, "witness": list(nu.witness)}
            if all(fam.members):
                tau = transversal_number(fam)
                assert res["tau"] == {"value": tau.value, "witness": list(tau.witness)}
            lam = lambda_number(fam, cap=8)
            assert (res["lambda"]["value"], res["lambda"]["witness"]) == (lam.value, list(lam.witness))
            assert res["lambda"]["cap_hit"] == lam.cap_hit
            flower = find_sunflower(fam, 3) if fam.m >= 2 else None
            assert res["sunflower"]["found"] == (flower is not None)
            if flower is not None:
                assert res["sunflower"]["members"] == list(flower.member_indices)
                assert res["sunflower"]["core"] == list(flower.core)

    def test_alpha_counted_once_per_r(self, monkeypatch):
        # the size<=f-1 and alpha>=g^(1-r)/e checks both read alpha at r
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return count_sunflower_tuples(*args, **kwargs)

        monkeypatch.setattr(sunflower_lab.alpha, "count_sunflower_tuples", counted)
        report = check_inequalities(tree_family(3, 3), 3, extremal_f=5, extremal_g=20)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["size<=f-1"] == statuses["alpha>=g^(1-r)/e"] == "pass"
        assert len(calls) == 1

    def test_capped_lambda_reported_as_skip(self):
        fam = SetFamily.from_sets(3, [[0, 1], [1, 2], [0, 2]])
        report = check_inequalities(fam, 3, lambda_cap=2)
        by_name = {c.name: c for c in report.checks}
        assert by_name["dsw"].status == "skip"

    def test_empty_member_skips_transversal_checks(self):
        fam = SetFamily.from_sets(2, [[], [0]])
        report = check_inequalities(fam, 3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["nu<=tau"].status == "skip"
        assert report.all_passed

    def test_active_elements_counted_from_the_members(self):
        # elements no member holds are not active, however large the ground
        report = check_inequalities(SetFamily(3_000_000, ((0, 1), (1, 2))), 3)
        by_name = {c.name: c for c in report.checks}
        assert "n_active=3," in by_name["sauer_shelah"].detail

    def test_extremal_f_check(self):
        res = extremal_search("family", 3, 1)
        report = check_inequalities(res.witness, 3, extremal_f=res.exact_value)
        by_name = {c.name: c for c in report.checks}
        assert by_name["size<=f-1"].status == "pass"

    def test_extremal_g_check(self):
        res = extremal_search("multifamily", 3, 1)
        fam = SetFamily.from_sets(2, [[0], [0], [1]], multifamily=True)
        report = check_inequalities(fam, 3, extremal_g=res.exact_value)
        by_name = {c.name: c for c in report.checks}
        assert by_name["alpha>=g^(1-r)/e"].status == "pass"

    def test_popular_element_bound_on_sunflower_free_families(self):
        rng = random.Random(77)
        tested = 0
        while tested < 25:
            fam = random_family(rng, max_m=8, max_n=8, allow_empty_members=False)
            if fam.m == 0:
                continue
            report = check_inequalities(fam, 3)
            by_name = {c.name: c for c in report.checks}
            if by_name["popular_element"].status == "pass":
                tested += 1
            assert by_name["popular_element"].status != "fail"
