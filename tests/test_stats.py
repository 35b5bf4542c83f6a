import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    bd0_mpmath,
    binom_logpmf_mpmath,
    chernoff_upper,
    oracle_threshold,
    oracle_threshold_aligned,
    xi_fraction,
    xi_mpmath,
    xi_pascal_grid,
)
from swaplab import harness, stats

# frozen independent-oracle values (fractions/mpmath, see oracles.py)
XI_10_05_09 = 0.0016349374  # exact rational: 16349374/10^10 at these floats
KL_05_09 = 0.5108256237659907
GAMMA_TILDE_05_09 = 0.7745966692414834  # = sqrt(0.6)


def _default_grid(N):
    """The 461 (N, alpha, p) cells of the bounds runner's default grid."""
    return [
        (N, alpha, p)
        for alpha in harness.default_alpha_grid()
        for p in harness.p_grid_for(alpha)
    ]


# a spread of cells from N = 10 to 10^6 on which the tail is checked against
# the mpmath oracle
MPMATH_CELLS = {
    "grid-1e4": _default_grid(10**4),
    "seeded-1e5": [
        _default_grid(10**5)[i]
        for i in np.random.default_rng(10).choice(461, 40, replace=False)
    ],
    "edges": [
        (10**6, 0.5, 0.506),
        (10, 0.52, 0.53),  # ceil(4.8) = 5 <= the mode floor(11 * 0.47)
        (10**6, 0.5, 0.5),  # k at the mode and sigma = 500
        (10**5, 0.99999, 1 - 1e-15),
        (1000, 0.998, 1 - 1e-15),
    ],
}


class TestConversions:
    def test_prob_to_overlap_parallel(self):
        assert stats.prob_to_overlap_sq(1.0) == 1.0

    def test_prob_to_overlap_orthogonal(self):
        assert stats.prob_to_overlap_sq(0.5) == 0.0

    def test_prob_to_overlap_mid(self):
        assert stats.prob_to_overlap_sq(0.75) == pytest.approx(0.5)

    def test_prob_to_overlap_clamps(self):
        assert stats.prob_to_overlap_sq(0.2) == 0.0

    def test_distance_identical(self):
        assert stats.overlap_to_distance(1.0) == 0.0

    def test_distance_orthogonal(self):
        assert stats.overlap_to_distance(0.0) == pytest.approx(math.sqrt(2))

    def test_distance_inv_sqrt2(self):
        # sqrt(2 - sqrt(2)), cross-checked against the classical distance of
        # unit 2-vectors at 45 degrees
        expected = 0.7653668647301795
        assert stats.overlap_to_distance(1 / math.sqrt(2)) == pytest.approx(
            expected, abs=1e-12
        )
        u = np.array([1.0, 0.0])
        w = np.array([1.0, 1.0]) / math.sqrt(2)
        assert np.linalg.norm(u - w) == pytest.approx(expected, abs=1e-12)

    def test_distance_domain(self):
        with pytest.raises(ValueError):
            stats.overlap_to_distance(1.5)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, x):
        assert stats.prob_to_overlap_sq((1.0 + x) / 2.0) == pytest.approx(
            x, abs=1e-15
        )

    @given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_distance_monotone_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert stats.overlap_to_distance(hi) <= stats.overlap_to_distance(lo)


class TestAlphaEps:
    def test_standard_sqrt2(self):
        assert stats.alpha_eps_standard(math.sqrt(2)) == pytest.approx(0.5)

    def test_standard_one(self):
        assert stats.alpha_eps_standard(1.0) == pytest.approx(0.625)

    def test_standard_small_eps_limit(self):
        assert stats.alpha_eps_standard(1e-9) == pytest.approx(1.0)

    def test_standard_domain(self):
        with pytest.raises(ValueError):
            stats.alpha_eps_standard(0.0)
        with pytest.raises(ValueError):
            stats.alpha_eps_standard(1.5)

    def test_multi_sqrt2_n4(self):
        assert stats.alpha_eps_multi(math.sqrt(2), 4) == pytest.approx(0.125)

    def test_multi_one_n4(self):
        assert stats.alpha_eps_multi(1.0, 4) == pytest.approx(0.15625)

    def test_multi_sqrt2_n8(self):
        assert stats.alpha_eps_multi(math.sqrt(2), 8) == pytest.approx(8 / 512)

    def test_multi_equals_scaled_standard(self):
        for n in (4, 8, 16):
            assert stats.alpha_eps_multi(0.8, n) == pytest.approx(
                stats.alpha_eps_standard(0.8) * 16 / n**3
            )


class TestP0ijTheory:
    def test_parallel_n4(self):
        assert stats.p0ij_theory(1.0, 4) == pytest.approx(0.25)

    def test_orthogonal_n4(self):
        assert stats.p0ij_theory(0.0, 4) == pytest.approx(0.125)

    def test_half_n8(self):
        assert stats.p0ij_theory(0.5, 8) == pytest.approx(0.0234375)

    def test_range(self):
        for n in (4, 8, 16):
            assert 8 / n**3 <= stats.p0ij_theory(0.0, n) <= 16 / n**3
            assert 8 / n**3 <= stats.p0ij_theory(1.0, n) <= 16 / n**3

    def test_bad_n(self):
        with pytest.raises(ValueError):
            stats.p0ij_theory(0.5, 6)


class TestKL:
    def test_worked_value(self):
        assert stats.kl_bernoulli(0.5, 0.9) == pytest.approx(0.5108, abs=1e-4)

    def test_identical(self):
        assert stats.kl_bernoulli(0.3, 0.3) == 0.0

    def test_symmetric_closed_form(self):
        assert stats.kl_bernoulli(0.25, 0.75) == pytest.approx(0.5 * math.log(3))

    def test_endpoints(self):
        with pytest.raises(ValueError):
            stats.kl_bernoulli(0.0, 0.5)
        with pytest.raises(ValueError):
            stats.kl_bernoulli(0.5, 1.0)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, a, p):
        assert stats.kl_bernoulli(a, p) >= 0.0


# near-alpha cells per N: p = alpha + z*sqrt(alpha(1-alpha)/N)
NEAR_ALPHA = {10**5: (0.5, 2, 5, 10, 30), 10**6: (0.5, 2, 5, 10, 30), 10**7: (2, 30)}


class TestFalseNegativeExact:
    def test_single_trial(self):
        assert stats.false_negative_exact(1, 0.5, 0.9) == pytest.approx(0.1)

    def test_frozen_worked_value(self):
        assert stats.false_negative_exact(10, 0.5, 0.9) == pytest.approx(
            XI_10_05_09, rel=1e-9
        )

    def test_threshold_snapped_to_zero(self):
        # N(1 - alpha) is about 1e-14, within the snap tolerance of 0, so k = 0
        # and every outcome is a false negative
        assert stats.tail_threshold(10, 1 - 1e-15) == 0
        assert stats.false_negative_exact(10, 1 - 1e-15, 0.5) == 1.0

    def test_near_deterministic_success(self):
        assert stats.false_negative_exact(100, 0.5, 1 - 1e-15) < 1e-100

    def test_zero_n(self):
        with pytest.raises(ValueError):
            stats.false_negative_exact(0, 0.5, 0.9)

    def test_matches_fraction_oracle_small_n(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            N = int(rng.integers(1, 60))
            alpha = float(rng.uniform(0.05, 0.9))
            p = float(rng.uniform(alpha + 0.02, 0.99))
            got = stats.false_negative_exact(N, alpha, p)
            want = float(xi_fraction(N, alpha, p))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "cell",
        [
            (10, 0.5, 0.9),
            (137, 0.35, 0.62),
            (200, 0.95, 0.99),
            (1000, 0.5, 0.9),
            (10**5, 0.5, 0.52),
            (10**5, 0.05, 0.07),
            (10**5, 0.3, 0.34),
            (10**5, 0.4, 0.44),
            (10**6, 0.5, 0.506),
        ],
    )
    def test_matches_mpmath_oracle(self, cell):
        N, alpha, p = cell
        got = stats.false_negative_exact(N, alpha, p)
        want = float(xi_mpmath(N, alpha, p))
        # abs=0: pytest's default 1e-12 absolute floor would pass any tail
        # below 1e-12, and every N = 10^5 cell here is below 1e-36
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_whole_default_grid_matches_pascal_oracle(self):
        # every cell of `bounds --n-list 1..200`; the 54 tails below 1e-290
        # lose digits to underflow on every float route (see xi_pascal_grid),
        # so they are held to the contract's bound at 1e-290, absolutely
        alphas = harness.default_alpha_grid()
        ps = sorted({p for alpha in alphas for p in harness.p_grid_for(alpha)})
        column = {p: b for b, p in enumerate(ps)}
        oracle = xi_pascal_grid(200, alphas, ps)
        worst, tiny = 0.0, 0
        for N in range(1, 201):
            for a, alpha in enumerate(alphas):
                for p in harness.p_grid_for(alpha):
                    want = oracle[N - 1, a, column[p]]
                    got = stats.false_negative_exact(N, alpha, p)
                    if want < 1e-290:
                        tiny += 1
                        assert abs(got - want) <= 1e-302, (N, alpha, p)
                    else:
                        worst = max(worst, abs(got - want) / want)
        assert tiny == 54
        assert worst <= 1e-12

    @pytest.mark.parametrize("cells", MPMATH_CELLS.values(), ids=MPMATH_CELLS.keys())
    def test_cells_match_mpmath(self, cells):
        for N, alpha, p in cells:
            got = stats.false_negative_exact(N, alpha, p)
            want = float(xi_mpmath(N, alpha, p))
            assert got == pytest.approx(want, rel=1e-12, abs=0), (N, alpha, p)

    @pytest.mark.parametrize("N", NEAR_ALPHA, ids=str)
    def test_near_alpha_matches_mpmath(self, N):
        # p = alpha + z standard errors: the continued fraction's slowest
        # cells (up to 161 steps at N = 10^5, 525 at 10^7), where the means'
        # rounding once cost 1.5e-12 at N = 10^6 and 6.5e-12 at 10^7
        cells = [(alpha, alpha + z * math.sqrt(alpha * (1 - alpha) / N))
                 for alpha in (0.1, 0.3, 0.5, 0.7) for z in NEAR_ALPHA[N]]
        if N == 10**6:
            cells.append((0.3, 0.313487321026845))
        for alpha, p in cells:
            got = stats.false_negative_exact(N, alpha, p)
            want = float(xi_mpmath(N, alpha, p))
            assert got == pytest.approx(want, rel=1e-12, abs=0), (N, alpha, p)

    @pytest.mark.parametrize(
        "cell,upper",
        [((10, 0.5, 0.9), True), ((60, 0.3, 0.9), True),
         ((1, 0.05, 0.07), False), ((40, 0.5, 0.51), False)],
    )
    def test_both_branches_match_fraction_oracle(self, cell, upper):
        # q < (k+1)/(N+3) takes the fraction of the tail itself, else its
        # complement; (60, 0.3, 0.9) is a tail of 1e-22
        N, alpha, p = cell
        k = stats.tail_threshold(N, alpha)
        assert (1 - p < (k + 1) / (N + 3)) is upper
        got = stats.false_negative_exact(N, alpha, p)
        assert got == pytest.approx(float(xi_fraction(N, alpha, p)), rel=1e-13, abs=0)

    def test_n_past_the_float_range_rejected(self):
        N = 2**1024
        for call in (lambda: stats.false_negative_exact(N, 0.5, 0.9),
                     lambda: stats.tail_threshold(N, 0.5)):
            named = rf"^N must be below 2\^1024, the float range, got {N}$"
            with pytest.raises(ValueError, match=named):
                call()
        # the largest count a float holds still gets a tail
        assert stats.false_negative_exact(2**1024 - 2**971, 0.5, 0.9) == 0.0

    def test_large_n_holds_no_array(self):
        # the tail holds no array: a scalar fraction and one log-term, never
        # a table over 0..N
        tracemalloc.start()
        try:
            stats.false_negative_exact(10**7, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_threshold_exact_rational_ceiling(self):
        # N*(1-alpha) meant to be integral must not ceil upward through float fuzz
        assert stats.tail_threshold(10, 0.5) == 5
        assert stats.tail_threshold(3, 1 / 3) == 2
        assert stats.tail_threshold(100, 0.95) == 5
        assert stats.tail_threshold(20, 0.95) == 1
        # genuine fractions still ceil
        assert stats.tail_threshold(1, 0.5) == 1
        assert stats.tail_threshold(10, 0.55) == 5  # 4.5 -> 5
        assert stats.tail_threshold(10, 0.54) == 5  # 4.6 -> 5

    @pytest.mark.parametrize(
        "alpha,k,aligned",
        [
            # N(1-alpha) = 681690113816.209...: the uncapped tolerance N*1e-12
            # (1 here) would snap it down to 681690113816
            (0.3183098861837907, 681690113817, False),
            # N(1-alpha) = 5e10 + 4.4e-5, within the cap: decimal intent holds
            (0.95, 5 * 10**10, True),
        ],
    )
    def test_snap_tolerance_capped_at_large_n(self, alpha, k, aligned):
        assert stats.tail_threshold(10**12, alpha) == k
        assert stats.threshold_aligned(10**12, alpha) is aligned

    def test_monotone_in_p(self):
        values = [stats.false_negative_exact(25, 0.4, p) for p in (0.5, 0.6, 0.8, 0.95)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_alpha(self):
        values = [stats.false_negative_exact(25, a, 0.9) for a in (0.2, 0.4, 0.6, 0.8)]
        assert values == sorted(values)

    @pytest.mark.parametrize(
        "N", [1.5, 10.5, 10.0, math.nan, math.inf, 0, -3, 0.5, np.float64(4.0)]
    )
    def test_n_not_whole_rejected(self, N):
        named = re.escape(f"N must be a whole number >= 1, got {N}")
        for call in (lambda: stats.false_negative_exact(N, 0.5, 0.9),
                     lambda: stats.tail_threshold(N, 0.5),
                     lambda: stats.threshold_aligned(N, 0.5)):
            with pytest.raises(ValueError, match=named):
                call()

    def test_integer_n_accepted(self):
        assert stats.tail_threshold(np.int64(10), 0.5) == 5
        assert stats.false_negative_exact(np.int64(10), 0.5, 0.9) == (
            stats.false_negative_exact(10, 0.5, 0.9)
        )

    @given(
        N=st.integers(1, 10**7),
        alpha=st.one_of(
            st.integers(1, 99).map(lambda c: c / 100),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
    )
    @example(N=20, alpha=0.95)
    @example(N=100, alpha=0.95)
    @example(N=3, alpha=1 / 3)
    @example(N=10**7, alpha=5e-324)
    @example(N=10**12, alpha=0.3183098861837907)
    @example(N=10**12, alpha=0.95)
    @settings(max_examples=300, deadline=None)
    def test_threshold_matches_fraction_route(self, N, alpha):
        k, aligned = stats.tail_threshold(N, alpha), stats.threshold_aligned(N, alpha)
        assert type(k) is int and type(aligned) is bool
        assert (k, aligned) == (oracle_threshold(N, alpha),
                                oracle_threshold_aligned(N, alpha))

    def test_bd0_series_cap_raises(self, monkeypatch):
        # x near m takes the series branch, which needs more than one term
        monkeypatch.setattr(stats, "_BD0_MAX_TERMS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            stats._bd0(100.0, 101.0)


class TestPascalOracle:
    def test_matches_fraction_oracle_within_its_bound(self):
        # xi_pascal_grid's docstring derives gamma_(4N) relative, away from
        # underflow, for the tail at the given double p
        alphas, ps = [0.05, 0.3, 0.5, 0.95], [0.07, 0.31, 0.52, 0.73, 0.99]
        oracle = xi_pascal_grid(200, alphas, ps)
        rng = np.random.default_rng(16)
        u = 2.0**-53
        for _ in range(40):
            N = int(rng.integers(1, 201))
            a, b = int(rng.integers(len(alphas))), int(rng.integers(len(ps)))
            want = xi_fraction(N, alphas[a], ps[b])
            bound = 4 * N * u / (1 - 4 * N * u)
            got = oracle[N - 1, a, b]
            assert abs(got - float(want)) <= bound * float(want) + 1e-300, (N, a, b)


class TestFusedKernel:
    """The tail's prefactor, one saddle-point log-pmf term, and its deviance
    against mpmath, which shares none of their code.  Both are scaled by
    max(1, |value|): an error in the log-pmf is a relative error of the pmf."""

    @pytest.mark.parametrize(
        "N", [1, 2, 15, 16, 17, 200, 10**4, 10**5, 2**17 - 1, 2**17, 10**6]
    )
    @pytest.mark.parametrize(
        "p", [1e-12, 0.003, 0.49, 0.5, 0.51, 0.997, 1 - 1e-12], ids=str
    )
    def test_logpmf_matches_unfused(self, N, p):
        # worst 2.5e-15 over these cells; the summed window's array kernel
        # measured 5.8e-15 at N = 2^17 and, with its means left rounded,
        # 2.2e-11 at N = 10^6, p = 1e-12
        mode = math.floor((N + 1) * (1 - p))
        windows = [(0, min(N, 300)), (max(0, N - 300), N),
                   (max(0, mode - 150), min(N, mode + 150))]
        for lo, hi in windows:
            for k in range(lo, hi + 1):
                want = binom_logpmf_mpmath(k, N, p)
                got = stats._binom_logpmf(k, N, p)
                assert abs(got - want) <= 5e-15 * max(1.0, abs(want)), (k, got, want)
        assert any(lo == 0 for lo, _ in windows) and any(hi == N for _, hi in windows)

    def test_bd0_matches_mpmath(self):
        rng = np.random.default_rng(13)
        m = rng.uniform(0.5, 1e6, 600)
        # relative gaps from 1e-12 to 3: the series branch at every depth
        # and the log branch on both sides of m
        gap = np.concatenate([10.0 ** rng.uniform(-12, -1.1, 400),
                              rng.uniform(0.25, 3.0, 200)])
        x = m * (1 + rng.choice([-1, 1], 600) * np.minimum(gap, 0.99))
        close = np.abs(x - m) < 0.1 * (x + m)
        assert close.sum() >= 350 and (~close).sum() >= 150
        for xi, mi in zip(x.tolist(), m.tolist()):
            want = bd0_mpmath(xi, mi)
            assert abs(stats._bd0(xi, mi) - want) <= 4e-15 * want, (xi, mi)


class TestBoundPair:
    def test_n_gamma_sharpness_point(self):
        assert stats.n_gamma(GAMMA_TILDE_05_09, 0.5, 0.9) == pytest.approx(
            0.5, abs=0.005
        )

    def test_n_gamma_worked_value(self):
        assert stats.n_gamma(0.1, 0.5, 0.9) == pytest.approx(
            math.log(10) / KL_05_09, rel=1e-12
        )
        assert stats.n_gamma(0.1, 0.5, 0.9) == pytest.approx(4.51, abs=0.005)

    def test_n_gamma_diverges_near_alpha(self):
        assert stats.n_gamma(0.1, 0.5, 0.5 + 1e-9) > 1e15

    def test_n_gamma_orientation(self):
        with pytest.raises(ValueError):
            stats.n_gamma(0.1, 0.9, 0.5)

    def test_upper_inverts_n_gamma(self):
        for gamma in (0.9, 0.5, 0.1, 1e-3):
            N = stats.n_gamma(gamma, 0.5, 0.9)
            assert chernoff_upper(N, 0.5, 0.9) == pytest.approx(
                gamma, rel=1e-12
            )

    def test_upper_worked_value(self):
        assert chernoff_upper(10, 0.5, 0.9) == pytest.approx(
            math.exp(-10 * KL_05_09), rel=1e-12
        )
        assert chernoff_upper(10, 0.5, 0.9) == pytest.approx(0.0060466176)

    def test_lower_worked_value(self):
        assert stats.chernoff_lower(10, 0.5, 0.9) == pytest.approx(
            0.0060466176 / math.sqrt(20), rel=1e-9
        )

    def test_lower_upper_ratio_identity(self):
        for N in (1, 2, 7, 50, 1000):
            ratio = stats.chernoff_lower(N, 0.3, 0.8) / chernoff_upper(
                N, 0.3, 0.8
            )
            assert ratio == pytest.approx(1 / math.sqrt(2 * N), rel=1e-12)

    def test_lower_at_n_gamma_closed_form(self):
        gamma = 0.3
        alpha, p = 0.4, 0.7
        kl = stats.kl_bernoulli(alpha, p)
        N = stats.n_gamma(gamma, alpha, p)
        expected = gamma / math.sqrt(2 * math.log(1 / gamma) / kl)
        assert stats.chernoff_lower(N, alpha, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_repetitions_limit(self):
        assert chernoff_upper(1e-12, 0.5, 0.9) == pytest.approx(1.0)


class TestGammaTilde:
    def test_worked_value(self):
        assert stats.gamma_tilde(0.5, 0.9) == pytest.approx(0.7746, abs=5e-3)
        assert stats.gamma_tilde(0.5, 0.9) == pytest.approx(
            math.sqrt(0.6), rel=1e-12
        )

    def test_near_equal_parameters(self):
        assert stats.gamma_tilde(0.5, 0.5 + 1e-12) == pytest.approx(1.0)

    def test_definition_consistency(self):
        for alpha, p in [(0.5, 0.9), (0.2, 0.6), (0.7, 0.95)]:
            kl = stats.kl_bernoulli(alpha, p)
            assert kl == pytest.approx(
                2 * math.log(1 / stats.gamma_tilde(alpha, p)), rel=1e-12
            )

    @pytest.mark.parametrize("alpha,p", [(0.5, 0.9), (0.1, 0.3), (0.6, 0.99), (0.3, 0.35)])
    def test_sharpness_identity(self, alpha, p):
        g = stats.gamma_tilde(alpha, p)
        N = stats.n_gamma(g, alpha, p)
        assert abs(stats.chernoff_lower(N, alpha, p) - g) < 1e-12


class TestScalingCurves:
    def test_theorem1_substitutions(self):
        assert stats.theorem1_calls(4, 1.0) == pytest.approx(64.0)
        assert stats.theorem1_calls(8, 0.5) == pytest.approx(16384.0)

    def test_theorem1_doubling(self):
        for n in (4, 8, 16, 512):
            assert stats.theorem1_calls(2 * n, 0.2) == pytest.approx(
                64 * stats.theorem1_calls(n, 0.2)
            )

    def test_proposition1_substitutions(self):
        assert stats.proposition1_lower(8, 1 / math.e) == pytest.approx(
            512 / math.log(8)
        )
        assert stats.proposition1_lower(4, 1 / math.e) == pytest.approx(
            64 / math.log(4)
        )

    def test_proposition1_monotone(self):
        values = [stats.proposition1_lower(n, 0.5) for n in (4, 8, 16, 32, 64)]
        assert values == sorted(values)


class TestEstimates:
    def test_standard_parallel(self):
        est = stats.estimate_overlaps([100], 100)
        assert est.p_hat[0] == 1.0 and est.overlap_sq_hat[0] == 1.0
        assert est.distance_hat[0] == 0.0

    def test_standard_orthogonal(self):
        est = stats.estimate_overlaps([50], 100)
        assert est.overlap_sq_hat[0] == 0.0
        assert est.distance_hat[0] == pytest.approx(math.sqrt(2))

    def test_multi_inversion_n4(self):
        est = stats.estimate_overlaps([25], 100, constant=8 / 4**3)
        assert est.p_hat[0] == 0.25
        assert est.overlap_sq_hat[0] == pytest.approx(1.0)
        assert est.distance_hat[0] == pytest.approx(0.0, abs=1e-7)

    def test_multi_custom_constant(self):
        est = stats.estimate_overlaps([30], 100, constant=0.2)
        assert est.overlap_sq_hat[0] == pytest.approx(0.5)

    def test_clamping_flag(self):
        est = stats.estimate_overlaps([10, 90], 100)
        assert est.clamped.tolist() == [True, False]
        assert est.overlap_sq_hat[0] == 0.0

    def test_exact_entries_outside_range_not_flagged(self):
        # rounding puts these a hair outside p = c * (1 + [0, 1])
        values = [0.062499999999999944, math.nextafter(2 / 3, 1)]
        assert values[0] / 0.0625 - 1 < 0 and values[1] / (1 / 3) - 1 > 1
        est = stats.estimate_overlaps(values, math.inf, constant=[0.0625, 1 / 3])
        assert est.overlap_sq_hat.tolist() == [0.0, 1.0]
        assert est.clamped.tolist() == [False, False]

    def test_hits_exceed_shots(self):
        with pytest.raises(ValueError):
            stats.estimate_overlaps([101], 100)

    @pytest.mark.parametrize(
        "values,shots,bad",
        [
            ([0, 50, 100, 101, 7], 100, "101.0 at entry 3"),
            ([3, -1, 4], 10, "-1.0 at entry 1"),
            ([3, 2.5, 4], 10, "2.5 at entry 1"),
            ([0.0, 0.5, 1.0, 1.0000001, 0.9], math.inf, "1.0000001 at entry 3"),
            ([0.2, math.nan, 0.4], math.inf, "nan at entry 1"),
        ],
    )
    def test_one_bad_entry_among_many(self, values, shots, bad):
        with pytest.raises(ValueError, match=re.escape(bad)):
            stats.estimate_overlaps(values, shots)

    def test_per_entry_constants(self):
        est = stats.estimate_overlaps([0.75, 0.3], math.inf, constant=[0.5, 0.2])
        assert est.overlap_sq_hat == pytest.approx([0.5, 0.5])

    def test_exact_probability_variant(self):
        est = stats.estimate_overlaps([0.75], math.inf)
        assert est.shots_total[0] == 0 and est.overlap_sq_hat[0] == pytest.approx(0.5)

    def test_bounds_query_validation(self):
        with pytest.raises(ValueError):
            chernoff_upper(10, 0.9, 0.5)
        xi = stats.false_negative_exact(10, 0.5, 0.9)
        assert xi == pytest.approx(XI_10_05_09, rel=1e-9)
        lower = stats.chernoff_lower(10, 0.5, 0.9)
        assert lower <= xi <= chernoff_upper(10, 0.5, 0.9)


class TestSandwich:
    def test_upper_bound_holds_everywhere(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            N = int(rng.integers(1, 201))
            alpha = float(rng.uniform(0.05, 0.95))
            p = float(rng.uniform(alpha + 0.02, 0.99))
            xi = stats.false_negative_exact(N, alpha, p)
            assert xi <= chernoff_upper(N, alpha, p) + 1e-12

    def test_lower_bound_holds_on_aligned_cells(self):
        # N*(1-alpha) integral: the regime the lower bound is stated for
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(2000):
            N = int(rng.integers(1, 201))
            k = int(rng.integers(1, N + 1))
            alpha = 1.0 - k / N
            if not 0.03 <= alpha <= 0.97:
                continue
            p = float(rng.uniform(min(alpha + 0.02, 0.989), 0.99))
            if not alpha < p < 1.0:
                continue
            xi = stats.false_negative_exact(N, alpha, p)
            assert stats.chernoff_lower(N, alpha, p) <= xi * (1 + 1e-12)
            checked += 1
        assert checked > 400

    def test_lower_bound_counterexample_when_not_aligned(self):
        # the documented caveat: at N=1, alpha=0.5, p=0.9 the formula exceeds
        # the exact tail
        xi = stats.false_negative_exact(1, 0.5, 0.9)
        assert stats.chernoff_lower(1, 0.5, 0.9) > xi

    def test_asymptotic_sharpness_trend(self):
        # |ln xi - ln upper| / N decreases along aligned N at fixed (alpha, p);
        # (0.5, 0.62) keeps the N=10^4 tail inside double range
        gaps = []
        for N in (10, 100, 1000, 10000):
            xi = stats.false_negative_exact(N, 0.5, 0.62)
            upper = chernoff_upper(N, 0.5, 0.62)
            gaps.append(abs(math.log(xi) - math.log(upper)) / N)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < gaps[0] / 100


class TestThresholdCorrectness:
    def test_decision_equivalence_random_pairs(self):
        """distance < eps <=> exact P(0) > alpha_eps_standard(eps)."""
        from swaplab import circuits as qc
        from swaplab import statevec as sv

        rng = np.random.default_rng(2718)
        circuit = qc.build_swap_test(1)
        eps_grid = [0.3, 0.7, 1.0, 1.2, math.sqrt(2)]
        for _ in range(1000):
            a = sv.make_qubit_state(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            b = sv.make_qubit_state(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            ovl = abs(sv.inner_product(a, b))
            dist = stats.overlap_to_distance(ovl)
            state = qc.simulate(circuit, [a, b])
            p0 = sv.exact_marginal(state, 1)[0]
            for eps in eps_grid:
                if abs(dist - eps) < 1e-9:
                    continue  # boundary excluded
                assert (dist < eps) == (p0 > stats.alpha_eps_standard(eps))
