"""Estimator algebra, samplers, and distributional pins for the two-sample model."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from admlab.graybill_deal import (
    GDParams,
    GDPriorParams,
    MCEstimate,
    RectangleO,
    gd_estimate,
    phi_bayes,
    phi_gd,
    sample_data,
    sample_hierarchical,
    summarize,
)

# distributional tests run at this level; with 1e5 draws a true-model
# p-value below it is a one-in-a-thousand event under a fixed seed
KS_LEVEL = 1e-3


class TestParams:
    def test_theta_prime_and_oracle(self):
        th = GDParams(0.0, 1.0, 2.0, 5)
        assert th.theta_prime == pytest.approx(1 / 3)
        assert th.oracle_risk == pytest.approx(2 / 15)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            GDParams(0.0, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GDParams(0.0, 1.0, -2.0, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        # NaN passes a "<= 0" test, so each field needs its own finiteness check
        for args in ((bad, 1.0, 2.0), (0.0, bad, 2.0), (0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                GDParams(*args, 5)
        with pytest.raises(ValueError):
            GDPriorParams(0.25, bad, 5)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GDParams(0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            GDPriorParams(0.25, 1.0, 1)

    def test_prior_alpha_range_is_open(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                GDPriorParams(bad, 1.0, 5)
        GDPriorParams(0.49, 1.0, 5)
        GDPriorParams(1e-6, 1.0, 5)

    def test_prior_beta_positive(self):
        with pytest.raises(ValueError):
            GDPriorParams(0.25, 0.0, 5)

    def test_alpha_post(self):
        assert GDPriorParams(0.25, 1.0, 5).alpha_post == 2.25


class TestRectangle:
    def test_area_and_inf(self):
        O = RectangleO(1.0, 2.0, 3.0, 5.0)
        assert O.area == 2.0
        assert O.inf_coordinate == 1.0

    def test_degenerate_edges_allowed(self):
        assert RectangleO(1.0, 1.0, 2.0, 3.0).area == 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RectangleO(2.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            RectangleO(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            RectangleO(1.0, math.inf, 1.0, 2.0)

    def test_contains(self):
        O = RectangleO(1.0, 2.0, 1.0, 2.0)
        assert O.contains(1.5, 1.0)
        assert not O.contains(0.5, 1.5)
        x = np.array([0.5, 1.5, 2.5])
        assert list(O.contains(x, np.full(3, 1.5))) == [False, True, False]


class TestPhi:
    def test_phi_gd_values(self):
        assert phi_gd(1.0, 1.0) == 0.5
        assert phi_gd(3.0, 1.0) == 0.75
        assert phi_gd(0.0, 1.0) == 0.0
        assert phi_gd(1.0, 0.0) == 1.0

    def test_phi_gd_rejects_double_zero(self):
        with pytest.raises(ValueError):
            phi_gd(0.0, 0.0)

    def test_phi_gd_vectorized(self):
        s1 = np.array([1.0, 3.0])
        s2 = np.array([1.0, 1.0])
        assert list(phi_gd(s1, s2)) == [0.5, 0.75]

    def test_phi_bayes_worked_value(self):
        # (1 + 2*0.01/4) / (1 + 2 + 4*0.01/4) = 1.005/3.01
        pr = GDPriorParams(0.25, 0.01, 5)
        assert phi_bayes(1.0, 2.0, pr) == pytest.approx(1.005 / 3.01, rel=1e-15)

    def test_phi_bayes_equal_variances_centered(self):
        pr = GDPriorParams(0.3, 0.7, 6)
        assert phi_bayes(2.0, 2.0, pr) == pytest.approx(0.5, rel=1e-15)

    def test_phi_bayes_approaches_phi_gd_for_small_beta(self):
        prs = [GDPriorParams(0.25, b, 5) for b in (1e-2, 1e-6, 1e-10)]
        gaps = [abs(phi_bayes(1.0, 2.0, pr) - phi_gd(1.0, 2.0)) for pr in prs]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-10

    def test_swap_gives_the_complement(self):
        rng = np.random.default_rng(8)
        s1 = rng.uniform(0.01, 5.0, 200)
        s2 = rng.uniform(0.01, 5.0, 200)
        assert np.allclose(phi_gd(s2, s1), 1.0 - phi_gd(s1, s2), atol=1e-15)

    def test_phi_bayes_pulls_toward_half(self):
        # the prior shift moves the weight from phi_gd toward 1/2
        pr = GDPriorParams(0.25, 2.0, 5)
        assert phi_gd(3.0, 1.0) > phi_bayes(3.0, 1.0, pr) > 0.5
        assert phi_gd(1.0, 3.0) < phi_bayes(1.0, 3.0, pr) < 0.5


class TestEstimate:
    def test_summarize_two_points(self):
        assert summarize(np.array([0.0, 2.0])) == (1.0, 2.0)

    def test_summarize_rejects_short(self):
        with pytest.raises(ValueError):
            summarize(np.array([1.0]))

    def test_matches_precision_weighted_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1 = rng.normal(0.0, 1.0, 5)
            x2 = rng.normal(0.0, 2.0, 5)
            est = gd_estimate(x1, x2)
            _, s1 = summarize(x1)
            _, s2 = summarize(x2)
            w1, w2 = 1 / s1, 1 / s2
            expected = (w1 * x1.mean() + w2 * x2.mean()) / (w1 + w2)
            assert est == pytest.approx(expected, rel=1e-12)

    def test_lies_between_the_sample_means(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x1 = rng.normal(1.0, 0.5, 4)
            x2 = rng.normal(1.0, 3.0, 4)
            est = gd_estimate(x1, x2)
            lo = min(x1.mean(), x2.mean())
            hi = max(x1.mean(), x2.mean())
            assert lo - 1e-12 <= est <= hi + 1e-12

    def test_swapping_the_samples_leaves_the_estimate_alone(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x1 = rng.normal(0.0, 1.0, 5)
            x2 = rng.normal(0.0, 2.0, 5)
            assert gd_estimate(x2, x1) == pytest.approx(gd_estimate(x1, x2),
                                                        rel=1e-12)

    def test_zero_variance_arm_gets_full_weight(self):
        x1 = np.array([2.0, 2.0, 2.0])
        x2 = np.array([0.0, 1.0, 5.0])
        assert gd_estimate(x1, x2) == 2.0

    def test_rejects_two_constant_samples(self):
        with pytest.raises(ValueError):
            gd_estimate(np.array([1.0, 1.0]), np.array([3.0, 3.0]))

    def test_rejects_unequal_sample_sizes(self):
        with pytest.raises(ValueError):
            gd_estimate(np.array([1.0, 2.0, 3.0]), np.array([3.0, 4.0]))


class TestSampleData:
    def test_summaries_match_raw_vectors(self):
        th = GDParams(0.3, 1.0, 2.0, 5)
        d = sample_data(th, np.random.default_rng(7))
        assert d.x1.shape == (5,) and d.x2.shape == (5,)
        assert (d.xbar1, d.s1_sq) == summarize(d.x1)
        assert (d.xbar2, d.s2_sq) == summarize(d.x2)
        assert d.d == d.xbar2 - d.xbar1

    def test_scaled_variances_are_chi_square(self):
        # (n-1) S_i^2 / sigma_i^2 should follow chi2 with n-1 dof; both
        # arms pooled to 1e5 values
        th = GDParams(0.3, 1.0, 2.0, 5)
        rng = np.random.default_rng(5)
        vals = np.empty(100_000)
        i = 0
        while i < vals.size:
            d = sample_data(th, rng)
            vals[i] = (th.n - 1) * d.s1_sq / th.sigma1_sq
            vals[i + 1] = (th.n - 1) * d.s2_sq / th.sigma2_sq
            i += 2
        ks = stats.kstest(vals, stats.chi2(th.n - 1).cdf)
        assert ks.pvalue > KS_LEVEL

    def test_means_are_gaussian(self):
        th = GDParams(1.5, 2.0, 0.5, 4)
        rng = np.random.default_rng(11)
        xbars = np.array([sample_data(th, rng).xbar1 for _ in range(20_000)])
        ks = stats.kstest(xbars, stats.norm(th.mu, math.sqrt(th.sigma1_sq / th.n)).cdf)
        assert ks.pvalue > KS_LEVEL


class TestHierarchical:
    PRIOR = GDPriorParams(0.25, 1e-3, 5)

    def test_shapes_and_posterior_fields(self):
        h = sample_hierarchical(self.PRIOR, np.random.default_rng(3), size=10)
        assert h.sigma_sq.shape == (2, 10)
        assert h.alpha_post == 2.25
        assert np.allclose(h.ss, (self.PRIOR.n - 1) * h.s_sq, rtol=1e-15)
        assert np.allclose(h.beta_post, self.PRIOR.beta + h.ss / 2, rtol=1e-15)
        assert np.allclose(h.u, 2 * self.PRIOR.beta / (2 * self.PRIOR.beta + h.ss),
                           rtol=1e-15)

    def test_u_statistic_is_beta_distributed(self):
        h = sample_hierarchical(self.PRIOR, np.random.default_rng(42), size=50_000)
        ks = stats.kstest(h.u.ravel(),
                          stats.beta(self.PRIOR.alpha, (self.PRIOR.n - 1) / 2).cdf)
        assert ks.pvalue > KS_LEVEL

    def test_variance_marginal_is_inverse_gamma(self):
        h = sample_hierarchical(self.PRIOR, np.random.default_rng(42), size=50_000)
        cdf = lambda x: special.gammaincc(self.PRIOR.alpha, self.PRIOR.beta / x)
        ks = stats.kstest(h.sigma_sq.ravel(), cdf)
        assert ks.pvalue > KS_LEVEL

    def test_posterior_mean_against_importance_sampling(self):
        # the closed-form posterior mean (beta + ss/2)/(alpha_post - 1) is
        # checked by reweighting prior draws with the chi-square likelihood
        # of one observed ss
        pr = GDPriorParams(0.25, 0.5, 5)
        ss_star = float(sample_hierarchical(pr, np.random.default_rng(9), 1).ss[0, 0])
        rng = np.random.default_rng(123)
        sig2 = pr.beta / np.maximum(rng.gamma(pr.alpha, 1.0, 400_000), 1e-300)
        w = stats.chi2(pr.n - 1).pdf(ss_star / sig2) / sig2
        is_mean = float(np.sum(w * sig2) / np.sum(w))
        formula = (pr.beta + ss_star / 2) / (pr.alpha_post - 1)
        assert is_mean == pytest.approx(formula, rel=0.02)

    def test_posterior_mean_method(self):
        h = sample_hierarchical(self.PRIOR, np.random.default_rng(3), size=4)
        assert np.allclose(h.posterior_mean(),
                           h.beta_post / (h.alpha_post - 1), rtol=1e-15)

    def test_common_draws_scale_with_beta(self):
        # same seed, different beta: the underlying (gamma, chi-square)
        # draws are shared, so ss scales by the beta ratio up to rounding
        ha = sample_hierarchical(GDPriorParams(0.25, 1e-2, 5),
                                 np.random.default_rng(77), 1000)
        hb = sample_hierarchical(GDPriorParams(0.25, 1e-4, 5),
                                 np.random.default_rng(77), 1000)
        assert np.allclose(hb.ss, ha.ss * 1e-2, rtol=1e-12)

    def test_tiny_shape_gives_finite_draws(self):
        # with alpha = 0.001 about half the gamma draws underflow to 0.0;
        # the floor keeps sigma^2 = beta/g0 finite instead of inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sample_hierarchical(GDPriorParams(0.001, 1.0, 5),
                                    np.random.default_rng(0), 1000)
        for field in (h.sigma_sq, h.s_sq, h.ss, h.u, h.beta_post):
            assert np.all(np.isfinite(field))
        assert np.all(h.sigma_sq > 0)


class TestMCEstimate:
    def test_from_sums_small_case(self):
        # values 1, 2, 3: mean 2, sample variance 1
        est = MCEstimate.from_sums(6.0, 14.0, 3, seed=9)
        assert est.mean == 2.0
        assert est.std_error == pytest.approx(math.sqrt(1 / 3))
        assert est.n_samples == 3 and est.seed == 9

    def test_variance_clamped_at_zero(self):
        # constant values can push the centered sum slightly negative
        est = MCEstimate.from_sums(3.0, 2.9999999999999996, 3, seed=0)
        assert est.std_error == 0.0
