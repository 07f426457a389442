"""Monte Carlo drivers: reproducibility, route consistency, and bounds."""

import functools
import json
import math

import numpy as np
import pytest

from admlab.graybill_deal import (
    GDParams,
    GDPriorParams,
    MCConfig,
    RectangleO,
    SHARD_SIZE,
    blyth_sequence_report,
    excess_bayes_risk,
    phi_bayes,
    phi_gd,
    prior_mass_bound,
    risk_c1,
    risk_diff,
)
from admlab.graybill_deal import kernels, mc
from admlab.graybill_deal.mc import mass_constant

THETA = GDParams(0.0, 1.0, 2.0, 5)
PRIOR = GDPriorParams(0.25, 1e-3, 5)
SQUARE = RectangleO(1.0, 2.0, 1.0, 2.0)
CFG = MCConfig(n_samples=200_000, seed=11)


def joint_se(a, b):
    return math.hypot(a.std_error, b.std_error)


class TestConfig:
    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            MCConfig(n_samples=1)

    def test_rejects_bad_threads(self):
        with pytest.raises(ValueError):
            MCConfig(threads=0)

    def test_env_thread_override(self, monkeypatch):
        monkeypatch.setenv("ADMLAB_THREADS", "7")
        assert MCConfig().resolve_threads() == 7
        monkeypatch.setenv("ADMLAB_THREADS", "zero")
        with pytest.raises(ValueError):
            MCConfig().resolve_threads()
        monkeypatch.setenv("ADMLAB_THREADS", "-2")
        with pytest.raises(ValueError):
            MCConfig().resolve_threads()

    def test_explicit_threads_beat_env(self, monkeypatch):
        monkeypatch.setenv("ADMLAB_THREADS", "7")
        assert MCConfig(threads=2).resolve_threads() == 2

    def test_default_threads_count_the_cpus_this_process_may_use(self, monkeypatch):
        # a process pinned to 2 CPUs of a 64-CPU host gets 2 shard threads
        monkeypatch.delenv("ADMLAB_THREADS", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert MCConfig().resolve_threads() == 2
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(8)))
        assert MCConfig().resolve_threads() == 4
        # without an affinity call (macOS, Windows) the host's count is all there is
        monkeypatch.delattr(mc.os, "sched_getaffinity")
        assert MCConfig().resolve_threads() == 4
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert MCConfig().resolve_threads() == 1


class TestRiskC1:
    def test_two_routes_agree(self):
        rep = risk_c1(THETA, phi_gd, CFG)
        gap = abs(rep.direct.mean - rep.analytic.mean)
        assert gap <= 3 * joint_se(rep.direct, rep.analytic)

    def test_bias_is_zero(self):
        rep = risk_c1(THETA, phi_gd, CFG)
        assert abs(rep.bias.mean) <= 3 * rep.bias.std_error

    def test_risk_dominates_the_oracle_member(self):
        # risk = oracle + scale * E[(phi - theta')^2] >= oracle
        rep = risk_c1(THETA, phi_gd, CFG)
        assert rep.analytic.mean >= rep.oracle_risk
        assert rep.direct.mean >= rep.oracle_risk - 3 * rep.direct.std_error

    def test_oracle_weight_attains_the_oracle_risk(self):
        oracle_phi = lambda s1, s2: np.full_like(s1, THETA.theta_prime)
        rep = risk_c1(THETA, oracle_phi, CFG)
        assert rep.analytic.mean == THETA.oracle_risk
        assert rep.analytic.std_error == 0.0
        assert abs(rep.direct.mean - THETA.oracle_risk) <= 3 * rep.direct.std_error

    def test_swap_symmetry(self):
        # relabeling the two populations leaves the variance-weighted
        # estimator invariant
        swapped = GDParams(THETA.mu, THETA.sigma2_sq, THETA.sigma1_sq, THETA.n)
        a = risk_c1(THETA, phi_gd, CFG)
        b = risk_c1(swapped, phi_gd, CFG)
        assert abs(a.analytic.mean - b.analytic.mean) <= 3 * joint_se(a.analytic,
                                                                      b.analytic)

    def test_report_round_trips_through_json(self):
        rep = risk_c1(THETA, phi_gd, MCConfig(n_samples=2048, seed=1))
        blob = json.loads(json.dumps(rep.as_dict()))
        assert blob["seed"] == 1
        assert blob["n_samples"] == 2048
        assert blob["direct"]["mean"] == rep.direct.mean

    def test_rejects_misshapen_phi(self):
        bad = lambda s1, s2: 0.5
        with pytest.raises(ValueError):
            risk_c1(THETA, bad, MCConfig(n_samples=256, seed=0))


class TestRiskDiff:
    def test_self_difference_is_exactly_zero(self):
        est = risk_diff(THETA, phi_gd, phi_gd, CFG)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_antisymmetry_is_exact(self):
        pb = functools.partial(phi_bayes, prior=PRIOR)
        ab = risk_diff(THETA, phi_gd, pb, CFG)
        ba = risk_diff(THETA, pb, phi_gd, CFG)
        assert ab.mean == -ba.mean
        assert ab.std_error == ba.std_error

    def test_matches_separate_risk_runs(self):
        pb = functools.partial(phi_bayes, prior=GDPriorParams(0.25, 0.5, 5))
        diff = risk_diff(THETA, phi_gd, pb, CFG)
        ra = risk_c1(THETA, phi_gd, CFG)
        rb = risk_c1(THETA, pb, CFG)
        gap = abs(diff.mean - (ra.analytic.mean - rb.analytic.mean))
        tol = 3 * math.sqrt(diff.std_error**2 + ra.analytic.std_error**2
                            + rb.analytic.std_error**2)
        assert gap <= tol

    def test_oracle_weight_beats_everything(self):
        oracle_phi = lambda s1, s2: np.full_like(s1, THETA.theta_prime)
        est = risk_diff(THETA, phi_gd, oracle_phi, CFG)
        assert est.mean > 0

    def test_constant_weights_give_the_closed_form(self):
        # phi0 = 0 vs phi1 = theta': every draw contributes theta'^2, so
        # the estimate is scale * theta'^2 with (numerically) no spread
        zero_phi = lambda s1, s2: np.zeros_like(s1)
        oracle_phi = lambda s1, s2: np.full_like(s1, THETA.theta_prime)
        est = risk_diff(THETA, zero_phi, oracle_phi, CFG)
        scale = (THETA.sigma1_sq + THETA.sigma2_sq) / THETA.n
        assert est.mean == pytest.approx(scale * THETA.theta_prime**2, rel=1e-9)
        assert est.std_error < 1e-9


class TestExcess:
    def test_integrand_vanishes_on_the_diagonal(self):
        t = np.linspace(0.1, 5.0, 64)
        total, total_sq = kernels.excess_sums(t, t, 1e-3, 1.0)
        assert total == 0.0 and total_sq == 0.0

    def test_beta_route_matches_relaxed_bound(self):
        # 4 beta^2/(T1+T2+4 beta) and 2 beta U1 U2/(U1+U2) are the same
        # quantity written through U = 2 beta/(2 beta + T)
        rep = excess_bayes_risk(PRIOR, CFG)
        assert rep.upper_mc.mean == pytest.approx(rep.beta_route.mean, rel=1e-10)

    def test_excess_below_relaxed_bound_pointwise(self):
        rep = excess_bayes_risk(PRIOR, CFG)
        assert rep.excess.mean <= rep.upper_mc.mean

    @pytest.mark.parametrize("beta", [1e-2, 1e-3, 1e-4])
    def test_stays_below_two_beta(self, beta):
        rep = excess_bayes_risk(GDPriorParams(0.25, beta, 5), CFG)
        assert rep.ok
        assert rep.excess.mean <= 2 * beta + 3 * rep.excess.std_error

    def test_rejects_degenerate_dof(self):
        # 2 alpha + n - 3 <= 0 leaves the conditional second moment infinite
        with pytest.raises(ValueError):
            excess_bayes_risk(GDPriorParams(0.25, 1e-3, 2), CFG)

    def test_report_round_trips_through_json(self):
        rep = excess_bayes_risk(PRIOR, MCConfig(n_samples=2048, seed=3))
        blob = json.loads(json.dumps(rep.as_dict()))
        assert blob["ok"] is True
        assert blob["seed"] == 3


class TestMassBound:
    def test_constant_for_the_unit_offset_square(self):
        # min(a)=1 makes the constant area/(4 Gamma(alpha)^2)
        c = mass_constant(SQUARE, 0.25)
        assert c == pytest.approx(1 / (4 * math.gamma(0.25) ** 2), rel=1e-12)

    def test_quadrature_matches_cdf_product(self):
        # the report's mass is a product of 1-d CDF differences, which only
        # independence justifies; adaptive quadrature of the product density
        # must reproduce it, on non-square rectangles, at small beta and
        # near both ends of alpha's range
        from scipy import integrate, special
        rects = [SQUARE, RectangleO(1.0, 3.0, 0.5, 2.0), RectangleO(0.25, 0.5, 2.0, 6.0)]
        for rect in rects:
            for alpha in (0.01, 0.25, 0.49):
                for beta in (1e-4, 1e-2, 0.15):
                    log_norm = alpha * math.log(beta) - special.gammaln(alpha)

                    def pdf(x):
                        return math.exp(log_norm - (alpha + 1.0) * math.log(x) - beta / x)
                    reference, _ = integrate.dblquad(
                        lambda y, x: pdf(x) * pdf(y),
                        rect.a1, rect.b1, rect.a2, rect.b2, epsabs=0.0, epsrel=1e-8)
                    rep = prior_mass_bound(rect, GDPriorParams(alpha, beta, 5))
                    assert rep.quad_mass == pytest.approx(reference, rel=1e-6), (rect, alpha, beta)

    def test_quadrature_mass_is_pinned_to_the_bit(self):
        # a non-square rectangle, so swapping its edges shows; the last bits
        # come from the incomplete gamma values and Gamma(alpha), so a change
        # to either function shows too
        rep = prior_mass_bound(RectangleO(1.0, 3.0, 0.5, 2.0), GDPriorParams(0.4, 0.3, 5))
        assert rep.quad_mass.hex() == "0x1.d5a67dd002f27p-5"
        assert rep.constant.hex() == "0x1.6699e3b4873eap-6"

    @pytest.mark.parametrize("beta", [1e-2, 1e-3, 1e-4])
    def test_bound_cleared_on_the_reference_square(self, beta):
        rep = prior_mass_bound(SQUARE, GDPriorParams(0.25, beta, 5))
        assert rep.ok
        assert rep.quad_mass > rep.lower_bound

    def test_monte_carlo_agrees_with_quadrature(self):
        rep = prior_mass_bound(SQUARE, PRIOR, mc=CFG)
        gap = abs(rep.mc_mass.mean - rep.quad_mass)
        assert gap <= 3 * rep.mc_mass.std_error + 1e-6

    def test_degenerate_rectangle_gives_zero_zero(self):
        line = RectangleO(1.0, 1.0, 1.0, 2.0)
        rep = prior_mass_bound(line, PRIOR)
        assert rep.lower_bound == 0.0
        assert rep.quad_mass == 0.0
        assert rep.ok

    def test_precondition_on_beta(self):
        with pytest.raises(ValueError):
            prior_mass_bound(SQUARE, GDPriorParams(0.4, 0.8, 5))

    def test_report_round_trips_through_json(self):
        rep = prior_mass_bound(SQUARE, PRIOR, mc=MCConfig(n_samples=4096, seed=5))
        blob = json.loads(json.dumps(rep.as_dict()))
        assert blob["lower_bound"] == rep.lower_bound
        assert blob["mc_mass"]["n_samples"] == 4096


class TestBlythSequence:
    BETAS = [1e-2, 1e-3, 1e-4]

    def test_ratios_shrink_by_the_predicted_decade_factor(self):
        rep = blyth_sequence_report(0.25, 5, self.BETAS, SQUARE, CFG)
        # shared draws make consecutive ratios contract by 10^(1-2 alpha)
        # exactly, up to float rounding
        for prev, cur in zip(rep.rows, rep.rows[1:]):
            assert prev.ratio / cur.ratio == pytest.approx(10 ** 0.5, rel=1e-12)

    def test_ratio_sequence_decreases(self):
        rep = blyth_sequence_report(0.25, 5, self.BETAS, SQUARE, CFG)
        ratios = [row.ratio for row in rep.rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_csv_shape_and_round_trip(self):
        import csv as csv_mod
        import io
        rep = blyth_sequence_report(0.25, 5, self.BETAS, SQUARE, CFG)
        rows = list(csv_mod.DictReader(io.StringIO(rep.csv())))
        assert [r["beta"] for r in rows] == [repr(b) for b in self.BETAS]
        for parsed, row in zip(rows, rep.rows):
            assert float(parsed["excess_mean"]) == row.excess.mean
            assert float(parsed["excess_se"]) == row.excess.std_error
            assert float(parsed["mass_bound"]) == row.mass_bound
            assert float(parsed["ratio"]) == row.ratio

    def test_single_beta_row(self):
        rep = blyth_sequence_report(0.25, 5, [1e-3], SQUARE, CFG)
        assert len(rep.rows) == 1
        assert not rep.slow_convergence

    def test_slow_convergence_flag(self):
        rep = blyth_sequence_report(0.49, 5, [1e-3], SQUARE, CFG)
        assert rep.slow_convergence

    def test_input_validation(self):
        with pytest.raises(ValueError):
            blyth_sequence_report(0.25, 5, [], SQUARE, CFG)
        with pytest.raises(ValueError):
            blyth_sequence_report(0.25, 5, [1e-3, 1e-2], SQUARE, CFG)
        with pytest.raises(ValueError):
            blyth_sequence_report(0.25, 5, [1e-3, -1e-4], SQUARE, CFG)
        with pytest.raises(ValueError):
            blyth_sequence_report(0.25, 5, [5.0, 1e-3], SQUARE, CFG)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_single_excess_runs_bit_for_bit(self, threads):
        cfg = MCConfig(n_samples=2 * SHARD_SIZE + 1000, seed=6, threads=threads)
        rep = blyth_sequence_report(0.25, 5, self.BETAS, SQUARE, cfg)
        for row in rep.rows:
            single = excess_bayes_risk(GDPriorParams(0.25, row.beta, 5), cfg)
            assert row.excess == single.excess

    def test_sweep_draws_once_per_shard_and_skips_the_bound_kernels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Blyth sweep needs no bound kernel")
        monkeypatch.setattr(kernels, "excess_upper_sums", refuse)
        monkeypatch.setattr(kernels, "beta_route_sums", refuse)
        draws, betas_seen = [], []
        unit_gamma, excess_sums = mc._unit_gamma, kernels.excess_sums
        monkeypatch.setattr(mc, "_unit_gamma",
                            lambda *a: draws.append(a[2]) or unit_gamma(*a))
        monkeypatch.setattr(kernels, "excess_sums",
                            lambda *a: betas_seen.append(a[2]) or excess_sums(*a))
        cfg = MCConfig(n_samples=SHARD_SIZE + 10, seed=2, threads=1)
        blyth_sequence_report(0.25, 5, self.BETAS, SQUARE, cfg)
        assert draws == [SHARD_SIZE, 10]
        assert betas_seen == self.BETAS * 2

    def test_report_round_trips_through_json(self):
        rep = blyth_sequence_report(0.25, 5, [1e-3], SQUARE,
                                    MCConfig(n_samples=4096, seed=2))
        blob = json.loads(json.dumps(rep.as_dict()))
        assert blob["seed"] == 2
        assert len(blob["rows"]) == 1


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = risk_c1(THETA, phi_gd, CFG)
        b = risk_c1(THETA, phi_gd, CFG)
        assert a.direct == b.direct
        assert a.analytic == b.analytic
        assert a.bias == b.bias

    def test_thread_count_does_not_change_results(self):
        one = MCConfig(n_samples=CFG.n_samples, seed=CFG.seed, threads=1)
        four = MCConfig(n_samples=CFG.n_samples, seed=CFG.seed, threads=4)
        assert risk_c1(THETA, phi_gd, one).direct == risk_c1(THETA, phi_gd, four).direct
        assert excess_bayes_risk(PRIOR, one).excess == excess_bayes_risk(PRIOR,
                                                                         four).excess

    def test_different_seeds_agree_within_tolerance(self):
        a = excess_bayes_risk(PRIOR, MCConfig(n_samples=CFG.n_samples, seed=1))
        b = excess_bayes_risk(PRIOR, MCConfig(n_samples=CFG.n_samples, seed=2))
        assert a.excess.mean != b.excess.mean
        assert abs(a.excess.mean - b.excess.mean) <= 6 * joint_se(a.excess, b.excess)

    def test_partial_shard_sizes(self):
        # sample counts off the shard grid still run and record correctly
        for n in (2, 1000, SHARD_SIZE, SHARD_SIZE + 1, 70_000):
            est = risk_diff(THETA, phi_gd,
                            functools.partial(phi_bayes, prior=PRIOR),
                            MCConfig(n_samples=n, seed=4))
            assert est.n_samples == n
            assert math.isfinite(est.mean)


class TestKernelPaths:
    # each kernel against an exactly rounded math.fsum reference over the
    # same per-element arithmetic in Python floats
    CASES = 4096

    def _arrays(self):
        rng = np.random.default_rng(99)
        return rng.uniform(0.1, 4.0, self.CASES), rng.uniform(0.1, 4.0, self.CASES)

    @staticmethod
    def _sums(values):
        values = list(values)
        return math.fsum(values), math.fsum(v * v for v in values)

    def test_loss_sums(self):
        a, b = self._arrays()
        phi = np.clip(a / (a + b), 0.0, 1.0)
        got = kernels.loss_sums(a, b, phi, 0.7)
        err = [x + (y - x) * p - 0.7 for x, y, p in zip(a.tolist(), b.tolist(), phi.tolist())]
        sq = [e * e for e in err]
        want = (math.fsum(sq), math.fsum(v * v for v in sq), math.fsum(err))
        assert np.allclose(got, want, rtol=1e-9)

    def test_moment_sums(self):
        a, _ = self._arrays()
        assert np.allclose(kernels.moment_sums(a), self._sums(a.tolist()), rtol=1e-9)

    def test_diff_sums(self):
        a, b = self._arrays()
        p0 = a / (a + b)
        p1 = (a + 0.1) / (a + b + 0.2)
        want = self._sums((x - 0.4) * (x - 0.4) - (y - 0.4) * (y - 0.4)
                          for x, y in zip(p0.tolist(), p1.tolist()))
        assert np.allclose(kernels.diff_sums(p0, p1, 0.4), want, rtol=1e-9)

    def test_excess_sums(self):
        a, b = self._arrays()
        beta, coef = 1e-3, 0.08
        pairs = list(zip(a.tolist(), b.tolist()))
        want = self._sums(coef * 4.0 * beta * beta * (x - y) * (x - y)
                          / ((x + y) * (x + y) * (x + y + 4.0 * beta)) for x, y in pairs)
        assert np.allclose(kernels.excess_sums(a, b, beta, coef), want, rtol=1e-9)
        want = self._sums(coef * 4.0 * beta * beta / (x + y + 4.0 * beta) for x, y in pairs)
        assert np.allclose(kernels.excess_upper_sums(a, b, beta, coef), want, rtol=1e-9)

    def test_beta_route_sums(self):
        a, b = self._arrays()
        u0 = 1.0 / (1.0 + a)
        u1 = 1.0 / (1.0 + b)
        want = self._sums(2e-3 * x * y / (x + y) for x, y in zip(u0.tolist(), u1.tolist()))
        assert np.allclose(kernels.beta_route_sums(u0, u1, 2e-3), want, rtol=1e-9)

    def test_rect_count(self):
        a, b = self._arrays()
        # points on the edges count as inside
        a[:4] = (1.0, 2.0, 1.0, 2.0)
        b[:4] = (1.0, 2.0, 2.0, 1.0)
        got = kernels.rect_count(a, b, 1.0, 2.0, 1.0, 2.0)
        want = sum(1 for x, y in zip(a.tolist(), b.tolist())
                   if 1.0 <= x <= 2.0 and 1.0 <= y <= 2.0)
        assert got == want
