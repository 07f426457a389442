"""Monte Carlo drivers for the two-sample common-mean study.

Reproducibility scheme: work is cut into fixed-size shards of 2^16
draws.  Shard k uses an independent counter-based generator keyed by
(seed, k), shards may run on any number of threads, and the reduction
walks shards in index order with exactly rounded summation
(``math.fsum``).  The estimate for a given (seed, n_samples) is therefore
bit-identical across runs and across thread counts.  Shards draw only
through the samplers in ``model``, in a fixed order per report.

All estimators report an ``MCEstimate`` carrying the mean, the standard
error, the sample count, and the seed that produced them.  The excess, mass
and Blyth reports record their own checks in ``ok`` and never raise on a
failed one.  The mass report's incomplete gamma function is its own
series (``_gamma_p``), so no report loads scipy.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .model import (GDParams, GDPriorParams, MCEstimate, RectangleO, _unit_gamma,
                    sample_hierarchical, sample_means, sample_variances)

__all__ = [
    "GDBlythReport",
    "GDExcessReport",
    "GDMassReport",
    "GDRiskReport",
    "MCConfig",
    "SHARD_SIZE",
    "blyth_sequence_report",
    "excess_bayes_risk",
    "prior_mass_bound",
    "risk_c1",
    "risk_diff",
]

SHARD_SIZE = 1 << 16


@dataclass(frozen=True)
class MCConfig:
    n_samples: int = 10**6
    seed: int = 0
    threads: Optional[int] = None

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be positive")

    def resolve_threads(self) -> int:
        if self.threads is not None:
            return self.threads
        env = os.environ.get("ADMLAB_THREADS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise ValueError("ADMLAB_THREADS must be an integer") from None
            if value < 1:
                raise ValueError("ADMLAB_THREADS must be positive")
            return value
        affinity = getattr(os, "sched_getaffinity", None)  # CPUs this process may use
        return min(4, len(affinity(0)) if affinity else os.cpu_count() or 1)


def _shard_sizes(n: int):
    sizes = [SHARD_SIZE] * (n // SHARD_SIZE)
    if n % SHARD_SIZE:
        sizes.append(n % SHARD_SIZE)
    return sizes


def _shard_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _run_shards(cfg: MCConfig, shard_fn: Callable[[np.random.Generator, int], tuple]):
    """Run shard_fn over every shard and reduce componentwise in shard order."""
    sizes = _shard_sizes(cfg.n_samples)
    jobs = [(_shard_rng(cfg.seed, k), size) for k, size in enumerate(sizes)]
    workers = min(cfg.resolve_threads(), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: shard_fn(*job), jobs))
    else:
        results = [shard_fn(rng, size) for rng, size in jobs]
    return tuple(map(math.fsum, zip(*results)))


# -- frequentist risk ----------------------------------------------------------

@dataclass(frozen=True)
class GDRiskReport:
    theta: GDParams
    direct: MCEstimate
    analytic: MCEstimate
    bias: MCEstimate
    oracle_risk: float
    theta_prime: float

    def as_dict(self) -> dict:
        return {
            "mu": self.theta.mu,
            "sigma1_sq": self.theta.sigma1_sq,
            "sigma2_sq": self.theta.sigma2_sq,
            "n": self.theta.n,
            "direct": vars(self.direct).copy(),
            "analytic": vars(self.analytic).copy(),
            "bias": vars(self.bias).copy(),
            "oracle_risk": self.oracle_risk,
            "theta_prime": self.theta_prime,
            "n_samples": self.direct.n_samples,
            "seed": self.direct.seed,
        }


def _phi_values(phi_fn, s1_sq, s2_sq, size):
    phi = np.asarray(phi_fn(s1_sq, s2_sq), dtype=np.float64)
    if phi.shape != (size,):
        raise ValueError("phi callable must map variance arrays to an array "
                         "of the same shape")
    return phi


def risk_c1(theta: GDParams, phi_fn, mc: MCConfig = MCConfig()) -> GDRiskReport:
    """Quadratic risk of xbar1 + D*phi(S1^2, S2^2) at a fixed parameter.

    Two estimates from the same draws: the direct squared error, and the
    variance-reduced route that conditions on the sample variances so
    only E[(phi - theta')^2] is left to Monte Carlo.  Their agreement is
    a consistency check on the decomposition; the report also carries
    the empirical bias, which the symmetry of the model forces to zero.
    """
    theta_prime = theta.theta_prime

    def shard(rng: np.random.Generator, size: int):
        xbar1, xbar2 = sample_means(theta, rng, size)
        s1_sq, s2_sq = sample_variances(theta, rng, size)
        phi = _phi_values(phi_fn, s1_sq, s2_sq, size)
        sq_sum, sq_sq_sum, err_sum = kernels.loss_sums(xbar1, xbar2, phi, theta.mu)
        dev = phi - theta_prime
        m_sum, m_sq_sum = kernels.moment_sums(dev * dev)
        return sq_sum, sq_sq_sum, err_sum, m_sum, m_sq_sum

    sq_sum, sq_sq_sum, err_sum, m_sum, m_sq_sum = _run_shards(mc, shard)
    n_mc = mc.n_samples
    direct = MCEstimate.from_sums(sq_sum, sq_sq_sum, n_mc, mc.seed)
    # err^2 is the squared loss itself, so its sum doubles as the bias
    # second moment
    bias = MCEstimate.from_sums(err_sum, sq_sum, n_mc, mc.seed)
    scale = (theta.sigma1_sq + theta.sigma2_sq) / theta.n
    mean_sq = MCEstimate.from_sums(m_sum, m_sq_sum, n_mc, mc.seed)
    analytic = MCEstimate(theta.oracle_risk + scale * mean_sq.mean,
                          scale * mean_sq.std_error, n_mc, mc.seed)
    return GDRiskReport(theta, direct, analytic, bias,
                        theta.oracle_risk, theta_prime)


def risk_diff(theta: GDParams, phi0_fn, phi1_fn,
              mc: MCConfig = MCConfig()) -> MCEstimate:
    """Risk difference r(phi0) - r(phi1) with common random numbers.

    Both weights are evaluated on the same variance draws, so the mean
    error terms cancel exactly and the difference reduces to
    ((sigma1^2+sigma2^2)/n) * E[(phi0-theta')^2 - (phi1-theta')^2].
    Identical callables give exactly zero with zero standard error.
    """
    theta_prime = theta.theta_prime

    def shard(rng: np.random.Generator, size: int):
        s1_sq, s2_sq = sample_variances(theta, rng, size)
        phi0 = _phi_values(phi0_fn, s1_sq, s2_sq, size)
        phi1 = _phi_values(phi1_fn, s1_sq, s2_sq, size)
        return kernels.diff_sums(phi0, phi1, theta_prime)

    d_sum, d_sq_sum = _run_shards(mc, shard)
    base = MCEstimate.from_sums(d_sum, d_sq_sum, mc.n_samples, mc.seed)
    scale = (theta.sigma1_sq + theta.sigma2_sq) / theta.n
    return MCEstimate(scale * base.mean, scale * base.std_error,
                      mc.n_samples, mc.seed)


# -- Bayes excess --------------------------------------------------------------

def _excess_coef(prior: GDPriorParams) -> float:
    gap = 2.0 * prior.alpha + prior.n - 3.0
    if gap <= 0:
        raise ValueError("need 2*alpha + n - 3 > 0 for the excess to be finite")
    return 1.0 / (prior.n * gap)


@dataclass(frozen=True)
class GDExcessReport:
    prior: GDPriorParams
    excess: MCEstimate
    upper_mc: MCEstimate
    beta_route: MCEstimate
    claim_limit: float
    ok: bool

    def as_dict(self) -> dict:
        return {
            "alpha": self.prior.alpha,
            "beta": self.prior.beta,
            "n": self.prior.n,
            "excess": vars(self.excess).copy(),
            "upper_mc": vars(self.upper_mc).copy(),
            "beta_route": vars(self.beta_route).copy(),
            "claim_limit": self.claim_limit,
            "ok": self.ok,
            "n_samples": self.excess.n_samples,
            "seed": self.excess.seed,
        }


def _excess_sums(priors: Sequence[GDPriorParams], mc: MCConfig,
                 with_bounds: bool = False):
    """Excess sums for priors that differ only in beta, on shared draws.

    Each shard makes one hierarchical draw and evaluates every beta on it,
    two sums per prior; with_bounds appends the sums of the two upper-bound
    routes after each prior's excess sums.
    """
    coef = _excess_coef(priors[0])

    def shard(rng: np.random.Generator, size: int):
        draw = sample_hierarchical(priors[0], rng, size)
        out = ()
        for prior in priors:
            beta = prior.beta
            t = draw.ss(beta)
            out += kernels.excess_sums(t[0], t[1], beta, coef)
            if with_bounds:
                u = draw.u(beta, t)
                out += kernels.excess_upper_sums(t[0], t[1], beta, coef)
                out += kernels.beta_route_sums(u[0], u[1], 2.0 * beta * coef)
        return out

    return _run_shards(mc, shard)


def excess_bayes_risk(prior: GDPriorParams,
                      mc: MCConfig = MCConfig()) -> GDExcessReport:
    """Bayes-risk gap between the variance-weighted and the posterior weights.

    Integrates 4 beta^2 (T1-T2)^2 / (n (2 alpha + n - 3) (T1+T2)^2 (T1+T2+4 beta))
    over the marginal law of the raw sums of squares T_i.  Alongside the
    direct estimate the report carries the relaxation obtained from
    (T1-T2)^2 <= (T1+T2)^2 and its conjugate-beta rewrite
    2 beta E[U1 U2/(U1+U2)] / (n (2 alpha + n - 3)); both bound the gap
    and stay below 2 beta.  ``ok``: the excess is at most 2 beta plus three
    standard errors.
    """
    sums = _excess_sums([prior], mc, with_bounds=True)
    n_mc = mc.n_samples
    excess = MCEstimate.from_sums(sums[0], sums[1], n_mc, mc.seed)
    upper_mc = MCEstimate.from_sums(sums[2], sums[3], n_mc, mc.seed)
    beta_route = MCEstimate.from_sums(sums[4], sums[5], n_mc, mc.seed)
    limit = 2.0 * prior.beta
    ok = excess.mean <= limit + 3.0 * excess.std_error
    return GDExcessReport(prior, excess, upper_mc, beta_route, limit, ok)


# -- prior mass of a rectangle -------------------------------------------------

@dataclass(frozen=True)
class GDMassReport:
    rectangle: RectangleO
    prior: GDPriorParams
    constant: float
    lower_bound: float
    quad_mass: float  # the exact mass of O; the payload key keeps this name
    mc_mass: Optional[MCEstimate]
    ok: bool

    def as_dict(self) -> dict:
        out = {
            "rectangle": [self.rectangle.a1, self.rectangle.b1,
                          self.rectangle.a2, self.rectangle.b2],
            "alpha": self.prior.alpha,
            "beta": self.prior.beta,
            "constant": self.constant,
            "lower_bound": self.lower_bound,
            "quad_mass": self.quad_mass,
            "ok": self.ok,
        }
        if self.mc_mass is not None:
            out["mc_mass"] = vars(self.mc_mass).copy()
            out["n_samples"] = self.mc_mass.n_samples
            out["seed"] = self.mc_mass.seed
        return out


def mass_constant(O: RectangleO, alpha: float) -> float:
    """min(a1,a2)^(2(alpha+1)) * area(O) / (4 Gamma(alpha)^2)."""
    return (O.inf_coordinate ** (2.0 * (alpha + 1.0)) * O.area
            / (4.0 * math.gamma(alpha) ** 2))


def _gamma_tail(alpha: float, x: float) -> float:
    """R(x) = sum_{k>=1} (-x)^k / (k! (alpha + k)), for 0 <= x < 1.

    The terms alternate in sign and fall in size, so the sum stops at the
    first term below one ulp of it, after at most 16 terms on x < ln 2.
    """
    total, term, k = 0.0, 1.0, 0
    while True:
        k += 1
        term *= -x / k
        step = term / (alpha + k)
        total += step
        if abs(step) <= 2.0 ** -53 * abs(total):
            return total


def _gamma_p(alpha: float, x: float, lo: float = 0.0) -> float:
    """P(alpha, x) - P(alpha, lo) for 0 <= lo <= x < 1: the regularised lower
    incomplete gamma function P, or with ``lo`` the mass between lo and x.

    By the series of A&S 6.5.29, P(alpha, x) = x^alpha (1 + alpha R(x)) /
    Gamma(alpha + 1), with R from ``_gamma_tail``; on x < 1 the series alone
    converges, so no continued fraction is needed.  The difference is taken
    factor by factor: for small alpha both P values lie near 1, and
    subtracting them would cost about eps / alpha of relative accuracy.
    Where lo^alpha > x^alpha / 2, x^alpha - lo^alpha is taken as lo^alpha
    expm1(alpha log(x / lo)).  P(alpha, 0) is 0.0, and a difference with
    lo == x is exactly 0.0.
    """
    if x == lo:
        return 0.0
    px, plo = x ** alpha, lo ** alpha
    if plo <= 0.5 * px:  # the subtraction loses no digits; lo == 0.0 lands here
        rise = px - plo
    else:
        ratio = x / lo  # inf only for a subnormal lo, and then alpha < 1e-3
        log_ratio = math.log(ratio) if ratio < math.inf else math.log(x) - math.log(lo)
        rise = plo * math.expm1(alpha * log_ratio)
    tails = px * _gamma_tail(alpha, x) - plo * _gamma_tail(alpha, lo)
    return (rise + alpha * tails) / math.gamma(alpha + 1.0)


def prior_mass_bound(O: RectangleO, prior: GDPriorParams,
                     mc: Optional[MCConfig] = None) -> GDMassReport:
    """Lower bound C * beta^(2 alpha) for the prior mass of O, with the mass.

    Valid only when beta < ln(2) * inf(O); computes the actual mass, and
    ``ok`` says whether it clears the bound.  The two variances are independent
    inverse-gamma draws, so the mass is exact: a product of one-dimensional
    differences P(alpha, beta/a) - P(alpha, beta/b) of the regularised lower
    incomplete gamma P.  The precondition puts every beta/a below ln 2 < 1,
    the domain of ``_gamma_p``'s series.  An optional Monte Carlo mass from
    hierarchical draws is attached when an MCConfig is given.
    """
    if prior.beta >= math.log(2.0) * O.inf_coordinate:
        raise ValueError("mass bound needs beta < ln(2) * inf(O)")
    alpha, beta = prior.alpha, prior.beta
    constant = mass_constant(O, alpha)
    lower = constant * beta ** (2.0 * alpha)

    # P(a <= sigma^2 <= b) on each axis; 0.0 when a == b
    quad_mass = (_gamma_p(alpha, beta / O.a1, beta / O.b1)
                 * _gamma_p(alpha, beta / O.a2, beta / O.b2))

    mc_mass = None
    if mc is not None:
        def shard(rng: np.random.Generator, size: int):
            # sample_hierarchical's first draw g0, as its sigma_sq(beta); no w
            sigma = beta / _unit_gamma(rng, alpha, size)
            return (float(kernels.rect_count(sigma[0], sigma[1],
                                             O.a1, O.b1, O.a2, O.b2)),)
        (count,) = _run_shards(mc, shard)
        p = count / mc.n_samples
        se = math.sqrt(max(p * (1.0 - p), 0.0) / mc.n_samples)
        mc_mass = MCEstimate(p, se, mc.n_samples, mc.seed)

    ok = quad_mass > lower or (quad_mass == 0.0 and lower == 0.0)
    return GDMassReport(O, prior, constant, lower, quad_mass, mc_mass, ok)


# -- the shrinking-beta sequence ------------------------------------------------

@dataclass(frozen=True)
class BlythRow:
    beta: float
    excess: MCEstimate
    mass_bound: float
    ratio: float


@dataclass(frozen=True)
class GDBlythReport:
    """One row per beta, the CSV's lines; ``ok``: the ratios strictly decrease
    and the last one meets ``blyth_sequence_report``'s decay target."""
    alpha: float
    n: int
    rectangle: RectangleO
    rows: Sequence[BlythRow]
    slow_convergence: bool
    ok: bool

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n": self.n,
            "rectangle": [self.rectangle.a1, self.rectangle.b1,
                          self.rectangle.a2, self.rectangle.b2],
            "slow_convergence": self.slow_convergence,
            "ok": self.ok,
            "seed": self.rows[0].excess.seed,
            "n_samples": self.rows[0].excess.n_samples,
            "rows": [{
                "beta": row.beta,
                "excess_mean": row.excess.mean,
                "excess_se": row.excess.std_error,
                "mass_bound": row.mass_bound,
                "ratio": row.ratio,
            } for row in self.rows],
        }

    def csv(self) -> str:
        lines = ["beta,excess_mean,excess_se,mass_bound,ratio"]
        for row in self.rows:
            lines.append(f"{row.beta!r},{row.excess.mean!r},"
                         f"{row.excess.std_error!r},{row.mass_bound!r},{row.ratio!r}")
        return "\n".join(lines) + "\n"


def blyth_sequence_report(alpha: float, n: int, betas: Sequence[float],
                          O: RectangleO,
                          mc: MCConfig = MCConfig()) -> GDBlythReport:
    """Excess-to-mass ratios along a decreasing beta sequence.

    Each shard draws its gamma and chi-square numbers once and evaluates
    every beta on them, so the draws are shared across rows.  Under those
    common random numbers the excess is linear in beta, so the reported ratios
    decay like beta^(1-2 alpha) up to float rounding.  The report's ``ok``
    says whether the ratios decrease and the last one beats the first by at
    least the conservative factor (beta_last/beta_first)^((1-2 alpha)/2).

    When 1 - 2 alpha is small the decay is slow; the report flags that
    regime (``slow_convergence``) as well.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("need at least one beta")
    if any(b <= 0 for b in betas):
        raise ValueError("betas must be positive")
    if any(b0 <= b1 for b0, b1 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly decreasing")

    priors = [GDPriorParams(alpha, beta, n) for beta in betas]
    if betas[0] >= math.log(2.0) * O.inf_coordinate:  # the largest beta
        raise ValueError(f"mass bound needs beta < ln(2) * inf(O) for beta={betas[0]!r}")
    sums = _excess_sums(priors, mc)
    constant = mass_constant(O, alpha)
    rows = []
    for i, beta in enumerate(betas):
        excess = MCEstimate.from_sums(sums[2 * i], sums[2 * i + 1], mc.n_samples, mc.seed)
        bound = constant * beta ** (2.0 * alpha)
        rows.append(BlythRow(beta, excess, bound, float(excess.mean / bound)))

    decreasing = all(cur.ratio < prev.ratio for prev, cur in zip(rows, rows[1:]))
    target = rows[0].ratio * (betas[-1] / betas[0]) ** ((1.0 - 2.0 * alpha) / 2.0)
    return GDBlythReport(alpha, n, O, tuple(rows),
                         slow_convergence=(1.0 - 2.0 * alpha) < 0.1,
                         ok=decreasing and rows[-1].ratio <= target)
