"""Monte Carlo drivers for the two-sample common-mean study.

Reproducibility scheme: work is cut into fixed-size shards of 2^16
draws.  Shard k uses an independent counter-based generator keyed by
(seed, k), shards may run on any number of threads, and the reduction
walks shards in index order with compensated summation.  The estimate
for a given (seed, n_samples) is therefore bit-identical across runs
and across thread counts.

All estimators report an ``MCEstimate`` carrying the mean, the standard
error, the sample count, and the seed that produced them.  Only the mass
report loads scipy (the regularised incomplete gamma function), where it runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .model import GDParams, GDPriorParams, MCEstimate, RectangleO, _unit_gamma

__all__ = [
    "GDBlythReport",
    "GDExcessReport",
    "GDMassReport",
    "GDRiskReport",
    "MCConfig",
    "ReportCheckError",
    "SHARD_SIZE",
    "blyth_sequence_report",
    "excess_bayes_risk",
    "prior_mass_bound",
    "risk_c1",
    "risk_diff",
]

SHARD_SIZE = 1 << 16


class ReportCheckError(RuntimeError):
    """A report failed one of its own checks on its estimates (the CLI's exit 1)."""


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


def _neumaier(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


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
    return tuple(_neumaier(parts) for parts in zip(*results))


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
    n = theta.n
    mu = theta.mu
    sd1 = math.sqrt(theta.sigma1_sq / n)
    sd2 = math.sqrt(theta.sigma2_sq / n)
    theta_prime = theta.theta_prime
    dof = n - 1

    def shard(rng: np.random.Generator, size: int):
        xbar1 = rng.normal(mu, sd1, size)
        xbar2 = rng.normal(mu, sd2, size)
        s1_sq = theta.sigma1_sq * rng.chisquare(dof, size) / dof
        s2_sq = theta.sigma2_sq * rng.chisquare(dof, size) / dof
        phi = _phi_values(phi_fn, s1_sq, s2_sq, size)
        sq_sum, sq_sq_sum, err_sum = kernels.loss_sums(xbar1, xbar2, phi, mu)
        dev = phi - theta_prime
        m_sum, m_sq_sum = kernels.moment_sums(dev * dev)
        return sq_sum, sq_sq_sum, err_sum, m_sum, m_sq_sum

    sq_sum, sq_sq_sum, err_sum, m_sum, m_sq_sum = _run_shards(mc, shard)
    n_mc = mc.n_samples
    direct = MCEstimate.from_sums(sq_sum, sq_sq_sum, n_mc, mc.seed)
    # err^2 is the squared loss itself, so its sum doubles as the bias
    # second moment
    bias = MCEstimate.from_sums(err_sum, sq_sum, n_mc, mc.seed)
    scale = (theta.sigma1_sq + theta.sigma2_sq) / n
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
    dof = theta.n - 1

    def shard(rng: np.random.Generator, size: int):
        s1_sq = theta.sigma1_sq * rng.chisquare(dof, size) / dof
        s2_sq = theta.sigma2_sq * rng.chisquare(dof, size) / dof
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

    Each shard draws (g0, w) once and evaluates every beta on them, two
    sums per prior; with_bounds appends the sums of the two upper-bound
    routes after each prior's excess sums.
    """
    alpha, n = priors[0].alpha, priors[0].n
    coef = _excess_coef(priors[0])
    dof = n - 1

    def shard(rng: np.random.Generator, size: int):
        g0 = _unit_gamma(rng, alpha, size)
        w = rng.chisquare(dof, (2, size))
        out = ()
        for prior in priors:
            beta = prior.beta
            t = beta * w / g0
            out += kernels.excess_sums(t[0], t[1], beta, coef)
            if with_bounds:
                u = 2.0 * beta / (2.0 * beta + t)
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
    and stay below 2 beta, which is checked before returning.
    """
    sums = _excess_sums([prior], mc, with_bounds=True)
    n_mc = mc.n_samples
    excess = MCEstimate.from_sums(sums[0], sums[1], n_mc, mc.seed)
    upper_mc = MCEstimate.from_sums(sums[2], sums[3], n_mc, mc.seed)
    beta_route = MCEstimate.from_sums(sums[4], sums[5], n_mc, mc.seed)
    limit = 2.0 * prior.beta
    ok = excess.mean <= limit + 3.0 * excess.std_error
    report = GDExcessReport(prior, excess, upper_mc, beta_route, limit, ok)
    if not ok:
        raise ReportCheckError(
            f"excess {excess.mean:.6g} exceeds 2*beta={limit:.6g} "
            f"past 3 std errors; report: {report.as_dict()!r}")
    return report


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


def prior_mass_bound(O: RectangleO, prior: GDPriorParams,
                     mc: Optional[MCConfig] = None) -> GDMassReport:
    """Lower bound C * beta^(2 alpha) for the prior mass of O, with the mass.

    Valid only when beta < ln(2) * inf(O); computes the actual mass and
    checks that it clears the bound.  The two variances are independent
    inverse-gamma draws, so the mass is exact: a product of one-dimensional
    differences Q(alpha, beta/b) - Q(alpha, beta/a) of the regularised upper
    incomplete gamma Q.  An optional Monte Carlo mass from hierarchical
    draws is attached when an MCConfig is given.
    """
    if prior.beta >= math.log(2.0) * O.inf_coordinate:
        raise ValueError("mass bound needs beta < ln(2) * inf(O)")
    alpha, beta = prior.alpha, prior.beta
    constant = mass_constant(O, alpha)
    lower = constant * beta ** (2.0 * alpha)

    from scipy import special

    def side(a: float, b: float) -> float:  # P(a <= sigma^2 <= b); 0.0 when a == b
        return float(special.gammaincc(alpha, beta / b) - special.gammaincc(alpha, beta / a))
    quad_mass = side(O.a1, O.b1) * side(O.a2, O.b2)

    mc_mass = None
    if mc is not None:
        def shard(rng: np.random.Generator, size: int):
            sigma = beta / _unit_gamma(rng, alpha, size)
            return (float(kernels.rect_count(sigma[0], sigma[1],
                                             O.a1, O.b1, O.a2, O.b2)),)
        (count,) = _run_shards(mc, shard)
        p = count / mc.n_samples
        se = math.sqrt(max(p * (1.0 - p), 0.0) / mc.n_samples)
        mc_mass = MCEstimate(p, se, mc.n_samples, mc.seed)

    ok = quad_mass > lower or (quad_mass == 0.0 and lower == 0.0)
    report = GDMassReport(O, prior, constant, lower, quad_mass, mc_mass, ok)
    if not ok:
        raise ReportCheckError(
            f"quadrature mass {quad_mass:.6g} does not clear the lower bound "
            f"{lower:.6g}; report: {report.as_dict()!r}")
    return report


# -- the shrinking-beta sequence ------------------------------------------------

@dataclass(frozen=True)
class BlythRow:
    beta: float
    excess: MCEstimate
    mass_bound: float
    ratio: float


@dataclass(frozen=True)
class GDBlythReport:
    alpha: float
    n: int
    rectangle: RectangleO
    rows: Sequence[BlythRow] = field(default_factory=tuple)
    slow_convergence: bool = False

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n": self.n,
            "rectangle": [self.rectangle.a1, self.rectangle.b1,
                          self.rectangle.a2, self.rectangle.b2],
            "slow_convergence": self.slow_convergence,
            "seed": self.rows[0].excess.seed if self.rows else None,
            "n_samples": self.rows[0].excess.n_samples if self.rows else None,
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
    decay like beta^(1-2 alpha) up to float rounding.  The report checks
    that the ratios decrease and that the last one beats the first by at
    least the conservative factor (beta_last/beta_first)^((1-2 alpha)/2).

    When 1 - 2 alpha is small the decay is slow; the report flags that
    regime instead of failing.
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

    if len(rows) > 1:
        for prev, cur in zip(rows, rows[1:]):
            if not cur.ratio < prev.ratio:
                raise ReportCheckError(
                    f"ratio failed to decrease: {prev.ratio!r} -> {cur.ratio!r} "
                    f"at beta={cur.beta!r}")
        allowed = rows[0].ratio * (betas[-1] / betas[0]) ** ((1.0 - 2.0 * alpha) / 2.0)
        if not rows[-1].ratio <= allowed:
            raise ReportCheckError(
                f"final ratio {rows[-1].ratio!r} misses the decay target "
                f"{allowed!r}")

    return GDBlythReport(alpha, n, O, tuple(rows),
                         slow_convergence=(1.0 - 2.0 * alpha) < 0.1)
