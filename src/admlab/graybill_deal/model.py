"""Two-sample common-mean model: estimator algebra and the samplers.

Data model: X_i^(1..n) i.i.d. N(mu, sigma_i^2) for i = 1, 2 with both
variances unknown.  The estimators studied combine the two sample means
as  xbar1 + D * phi(S1^2, S2^2)  with D := xbar2 - xbar1 and phi mapping
the sample variances into [0, 1].  The hierarchical layer puts
independent inverse-gamma(alpha, beta) priors on the two variances.

The samplers are the only code that draws from a generator, and every
Monte Carlo shard in ``mc`` calls them, so their law tests cover the reports.

Conventions that matter:
  * S_i^2 always denotes the normalized sample variance (divisor n-1);
    the raw sum of squares (n-1)*S_i^2 is written ss and is what the
    conjugate update uses (scale beta + ss/2, shape
    ``GDPriorParams.alpha_post``); phi_bayes is built on it.
  * D := xbar2 - xbar1, the unique sign making xbar1 + D*phi_gd equal
    the precision-weighted mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GDParams",
    "GDPriorParams",
    "HierarchicalDraw",
    "MCEstimate",
    "RectangleO",
    "gd_estimate",
    "phi_bayes",
    "phi_gd",
    "sample_hierarchical",
    "sample_means",
    "sample_variances",
    "summarize",
]


@dataclass(frozen=True)
class GDParams:
    mu: float
    sigma1_sq: float
    sigma2_sq: float
    n: int = 5

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (0 < self.sigma1_sq < math.inf and 0 < self.sigma2_sq < math.inf):
            raise ValueError("variances must be finite and strictly positive")
        if int(self.n) != self.n or self.n <= 1:
            raise ValueError("n must be an integer greater than 1")

    @property
    def theta_prime(self) -> float:
        """The oracle shrinkage weight sigma1^2/(sigma1^2+sigma2^2)."""
        return self.sigma1_sq / (self.sigma1_sq + self.sigma2_sq)

    @property
    def oracle_risk(self) -> float:
        """Risk of the oracle member phi = theta_prime."""
        s = self.sigma1_sq + self.sigma2_sq
        return self.sigma1_sq * self.sigma2_sq / (self.n * s)


@dataclass(frozen=True)
class GDPriorParams:
    alpha: float
    beta: float
    n: int = 5

    def __post_init__(self):
        if not 0 < self.alpha < 0.5:
            raise ValueError("alpha must lie strictly between 0 and 1/2")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and strictly positive")
        if int(self.n) != self.n or self.n <= 1:
            raise ValueError("n must be an integer greater than 1")

    @property
    def alpha_post(self) -> float:
        return self.alpha + (self.n - 1) / 2


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int

    @classmethod
    def from_sums(cls, total: float, total_sq: float, n: int, seed: int) -> "MCEstimate":
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
        return cls(mean, math.sqrt(var / n), n, seed)


@dataclass(frozen=True)
class RectangleO:
    """An axis-aligned rectangle [a1,b1] x [a2,b2] inside the open positive quadrant.

    Degenerate edges (a == b) are allowed and carry zero area.
    """

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        if not (0 < self.a1 <= self.b1 and 0 < self.a2 <= self.b2):
            raise ValueError("need 0 < a_i <= b_i for both coordinates")
        if not (math.isfinite(self.b1) and math.isfinite(self.b2)):
            raise ValueError("rectangle must be bounded")

    @property
    def area(self) -> float:
        return (self.b1 - self.a1) * (self.b2 - self.a2)

    @property
    def inf_coordinate(self) -> float:
        return min(self.a1, self.a2)

    def contains(self, x, y):
        return (self.a1 <= x) & (x <= self.b1) & (self.a2 <= y) & (y <= self.b2)


# -- estimator algebra --------------------------------------------------------

def phi_gd(s1_sq, s2_sq):
    """S1^2/(S1^2+S2^2); array-friendly.  Errors when both inputs are zero scalars."""
    total = s1_sq + s2_sq
    if np.isscalar(total) and total == 0:
        raise ValueError("phi_gd undefined when both sample variances vanish")
    return s1_sq / total


def phi_bayes(s1_sq, s2_sq, prior: GDPriorParams):
    """Posterior-optimal shrinkage weight within the class, in normalized S^2 terms."""
    shift = 2.0 * prior.beta / (prior.n - 1)
    return (s1_sq + shift) / (s1_sq + s2_sq + 2.0 * shift)


def summarize(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d sample with n > 1")
    xbar = float(x.mean())
    s_sq = float(np.sum((x - xbar) ** 2) / (x.size - 1))
    return xbar, s_sq


def gd_estimate(x1, x2) -> float:
    """Precision-weighted combination of the two sample means.

    Computed through the shrinkage form xbar1 + D*phi_gd and, whenever the
    precision form is defined, cross-checked against it to 1e-12 relative.
    """
    if len(x1) != len(x2):
        raise ValueError("gd_estimate needs two samples of the same size")
    xbar1, s1 = summarize(x1)
    xbar2, s2 = summarize(x2)
    if s1 + s2 == 0:
        raise ValueError("gd_estimate undefined when both sample variances vanish")
    d = xbar2 - xbar1
    est = xbar1 + d * phi_gd(s1, s2)
    if s1 > 0 and s2 > 0:
        w1, w2 = 1.0 / s1, 1.0 / s2
        precision_form = (w1 * xbar1 + w2 * xbar2) / (w1 + w2)
        if not math.isclose(est, precision_form, rel_tol=1e-12, abs_tol=1e-12):
            raise AssertionError(
                f"estimator forms disagree: {est!r} vs {precision_form!r}")
    return est


# -- samplers ------------------------------------------------------------------

def sample_means(theta: GDParams, rng: np.random.Generator, size: int):
    """(xbar1, xbar2): two arrays of ``size`` N(mu, sigma_i^2/n) draws, xbar1 first."""
    xbar1 = rng.normal(theta.mu, math.sqrt(theta.sigma1_sq / theta.n), size)
    xbar2 = rng.normal(theta.mu, math.sqrt(theta.sigma2_sq / theta.n), size)
    return xbar1, xbar2


def sample_variances(theta: GDParams, rng: np.random.Generator, size: int):
    """(S1^2, S2^2): two arrays of ``size`` sigma_i^2 chi2(n-1)/(n-1) draws, S1^2 first."""
    dof = theta.n - 1
    s1_sq = theta.sigma1_sq * rng.chisquare(dof, size) / dof
    s2_sq = theta.sigma2_sq * rng.chisquare(dof, size) / dof
    return s1_sq, s2_sq


# floor for unit-rate gamma draws: with shape < 1 a draw can underflow to
# exactly 0.0, and sigma^2 = beta/g0 would then be infinite
_TINY = 1e-300


def _unit_gamma(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Unit-rate gamma(alpha) draws of shape (2, size), floored at _TINY."""
    return np.maximum(rng.gamma(alpha, 1.0, (2, size)), _TINY)


@dataclass(frozen=True)
class HierarchicalDraw:
    """Unit draws g0 ~ gamma(alpha) (floored at _TINY) and w ~ chi2(n-1), each
    of shape (2, size), which the methods scale to any beta: on one draw the
    model is linear in beta up to rounding, as the common-random-numbers
    studies across beta values need."""

    g0: np.ndarray
    w: np.ndarray

    def sigma_sq(self, beta: float) -> np.ndarray:
        return beta / self.g0  # inverse-gamma(alpha, beta)

    def ss(self, beta: float) -> np.ndarray:
        return beta * self.w / self.g0  # (n-1) S^2

    @staticmethod
    def u(beta: float, ss: np.ndarray) -> np.ndarray:
        """2*beta/(2*beta + ss(beta)), the conjugate beta(alpha, (n-1)/2) statistic."""
        return 2.0 * beta / (2.0 * beta + ss)


def sample_hierarchical(prior: GDPriorParams, rng: np.random.Generator,
                        size: int = 1) -> HierarchicalDraw:
    """Draw g0, then w; prior.beta is not read, so one draw serves every beta."""
    g0 = _unit_gamma(rng, prior.alpha, size)
    w = rng.chisquare(prior.n - 1, size=(2, size))
    return HierarchicalDraw(g0, w)
