"""Shifted risks and the derived two-person zero-sum game.

The payoff against a base procedure delta0, anchor parameter theta0, and
weight gamma > 0 is

    payoff(theta, delta) = [r(theta0, delta) - r(theta0, delta0)]
                         + gamma * [r(theta, delta) - r(theta, delta0)].

Nature mixes over parameters (a prior), the statistician mixes over base
procedures.  One exact LP solves the statistician's side, and its duals are
nature's (Dantzig 1951); both optimal values are recomputed from the one
int matrix, the payoff times ``den * q`` for gamma = a / q, and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from admlab.decision import (
    HYPER,
    DecisionProblem,
    Mixture,
    Prior,
    _fmt,
    _from_lp,
    _lc_gaps,
    _weighted_rows,
)
from admlab.hyperreal import _as_fraction
from admlab.simplex import solve_lp

__all__ = ["GameValueReport", "derived_game_value", "shifted_risk"]


def shifted_risk(p: DecisionProblem, delta_base, pi_or_theta, delta_prime) -> Fraction:
    """Bayes-risk difference r(pi, delta') - r(pi, delta_base), an LCNumber for a
    HYPER prior; Dirac case for a theta label."""
    pi = pi_or_theta if isinstance(pi_or_theta, Prior) else Prior.dirac(pi_or_theta)
    gap = _lc_gaps(p, pi, p.proc_index(delta_base))[p.proc_index(delta_prime)]
    return gap if pi.kind == HYPER else gap.standard_part()


@dataclass(frozen=True)
class GameValueReport:
    delta0: str
    theta0: str
    gamma: Fraction
    lower: Fraction                  # sup over priors of inf over mixtures
    upper: Fraction                  # inf over mixtures of sup over parameters
    determined: bool
    optimal_prior: Prior
    optimal_mixture: Mixture
    payoff: tuple                    # rows by theta, columns by procedure
    iterations: int = field(metadata={"key": "lp_iterations"})

    def as_dict(self):
        return _fmt(self)


def derived_game_value(p: DecisionProblem, delta0, theta0, gamma) -> GameValueReport:
    """Solve the derived game exactly: one LP, its optimal prior from the duals."""
    gamma = _as_fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be a positive rational")
    if not p.allow_mixtures:
        raise ValueError("the derived game needs mixtures enabled")
    i0 = p.theta_index(theta0)
    j0 = p.proc_index(delta0)
    nt, nd = len(p.theta_labels), len(p.proc_labels)

    # payoff times scale = den * q for gamma = a / q
    a, q = gamma.numerator, gamma.denominator
    scale = p.den * q
    top = p.irisk[i0]
    ipay = [[q * (top[j] - top[j0]) + a * (row[j] - row[j0]) for j in range(nd)]
            for row in p.irisk]

    # statistician side: minimize v with payoff(theta, mix) <= v for every
    # theta; nature's side is its LP dual, a prior weighting theta by ynum
    lp = solve_lp([0] * nd + [1], A_ub=[row + [-scale] for row in ipay], b_ub=[0] * nt,
                  A_eq=[[scale] * nd + [0]], b_eq=[scale],
                  free_vars=[nd], maximize=False)
    if lp.status != "optimal":
        raise RuntimeError(f"mixture-side game LP unexpectedly {lp.status}")
    upper = lp.objective
    mix = _from_lp(Mixture, p.proc_labels, lp.num, lp.D)
    prior = _from_lp(Prior, p.theta_labels, lp.ynum, sum(lp.ynum))

    # re-verify both optima directly on the payoff matrix: the mixture's worst
    # payoff is upper, and the prior's worst payoff (lower) must equal it
    if Fraction(max(_weighted_rows(ipay, lp.num[:nd])), lp.D * scale) != upper:
        raise RuntimeError("mixture-side game optimum failed independent re-verification")
    lower = Fraction(min(_weighted_rows(zip(*ipay), lp.ynum)), sum(lp.ynum) * scale)
    if lower != upper:
        raise RuntimeError("prior-side game optimum failed independent re-verification")

    payoff = tuple(tuple(Fraction(v, scale) for v in row) for row in ipay)
    return GameValueReport(delta0, theta0, gamma, lower, upper, lower == upper,
                           prior, mix, payoff, lp.iterations)
