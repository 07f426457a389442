"""Shifted risks and the derived two-person zero-sum game.

The payoff against a base procedure delta0, anchor parameter theta0, and
weight gamma > 0 is

    payoff(theta, delta) = [r(theta0, delta) - r(theta0, delta0)]
                         + gamma * [r(theta, delta) - r(theta, delta0)].

Nature mixes over parameters (a prior), the statistician mixes over base
procedures; both optimal values are computed by exact LPs and must agree.
Both LPs and both re-checks of their optima use one int matrix, the payoff
times ``den * q`` for gamma = a / q.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    iterations: int

    def as_dict(self):
        return _fmt({
            "delta0": self.delta0,
            "theta0": self.theta0,
            "gamma": self.gamma,
            "lower": self.lower,
            "upper": self.upper,
            "determined": self.determined,
            # the sup over pure parameters and over priors coincide at the
            # optimum for a finite matrix; both names point at the same value
            "sup_over_thetas": self.upper,
            "sup_over_priors": self.lower,
            "optimal_prior": self.optimal_prior,
            "optimal_mixture": self.optimal_mixture,
            "payoff": self.payoff,
            "lp_iterations": self.iterations,
        })


def derived_game_value(p: DecisionProblem, delta0, theta0, gamma) -> GameValueReport:
    """Solve both sides of the derived game exactly and check that they agree."""
    gamma = Fraction(gamma)
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

    # statistician side: minimize v with payoff(theta, mix) <= v for every theta
    upper_lp = solve_lp([0] * nd + [1], A_ub=[row + [-scale] for row in ipay], b_ub=[0] * nt,
                        A_eq=[[scale] * nd + [0]], b_eq=[scale],
                        free_vars=[nd], maximize=False)
    if upper_lp.status != "optimal":
        raise RuntimeError(f"mixture-side game LP unexpectedly {upper_lp.status}")

    # nature side: maximize w with payoff(pi, delta) >= w for every procedure
    lower_lp = solve_lp([0] * nt + [1], A_ub=[[-v for v in col] + [scale] for col in zip(*ipay)],
                        b_ub=[0] * nd, A_eq=[[scale] * nt + [0]], b_eq=[scale],
                        free_vars=[nt])
    if lower_lp.status != "optimal":
        raise RuntimeError(f"prior-side game LP unexpectedly {lower_lp.status}")

    lower, upper = lower_lp.objective, upper_lp.objective
    mix = _from_lp(Mixture, p.proc_labels, upper_lp.num, upper_lp.D)
    prior = _from_lp(Prior, p.theta_labels, lower_lp.num, lower_lp.D)

    # re-verify both optima directly on the payoff matrix
    mix_col = _weighted_rows(ipay, upper_lp.num[:nd])
    if Fraction(max(mix_col), upper_lp.D * scale) != upper:
        raise RuntimeError("mixture-side game optimum failed independent re-verification")
    prior_row = _weighted_rows(zip(*ipay), lower_lp.num[:nt])
    if Fraction(min(prior_row), lower_lp.D * scale) != lower:
        raise RuntimeError("prior-side game optimum failed independent re-verification")
    if not lower <= upper:
        raise RuntimeError("game lower value exceeds the upper value")

    payoff = tuple(tuple(Fraction(v, scale) for v in row) for row in ipay)
    return GameValueReport(delta0, theta0, gamma, lower, upper, lower == upper,
                           prior, mix, payoff,
                           upper_lp.iterations + lower_lp.iterations)
