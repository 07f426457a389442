"""Shifted risks and the derived two-person zero-sum game.

The payoff against a base procedure delta0, anchor parameter theta0, and
weight gamma > 0 is

    payoff(theta, delta) = [r(theta0, delta) - r(theta0, delta0)]
                         + gamma * [r(theta, delta) - r(theta, delta0)].

Nature mixes over parameters (a prior), the statistician mixes over base
procedures; both optimal values are computed by exact LPs and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from admlab.decision import (
    DecisionProblem,
    Mixture,
    Prior,
    bayes_risk,
    format_rational,
    risk_at,
)
from admlab.simplex import solve_lp

__all__ = ["GameValueReport", "derived_game_value", "shifted_risk"]


def shifted_risk(p: DecisionProblem, delta_base, pi_or_theta, delta_prime) -> Fraction:
    """Bayes-risk difference r(pi, delta') - r(pi, delta_base); Dirac case for a theta label."""
    if isinstance(pi_or_theta, Prior):
        pi = pi_or_theta
    else:
        pi = Prior.dirac(pi_or_theta)
    return bayes_risk(p, pi, delta_prime) - bayes_risk(p, pi, delta_base)


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
        return {
            "delta0": self.delta0,
            "theta0": self.theta0,
            "gamma": format_rational(self.gamma),
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "determined": self.determined,
            # the sup over pure parameters and over priors coincide at the
            # optimum for a finite matrix; both names point at the same value
            "sup_over_thetas": format_rational(self.upper),
            "sup_over_priors": format_rational(self.lower),
            "optimal_prior": {t: format_rational(w)
                              for t, w in self.optimal_prior.weights.items()},
            "optimal_mixture": {d: format_rational(w)
                                for d, w in self.optimal_mixture.weights.items()},
            "payoff": [[format_rational(v) for v in row] for row in self.payoff],
            "lp_iterations": self.iterations,
        }


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

    payoff = tuple(
        tuple((p.risk[i0][j] - p.risk[i0][j0]) + gamma * (p.risk[i][j] - p.risk[i][j0])
              for j in range(nd))
        for i in range(nt))

    # statistician side: minimize v with payoff(theta, mix) <= v for every theta
    c = [Fraction(0)] * nd + [Fraction(1)]
    A_ub = [[payoff[i][j] for j in range(nd)] + [Fraction(-1)] for i in range(nt)]
    b_ub = [Fraction(0)] * nt
    upper_lp = solve_lp(c, A_ub=A_ub, b_ub=b_ub,
                        A_eq=[[Fraction(1)] * nd + [Fraction(0)]], b_eq=[Fraction(1)],
                        free_vars=[nd], maximize=False)
    if upper_lp.status != "optimal":
        raise RuntimeError(f"mixture-side game LP unexpectedly {upper_lp.status}")

    # nature side: maximize w with payoff(pi, delta) >= w for every procedure
    c = [Fraction(0)] * nt + [Fraction(1)]
    A_ub = [[-payoff[i][j] for i in range(nt)] + [Fraction(1)] for j in range(nd)]
    b_ub = [Fraction(0)] * nd
    lower_lp = solve_lp(c, A_ub=A_ub, b_ub=b_ub,
                        A_eq=[[Fraction(1)] * nt + [Fraction(0)]], b_eq=[Fraction(1)],
                        free_vars=[nt])
    if lower_lp.status != "optimal":
        raise RuntimeError(f"prior-side game LP unexpectedly {lower_lp.status}")

    lower, upper = lower_lp.objective, upper_lp.objective
    mix = Mixture({d: v for d, v in zip(p.proc_labels, upper_lp.x[:nd]) if v > 0})
    prior = Prior({t: lower_lp.x[i] for i, t in enumerate(p.theta_labels)})

    # re-verify both optima directly on the payoff matrix
    mix_col = [sum(payoff[i][p.proc_index(d)] * w for d, w in mix.weights.items())
               for i in range(nt)]
    if max(mix_col) != upper:
        raise RuntimeError("mixture-side game optimum failed independent re-verification")
    prior_row = [sum(prior.weight(t) * payoff[i][j] for i, t in enumerate(p.theta_labels))
                 for j in range(nd)]
    if min(prior_row) != lower:
        raise RuntimeError("prior-side game optimum failed independent re-verification")
    if not lower <= upper:
        raise RuntimeError("game lower value exceeds the upper value")

    return GameValueReport(delta0, theta0, gamma, lower, upper, lower == upper,
                           prior, mix, payoff,
                           upper_lp.iterations + lower_lp.iterations)
