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
    _packed_risk,
    _risk_span,
    _weighted_rows,
)
from admlab.hyperreal import _as_fraction
from admlab.simplex import _ones, _solve_tableau, _Tableau

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


def _game_lp(p: DecisionProblem, i0: int, j0: int, a: int, q: int):
    """The statistician's side, packed from the risk rows: minimize v with
    payoff(theta, mix) <= v for every theta and sum(mix) == 1, rows times
    scale = den * q for gamma = a / q; nature's side is its LP dual, a prior
    weighting theta by ynum.

    Columns: one weight per procedure, v, v's negative part, a slack per
    parameter, the rhs.  The theta row is ``q * (R_theta0 - r(theta0, j0) *
    ones) + a * (R_theta - r(theta, j0) * ones)``, -scale and scale in v's two
    fields and its slack bit, rhs 0; the mass row, the only one with an
    artificial, holds scale in each weight's field and in the rhs.  No field
    exceeds max((a + q) * (hi - lo), scale).
    """
    nt, nd, scale = len(p.theta_labels), len(p.proc_labels), p.den * q
    hi, lo, _ = _risk_span(p)
    T = max((a + q) * (hi - lo), scale).bit_length()
    W, _, rows = _packed_risk(p, T)
    tab = _Tableau(nd + nt + 3, T, W)
    ones, irisk = _ones(nd, W), p.irisk
    top = q * (rows[i0] - irisk[i0][j0] * ones) + (scale << W * (nd + 1)) - (scale << W * nd)
    tab.rows = [top + a * (x - r[j0] * ones) + (1 << W * (nd + 2 + i))
                for i, (x, r) in enumerate(zip(rows, irisk))]
    tab.rows.append(scale * (ones + (1 << tab.rsh)))
    basis = list(range(nd + 2, nd + nt + 2)) + [nd + 2 * nt + 2]
    return _solve_tableau(tab, basis, [0] * nd + [-1, 1] + [0] * nt, nd + 1, [nd], sign=-1)


def derived_game_value(p: DecisionProblem, delta0, theta0, gamma) -> GameValueReport:
    """Solve the derived game exactly: one LP, its optimal prior from the duals."""
    gamma = _as_fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be a positive rational")
    if not p.allow_mixtures:
        raise ValueError("the derived game needs mixtures enabled")
    i0 = p.theta_index(theta0)
    j0 = p.proc_index(delta0)
    nd = len(p.proc_labels)

    # payoff times scale = den * q for gamma = a / q
    a, q = gamma.numerator, gamma.denominator
    scale = p.den * q
    top = p.irisk[i0]
    ipay = [[q * (top[j] - top[j0]) + a * (row[j] - row[j0]) for j in range(nd)]
            for row in p.irisk]

    lp = _game_lp(p, i0, j0, a, q)
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
