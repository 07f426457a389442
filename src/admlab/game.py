"""Shifted risks and the derived two-person zero-sum game.

The payoff against a base procedure delta0, anchor parameter theta0, and
weight gamma > 0 is

    payoff(theta, delta) = [r(theta0, delta) - r(theta0, delta0)]
                         + gamma * [r(theta, delta) - r(theta, delta0)].

Nature mixes over parameters (a prior), the statistician mixes over base
procedures.  One exact LP solves the statistician's side, and its duals are
nature's (Dantzig 1951); both optimal values are recomputed from the one
int matrix, the payoff times ``den * q`` for gamma = a / q, and must agree.
The same LP at the gamma -> infinity end, over a set of parameters and with
delta0 barred, is the restriction LP of ``admissibility.witness_set``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from admlab.decision import (
    HYPER,
    DecisionProblem,
    Mixture,
    Prior,
    _from_lp,
    _lc_gaps,
    _packed_gaps,
    _Report,
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
class GameValueReport(_Report):
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


def _minimax_lp(p: DecisionProblem, j0: int, thetas, a: int, q: int, i0: int = 0):
    """min v over mixtures lam with payoff(theta, lam) <= v for each given
    theta, packed from delta0's gap rows ``G`` (``decision._packed_gaps``):
    the payoff rows are ``q * G[theta0] + a * G[theta]`` over scale = den *
    q (den * a at q = 0).  Nature's side is its LP dual, a prior on those
    thetas weighting them by ynum.  The derived game keeps every theta with
    gamma = a / q.  The witness restriction LP is its gamma -> infinity end,
    q = 0 and a = 1 on the chosen thetas: the rows are G over scale = den,
    and delta0, which pays 0 at every theta, is barred from the mass row, so
    lam is a competitor mixture.

    Columns: one weight per procedure, v, v's negative part, a slack per
    kept theta, the rhs.  The theta row is its payoff row, -scale and scale
    in v's two fields and its slack bit, rhs 0; the mass row, the only one
    with an artificial, holds scale in each allowed weight's field and in
    the rhs.  delta0's gap field is 0, so barred its column is all zero and
    never enters.  No field exceeds max((a + q) * (hi - lo), scale).
    """
    nd, m, scale = len(p.proc_labels), len(thetas), p.den * (q or a)
    hi, lo, _ = _risk_span(p)
    T = max((a + q) * (hi - lo), scale).bit_length()
    W, G = _packed_gaps(p, j0, T)
    tab = _Tableau(nd + m + 3, T, W)
    top = q * G[i0] + (scale << W * (nd + 1)) - (scale << W * nd)
    tab.rows = [top + a * G[i] + (1 << W * (nd + 2 + k)) for k, i in enumerate(thetas)]
    mass = _ones(nd, W) - (0 if q else 1 << W * j0)  # at q = 0, delta0 is barred
    tab.rows.append(scale * (mass + (1 << tab.rsh)))
    basis = list(range(nd + 2, nd + m + 2)) + [nd + 2 * m + 2]
    return _solve_tableau(tab, basis, [0] * nd + [-1, 1] + [0] * m, nd + 1, [nd], sign=-1)


def _minimax_sides(pay, lp, scale: int, cols):
    """Both sides of a ``_minimax_lp`` optimum, recomputed in ints on its int
    payoff rows pay (times scale): the mixture's worst row, and the dual
    prior's least payoff over the procedures in cols, None when the duals
    are no prior."""
    worst = Fraction(max(_weighted_rows(pay, lp.num[:len(pay[0])])), lp.D * scale)
    y, total = lp.ynum, sum(lp.ynum)
    if min(y) < 0 or not total:
        return worst, None
    pays = _weighted_rows(zip(*pay), y)
    return worst, Fraction(min(pays[j] for j in cols), total * scale)


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

    lp = _minimax_lp(p, j0, range(len(p.theta_labels)), a, q, i0)
    if lp.status != "optimal":
        raise RuntimeError(f"mixture-side game LP unexpectedly {lp.status}")
    upper = lp.objective
    mix = _from_lp(Mixture, p.proc_labels, lp.num, lp.D)
    prior = _from_lp(Prior, p.theta_labels, lp.ynum, sum(lp.ynum))

    # re-verify both optima directly on the payoff matrix: the mixture's worst
    # payoff is upper, and the prior's worst payoff (lower) must equal it
    worst, lower = _minimax_sides(ipay, lp, scale, range(nd))
    if worst != upper:
        raise RuntimeError("mixture-side game optimum failed independent re-verification")
    if lower != upper:
        raise RuntimeError("prior-side game optimum failed independent re-verification")

    payoff = tuple(tuple(Fraction(v, scale) for v in row) for row in ipay)
    return GameValueReport(delta0, theta0, gamma, lower, upper, lower == upper,
                           prior, mix, payoff, lp.iterations)
