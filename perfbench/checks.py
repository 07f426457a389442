"""Output checks for the benchmark's operations.

Every check here works from the inputs the benchmark generated, never from
saved output.  Exact verdicts are recomputed with the benchmark's own
``Fraction`` sums or re-solved with ``scipy.optimize.linprog``; Monte Carlo
reports are compared with properties the method must have or with the
benchmark's own plain-numpy estimates.

Each check returns a list of messages, empty when the output passes.
numpy and scipy are imported where used, so that a workload which never
touches them does not load them before its timed window.
"""

from __future__ import annotations

import math
from fractions import Fraction

LP_TOL = 1e-9


# -- exact side -----------------------------------------------------------------

def _linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    from scipy import optimize
    res = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=bounds, method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"reference linprog failed: {res.message}")
    return res.fun


def ref_dominance(risk, j0) -> float:
    """Largest total slack of a mixture under column j0's risk vector."""
    nt, nd = len(risk), len(risk[0])
    c = [0.0] * nd + [-1.0] * nt
    A_ub = [[float(risk[i][j]) for j in range(nd)] + [1.0 if k == i else 0.0 for k in range(nt)]
            for i in range(nt)]
    b_ub = [float(risk[i][j0]) for i in range(nt)]
    A_eq = [[1.0] * nd + [0.0] * nt]
    return -_linprog(c, A_ub, b_ub, A_eq, [1.0])


def ref_witness_margin(risk, j0, rows) -> float:
    """min over competitor mixtures of max over `rows` of r(theta, mix) - r(theta, j0)."""
    cols = [j for j in range(len(risk[0])) if j != j0]
    n = len(cols)
    c = [0.0] * n + [1.0]
    A_ub = [[float(risk[i][j]) for j in cols] + [-1.0] for i in rows]
    b_ub = [float(risk[i][j0]) for i in rows]
    bounds = [(0, None)] * n + [(None, None)]
    return _linprog(c, A_ub, b_ub, [[1.0] * n + [0.0]], [1.0], bounds)


def game_payoff(risk, j0, i0, gamma):
    nt, nd = len(risk), len(risk[0])
    return [[(risk[i0][j] - risk[i0][j0]) + gamma * (risk[i][j] - risk[i][j0])
             for j in range(nd)] for i in range(nt)]


def ref_game_value(payoff) -> float:
    """Statistician side: min v with payoff(theta, mix) <= v for every theta."""
    nt, nd = len(payoff), len(payoff[0])
    c = [0.0] * nd + [1.0]
    A_ub = [[float(payoff[i][j]) for j in range(nd)] + [-1.0] for i in range(nt)]
    bounds = [(0, None)] * nd + [(None, None)]
    return _linprog(c, A_ub, [0.0] * nt, [[1.0] * nd + [0.0]], [1.0], bounds)


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= LP_TOL * max(1.0, abs(float(b)))


def bayes(risk, weights, j):
    """Prior-weighted risk of column j; weights is a list by row."""
    return sum((w * risk[i][j] for i, w in enumerate(weights)), Fraction(0))


def mixture_risk(risk, i, mixture):
    """Risk at row i of a mixture given as {column: weight}."""
    return sum((w * risk[i][j] for j, w in mixture.items()), Fraction(0))


def check_dominance(risk, j0, dominated, improvement, mixture, ref) -> list:
    """Hull-dominance output against the linprog optimum `ref`.

    `mixture` maps column index to weight (None when not dominated).
    """
    out = []
    if not _close(improvement, ref):
        out.append(f"dominance value {improvement} differs from linprog {ref!r}")
    if dominated != (improvement > 0):
        out.append(f"dominated={dominated} disagrees with improvement {improvement}")
    if dominated:
        out += check_dominating_mixture(risk, j0, mixture)
    return out


def check_dominating_mixture(risk, j0, mixture) -> list:
    if not mixture or sum(mixture.values()) != 1 or min(mixture.values()) < 0:
        return [f"dominating mixture {mixture} is not a probability vector"]
    risks = [mixture_risk(risk, i, mixture) for i in range(len(risk))]
    if any(r > risk[i][j0] for i, r in enumerate(risks)):
        return ["dominating mixture is worse than delta0 somewhere"]
    if not any(r < risk[i][j0] for i, r in enumerate(risks)):
        return ["dominating mixture is nowhere better than delta0"]
    return []


def check_certificate(risk, j0, weights) -> list:
    """weights: list by row.  Positive, sums to 1, and makes column j0 Bayes."""
    if len(weights) != len(risk):
        return ["certificate prior does not weight every parameter"]
    if min(weights) <= 0:
        return ["certificate prior is not everywhere positive"]
    if sum(weights) != 1:
        return [f"certificate prior sums to {sum(weights)}"]
    base = bayes(risk, weights, j0)
    if any(bayes(risk, weights, j) < base for j in range(len(risk[0]))):
        return ["certificate prior does not make delta0 Bayes"]
    return []


def check_stein(risk, j0, i0, eps, weights, theta0_weight, excess, bound) -> list:
    """A feasible Stein result: a prior whose excess at j0 is within eps * pi(theta0)."""
    if min(weights) < 0 or sum(weights) != 1:
        return ["stein prior is not a probability vector"]
    if weights[i0] != theta0_weight or theta0_weight <= 0:
        return ["stein prior weight at theta0 is wrong or not positive"]
    base = bayes(risk, weights, j0)
    own = max(base - bayes(risk, weights, j) for j in range(len(risk[0])))
    if own != excess or bound != eps * theta0_weight or own > bound:
        return [f"stein excess {excess} / bound {bound} fail recomputation ({own})"]
    return []


def check_witness(margin, validated, ref) -> list:
    out = []
    if not validated:
        out.append("witness set not validated")
    if margin is None or margin <= 0:
        out.append(f"witness margin {margin} is not positive")
    elif not _close(margin, ref):
        out.append(f"witness margin {margin} differs from linprog {ref!r}")
    return out


def check_game(payoff, lower, upper, prior, mixture, ref) -> list:
    """prior: list by row; mixture: {column: weight}."""
    out = []
    if lower != upper:
        out.append(f"game not determined: {lower} < {upper}")
    for name, v in (("lower", lower), ("upper", upper)):
        if not _close(v, ref):
            out.append(f"game {name} value {v} differs from linprog {ref!r}")
    nd = len(payoff[0])
    if max(sum((w * payoff[i][j] for j, w in mixture.items()), Fraction(0))
           for i in range(len(payoff))) != upper:
        out.append("optimal mixture does not attain the upper value")
    if min(sum((w * payoff[i][j] for i, w in enumerate(prior)), Fraction(0))
           for j in range(nd)) != lower:
        out.append("optimal prior does not attain the lower value")
    return out


def lc_first_order_leq(a, b) -> bool:
    """(a0 + a1 eps) <= (b0 + b1 eps) in the order with eps a positive infinitesimal."""
    return (a[0], a[1]) <= (b[0], b[1])


def ns_stein_expected(risk, j0, prior, family_rows, eps) -> tuple:
    """Own first-order recomputation of the infinitesimal Stein check.

    prior maps row index to (standard part, eps coefficient).  Returns
    (ok, excess) with excess as such a pair.
    """
    def bayes_pair(j):
        return (sum(prior[i][0] * risk[i][j] for i in prior),
                sum(prior[i][1] * risk[i][j] for i in prior))
    base = bayes_pair(j0)
    excess = (Fraction(0), Fraction(0))
    for j in range(len(risk[0])):
        b = bayes_pair(j)
        gap = (base[0] - b[0], base[1] - b[1])
        if not lc_first_order_leq(gap, excess):
            excess = gap
    mass = (sum(prior[i][0] for i in family_rows), sum(prior[i][1] for i in family_rows))
    bound = (mass[0] * eps, mass[1] * eps)
    return lc_first_order_leq(excess, bound), excess


# -- Monte Carlo side -------------------------------------------------------------

def _joint(*ses) -> float:
    return math.sqrt(sum(s * s for s in ses))


def check_risk_c1(direct, analytic, bias) -> list:
    """direct, analytic, bias: (mean, std_error) pairs."""
    out = []
    if abs(direct[0] - analytic[0]) > 3.0 * _joint(direct[1], analytic[1]):
        out.append(f"risk_c1 direct {direct} and analytic {analytic} disagree past 3 joint SE")
    if abs(bias[0]) > 3.0 * bias[1]:
        out.append(f"risk_c1 bias {bias} is past 3 SE from zero")
    return out


def check_against_own(name, est, own, k=4.0) -> list:
    if abs(est[0] - own[0]) > k * _joint(est[1], own[1]):
        return [f"{name} {est} is past {k:g} joint SE from the own estimate {own}"]
    return []


def check_excess(excess, upper, beta_route, beta, own) -> list:
    out = []
    if not 0.0 <= excess[0] <= 2.0 * beta + 3.0 * excess[1]:
        out.append(f"excess {excess} outside [0, 2 beta + 3 SE]")
    if excess[0] > upper[0]:
        out.append(f"excess {excess} above the upper-bound route {upper}")
    if abs(upper[0] - beta_route[0]) > _joint(upper[1], beta_route[1]):
        out.append(f"bound routes {upper} and {beta_route} disagree past their SE")
    return out + check_against_own("excess", excess, own)


def invgamma_rect_mass(alpha, beta, rect) -> float:
    """Closed-form prior mass of [a1,b1] x [a2,b2] under two independent
    inverse-gamma(alpha, beta) variances."""
    from scipy import special
    a1, b1, a2, b2 = rect

    def side(a, b):
        return special.gammaincc(alpha, beta / b) - special.gammaincc(alpha, beta / a)
    return float(side(a1, b1) * side(a2, b2))


def check_mass(quad_mass, mc_mass, exact) -> list:
    out = []
    if abs(quad_mass - exact) > 1e-6 * exact:
        out.append(f"quadrature mass {quad_mass!r} differs from closed form {exact!r}")
    if mc_mass is not None and abs(mc_mass[0] - exact) > 4.0 * mc_mass[1]:
        out.append(f"Monte Carlo mass {mc_mass} is past 4 SE from {exact!r}")
    return out


def check_blyth(rows, own_first) -> list:
    """rows: (beta, excess_mean, excess_se, ratio) in decreasing beta."""
    out = []
    scaled = [mean / beta for beta, mean, _, _ in rows]
    if max(scaled) - min(scaled) > 1e-9 * abs(scaled[0]):
        out.append(f"excess/beta is not constant across rows: {scaled}")
    for (b0, _, _, r0), (b1, _, _, r1) in zip(rows, rows[1:]):
        factor = (r0 / r1) ** (1.0 / math.log10(b0 / b1))
        if not 2.0 <= factor <= 5.0:
            out.append(f"per-decade ratio factor {factor!r} outside [2, 5]")
    beta, mean, se, _ = rows[0]
    return out + check_against_own(f"blyth excess at beta={beta!r}", (mean, se), own_first)


# -- the benchmark's own Monte Carlo estimates -------------------------------------

def own_risk_diff(mu, s1, s2, n, alpha, beta, samples, seed):
    """r(gd) - r(bayes) from plain numpy draws: mean and standard error."""
    import numpy as np
    rng = np.random.default_rng([seed, 1])
    dof = n - 1
    v1 = s1 * rng.chisquare(dof, samples) / dof
    v2 = s2 * rng.chisquare(dof, samples) / dof
    tp = s1 / (s1 + s2)
    shift = 2.0 * beta / dof
    gd = v1 / (v1 + v2)
    bayes_w = (v1 + shift) / (v1 + v2 + 2.0 * shift)
    d = (s1 + s2) / n * ((gd - tp) ** 2 - (bayes_w - tp) ** 2)
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(samples))


def own_excess(alpha, beta, n, samples, seed):
    """Bayes excess of the variance weight, from the raw sums of squares."""
    import numpy as np
    rng = np.random.default_rng([seed, 2])
    sigma_sq = beta / np.maximum(rng.gamma(alpha, 1.0, (2, samples)), 1e-300)
    t = sigma_sq * rng.chisquare(n - 1, (2, samples))
    tot, diff = t[0] + t[1], t[0] - t[1]
    v = 4.0 * beta * beta * diff * diff / (n * (2.0 * alpha + n - 3.0) * tot * tot * (tot + 4.0 * beta))
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(samples))
