"""Dominance, admissibility, positive-prior certificates, witness sets, and the
Stein-style condition checkers, all in exact rational (or Levi-Civita) arithmetic.

Every verdict that comes out of a linear program is re-verified by direct
recomputation, so the LP kernel is never the single point of trust.  Every LP
row is plain ints, one LP's rows all scaled by one positive factor (the
problem's common risk denominator ``den``, times eps's denominator for
Stein), and the re-checks, the ``ns_*`` excess included, are integer passes
over the problem's ``irisk`` (``decision``'s helpers).  Stein's int rows go
into the kernel's tableau already packed: each is an int combination of the
packed risk columns, which is the packed row since packing is linear.
Throughout, the infimum over the convex hull of procedures is replaced by
the minimum over its vertices, which is exact because risk is linear in the
mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from admlab.decision import (
    DecisionProblem,
    Mixture,
    Prior,
    _bayes_gaps,
    _fmt,
    _from_lp,
    _int_weights,
    _lc_gaps,
    _mixture_gaps,
)
from admlab.hyperreal import LCNumber, _as_fraction, approx_leq, compare
from admlab.simplex import _solve_tableau, _Tableau, solve_lp

__all__ = [
    "Certificate",
    "DeterminingFamilyReport",
    "HullDominanceReport",
    "NoPositivePrior",
    "NsBlythReport",
    "NsSteinReport",
    "SteinResult",
    "WitnessSet",
    "admissible_set",
    "dominated_in_hull",
    "dominates",
    "determining_family_check",
    "ns_blyth_check",
    "ns_stein_check",
    "positive_prior_certificate",
    "stein_check",
    "witness_set",
]


def _slacks(p: DecisionProblem, w, q: int, j0: int) -> dict:
    gaps, n = _bayes_gaps(p, w, q, j0)
    return {d: Fraction(g, n) for d, g in zip(p.proc_labels, gaps)}


# -- plain dominance ---------------------------------------------------------

def dominates(p: DecisionProblem, delta1, delta0) -> bool:
    """True iff delta1's risk is <= everywhere and < somewhere."""
    j1, j0 = p.proc_index(delta1), p.proc_index(delta0)
    strict = False
    for row in p.risk:
        if row[j1] > row[j0]:
            return False
        if row[j1] < row[j0]:
            strict = True
    return strict


def admissible_set(p: DecisionProblem) -> set:
    if p.allow_mixtures:
        return {d for j, d in enumerate(p.proc_labels) if _dominance_lp(p, j)[1] is None}
    return {d for d in p.proc_labels
            if not any(dominates(p, d1, d) for d1 in p.proc_labels if d1 != d)}


# -- dominance within the convex hull ----------------------------------------

@dataclass(frozen=True)
class HullDominanceReport:
    delta0: str
    dominated: bool
    mixture: Mixture | None          # an optimal dominating mixture if dominated
    improvement: Fraction            # LP optimum: total slack across parameters
    risk_equal: bool                 # a competitor mixture matches the risk vector exactly
    equal_mixture: Mixture | None
    iterations: int = field(metadata={"key": "lp_iterations"})

    def as_dict(self):
        return _fmt(self)


def _dominance_lp(p: DecisionProblem, j0: int):
    """LP: maximize the total slack of a mixture under delta0's risk vector.

    The variables are the competitors' weights mu_j (j != j0) alone, delta0
    weighing 1 - sum(mu).  The slack at theta, s_theta = sum_j mu_j
    (r(theta, j0) - r(theta, j)), is the theta row's own slack over den, so
    it needs no column: the LP maximizes sum(s) = sum_j c_j mu_j, with
    c_j = sum_theta (r(theta, j0) - r(theta, j)), subject to s >= 0 and
    sum(mu) <= 1, rows and c times den; its optimum over den is the
    ``improvement``.  Every rhs is >= 0, so the slack basis (delta0 itself)
    is feasible and no phase 1 runs.

    Returns the LP's result and, when its optimum is positive, the
    dominating mixture, re-verified without the LP; None otherwise.
    """
    nd, den, irisk = len(p.proc_labels), p.den, p.irisk
    cols = [j for j in range(nd) if j != j0]
    A_ub = [[r[j] - r[j0] for j in cols] for r in irisk]
    res = solve_lp([sum(r[j0] - r[j] for r in irisk) for j in cols],
                   A_ub=A_ub + [[den] * len(cols)], b_ub=[0] * len(irisk) + [den])
    if res.status != "optimal":
        raise RuntimeError(f"dominance LP unexpectedly {res.status}")
    if not res.objective > 0:
        return res, None
    w = res.num[:]
    w.insert(j0, res.D - sum(w))
    mix = _from_lp(Mixture, p.proc_labels, w, res.D)
    gaps, n = _mixture_gaps(p, w, res.D, j0)
    # its total slack, -sum(gaps) / n, is the objective over den at any feasible point
    if not (all(g <= 0 for g in gaps) and any(g < 0 for g in gaps)
            and Fraction(-sum(gaps) * den, n) == res.objective):
        raise RuntimeError("dominating mixture failed independent re-verification")
    return res, mix


def dominated_in_hull(p: DecisionProblem, delta0) -> HullDominanceReport:
    """The dominance LP, then an LP for a risk-equal competitor mixture.

    Positive dominance optimum means some mixture dominates delta0.  Zero optimum
    means none does; a risk-equal competitor mixture may still exist and
    is searched for separately (it never counts as domination).
    """
    if not p.allow_mixtures:
        raise ValueError("dominated_in_hull needs mixtures enabled")
    j0 = p.proc_index(delta0)
    res, mix = _dominance_lp(p, j0)
    iters = res.iterations

    competitors = [d for d in p.proc_labels if d != delta0]
    risk_equal, equal_mixture = False, None
    if competitors:
        cols = [j for j in range(len(p.proc_labels)) if j != j0]
        den, irisk = p.den, p.irisk
        eq = solve_lp([0] * len(cols),
                      A_eq=[[r[j] for j in cols] for r in irisk] + [[den] * len(cols)],
                      b_eq=[r[j0] for r in irisk] + [den])
        iters += eq.iterations
        if eq.status == "optimal":
            risk_equal = True
            equal_mixture = _from_lp(Mixture, competitors, eq.num, eq.D)
            w = eq.num[:]
            w.insert(j0, 0)
            if any(_mixture_gaps(p, w, eq.D, j0)[0]):
                raise RuntimeError("risk-equal mixture failed independent re-verification")
    return HullDominanceReport(delta0, mix is not None, mix, res.objective / p.den,
                               risk_equal, equal_mixture, iters)


# -- everywhere-positive Bayes certificates -----------------------------------

@dataclass(frozen=True)
class Certificate:
    delta0: str
    prior: Prior
    min_weight: Fraction             # > 0
    slacks: dict                     # delta -> bayes_risk(pi, delta) - bayes_risk(pi, delta0)
    iterations: int = field(metadata={"key": "lp_iterations"})
    verdict: str = field(default="certificate", init=False)

    def verify(self, p: DecisionProblem) -> bool:
        """Recompute everything from scratch, bypassing the LP."""
        if self.prior.kind == "HYPER":  # a certificate's prior is a real one
            return False
        weights = [self.prior.weight(t) for t in p.theta_labels]
        if sum(weights) != 1 or min(weights) != self.min_weight or self.min_weight <= 0:
            return False
        slacks = _slacks(p, *_int_weights(weights), p.proc_index(self.delta0))
        return slacks == self.slacks and min(slacks.values()) >= 0

    def as_dict(self):
        return _fmt(self)


@dataclass(frozen=True)
class NoPositivePrior:
    delta0: str
    verdict: str = field(default="no_positive_prior", init=False)
    any_prior: bool                  # does any prior make delta0 Bayes at all?
    forced_zero: tuple               # thetas that no certifying prior can weight
    witness: Mixture | None          # a dominating mixture, when one exists
    iterations: int = field(metadata={"key": "lp_iterations"})

    def as_dict(self):
        return _fmt(self)


def _bayes_rows(p: DecisionProblem, j0: int):
    """Rows of 'delta0 is Bayes', times den: pi . (risk[:,delta0] - risk[:,d]) <= 0 per competitor."""
    return [[r[j0] - r[j] for r in p.irisk] for j in range(len(p.proc_labels)) if j != j0]


def positive_prior_certificate(p: DecisionProblem, delta0):
    """Min-weight LP: find a prior, everywhere positive, under which delta0 is Bayes.

    Maximizes t, the least weight, over priors pi = t + s with t >= 0 and
    s >= 0 (one s_theta per parameter): the Bayes rows read
    bayes_j . s + sum(bayes_j) t <= 0, one per competitor, and the prior's
    mass sum(s) + |Theta| t == 1.  The max-min form (t free, t <= pi_theta,
    sum(pi) == 1) has an optimum t* >= 0 whenever it is feasible, since
    t = min(pi) >= 0 is feasible there, and (pi, t) -> (pi - t, t) is
    one-to-one between its points with t >= 0 and this LP's.  So the
    optimum, and infeasibility, are those of the max-min form, and at an
    optimum some s_theta is 0, so min(pi) == t*.

    Returns a Certificate when the optimum t* > 0, otherwise NoPositivePrior
    with the exact set of parameters that any certifying prior must zero out.
    """
    j0 = p.proc_index(delta0)
    nt, den = len(p.theta_labels), p.den
    bayes = _bayes_rows(p, j0)

    # variables: s (nt), then t; every row times den
    res = solve_lp([0] * nt + [1], A_ub=[row + [sum(row)] for row in bayes],
                   b_ub=[0] * len(bayes), A_eq=[[den] * nt + [den * nt]], b_eq=[den])
    iters = res.iterations

    if res.status == "optimal" and res.objective > 0:
        t = res.num[nt]
        pi = [v + t for v in res.num[:nt]]
        prior = _from_lp(Prior, p.theta_labels, pi, res.D)
        cert = Certificate(delta0, prior, res.objective, _slacks(p, pi, res.D, j0), iters)
        if not cert.verify(p):
            raise RuntimeError("certificate failed independent re-verification")
        return cert

    any_prior = res.status == "optimal"
    forced = ()
    if any_prior:
        forced, sub_iters = _forced_zero(p, j0, bayes)
        iters += sub_iters
    witness = None
    if p.allow_mixtures:
        dom, witness = _dominance_lp(p, j0)
        iters += dom.iterations
    return NoPositivePrior(delta0, any_prior, forced, witness, iters)


def _forced_zero(p: DecisionProblem, j0: int, bayes):
    """The thetas that no prior under which delta0 is Bayes can weight, and the LP's pivots.

    One LP over the unnormalised Bayes cone: max sum(z) with z_i <= pi_i and
    z_i <= 1.  The cone is closed under sums and positive scaling, so at the
    optimum z_i is 1 where some Bayes prior weights theta_i and 0 where none
    does.  The positive side is re-checked in ints: delta0 is Bayes under pi,
    which is positive exactly where z_i is 1.
    """
    nt = len(p.theta_labels)
    # variables: pi (nt), then z (nt); the Bayes rows times den, the rest as they are
    A_ub = [row + [0] * nt for row in bayes]
    for i in range(nt):
        row = [0] * (2 * nt)
        row[i], row[nt + i] = -1, 1   # z_i - pi_i <= 0
        A_ub.append(row)
    for i in range(nt):
        row = [0] * (2 * nt)
        row[nt + i] = 1               # z_i <= 1
        A_ub.append(row)
    res = solve_lp([0] * nt + [1] * nt, A_ub=A_ub, b_ub=[0] * (len(A_ub) - nt) + [1] * nt)
    if res.status != "optimal":
        raise RuntimeError(f"forced-zero LP unexpectedly {res.status}")
    pi, z, D = res.num[:nt], res.num[nt:], res.D
    gaps, _ = _bayes_gaps(p, pi, D, j0)
    if not (all(v in (0, D) for v in z) and min(gaps) >= 0 and min(pi) >= 0
            and all((w > 0) == (v > 0) for w, v in zip(pi, z))):
        raise RuntimeError("forced-zero LP failed independent re-verification")
    return tuple(t for t, v in zip(p.theta_labels, z) if not v), res.iterations


# -- finite witness sets -------------------------------------------------------

@dataclass(frozen=True)
class WitnessSet:
    delta0: str
    thetas: tuple
    margin: Fraction | None          # None only when there are no competitors
    iterations: int                  # cutting-plane rounds (thetas added)
    validated: bool
    validation_value: Fraction | None

    def as_dict(self):
        return _fmt(self)


def witness_set(p: DecisionProblem, delta0) -> WitnessSet:
    """Cutting-plane search for a finite set of parameters witnessing admissibility.

    Every competitor mixture must lose to delta0 somewhere on the returned
    set (not always a minimal one) by at least the returned margin, which the
    last restriction LP's duals, a prior on the set, confirm (``validated``).
    A positive margin already proves
    delta0 neither dominated in the hull nor risk-equal to a competitor
    mixture, so no hull LP runs on that path.  When separation fails, the
    current mixture lam matches or beats delta0 at every parameter, and a
    ValueError names the failure: "dominated" when lam beats delta0
    somewhere (no further LP), and when lam is risk-equal to delta0, the
    dominance LP alone tells "dominated" from "risk-equal".
    """
    if not p.allow_mixtures:
        raise ValueError("witness_set needs mixtures enabled")
    j0 = p.proc_index(delta0)
    competitors = [d for d in p.proc_labels if d != delta0]
    if not competitors:
        # vacuously witnessed: there is nothing to beat
        return WitnessSet(delta0, (), None, 0, True, None)
    cols = [p.proc_index(d) for d in competitors]

    chosen: list[int] = []
    # lam, the current competitor mixture: weight w[j] / q on the j-th procedure
    w, q = [int(j != j0) for j in range(len(p.proc_labels))], len(competitors)
    while True:
        # separation: a parameter where delta0 strictly beats the current mixture
        gaps, _ = _mixture_gaps(p, w, q, j0)
        best_i, best_gap = None, 0
        for i, gap in enumerate(gaps):
            if i not in chosen and gap > best_gap:
                best_i, best_gap = i, gap
        if best_i is None:
            # lam's gaps on the chosen parameters are at most the LP's v <= 0
            if max(gaps) > 0:
                raise RuntimeError("witness restriction mixture failed independent "
                                   "re-verification")
            if any(gaps) or _dominance_lp(p, j0)[1] is not None:
                raise ValueError(f"{delta0} is dominated in the hull; no witness set exists")
            raise ValueError(f"{delta0} has an equivalence in risk with a competitor mixture")
        chosen.append(best_i)
        # min over lam of max over chosen thetas of r(theta, lam) - r(theta, delta0),
        # as r(theta, lam) - v <= r(theta, delta0) with v free, rows times den
        rows = [p.irisk[i] for i in chosen]
        res = solve_lp([0] * len(cols) + [1],
                       A_ub=[[r[j] for j in cols] + [-p.den] for r in rows],
                       b_ub=[r[j0] for r in rows], A_eq=[[p.den] * len(cols) + [0]],
                       b_eq=[p.den], free_vars=[len(cols)], maximize=False)
        if res.status != "optimal":
            raise RuntimeError(f"witness restriction LP unexpectedly {res.status}")
        _from_lp(Mixture, competitors, res.num, res.D)  # lam must be a mixture
        w, q = res.num[:len(cols)], res.D
        w.insert(j0, 0)
        if res.objective > 0:
            break
    margin = res.objective
    # the margin is the LP mixture's worst gap on the chosen parameters
    gaps, n = _mixture_gaps(p, w, q, j0)
    if Fraction(max(gaps[i] for i in chosen), n) != margin:
        raise RuntimeError("witness margin failed independent re-verification")

    # independent validation: the LP's duals, in row order, are a prior on the
    # chosen parameters under which every competitor loses by the margin
    y, pi, value = res.ynum, [0] * len(p.theta_labels), None
    for i, v in zip(chosen, y):
        pi[i] = v
    if min(y) >= 0 and sum(y) > 0:
        gaps, n = _bayes_gaps(p, pi, sum(y), j0)
        value = -Fraction(min(gaps[j] for j in cols), n)
    validated = value is not None and value <= -margin < 0

    chosen.sort()
    thetas = tuple(p.theta_labels[i] for i in chosen)
    return WitnessSet(delta0, thetas, margin, len(chosen), validated, value)


# -- Stein's condition ---------------------------------------------------------

@dataclass(frozen=True)
class SteinResult:
    delta0: str
    theta0: str
    eps: Fraction
    feasible: bool
    prior: Prior | None
    theta0_weight: Fraction | None
    excess: Fraction | None          # recomputed: max over vertices of Bayes-risk gap
    bound: Fraction | None           # eps * pi(theta0)
    iterations: int = field(metadata={"key": "lp_iterations"})

    def as_dict(self):
        return _fmt(self)


def stein_check(p: DecisionProblem, delta0, theta0, eps) -> SteinResult:
    """Find a prior whose excess Bayes risk at delta0 is within eps * pi(theta0).

    Maximizes v = pi(theta0) over pi >= 0 subject to the excess rows
    r(pi, delta0) - r(pi, delta_j) <= eps * pi(theta0), one per competitor,
    and sum(pi) <= 1.  The excess rows are homogeneous, so pi = 0 is
    feasible (the slack basis: no phase 1), and an optimal pi with v > 0 has
    sum(pi) == 1, since pi / sum(pi) would be feasible with a larger v.  So
    the optimum and the optimal set are those of the normalised LP with
    sum(pi) == 1, and v == 0 here is exactly "infeasible or optimum 0" there.
    Feasible requires v > 0.  Stein's condition needs this for every
    eps > 0; passing on a finite eps grid is only necessary.
    """
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    i0 = p.theta_index(theta0)
    j0 = p.proc_index(delta0)

    # variables: pi (nt), then one slack per row; every row times den * q for
    # eps = a / q, packed from the risk columns: packing is linear.  No field
    # of a competitor's row exceeds q * (hi - lo) + den * a, nor of the mass row den * q
    nt, nd, den = len(p.theta_labels), len(p.proc_labels), p.den
    a, q = eps.numerator, eps.denominator
    hi, lo = max(map(max, p.irisk)), min(map(min, p.irisk))
    tab = _Tableau(nt + nd + 1, max(q * (hi - lo) + den * a, den * q).bit_length())
    W = tab.W
    cols = [q * tab.pack(col) for col in zip(*p.irisk)]
    top = cols[j0] - (den * a << W * i0)
    tab.rows = [top - cols[j] + (1 << W * (nt + k))
                for k, j in enumerate(j for j in range(nd) if j != j0)]
    ones = ((1 << W * nt) - 1) // ((1 << W) - 1)
    tab.rows.append(den * q * (ones + (1 << tab.rsh)) + (1 << W * (nt + nd - 1)))
    cost = [0] * (nt + nd)
    cost[i0] = 1
    res = _solve_tableau(tab, list(range(nt, nt + nd)), cost, nt)
    if res.status != "optimal":
        raise RuntimeError(f"stein LP unexpectedly {res.status}")
    if res.objective == 0:
        return SteinResult(delta0, theta0, eps, False, None, None, None, None, res.iterations)
    prior = _from_lp(Prior, p.theta_labels, res.num, res.D)
    weight = prior.weights[theta0]
    if res.objective != weight:
        raise RuntimeError("stein LP objective differs from its prior's weight at theta0")
    gaps, n = _bayes_gaps(p, res.num, res.D, j0)
    excess = -min(gaps)  # over n = D * den
    if excess * q > a * res.num[i0] * den:  # the LP's constraints, recomputed exactly
        raise RuntimeError("stein prior failed independent re-verification")
    return SteinResult(delta0, theta0, eps, True, prior, weight,
                       Fraction(excess, n), eps * weight, res.iterations)


# -- determining families and the infinitesimal-weight checkers -----------------

@dataclass(frozen=True)
class DeterminingFamilyReport:
    ok: bool
    pairs: tuple                     # (delta0, delta1, best_gap, best_set_index) per improving pair
    failures: tuple                  # improving pairs with no uniformly separating member

    def as_dict(self):  # its own: each pair tuple becomes a dict of named parts
        return _fmt({
            "ok": self.ok,
            "pairs": [{"delta0": a, "delta1": b, "gap": g, "set_index": k}
                      for (a, b, g, k) in self.pairs],
            "failures": [{"delta0": a, "delta1": b} for (a, b) in self.failures],
        })


def _validate_family(p: DecisionProblem, family):
    """The members as tuples: each nonempty, of known labels, none repeated
    (a repeated label would count its prior mass twice)."""
    sets = []
    for k, B in enumerate(family):
        B = tuple(B)
        if not B:
            raise ValueError(f"family member {k} must be a nonempty set of parameter labels")
        for i, t in enumerate(B):
            p.theta_index(t)
            if t in B[:i]:
                raise ValueError(f"family member {k} repeats parameter label {t!r}")
        sets.append(B)
    return sets


def determining_family_check(p: DecisionProblem, family) -> DeterminingFamilyReport:
    """Does every somewhere-improvement show up as a uniform strict gap on some member?"""
    sets = _validate_family(p, family)
    pairs, failures = [], []
    for d0 in p.proc_labels:
        j0 = p.proc_index(d0)
        for d1 in p.proc_labels:
            if d1 == d0:
                continue
            j1 = p.proc_index(d1)
            if not any(row[j1] < row[j0] for row in p.risk):
                continue
            best_gap, best_k = None, None
            for k, B in enumerate(sets):
                gap = min(p.risk[p.theta_index(t)][j0] - p.risk[p.theta_index(t)][j1]
                          for t in B)
                if best_gap is None or gap > best_gap:
                    best_gap, best_k = gap, k
            if best_gap is not None and best_gap > 0:
                pairs.append((d0, d1, best_gap, best_k))
            else:
                failures.append((d0, d1))
    return DeterminingFamilyReport(not failures, tuple(pairs), tuple(failures))


def _lc_excess(p: DecisionProblem, prior: Prior, delta0) -> LCNumber:
    """max over the hull (= vertices, incl. delta0) of Bayes-risk advantage over delta0."""
    return -min(_lc_gaps(p, prior, p.proc_index(delta0)))


@dataclass(frozen=True)
class NsSteinReport:
    ok: bool
    excess: LCNumber
    bound: LCNumber

    def as_dict(self):
        return _fmt(self)


def ns_stein_check(p: DecisionProblem, delta0, prior: Prior, B, eps) -> NsSteinReport:
    """Levi-Civita variant: excess <= prior(B) * eps in the LC order."""
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    (B,) = _validate_family(p, (B,))
    excess = _lc_excess(p, prior, delta0)
    bound = sum((prior.weight(t) for t in B), LCNumber.zero()) * eps
    return NsSteinReport(compare(excess, bound) <= 0, excess, bound)


@dataclass(frozen=True)
class NsBlythReport:
    ok: bool
    mass_ok: bool                    # (a): rho <= C * prior(B) for every B, some real C
    ratio_ok: bool                   # (b): excess / rho vanishes up to an infinitesimal
    constants: dict                  # B tuple -> chosen integer C (when (a) holds for it)
    excess: LCNumber
    ratio: LCNumber

    def as_dict(self):  # its own: JSON keys constants by text, not by a label tuple
        return _fmt({
            "ok": self.ok,
            "mass_ok": self.mass_ok,
            "ratio_ok": self.ratio_ok,
            "constants": {" ".join(B): C for B, C in self.constants.items()},
            "excess": self.excess,
            "ratio": self.ratio,
        })


def ns_blyth_check(p: DecisionProblem, delta0, prior: Prior, rho, family) -> NsBlythReport:
    """Blyth-style check: prior mass of every family member dominates rho (up to a
    real constant) while the excess-to-rho ratio is at most infinitesimal."""
    if not isinstance(rho, LCNumber):
        rho = LCNumber.from_real(rho)
    if rho.sign() <= 0:
        raise ValueError("rho must be strictly positive")
    sets = _validate_family(p, family)

    mass_ok = True
    constants = {}
    for B in sets:
        mass = sum((prior.weight(t) for t in B), LCNumber.zero())
        if mass.is_zero() or rho.leading_exponent() < mass.leading_exponent():
            mass_ok = False
            continue
        if rho.leading_exponent() > mass.leading_exponent():
            C = 1
        else:
            ratio = rho.leading_coefficient() / mass.leading_coefficient()
            C = ratio.numerator // ratio.denominator + 1
        if compare(rho, mass * C) <= 0:
            constants[tuple(B)] = C
        else:
            mass_ok = False

    excess = _lc_excess(p, prior, delta0)
    ratio = excess / rho
    ratio_ok = approx_leq(ratio, LCNumber.zero())
    return NsBlythReport(mass_ok and ratio_ok, mass_ok, ratio_ok, constants, excess, ratio)
