"""Dominance, admissibility, positive-prior certificates, witness sets, and the
Stein-style condition checkers, all in exact rational (or Levi-Civita) arithmetic.

Every verdict that comes out of a linear program is re-verified by direct
recomputation, so the LP kernel is never the single point of trust.  Every LP
row is plain ints, one LP's rows all scaled by one positive factor (the
problem's common risk denominator ``den``, times eps's denominator for
Stein), and the re-checks, the ``ns_*`` excess included, are integer passes
over the problem's ``irisk`` (``decision``'s helpers).  Throughout, the
infimum over the convex hull of procedures is replaced by the minimum over
its vertices, which is exact because risk is linear in the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from admlab.hyperreal import LCNumber, approx_leq, compare
from admlab.simplex import solve_lp

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
    iterations: int

    def as_dict(self):
        return _fmt({
            "delta0": self.delta0,
            "dominated": self.dominated,
            "mixture": self.mixture,
            "improvement": self.improvement,
            "risk_equal": self.risk_equal,
            "equal_mixture": self.equal_mixture,
            "lp_iterations": self.iterations,
        })


def _dominance_lp(p: DecisionProblem, j0: int):
    """LP: maximize total slack of a mixture under delta0's risk vector.

    Returns the LP's result and, when its optimum is positive, the
    dominating mixture, re-verified without the LP; None otherwise.
    """
    nd, nt = len(p.proc_labels), len(p.theta_labels)
    den, irisk = p.den, p.irisk

    # variables: lambda_d (nd), s_theta (nt); every row times den
    A_ub = []
    for i, r in enumerate(irisk):
        row = list(r) + [0] * nt
        row[nd + i] = den
        A_ub.append(row)
    res = solve_lp([0] * nd + [1] * nt, A_ub=A_ub, b_ub=[r[j0] for r in irisk],
                   A_eq=[[den] * nd + [0] * nt], b_eq=[den])
    if res.status != "optimal":
        raise RuntimeError(f"dominance LP unexpectedly {res.status}")
    if not res.objective > 0:
        return res, None
    mix = _from_lp(Mixture, p.proc_labels, res.num, res.D)
    gaps, _ = _mixture_gaps(p, res.num[:nd], res.D, j0)
    if not (all(g <= 0 for g in gaps) and any(g < 0 for g in gaps)):
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
    return HullDominanceReport(delta0, mix is not None, mix, res.objective,
                               risk_equal, equal_mixture, iters)


# -- everywhere-positive Bayes certificates -----------------------------------

@dataclass(frozen=True)
class Certificate:
    delta0: str
    prior: Prior
    min_weight: Fraction             # > 0
    slacks: dict                     # delta -> bayes_risk(pi, delta) - bayes_risk(pi, delta0)
    iterations: int

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
        return _fmt({
            "delta0": self.delta0,
            "prior": self.prior,
            "min_weight": self.min_weight,
            "slacks": self.slacks,
            "lp_iterations": self.iterations,
        })


@dataclass(frozen=True)
class NoPositivePrior:
    delta0: str
    any_prior: bool                  # does any prior make delta0 Bayes at all?
    forced_zero: tuple               # thetas that no certifying prior can weight
    witness: Mixture | None          # a dominating mixture, when one exists
    iterations: int

    def as_dict(self):
        return _fmt({
            "delta0": self.delta0,
            "verdict": "no_positive_prior",
            "any_prior": self.any_prior,
            "forced_zero": self.forced_zero,
            "witness": self.witness,
            "lp_iterations": self.iterations,
        })


def _bayes_rows(p: DecisionProblem, j0: int):
    """Rows of 'delta0 is Bayes', times den: pi . (risk[:,delta0] - risk[:,d]) <= 0 per competitor."""
    return [[r[j0] - r[j] for r in p.irisk] for j in range(len(p.proc_labels)) if j != j0]


def positive_prior_certificate(p: DecisionProblem, delta0):
    """Max-min LP: find a prior, everywhere positive, under which delta0 is Bayes.

    Returns a Certificate when the optimum t* > 0, otherwise NoPositivePrior
    with the exact set of parameters that any certifying prior must zero out.
    """
    j0 = p.proc_index(delta0)
    nt, den = len(p.theta_labels), p.den
    bayes = _bayes_rows(p, j0)

    # variables: pi (nt), then t free; every row times den
    A_ub = [row + [0] for row in bayes]
    for i in range(nt):
        row = [0] * (nt + 1)
        row[i], row[nt] = -den, den   # t - pi_i <= 0
        A_ub.append(row)
    res = solve_lp([0] * nt + [1], A_ub=A_ub, b_ub=[0] * len(A_ub),
                   A_eq=[[den] * nt + [0]], b_eq=[den], free_vars=[nt])
    iters = res.iterations

    if res.status == "optimal" and res.objective > 0:
        prior = _from_lp(Prior, p.theta_labels, res.num, res.D)
        cert = Certificate(delta0, prior, res.objective,
                           _slacks(p, res.num[:nt], res.D, j0), iters)
        if not cert.verify(p):
            raise RuntimeError("certificate failed independent re-verification")
        return cert

    any_prior = res.status == "optimal"
    forced = []
    if any_prior:
        # which thetas can carry positive weight among Bayes priors for delta0?
        for i, t in enumerate(p.theta_labels):
            obj = [0] * nt
            obj[i] = 1
            sub = solve_lp(obj, A_ub=bayes, b_ub=[0] * len(bayes),
                           A_eq=[[den] * nt], b_eq=[den])
            iters += sub.iterations
            if sub.status != "optimal":
                raise RuntimeError(f"forced-zero probe unexpectedly {sub.status}")
            if sub.objective == 0:
                forced.append(t)
    witness = None
    if p.allow_mixtures:
        dom = dominated_in_hull(p, delta0)
        iters += dom.iterations
        witness = dom.mixture
    return NoPositivePrior(delta0, any_prior, tuple(forced), witness, iters)


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
        return _fmt({
            "delta0": self.delta0,
            "thetas": self.thetas,
            "margin": self.margin,
            "iterations": self.iterations,
            "validated": self.validated,
            "validation_value": self.validation_value,
        })


def _witness_lp(p, cols, j0, thetas, v_coef, **kwargs):
    """LP over competitor mixtures lambda and a free v, rows times den:
    r(theta, lambda) + v_coef * v <= r(theta, delta0) for theta in thetas.

    With v_coef = -1 and minimizing: min over lambda of max over thetas of
    r(theta, lambda) - r(theta, delta0)."""
    n, den = len(cols), p.den
    rows = [p.irisk[i] for i in thetas]
    return solve_lp([0] * n + [1], A_ub=[[r[j] for j in cols] + [v_coef * den] for r in rows],
                    b_ub=[r[j0] for r in rows], A_eq=[[den] * n + [0]], b_eq=[den],
                    free_vars=[n], **kwargs)


def witness_set(p: DecisionProblem, delta0) -> WitnessSet:
    """Cutting-plane search for a finite set of parameters witnessing admissibility.

    Every competitor mixture must lose to delta0 somewhere on the returned
    set, by at least the returned margin.  A positive margin already proves
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
        res = _witness_lp(p, cols, j0, chosen, -1, maximize=False)
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

    chosen.sort()
    thetas = tuple(p.theta_labels[i] for i in chosen)

    # independent validation: best-case competitor advantage w on the witness
    # set, w + r(theta, lambda) <= r(theta, delta0)
    val = _witness_lp(p, cols, j0, chosen, 1)
    validated = val.status == "optimal" and val.objective <= -margin < 0
    return WitnessSet(delta0, thetas, margin, len(chosen), validated, val.objective)


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
    iterations: int

    def as_dict(self):
        return _fmt({
            "delta0": self.delta0,
            "theta0": self.theta0,
            "eps": self.eps,
            "feasible": self.feasible,
            "prior": self.prior,
            "theta0_weight": self.theta0_weight,
            "excess": self.excess,
            "bound": self.bound,
            "lp_iterations": self.iterations,
        })


def stein_check(p: DecisionProblem, delta0, theta0, eps) -> SteinResult:
    """Find a prior whose excess Bayes risk at delta0 is within eps * pi(theta0).

    Maximizes pi(theta0) subject to the excess constraints; Feasible
    requires a strictly positive optimal weight at theta0.  Stein's condition
    needs this for every eps > 0; passing on a finite eps grid is only necessary.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    i0 = p.theta_index(theta0)
    j0 = p.proc_index(delta0)
    nt = len(p.theta_labels)

    # every row times den * q for eps = a / q
    scale = p.den * eps.denominator
    A_ub = [[eps.denominator * v for v in row] for row in _bayes_rows(p, j0)]
    for row in A_ub:
        row[i0] -= p.den * eps.numerator
    c = [0] * nt
    c[i0] = 1
    res = solve_lp(c, A_ub=A_ub, b_ub=[0] * len(A_ub), A_eq=[[scale] * nt], b_eq=[scale])
    if res.status == "infeasible" or (res.status == "optimal" and res.objective == 0):
        return SteinResult(delta0, theta0, eps, False, None, None, None, None, res.iterations)
    if res.status != "optimal":
        raise RuntimeError(f"stein LP unexpectedly {res.status}")
    prior = _from_lp(Prior, p.theta_labels, res.num, res.D)
    weight = prior.weight(theta0)
    if res.objective != weight:
        raise RuntimeError("stein LP objective differs from its prior's weight at theta0")
    gaps, n = _bayes_gaps(p, res.num, res.D, j0)
    excess = Fraction(-min(gaps), n)
    bound = eps * weight
    if not excess <= bound:  # the LP's constraints, recomputed exactly
        raise RuntimeError("stein prior failed independent re-verification")
    return SteinResult(delta0, theta0, eps, True, prior, weight,
                       excess, bound, res.iterations)


# -- determining families and the infinitesimal-weight checkers -----------------

@dataclass(frozen=True)
class DeterminingFamilyReport:
    ok: bool
    pairs: tuple                     # (delta0, delta1, best_gap, best_set_index) per improving pair
    failures: tuple                  # improving pairs with no uniformly separating member

    def as_dict(self):
        return _fmt({
            "ok": self.ok,
            "pairs": [{"delta0": a, "delta1": b, "gap": g, "set_index": k}
                      for (a, b, g, k) in self.pairs],
            "failures": [{"delta0": a, "delta1": b} for (a, b) in self.failures],
        })


def _validate_family(p: DecisionProblem, family):
    sets = []
    for k, B in enumerate(family):
        B = tuple(B)
        if not B:
            raise ValueError(f"family member {k} is empty")
        for t in B:
            p.theta_index(t)
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
        return _fmt({"ok": self.ok, "excess": self.excess, "bound": self.bound})


def ns_stein_check(p: DecisionProblem, delta0, prior: Prior, B, eps) -> NsSteinReport:
    """Levi-Civita variant: excess <= prior(B) * eps in the LC order."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    B = tuple(B)
    if not B:
        raise ValueError("B must be a nonempty set of parameter labels")
    for t in B:
        p.theta_index(t)
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

    def as_dict(self):
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
        rho = LCNumber.from_real(Fraction(rho))
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
