"""Dominance, admissibility, positive-prior certificates, witness sets, and the
Stein-style condition checkers, all in exact rational (or Levi-Civita) arithmetic.

Every verdict that comes out of a linear program is re-verified by direct
recomputation, so the LP kernel is never the single point of trust.  Every LP
row is plain ints, one LP's rows all scaled by one positive factor (the
problem's common risk denominator ``den``, times eps's denominator for
Stein), and the re-checks, the ``ns_*`` excess included, are integer passes
over the problem's ``irisk`` (``decision``'s helpers).  The hull,
risk-equal, certificate, witness and Stein LPs go to the kernel's private
entry ``simplex._solve_packed`` already packed, over their structural
columns: each row is an int combination of delta0's packed gap rows
(``decision._packed_gaps``: hull, risk-equal, witness) or of the packed
risk columns (``decision._packed_risk``: certificate, Stein), which is the
packed row since packing is linear, and each builder states the bound ``T``
on its fields and rhs; the kernel adds slacks and the start basis.  The
witness restriction LP is the derived game's LP at its gamma -> infinity
end, on the chosen parameters with delta0 barred, so ``game._minimax_lp``
builds it, and ``game._minimax_sides`` re-checks both of its sides.  Only
the forced-zero LP goes through ``solve_lp``.
Throughout, the infimum over the convex hull of procedures is replaced by
the minimum over its vertices, which is exact because risk is linear in the
mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from admlab.decision import (
    HYPER,
    DecisionProblem,
    Mixture,
    Prior,
    _bayes_gaps,
    _fmt,
    _from_lp,
    _int_weights,
    _lc_gaps,
    _mixture_gaps,
    _packed_gaps,
    _packed_risk,
    _Report,
)
from admlab.game import _minimax_lp, _minimax_sides
from admlab.hyperreal import LCNumber, _as_fraction, compare
from admlab.simplex import _ones, _solve_packed, solve_lp

__all__ = [
    "Certificate",
    "DeterminingFamilyReport",
    "HullDominanceReport",
    "NoPositivePrior",
    "NoWitness",
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
    return (all(row[j1] <= row[j0] for row in p.irisk)
            and any(row[j1] < row[j0] for row in p.irisk))


def admissible_set(p: DecisionProblem) -> set:
    if p.allow_mixtures:
        return {d for j, d in enumerate(p.proc_labels) if _dominance_lp(p, j)[1] is None}
    return {d for d in p.proc_labels
            if not any(dominates(p, d1, d) for d1 in p.proc_labels if d1 != d)}


# -- dominance within the convex hull ----------------------------------------

@dataclass(frozen=True)
class HullDominanceReport(_Report):
    delta0: str
    dominated: bool
    mixture: Mixture | None          # an optimal dominating mixture if dominated
    improvement: Fraction            # LP optimum: total slack across parameters
    risk_equal: bool                 # a competitor mixture matches the risk vector exactly
    equal_mixture: Mixture | None
    iterations: int = field(metadata={"key": "lp_iterations"})


def _gap_lp(p: DecisionProblem, j0: int, n_le: int, cost):
    """An LP over one weight per procedure, packed from delta0's gap rows.

    Its rows are the gap rows ``G_theta . mu`` (``_packed_gaps``), rhs 0, and
    the mass row den * sum_{j != j0} mu_j, rhs den, the first ``n_le`` of them
    ``<=`` and the rest ``==``.  delta0's column is all zero (a column that
    is zero in every row and in the cost never enters, so Bland's path is
    that of the competitors alone), and no field exceeds max(hi - lo, den),
    ``hi`` and ``lo`` the largest and least risk.
    """
    nd, den = len(p.proc_labels), p.den
    hi, lo, _ = p._span
    T = max(hi - lo, den).bit_length()
    W, G = _packed_gaps(p, j0, T)
    G.append(den * (_ones(nd, W) - (1 << W * j0)))
    return _solve_packed(G, [0] * (len(G) - 1) + [den], n_le, cost, T, W)


def _hull_lp(p: DecisionProblem, j0: int):
    """The dominance LP of ``_dominance_lp``: every gap row and the mass row ``<=``."""
    sums = p._span[2]
    return _gap_lp(p, j0, len(p.theta_labels) + 1, [sums[j0] - v for v in sums])


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
    res = _hull_lp(p, j0)
    if res.status != "optimal":
        raise RuntimeError(f"dominance LP unexpectedly {res.status}")
    if not res.objective > 0:
        return res, None
    w = res.num[:]
    w[j0] = res.D - (sum(w) - w[j0])  # delta0 weighs 1 - sum(mu)
    mix = _from_lp(Mixture, p.proc_labels, w, res.D)
    gaps, n = _mixture_gaps(p, w, res.D, j0)
    # its total slack, -sum(gaps) / n, is the objective over den at any
    # feasible point; that objective is positive, so some gap is negative
    if not (all(g <= 0 for g in gaps)
            and Fraction(-sum(gaps) * p.den, n) == res.objective):
        raise RuntimeError("dominating mixture failed independent re-verification")
    return res, mix


def _risk_equal_lp(p: DecisionProblem, j0: int):
    """LP: a competitor mixture with delta0's risk vector, ``G_theta . mu == 0``
    per parameter and den * sum_{j != j0} mu_j == den (``_gap_lp``).

    With only delta0, the mass row is 0 == den: infeasible in 0 pivots.
    """
    return _gap_lp(p, j0, 0, [0] * len(p.proc_labels))


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

    risk_equal, equal_mixture = False, None
    eq = _risk_equal_lp(p, j0)
    iters += eq.iterations
    if eq.status == "optimal":
        risk_equal = True
        w = eq.num[:]
        w[j0] = 0  # a competitor mixture: delta0's own column carries no weight
        equal_mixture = _from_lp(Mixture, p.proc_labels, w, eq.D)
        if any(_mixture_gaps(p, w, eq.D, j0)[0]):
            raise RuntimeError("risk-equal mixture failed independent re-verification")
    return HullDominanceReport(delta0, mix is not None, mix, res.objective / p.den,
                               risk_equal, equal_mixture, iters)


# -- everywhere-positive Bayes certificates -----------------------------------

@dataclass(frozen=True)
class Certificate(_Report):
    delta0: str
    prior: Prior
    min_weight: Fraction             # > 0
    slacks: dict                     # delta -> bayes_risk(pi, delta) - bayes_risk(pi, delta0)
    iterations: int = field(metadata={"key": "lp_iterations"})
    verdict: str = field(default="certificate", init=False)

    def verify(self, p: DecisionProblem) -> bool:
        """Recompute everything from scratch, bypassing the LP."""
        if self.prior.kind == HYPER:  # a certificate's prior is a real one
            return False
        weights = [self.prior.weight(t) for t in p.theta_labels]
        if sum(weights) != 1 or min(weights) != self.min_weight or self.min_weight <= 0:
            return False
        slacks = _slacks(p, *_int_weights(weights), p.proc_index(self.delta0))
        return slacks == self.slacks and min(slacks.values()) >= 0


@dataclass(frozen=True)
class NoPositivePrior(_Report):
    delta0: str
    verdict: str = field(default="no_positive_prior", init=False)
    any_prior: bool                  # does any prior make delta0 Bayes at all?
    forced_zero: tuple               # thetas that no certifying prior can weight
    witness: Mixture | None          # a dominating mixture, when one exists
    iterations: int = field(metadata={"key": "lp_iterations"})


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
    nt = len(p.theta_labels)
    res = _certificate_lp(p, j0)
    iters = res.iterations

    if res.status == "optimal" and res.objective > 0:
        t, D = res.num[nt], res.D
        pi = [v + t for v in res.num[:nt]]
        prior = _from_lp(Prior, p.theta_labels, pi, D)
        gaps, n = _bayes_gaps(p, pi, D, j0)
        # Certificate.verify's checks, in ints: the least weight is t > 0 and
        # the LP's optimum t / D, and delta0 is Bayes under pi
        obj = res.objective
        if not (min(pi) == t > 0 and obj.numerator * D == t * obj.denominator
                and min(gaps) >= 0):
            raise RuntimeError("certificate failed independent re-verification")
        slacks = {d: Fraction(g, n) for d, g in zip(p.proc_labels, gaps)}
        return Certificate(delta0, prior, obj, slacks, iters)

    any_prior = res.status == "optimal"
    forced = ()
    if any_prior:
        forced, sub_iters = _forced_zero(p, j0)
        iters += sub_iters
    witness = None
    if p.allow_mixtures:
        dom, witness = _dominance_lp(p, j0)
        iters += dom.iterations
    return NoPositivePrior(delta0, any_prior, forced, witness, iters)


def _certificate_lp(p: DecisionProblem, j0: int):
    """The min-weight LP of ``positive_prior_certificate``, packed from the risk columns.

    Columns: s (nt), then t.  Competitor j's ``<=`` row is ``P_j0 - P_j``
    with sum(bayes_j) in t's field, rhs 0; the mass row, an ``==`` row, holds
    den in each s field and den * nt in t's, rhs den.  No field exceeds
    max(nt * (hi - lo), den * nt).
    """
    nt, nd, den = len(p.theta_labels), len(p.proc_labels), p.den
    hi, lo, sums = p._span
    T = max(nt * (hi - lo), den * nt).bit_length()
    W, cols, _ = _packed_risk(p, T)
    top = cols[j0] + (sums[j0] << W * nt)
    rows = [top - cols[j] - (sums[j] << W * nt) for j in range(nd) if j != j0]
    rows.append(den * (_ones(nt, W) + (nt << W * nt)))
    return _solve_packed(rows, [0] * (nd - 1) + [den], nd - 1, [0] * nt + [1], T, W)


def _forced_zero(p: DecisionProblem, j0: int):
    """The thetas that no prior under which delta0 is Bayes can weight, and the LP's pivots.

    One LP over the unnormalised Bayes cone, pi = y + z with y, z >= 0: max
    sum(z) with z_i <= 1.  The cone is closed under sums and positive
    scaling, so at the optimum z_i is 1 where some Bayes prior weights
    theta_i and 0 where none does.  The positive side is re-checked in ints:
    delta0 is Bayes under pi, which is positive exactly where z_i is 1.
    """
    nt = len(p.theta_labels)
    # variables: y (nt), then z (nt); the Bayes rows on pi times den, then z_i <= 1
    A_ub = [row + row for row in _bayes_rows(p, j0)]
    A_ub += [[0] * (nt + i) + [1] + [0] * (nt - 1 - i) for i in range(nt)]
    res = solve_lp([0] * nt + [1] * nt, A_ub=A_ub, b_ub=[0] * (len(A_ub) - nt) + [1] * nt)
    if res.status != "optimal":
        raise RuntimeError(f"forced-zero LP unexpectedly {res.status}")
    z, D = res.num[nt:], res.D
    pi = [u + v for u, v in zip(res.num[:nt], z)]
    gaps, _ = _bayes_gaps(p, pi, D, j0)
    if not (all(v in (0, D) for v in z) and min(gaps) >= 0 and min(pi) >= 0
            and all((w > 0) == (v > 0) for w, v in zip(pi, z))):
        raise RuntimeError("forced-zero LP failed independent re-verification")
    return tuple(t for t, v in zip(p.theta_labels, z) if not v), res.iterations


# -- finite witness sets -------------------------------------------------------

@dataclass(frozen=True)
class WitnessSet(_Report):
    delta0: str
    thetas: tuple
    margin: Fraction | None          # None only when there are no competitors
    iterations: int                  # cutting-plane rounds (thetas added)
    validated: bool
    validation_value: Fraction | None


@dataclass(frozen=True)
class NoWitness(_Report):
    delta0: str
    witness: None = field(default=None, init=False)
    reason: str                      # dominated in the hull, or risk-equal to a competitor mixture


def witness_set(p: DecisionProblem, delta0) -> WitnessSet | NoWitness:
    """Cutting-plane search for a finite set of parameters witnessing admissibility.

    Every competitor mixture must lose to delta0 somewhere on the returned
    set (not always a minimal one) by at least the returned margin, which the
    last restriction LP's duals, a prior on the set, confirm (``validated``).
    A positive margin already proves
    delta0 neither dominated in the hull nor risk-equal to a competitor
    mixture, so no hull LP runs on that path.  When separation fails, the
    current mixture lam matches or beats delta0 at every parameter, and a
    NoWitness names the failure: "dominated" when lam beats delta0
    somewhere (no further LP), and when lam is risk-equal to delta0, the
    dominance LP alone tells "dominated" from "risk-equal".  An unknown
    label, or a problem without mixtures, is a ValueError.
    """
    j0 = p.proc_index(delta0)
    if not p.allow_mixtures:
        raise ValueError("witness_set needs mixtures enabled")
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
                return NoWitness(delta0, f"{delta0} is dominated in the hull; "
                                         "no witness set exists")
            return NoWitness(delta0, f"{delta0} has an equivalence in risk "
                                     "with a competitor mixture")
        chosen.append(best_i)
        res = _minimax_lp(p, j0, chosen, 1, 0)  # the game at q = 0
        if res.status != "optimal":
            raise RuntimeError(f"witness restriction LP unexpectedly {res.status}")
        w, q = res.num[:-1], res.D
        w[j0] = 0  # lam is a competitor mixture: delta0's own column carries no weight
        _from_lp(Mixture, p.proc_labels, w, q)  # lam must be a mixture
        if res.objective > 0:
            break
    margin = res.objective
    # independent re-checks: the margin is the LP mixture's worst gap on the
    # chosen parameters, and the LP's duals, in row order, are a prior on them
    # under which every competitor loses by at least the margin
    gaps = [[v - p.irisk[i][j0] for v in p.irisk[i]] for i in chosen]
    worst, least = _minimax_sides(gaps, res, p.den, cols)
    if worst != margin:
        raise RuntimeError("witness margin failed independent re-verification")
    value = None if least is None else -least
    validated = value is not None and value <= -margin < 0

    chosen.sort()
    thetas = tuple(p.theta_labels[i] for i in chosen)
    return WitnessSet(delta0, thetas, margin, len(chosen), validated, value)


# -- Stein's condition ---------------------------------------------------------

@dataclass(frozen=True)
class SteinResult(_Report):
    delta0: str
    theta0: str
    eps: Fraction
    feasible: bool
    prior: Prior | None
    theta0_weight: Fraction | None
    excess: Fraction | None          # recomputed: max over vertices of Bayes-risk gap
    bound: Fraction | None           # eps * pi(theta0)
    iterations: int = field(metadata={"key": "lp_iterations"})


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

    # variables: pi (nt); every row times den * q for eps = a / q, packed
    # from the risk columns: packing is linear.  No field of a competitor's
    # row exceeds q * (hi - lo) + den * a, nor of the mass row den * q
    nt, nd, den = len(p.theta_labels), len(p.proc_labels), p.den
    a, q = eps.numerator, eps.denominator
    hi, lo, _ = p._span
    T = max(q * (hi - lo) + den * a, den * q).bit_length()
    W, cols, _ = _packed_risk(p, T)
    top = q * cols[j0] - (den * a << W * i0)
    rows = [top - q * cols[j] for j in range(nd) if j != j0]
    rows.append(den * q * _ones(nt, W))
    cost = [0] * nt
    cost[i0] = 1
    res = _solve_packed(rows, [0] * (nd - 1) + [den * q], nd, cost, T, W)
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
    members = [[p.irisk[p.theta_index(t)] for t in B] for B in _validate_family(p, family)]
    pairs, failures = [], []
    for j0, d0 in enumerate(p.proc_labels):
        for j1, d1 in enumerate(p.proc_labels):
            if j1 == j0 or not any(row[j1] < row[j0] for row in p.irisk):
                continue
            gaps = [min(row[j0] - row[j1] for row in rows) for rows in members]
            best = max(gaps, default=0)  # its first member is the reported one
            if best > 0:
                pairs.append((d0, d1, Fraction(best, p.den), gaps.index(best)))
            else:
                failures.append((d0, d1))
    return DeterminingFamilyReport(not failures, tuple(pairs), tuple(failures))


def _lc_excess(p: DecisionProblem, prior: Prior, delta0) -> LCNumber:
    """max over the hull (= vertices, incl. delta0) of Bayes-risk advantage over delta0."""
    return -min(_lc_gaps(p, prior, p.proc_index(delta0)))


@dataclass(frozen=True)
class NsSteinReport(_Report):
    ok: bool
    excess: LCNumber
    bound: LCNumber


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

    def as_dict(self):  # its own: JSON keys constants by text, not by a label tuple
        return _fmt({
            "ok": self.ok,
            "mass_ok": self.mass_ok,
            "ratio_ok": self.ratio_ok,
            "constants": {" ".join(B): C for B, C in self.constants.items()},
            "excess": self.excess,
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
        # rho <= C * mass needs no check: mass > 0 has a positive leading
        # coefficient, so C = 1 when rho's leading exponent is larger, or
        # C > lc(rho) / lc(mass) when they tie, gives rho - C * mass a
        # negative leading term
        constants[tuple(B)] = C

    excess = _lc_excess(p, prior, delta0)
    # excess / rho has the sign of excess and the leading exponent
    # lead(excess) - lead(rho): it is at most infinitesimal iff that is >= 1
    ratio_ok = excess.sign() <= 0 or excess.leading_exponent() > rho.leading_exponent()
    return NsBlythReport(mass_ok and ratio_ok, mass_ok, ratio_ok, constants, excess)
