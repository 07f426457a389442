import ast
import dataclasses
import inspect
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_simplex
from admlab import LCNumber, approx_leq, compare
from admlab import admissibility as adm
from admlab import decision, game, simplex
from admlab.decision import (
    DecisionProblem,
    Mixture,
    Prior,
    bayes_risk,
    mixture_risk,
    random_problem,
)

EPS = LCNumber.eps()
ONE = LCNumber.from_real(1)

# rows are per-theta tuples over the procedure columns
TWO_POINT = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))
DOMINATED = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"), ((2, 0, 1), (2, 1, 0)))
RISK_EQUAL = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 1), (0, 0)))


class TestDominates:
    def test_equality_never_dominates(self):
        p = DecisionProblem(("t1", "t2"), ("a", "b"), ((1, 1), (1, 1)))
        assert not adm.dominates(p, "a", "b")

    def test_strict_somewhere(self):
        p = DecisionProblem(("t1", "t2"), ("a", "b"), ((1, 1), (0, 1)))
        assert adm.dominates(p, "a", "b")
        assert not adm.dominates(p, "b", "a")

    def test_incomparable(self):
        assert not adm.dominates(TWO_POINT, "d0", "d1")
        assert not adm.dominates(TWO_POINT, "d1", "d0")

    def test_irreflexive_and_transitive_on_random(self):
        for seed in range(40):
            p = random_problem(4, 5, seed=seed)
            for a in p.proc_labels:
                assert not adm.dominates(p, a, a)
                for b in p.proc_labels:
                    for c in p.proc_labels:
                        if adm.dominates(p, a, b) and adm.dominates(p, b, c):
                            assert adm.dominates(p, a, c)


class TestAdmissibleSet:
    def test_three_procedures(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"), ((0, 1, 2), (1, 0, 2)))
        assert adm.admissible_set(p) == {"d0", "d1"}

    def test_single_procedure(self):
        p = DecisionProblem(("t1",), ("d0",), ((3,),))
        assert adm.admissible_set(p) == {"d0"}

    def test_mixture_does_not_dominate_midpoint(self):
        # (0.4, 0.4) beats the (1/2,1/2) mixture of (1,0) and (0,1) at both corners
        p = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"),
                            ((F(2, 5), 1, 0), (F(2, 5), 0, 1)))
        assert adm.admissible_set(p) == {"d0", "d1", "d2"}

    def test_pairwise_scan_when_mixtures_disabled(self):
        # (0.6,0.6) is admissible among vertices but beaten by the hull midpoint
        p_hull = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"),
                                 ((F(3, 5), 1, 0), (F(3, 5), 0, 1)))
        p_vert = DecisionProblem(p_hull.theta_labels, p_hull.proc_labels,
                                 p_hull.risk, allow_mixtures=False)
        assert adm.admissible_set(p_vert) == {"d0", "d1", "d2"}
        assert adm.admissible_set(p_hull) == {"d1", "d2"}


class TestDominatedInHull:
    def test_dominated_point(self):
        r = adm.dominated_in_hull(DOMINATED, "d0")
        assert r.dominated and r.improvement == 3
        # optimum is not unique; hold the contract, not a particular vertex
        risks = {t: mixture_risk(DOMINATED, t, r.mixture) for t in DOMINATED.theta_labels}
        assert all(risks[t] <= 2 for t in risks) and any(risks[t] < 2 for t in risks)

    def test_not_dominated(self):
        r = adm.dominated_in_hull(TWO_POINT, "d0")
        assert not r.dominated and r.mixture is None and r.improvement == 0
        assert not r.risk_equal

    def test_risk_equal_flag(self):
        r = adm.dominated_in_hull(RISK_EQUAL, "d0")
        assert not r.dominated and r.risk_equal
        assert r.equal_mixture.weights == {"d1": F(1)}

    def test_requires_mixtures(self):
        p = DecisionProblem(("t",), ("d0",), ((1,),), allow_mixtures=False)
        with pytest.raises(ValueError, match="mixtures"):
            adm.dominated_in_hull(p, "d0")


class TestCertificates:
    def test_symmetric_two_point(self):
        c = adm.positive_prior_certificate(TWO_POINT, "d0")
        assert isinstance(c, adm.Certificate)
        assert c.prior.weights == {"t1": F(1, 2), "t2": F(1, 2)}
        assert c.min_weight == F(1, 2)
        assert all(s == 0 for s in c.slacks.values())
        assert c.verify(TWO_POINT)

    def test_asymmetric_ten_to_one(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (0, -10)))
        c = adm.positive_prior_certificate(p, "d0")
        assert c.prior.weights == {"t1": F(10, 11), "t2": F(1, 11)}
        assert c.min_weight == F(1, 11)
        assert c.verify(p)

    def test_strictly_dominated_gets_no_prior(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 0), (1, 0)))
        r = adm.positive_prior_certificate(p, "d0")
        assert isinstance(r, adm.NoPositivePrior)
        assert not r.any_prior
        assert r.witness is not None and r.witness.weights == {"d1": F(1)}

    def test_forced_zero_set(self):
        # d0 Bayes only under Dirac at t1: ties d1 at t1, strictly worse at t2
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 1), (1, 0)))
        r = adm.positive_prior_certificate(p, "d0")
        assert isinstance(r, adm.NoPositivePrior)
        assert r.any_prior and r.forced_zero == ("t2",)

    def test_min_weight_equals_lp_optimum_meaning(self):
        for seed in range(25):
            p = random_problem(4, 4, seed=seed)
            for d in p.proc_labels:
                c = adm.positive_prior_certificate(p, d)
                if isinstance(c, adm.Certificate):
                    assert min(c.prior.weights.values()) == c.min_weight
                    assert c.verify(p)

    def test_verify_rejects_tampered_certificates(self):
        p = random_problem(3, 4, seed=7)
        c = adm.positive_prior_certificate(p, "d1")
        assert c.prior.weights == {"t1": F(4, 13), "t2": F(5, 13), "t3": F(4, 13)}
        assert c.verify(p)
        # move 1/13 from t2 to t1: still a prior, same minimum weight
        weights = dict(c.prior.weights, t1=F(5, 13), t2=F(4, 13))
        moved = dataclasses.replace(c, prior=dataclasses.replace(c.prior, weights=weights))
        assert min(weights.values()) == c.min_weight
        assert not moved.verify(p)
        slacks = dict(c.slacks, d2=c.slacks["d2"] + F(1, 104))
        assert not dataclasses.replace(c, slacks=slacks).verify(p)
        # an infinitesimal shift makes the prior HYPER, which no certificate carries
        hyper = Prior({"t1": F(4, 13) - EPS, "t2": F(5, 13) + EPS, "t3": F(4, 13)})
        assert hyper.kind == "HYPER"
        assert not dataclasses.replace(c, prior=hyper).verify(p)
        # the stated least weight no longer matches the prior's
        assert not dataclasses.replace(c, min_weight=c.min_weight / 2).verify(p)

    @staticmethod
    def _forged(c, p, weights):
        """c with the prior ``weights``, their least weight on p's labels, and
        the slacks they give, so only verify's other clauses can object."""
        on_p = [weights.get(t, F(0)) for t in p.theta_labels]
        slacks = adm._slacks(p, *decision._int_weights(on_p), p.proc_index(c.delta0))
        return dataclasses.replace(c, prior=Prior(weights), min_weight=min(on_p),
                                   slacks=slacks)

    def test_verify_rejects_a_prior_that_is_not_one_on_theta(self):
        # half the mass sits on a label outside the problem, so the weights
        # on t1..t3 sum to 1/2; they are c's halved, so d1 stays Bayes
        p = random_problem(3, 4, seed=7)
        c = adm.positive_prior_certificate(p, "d1")
        weights = {t: w / 2 for t, w in c.prior.weights.items()}
        forged = self._forged(c, p, {**weights, "t9": F(1, 2)})
        assert forged.min_weight > 0 and min(forged.slacks.values()) >= 0
        assert not forged.verify(p)

    def test_verify_rejects_a_zero_least_weight(self):
        # d1 = (5/8, 1/8, 0) ties the best risk at t3, so it is Bayes under
        # the Dirac prior there, whose least weight is 0
        p = random_problem(3, 4, seed=7)
        forged = self._forged(adm.positive_prior_certificate(p, "d1"), p, {"t3": F(1)})
        assert forged.min_weight == 0 and min(forged.slacks.values()) >= 0
        assert not forged.verify(p)

    def test_verify_rejects_a_prior_under_which_delta0_is_not_bayes(self):
        # under the uniform prior d4 = (0, 5/8, 0) beats d1 = (5/8, 1/8, 0)
        p = random_problem(3, 4, seed=7)
        third = F(1, 3)
        forged = self._forged(adm.positive_prior_certificate(p, "d1"), p,
                              {"t1": third, "t2": third, "t3": third})
        assert forged.min_weight == third and forged.slacks["d4"] < 0
        assert not forged.verify(p)



# the forced-zero LP's variables are [y_t1, y_t2, z_t1, z_t2], its prior
# pi = y + z; on TWO_POINT the Bayes gap of d1 over d0 is pi_t1 - pi_t2.  Each
# result breaks one clause of the re-check and keeps the other three
@pytest.mark.parametrize("num, D", [
    ([0, 0, 1, 1], 2),    # z_t1 = 1/2: neither 0 nor 1
    ([0, 0, 0, 1], 1),    # pi = (0, 1): d1 beats d0 by 1
    ([0, -1, 0, 0], 1),   # pi_t2 = -1
    ([1, 0, 0, 0], 1),    # pi_t1 = 1 where z_t1 = 0
], ids=["z", "gap", "pi", "support"])
def test_forced_zero_recheck_catches_each_clause(monkeypatch, num, D):
    monkeypatch.setattr(adm, "solve_lp",
                        lambda *a, **kw: simplex.LPResult("optimal", F(0), num, D, 0))
    with pytest.raises(RuntimeError, match="forced-zero LP failed independent"):
        adm._forced_zero(TWO_POINT, 0)


def _probed_forced_zero(p, d0):
    """The forced-zero set by one Fraction-kernel LP per theta: max pi_i over
    the priors under which d0 is Bayes (None when there is no such prior)."""
    j0 = p.proc_index(d0)
    rows = [[r[j0] - r[j] for r in p.risk] for j in range(len(p.proc_labels)) if j != j0]
    forced = []
    for i, t in enumerate(p.theta_labels):
        res = fraction_simplex.solve_lp([F(k == i) for k in range(len(p.theta_labels))],
                                        A_ub=rows, b_ub=[0] * len(rows),
                                        A_eq=[[1] * len(p.theta_labels)], b_eq=[1])
        if res.status == "infeasible":
            return None
        if res.objective == 0:
            forced.append(t)
    return tuple(forced)


_tied_risks = st.integers(1, 4).flatmap(lambda nt: st.integers(1, 4).flatmap(
    lambda nd: st.lists(st.lists(st.integers(0, 2), min_size=nd, max_size=nd),
                        min_size=nt, max_size=nt)))


@settings(max_examples=300, deadline=None)
@given(_tied_risks, st.integers(0, 3))
def test_forced_zero_matches_per_theta_probes(risk, k):
    # entries in {0, 1, 2} tie often, so many thetas are forced to zero
    p = DecisionProblem(tuple(f"t{i}" for i in range(len(risk))),
                        tuple(f"d{j}" for j in range(len(risk[0]))), risk)
    d0 = p.proc_labels[k % len(p.proc_labels)]
    r = adm.positive_prior_certificate(p, d0)
    probed = _probed_forced_zero(p, d0)
    if isinstance(r, adm.Certificate):
        assert probed == ()
    elif r.any_prior:
        assert r.forced_zero == probed and probed
    else:
        assert probed is None and r.forced_zero == ()


def _coupled_forced_zero(p, j0):
    """The forced-zero set by the LP that pi = y + z replaced: max sum(z)
    over (pi, z) >= 0 with the Bayes rows on pi, z_i <= pi_i and z_i <= 1."""
    nt = len(p.theta_labels)
    unit = [[int(k == i) for k in range(nt)] for i in range(nt)]
    A_ub = [row + [0] * nt for row in adm._bayes_rows(p, j0)]
    A_ub += [[-v for v in e] + e for e in unit] + [[0] * nt + e for e in unit]
    res = simplex.solve_lp([0] * nt + [1] * nt, A_ub=A_ub,
                           b_ub=[0] * (len(A_ub) - nt) + [1] * nt)
    assert res.status == "optimal"
    return tuple(t for t, v in zip(p.theta_labels, res.num[nt:]) if not v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tied_risks, st.builds(lambda nt, nd, seed: random_problem(nt, nd, seed).risk,
                                        st.integers(1, 5), st.integers(1, 5),
                                        st.integers(0, 10**6))))
def test_forced_zero_matches_the_coupled_lp(risk):
    p = DecisionProblem(tuple(f"t{i}" for i in range(len(risk))),
                        tuple(f"d{j}" for j in range(len(risk[0]))), risk)
    for j0 in range(len(p.proc_labels)):
        assert adm._forced_zero(p, j0)[0] == _coupled_forced_zero(p, j0)


def _max_min_certificate_lp(p, d0):
    """The certificate LP in max-min form, on the Fraction kernel: max t over
    pi >= 0 and t free with t <= pi_theta, sum(pi) == 1 and d0 Bayes under pi."""
    j0, nt = p.proc_index(d0), len(p.theta_labels)
    A_ub = [[r[j0] - r[j] for r in p.risk] + [0]
            for j in range(len(p.proc_labels)) if j != j0]
    for i in range(nt):
        A_ub.append([-F(k == i) for k in range(nt)] + [1])  # t - pi_i <= 0
    return fraction_simplex.solve_lp([0] * nt + [1], A_ub=A_ub, b_ub=[0] * len(A_ub),
                                     A_eq=[[1] * nt + [0]], b_eq=[1], free_vars=[nt])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 10**6), st.sampled_from((8, 97)),
       st.booleans())
def test_certificate_matches_max_min_lp(n_theta, n_proc, seed, grid, mixtures):
    # the min-weight LP (pi = t + s) against the max-min form it replaced
    q = random_problem(n_theta, n_proc, seed, grid)
    p = DecisionProblem(q.theta_labels, q.proc_labels, q.risk, allow_mixtures=mixtures)
    for d0 in p.proc_labels:
        r = adm.positive_prior_certificate(p, d0)
        oracle = _max_min_certificate_lp(p, d0)
        if oracle.status == "optimal" and oracle.objective > 0:
            assert isinstance(r, adm.Certificate)
            assert r.min_weight == oracle.objective == min(r.prior.weights.values())
        else:
            assert isinstance(r, adm.NoPositivePrior)
            assert r.any_prior == (oracle.status == "optimal")
            assert r.forced_zero == (_probed_forced_zero(p, d0) or ())
            assert mixtures or r.witness is None


def test_large_entry_min_weights_are_pinned():
    # 12x12 on the 10**-6 grid: entries near 130 bits in the tableau
    p = random_problem(12, 12, 77, 10**6)
    assert [adm.positive_prior_certificate(p, d).min_weight
            for d in ("d1", "d2", "d3", "d4")] == [
        F(294183450646, 3924647844931),
        F(133946148531149112, 2137270757500150957),
        F(381638834348049179, 6391529892952275230),
        F(66263318554, 1084241399443),
    ]


def _maximizes(args, kwargs):
    """Is the LP passed to the kernel's private entry a max (sign 1)?"""
    return inspect.signature(simplex._solve_packed).bind(*args, **kwargs).arguments.get(
        "sign", 1) == 1


class TestWitnessSet:
    def test_single_theta_witness(self):
        p = DecisionProblem(("t1", "t2", "t3"), ("d0", "d1", "d2"),
                            ((F(2, 5), 1, 0), (F(2, 5), 0, 1), (0, 5, 5)))
        w = adm.witness_set(p, "d0")
        assert w.thetas == ("t3",)
        assert w.margin == 5
        assert w.validated and w.validation_value == -5
        assert w.iterations <= len(p.theta_labels)

    def test_whole_theta_when_singleton(self):
        p = DecisionProblem(("t1",), ("d0", "d1"), ((0, 1),))
        w = adm.witness_set(p, "d0")
        assert w.thetas == ("t1",) and w.margin == 1

    def test_refuses_dominated(self):
        w = adm.witness_set(DOMINATED, "d0")
        assert w == adm.NoWitness("d0", "d0 is dominated in the hull; no witness set exists")
        assert w.as_dict() == {"delta0": "d0", "witness": None,
                               "reason": "d0 is dominated in the hull; no witness set exists"}

    def test_refuses_risk_equal(self):
        w = adm.witness_set(RISK_EQUAL, "d0")
        assert w == adm.NoWitness("d0", "d0 has an equivalence in risk with a competitor mixture")
        assert w.witness is None

    def test_bad_input_is_a_value_error(self):
        # the label is checked first, then mixtures: the CLI's stderr names the label
        pure = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)), allow_mixtures=False)
        with pytest.raises(ValueError, match="unknown procedure"):
            adm.witness_set(pure, "nope")
        with pytest.raises(ValueError, match="witness_set needs mixtures enabled"):
            adm.witness_set(pure, "d0")

    def test_vacuous_without_competitors(self):
        p = DecisionProblem(("t1",), ("d0",), ((3,),))
        w = adm.witness_set(p, "d0")
        assert w.thetas == () and w.margin is None and w.validated

    def test_random_admissible_instances_validate(self):
        checked = 0
        for seed in range(120):
            p = random_problem(4, 4, seed=seed)
            for d in p.proc_labels:
                r = adm.dominated_in_hull(p, d)
                if r.dominated or r.risk_equal:
                    continue
                w = adm.witness_set(p, d)
                checked += 1
                assert w.validated
                assert w.iterations <= len(p.theta_labels)
                if w.margin is not None:
                    assert w.margin > 0 and w.validation_value == -w.margin
        assert checked > 50

    @staticmethod
    def _traced(p, d):
        """witness_set's outcome (a WitnessSet or a NoWitness), the gaps
        of lam when separation failed (None on return), and the number of
        maximizing LPs it solved (the restriction LPs minimize).  Every LP
        there packs its own rows and calls the kernel's private entry: the
        restriction LPs through ``game``, the dominance LP through ``adm``."""
        events = []
        gaps_of, solve = adm._mixture_gaps, simplex._solve_packed

        def spy_gaps(*args):
            out = gaps_of(*args)
            events.append(out[0])
            return out

        def spy_lp(*args, **kwargs):
            events.append(_maximizes(args, kwargs))
            return solve(*args, **kwargs)
        with mock.patch.object(adm, "_mixture_gaps", spy_gaps), \
                mock.patch.object(adm, "_solve_packed", spy_lp), \
                mock.patch.object(game, "_solve_packed", spy_lp), \
                mock.patch.object(adm, "dominated_in_hull", side_effect=AssertionError):
            outcome = adm.witness_set(p, d)
        if isinstance(outcome, adm.WitnessSet):
            return outcome, None, events.count(True)
        first_max = next((k for k, e in enumerate(events) if e is True), len(events))
        lam_gaps = [e for e in events[:first_max] if isinstance(e, list)][-1]
        return outcome, lam_gaps, events.count(True)

    def test_refusal_lps(self):
        # DOMINATED: the uniform lam beats d0 everywhere, so no LP at all;
        # RISK_EQUAL: lam = d1 equals d0, so the dominance LP alone
        assert self._traced(DOMINATED, "d0") == (
            adm.NoWitness("d0", "d0 is dominated in the hull; no witness set exists"), [-3, -3], 0)
        assert self._traced(RISK_EQUAL, "d0") == (
            adm.NoWitness("d0", "d0 has an equivalence in risk with a competitor mixture"),
            [0, 0], 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6), st.sampled_from((8, 97)))
    def test_outcome_matches_the_hull_verdict(self, n_theta, n_proc, seed, grid):
        # a refusal is read off lam's exact gaps: no LP when lam beats delta0
        # somewhere, the dominance LP alone when lam is risk-equal; a returned
        # witness set is validated by its last LP's duals, and no hull LP runs
        p = random_problem(n_theta, n_proc, seed, grid)
        for d in p.proc_labels:
            dom = adm.dominated_in_hull(p, d)
            outcome, lam_gaps, maximizing = self._traced(p, d)
            if dom.dominated:
                assert outcome == adm.NoWitness(
                    d, f"{d} is dominated in the hull; no witness set exists")
            elif dom.risk_equal:
                assert outcome == adm.NoWitness(
                    d, f"{d} has an equivalence in risk with a competitor mixture")
            else:
                assert isinstance(outcome, adm.WitnessSet) and outcome.validated
            if lam_gaps is None:
                assert maximizing == 0
            else:
                assert max(lam_gaps) <= 0
                assert maximizing == (0 if any(lam_gaps) else 1)

    def test_a_refusal_where_lam_loses_is_an_internal_fault(self):
        # on TWO_POINT the restriction LP on {t1} has v = 1 for lam = d1; an
        # LP that claims v = -1 ends separation with lam losing at t1 (v is
        # the LP's last variable)
        solve = game._solve_packed

        def understate(*args, **kwargs):
            res = solve(*args, **kwargs)
            if _maximizes(args, kwargs):
                return res
            return dataclasses.replace(res, num=res.num[:-1] + [res.num[-1] - 2 * res.D],
                                       objective=res.objective - 2)
        with mock.patch.object(game, "_solve_packed", understate):
            with pytest.raises(RuntimeError, match="witness restriction mixture failed"):
                adm.witness_set(TWO_POINT, "d0")


class TestStein:
    def test_two_point_feasible(self):
        s = adm.stein_check(TWO_POINT, "d0", "t1", 1)
        assert s.feasible and s.theta0_weight > 0
        assert s.excess <= s.bound

    def test_single_procedure_always_feasible(self):
        p = DecisionProblem(("t1", "t2"), ("d0",), ((4,), (5,)))
        s = adm.stein_check(p, "d0", "t2", F(1, 100))
        assert s.feasible and s.excess == 0 and s.prior.weight("t2") == 1

    def test_dominated_infeasible_at_small_eps(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 0), (1, 0)))
        for t in p.theta_labels:
            s = adm.stein_check(p, "d0", t, F(1, 10))
            assert not s.feasible

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps"):
            adm.stein_check(TWO_POINT, "d0", "t1", 0)

    def test_float_eps_is_rejected(self):
        # Fraction(0.1) would silently become 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="exact rational"):
            adm.stein_check(TWO_POINT, "d0", "t2", 0.1)
        assert adm.stein_check(TWO_POINT, "d0", "t2", "1/10").eps == F(1, 10)

    def test_a_finite_eps_grid_is_only_a_necessary_condition(self):
        # d4 is dominated, yet it passes Stein's test at every theta for
        # eps = 1, 1/10, 1/100 and fails only from 1/1000 on: Stein's
        # condition needs every eps > 0, and no finite grid stands in for it
        p = DecisionProblem(("t1", "t2", "t3"), ("d1", "d2", "d3", "d4"),
                            ((1, F(1, 8), F(1, 2), F(5, 8)),
                             (F(3, 8), F(1, 4), 0, F(1, 8)),
                             (F(1, 8), 1, 1, F(3, 4))))
        hull = adm.dominated_in_hull(p, "d4")
        assert hull.dominated and hull.improvement == F(1, 112)
        assert hull.mixture.weights == {"d1": F(2, 7), "d2": F(1, 14), "d3": F(9, 14)}
        assert isinstance(adm.positive_prior_certificate(p, "d4"), adm.NoPositivePrior)
        for eps, feasible in ((1, True), (F(1, 10), True), (F(1, 100), True),
                              (F(1, 1000), False)):
            for t in p.theta_labels:
                assert adm.stein_check(p, "d4", t, eps).feasible is feasible, (eps, t)


def _equality_stein(p, d0, t0, eps):
    """(feasible, theta0_weight, excess) of the Stein LP written with
    sum(pi) == 1, by the Fraction kernel: infeasible or optimum 0 fails."""
    j0, i0, nt = p.proc_index(d0), p.theta_index(t0), len(p.theta_labels)
    rows = [[r[j0] - r[j] - (eps if i == i0 else 0) for i, r in enumerate(p.risk)]
            for j in range(len(p.proc_labels)) if j != j0]
    res = fraction_simplex.solve_lp([F(i == i0) for i in range(nt)], A_ub=rows,
                                    b_ub=[0] * len(rows), A_eq=[[1] * nt], b_eq=[1])
    if res.status == "infeasible" or res.objective == 0:
        return False, None, None
    prior = Prior(dict(zip(p.theta_labels, res.x)))
    base = bayes_risk(p, prior, d0)
    return True, res.objective, max(base - bayes_risk(p, prior, d) for d in p.proc_labels)


def _equality_dominance(p, d0):
    """(dominated, improvement) of the dominance LP over all weights lambda
    with sum(lambda) == 1, by the Fraction kernel."""
    j0, nt, nd = p.proc_index(d0), len(p.theta_labels), len(p.proc_labels)
    rows = [list(r) + [F(k == i) for k in range(nt)] for i, r in enumerate(p.risk)]
    res = fraction_simplex.solve_lp([0] * nd + [1] * nt, A_ub=rows,
                                    b_ub=[r[j0] for r in p.risk],
                                    A_eq=[[1] * nd + [0] * nt], b_eq=[1])
    return res.objective > 0, res.objective


_grid_risks = st.integers(1, 4).flatmap(lambda nt: st.integers(1, 4).flatmap(
    lambda nd: st.lists(st.lists(st.integers(0, 8).map(lambda v: F(v, 8)),
                                 min_size=nd, max_size=nd), min_size=nt, max_size=nt)))


@settings(max_examples=300, deadline=None)
@given(_grid_risks, st.integers(0, 3), st.integers(0, 3),
       st.sampled_from((F(1), F(1, 10), F(1, 100), F(1, 7), F(1, 1000))))
def test_stein_and_dominance_match_equality_formulations(risk, k, i, eps):
    # the LPs start from their slack basis (sum(pi) <= 1; the competitors'
    # weights only), and their optima must be those of the sum == 1 forms
    p = DecisionProblem(tuple(f"t{n}" for n in range(len(risk))),
                        tuple(f"d{n}" for n in range(len(risk[0]))), risk)
    d0, t0 = p.proc_labels[k % len(p.proc_labels)], p.theta_labels[i % len(p.theta_labels)]
    s = adm.stein_check(p, d0, t0, eps)
    assert (s.feasible, s.theta0_weight, s.excess) == _equality_stein(p, d0, t0, eps)
    h = adm.dominated_in_hull(p, d0)
    assert (h.dominated, h.improvement) == _equality_dominance(p, d0)


def test_stein_and_dominance_lps_skip_phase_one(monkeypatch):
    # every row of both LPs is a.x <= b with b >= 0: one Bland loop per LP.
    # Both pack their own rows and call the kernel's private entry
    runs, real, kind = [], simplex._run_simplex, ["dominance"]

    def spy(*args):
        runs[-1][1] += 1
        return real(*args)

    def counted(*args, **kwargs):
        runs.append([kind[0], 0])
        return simplex._solve_packed(*args, **kwargs)

    monkeypatch.setattr(simplex, "_run_simplex", spy)
    monkeypatch.setattr(adm, "_solve_packed", counted)
    dominated = infeasible = checks = 0
    for seed in range(20):
        p = random_problem(1 + seed % 5, 1 + seed % 6, seed)
        for j, d in enumerate(p.proc_labels):
            kind[0] = "dominance"
            dominated += adm._dominance_lp(p, j)[1] is not None
            kind[0] = "stein"
            for t in p.theta_labels:
                infeasible += not adm.stein_check(p, d, t, F(1, 100)).feasible
                checks += 1
    assert dominated and infeasible  # both verdicts were reached
    assert [kind for kind, _ in runs].count("stein") == checks > 100
    assert len(runs) > checks and {loops for _, loops in runs} == {1}


def _s_column_dominance(p, d0):
    """(dominated, improvement) of the dominance LP in the form it replaced,
    by the Fraction kernel: the competitors' weights mu and one slack s_theta
    per parameter, max sum(s) subject to
    sum_j mu_j (r(theta, j) - r(theta, d0)) + s_theta <= 0 and sum(mu) <= 1."""
    j0, nt = p.proc_index(d0), len(p.theta_labels)
    cols = [j for j in range(len(p.proc_labels)) if j != j0]
    rows = [[r[j] - r[j0] for j in cols] + [F(k == i) for k in range(nt)]
            for i, r in enumerate(p.risk)]
    rows.append([1] * len(cols) + [0] * nt)
    res = fraction_simplex.solve_lp([0] * len(cols) + [1] * nt, A_ub=rows, b_ub=[0] * nt + [1])
    return res.objective > 0, res.objective


def _same_as_s_column_dominance(p):
    for j0, d0 in enumerate(p.proc_labels):
        h = adm.dominated_in_hull(p, d0)
        assert (h.dominated, h.improvement) == _s_column_dominance(p, d0), d0
        if h.dominated:
            # the mixture is nowhere worse than d0, and better by the improvement in total
            slack = [r[j0] - mixture_risk(p, t, h.mixture) for t, r in zip(p.theta_labels, p.risk)]
            assert min(slack) >= 0 and sum(slack) == h.improvement > 0


def _with_planted(p, rng):
    """p and one more procedure: the uniform mixture of some of its procedures,
    one grid step worse at one parameter, so a mixture dominates it."""
    some = rng.sample(range(len(p.proc_labels)), rng.randint(1, len(p.proc_labels)))
    i0, step = rng.randrange(len(p.theta_labels)), F(1, p.den)
    risk = [list(r) + [sum(r[j] for j in some) / len(some) + (step if i == i0 else 0)]
            for i, r in enumerate(p.risk)]
    return DecisionProblem(p.theta_labels, p.proc_labels + ("planted",), risk)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 10**6),
       st.sampled_from((8, 97, 10**6)), st.booleans())
def test_dominance_lp_matches_the_s_column_form(n_theta, n_proc, seed, grid, plant):
    # the LP over the competitors' weights alone has the s-column form's
    # optimum: the same verdict and improvement, with a dominating mixture
    p = random_problem(n_theta, n_proc, seed, grid)
    _same_as_s_column_dominance(_with_planted(p, random.Random(seed)) if plant else p)


@pytest.mark.parametrize("delta", (1, -1))
def test_s_column_cross_check_sees_a_cost_off_by_one(delta):
    # the first competitor's cost coefficient in the dominance LP off by one
    # (the risk-equal LP, with equality rows only, is left alone): the
    # cross-check, or the dominance LP's own improvement re-check, fails on
    # some problem
    def off_by_one(rows, rhs, n_le, cost, T, W, *rest):
        if n_le:
            # delta0's column is all zero; a competitor's holds den in the mass row
            k = next(k for k, v in enumerate(fraction_simplex.fields(rows[-1], len(cost), W)) if v)
            cost = cost[:k] + [cost[k] + delta] + cost[k + 1:]
        return simplex._solve_packed(rows, rhs, n_le, cost, T, W, *rest)
    failed = 0
    for seed in range(20):
        p = _with_planted(random_problem(3, 4, seed), random.Random(seed))
        with mock.patch.object(adm, "_solve_packed", off_by_one):
            try:
                _same_as_s_column_dominance(p)
            except (AssertionError, RuntimeError):
                failed += 1
    assert failed
    # the d0 = (1, 1), d1 = (1, 0) case: c = [1], and c = [0] reads as not dominated
    tied = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 1), (1, 0)))
    with mock.patch.object(adm, "_solve_packed", off_by_one), \
            pytest.raises(AssertionError if delta < 0 else RuntimeError):
        _same_as_s_column_dominance(tied)


def test_large_entry_hull_verdicts_are_pinned():
    # 12x12 on the 10**-6 grid: no procedure is dominated; a 13th, the
    # midpoint of d1 and d2 made worse by 10**-6 at t1, is, by that midpoint
    p = random_problem(12, 12, 77, 10**6)
    hulls = [adm.dominated_in_hull(p, d) for d in p.proc_labels]
    assert [(h.dominated, h.improvement) for h in hulls] == [(False, 0)] * 12
    risk = [list(r) + [(r[0] + r[1]) / 2 + F(i == 0, 10**6)] for i, r in enumerate(p.risk)]
    q = DecisionProblem(p.theta_labels, p.proc_labels + ("d13",), risk)
    h = adm.dominated_in_hull(q, "d13")
    assert (h.dominated, h.improvement) == (True, F(1, 10**6))
    assert h.mixture.weights == {"d1": F(1, 2), "d2": F(1, 2)}


def _list_stein(p, d0, t0, eps, solve):
    """stein_check's SteinResult from its LP written as lists and solved by
    solve: _bayes_rows times q, den * a off theta0's field, and the mass row,
    for eps = a / q; the excess recomputed by bayes_risk."""
    j0, i0, nt = p.proc_index(d0), p.theta_index(t0), len(p.theta_labels)
    a, q = eps.numerator, eps.denominator
    rows = [[q * v for v in row] for row in adm._bayes_rows(p, j0)]
    for row in rows:
        row[i0] -= p.den * a
    res = solve([int(i == i0) for i in range(nt)], A_ub=rows + [[p.den * q] * nt],
                b_ub=[0] * len(rows) + [p.den * q])
    if res.objective == 0:
        return adm.SteinResult(d0, t0, eps, False, None, None, None, None, res.iterations)
    prior = Prior(dict(zip(p.theta_labels, res.x)))
    base = bayes_risk(p, prior, d0)
    excess = max(base - bayes_risk(p, prior, d) for d in p.proc_labels)
    return adm.SteinResult(d0, t0, eps, True, prior, res.objective, excess,
                           eps * res.objective, res.iterations)


class _PackedStein:
    """Spies the private entry that stein_check calls: T must bound every
    field and rhs of the rows it packed; counts the LPs where T is the least
    bound."""

    def __init__(self):
        self.lps = self.tight = 0
        self.real = simplex._solve_packed

    def __call__(self, rows, rhs, n_le, cost, T, W, *args):
        top = max(map(abs, [v for x in rows for v in fraction_simplex.fields(x, len(cost), W)]
                      + rhs))
        assert top < 2 ** T
        self.lps += 1
        self.tight += top >= 2 ** (T - 1)
        return self.real(rows, rhs, n_le, cost, T, W, *args)


def _same_as_list_stein(p, eps, solve=simplex.solve_lp):
    spy = _PackedStein()
    with mock.patch.object(adm, "_solve_packed", spy):
        for d in p.proc_labels:
            for t in p.theta_labels:
                assert adm.stein_check(p, d, t, eps) == _list_stein(p, d, t, eps, solve), (d, t)
    assert spy.lps == len(p.proc_labels) * len(p.theta_labels)
    return spy


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 10**6),
       st.sampled_from((8, 97, 10**6)),
       st.sampled_from((F(1), F(1, 10), F(1, 7), F(3, 1000), F(1, 10**9 + 7),
                        F(5, 2**61 - 1))))
@example(3, 1, 0, 8, F(1, 100))  # a single procedure: the mass row alone
def test_packed_stein_lp_matches_the_list_form(n_theta, n_proc, seed, grid, eps):
    # the rows packed from the risk columns are the list form's rows, field
    # for field, and T bounds them: same SteinResult, prior and pivots included
    _same_as_list_stein(random_problem(n_theta, n_proc, seed, grid), eps)


def test_packed_stein_lp_repacks_and_reads_the_new_rows():
    # entries near 2**50 outgrow the first width on the first pivot, so the
    # kernel packs its rows again; the results must come from those rows,
    # which the Fraction-tableau kernel, sharing no code with it, confirms
    repacks, real = [], simplex._repack

    def spy(tab, W):
        repacks.append(W)
        return real(tab, W)
    with mock.patch.object(simplex, "_repack", spy):
        packed = _same_as_list_stein(random_problem(4, 6, 3, 10**6), F(1, 10**9 + 7),
                                     fraction_simplex.solve_lp)
    assert repacks and packed.tight  # and T is the least bound on some LP


class TestDeterminingFamily:
    def test_singletons_always_pass(self):
        for seed in range(20):
            p = random_problem(3, 4, seed=seed)
            fam = [(t,) for t in p.theta_labels]
            assert adm.determining_family_check(p, fam).ok

    def test_whole_theta_fails_on_crossing_risks(self):
        r = adm.determining_family_check(TWO_POINT, [("t1", "t2")])
        assert not r.ok
        assert ("d0", "d1") in r.failures and ("d1", "d0") in r.failures

    def test_empty_family_with_improving_pair(self):
        p = DecisionProblem(("t1",), ("d0", "d1"), ((0, 1),))
        assert not adm.determining_family_check(p, []).ok

    def test_empty_family_without_improving_pair(self):
        p = DecisionProblem(("t1",), ("d0", "d1"), ((1, 1),))
        assert adm.determining_family_check(p, []).ok

    def test_rejects_empty_member(self):
        with pytest.raises(ValueError, match="empty"):
            adm.determining_family_check(TWO_POINT, [()])

    def test_reports_gaps(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 0), (1, F(1, 2))))
        r = adm.determining_family_check(p, [("t1",), ("t2",), ("t1", "t2")])
        assert r.ok
        (pair,) = r.pairs
        assert pair[:3] == ("d0", "d1", F(1))  # best gap is at the singleton {t1}


def _reference_dominates(p, j1, j0):
    """dominates over the Fraction risks p.risk."""
    pairs = [(row[j1], row[j0]) for row in p.risk]
    return all(a <= b for a, b in pairs) and any(a < b for a, b in pairs)


def _reference_family_check(p, family):
    """(ok, pairs, failures) of determining_family_check over p.risk: per
    improving pair, the first member with the largest least gap."""
    pairs, failures = [], []
    for j0, d0 in enumerate(p.proc_labels):
        for j1, d1 in enumerate(p.proc_labels):
            if j1 == j0 or not any(row[j1] < row[j0] for row in p.risk):
                continue
            gaps = [min(p.risk[p.theta_index(t)][j0] - p.risk[p.theta_index(t)][j1]
                        for t in B) for B in family]
            if gaps and max(gaps) > 0:
                pairs.append((d0, d1, max(gaps), gaps.index(max(gaps))))
            else:
                failures.append((d0, d1))
    return not failures, tuple(pairs), tuple(failures)


_mixed_risks = st.integers(1, 5).flatmap(lambda nt: st.integers(1, 5).flatmap(
    lambda nd: st.lists(st.lists(st.fractions(-2, 2, max_denominator=12),
                                 min_size=nd, max_size=nd), min_size=nt, max_size=nt)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mixed_risks,
                 st.builds(lambda nt, nd, seed, grid: random_problem(nt, nd, seed, grid).risk,
                           st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6),
                           st.sampled_from((1, 2, 8, 97)))),
       st.data())
def test_int_checkers_match_the_fraction_reference(risk, data):
    # dominates, the pure admissible set and the family check read irisk;
    # their verdicts and gaps are those of the Fraction risks
    p = DecisionProblem(tuple(f"t{i}" for i in range(len(risk))),
                        tuple(f"d{j}" for j in range(len(risk[0]))), risk,
                        allow_mixtures=False)
    family = data.draw(st.lists(st.lists(st.sampled_from(p.theta_labels), min_size=1,
                                         unique=True), max_size=4))
    r = adm.determining_family_check(p, family)
    assert (r.ok, r.pairs, r.failures) == _reference_family_check(p, family)
    assert all(type(gap) is F for _, _, gap, _ in r.pairs)
    n = len(p.proc_labels)
    for j1, d1 in enumerate(p.proc_labels):
        for j0, d0 in enumerate(p.proc_labels):
            assert adm.dominates(p, d1, d0) == _reference_dominates(p, j1, j0)
    assert adm.admissible_set(p) == {d0 for j0, d0 in enumerate(p.proc_labels)
                                     if not any(_reference_dominates(p, j1, j0)
                                                for j1 in range(n) if j1 != j0)}


class TestNsStein:
    def test_balanced_improvement_has_zero_excess(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (0, -1)))
        pi = Prior({"t1": ONE - EPS, "t2": EPS})
        r = adm.ns_stein_check(p, "d0", pi, ("t1",), F(1, 2))
        assert r.ok and r.excess == LCNumber.zero()

    def test_macroscopic_excess_fails_infinitesimal_bound(self):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 0), (1, 0)))
        pi = Prior({"t1": ONE - EPS, "t2": EPS})
        r = adm.ns_stein_check(p, "d0", pi, ("t2",), F(1, 10))
        assert not r.ok and r.excess == ONE and r.bound == EPS * F(1, 10)

    def test_real_dirac_prior_where_bayes(self):
        r = adm.ns_stein_check(TWO_POINT, "d0", Prior.dirac("t1"), ("t1",), F(1, 100))
        assert r.ok and r.excess == LCNumber.zero()

    def test_validates_inputs(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        with pytest.raises(ValueError, match="eps"):
            adm.ns_stein_check(TWO_POINT, "d0", pi, ("t1",), F(-1))
        with pytest.raises(ValueError, match="nonempty"):
            adm.ns_stein_check(TWO_POINT, "d0", pi, (), F(1))

    def test_a_repeated_label_is_rejected(self):
        # excess 1/4 over the bound prior(t1) * eps = 1/6; counting t1 twice
        # would raise the bound to 1/3 and pass
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 0), (0, F(1, 2))))
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        r = adm.ns_stein_check(p, "d0", pi, ("t1",), F(1, 3))
        assert not r.ok
        assert r.excess == LCNumber.from_real(F(1, 4)) and r.bound == LCNumber.from_real(F(1, 6))
        with pytest.raises(ValueError, match="repeats parameter label 't1'"):
            adm.ns_stein_check(p, "d0", pi, ("t1", "t1"), F(1, 3))
        with pytest.raises(ValueError, match="repeats parameter label 't1'"):
            adm.ns_blyth_check(p, "d0", pi, F(1, 2), [("t2",), ("t1", "t1")])

    def test_float_eps_is_rejected(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        with pytest.raises(TypeError, match="exact rational"):
            adm.ns_stein_check(TWO_POINT, "d0", pi, ("t1",), 0.1)


# risk columns d0=(0,0,1), d1=(0,0,0): the excess under a hyper prior equals
# the prior weight at t3
LADDER = DecisionProblem(("t1", "t2", "t3"), ("d0", "d1"), ((0, 0), (0, 0), (1, 0)))


class TestNsBlyth:
    def test_zero_excess_with_certificate_prior(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        r = adm.ns_blyth_check(TWO_POINT, "d0", pi, F(1, 2), [("t1",), ("t2",)])
        assert r.ok and r.excess == LCNumber.zero()

    def test_square_excess_over_linear_rho(self):
        pi = Prior({"t1": ONE - EPS - EPS * EPS, "t2": EPS, "t3": EPS * EPS})
        r = adm.ns_blyth_check(LADDER, "d0", pi, EPS, [("t2",)])
        assert r.ok and r.ratio_ok
        assert r.excess == EPS * EPS
        assert r.constants == {("t2",): 2}

    def test_linear_excess_over_square_rho_fails(self):
        pi = Prior({"t1": ONE - EPS - EPS * EPS, "t2": EPS * EPS, "t3": EPS})
        r = adm.ns_blyth_check(LADDER, "d0", pi, EPS * EPS, [("t2",)])
        assert not r.ok and r.mass_ok and not r.ratio_ok
        assert r.excess == EPS

    def test_mass_condition_fails_when_rho_too_large(self):
        pi = Prior({"t1": ONE - EPS - EPS * EPS, "t2": EPS, "t3": EPS * EPS})
        r = adm.ns_blyth_check(LADDER, "d0", pi, ONE, [("t2",)])
        assert not r.ok and not r.mass_ok

    def test_family_monotone_under_supersets(self):
        # enlarging each member can only increase its prior mass
        for seed in range(15):
            p = random_problem(4, 4, seed=seed)
            for d in p.proc_labels:
                c = adm.positive_prior_certificate(p, d)
                if not isinstance(c, adm.Certificate):
                    continue
                singles = [(t,) for t in p.theta_labels]
                supers = [tuple(p.theta_labels[:i + 1]) for i in range(len(p.theta_labels))]
                if adm.ns_blyth_check(p, d, c.prior, c.min_weight, singles).ok:
                    assert adm.ns_blyth_check(p, d, c.prior, c.min_weight, supers).ok

    def test_rho_must_be_positive(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        with pytest.raises(ValueError, match="positive"):
            adm.ns_blyth_check(TWO_POINT, "d0", pi, 0, [("t1",)])

    def test_float_rho_is_rejected(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        with pytest.raises(TypeError, match="exact rational"):
            adm.ns_blyth_check(TWO_POINT, "d0", pi, 0.1, [("t1",)])


@st.composite
def _lc_positive(draw, max_exp=2):
    """A positive Levi-Civita number with up to three terms."""
    e = draw(st.integers(0, max_exp))
    terms = {e: draw(st.fractions(F(1, 8), 4, max_denominator=8))}
    for k in draw(st.lists(st.integers(e + 1, e + 4), max_size=2, unique=True)):
        terms[k] = draw(st.fractions(-3, 3, max_denominator=5))
    return LCNumber(terms)


@st.composite
def _blyth_inputs(draw):
    nt, nd = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    p = random_problem(nt, nd, draw(st.integers(0, 10**6)))
    # weight c * eps^e (e >= 1) on every theta but the first, the rest on it
    rest = {t: draw(st.integers(1, 3)) * LCNumber.eps(draw(st.integers(1, 4)))
            for t in p.theta_labels[1:]}
    prior = Prior({p.theta_labels[0]: ONE - sum(rest.values(), LCNumber.zero()), **rest})
    d = draw(st.sampled_from(p.proc_labels))
    if draw(st.booleans()):
        # plant a positive infinitesimal excess: d takes the first row's minimum,
        # shared with a competitor that is nowhere worse after it and strictly
        # better at theta k, so the excess is made of eps terms only
        j0 = p.proc_index(d)
        j1, k = (j0 + 1) % nd, draw(st.integers(1, nt - 1))
        risk = [list(row) for row in p.risk]
        risk[0][j0] = risk[0][j1] = min(risk[0])
        for i in range(1, nt):
            risk[i][j0] = max(risk[i][j0], risk[i][j1] + (F(1, 8) if i == k else 0))
        p = DecisionProblem(p.theta_labels, p.proc_labels, risk)
    return p, d, prior, draw(_lc_positive())


@settings(max_examples=200, deadline=None)
@given(_blyth_inputs())
@example((TWO_POINT, "d1", Prior({"t1": ONE - EPS, "t2": EPS}), EPS + EPS * EPS))
@example((LADDER, "d0", Prior({"t1": ONE - EPS - EPS * EPS, "t2": EPS, "t3": EPS * EPS}),
          EPS + EPS * EPS))
def test_ns_blyth_ratio_ok_needs_no_division(case):
    # rho need not divide the excess: the verdict is read off leading terms
    p, d, prior, rho = case
    family = [(t,) for t in p.theta_labels[1:]]
    r = adm.ns_blyth_check(p, d, prior, rho, family)
    excess = r.excess
    assert r.ratio_ok == (excess.sign() <= 0
                          or excess.leading_exponent() > rho.leading_exponent())
    # (a) is read off leading exponents too; each chosen C meets its definition
    def mass(B):
        return sum((prior.weight(t) for t in B), LCNumber.zero())
    for B, C in r.constants.items():
        assert compare(rho, mass(B) * C) <= 0
    assert r.mass_ok == all(not mass(B).is_zero()
                            and mass(B).leading_exponent() <= rho.leading_exponent()
                            for B in family)
    # a monomial c eps^k divides every excess exactly, so there ratio_ok
    # meets its definition, excess / rho <~ 0
    mono = LCNumber({rho.leading_exponent(): rho.leading_coefficient()})
    r = adm.ns_blyth_check(p, d, prior, mono, family)
    assert r.ratio_ok == approx_leq(r.excess / mono, LCNumber.zero())


def test_ns_blyth_ratio_example():
    # the pinned case above: rho = eps + eps^2 does not divide the excess
    # 1 - 2eps, whose quotient would be the series eps^-1 - 3 + 3eps - ...
    rho = EPS + EPS * EPS
    r = adm.ns_blyth_check(TWO_POINT, "d1", Prior({"t1": ONE - EPS, "t2": EPS}),
                           rho, [("t2",)])
    assert not r.ratio_ok and r.excess == 1 - 2 * EPS
    with pytest.raises(ArithmeticError, match="does not divide"):
        r.excess / rho


class TestSoundnessTriangle:
    def test_equivalence_on_random_sample(self):
        eps_grid = [F(1), F(1, 10), F(1, 100)]
        for seed in range(30):
            rng = random.Random(seed)
            p = random_problem(rng.randint(1, 5), rng.randint(1, 5), seed=seed)
            for d in p.proc_labels:
                admissible = not adm.dominated_in_hull(p, d).dominated
                cert = adm.positive_prior_certificate(p, d)
                cert_ok = isinstance(cert, adm.Certificate)
                stein_all = all(adm.stein_check(p, d, t, e).feasible
                                for t in p.theta_labels for e in eps_grid)
                blyth = (adm.ns_blyth_check(p, d, cert.prior, cert.min_weight,
                                            [(t,) for t in p.theta_labels]).ok
                         if cert_ok else False)
                assert admissible == cert_ok == stein_all == blyth, (seed, d)


# Under ``python -O`` an ``assert`` is stripped, so each re-check of an LP
# result must raise by itself.  The probe swaps in an LP kernel whose optimum
# is off by one and expects every checker to refuse it.
_OPTIMIZED_PROBE = textwrap.dedent("""
    import dataclasses, sys
    from fractions import Fraction
    from admlab import admissibility, game, simplex
    from admlab.decision import DecisionProblem

    def corrupted(solve):
        def corrupt(*args, **kwargs):
            res = solve(*args, **kwargs)
            if res.objective is None:
                return res
            return dataclasses.replace(res, objective=res.objective + 1)
        return corrupt

    # these checkers and the game pack their own rows and call the
    # kernel's private entry; only the forced-zero LP goes through solve_lp
    admissibility.solve_lp = corrupted(simplex.solve_lp)
    admissibility._solve_packed = game._solve_packed = corrupted(simplex._solve_packed)
    p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))
    print("optimize", sys.flags.optimize)
    for name, call in [("dominated_in_hull", lambda: admissibility.dominated_in_hull(p, "d0")),
                       ("derived_game_value",
                        lambda: game.derived_game_value(p, "d0", "t1", Fraction(1, 2))),
                       ("stein_check", lambda: admissibility.stein_check(p, "d0", "t1", 1)),
                       ("positive_prior_certificate",
                        lambda: admissibility.positive_prior_certificate(p, "d0"))]:
        try:
            call()
            print(name, "accepted")
        except RuntimeError as exc:
            print(name, "RuntimeError", exc)
""")


class TestReverificationUnderOptimize:
    def test_src_has_no_assert_statement(self):
        # python -O strips every assert, so no check in admlab may be one
        root = Path(adm.__file__).resolve().parent
        found = [f"{path.relative_to(root)}:{node.lineno}"
                 for path in sorted(root.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_corrupted_lp_results_raise_under_python_O(self):
        src = str(Path(adm.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "optimize 1"
        assert lines[1].startswith("dominated_in_hull RuntimeError")
        assert lines[2].startswith("derived_game_value RuntimeError")
        assert lines[3].startswith("stein_check RuntimeError")
        assert lines[4].startswith("positive_prior_certificate RuntimeError")

    def test_moved_lp_solutions_raise_under_python_O(self):
        src = str(Path(adm.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-O", "-c", _MOVED_SOLUTION_PROBE],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == _MOVED_SOLUTION_LINES

    def test_every_runtime_guard_has_a_moved_solution_case(self):
        # each RuntimeError's message, up to its first formatted value, must
        # be one that a _MOVED_SOLUTION_PROBE case provokes: a new guard with
        # no case fails here, and its re-check would otherwise go untested
        root = Path(adm.__file__).resolve().parent
        missing, guards = [], 0
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "RuntimeError"):
                    continue
                guards += 1
                msg = node.args[0] if node.args else None
                if isinstance(msg, ast.JoinedStr):
                    msg = msg.values[0]
                text = msg.value if isinstance(msg, ast.Constant) else None
                if not (isinstance(text, str) and text.strip()
                        and any(f"RuntimeError {text}" in line
                                for line in _MOVED_SOLUTION_LINES)):
                    missing.append(f"{path.relative_to(root)}:{node.lineno} {text!r}")
        assert guards and missing == []


# What each _MOVED_SOLUTION_PROBE case prints under python -O, in case order.
_MOVED_SOLUTION_LINES = [
    "optimize 1",
    "stein_check RuntimeError stein prior failed independent re-verification",
    "dominating mixture RuntimeError dominating mixture failed independent "
    "re-verification",
    "hull improvement RuntimeError dominating mixture failed independent "
    "re-verification",
    "risk-equal mixture RuntimeError risk-equal mixture failed independent "
    "re-verification",
    "game mixture side RuntimeError mixture-side game optimum failed independent "
    "re-verification",
    "game prior side RuntimeError prior-side game optimum failed independent "
    "re-verification",
    "forced-zero pi RuntimeError forced-zero LP failed independent re-verification",
    "certificate t RuntimeError certificate failed independent re-verification",
    "certificate s level RuntimeError certificate failed independent "
    "re-verification",
    "hull positive gap RuntimeError dominating mixture failed independent "
    "re-verification",
    "certificate prior RuntimeError LP solution is not a valid prior: "
    "prior weight for t1 is negative: -1/2",
    "stein prior RuntimeError LP solution is not a valid prior: "
    "prior weight for t1 is negative: -1",
    "stein prior short of 1 RuntimeError LP solution is not a valid prior: "
    "prior weights must sum to exactly 1, got 1/2",
    "hull mixture RuntimeError LP solution is not a valid mixture: "
    "mixture weights must sum to exactly 1",
    "hull mixture past 1 RuntimeError LP solution is not a valid mixture: "
    "mixture weights must sum to exactly 1",
    "game mixture RuntimeError LP solution is not a valid mixture: "
    "mixture weights must sum to exactly 1",
    "game prior RuntimeError LP solution is not a valid prior: "
    "prior weight for t1 is negative: -1",
    "witness margin RuntimeError witness margin failed independent re-verification",
    "witness refusal RuntimeError witness restriction mixture failed independent "
    "re-verification",
    "witness dual prior returned False None",
    "witness suboptimal dual prior returned False 1",
    "witness negative dual prior returned False None",
    "hull weight on delta0 RuntimeError dominating mixture failed independent "
    "re-verification",
    "risk-equal weight on delta0 RuntimeError LP solution is not a valid mixture: "
    "mixture weights must sum to exactly 1",
    "witness weight on delta0 RuntimeError LP solution is not a valid mixture: "
    "mixture weights must sum to exactly 1",
    "certificate objective RuntimeError certificate failed independent "
    "re-verification",
    "certificate least weight RuntimeError certificate failed independent "
    "re-verification",
    "game mixture side, negative risks RuntimeError mixture-side game optimum failed "
    "independent re-verification",
    "hull LP infeasible RuntimeError dominance LP unexpectedly infeasible",
    "stein LP infeasible RuntimeError stein LP unexpectedly infeasible",
    "witness LP infeasible RuntimeError witness restriction LP unexpectedly infeasible",
    "game LP infeasible RuntimeError mixture-side game LP unexpectedly infeasible",
    "forced-zero LP unbounded RuntimeError forced-zero LP unexpectedly unbounded",
    "stein objective RuntimeError stein LP objective differs from its prior's "
    "weight at theta0",
]


# Each case moves the LP's solution num / D, or its duals ynum, off the
# feasible set or off the optimum (keeping a valid prior or mixture, and an
# objective consistent with it), or claims an objective that its valid point
# does not reach, so only the integer re-check against the problem's risks
# can catch it.  A witness set is still returned, with
# validated False and its validation_value.
_MOVED_SOLUTION_PROBE = textwrap.dedent("""
    import dataclasses, sys
    from fractions import Fraction as F
    from admlab import admissibility, game, simplex
    from admlab.decision import DecisionProblem

    p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))
    # d0 = (1, 1) against d1 = (0, 3) and d2 = (3, 0): the witness set is
    # {t1, t2} with margin 1/2, and its dual prior is the uniform one
    three = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"), ((1, 0, 3), (1, 3, 0)))
    # d0 is Bayes only under the Dirac prior at t1: t2 is forced to zero
    tied = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 1), (1, 0)))
    # d0 is Bayes iff pi(t1) >= 10 pi(t2): the certificate is (10/11, 1/11)
    ten = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (0, -10)))
    negated = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, -1), (-1, 0)))
    uneven = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((2, 3), (2, 0)))
    # the dominance LP has <= rows, the risk-equal LP none
    has_ub = lambda args: args[2] > 0
    moved = lambda res, num, D, objective: dataclasses.replace(res, num=num, D=D,
                                                               objective=objective)
    infeasible = simplex.LPResult("infeasible", None, None, None, 0)

    def witnessed(q):
        w = admissibility.witness_set(q, "d0")
        return f"{w.validated} {w.validation_value}"

    cases = [
        # pi = (1/4, 3/4): excess 1/2 > eps * pi(t1) = 1/400
        ("stein_check",
         lambda res, a: moved(res, [1, 3], 4, F(1, 4)),
         lambda: admissibility.stein_check(p, "d0", "t1", F(1, 100))),
        # the dominance LP's variables are [mu_d0, mu_d1], d0's column all
        # zero and d0 weighted 1 - mu_d1: d1 itself, with total slack 1
        # claimed, although d1 is worse than d0 at t1
        ("dominating mixture",
         lambda res, a: moved(res, [0, 1], 1, F(1)) if has_ub(a) else res,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # on tied, d1 = (1, 0) dominates d0 = (1, 1) with total slack 1: the
        # LP's mixture is kept, and its optimum claimed as 2
        ("hull improvement",
         lambda res, a: moved(res, res.num, res.D, res.objective + 1) if has_ub(a) else res,
         lambda: admissibility.dominated_in_hull(tied, "d0")),
        # d1 claimed risk-equal to d0, although its risks are swapped
        ("risk-equal mixture",
         lambda res, a: res if has_ub(a) else simplex.LPResult("optimal", F(0), [0, 1], 1, 0),
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # payoff at gamma = 1/2 is ((0, 3/2), (0, 1/2)): the mixture d1 with
        # v = 1/2 claimed, although its payoff at t1 is 3/2
        ("game mixture side",
         lambda res, a: moved(res, [0, 2, 1], 2, F(1, 2)),
         lambda: game.derived_game_value(p, "d0", "t1", F(1, 2))),
        # against d1 at t1 the payoff is ((-3/2, 0), (-1/2, 0)), of value
        # -1/2 at the prior on t2; the uniform prior as the duals is a valid
        # prior whose worst payoff is -1, so it is no optimal one
        ("game prior side",
         lambda res, a: dataclasses.replace(res, ynum=[1, 1]),
         lambda: game.derived_game_value(p, "d1", "t1", F(1, 2))),
        # the forced-zero LP's variables are [y_t1, y_t2, z_t1, z_t2], its
        # prior y + z: y_t2 moves up by 1, onto t2, where z is 0 and d1 beats d0
        ("forced-zero pi",
         lambda res, a: moved(res, [res.num[0], res.num[1] + res.D] + res.num[2:], res.D,
                              res.objective),
         lambda: admissibility.positive_prior_certificate(tied, "d0")),
        # the certificate LP's variables are [s_t1, s_t2, t], its prior s + t;
        # on ten its optimum is num = [9, 0, 1] under D = 11.  Here only t's
        # level moves, 1 to 2 (D to 13, so s + t stays a prior): pi = (11/13,
        # 2/13), whose least weight is t, but under which d1 beats d0
        ("certificate t",
         lambda res, a: moved(res, [9, 0, 2], 13, F(2, 13)),
         lambda: admissibility.positive_prior_certificate(ten, "d0")),
        # only s_t1's level moves, 9 to 4 (D to 6): pi = (5/6, 1/6), d1 ahead again
        ("certificate s level",
         lambda res, a: moved(res, [4, 0, 1], 6, F(1, 6)),
         lambda: admissibility.positive_prior_certificate(ten, "d0")),
        # on uneven, d1 = (3, 0) against d0 = (2, 2): the mixture d1 with its
        # true total slack 1 claimed, although d1 is worse than d0 at t1
        ("hull positive gap",
         lambda res, a: moved(res, [0, 1], 1, F(1)) if has_ub(a) else res,
         lambda: admissibility.dominated_in_hull(uneven, "d0")),
        # the remaining cases give x a negative weight, so x is no prior or
        # mixture at all: a fault of the LP (exit 3), not of the input (exit 2);
        # here pi = (-2 + 1, 4 + 1) / 2
        ("certificate prior",
         lambda res, a: moved(res, [-2, 4, 1], 2, F(1, 2)),
         lambda: admissibility.positive_prior_certificate(p, "d0")),
        ("stein prior",
         lambda res, a: moved(res, [-1, 2], 1, F(-1)),
         lambda: admissibility.stein_check(p, "d0", "t1", F(1, 100))),
        # sum(pi) <= 1 is the Stein LP's row, but its optimum has sum(pi) == 1
        ("stein prior short of 1",
         lambda res, a: moved(res, [1, 1], 4, F(1, 4)),
         lambda: admissibility.stein_check(p, "d0", "t1", F(1, 100))),
        # mu_d1 = -1, so d0 is weighted 2
        ("hull mixture",
         lambda res, a: moved(res, [0, -1], 1, F(1)) if has_ub(a) else res,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # mu_d1 = 2 sums past 1, so d0's derived weight 1 - mu_d1 is -1
        ("hull mixture past 1",
         lambda res, a: moved(res, [0, 2], 1, F(1)) if has_ub(a) else res,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        ("game mixture",
         lambda res, a: moved(res, [-2, 4, 1], 2, F(1, 2)),
         lambda: game.derived_game_value(p, "d0", "t1", F(1, 2))),
        ("game prior",
         lambda res, a: dataclasses.replace(res, ynum=[-1, 2]),
         lambda: game.derived_game_value(p, "d1", "t1", F(1, 2))),
        # the restriction LP on {t1} claims margin 2 with v = 2, a feasible
        # but not optimal point: its mixture d1 loses to d0 at t1 by only 1
        # (v is the LP's last variable)
        ("witness margin",
         lambda res, a: moved(res, res.num[:-1] + [res.num[-1] + res.D], res.D,
                              res.objective + 1),
         lambda: admissibility.witness_set(p, "d0")),
        # the same LP claims v = -1 for lam = d1, whose gap at t1 is 1: the
        # margin reads as no separation, and lam ends it losing at t1
        ("witness refusal",
         lambda res, a: moved(res, res.num[:-1] + [res.num[-1] - 2 * res.D], res.D,
                              res.objective - 2),
         lambda: admissibility.witness_set(p, "d0")),
        # the witness set {t1} with duals that sum to 0: no prior at all
        ("witness dual prior",
         lambda res, a: dataclasses.replace(res, ynum=[0] * len(res.ynum)),
         lambda: witnessed(p)),
        # the prior on t1 alone: d1 beats d0 there, so the least gap is -1
        ("witness suboptimal dual prior",
         lambda res, a: dataclasses.replace(res, ynum=[1] + [0] * (len(res.ynum) - 1)),
         lambda: witnessed(three)),
        ("witness negative dual prior",
         lambda res, a: dataclasses.replace(res, ynum=[-1] + [2] * (len(res.ynum) - 1)),
         lambda: witnessed(three)),
        # the packed LPs keep delta0's column, all zero, in the hull, risk-equal
        # and witness LPs: weight there is delta0 itself, no competitor.  Here
        # the dominance LP weights d0 alone and claims total slack 1
        ("hull weight on delta0",
         lambda res, a: moved(res, [1, 0], 1, F(1)) if has_ub(a) else res,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # the risk-equal LP weights d0 alone, which matches d0's risks trivially
        ("risk-equal weight on delta0",
         lambda res, a: res if has_ub(a) else simplex.LPResult("optimal", F(0), [1, 0], 1, 0),
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # the restriction LP weights d0 alone, with v = 0
        ("witness weight on delta0",
         lambda res, a: moved(res, [1, 0, 0], 1, F(0)),
         lambda: admissibility.witness_set(p, "d0")),
        # on ten the optimum is t = 1/11 at num = [9, 0, 1] under D = 11; the
        # same point with the optimum claimed as 1/22
        ("certificate objective",
         lambda res, a: moved(res, res.num, res.D, res.objective / 2),
         lambda: admissibility.positive_prior_certificate(ten, "d0")),
        # on ten, pi = (21/23, 2/23) with t = 1/23 claimed: delta0 is Bayes
        # under pi, but its least weight is 2/23, not t
        ("certificate least weight",
         lambda res, a: moved(res, [20, 1, 1], 23, F(1, 23)),
         lambda: admissibility.positive_prior_certificate(ten, "d0")),
        # p with its risks negated: the payoff against d0 at t1, gamma = 1/2,
        # is ((0, -3/2), (0, -1/2)); the mixture d1 with v = 1/2 claimed,
        # although its worst payoff is -1/2
        ("game mixture side, negative risks",
         lambda res, a: moved(res, [0, 2, 1], 2, F(1, 2)),
         lambda: game.derived_game_value(negated, "d0", "t1", F(1, 2))),
        # each LP below is feasible and bounded by construction, so any
        # status but optimal is a fault of the kernel
        ("hull LP infeasible",
         lambda res, a: infeasible,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        ("stein LP infeasible",
         lambda res, a: infeasible,
         lambda: admissibility.stein_check(p, "d0", "t1", F(1, 100))),
        ("witness LP infeasible",
         lambda res, a: infeasible,
         lambda: admissibility.witness_set(p, "d0")),
        ("game LP infeasible",
         lambda res, a: infeasible,
         lambda: game.derived_game_value(p, "d0", "t1", F(1, 2))),
        ("forced-zero LP unbounded",
         lambda res, a: simplex.LPResult("unbounded", None, None, None, res.iterations),
         lambda: admissibility.positive_prior_certificate(tied, "d0")),
        # at eps = 1 the Stein optimum is the Dirac prior at t1, of weight 1
        # there; the same point with the optimum claimed as 2
        ("stein objective",
         lambda res, a: dataclasses.replace(res, objective=res.objective + 1),
         lambda: admissibility.stein_check(p, "d0", "t1", F(1))),
    ]
    print("optimize", sys.flags.optimize)
    for name, move, call in cases:
        # the forced-zero LP goes through solve_lp; every other checker, and
        # the game, packs its own rows and calls the kernel's private entry
        listed = name.startswith("forced-zero")
        solve = simplex.solve_lp if listed else simplex._solve_packed
        moving = lambda *a, move=move, solve=solve, **kw: move(solve(*a, **kw), a)
        admissibility.solve_lp = moving if listed else simplex.solve_lp
        admissibility._solve_packed = game._solve_packed = (
            simplex._solve_packed if listed else moving)
        try:
            print(name, "returned", call())
        except RuntimeError as exc:
            print(name, "RuntimeError", exc)
""")


def _random_weights(rng, labels):
    """Random rational convex weights over labels, some of them zero."""
    raw = [rng.choice((0, rng.randint(1, 40))) for _ in labels]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    return {label: F(v, sum(raw)) for label, v in zip(labels, raw)}


class TestIntegerRechecks:
    """The integer re-checks against the public Fraction and Levi-Civita routines as oracle."""

    def test_bayes_gaps_and_slacks_match_bayes_risk(self):
        for seed in range(60):
            rng = random.Random(seed)
            p = random_problem(rng.randint(1, 5), rng.randint(1, 5), seed,
                               rng.choice((8, 12, 97)))
            prior = Prior(_random_weights(rng, p.theta_labels))
            w, q = decision._int_weights([prior.weight(t) for t in p.theta_labels])
            assert [F(v, q) for v in w] == [prior.weight(t) for t in p.theta_labels]
            for j0, d0 in enumerate(p.proc_labels):
                gaps, n = decision._bayes_gaps(p, w, q, j0)
                base = bayes_risk(p, prior, d0)
                oracle = [bayes_risk(p, prior, d) - base for d in p.proc_labels]
                assert [F(g, n) for g in gaps] == oracle
                assert adm._slacks(p, w, q, j0) == dict(zip(p.proc_labels, oracle))

    def test_mixture_gaps_match_mixture_risk(self):
        for seed in range(60):
            rng = random.Random(seed)
            p = random_problem(rng.randint(1, 5), rng.randint(1, 5), seed,
                               rng.choice((8, 12, 97)))
            mix = Mixture(_random_weights(rng, p.proc_labels))
            w, q = decision._int_weights([mix.weights.get(d, F(0)) for d in p.proc_labels])
            for j0 in range(len(p.proc_labels)):
                gaps, n = decision._mixture_gaps(p, w, q, j0)
                oracle = [mixture_risk(p, t, mix) - p.risk[i][j0]
                          for i, t in enumerate(p.theta_labels)]
                assert [F(g, n) for g in gaps] == oracle

    def test_reported_excess_and_slacks_match_bayes_risk(self):
        eps_grid = (F(1), F(1, 10), F(1, 100))
        for seed in range(12):
            p = random_problem(2 + seed % 4, 2 + (seed * 7) % 4, seed, 97 if seed % 2 else 8)
            for d0 in p.proc_labels:
                cert = adm.positive_prior_certificate(p, d0)
                if isinstance(cert, adm.Certificate):
                    base = bayes_risk(p, cert.prior, d0)
                    assert cert.slacks == {d: bayes_risk(p, cert.prior, d) - base
                                           for d in p.proc_labels}
                for t in p.theta_labels:
                    for eps in eps_grid:
                        r = adm.stein_check(p, d0, t, eps)
                        if not r.feasible:
                            continue
                        base = bayes_risk(p, r.prior, d0)
                        assert r.excess == max(base - bayes_risk(p, r.prior, d)
                                               for d in p.proc_labels)
                        assert r.theta0_weight == r.prior.weight(t)
                        assert r.bound == eps * r.theta0_weight >= r.excess

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6),
           st.sampled_from((8, 12, 97)), st.data())
    def test_lc_excess_matches_levi_civita_bayes_risk(self, n_theta, n_proc, seed, grid, data):
        p = random_problem(n_theta, n_proc, seed, grid)
        weights = st.lists(st.integers(0, 40), min_size=n_theta, max_size=n_theta).filter(any)
        pi0, pi1, pi2 = ([F(v, sum(raw)) for v in raw]
                         for raw in (data.draw(weights) for _ in range(3)))
        # (1 - eps - eps^2) pi0 + eps pi1 + eps^2 pi2: a prior, often with
        # infinitesimal weights
        prior = Prior({t: a + (b - a) * EPS + (c - a) * EPS * EPS
                       for t, a, b, c in zip(p.theta_labels, pi0, pi1, pi2)})
        for d0 in p.proc_labels:
            base = bayes_risk(p, prior, d0)
            oracle = LCNumber.zero()
            for d in p.proc_labels:
                gap = base - bayes_risk(p, prior, d)
                if gap > oracle:
                    oracle = gap
            excess = adm._lc_excess(p, prior, d0)
            assert isinstance(excess, LCNumber)
            assert excess == oracle


class TestReports:
    def test_reports_are_json_serializable(self):
        blobs = [
            adm.dominated_in_hull(DOMINATED, "d0").as_dict(),
            adm.positive_prior_certificate(TWO_POINT, "d0").as_dict(),
            adm.positive_prior_certificate(RISK_EQUAL, "d1").as_dict(),
            adm.witness_set(TWO_POINT, "d0").as_dict(),
            adm.stein_check(TWO_POINT, "d0", "t1", 1).as_dict(),
            adm.determining_family_check(TWO_POINT, [("t1",), ("t2",)]).as_dict(),
            adm.ns_stein_check(TWO_POINT, "d0", Prior.dirac("t1"), ("t1",), 1).as_dict(),
            adm.ns_blyth_check(TWO_POINT, "d0",
                               Prior({"t1": F(1, 2), "t2": F(1, 2)}),
                               F(1, 2), [("t1",)]).as_dict(),
        ]
        for blob in blobs:
            json.dumps(blob)

    def test_iteration_counts_reported(self):
        r = adm.dominated_in_hull(DOMINATED, "d0")
        assert r.as_dict()["lp_iterations"] > 0
