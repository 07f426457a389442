import dataclasses
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
from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import LCNumber
from admlab import admissibility as adm
from admlab import decision
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
        with pytest.raises(ValueError, match="dominated"):
            adm.witness_set(DOMINATED, "d0")

    def test_refuses_risk_equal(self):
        with pytest.raises(ValueError, match="equivalence in risk"):
            adm.witness_set(RISK_EQUAL, "d0")

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
        """witness_set's outcome (a WitnessSet or the refusal text), the gaps
        of lam when separation failed (None on return), and the number of
        maximizing LPs it solved (the restriction LPs minimize)."""
        events = []
        gaps_of, solve = adm._mixture_gaps, adm.solve_lp

        def spy_gaps(*args):
            out = gaps_of(*args)
            events.append(out[0])
            return out

        def spy_lp(*args, **kwargs):
            events.append(kwargs.get("maximize", True))
            return solve(*args, **kwargs)
        with mock.patch.object(adm, "_mixture_gaps", spy_gaps), \
                mock.patch.object(adm, "solve_lp", spy_lp), \
                mock.patch.object(adm, "dominated_in_hull", side_effect=AssertionError):
            try:
                outcome = adm.witness_set(p, d)
            except ValueError as exc:
                outcome = str(exc)
        if isinstance(outcome, adm.WitnessSet):
            return outcome, None, events.count(True)
        first_max = next((k for k, e in enumerate(events) if e is True), len(events))
        lam_gaps = [e for e in events[:first_max] if isinstance(e, list)][-1]
        return outcome, lam_gaps, events.count(True)

    def test_refusal_lps(self):
        # DOMINATED: the uniform lam beats d0 everywhere, so no LP at all;
        # RISK_EQUAL: lam = d1 equals d0, so the dominance LP alone
        assert self._traced(DOMINATED, "d0") == (
            "d0 is dominated in the hull; no witness set exists", [-3, -3], 0)
        assert self._traced(RISK_EQUAL, "d0") == (
            "d0 has an equivalence in risk with a competitor mixture", [0, 0], 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6), st.sampled_from((8, 97)))
    def test_outcome_matches_the_hull_verdict(self, n_theta, n_proc, seed, grid):
        # a refusal is read off lam's exact gaps: no LP when lam beats delta0
        # somewhere, the dominance LP alone when lam is risk-equal; a returned
        # witness set needs only its validation LP, and no hull LP ever runs
        p = random_problem(n_theta, n_proc, seed, grid)
        for d in p.proc_labels:
            dom = adm.dominated_in_hull(p, d)
            outcome, lam_gaps, maximizing = self._traced(p, d)
            if dom.dominated:
                assert outcome == f"{d} is dominated in the hull; no witness set exists"
            elif dom.risk_equal:
                assert outcome == f"{d} has an equivalence in risk with a competitor mixture"
            else:
                assert isinstance(outcome, adm.WitnessSet) and outcome.validated
            if lam_gaps is None:
                assert maximizing == (1 if outcome.margin is not None else 0)
            else:
                assert max(lam_gaps) <= 0
                assert maximizing == (0 if any(lam_gaps) else 1)

    def test_a_refusal_where_lam_loses_is_an_internal_fault(self):
        # on TWO_POINT the restriction LP on {t1} has v = 1 for lam = d1; an
        # LP that claims v = -1 ends separation with lam losing at t1
        solve = adm.solve_lp

        def understate(*args, **kwargs):
            res = solve(*args, **kwargs)
            if kwargs.get("maximize", True):
                return res
            return dataclasses.replace(res, num=[res.num[0], res.num[1] - 2 * res.D],
                                       objective=res.objective - 2)
        with mock.patch.object(adm, "solve_lp", understate):
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
        assert r.ok
        assert r.excess == EPS * EPS and r.ratio == EPS
        assert r.constants == {("t2",): 2}

    def test_linear_excess_over_square_rho_fails(self):
        pi = Prior({"t1": ONE - EPS - EPS * EPS, "t2": EPS * EPS, "t3": EPS})
        r = adm.ns_blyth_check(LADDER, "d0", pi, EPS * EPS, [("t2",)])
        assert not r.ok and r.mass_ok and not r.ratio_ok
        assert r.ratio == ONE / EPS

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

    def corrupt(*args, **kwargs):
        res = simplex.solve_lp(*args, **kwargs)
        if res.objective is None:
            return res
        return dataclasses.replace(res, objective=res.objective + 1)

    admissibility.solve_lp = game.solve_lp = corrupt
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
        assert res.stdout.splitlines() == [
            "optimize 1",
            "stein_check RuntimeError stein prior failed independent re-verification",
            "dominating mixture RuntimeError dominating mixture failed independent "
            "re-verification",
            "risk-equal mixture RuntimeError risk-equal mixture failed independent "
            "re-verification",
            "game mixture side RuntimeError mixture-side game optimum failed independent "
            "re-verification",
            "game prior side RuntimeError prior-side game optimum failed independent "
            "re-verification",
            "certificate prior RuntimeError LP solution is not a valid prior: "
            "prior weight for t1 is negative: -1",
            "stein prior RuntimeError LP solution is not a valid prior: "
            "prior weight for t1 is negative: -1",
            "hull mixture RuntimeError LP solution is not a valid mixture: "
            "mixture weights must sum to exactly 1",
            "game mixture RuntimeError LP solution is not a valid mixture: "
            "mixture weights must sum to exactly 1",
            "witness margin RuntimeError witness margin failed independent re-verification",
            "witness refusal RuntimeError witness restriction mixture failed independent "
            "re-verification",
        ]


# Each case moves the LP's solution num / D off the feasible set or off the
# optimum (keeping a valid prior or mixture, and an objective consistent with
# it), so only the integer re-check against the problem's risks can catch it.
_MOVED_SOLUTION_PROBE = textwrap.dedent("""
    import dataclasses, sys
    from fractions import Fraction as F
    from admlab import admissibility, game, simplex
    from admlab.decision import DecisionProblem

    p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))
    has_ub = lambda kwargs: kwargs.get("A_ub") is not None
    minimizes = lambda kwargs: kwargs.get("maximize") is False
    moved = lambda res, num, D, objective: dataclasses.replace(res, num=num, D=D,
                                                               objective=objective)
    cases = [
        # pi = (1/4, 3/4): excess 1/2 > eps * pi(t1) = 1/400
        ("stein_check",
         lambda res, kw: moved(res, [1, 3], 4, F(1, 4)),
         lambda: admissibility.stein_check(p, "d0", "t1", F(1, 100))),
        # d1 itself, with slack 1 at t1 claimed: d1 is worse than d0 at t1
        ("dominating mixture",
         lambda res, kw: moved(res, [0, 1, 1, 0], 1, F(1)) if has_ub(kw) else res,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # d1 claimed risk-equal to d0, although its risks are swapped
        ("risk-equal mixture",
         lambda res, kw: res if has_ub(kw) else simplex.LPResult("optimal", F(0), [1], 1, 0),
         lambda: admissibility.dominated_in_hull(p, "d0")),
        # payoff at gamma = 1/2 is ((0, 3/2), (0, 1/2)): the mixture d1 with
        # v = 1/2 claimed, although its payoff at t1 is 3/2
        ("game mixture side",
         lambda res, kw: moved(res, [0, 2, 1], 2, F(1, 2)) if minimizes(kw) else res,
         lambda: game.derived_game_value(p, "d0", "t1", F(1, 2))),
        # the uniform prior with w = -1 claimed, although its worst payoff is 0;
        # -1 <= 0 = upper, so only the re-check of the prior's value sees it
        ("game prior side",
         lambda res, kw: res if minimizes(kw) else moved(res, [1, 1, -2], 2, F(-1)),
         lambda: game.derived_game_value(p, "d0", "t1", F(1, 2))),
        # the remaining cases give x a negative weight, so x is no prior or
        # mixture at all: a fault of the LP (exit 3), not of the input (exit 2)
        ("certificate prior",
         lambda res, kw: moved(res, [-2, 4, 1], 2, F(1, 2)),
         lambda: admissibility.positive_prior_certificate(p, "d0")),
        ("stein prior",
         lambda res, kw: moved(res, [-1, 2], 1, F(-1)),
         lambda: admissibility.stein_check(p, "d0", "t1", F(1, 100))),
        ("hull mixture",
         lambda res, kw: moved(res, [-1, 2, 1, 0], 1, F(1)) if has_ub(kw) else res,
         lambda: admissibility.dominated_in_hull(p, "d0")),
        ("game mixture",
         lambda res, kw: moved(res, [-2, 4, 1], 2, F(1, 2)) if minimizes(kw) else res,
         lambda: game.derived_game_value(p, "d0", "t1", F(1, 2))),
        # the restriction LP on {t1} claims margin 2 with v = 2, a feasible
        # but not optimal point: its mixture d1 loses to d0 at t1 by only 1
        ("witness margin",
         lambda res, kw: (moved(res, [res.num[0], res.num[1] + res.D], res.D,
                                res.objective + 1) if minimizes(kw) else res),
         lambda: admissibility.witness_set(p, "d0")),
        # the same LP claims v = -1 for lam = d1, whose gap at t1 is 1: the
        # margin reads as no separation, and lam ends it losing at t1
        ("witness refusal",
         lambda res, kw: (moved(res, [res.num[0], res.num[1] - 2 * res.D], res.D,
                                res.objective - 2) if minimizes(kw) else res),
         lambda: admissibility.witness_set(p, "d0")),
    ]
    print("optimize", sys.flags.optimize)
    for name, move, call in cases:
        admissibility.solve_lp = game.solve_lp = (
            lambda *a, move=move, **kw: move(simplex.solve_lp(*a, **kw), kw))
        try:
            call()
            print(name, "accepted")
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
            assert isinstance(excess, LCNumber) and not excess.inexact
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
