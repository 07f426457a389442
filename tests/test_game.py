import json
import random
from fractions import Fraction as F

import pytest

from admlab import LCNumber
from admlab import admissibility as adm
from admlab.decision import DecisionProblem, Prior, random_problem
from admlab.game import derived_game_value, shifted_risk

TWO_POINT = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))


class TestShiftedRisk:
    def test_self_shift_is_zero(self):
        for t in TWO_POINT.theta_labels:
            assert shifted_risk(TWO_POINT, "d0", t, "d0") == 0

    def test_theta_case(self):
        assert shifted_risk(TWO_POINT, "d0", "t1", "d1") == 1
        assert shifted_risk(TWO_POINT, "d0", "t2", "d1") == -1

    def test_prior_case(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        assert shifted_risk(TWO_POINT, "d0", pi, "d1") == 0
        eps = LCNumber.eps()
        hyper = Prior({"t1": F(1, 2) - eps, "t2": F(1, 2) + eps})
        assert shifted_risk(TWO_POINT, "d0", hyper, "d1") == -2 * eps


class TestDerivedGameValue:
    def test_single_procedure_game_is_zero(self):
        p = DecisionProblem(("t1", "t2"), ("d0",), ((2,), (3,)))
        g = derived_game_value(p, "d0", "t1", 1)
        assert g.lower == g.upper == 0 and g.determined

    def test_two_point_value_zero_via_delta0(self):
        g = derived_game_value(TWO_POINT, "d0", "t1", 1)
        assert g.lower == g.upper == 0
        # playing delta0 zeroes the payoff column, so 0 is achievable
        assert g.optimal_mixture.weights == {"d0": F(1)}

    def test_duality_on_random_instances(self):
        for seed in range(60):
            p = random_problem(4, 4, seed=seed)
            for gamma in (F(1, 2), F(1), F(2)):
                g = derived_game_value(p, p.proc_labels[0], p.theta_labels[0], gamma)
                assert g.determined and g.lower == g.upper

    def test_monotone_in_gamma_when_base_is_dominant(self):
        # delta0 pointwise minimal makes every shifted risk >= 0
        p = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"),
                            ((0, 1, 2), (0, 2, 1)))
        values = [derived_game_value(p, "d0", "t1", g).upper
                  for g in (F(1, 2), F(1), F(2))]
        assert values == sorted(values)

    def test_gamma_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            derived_game_value(TWO_POINT, "d0", "t1", 0)
        with pytest.raises(ValueError, match="gamma"):
            derived_game_value(TWO_POINT, "d0", "t1", F(-1, 2))

    def test_float_gamma_is_rejected(self):
        # Fraction(0.1) would silently become 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="exact rational"):
            derived_game_value(TWO_POINT, "d0", "t1", 0.1)
        assert derived_game_value(TWO_POINT, "d0", "t1", "1/10").gamma == F(1, 10)

    def test_report_serializes(self):
        g = derived_game_value(TWO_POINT, "d0", "t2", F(3, 2))
        blob = g.as_dict()
        json.dumps(blob)
        assert blob["determined"] is True
        # upper and lower are said once, not again as sup_over_* copies
        assert "sup_over_thetas" not in blob and "sup_over_priors" not in blob


class TestSteinBridge:
    def test_feasible_stein_prior_bounds_game_value(self):
        # a stein-feasible prior pi with weight w at theta0 yields, via the
        # conditional remainder prior and gamma = (1-w)/w, a guaranteed
        # lower game value >= -eps
        eps = F(1, 10)
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            p = random_problem(rng.randint(2, 5), rng.randint(2, 5), seed=seed)
            for d in p.proc_labels[:2]:
                for t in p.theta_labels[:2]:
                    s = adm.stein_check(p, d, t, eps)
                    if not s.feasible or s.theta0_weight == 1:
                        continue
                    gamma = (1 - s.theta0_weight) / s.theta0_weight
                    g = derived_game_value(p, d, t, gamma)
                    assert g.lower >= -eps, (seed, d, t)
                    checked += 1
        assert checked > 20
