import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import LCNumber, decision
from admlab.decision import (
    DecisionProblem,
    Mixture,
    Prior,
    ProblemFormatError,
    bayes_risk,
    load_problem,
    mixture_risk,
    random_problem,
    risk_at,
    save_problem,
)

TWO_POINT = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))


class TestRiskLookups:
    def test_risk_at(self):
        p = DecisionProblem(("t1", "t2"), ("d1", "d2"), ((1, 2), (2, 1)))
        assert risk_at(p, "t1", "d1") == 1
        assert risk_at(p, "t2", "d1") == 2

    def test_unknown_labels(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            risk_at(TWO_POINT, "nope", "d0")
        with pytest.raises(ValueError, match="unknown procedure"):
            risk_at(TWO_POINT, "t1", "nope")

    def test_mixture_risk(self):
        m = Mixture({"d0": F(1, 2), "d1": F(1, 2)})
        assert mixture_risk(TWO_POINT, "t1", m) == F(1, 2)
        point = Mixture.point_mass("d1")
        assert mixture_risk(TWO_POINT, "t1", point) == risk_at(TWO_POINT, "t1", "d1")

    def test_mixtures_disabled(self):
        p = DecisionProblem(("t",), ("d0", "d1"), ((0, 1),), allow_mixtures=False)
        with pytest.raises(ValueError, match="disabled"):
            mixture_risk(p, "t", Mixture.point_mass("d0"))

    def test_bad_mixture_weights(self):
        with pytest.raises(ValueError, match="sum"):
            Mixture({"d0": F(1, 2), "d1": F(1, 3)})
        with pytest.raises(ValueError, match="negative"):
            Mixture({"d0": F(3, 2), "d1": F(-1, 2)})


class TestBayesRisk:
    def test_dirac_prior(self):
        assert bayes_risk(TWO_POINT, Prior.dirac("t2"), "d0") == risk_at(TWO_POINT, "t2", "d0")

    def test_uniform_prior(self):
        pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
        assert bayes_risk(TWO_POINT, pi, "d0") == F(3, 2) - 1  # rows (0,1): average 1/2
        p = DecisionProblem(("t1", "t2"), ("d0",), ((1,), (2,)))
        assert bayes_risk(p, pi, "d0") == F(3, 2)

    def test_hyper_prior_gives_lc_result(self):
        eps = LCNumber.eps()
        hp = Prior({"t1": 1 - eps, "t2": eps})
        assert bayes_risk(TWO_POINT, hp, "d0") == eps

    def test_prior_validation(self):
        with pytest.raises(ValueError, match="sum"):
            Prior({"t1": F(1, 2), "t2": F(1, 3)})
        with pytest.raises(ValueError, match="negative"):
            Prior({"t1": F(3, 2), "t2": F(-1, 2)})
        eps = LCNumber.eps()
        with pytest.raises(ValueError, match="negative"):
            Prior({"t1": 1 + eps, "t2": -eps})

    def test_truncated_levi_civita_weights_rejected(self):
        # the eps^20 terms lie past the truncation degree, so these weights
        # were built as 1 (inexact) and 0 (inexact): a different prior, which
        # ns_stein_check on TWO_POINT with B = ("t2",) used to pass
        t1, t2 = LCNumber({0: 1, 20: -1}), LCNumber({20: 1})
        assert t1.inexact and t2.inexact
        with pytest.raises(ValueError, match="truncated"):
            Prior({"t1": t1, "t2": t2})


class TestSerialization:
    def test_round_trip(self):
        p = random_problem(4, 3, seed=13)
        assert load_problem(save_problem(p)) == p

    def test_round_trip_with_priors(self):
        doc = {"theta": ["t1", "t2"], "procedures": ["d0"], "risk": [["1"], ["2"]],
               "priors": {"hp": {"t1": "1 - eps", "t2": "eps"},
                          "u": {"t1": "1/2", "t2": "1/2"}}}
        p = load_problem(json.dumps(doc))
        assert p.priors["hp"].kind == "HYPER"
        assert p.priors["u"].kind == "REAL"
        again = load_problem(save_problem(p))
        assert again.priors["hp"].weights == p.priors["hp"].weights
        # the weights fix the kind: one Levi-Civita weight makes the prior HYPER
        eps = LCNumber.eps()
        mixed = Prior({"t1": F(1, 2) - eps, "t2": eps, "t3": F(1, 2)})
        assert mixed.kind == "HYPER"
        assert isinstance(mixed.weights["t3"], LCNumber)
        assert Prior({"t1": F(1, 2), "t2": "1/2"}).kind == "REAL"

    def test_standard_levi_civita_weights_make_a_real_prior(self):
        # the kind is fixed by the weights' values, so it survives the round trip
        half = LCNumber.from_real(F(1, 2))
        p = DecisionProblem(("t1", "t2"), ("d0",), ((1,), (2,)),
                            priors={"pi": Prior({"t1": half, "t2": F(1, 2)})})
        again = load_problem(save_problem(p))
        for q in (p, again):
            pi = q.priors["pi"]
            assert pi.kind == "REAL" and pi.weights == {"t1": F(1, 2), "t2": F(1, 2)}
            assert type(bayes_risk(q, pi, "d0")) is F and bayes_risk(q, pi, "d0") == F(3, 2)

    def test_rejects_bare_floats(self):
        doc = json.dumps({"theta": ["a"], "procedures": ["d"], "risk": [[0.5]]})
        with pytest.raises(ProblemFormatError, match="float"):
            load_problem(doc)
        with pytest.raises(ProblemFormatError, match=r"risk\[0\]\[0\]: floats are not accepted"):
            DecisionProblem(("a",), ("d",), ((0.5,),))

    def test_decimal_strings_parse_exactly(self):
        p = load_problem('{"theta":["a"],"procedures":["d"],"risk":[["0.25"]]}')
        assert p.risk[0][0] == F(1, 4)

    def test_missing_field(self):
        with pytest.raises(ProblemFormatError, match="missing"):
            load_problem('{"theta":["a"],"risk":[[1]]}')

    def test_missing_risk_entry(self):
        doc = {"theta": ["a", "b"], "procedures": ["d", "e"], "risk": [["1", "2"], ["3"]]}
        with pytest.raises(ProblemFormatError, match="entries"):
            load_problem(json.dumps(doc))

    def test_negative_prior_weight_rejected(self):
        doc = {"theta": ["a", "b"], "procedures": ["d"], "risk": [["1"], ["2"]],
               "priors": {"bad": {"a": "3/2", "b": "-1/2"}}}
        with pytest.raises(ProblemFormatError, match="negative"):
            load_problem(json.dumps(doc))

    def test_zero_denominator_in_a_prior_weight_rejected(self):
        for weight in ("1/0", "1/0 + eps"):
            doc = {"theta": ["a", "b"], "procedures": ["d"], "risk": [["1"], ["2"]],
                   "priors": {"bad": {"a": weight, "b": "0"}}}
            with pytest.raises(ProblemFormatError, match="prior 'bad'"):
                load_problem(json.dumps(doc))

    def test_duplicate_labels_rejected(self):
        doc = {"theta": ["a", "a"], "procedures": ["d"], "risk": [["1"], ["2"]]}
        with pytest.raises(ProblemFormatError, match="duplicate"):
            load_problem(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem(b"not json {")

    def test_repeated_keys_rejected(self):
        # json.loads alone keeps the last value of a repeated key: the first
        # file would load the second matrix, the second the prior (1/2, 1/2)
        risk_twice = ('{"theta": ["a"], "procedures": ["d"], '
                      '"risk": [["1"]], "risk": [["2"]]}')
        prior_twice = ('{"theta": ["a", "b"], "procedures": ["d"], "risk": [["1"], ["2"]], '
                       '"priors": {"pi": {"a": "1", "a": "1/2", "b": "1/2"}}}')
        for text, key in ((risk_twice, "risk"), (prior_twice, "a")):
            with pytest.raises(ProblemFormatError, match=f"key '{key}' repeated"):
                load_problem(text)

    def test_priors_must_be_an_object_or_null(self):
        # a list of priors raised AttributeError, and an empty one read as no priors
        base = '{"theta": ["t1"], "procedures": ["d1"], "risk": [["0"]], "priors": %s}'
        for value in ('["x"]', '[]', '0', '""'):
            with pytest.raises(ProblemFormatError, match="'priors' must be an object or null"):
                load_problem(base % value)
        assert load_problem(base % "null").priors == {}
        assert load_problem(base % "{}").priors == {}


# recorded from the first run and pinned: the acceptance analyses of this
# instance must never drift
SEED7_RISK = (
    ("5/8", "1/4", "3/4", "0", "1/8"),
    ("1", "1/8", "5/8", "0", "1"),
    ("3/8", "0", "1/8", "3/4", "3/4"),
    ("1/8", "3/8", "1/8", "1", "3/4"),
    ("0", "1/8", "3/8", "0", "3/4"),
)


class TestRandomProblem:
    def test_deterministic(self):
        assert random_problem(5, 5, seed=7) == random_problem(5, 5, seed=7)
        assert random_problem(5, 5, seed=7) != random_problem(5, 5, seed=8)

    def test_single_entry(self):
        p = random_problem(1, 1, seed=0)
        assert len(p.risk) == 1 and len(p.risk[0]) == 1

    def test_seed7_golden_matrix(self):
        p = random_problem(5, 5, seed=7)
        assert p.risk == tuple(tuple(F(v) for v in row) for row in SEED7_RISK)

    def test_entries_on_grid(self):
        p = random_problem(6, 6, seed=3)
        for row in p.risk:
            for v in row:
                assert 0 <= v <= 1 and (v * 8).denominator == 1

    def test_size_validation(self):
        with pytest.raises(ValueError):
            random_problem(0, 3, seed=1)

    @pytest.mark.parametrize("q", [0, -1])
    def test_grid_validation(self, q):
        with pytest.raises(ValueError, match="grid_denominator must be at least 1"):
            random_problem(2, 2, 0, grid_denominator=q)


def small_problem(seed):
    rng = random.Random(seed)
    return random_problem(rng.randint(1, 5), rng.randint(1, 5), seed=seed)


def rational(max_den=9):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_den)


class TestAlgebraicProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), rational())
    def test_bayes_risk_affine_in_prior(self, seed, lam):
        p = small_problem(seed)
        rng = random.Random(seed + 1)
        if len(p.theta_labels) < 2:
            return
        t_hot = rng.choice(p.theta_labels)
        pi1 = Prior({t: (F(1) if t == t_hot else F(0)) for t in p.theta_labels})
        pi2 = Prior({t: F(1, len(p.theta_labels)) for t in p.theta_labels})
        mix = Prior({t: lam * pi1.weight(t) + (1 - lam) * pi2.weight(t)
                     for t in p.theta_labels})
        for d in p.proc_labels:
            lhs = bayes_risk(p, mix, d)
            rhs = lam * bayes_risk(p, pi1, d) + (1 - lam) * bayes_risk(p, pi2, d)
            assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), rational())
    def test_bayes_risk_bilinear_in_mixture(self, seed, lam):
        p = small_problem(seed)
        if len(p.proc_labels) < 2:
            return
        d1, d2 = p.proc_labels[0], p.proc_labels[-1]
        m = Mixture({d1: lam, d2: 1 - lam}) if d1 != d2 else Mixture.point_mass(d1)
        pi = Prior({t: F(1, len(p.theta_labels)) for t in p.theta_labels})
        lhs = bayes_risk(p, pi, m)
        rhs = sum(w * bayes_risk(p, pi, d) for d, w in m.weights.items())
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bayes_risk_between_extremes(self, seed):
        p = small_problem(seed)
        pi = Prior({t: F(1, len(p.theta_labels)) for t in p.theta_labels})
        for d in p.proc_labels:
            column = [risk_at(p, t, d) for t in p.theta_labels]
            assert min(column) <= bayes_risk(p, pi, d) <= max(column)


class TestIntegerRiskMatrix:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_den_is_the_least_common_denominator(self, n_theta, n_proc, data):
        entries = st.fractions(min_value=-5, max_value=5, max_denominator=60)
        risk = tuple(tuple(data.draw(entries) for _ in range(n_proc)) for _ in range(n_theta))
        p = DecisionProblem(tuple(f"t{i}" for i in range(n_theta)),
                            tuple(f"d{j}" for j in range(n_proc)), risk)
        flat = [v for row in p.irisk for v in row]
        assert all(type(v) is int for v in flat)
        assert all(F(p.irisk[i][j], p.den) == risk[i][j]
                   for i in range(n_theta) for j in range(n_proc))
        # a common denominator is the least one iff no prime divides it and
        # every numerator over it
        assert p.den > 0 and math.gcd(p.den, *flat) == 1

    def test_derived_fields_leave_repr_and_equality_alone(self):
        p = random_problem(3, 4, seed=5, grid_denominator=12)
        q = DecisionProblem(p.theta_labels, p.proc_labels, tuple(map(tuple, p.risk)))
        assert "den" not in repr(p) and "irisk" not in repr(p)
        assert p == q and hash(p) == hash(q)


# Invalid LP solutions (class, num, D, the fault named), over labels ("a", "b")
_LP_WEIGHT_FAULTS = [
    ("Prior", [-1, 2], 1, "prior weight for a is negative: -1"),
    ("Mixture", [-1, 2], 1, "mixture weights must sum to exactly 1"),
    ("Prior", [-1, 2], 2, "prior weight for a is negative: -1/2"),
    ("Mixture", [-1, 2], 2, "mixture weight for a is negative: -1/2"),
    ("Prior", [1, 1], 3, "prior weights must sum to exactly 1, got 2/3"),
    ("Mixture", [1, 1], 3, "mixture weights must sum to exactly 1"),
    ("Prior", [1, 0], 0, "denominator 0 is not positive"),
    ("Mixture", [1, 0], 0, "denominator 0 is not positive"),
    ("Prior", [-1, 0], -1, "denominator -1 is not positive"),
    ("Mixture", [-1, 0], -1, "denominator -1 is not positive"),
]

# The checks are plain ifs, so they raise under ``python -O`` as well.
_LP_WEIGHTS_PROBE = f"""
import sys
from admlab import decision
print("optimize", sys.flags.optimize)
for cls, num, D, _ in {_LP_WEIGHT_FAULTS!r}:
    try:
        decision._from_lp(getattr(decision, cls), ("a", "b"), num, D)
        print(cls, "accepted")
    except RuntimeError as exc:
        print(exc)
"""


class TestWeightsFromLp:
    def test_valid_weights_build_the_validated_object(self):
        # entries past the labels are ignored; a Prior keeps its zero weights
        prior = decision._from_lp(Prior, ("t1", "t2", "t3"), [2, 0, 4, -7], 6)
        assert prior == Prior({"t1": F(1, 3), "t2": 0, "t3": F(2, 3)})
        assert prior.kind == "REAL"
        mix = decision._from_lp(Mixture, ("d1", "d2", "d3"), [0, 3, 3, 5], 6)
        assert mix == Mixture({"d2": F(1, 2), "d3": F(1, 2)})

    @pytest.mark.parametrize("cls, num, D, fault", _LP_WEIGHT_FAULTS)
    def test_an_invalid_solution_is_an_internal_fault(self, cls, num, D, fault):
        with pytest.raises(RuntimeError) as exc:
            decision._from_lp(getattr(decision, cls), ("a", "b"), num, D)
        assert str(exc.value) == f"LP solution is not a valid {cls.lower()}: {fault}"

    def test_every_invalid_solution_raises_under_python_O(self):
        src = str(Path(decision.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-O", "-c", _LP_WEIGHTS_PROBE],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["optimize 1", *(
            f"LP solution is not a valid {cls.lower()}: {fault}"
            for cls, _, _, fault in _LP_WEIGHT_FAULTS)]
