from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import ExponentRangeError, LCNumber, approx_eq, approx_leq, compare, parse_lc
from lc_axioms import axiom_sweep, random_lc

EPS = LCNumber.eps()
ONE = LCNumber.from_real(1)


class TestArithmetic:
    def test_geometric_series_division(self):
        # 1/(1-eps) expands to sum of eps^k up to the truncation degree
        q = ONE / (ONE - EPS)
        assert q.terms == {k: Fraction(1) for k in range(17)}
        assert q.inexact
        # multiplying back only loses the eps^17 tail
        back = (ONE - EPS) * q
        assert back == ONE and back.inexact

    def test_exact_division_terminates(self):
        q = (ONE - EPS * EPS) / (ONE - EPS)
        assert q == ONE + EPS
        assert not q.inexact

    def test_division_by_infinitesimal(self):
        assert ONE / EPS == LCNumber({-1: 1})
        assert (EPS * EPS) / EPS == EPS

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / LCNumber.zero()

    def test_scalar_coercion(self):
        assert EPS + 1 == ONE + EPS
        assert 2 * EPS == EPS + EPS
        assert 1 - EPS == ONE - EPS
        assert Fraction(1, 2) * EPS == EPS / 2

    def test_truncation_is_sticky(self):
        t = EPS * LCNumber({16: 1})  # eps^17 vanishes
        assert t.is_zero() and t.inexact
        assert (t + ONE).inexact
        assert (ONE + ONE) + t == 2

    def test_exponent_below_range_raises(self):
        with pytest.raises(ExponentRangeError):
            LCNumber({-17: 1})
        with pytest.raises(ExponentRangeError):
            ONE / LCNumber.eps(16) / LCNumber.eps(16)

    @pytest.mark.parametrize("k", [0, 17])
    def test_eps_exponent_out_of_range(self, k):
        with pytest.raises(ValueError, match=r"eps exponent must lie in \[1, 16\]"):
            LCNumber.eps(k)


class TestOrder:
    def test_infinitesimal_chain(self):
        assert LCNumber.zero() < EPS * EPS < EPS < LCNumber.from_real(Fraction(1, 1000))
        assert compare(EPS, Fraction(1, 10**9)) < 0

    def test_leading_term_dominates(self):
        assert LCNumber({-1: 1}) > LCNumber.from_real(10**12)
        assert LCNumber({0: 1, 1: -500}) > LCNumber({0: Fraction(999, 1000)})

    def test_compare_values(self):
        assert compare(EPS, EPS) == 0
        assert compare(-EPS, EPS) == -1
        assert compare(ONE, EPS) == 1


class TestPredicates:
    def test_infinitesimal(self):
        assert EPS.is_infinitesimal()
        assert LCNumber.zero().is_infinitesimal()
        assert not ONE.is_infinitesimal()
        assert not (ONE / EPS).is_infinitesimal()

    def test_finite_and_standard_part(self):
        x = ONE + EPS * 3
        assert x.is_finite()
        assert x.standard_part() == 1
        assert EPS.standard_part() == 0
        inf = ONE / EPS
        assert not inf.is_finite()
        with pytest.raises(ValueError):
            inf.standard_part()

    def test_approx_relations(self):
        assert approx_eq(ONE + EPS, ONE)
        assert not approx_eq(ONE + Fraction(1, 2), ONE)
        assert approx_leq(ONE - EPS, ONE)
        assert approx_leq(ONE + EPS, ONE)  # positive infinitesimal excess allowed
        assert approx_leq(ONE + EPS, ONE - EPS * EPS)
        assert not approx_leq(ONE + Fraction(1, 100), ONE)
        assert not approx_leq(ONE / EPS, ONE)


class TestText:
    @pytest.mark.parametrize("text", [
        "0",
        "1/2",
        "-3 + ε",
        "1 - 2ε + 3/4ε^2",
        "ε^-1 + 2",
        "5eps^3",
        "-eps",
        "2ε^-3 - ε^-1 + 7",
        "ε^16",
        "ε^-16",
    ])
    def test_round_trip(self, text):
        x = parse_lc(text)
        assert parse_lc(str(x)) == x

    def test_ascii_alias_and_decimals(self):
        assert parse_lc("eps") == EPS
        assert parse_lc("0.25 + 0.5eps") == LCNumber({0: Fraction(1, 4), 1: Fraction(1, 2)})
        assert parse_lc("1*ε^2") == EPS * EPS

    def test_format_examples(self):
        assert str(LCNumber.zero()) == "0"
        assert str(ONE - 2 * EPS) == "1 - 2ε"
        assert str(LCNumber({2: Fraction(3, 4)})) == "3/4ε^2"
        assert str(-EPS) == "-ε"

    # a term past the truncation degree is refused, not silently dropped
    @pytest.mark.parametrize("bad", ["", "+", "1 +", "foo", "ε^", "1..2", "2x",
                                     "eps^17", "1 - eps^20", "eps^-17"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_lc(bad)

    # bad input, not an arithmetic fault: ValueError, never ZeroDivisionError
    @pytest.mark.parametrize("bad", ["1/0", "1/0 + eps", "1 - 3/0eps^2"])
    def test_rejects_a_zero_denominator(self, bad):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_lc(bad)


def lc_strategy():
    exps = st.integers(min_value=-2, max_value=2)
    coefs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.dictionaries(exps, coefs, max_size=4).map(LCNumber)


class TestFieldProperties:
    @settings(max_examples=200, deadline=None)
    @given(lc_strategy(), lc_strategy(), lc_strategy())
    def test_ring_identities(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=200, deadline=None)
    @given(lc_strategy(), lc_strategy())
    def test_division_inverts_multiplication(self, a, b):
        if not b.is_zero():
            assert (a * b) / b == a

    @settings(max_examples=200, deadline=None)
    @given(lc_strategy(), lc_strategy(), lc_strategy())
    def test_order_respects_arithmetic(self, a, b, c):
        if a < b:
            assert a + c < b + c
            if c > LCNumber.zero():
                assert a * c < b * c
        assert compare(a, b) == -compare(b, a)

    @settings(max_examples=200, deadline=None)
    @given(lc_strategy(), lc_strategy())
    def test_approx_eq_means_infinitesimal_gap(self, a, b):
        assert approx_eq(a, b) == (a - b).is_infinitesimal()
        if approx_eq(a, b):
            assert approx_leq(a, b) and approx_leq(b, a)


def test_axiom_sweep_smoke():
    assert axiom_sweep(seed=11, rounds=100) >= 1000


def test_random_lc_reproducible():
    import random
    assert random_lc(random.Random(3)) == random_lc(random.Random(3))
