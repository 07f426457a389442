import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lc_axioms
from admlab import LCNumber, approx_eq, approx_leq, compare, format_lc, parse_lc
from admlab.hyperreal import _as_fraction
from lc_axioms import axiom_sweep, random_lc

EPS = LCNumber.eps()
ONE = LCNumber.from_real(1)


class TestArithmetic:
    def test_geometric_series_division(self):
        # 1/(1-eps) is the infinite series sum of eps^k: no Laurent polynomial
        with pytest.raises(ArithmeticError, match="does not divide"):
            ONE / (ONE - EPS)
        with pytest.raises(ArithmeticError, match="does not divide"):
            (ONE + EPS * EPS) / (ONE + EPS)
        # its finite part divides exactly, past degree 16 too
        q = (ONE - LCNumber.eps(20)) / (ONE - EPS)
        assert q.terms == {k: Fraction(1) for k in range(20)}

    def test_exact_division_terminates(self):
        q = (ONE - EPS * EPS) / (ONE - EPS)
        assert q == ONE + EPS

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

    # int(exp) would truncate 2.5 to 2 and read True as 1: rejected instead
    @pytest.mark.parametrize("exp", [2.5, 1.7, True, Fraction(1), "1"])
    def test_an_exponent_that_is_no_int_is_refused(self, exp):
        with pytest.raises(TypeError, match="exponent must be an int"):
            LCNumber({exp: 1})
        if not isinstance(exp, str) and exp >= 1:
            with pytest.raises(TypeError, match="exponent must be an int"):
                LCNumber.eps(exp)

    def test_rational_divided_by_lc(self):
        q = Fraction(1, 2) / EPS  # Fraction defers to LCNumber.__rtruediv__
        assert q == LCNumber({-1: Fraction(1, 2)})
        assert str(q) == "1/2ε^-1"

    def test_non_rational_operand_is_refused(self):
        # the operand wrapper returns NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError):
            EPS + "x"
        with pytest.raises(TypeError):
            "x" - EPS

    def test_products_past_degree_16_are_exact(self):
        assert EPS * LCNumber.eps(16) == LCNumber.eps(17)
        assert parse_lc("1 - eps^20") == ONE - LCNumber.eps(20)

    def test_quotients_past_degree_minus_16_are_exact(self):
        assert ONE / LCNumber.eps(16) / LCNumber.eps(16) == LCNumber({-32: 1})

    @pytest.mark.parametrize("k", [0, -1])
    def test_eps_exponent_out_of_range(self, k):
        with pytest.raises(ValueError, match="eps exponent must be at least 1, got"):
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
    def test_truth_is_nonzero(self):
        assert EPS and ONE and not LCNumber.zero() and not (EPS - EPS)

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


def lc_strategy():
    exps = st.integers(min_value=-2, max_value=2)
    coefs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.dictionaries(exps, coefs, max_size=4).map(LCNumber)


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
        "eps^17",
        "eps^-17",
        "1 - eps^20",
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

    # whitespace may stand around signs and before "ε", never inside a
    # number or inside "eps" or "ε^k"; every digit is an ASCII one
    @pytest.mark.parametrize("bad", ["", "+", "1 +", "foo", "ε^", "1..2", "2x",
                                     "1 2", "1/1 0", "0. 5", "e p s", "ε^1 6",
                                     "2 + ε ^2", "٣", "٣ε", "ε^٢", "1 + ١/٢eps"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_lc(bad)

    # bad input, not an arithmetic fault: ValueError, never ZeroDivisionError
    @pytest.mark.parametrize("bad", ["1/0", "1/0 + eps", "1 - 3/0eps^2"])
    def test_rejects_a_zero_denominator(self, bad):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_lc(bad)

    def test_a_zero_denominator_is_a_value_error_everywhere(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            _as_fraction("1/0")
        with pytest.raises(ValueError, match="zero denominator"):
            LCNumber({1: "1/0"})

    # Python's numeric-literal extras are no part of the grammar: "1_0" would
    # read 10, and "1e999999" would build a 3.3-million-bit integer
    @pytest.mark.parametrize("bad", ["1_0", "-1_000/3", "1e-2", "1E2", "1e999999", "2.5e1",
                                     "٣", "١/٢", "0.٥", "inf", "nan", "1/-2", "- 1"])
    def test_a_rational_string_is_one_signed_coefficient(self, bad):
        with pytest.raises(ValueError, match="Invalid literal"):
            _as_fraction(bad)

    def test_a_rational_string_keeps_its_whitespace_and_sign(self):
        assert _as_fraction(" -3/4 ") == Fraction(-3, 4)
        assert _as_fraction("+.5") == Fraction(1, 2)
        assert _as_fraction("\t7.\n") == 7

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(r"[ \t]*[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)[ \t]*",
                         fullmatch=True))
    def test_a_signed_coefficient_reads_as_its_literal(self, text):
        # one grammar: a rational string is the standard part of its literal
        try:
            expected = parse_lc(text).standard_part()
        except ValueError as ex:
            assert "zero denominator" in str(ex)
            with pytest.raises(ValueError, match="zero denominator"):
                _as_fraction(text)
        else:
            assert _as_fraction(text) == expected

    @settings(max_examples=200, deadline=None)
    @given(lc_strategy(), st.data())
    def test_spaces_around_signs_and_before_eps_parse_back(self, x, data):
        def pad():
            return data.draw(st.sampled_from(["", " ", "  "]))

        text = re.sub(r"(?<!\^)[+-]|(?<=\d)(?=ε)", lambda m: pad() + m[0] + pad(),
                      format_lc(x))
        assert parse_lc(pad() + text + pad()) == x


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


def test_axiom_sweep_fails_on_a_broken_order(monkeypatch):
    # an order that calls every pair equal breaks (compare(a, b) == 0) == (a == b);
    # the sweep raises, under python -O too
    monkeypatch.setattr(lc_axioms, "compare", lambda a, b: 0)
    with pytest.raises(AssertionError, match="ordered-field identity failed"):
        axiom_sweep(seed=11, rounds=100)


def test_lc_numbers_are_immutable():
    x = LCNumber.eps()
    with pytest.raises(AttributeError, match="LCNumber is immutable"):
        x.terms = {0: Fraction(1)}
    assert x == EPS


def test_random_lc_reproducible():
    import random
    assert random_lc(random.Random(3)) == random_lc(random.Random(3))
