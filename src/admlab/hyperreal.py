"""Levi-Civita numbers as exact Laurent polynomials in an infinitesimal.

A number is a finite sum ``sum_j c_j * eps^j`` with exact rational
coefficients ``c_j`` and integer exponents ``j`` of any size, where ``eps``
is a positive infinitesimal.  Ordering is lexicographic in the exponent: the
term with the smallest exponent dominates.  Sums, differences and products
are exact.  Division is exact too: it raises ``ArithmeticError`` when the
divisor does not divide the dividend, as in ``1 / (1 - eps)``, whose
quotient is an infinite series.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from numbers import Rational

__all__ = [
    "LCNumber",
    "approx_eq",
    "approx_leq",
    "compare",
    "format_lc",
    "parse_lc",
]


def _as_fraction(x) -> Fraction:
    """Coerce an exact rational (or its decimal/fraction string) to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _operand(method):
    """A binary method whose other operand is an LCNumber, a rational embedded
    as one, or else NotImplemented."""
    @functools.wraps(method)
    def wrapper(self, other):
        if isinstance(other, Rational):
            other = LCNumber.from_real(other)
        elif not isinstance(other, LCNumber):
            return NotImplemented
        return method(self, other)
    return wrapper


@functools.total_ordering
class LCNumber:
    """A Levi-Civita number with finitely many terms.  Instances are immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[int, Fraction] = {}
        for exp, coef in (terms or {}).items():
            coef = _as_fraction(coef)
            if coef == 0:
                continue
            clean[int(exp)] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LCNumber is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_real(cls, x) -> "LCNumber":
        """Embed an exact rational at exponent 0."""
        return cls({0: _as_fraction(x)})

    @classmethod
    def eps(cls, k: int = 1) -> "LCNumber":
        """The infinitesimal eps^k, for k >= 1."""
        if k < 1:
            raise ValueError(f"eps exponent must be at least 1, got {k}")
        return cls({k: Fraction(1)})

    @classmethod
    def zero(cls) -> "LCNumber":
        return cls({})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_exponent(self):
        """Smallest exponent with a nonzero coefficient, or None for zero."""
        return min(self.terms) if self.terms else None

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[min(self.terms)]

    def sign(self) -> int:
        c = self.leading_coefficient()
        return (c > 0) - (c < 0)

    def is_finite(self) -> bool:
        """No term with negative exponent."""
        return all(e >= 0 for e in self.terms)

    def is_infinitesimal(self) -> bool:
        """Finite with standard part zero (zero itself counts)."""
        return all(e >= 1 for e in self.terms)

    def standard_part(self) -> Fraction:
        """Coefficient at exponent 0.  Raises for infinite numbers."""
        if not self.is_finite():
            raise ValueError(f"standard part of infinite number {self}")
        return self.terms.get(0, Fraction(0))

    # -- arithmetic ------------------------------------------------------

    @_operand
    def __add__(self, o):
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LCNumber(terms)

    __radd__ = __add__

    def __neg__(self):
        return LCNumber({e: -c for e, c in self.terms.items()})

    @_operand
    def __sub__(self, o):
        return self + (-o)

    @_operand
    def __rsub__(self, o):
        return o - self

    @_operand
    def __mul__(self, o):
        terms: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LCNumber(terms)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, o):
        return _divide(self, o)

    @_operand
    def __rtruediv__(self, o):
        return _divide(o, self)

    # -- order (total_ordering derives <=, > and >=) ----------------------

    @_operand
    def __eq__(self, o):
        return self.terms == o.terms

    @_operand
    def __lt__(self, o):
        return compare(self, o) < 0

    def __bool__(self):
        return bool(self.terms)

    # -- text ------------------------------------------------------------

    def __str__(self):
        return format_lc(self)

    def __repr__(self):
        return f"LCNumber({format_lc(self)!r})"


def _divide(a: LCNumber, b: LCNumber) -> LCNumber:
    """Exact long division by ascending exponent.

    An exact quotient has no term above ``max(a) - max(b)``; a remainder left
    once the division passes that exponent means ``b`` does not divide ``a``.
    """
    if b.is_zero():
        raise ZeroDivisionError("division of Levi-Civita number by zero")
    lead_b = b.leading_exponent()
    coef_b = b.terms[lead_b]
    top = max(a.terms, default=0) - max(b.terms)
    rem = dict(a.terms)
    quot: dict[int, Fraction] = {}
    while rem:
        lead_r = min(rem)
        t_exp = lead_r - lead_b
        if t_exp > top:
            raise ArithmeticError(f"{format_lc(b)} does not divide {format_lc(a)}")
        t_coef = rem[lead_r] / coef_b
        quot[t_exp] = t_coef
        for e, c in b.terms.items():
            e2 = t_exp + e
            v = rem.get(e2, Fraction(0)) - t_coef * c
            if v == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = v
    return LCNumber(quot)


def compare(a: LCNumber, b) -> int:
    """Total lexicographic order: -1 if a < b, 0 if equal, 1 if a > b."""
    return (a - b).sign()


def approx_leq(a: LCNumber, b) -> bool:
    """a <~ b: a - b is negative, zero, or a positive infinitesimal."""
    d = a - b
    return d.sign() <= 0 or d.is_infinitesimal()


def approx_eq(a: LCNumber, b) -> bool:
    """a ~ b: the difference is infinitesimal or zero."""
    return (a - b).is_infinitesimal()


# -- textual format: "c_-j ε^-j + ... + c_0 + c_1 ε + c_2 ε^2 + ..." -----

def format_rational(c: Fraction) -> str:
    """'n' for an integer, 'n/d' otherwise."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_lc(x: LCNumber) -> str:
    if not x.terms:
        return "0"
    parts = []
    for i, exp in enumerate(sorted(x.terms)):
        coef = x.terms[exp]
        mag = abs(coef)
        if exp == 0:
            body = format_rational(mag)
        else:
            sym = "ε" if exp == 1 else f"ε^{exp}"
            body = sym if mag == 1 else f"{format_rational(mag)}{sym}"
        if i == 0:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+|\.\d*)?|\.\d+)?"
    r"(?:\*?(?:ε|eps)(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_lc(text: str) -> LCNumber:
    """Parse the textual rendering produced by :func:`format_lc`.

    Accepts "eps" as an ASCII alias for "ε" and a unicode minus sign.
    Raises ValueError for a zero denominator.
    """
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty Levi-Civita literal")
    # split into signed chunks
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, []
    first = True
    for ch in s:
        if ch in "+-" and buf and buf[-1] != "^":
            chunks.append((sign, "".join(buf)))
            sign, buf = (1 if ch == "+" else -1), []
        elif ch in "+-" and not buf and first:
            sign = 1 if ch == "+" else -1
        else:
            buf.append(ch)
        first = False
    if not buf:
        raise ValueError(f"dangling sign in Levi-Civita literal {text!r}")
    chunks.append((sign, "".join(buf)))

    terms: dict[int, Fraction] = {}
    for sgn, chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and "ε" not in chunk and "eps" not in chunk):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r} of {text!r}") from None
        has_eps = "ε" in chunk or "eps" in chunk
        exp = int(m.group("exp")) if m.group("exp") else (1 if has_eps else 0)
        terms[exp] = terms.get(exp, Fraction(0)) + sgn * coef
    return LCNumber(terms)
