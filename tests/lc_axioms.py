"""Randomized ordered-field identity checks shared by the unit and acceptance suites."""

import random
from fractions import Fraction

from admlab import LCNumber, compare

# products and quotients of these reach exponents past +-16, and every
# identity below must still hold exactly
EXP_RANGE = (-12, 12)


def random_lc(rng: random.Random, max_terms: int = 4) -> LCNumber:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(*EXP_RANGE)
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        terms[e] = terms.get(e, Fraction(0)) + c
    return LCNumber(terms)


def axiom_sweep(seed: int, rounds: int) -> int:
    """Assert ordered-field identities on random triples; return the check count."""
    rng = random.Random(seed)
    zero = LCNumber.zero()
    one = LCNumber.from_real(1)
    checks = 0

    def ok(cond):
        # raised, not asserted: pytest does not rewrite this module, so an
        # assert here would vanish under python -O
        nonlocal checks
        if not cond:
            raise AssertionError(f"ordered-field identity failed after {checks} checks")
        checks += 1

    for _ in range(rounds):
        a, b, c = random_lc(rng), random_lc(rng), random_lc(rng)

        ok(a + b == b + a)
        ok((a + b) + c == a + (b + c))
        ok(a + zero == a)
        ok(a + (-a) == zero)
        ok(a * b == b * a)
        ok((a * b) * c == a * (b * c))
        ok(a * (b + c) == a * b + a * c)
        ok(a * one == a)
        if not b.is_zero():
            # quotient of an exact product recovers the cofactor
            ok((a * b) / b == a)

        sab = compare(a, b)
        ok(sab == -compare(b, a))
        ok((sab == 0) == (a == b))
        if sab < 0:
            ok(compare(a + c, b + c) < 0)
            if compare(c, zero) > 0:
                ok(compare(a * c, b * c) < 0)
        if compare(a, b) <= 0 <= compare(c, b):
            ok(compare(a, c) <= 0)
    return checks
