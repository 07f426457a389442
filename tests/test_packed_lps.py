"""The packed LP builders against the list-form LPs they replace.

Each checker LP but the forced-zero one, and the game's, is packed straight
from the problem's packed risk columns or rows and goes to the kernel's
private entry.  The derived game and the witness set share one builder,
``game._minimax_lp``: the witness restriction LP is the game at q = 0 on
the chosen thetas, with delta0 barred from the mass row.  Here each
builder's result is compared with its LP in list form, solved by
``solve_lp``: the same status, objective, solution (as rationals, delta0's
all-zero column dropped where the hull and risk-equal builders keep one),
pivots and duals.  A spy on the private entry checks that each
builder's closed-form ``T`` bounds every field it packed, and every field
of phase 1's objective row when phase 1 runs.
"""

import random
from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from admlab import admissibility as adm
from admlab import game, simplex
from admlab.decision import DecisionProblem
from admlab.simplex import solve_lp


def _problem(risk):
    return DecisionProblem(tuple(f"t{i + 1}" for i in range(len(risk))),
                           tuple(f"d{j + 1}" for j in range(len(risk[0]))), risk)


@st.composite
def _problems(draw):
    """1-6 x 1-7 risks on the 1/8, 1/97 or 10**-6 grid, in [0, 1] or in [-1, 1]."""
    nt, nd = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    grid = draw(st.sampled_from((8, 97, 10**6)))
    low = -grid if draw(st.booleans()) else 0
    rng = random.Random(draw(st.integers(0, 10**6)))
    return _problem([[F(rng.randint(low, grid), grid) for _ in range(nd)] for _ in range(nt)])


_EDGES = (_problem([[0]]), _problem([[F(-3, 8), 1, F(-1, 8), 0]]),
          _problem([[F(1, 97)], [-1], [0], [F(-96, 97)], [1]]),
          _problem([[1, F(-1, 2)], [F(-1, 2), 1], [0, 0]]))


class _Bounded:
    """Spies the kernel's private entry: T < W bounds every packed field, and
    every field of phase 1's objective, the sum of the rows with an artificial."""

    def __init__(self):
        self.lps = 0

    def __call__(self, tab, basis, cost, *args, **kwargs):
        cols = [tab.column(k) for k in range(tab.nfields)]
        art = [i for i, b in enumerate(basis) if b >= len(cost)]
        top = max(abs(v) for col in cols for v in col)
        phase1 = max(abs(sum(col[i] for i in art)) for col in cols)
        assert max(top, phase1) < 2 ** tab.T and tab.T < tab.W
        self.lps += 1
        return simplex._solve_tableau(tab, basis, cost, *args, **kwargs)


def _packed(call):
    spy = _Bounded()
    with mock.patch.object(adm, "_solve_tableau", spy), \
            mock.patch.object(game, "_solve_tableau", spy):
        res = call()
    assert spy.lps == 1
    return res


def _assert_same(packed, listed, j0=None):
    """Same LP answer; j0 names delta0's all-zero column in the packed one."""
    assert (packed.status, packed.objective, packed.iterations, packed.ynum) == (
        listed.status, listed.objective, listed.iterations, listed.ynum)
    if listed.num is None:
        assert packed.num is None and packed.D is None
        return
    num = packed.num[:]
    if j0 is not None:
        assert num.pop(j0) == 0
    assert [F(v, packed.D) for v in num] == [F(v, listed.D) for v in listed.num]


def _others(p, j0):
    return [j for j in range(len(p.proc_labels)) if j != j0]


@settings(max_examples=150, deadline=None)
@given(_problems())
@example(_EDGES[0])
@example(_EDGES[1])
@example(_EDGES[2])
@example(_EDGES[3])
def test_hull_lp_matches_the_list_form(p):
    for j0 in range(len(p.proc_labels)):
        cols, den, irisk = _others(p, j0), p.den, p.irisk
        listed = solve_lp([sum(r[j0] - r[j] for r in irisk) for j in cols],
                          A_ub=[[r[j] - r[j0] for j in cols] for r in irisk] + [[den] * len(cols)],
                          b_ub=[0] * len(irisk) + [den])
        _assert_same(_packed(lambda: adm._hull_lp(p, j0)), listed, j0)


@settings(max_examples=150, deadline=None)
@given(_problems())
@example(_EDGES[1])
@example(_EDGES[2])
@example(_EDGES[3])
def test_risk_equal_lp_matches_the_list_form(p):
    for j0 in range(len(p.proc_labels)):
        cols, den, irisk = _others(p, j0), p.den, p.irisk
        if not cols:
            continue  # dominated_in_hull solves no risk-equal LP then
        listed = solve_lp([0] * len(cols),
                          A_eq=[[r[j] for j in cols] for r in irisk] + [[den] * len(cols)],
                          b_eq=[r[j0] for r in irisk] + [den])
        _assert_same(_packed(lambda: adm._risk_equal_lp(p, j0)), listed, j0)


@settings(max_examples=150, deadline=None)
@given(_problems())
@example(_EDGES[0])
@example(_EDGES[1])
@example(_EDGES[2])
@example(_EDGES[3])
def test_certificate_lp_matches_the_list_form(p):
    nt, den = len(p.theta_labels), p.den
    for j0 in range(len(p.proc_labels)):
        bayes = adm._bayes_rows(p, j0)
        listed = solve_lp([0] * nt + [1], A_ub=[row + [sum(row)] for row in bayes],
                          b_ub=[0] * len(bayes), A_eq=[[den] * nt + [den * nt]], b_eq=[den])
        _assert_same(_packed(lambda: adm._certificate_lp(p, j0)), listed)


@settings(max_examples=150, deadline=None)
@given(_problems(), st.randoms(use_true_random=False))
@example(_EDGES[1], random.Random(1))
@example(_EDGES[2], random.Random(2))
@example(_EDGES[3], random.Random(3))
def test_restriction_lp_matches_the_list_form(p, rng):
    # the witness restriction LP is the derived game at q = 0 and a = 1
    # (scale den) on the chosen thetas, with delta0 left out of the mass row
    nt, nd, den, irisk = len(p.theta_labels), len(p.proc_labels), p.den, p.irisk
    for j0 in range(nd):
        cols = _others(p, j0)
        if not cols:
            continue  # witness_set solves no LP then
        chosen = rng.sample(range(nt), rng.randint(1, nt))
        ipay = [[irisk[i][j] - irisk[i][j0] for j in range(nd)] for i in chosen]
        listed = solve_lp([0] * nd + [1], A_ub=[row + [-den] for row in ipay],
                          b_ub=[0] * len(ipay),
                          A_eq=[[0 if j == j0 else den for j in range(nd)] + [0]],
                          b_eq=[den], free_vars=[nd], maximize=False)
        packed = _packed(lambda: game._minimax_lp(p, j0, chosen, 1, 0, 0))
        _assert_same(packed, listed)
        # the same value as the LP over the competitors' columns alone,
        # with delta0's risks on the right-hand side
        alone = solve_lp([0] * len(cols) + [1],
                         A_ub=[[irisk[i][j] for j in cols] + [-den] for i in chosen],
                         b_ub=[irisk[i][j0] for i in chosen], A_eq=[[den] * len(cols) + [0]],
                         b_eq=[den], free_vars=[len(cols)], maximize=False)
        assert (packed.status, packed.objective) == (alone.status, alone.objective)


@settings(max_examples=150, deadline=None)
@given(_problems(), st.sampled_from((F(1, 2), F(1), F(3, 2), F(2), F(1, 7), F(2, 97))))
@example(_EDGES[0], F(2))
@example(_EDGES[1], F(3, 2))
@example(_EDGES[2], F(2))
@example(_EDGES[3], F(1, 7))
def test_game_lp_matches_the_list_form(p, gamma):
    nt, nd, a, q = len(p.theta_labels), len(p.proc_labels), gamma.numerator, gamma.denominator
    scale = p.den * q
    for j0 in range(nd):
        for i0 in range(nt):
            top = p.irisk[i0]
            ipay = [[q * (top[j] - top[j0]) + a * (r[j] - r[j0]) for j in range(nd)]
                    for r in p.irisk]
            listed = solve_lp([0] * nd + [1], A_ub=[row + [-scale] for row in ipay],
                              b_ub=[0] * nt, A_eq=[[scale] * nd + [0]], b_eq=[scale],
                              free_vars=[nd], maximize=False)
            _assert_same(_packed(lambda: game._minimax_lp(p, j0, range(nt), a, q, i0)), listed)
