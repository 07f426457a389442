"""The packed LP builders against the list-form LPs they replace.

Each checker LP but the forced-zero one, and the game's, is packed straight
from the problem's packed risk columns (certificate, Stein) or from
delta0's gap rows ``G_theta = R_theta - r(theta, delta0) * ones`` (hull,
risk-equal, witness, game), every rhs >= 0, and goes to the kernel's
private entry.  The derived game and the witness set share one builder,
``game._minimax_lp``: the witness restriction LP is the game at q = 0 on
the chosen thetas, with delta0 barred from the mass row.  Here each
builder's result is compared with its LP in list form, solved by
``solve_lp``: the same status, objective, solution (as rationals, delta0's
all-zero column dropped where the hull and risk-equal builders keep one),
pivots and duals.  The risk-equal LP's status is also that of the
risk-row form it replaced, ``R_theta . mu == r(theta, delta0)``.  A spy on
the private entry checks that each builder's closed-form ``T`` bounds every
field and rhs it packed, and a spy on the Bland loop that the kernel's own
``T`` bounds every row it runs on, phase 1's objective row included.
"""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admlab import admissibility as adm
from admlab import game, simplex
from admlab.decision import DecisionProblem
from admlab.simplex import _pack, solve_lp
from fraction_simplex import fields


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
    """Spies the kernel's private entry and its Bland loop.

    At entry, the caller's claim: ``T < W`` and every field of every row it
    packed, and every rhs, is below ``2**T``.  At each run of the Bland loop,
    the kernel's own bound: ``tab.T < tab.W`` and every field of every row,
    the objective row included, is below ``2**tab.T``.  In phase 1 that
    objective is the sum of the rows with an artificial, which the kernel
    makes room for itself.
    """

    def __init__(self):
        self.lps = self.runs = 0
        self.run_simplex = simplex._run_simplex

    def __call__(self, rows, rhs, n_le, cost, T, W, *args, **kwargs):
        top = max(map(abs, [v for x in rows for v in fields(x, len(cost), W)] + rhs), default=0)
        assert top < 2 ** T and T < W
        self.lps += 1
        return simplex._solve_packed(rows, rhs, n_le, cost, T, W, *args, **kwargs)

    def bland(self, tab, basis, d):
        top = max(abs(v) for x in tab.rows for v in fields(x, tab.nfields, tab.W))
        assert top < 2 ** tab.T and tab.T < tab.W
        self.runs += 1
        return self.run_simplex(tab, basis, d)


def _packed(call):
    spy = _Bounded()
    with mock.patch.object(adm, "_solve_packed", spy), \
            mock.patch.object(game, "_solve_packed", spy), \
            mock.patch.object(simplex, "_run_simplex", spy.bland):
        res = call()
    assert spy.lps == 1 and spy.runs >= 1
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
@example(_EDGES[0])
@example(_EDGES[1])
@example(_EDGES[2])
@example(_EDGES[3])
def test_risk_equal_lp_matches_the_list_form(p):
    for j0 in range(len(p.proc_labels)):
        cols, den, irisk = _others(p, j0), p.den, p.irisk
        # the gap rows G_theta . mu == 0, then the mass row
        listed = solve_lp([0] * len(cols),
                          A_eq=[[r[j] - r[j0] for j in cols] for r in irisk] + [[den] * len(cols)],
                          b_eq=[0] * len(irisk) + [den])
        _assert_same(_packed(lambda: adm._risk_equal_lp(p, j0)), listed, j0)
        # the risk-row form R_theta . mu == r(theta, delta0) it replaced: the
        # same LP, since the mass row makes sum(mu) == 1
        risk_rows = solve_lp([0] * len(cols),
                             A_eq=[[r[j] for j in cols] for r in irisk] + [[den] * len(cols)],
                             b_eq=[r[j0] for r in irisk] + [den])
        assert risk_rows.status == listed.status
        if not cols:  # a lone procedure: the mass row reads 0 == den
            assert (listed.status, listed.iterations) == ("infeasible", 0)


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


@pytest.mark.parametrize("n_le", (0, 1))
def test_phase_one_objective_gets_room_of_its_own(n_le):
    # max -x1 - x2 with x1 + x2 == 1 (or -x1 - x2 <= -1, negated for its rhs)
    # and x1 - x2 == 1,
    # times a = 2**15 - 1: every field and rhs fits T = 15 at W = 16, and
    # both rows get an artificial.  Their sum, phase 1's objective, holds 2a
    # in x1's field and in the rhs, which 16 bits cannot hold: the kernel
    # must make room for it before phase 1 runs
    a = 2 ** 15 - 1
    A, b = ([[-a, -a], [a, -a]], [-a, a]) if n_le else ([[a, a], [a, -a]], [a, a])
    spy = _Bounded()
    with mock.patch.object(simplex, "_run_simplex", spy.bland):
        res = spy([_pack(row, 16) for row in A], b, n_le, [-1, -1], 15, 16)
    assert spy.runs == 2 and res.x == [1, 0] and res.objective == -1
    assert res == solve_lp([-1, -1], A_ub=A[:n_le], b_ub=b[:n_le], A_eq=A[n_le:], b_eq=b[n_le:])
