import random
from fractions import Fraction as F
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_outputs
import fraction_simplex
from admlab import admissibility, game, simplex
from admlab.decision import DecisionProblem, random_problem
from admlab.simplex import LPResult, solve_lp


class TestHandProblems:
    def test_two_constraint_vertex(self):
        r = solve_lp([1, 1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        assert r.status == "optimal"
        assert r.objective == F(14, 5)
        assert r.x == [F(8, 5), F(6, 5)]
        assert r.iterations == 2

    def test_infeasible(self):
        r = solve_lp([0], A_eq=[[1]], b_eq=[-1])
        assert r.status == "infeasible"
        assert r.objective is None and r.x is None
        assert r.iterations == 0

    def test_unbounded(self):
        r = solve_lp([1], A_ub=[[0]], b_ub=[1])
        assert r.status == "unbounded"
        assert r.iterations == 0  # the slack starts basic: x enters, and no row bounds it

    def test_minimize_with_free_variable(self):
        r = solve_lp([1], A_ub=[[-1]], b_ub=[5], free_vars=[0], maximize=False)
        assert r.status == "optimal"
        assert r.objective == F(-5) and r.x == [F(-5)]
        assert r.iterations == 1

    def test_beale_cycling_terminates(self):
        # classic degenerate instance that cycles under naive pivoting
        c = [F(3, 4), -150, F(1, 50), -6]
        A = [[F(1, 4), -60, F(-1, 25), 9],
             [F(1, 2), -90, F(-1, 50), 3],
             [0, 0, 1, 0]]
        r = solve_lp(c, A_ub=A, b_ub=[0, 0, 1])
        assert r.status == "optimal"
        assert r.objective == F(1, 20)
        assert r.x == [F(1, 25), 0, 1, 0]
        assert r.iterations == 6

    def test_redundant_equality_rows(self):
        r = solve_lp([2, 3], A_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
        assert r.status == "optimal"
        assert r.objective == 3 and r.x == [0, 1]
        assert r.iterations == 2  # one pivot per phase; the second row is redundant

    def test_maximin_with_free_value_variable(self):
        r = solve_lp([0, 0, 1],
                     A_ub=[[-1, 0, 1], [0, -1, 1]], b_ub=[0, 0],
                     A_eq=[[1, 1, 0]], b_eq=[1], free_vars=[2])
        assert r.objective == F(1, 2)
        assert r.x == [F(1, 2), F(1, 2), F(1, 2)]
        assert r.iterations == 3

    def test_negative_rhs_inequality(self):
        # x >= 2 written as -x <= -2, minimize x
        r = solve_lp([1], A_ub=[[-1]], b_ub=[-2], maximize=False)
        assert r.status == "optimal" and r.objective == 2
        assert r.iterations == 1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            solve_lp([0.5], A_ub=[[1]], b_ub=[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([1, 2], A_ub=[[1]], b_ub=[1])
        with pytest.raises(ValueError):
            solve_lp([1], A_ub=[[1]], b_ub=[1, 2])

    @pytest.mark.parametrize("free", [[1], [-1]])
    def test_free_variable_out_of_range(self, free):
        with pytest.raises(ValueError, match="free variable index out of range"):
            solve_lp([1], A_ub=[[1]], b_ub=[1], free_vars=free)


def test_matches_scipy_on_random_instances():
    # scipy stays an independent reference beside the Fraction-kernel oracle
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(20240817)
    seen = set()
    for trial in range(80):
        n, m, me = rng.randint(2, 5), rng.randint(1, 4), rng.randint(0, 2)
        c = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
        free = [j for j in range(n) if rng.random() < 0.25]
        maximize = rng.random() < 0.5
        # every row holds at x0 (right-hand sides may be negative); the box
        # rows keep the instance bounded, free variables included
        x0 = [F(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(n)]
        A = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(m)]
        b = [sum(a * v for a, v in zip(row, x0)) + rng.randint(0, 6) for row in A]
        A.append([F(1)] * n)
        b.append(F(10))
        for j in free:
            A.append([F(-1) if k == j else F(0) for k in range(n)])
            b.append(F(1))
        A_eq = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(me)]
        b_eq = [sum(a * v for a, v in zip(row, x0)) for row in A_eq]
        if trial % 4 == 3:  # two equality rows at odds with each other
            A_eq += [list(A[0]), [2 * v for v in A[0]]]
            b_eq += [b[0], 2 * b[0] + 1]
        ours = solve_lp(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                        free_vars=free, maximize=maximize)
        sense = -1 if maximize else 1
        ref = scipy_opt.linprog(
            [sense * float(v) for v in c],
            A_ub=[[float(v) for v in row] for row in A],
            b_ub=[float(v) for v in b],
            A_eq=[[float(v) for v in row] for row in A_eq] or None,
            b_eq=[float(v) for v in b_eq] or None,
            bounds=[(None, None) if j in free else (0, None) for j in range(n)],
            method="highs")
        assert ref.status in (0, 2), (trial, ref.message)
        assert (ref.status == 2) == (ours.status == "infeasible"), trial
        seen.add(ours.status)
        if ref.status == 0:
            assert ours.status == "optimal", trial
            assert abs(float(ours.objective) - sense * ref.fun) < 1e-9, trial
    assert seen == {"optimal", "infeasible"}


def test_result_is_frozen():
    r = LPResult("optimal", F(0), [], 1, 0)
    with pytest.raises(AttributeError):
        r.status = "other"
    with pytest.raises(AttributeError):
        r.x = [F(1)]


# -- the integer kernel against the Fraction-tableau oracle -------------------

def _fields(res):
    return res.status, res.objective, res.x, res.iterations


def _assert_duals(args, kwargs, r):
    """ynum against LP duality: each multiplier >= 0, and 0 on a row that is
    slack at x; with no equality rows, exact dual feasibility (equality at a
    free variable) and b.y equal to the optimum of max sign * c.x."""
    (c,) = args
    A, b = kwargs.get("A_ub") or [], kwargs.get("b_ub") or []
    assert len(r.ynum) == len(A) and all(type(v) is int and v >= 0 for v in r.ynum)
    y = [F(v, r.D * lcm(*(F(cj).denominator for cj in c))) for v in r.ynum]
    for row, bi, yi in zip(A, b, y):
        if sum(map(mul, row, r.x)) < bi:
            assert yi == 0
    if not kwargs.get("A_eq"):
        sign = 1 if kwargs.get("maximize", True) else -1
        assert sum(map(mul, b, y)) == sign * r.objective
        for j, cj in enumerate(c):
            reduced = sum(row[j] * yi for row, yi in zip(A, y)) - sign * cj
            assert reduced == 0 if j in kwargs.get("free_vars", ()) else reduced >= 0


def _assert_same_as_oracle(args, kwargs):
    ours = solve_lp(*args, **kwargs)
    ref = fraction_simplex.solve_lp(*args, **kwargs)
    # status, objective, x and iterations, down to Fraction (not int) entries
    assert repr(_fields(ours)) == repr(_fields(ref))
    if ours.status == "optimal":
        assert all(type(v) is int for v in ours.num) and len(ours.num) == len(args[0])
        assert type(ours.D) is int and ours.D > 0
        _assert_duals(args, kwargs, ours)
    else:
        assert ours.num is None and ours.D is None and ours.ynum is None
    return ours


_entry = st.one_of(st.integers(-3, 3).map(F),
                   st.fractions(-5, 5, max_denominator=97))
# numerators up to 2**120 and denominators up to 10**12 next to small entries,
# with mixed signs in every field
_large_entry = st.one_of(st.builds(F, st.integers(-2**120, 2**120), st.integers(1, 10**12)),
                         _entry)


@st.composite
def _lps(draw, entry=_entry):
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3)
    A_ub, A_eq = draw(rows), draw(rows)
    b_ub = draw(st.lists(entry, min_size=len(A_ub), max_size=len(A_ub)))
    b_eq = draw(st.lists(entry, min_size=len(A_eq), max_size=len(A_eq)))
    if A_eq and draw(st.booleans()):  # a redundant multiple of an equality row
        k = draw(st.sampled_from([F(-2), F(1, 3), F(5, 2)]))
        A_eq.append([k * v for v in A_eq[0]])
        b_eq.append(k * b_eq[0])
    c = draw(st.lists(entry, min_size=n, max_size=n))
    free = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return (c,), dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      free_vars=free, maximize=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_lps())
def test_matches_fraction_oracle(lp):
    _assert_same_as_oracle(*lp)


@settings(max_examples=200, deadline=None)
@given(_lps(_large_entry))
def test_large_entries_match_fraction_oracle(lp):
    _assert_same_as_oracle(*lp)


@settings(max_examples=200, deadline=None)
@given(_lps())
def test_x_is_num_over_D(lp):
    r = solve_lp(*lp[0], **lp[1])
    if r.status == "optimal":
        assert r.x == [F(v, r.D) for v in r.num]
    else:
        assert r.x is None


def test_ynum_on_the_large_entry_corpus():
    # each LP there gains -x1 <= 0 and a row with a negative rhs,
    # -(x1 + .. + xn) / 3 <= -1/2, which some LPs cannot meet and some bind
    binding = 0
    for args, kwargs in exact_outputs.large_entry_lps():
        n = len(args[0])
        kwargs["A_ub"] += [[F(-1)] + [F(0)] * (n - 1), [F(-1, 3)] * n]
        kwargs["b_ub"] += [F(0), F(-1, 2)]
        r = _assert_same_as_oracle(args, kwargs)
        binding += r.status == "optimal" and r.ynum[-1] > 0
    assert binding > 0


def test_ynum_with_negative_rhs_rows():
    # min x1 + 2 x2 with x1 + x2 >= 3 and x1 <= 2: the first row is negated
    # for its rhs, and both bind at x = (2, 1) with duals 2 and 1
    r = solve_lp([1, 2], A_ub=[[-1, -1], [1, 0]], b_ub=[-3, 2], maximize=False)
    assert r.x == [2, 1] and r.objective == 4
    assert [F(v, r.D) for v in r.ynum] == [2, 1]
    # the same LP as a max: the multipliers of max -x1 - 2 x2
    r = solve_lp([-1, -2], A_ub=[[-1, -1], [1, 0]], b_ub=[-3, 2])
    assert r.objective == -4 and [F(v, r.D) for v in r.ynum] == [2, 1]


def test_matches_fraction_oracle_on_each_status():
    for args, kwargs, status in [
            (([F(1)],), dict(A_eq=[[F(1)]], b_eq=[F(-1)]), "infeasible"),
            (([F(1), F(0)],), dict(A_ub=[[F(1), F(-1)]], b_ub=[F(1)]), "unbounded"),
            (([F(1), F(2)],), dict(maximize=False), "optimal"),      # no constraint
            (([F(2), F(-3, 97)],), dict(), "unbounded")]:            # no constraint
        assert _assert_same_as_oracle(args, kwargs).status == status


class _SimplexRuns:
    """Counts the calls to the Bland loop: one per phase that runs."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = simplex._run_simplex

        def spy(tab, basis, d):
            self.count += 1
            return real(tab, basis, d)
        monkeypatch.setattr(simplex, "_run_simplex", spy)


def test_all_slack_start_skips_phase_one(monkeypatch):
    # every row is a <= b with b >= 0: each slack starts basic, no row needs
    # an artificial, and only phase 2 runs
    runs = _SimplexRuns(monkeypatch)
    r = _assert_same_as_oracle(([1, 1],), dict(A_ub=[[1, 2], [3, 1], [1, 0]], b_ub=[4, 6, 0]))
    assert runs.count == 1
    assert r.x == [0, 2] and r.iterations == 2  # one degenerate pivot on x1 <= 0


def test_slack_negative_rhs_and_equality_rows(monkeypatch):
    # min x1 + 2 x2 - x3 with x1 + x2 + x3 <= 4 (its slack starts basic),
    # x1 + 2 x2 >= 3 as a negative-rhs row and x1 - x3 = 1/2 (an artificial
    # each): both inequality rows bind at x = (2, 1/2, 3/2)
    runs = _SimplexRuns(monkeypatch)
    r = _assert_same_as_oracle(
        ([1, 2, -1],), dict(A_ub=[[1, 1, 1], [-1, -2, 0]], b_ub=[4, -3],
                            A_eq=[[1, 0, -1]], b_eq=[F(1, 2)], maximize=False))
    assert runs.count == 2
    assert r.objective == F(3, 2) and r.x == [2, F(1, 2), F(3, 2)]
    assert [F(v, r.D) for v in r.ynum] == [F(2, 3), F(4, 3)]


class _NegativePivots:
    """Counts pivots on a negative entry, which only the drive-out step makes."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = simplex._pivot

        def spy(tab, basis, r, s, col, d):
            self.count += col[r] < 0
            return real(tab, basis, r, s, col, d)
        monkeypatch.setattr(simplex, "_pivot", spy)


def test_drive_out_pivot_on_negative_entry(monkeypatch):
    # x1 = x2 = 0 as two equality rows with negative coefficients: phase 1
    # ends with an artificial basic at level 0 in a row whose first nonzero
    # entry is negative, and phase 2 pivots once more after that (the
    # inequality row's slack starts basic, so phase 1 pivots only once)
    neg = _NegativePivots(monkeypatch)
    r = _assert_same_as_oracle(
        ([1, 3, 2],), dict(A_ub=[[3, 2, 2]], b_ub=[6],
                           A_eq=[[-1, -3, 0], [-1, -1, 0]], b_eq=[0, 0]))
    assert neg.count == 1
    assert r.objective == 6 and r.x == [0, 0, 3] and r.iterations == 3


class _Repacks:
    """Counts the times the kernel packs its rows again at a wider width."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = simplex._repack

        def spy(tab, W):
            self.count += 1
            return real(tab, W)
        monkeypatch.setattr(simplex, "_repack", spy)


def test_fields_read_back_next_to_negative_fields():
    # a negative field borrows from the one above it unless every field
    # below the one read is biased too
    rows = [[-1, 5, -255, 3], [255, -1, -1, -7], [0, -128, 0, 0]]
    tab = simplex._Tableau(4, 8, 16)
    tab.rows = [tab.pack(r) for r in rows]
    assert list(zip(*(tab.column(k) for k in range(4)))) == [tuple(r) for r in rows]
    assert [tab.rhs(x) for x in tab.rows] == [3, -7, 0]
    assert tab.measure() in (8, 9)  # |v| < 2**8, at most one bit over


def test_width_guard_repacks_before_a_field_can_overflow():
    # every field is below 2**8, and pivoting on 128 with 128 the other
    # entry in its column can grow fields by g = 8 bits: at width
    # W = T + g = 16 the new entry 255*128 + 128*255 = 65280 >= 2**15 would
    # not be readable, so the pivot must measure and pack again first
    rows = [[128, -255, 7], [128, 255, -3], [0, 0, 0]]
    tab = simplex._Tableau(3, 8, 16)
    tab.rows = [tab.pack(r) for r in rows]
    basis = [3, 4]
    col = tab.column(0)
    assert col == [128, 128, 0]
    assert simplex._pivot(tab, basis, 0, 0, col, 1) == 128
    assert tab.W > 16 and basis == [0, 4]
    fields = list(zip(*(tab.column(k) for k in range(3))))
    assert fields == [(128, -255, 7), (0, 65280, -1280), (0, 0, 0)]


def test_growing_entries_force_a_repack(monkeypatch):
    # 120-bit numerators over 12-digit denominators: the Bareiss minors
    # outgrow the first width within two pivots
    repacks = _Repacks(monkeypatch)
    rng = random.Random(12)
    n = 4

    def entry():
        return F(rng.randint(-2**120, 2**120), rng.randint(1, 10**12))

    A = [[entry() for _ in range(n)] for _ in range(4)] + [[F(1)] * n]
    x0 = [F(rng.randint(1, 3), rng.randint(1, 5)) for _ in range(n)]
    b = [sum(a * v for a, v in zip(row, x0)) + abs(entry()) for row in A[:-1]] + [sum(x0) + 1]
    r = _assert_same_as_oracle(([entry() for _ in range(n)],), dict(A_ub=A, b_ub=b))
    assert r.status == "optimal" and r.iterations >= 2
    assert repacks.count >= 1


def _unpacked(tab, basis, cost, n, free=(), L=1, Lc=1, sign=1):
    """The list-form LP that solve_lp packs into the same tableau (args, kwargs).

    Rows with a slack come first, slack k in row k: stored as 1 and basic,
    or as -1 in a row negated for its negative rhs, whose artificial is
    basic.  The rest are equality rows, each with an artificial.  A free
    variable's negative part is its column negated, in the rows and in the
    cost.  The checkers' rows and costs are ints under no common factor.
    """
    assert L == Lc == 1
    ncols, nf = len(cost), len(free)
    nslack = ncols - n - nf
    assert tab.nfields == ncols + 1 and len(basis) >= nslack
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    cols = [tab.column(k) for k in range(tab.nfields)]
    for i, bj in enumerate(basis):
        f = [col[i] for col in cols]
        assert f[n:n + nf] == [-f[j] for j in free]
        slack = f[n + nf:ncols]
        if i < nslack:
            s = slack[i]
            assert slack == [s * (k == i) for k in range(nslack)]
            assert ((s, bj) == (1, n + nf + i) and f[-1] >= 0
                    or (s, bj) == (-1, ncols + i) and f[-1] > 0)
            A_ub.append([s * v for v in f[:n]])
            b_ub.append(s * f[-1])
        else:
            assert not any(slack) and bj == ncols + i and f[-1] >= 0
            A_eq.append(f[:n])
            b_eq.append(f[-1])
    assert cost[n:] == [-cost[j] for j in free] + [0] * nslack
    return ([sign * v for v in cost[:n]],), dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                                 free_vars=list(free), maximize=sign == 1)


class _Recorded:
    """Records every LP the checkers and the game solve, on the real kernel.

    Every checker LP but the forced-zero one, and the game's, packs its own
    tableau and calls ``simplex._solve_tableau``: those LPs are recorded
    unpacked, in list form, with the result that the packed tableau gave.
    """

    def __init__(self, monkeypatch):
        self.calls = []

        def record(*args, **kwargs):
            self.calls.append((args, kwargs, None))
            return solve_lp(*args, **kwargs)

        def record_packed(*args, **kwargs):
            lp = _unpacked(*args, **kwargs)
            res = simplex._solve_tableau(*args, **kwargs)
            self.calls.append((*lp, res))
            return res
        monkeypatch.setattr(admissibility, "solve_lp", record)
        monkeypatch.setattr(admissibility, "_solve_tableau", record_packed)
        monkeypatch.setattr(game, "_solve_tableau", record_packed)

    def replay(self, monkeypatch):
        """Each recorded LP against the oracle, and a packed one's result
        against solve_lp's; the number of negative pivots."""
        monkeypatch.undo()
        neg = _NegativePivots(monkeypatch)
        for args, kwargs, packed in self.calls:
            _assert_same_as_oracle(args, kwargs)
            if packed is not None:
                assert packed == solve_lp(*args, **kwargs)
        return neg.count


def test_verdict_route_lps_match_fraction_oracle(monkeypatch):
    # every LP that the four criterion-1 verdict routes issue on small seeds
    lps = _Recorded(monkeypatch)
    eps_grid = (F(1), F(1, 10), F(1, 100))
    for seed in range(10):
        p = random_problem(2 + seed % 5, 2 + (seed * 7) % 5, seed)
        singles = tuple((t,) for t in p.theta_labels)
        for d in p.proc_labels:
            admissibility.dominated_in_hull(p, d)
            cert = admissibility.positive_prior_certificate(p, d)
            for t in p.theta_labels:
                for e in eps_grid:
                    admissibility.stein_check(p, d, t, e)
            if isinstance(cert, admissibility.Certificate):
                admissibility.ns_blyth_check(p, d, cert.prior, cert.min_weight, singles)
    assert len(lps.calls) > 400
    assert lps.replay(monkeypatch) > 0


def test_witness_and_game_lps_match_fraction_oracle(monkeypatch):
    # the witness restriction LPs and the derived game's LP (minimize, free
    # variable), on the 1/97 grid, up to 8 x 8 and 9 x 11 problems, whose
    # tableau entries reach 60 bits; no maximizing LP validates either
    lps = _Recorded(monkeypatch)
    refused = 0
    for seed, (nt, nd) in enumerate([(2, 3), (3, 4), (4, 3), (5, 5), (8, 8), (9, 11)]):
        p = random_problem(nt, nd, 500 + seed, 97)
        for j, d in enumerate(p.proc_labels):
            try:
                admissibility.witness_set(p, d)
            except ValueError:
                refused += 1
            game.derived_game_value(p, d, p.theta_labels[j % nt], F(1 + j % 3, 2))
    kinds = {(kw.get("maximize", True), bool(kw.get("free_vars"))) for _, kw, _ in lps.calls}
    assert kinds == {(False, True)}
    assert refused > 0 and len(lps.calls) > 60
    lps.replay(monkeypatch)


def test_negative_risk_lps_match_fraction_oracle(monkeypatch):
    # risks in [-1, 1]: the risk-equal rows with a negative rhs are negated
    # and get an artificial, as solve_lp does; the witness and game rows have
    # rhs 0 and need neither
    lps = _Recorded(monkeypatch)
    rng = random.Random(41)
    negated = 0
    for nt, nd in [(2, 3), (3, 3), (4, 5), (5, 4)]:
        p = DecisionProblem(tuple(f"t{i}" for i in range(nt)), tuple(f"d{j}" for j in range(nd)),
                            [[F(rng.randint(-8, 8), 8) for _ in range(nd)] for _ in range(nt)])
        for j, d in enumerate(p.proc_labels):
            admissibility.dominated_in_hull(p, d)
            # the risk-equal LP, unpacked: a theta row negated for its negative
            # rhs reads -r(theta, .), delta0's field 0, and rhs -r(theta, d) > 0
            eq = lps.calls[-1][1]
            for row, b, r in zip(eq["A_eq"], eq["b_eq"], p.irisk):
                sign = -1 if r[j] < 0 else 1
                assert b == sign * r[j]
                assert row == [0 if k == j else sign * v for k, v in enumerate(r)]
                negated += sign < 0
            admissibility.positive_prior_certificate(p, d)
            try:
                admissibility.witness_set(p, d)
            except ValueError:
                pass
            game.derived_game_value(p, d, p.theta_labels[j % nt], F(2))
    assert negated > 0
    lps.replay(monkeypatch)
