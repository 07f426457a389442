import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_simplex
from admlab import admissibility, game, simplex
from admlab.decision import random_problem
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
        assert r.iterations == 1  # the slack enters in phase 1

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


def _assert_same_as_oracle(args, kwargs):
    ours = solve_lp(*args, **kwargs)
    ref = fraction_simplex.solve_lp(*args, **kwargs)
    # status, objective, x and iterations, down to Fraction (not int) entries
    assert repr(_fields(ours)) == repr(_fields(ref))
    if ours.status == "optimal":
        assert all(type(v) is int for v in ours.num) and len(ours.num) == len(args[0])
        assert type(ours.D) is int and ours.D > 0
    else:
        assert ours.num is None and ours.D is None
    return ours


_entry = st.one_of(st.integers(-3, 3).map(F),
                   st.fractions(-5, 5, max_denominator=97))


@st.composite
def _lps(draw):
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(_entry, min_size=n, max_size=n), max_size=3)
    A_ub, A_eq = draw(rows), draw(rows)
    b_ub = draw(st.lists(_entry, min_size=len(A_ub), max_size=len(A_ub)))
    b_eq = draw(st.lists(_entry, min_size=len(A_eq), max_size=len(A_eq)))
    if A_eq and draw(st.booleans()):  # a redundant multiple of an equality row
        k = draw(st.sampled_from([F(-2), F(1, 3), F(5, 2)]))
        A_eq.append([k * v for v in A_eq[0]])
        b_eq.append(k * b_eq[0])
    c = draw(st.lists(_entry, min_size=n, max_size=n))
    free = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return (c,), dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      free_vars=free, maximize=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_lps())
def test_matches_fraction_oracle(lp):
    _assert_same_as_oracle(*lp)


@settings(max_examples=200, deadline=None)
@given(_lps())
def test_x_is_num_over_D(lp):
    r = solve_lp(*lp[0], **lp[1])
    if r.status == "optimal":
        assert r.x == [F(v, r.D) for v in r.num]
    else:
        assert r.x is None


def test_matches_fraction_oracle_on_each_status():
    for args, kwargs, status in [
            (([F(1)],), dict(A_eq=[[F(1)]], b_eq=[F(-1)]), "infeasible"),
            (([F(1), F(0)],), dict(A_ub=[[F(1), F(-1)]], b_ub=[F(1)]), "unbounded"),
            (([F(1), F(2)],), dict(maximize=False), "optimal"),      # no constraint
            (([F(2), F(-3, 97)],), dict(), "unbounded")]:            # no constraint
        assert _assert_same_as_oracle(args, kwargs).status == status


class _NegativePivots:
    """Counts pivots on a negative entry, which only the drive-out step makes."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = simplex._pivot

        def spy(tab, labels, basis, r, s, ncols, d):
            self.count += tab[r][s] < 0
            return real(tab, labels, basis, r, s, ncols, d)
        monkeypatch.setattr(simplex, "_pivot", spy)


def test_drive_out_pivot_on_negative_entry(monkeypatch):
    # x1 = x2 = 0 as two equality rows with negative coefficients: phase 1
    # ends with an artificial basic at level 0 in a row whose first nonzero
    # entry is negative, and phase 2 pivots once more after that
    neg = _NegativePivots(monkeypatch)
    r = _assert_same_as_oracle(
        ([1, 3, 2],), dict(A_ub=[[3, 2, 2]], b_ub=[6],
                           A_eq=[[-1, -3, 0], [-1, -1, 0]], b_eq=[0, 0]))
    assert neg.count == 1
    assert r.objective == 6 and r.x == [0, 0, 3] and r.iterations == 4


class _Recorded:
    """Records every LP the checkers and the game solve, on the real kernel."""

    def __init__(self, monkeypatch):
        self.calls = []

        def record(*args, **kwargs):
            self.calls.append((args, kwargs))
            return solve_lp(*args, **kwargs)
        monkeypatch.setattr(admissibility, "solve_lp", record)
        monkeypatch.setattr(game, "solve_lp", record)

    def replay(self, monkeypatch):
        """Each recorded LP against the oracle; the number of negative pivots."""
        monkeypatch.undo()
        neg = _NegativePivots(monkeypatch)
        for args, kwargs in self.calls:
            _assert_same_as_oracle(args, kwargs)
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
    # the witness restriction and validation LPs (minimize, free variable)
    # and both sides of the derived game, on the 1/97 grid, up to 8 x 8 and
    # 9 x 11 problems, whose tableau entries reach 60 bits
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
    kinds = {(kw.get("maximize", True), bool(kw.get("free_vars"))) for _, kw in lps.calls}
    assert kinds == {(True, True), (False, True)}
    assert refused > 0 and len(lps.calls) > 60
    lps.replay(monkeypatch)
