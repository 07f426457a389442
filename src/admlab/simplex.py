"""Exact rational simplex for small linear programs.

Two-phase tableau method with Bland's pivoting rule, so termination is
guaranteed even on degenerate problems.  Phase 1 starts from the slack basis:
the slack of every inequality row whose rhs is ``>= 0`` is a feasible basic
variable there.  Only equality rows and negative-rhs rows (negated, so their
slack reads -1) get an artificial, phase 1 maximizes minus the sum of those
artificials alone, and it does not run when no row has one.  Bland's rule
terminates from any feasible basis.

The tableau is an integer one under one shared denominator ``D > 0``
(fraction-free pivoting: Edmonds 1967, Bareiss 1968): it stores ``D`` times
the true entries of every column but the artificials, and the rhs, objective
row included.  Every constraint row is first multiplied by one ``L`` that
clears all denominators (all-int rows, which callers may scale by one common
positive factor themselves, are taken as they are).  Each slack column is
then stored as 1, not ``L``: the tableau's variable is ``s' = L*s``, and
likewise ``L`` times each artificial.  A positive column scaling leaves
every sign and every ratio of Bland's entering and leaving choices alone, so
the first tableau is fraction-free with ``D = 1`` and the pivot sequence is
that of a ``Fraction`` tableau.  Problem sizes here are tiny: a dense tableau.

**Packed rows.**  Each row is one Python int (Kronecker substitution).  With
``n`` columns and field width ``W``, the row ``v_0 .. v_n`` (``v_k`` the
entry in column ``k``, ``v_n`` the rhs) is ``sum(v_k * 2**(W*k))`` with
signed ``v_k``.  Bareiss's update ``(a*p - f*b) / d`` of every entry ``a``
of a row, with ``f`` its entry in the pivot column and ``b`` the pivot row's
entry, is then ``(row*p - f*prow) // d`` on whole ints: three bignum
operations, exact because every field of ``row*p - f*prow`` is a multiple
of ``d``.  A basic column holds ``D`` in its own row and 0 elsewhere, so the
update itself zeroes the entering column, writes ``-f`` into the leaving one
and ``p`` (the new ``D``) into every basic entry.  Artificials are never
stored, since they never re-enter.

*Reading a field.*  If every field satisfies ``|v_k| < 2**(W-1)``, adding the
all-field bias ``B = sum(2**(W-1) * 2**(W*k))`` makes every field
``v_k + 2**(W-1)``, a number in ``[0, 2**W)``, with no borrow between
fields, so ``((row + B) >> W*k) % 2**W - 2**(W-1)`` is ``v_k``.  Biasing only
the field read is wrong: a negative field below it borrows from it.  With
``ones = sum(2**(W*k))``, ``row + B - ones`` holds ``v_k + 2**(W-1) - 1 >=
0`` in every field, whose bit ``W-1`` is set exactly when ``v_k > 0``; the
lowest such bit among the column fields of the objective row is Bland's
entering column.

*Width rule.*  ``T`` bounds every field, ``|v| < 2**T``, and ``T < W``
always holds, so every field can be read.  ``D < 2**T``: ``D`` is a stored
field, or 1 before the first pivot.  A pivot with pivot ``p``, old
denominator ``d`` and largest other entry ``|f|`` in the pivot column writes
``|a*p - f*b| / d < 2**T * (|p| + |f|) / d <= 2**(T + g)``, with ``g`` the
least integer such that ``|p| + |f| <= d * 2**g``.  Rows with ``f == 0`` are
only scaled by ``p / d``, and the pivot row stays, so ``T + g`` bounds the
new tableau.  The phase-2 objective ``d*c - sum(c_b * row_b)`` has fields
below ``2**T * S`` with ``S = max|c| + sum|c_b|``, since ``D < 2**T``.
Before any such update, if ``T + g >= W`` the fields it writes might not be
readable.  Then ``T`` is measured in place of the bound (two's complement
magnitudes of every field, ORed over the rows; at most one bit over the
true value), and if ``T + g >= W`` still holds, every row is packed again,
field by field as bytes, at ``W = T + g + 32`` rounded up to a multiple of
8.  All fields are still valid under the old ``W`` at that point, so no
field is ever read after it overflowed.

**The private entry.**  ``_solve_packed`` takes an LP as rows packed over
its structural columns alone, their rhs, the number ``n_le`` of leading
``<=`` rows (the rest are ``==``), the cost, the free columns, the sign and
the bound ``T < W`` on every field and rhs at the width ``W`` packed at.  It
lays out the rest: each free column's negative part, one slack per ``<=``
row, stored as 1, the rhs field, the start basis above (a row with rhs
``< 0`` negated), and room for phase 1's objective, a sum of k rows below
``k * 2**T``, as for phase 2's.  ``solve_lp`` validates, scales to ints and
packs; every checker LP but the forced-zero one, and the derived game's,
packs its own rows and calls ``_solve_packed``.  Packing is linear:
``pack(u) + c*pack(v) == pack(u + c*v)`` for int vectors and an int ``c``.
So the checkers make each row from the problem's packed risk columns
(``decision._packed_risk``, built once per problem and width) or delta0's
gap rows (``decision._packed_gaps``) with a few bignum operations, and it
reads back field by field when every field of the result is below
``2**T``.  A column that is zero in every row and in the cost never has a
positive reduced cost, in phase 1 or phase 2, so it never enters and the
drive-out never picks it: a caller may keep such a column (delta0's own
weight in the hull and risk-equal LPs, and in the witness LP, the game's LP
with delta0 barred from its mass row) and the pivots are those of the LP
without it.

The result is what the final tableau holds: int levels ``num`` under the
shared denominator ``D``, so ``x[j] == num[j] / D`` (a free variable's level
is its positive part minus its negative part); ``x`` itself is derived on
request.  ``ynum`` holds the inequality rows' duals, off the same objective
row with no extra pivot: ``ynum[i] = L * (-field)``, with ``field`` row
``i``'s slack's field there (``L`` undoes the slack's scaling to ``s'``; a
row negated for its rhs has its slack negated with it), and row ``i``'s
multiplier is ``ynum[i] / (D * Lc)``, ``Lc`` the lcm of ``c``'s denominators.
It is ``>= 0``, 0 on rows slack at ``x``; a min is solved as ``max -c.x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from admlab.hyperreal import _as_fraction

__all__ = ["LPResult", "solve_lp"]


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    num: list[int] | None            # levels times D, one per variable
    D: int | None                    # > 0: the final tableau's denominator
    iterations: int
    ynum: list[int] | None = None    # inequality rows' duals times D * Lc, in row order

    @property
    def x(self) -> list[Fraction] | None:
        """The optimal point, ``num[j] / D`` for each variable."""
        return None if self.num is None else [Fraction(v, self.D) for v in self.num]


def _as_ints(rows):
    """Rows times one positive common denominator, as ints, and that factor."""
    if all(type(v) is int for row in rows for v in row):
        return rows, 1
    rows = [[_as_fraction(v) for v in row] for row in rows]
    L = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (L // v.denominator) for v in row] for row in rows], L


def _bits(rows):
    """The least T >= 1 with |v| < 2**T for every entry of every row."""
    top = max(max(map(max, rows), default=0), -min(map(min, rows), default=0))
    return max(1, top.bit_length())


def _pack(fields, W):
    """The packed row sum(v_k * 2**(W*k)) of the int fields v_0, v_1, ..."""
    x = 0
    for v in reversed(fields):
        x = (x << W) + v
    return x


def _ones(n, W):
    """1 in each of n fields of width W."""
    return ((1 << W * n) - 1) // ((1 << W) - 1)


def _width(T):
    """The field width for entries below 2**T: 32 bits to grow, rounded up to bytes."""
    return (T + 39) // 8 * 8


class _Tableau:
    """Tableau rows packed one int each (see the module docstring).

    ``rows`` holds the packed rows, ``T`` bounds every field (``|v| < 2**T``)
    and the rest are constants of the width ``W``.
    """

    __slots__ = ("rows", "nfields", "T", "W", "M", "H", "B", "pos", "cols", "rsh")

    def __init__(self, nfields, T, W):
        self.rows, self.nfields, self.T = [], nfields, T
        self.fit(W)

    def fit(self, W):
        """Set the width to W (rows must be packed again)."""
        n = self.nfields
        ones = _ones(n, W)
        self.W, self.M, self.H = W, (1 << W) - 1, 1 << W - 1
        self.B = self.H * ones                         # the all-field bias
        self.pos = self.B - ones                       # bit W-1 set where v > 0
        self.cols = self.H * (ones >> W)               # bit W-1 of the column fields
        self.rsh = W * (n - 1)                         # the rhs field's offset

    def rhs(self, x):
        return (x + self.B >> self.rsh) - self.H

    def column(self, s):
        B, sh, M, H = self.B, self.W * s, self.M, self.H
        return [(x + B >> sh & M) - H for x in self.rows]

    def measure(self):
        """A T with |v| < 2**T for every field, at most one bit above the least."""
        B, W, acc = self.B, self.W, 0
        for x in self.rows:
            u = x + B
            neg = B ^ (u & B)  # bit W-1 of each negative field
            acc |= u ^ (neg - (neg >> W - 1))  # |v| for v >= 0, |v| - 1 for v < 0
        acc &= self.pos  # in the low W-1 bits of every field; OR them into field 0
        k = self.nfields
        while k > 1:
            k = (k + 1) // 2
            acc |= acc >> W * k
        return (acc & self.M).bit_length() + 1


def _repack(tab, W):
    """Pack every row again at a width W > tab.W, both multiples of 8.

    Each biased field (in [0, 2**W_old)) is copied as bytes into a wider
    slot; the old bias is then taken off at the new spacing.
    """
    old, n, B = tab.W, tab.nfields, tab.B
    w, pad = old // 8, bytes((W - old) // 8)
    tab.fit(W)
    unbias = tab.B >> W - old  # 2**(old-1) in every new field
    starts = range(0, n * w, w)
    rows = []
    for x in tab.rows:
        u = (x + B).to_bytes(n * w, "little")
        rows.append(int.from_bytes(pad.join([u[k:k + w] for k in starts]), "little") - unbias)
    tab.rows = rows


def _reserve(tab, g):
    """Make every field readable after it grows by g bits; count them in T."""
    if tab.T + g >= tab.W:
        tab.T = tab.measure()
        if tab.T + g >= tab.W:
            _repack(tab, _width(tab.T + g))
    tab.T += g


def _pivot(tab, basis, r, s, col, d):
    """Pivot on column s of row r, with col[i] column s of row i; return new D.

    The pivot row is already p = col[r] times its new true row, so it stays
    and p becomes D; any other row becomes (row*p - f*prow) / d, an exact
    division.
    """
    p = col[r]
    col[r] = 0  # the other rows' entries f bound the growth: |p| + f <= d * 2**g
    f = max(max(col), -min(col))
    col[r] = p
    _reserve(tab, ((abs(p) + f - 1) // d).bit_length())
    rows = tab.rows
    prow = rows[r]
    scale = p != d  # rows with f == 0 only need scaling by p / d
    for i, f in enumerate(col):
        if f:
            if i != r:
                rows[i] = (rows[i] * p - f * prow) // d
        elif scale:
            rows[i] = rows[i] * p // d
    basis[r] = s
    if p < 0:  # only when driving out artificials; keeps D > 0
        rows[:] = [-x for x in rows]
        p = -p
    return p


def _run_simplex(tab, basis, d):
    """Maximize with Bland's rule.  The last row holds reduced costs; its rhs is -z."""
    iters = 0
    last = len(basis)
    while True:
        rows = tab.rows
        mask = rows[-1] + tab.pos & tab.cols
        if not mask:
            return "optimal", iters, d
        s = ((mask & -mask).bit_length() - 1) // tab.W  # Bland: the smallest column
        col = tab.column(s)
        B, rsh, H = tab.B, tab.rsh, tab.H
        best = -1  # ratio test by cross-multiplication, ties to lower basis
        for i in range(last):
            if (a := col[i]) > 0:
                b = (rows[i] + B >> rsh) - H
                if best < 0 or (k := b * ba - bb * a) < 0 or (k == 0 and basis[i] < basis[best]):
                    best, ba, bb = i, a, b
        if best < 0:
            return "unbounded", iters, d
        d = _pivot(tab, basis, best, s, col, d)
        iters += 1


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             free_vars=(), maximize=True) -> LPResult:
    """Solve max (or min) c.x subject to A_ub.x <= b_ub, A_eq.x = b_eq, x >= 0.

    Variables listed in ``free_vars`` are unrestricted in sign (handled by
    the usual positive/negative split).  All inputs must be exact
    rationals; the result is exact.
    """
    A_ub, b_ub, A_eq, b_eq = (list(v or []) for v in (A_ub, b_ub, A_eq, b_eq))
    if len(A_ub) != len(b_ub) or len(A_eq) != len(b_eq):
        raise ValueError("constraint matrix and rhs lengths differ")
    n = len(c)
    if any(len(row) != n for row in A_ub + A_eq):
        raise ValueError("constraint row length differs from objective length")
    free = sorted(set(free_vars))
    if any(not 0 <= j < n for j in free):
        raise ValueError("free variable index out of range")

    # rows with their rhs, and the objective, as ints under one factor each
    [cost], Lc = _as_ints([list(c)])
    rows, L = _as_ints([list(r) + [v] for r, v in zip(A_ub + A_eq, b_ub + b_eq)])
    T = _bits(rows)
    W = _width(T)
    return _solve_packed([_pack(r[:n], W) for r in rows], [r[n] for r in rows], len(A_ub),
                         cost, T, W, free, 1 if maximize else -1, L, Lc)


def _solve_packed(rows, rhs, n_le, cost, T, W, free=(), sign=1, L=1, Lc=1):
    """Max ``sign * cost.x`` over packed rows (the private entry; see the module docstring).

    ``rows[i]`` holds row i's fields over the ``n = len(cost)`` structural
    columns, ``rhs[i]`` its rhs; ``free`` is sorted, ``cost`` the objective
    as ints times ``Lc`` and ``L`` the rows' common factor.
    """
    n, nf, m = len(cost), len(free), len(rows)
    sl = n + nf  # the first slack column
    ncols = sl + n_le
    tab = _Tableau(ncols + 1, T, W)
    tab.rows = rows
    for k, j in enumerate(free, n):  # each free variable's negative part: its column negated
        tab.rows = [x - (v << W * k) for x, v in zip(tab.rows, tab.column(j))]
    if free:
        cost = cost + [-cost[j] for j in free]  # a slack's cost is 0
    # a <= row's slack, stored as 1, starts basic; an == row gets an artificial
    bit, rsh = 1 << W * sl, tab.rsh
    packed = [x + (bit << W * i) for i, x in zip(range(n_le), tab.rows)]
    tab.rows = packed = packed + tab.rows[n_le:]
    basis = [*range(sl, ncols), *range(ncols + n_le, ncols + m)]
    k = m - n_le  # the rows with an artificial
    for i in compress(range(m), rhs):  # add each nonzero rhs; negate a row whose rhs is < 0
        x = packed[i] + (rhs[i] << rsh)
        if rhs[i] < 0:
            x = -x
            k += basis[i] < ncols
            basis[i] = ncols + i
        packed[i] = x

    iters, d = 0, 1
    if k:
        # phase 1: max -sum(artificials) (columns ncols.., never stored); its
        # objective, a sum of k rows, is below k * 2**T
        _reserve(tab, (k - 1).bit_length())
        tab.rows.append(sum(compress(tab.rows, map(ncols.__le__, basis))))
        status, iters, d = _run_simplex(tab, basis, d)
        if tab.rhs(tab.rows.pop()) > 0:  # -z1: the artificials still sum to > 0
            return LPResult("infeasible", None, None, None, iters)

        # drive leftover artificials out of the basis, dropping redundant rows
        keep = []
        for i in range(m):
            if basis[i] >= ncols:
                x = tab.rows[i]  # its rhs is 0: the artificial's level
                if not x:
                    continue  # redundant row
                s = ((x & -x).bit_length() - 1) // tab.W  # the smallest nonzero column
                d = _pivot(tab, basis, i, s, tab.column(s), d)
                iters += 1
            keep.append(i)
        tab.rows = [tab.rows[i] for i in keep]
        basis = [basis[i] for i in keep]

    # phase 2: true objective times its own lcm Lc, rewritten over the current
    # basis (all slacks, of cost 0, unless phase 1 ran); its fields are below
    # 2**T * S, as D < 2**T (D is a stored field, or 1)
    priced = [(cost[bj], i) for i, bj in enumerate(basis) if bj < sl and cost[bj]] if k else ()
    S = max(map(abs, cost), default=0) + sum(abs(f) for f, _ in priced)
    _reserve(tab, max(S - 1, 0).bit_length())
    obj = d * _pack(cost, tab.W)
    for f, i in priced:
        obj -= f * tab.rows[i]
    tab.rows.append(obj if sign > 0 else -obj)  # the objective is sign * cost
    status, it2, d = _run_simplex(tab, basis, d)
    iters += it2
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, iters)

    num = [0] * n  # levels times d; a free variable's negative part subtracted
    for bj, x in zip(basis, tab.rows):
        if bj < n:
            num[bj] += tab.rhs(x)
        elif bj < sl:
            num[free[bj - n]] -= tab.rhs(x)
    obj, W, M, H = tab.rows[-1] + tab.B, tab.W, tab.M, tab.H  # the objective row, biased
    ynum = [L * (H - (obj >> W * s & M)) for s in range(sl, ncols)]
    return LPResult("optimal", Fraction(sign * (H - (obj >> tab.rsh)), d * Lc),
                    num, d, iters, ynum)
