"""Exact rational simplex for small linear programs.

Two-phase tableau method with Bland's pivoting rule, so termination is
guaranteed even on degenerate problems.  The tableau is an integer one under
one shared denominator ``D > 0`` (fraction-free pivoting: Edmonds 1967,
Bareiss 1968), and the invariant the code relies on is: stored row = ``D``
times true tableau row, the objective row included.  Every constraint row is
first multiplied by one ``L`` that clears all denominators; that rescales the
artificials by ``L`` and the phase-1 reduced costs by ``L > 0`` and leaves
every ratio alone, so the pivot sequence is that of a ``Fraction`` tableau.
For the same reason callers may hand over plain-``int`` rows that they have
scaled by one common positive factor themselves; ints are taken as they are.
Problem sizes here are tiny (tens of rows and columns): a dense tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from admlab.hyperreal import _as_fraction

__all__ = ["LPResult", "solve_lp"]

_ZERO = Fraction(0)


def _entry(v):
    return v if type(v) is int else _as_fraction(v)


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None
    iterations: int


def _pivot(tab, basis, r, col, d):
    """Pivot on tab[r][col] (constraint rows, then objective) and return new D.

    The pivot row is already p = tab[r][col] times its new true row, so it
    stays and p becomes D; any other row becomes (row*p - row[col]*prow) / d,
    an exact division.
    """
    prow = tab[r]
    p = prow[col]
    for i, row in enumerate(tab):
        f = row[col]
        if i == r or (not f and p == d):
            continue
        if f:
            tab[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        else:
            tab[i] = [a * p // d if a else 0 for a in row]
    basis[r] = col
    if p < 0:  # only when driving out artificials; keeps D > 0
        tab[:] = [[-v for v in row] for row in tab]
        p = -p
    return p


def _run_simplex(tab, basis, ncols, d):
    """Maximize with Bland's rule.  tab[-1] holds reduced costs; last entry is -z."""
    iters = 0
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return "optimal", iters, d
        best = None  # ratio test by cross-multiplication, ties to lower basis
        for i, row in enumerate(tab[:-1]):
            a = row[col]
            if a > 0 and (best is None
                          or (k := row[-1] * tab[best][col] - tab[best][-1] * a) < 0
                          or (k == 0 and basis[i] < basis[best])):
                best = i
        if best is None:
            return "unbounded", iters, d
        d = _pivot(tab, basis, best, col, d)
        iters += 1


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             free_vars=(), maximize=True) -> LPResult:
    """Solve max (or min) c.x subject to A_ub.x <= b_ub, A_eq.x = b_eq, x >= 0.

    Variables listed in ``free_vars`` are unrestricted in sign (handled by
    the usual positive/negative split).  All inputs must be exact
    rationals; the result is exact.
    """
    A_ub = [list(map(_entry, row)) for row in (A_ub or [])]
    b_ub = list(map(_entry, b_ub or []))
    A_eq = [list(map(_entry, row)) for row in (A_eq or [])]
    b_eq = list(map(_entry, b_eq or []))
    c = list(map(_entry, c))
    if len(A_ub) != len(b_ub) or len(A_eq) != len(b_eq):
        raise ValueError("constraint matrix and rhs lengths differ")
    n = len(c)
    for row in A_ub + A_eq:
        if len(row) != n:
            raise ValueError("constraint row length differs from objective length")
    free = sorted(set(free_vars))
    if any(not 0 <= j < n for j in free):
        raise ValueError("free variable index out of range")

    # column layout: n structural, then one negative part per free var,
    # then one slack per inequality row
    neg_col = {j: n + k for k, j in enumerate(free)}
    nslack = len(A_ub)
    ncols = n + len(free) + nslack

    sign = 1 if maximize else -1
    cost = [sign * v for v in c] + [0] * (len(free) + nslack)
    for j, jc in neg_col.items():
        cost[jc] = -sign * c[j]

    rows = []  # inequality rows first, each with its slack
    for i, (arow, rhs) in enumerate(zip(A_ub + A_eq, b_ub + b_eq)):
        row = arow + [0] * (len(free) + nslack) + [rhs]
        for j, jc in neg_col.items():
            row[jc] = -arow[j]
        if i < nslack:
            row[n + len(free) + i] = 1
        rows.append(row if rhs >= 0 else [-v for v in row])
    m = len(rows)

    # phase 1: artificial basis (columns ncols.., unit and never stored,
    # since they never re-enter), maximize -sum(artificials)
    L = lcm(*(v.denominator for row in rows for v in row))
    tab = [[v.numerator * (L // v.denominator) for v in row] for row in rows]
    tab.append([sum(col) for col in zip(*tab)] if tab else [0] * (ncols + 1))
    basis = [ncols + i for i in range(m)]
    status, iters, d = _run_simplex(tab, basis, ncols, 1)
    if tab[-1][-1] > 0:  # -z1 entry: the artificials still sum to > 0
        return LPResult("infeasible", None, None, iters)

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if col is None:
                continue  # redundant row
            d = _pivot(tab, basis, i, col, d)
            iters += 1
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: true objective times its own lcm Lc, rewritten over the
    # current basis; a basic column's entry stays d * Lc * cost
    Lc = lcm(*(v.denominator for v in cost))
    obj = [v.numerator * (Lc // v.denominator) * d for v in cost] + [0]
    for i, bj in enumerate(basis):
        f = obj[bj] // d
        if f:
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    tab.append(obj)
    status, it2, d = _run_simplex(tab, basis, ncols, d)
    iters += it2
    if status == "unbounded":
        return LPResult("unbounded", None, None, iters)

    full = [_ZERO] * ncols
    for i, bj in enumerate(basis):
        full[bj] = Fraction(tab[i][-1], d)
    x = full[:n]
    for j, jc in neg_col.items():
        x[j] = full[j] - full[jc]
    z = Fraction(-tab[-1][-1], d * Lc)
    return LPResult("optimal", sign * z, x, iters)
