"""Exact rational simplex for small linear programs.

Two-phase tableau method with Bland's pivoting rule, so termination is
guaranteed even on degenerate problems.  The tableau is an integer one under
one shared denominator ``D > 0`` (fraction-free pivoting: Edmonds 1967,
Bareiss 1968), condensed as lrs's integer dictionary is (Avis 2000): it
stores ``D`` times the true entries of the *nonbasic* columns and the rhs,
objective row included, and ``labels`` maps its positions to column indices.
Bland's rule enters the smallest label with positive reduced cost, so the
pivot sequence is that of the full tableau.  Every constraint row is first
multiplied by one ``L`` that clears all denominators (all-int rows, which
callers may scale by one common positive factor themselves, are taken as
they are); that rescales the artificials and the phase-1 reduced costs by
``L > 0`` and leaves every ratio alone, so the pivot sequence is that of a
``Fraction`` tableau.  Problem sizes here are tiny: a dense tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from admlab.hyperreal import _as_fraction

__all__ = ["LPResult", "solve_lp"]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None
    iterations: int


def _as_ints(rows):
    """Rows times one positive common denominator, as ints, and that factor."""
    if all(type(v) is int for row in rows for v in row):
        return rows, 1
    rows = [[_as_fraction(v) for v in row] for row in rows]
    L = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (L // v.denominator) for v in row] for row in rows], L


def _pivot(tab, labels, basis, r, s, ncols, d):
    """Pivot on tab[r][s] (constraint rows, then objective) and return new D.

    The pivot row is already p = tab[r][s] times its new true row, so it
    stays and p becomes D; any other entry becomes (a*p - f*b) / d, an exact
    division.  Position s then holds the leaving column: d in row r, -f in
    any other row; a leaving artificial's column is dropped instead.
    """
    prow = tab[r]
    p = prow[s]
    for i, row in enumerate(tab):
        f = row[s]
        if i == r or (not f and p == d):
            continue
        if f:
            tab[i] = row = [(a * p - f * b) // d for a, b in zip(row, prow)]
        else:
            tab[i] = row = [a * p // d if a else 0 for a in row]
        row[s] = -f
    prow[s] = d
    basis[r], labels[s] = labels[s], basis[r]
    if labels[s] >= ncols:  # artificials never re-enter
        del labels[s]
        for row in tab:
            del row[s]
    if p < 0:  # only when driving out artificials; keeps D > 0
        tab[:] = [[-v for v in row] for row in tab]
        p = -p
    return p


def _run_simplex(tab, labels, basis, ncols, d):
    """Maximize with Bland's rule.  tab[-1] holds reduced costs; last entry is -z."""
    iters = 0
    while True:
        obj = tab[-1]
        col = min((j for j in range(len(labels)) if obj[j] > 0),
                  key=labels.__getitem__, default=None)
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
        d = _pivot(tab, labels, basis, best, col, ncols, d)
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

    # rows with their rhs, and the objective, as ints under one factor each;
    # column layout: n structural, then one negative part per free var,
    # then one slack per inequality row
    [cost], Lc = _as_ints([list(c)])
    rows, L = _as_ints([list(r) + [v] for r, v in zip(A_ub + A_eq, b_ub + b_eq)])
    nslack = len(A_ub)
    ncols = n + len(free) + nslack
    sign = 1 if maximize else -1
    cost = [sign * v for v in cost] + [-sign * cost[j] for j in free] + [0] * nslack

    tab = []  # inequality rows first, each with its slack
    for i, arow in enumerate(rows):
        row = arow[:n] + [-arow[j] for j in free] + [0] * nslack + arow[n:]
        if i < nslack:
            row[n + len(free) + i] = L
        tab.append(row if row[-1] >= 0 else [-v for v in row])
    m = len(tab)

    # phase 1: artificial basis (columns ncols.., never stored), max -sum(artificials)
    tab.append([sum(col) for col in zip(*tab)] if tab else [0] * (ncols + 1))
    labels = list(range(ncols))
    basis = [ncols + i for i in range(m)]
    status, iters, d = _run_simplex(tab, labels, basis, ncols, 1)
    if tab[-1][-1] > 0:  # -z1 entry: the artificials still sum to > 0
        return LPResult("infeasible", None, None, iters)

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            col = min((j for j, v in enumerate(tab[i][:-1]) if v),
                      key=labels.__getitem__, default=None)
            if col is None:
                continue  # redundant row
            d = _pivot(tab, labels, basis, i, col, ncols, d)
            iters += 1
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: true objective times its own lcm Lc, rewritten over the current basis
    obj = [d * cost[j] for j in labels] + [0]
    for bj, row in zip(basis, tab):
        if f := cost[bj]:
            obj = [a - f * b for a, b in zip(obj, row)]
    tab.append(obj)
    status, it2, d = _run_simplex(tab, labels, basis, ncols, d)
    iters += it2
    if status == "unbounded":
        return LPResult("unbounded", None, None, iters)

    level = {bj: row[-1] for bj, row in zip(basis, tab)}
    x = [Fraction(level[j], d) if j in level else _ZERO for j in range(n)]
    for k, j in enumerate(free):
        x[j] -= Fraction(level.get(n + k, 0), d)
    return LPResult("optimal", sign * Fraction(-tab[-1][-1], d * Lc), x, iters)
