"""The Fraction-tableau simplex kernel that fraction-free pivoting replaced.

Kept for tests only, as the oracle that ``admlab.simplex`` must match field
for field: status, objective, x and iterations.  Only its set-up follows the
kernel's: phase 1 starts from the slack of every inequality row whose rhs is
``>= 0``, with an artificial on every other row; its pivots, ratio test and
``Fraction`` arithmetic are the original ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from admlab.hyperreal import _as_fraction

__all__ = ["LPResult", "solve_lp"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None
    iterations: int


def _pivot(rows, obj, basis, r, col):
    piv = rows[r][col]
    inv = _ONE / piv
    rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            f = row[col]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    if obj[col] != 0:
        f = obj[col]
        for j, b in enumerate(prow):
            obj[j] -= f * b
    basis[r] = col


def _run_simplex(rows, obj, basis, ncols):
    """Maximize with Bland's rule.  obj holds reduced costs; last entry is -z."""
    iters = 0
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return "optimal", iters
        best_r, best_ratio = None, None
        for i, row in enumerate(rows):
            a = row[col]
            if a > 0:
                ratio = row[-1] / a
                if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < basis[best_r]):
                    best_r, best_ratio = i, ratio
        if best_r is None:
            return "unbounded", iters
        _pivot(rows, obj, basis, best_r, col)
        iters += 1


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             free_vars=(), maximize=True) -> LPResult:
    """Solve max (or min) c.x subject to A_ub.x <= b_ub, A_eq.x = b_eq, x >= 0.

    Variables listed in ``free_vars`` are unrestricted in sign (handled by
    the usual positive/negative split).  All inputs must be exact
    rationals; the result is exact.
    """
    A_ub = [list(map(_as_fraction, row)) for row in (A_ub or [])]
    b_ub = [_as_fraction(v) for v in (b_ub or [])]
    A_eq = [list(map(_as_fraction, row)) for row in (A_eq or [])]
    b_eq = [_as_fraction(v) for v in (b_eq or [])]
    c = [_as_fraction(v) for v in c]
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
    cost = [sign * v for v in c] + [_ZERO] * (len(free) + nslack)
    for j, jc in neg_col.items():
        cost[jc] = -sign * c[j]

    rows: list[list[Fraction]] = []
    for i, (arow, rhs) in enumerate(zip(A_ub, b_ub)):
        row = arow + [_ZERO] * (len(free) + nslack) + [rhs]
        for j, jc in neg_col.items():
            row[jc] = -arow[j]
        row[n + len(free) + i] = _ONE
        rows.append(row)
    for arow, rhs in zip(A_eq, b_eq):
        row = arow + [_ZERO] * (len(free) + nslack) + [rhs]
        for j, jc in neg_col.items():
            row[jc] = -arow[j]
        rows.append(row)
    for row in rows:
        if row[-1] < 0:
            row[:] = [-v for v in row]

    m = len(rows)
    total_iters = 0

    # phase 1: the slack of each inequality row with rhs >= 0 starts basic,
    # every other row gets an artificial; maximize -sum(artificials)
    art0 = ncols
    wide = ncols + m
    basis = []
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend(_ZERO for _ in range(m))
        if i < nslack and row[n + len(free) + i] == 1:  # not negated for its rhs
            basis.append(n + len(free) + i)
        else:
            row[art0 + i] = _ONE
            basis.append(art0 + i)
        row.append(rhs)
    obj1 = [_ZERO] * (wide + 1)
    for i in range(m):
        if basis[i] >= art0:
            for j in range(wide + 1):
                obj1[j] += rows[i][j]
    for i in range(m):
        obj1[art0 + i] = _ZERO
    status, it1 = _run_simplex(rows, obj1, basis, ncols)  # artificials never re-enter
    total_iters += it1
    if obj1[-1] > 0:  # -z1 entry is -(max -sum a) ... rhs column tracks sum still > 0
        return LPResult("infeasible", None, None, total_iters)

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= art0:
            col = next((j for j in range(ncols) if rows[i][j] != 0), None)
            if col is None:
                continue  # redundant row
            _pivot(rows, obj1, basis, i, col)
            total_iters += 1
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]
    rows = [row[:ncols] + row[-1:] for row in rows]

    # phase 2: true objective, rewritten over the current basis
    obj = cost + [_ZERO]
    for i, bj in enumerate(basis):
        if obj[bj] != 0:
            f = obj[bj]
            obj = [a - f * b for a, b in zip(obj, rows[i])]
    status, it2 = _run_simplex(rows, obj, basis, ncols)
    total_iters += it2
    if status == "unbounded":
        return LPResult("unbounded", None, None, total_iters)

    full = [_ZERO] * ncols
    for i, bj in enumerate(basis):
        full[bj] = rows[i][-1]
    x = full[:n]
    for j, jc in neg_col.items():
        x[j] = full[j] - full[jc]
    z = -obj[-1]
    return LPResult("optimal", sign * z, x, total_iters)
