"""Exact linear programming for small dense problems.

Two-phase tableau simplex over fractions.Fraction with Bland's anti-cycling
rule, so every answer is an exact decision. Problems are in standard form:

    maximize c.x   subject to   A x = b,  x >= 0.

Sizes stay tiny here (tens of variables), so clarity wins over speed.

No library module imports it: it is the test oracle against which the
integer paths of `geometry` and `triangulation` are checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class Unbounded(Exception):
    """The objective is unbounded above on the feasible region."""


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col]:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction], ncols: int) -> None:
    m = len(tableau)
    while True:
        entering = -1
        for j in range(ncols):
            reduced = cost[j] - sum(cost[basis[i]] * tableau[i][j] for i in range(m))
            if reduced > 0:
                entering = j  # Bland: smallest improving index
                break
        if entering < 0:
            return
        leaving = -1
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                key = (tableau[i][-1] / a, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving < 0:
            raise Unbounded
        _pivot(tableau, basis, leaving, entering)


def maximize(
    cost: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence
) -> tuple[Fraction, list[Fraction]] | None:
    """Maximize cost.x with A x = b, x >= 0.

    Returns (optimal value, an optimal x) or None when infeasible. Raises
    Unbounded when the objective has no finite maximum.
    """
    n = len(cost)
    c = [Fraction(v) for v in cost]
    rows = []
    rhs = []
    for row, b in zip(a_eq, b_eq):
        if len(row) != n:
            raise ValueError("constraint row length mismatch")
        r = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            r = [-v for v in r]
            b = -b
        rows.append(r)
        rhs.append(b)
    m = len(rows)
    if m == 0:
        if any(v > 0 for v in c):
            raise Unbounded
        return Fraction(0), [Fraction(0)] * n

    # Phase 1: drive artificial variables (indices n..n+m-1) to zero.
    tableau = [
        rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _run_simplex(tableau, basis, phase1, n + m)
    infeas = sum(phase1[basis[i]] * tableau[i][-1] for i in range(m))
    if infeas < 0:
        return None

    # Pivot leftover artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    _run_simplex(tableau, basis, c, n)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x


def feasible(a_eq: Sequence[Sequence], b_eq: Sequence, nvars: int) -> bool:
    """Is {x >= 0 : A x = b} non-empty?"""
    return maximize([0] * nvars, a_eq, b_eq) is not None


def point_in_convex_hull(points: Sequence[Sequence], target: Sequence) -> bool:
    """Exact membership of target in the convex hull of the given points."""
    pts = list(points)
    if not pts:
        return False
    dim = len(pts[0])
    if len(target) != dim:
        raise ValueError("dimension mismatch")
    a_eq = [[Fraction(p[j]) for p in pts] for j in range(dim)]
    a_eq.append([Fraction(1)] * len(pts))
    b_eq = [Fraction(t) for t in target] + [Fraction(1)]
    return feasible(a_eq, b_eq, len(pts))
