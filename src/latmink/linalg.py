"""Exact integer linear algebra: Bareiss determinants, the adjugate, a fraction-free
row echelon form and the Hermite normal form. Everything stays in plain Python
ints; nothing here builds a Fraction or touches a float.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

IntVector = tuple[int, ...]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = prev = 1
    for k in range(n):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: exact division by previous pivot
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """(det A, adj A) of a square integer matrix A, or (0, None) if A is singular. One fraction-free
    Gauss-Jordan pass over [A | I] (Bareiss, Math. Comp. 22, 1968) in place: step k clears column k
    in every other row, dividing exactly by the previous pivot, and keeps column k of the right block
    there, so the rows end as D (PA)^-1, D = det PA, P the row swaps, undone on the columns."""
    n = len(rows)
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    prev, swaps = 1, []
    for k in range(n):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0, None
            a[k], a[pivot] = a[pivot], a[k]
            swaps.append((k, pivot))
        top, p = a[k], a[k][k]
        for i, row in enumerate(a):
            if i != k:  # the right block's column k is prev e_k before this step
                x = row[k]
                a[i] = [(p * y - x * t) // prev for y, t in zip(row, top)]
                a[i][k] = -x
        top[k], prev = prev, p
    for k, i in reversed(swaps):
        for row in a:
            row[k], row[i] = row[i], row[k]
    sign = -1 if len(swaps) % 2 else 1
    return sign * prev, a if sign > 0 else [[-x for x in row] for row in a]


class Echelon:
    """Integer row echelon form grown one row at a time, fraction-free.

    Each kept row is primitive and zero in the pivot columns of the rows
    kept before it, so len(rows) is the rank of everything added so far.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list[IntVector] = []
        self.pivots: list[int] = []

    def add(self, row: Sequence[int]) -> bool:
        """Reduce row against the kept rows; keep it and return True if independent."""
        v = tuple(row)
        for col, kept in zip(self.pivots, self.rows):
            x = v[col]
            if x:
                p = kept[col]
                v = tuple(p * a - x * b for a, b in zip(v, kept))
        for col, x in enumerate(v):
            if x:
                self.rows.append(primitive_vector(v))
                self.pivots.append(col)
                return True
        return False


def primitive_vector(v: Sequence[int]) -> IntVector:
    """Divide out the gcd of the entries (zero vector stays zero)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the integer row lattice.

    Returns only the nonzero rows: row echelon with positive pivots, and
    entries above each pivot reduced into [0, pivot).
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    r = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(r, len(work)) if work[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(work[i][col]), i))
            work[r], work[best] = work[best], work[r]
            if work[r][col] < 0:
                work[r] = [-x for x in work[r]]
            pivot = work[r][col]
            clean = True
            for i in range(r + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // pivot
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][col] != 0:
                        clean = False
            if clean:
                break
        if r < len(work) and work[r][col] != 0:
            pivot = work[r][col]
            for i in range(r):
                q = work[i][col] // pivot
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
            r += 1
            if r == len(work):
                break
    return work[:r]


def integer_kernel(rows: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """The HNF basis of {z in Z^dim : <row, z> = 0 for each row} (Cohen, GTM 138, Sec. 2.4.3): the HNF
    of the rows (column i of rows, e_i) is U [rows^T | I], U unimodular, and its rows with a zero first
    block have the kernel's HNF basis as second block."""
    m = len(rows)
    hnf = hermite_normal_form([[r[i] for r in rows] + [int(i == j) for j in range(dim)] for i in range(dim)])
    return [row[m:] for row in hnf if not any(row[:m])]


def is_identity(matrix: Sequence[Sequence[int]], dim: int) -> bool:
    return [list(row) for row in matrix] == [[int(i == j) for j in range(dim)] for i in range(dim)]

