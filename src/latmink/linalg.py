"""Exact integer linear algebra: Bareiss determinants, a fraction-free row
echelon form with its normal vector, and the Hermite normal form. Everything
stays in plain Python ints; nothing here builds a Fraction or touches a float.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

IntVector = tuple[int, ...]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: exact division by previous pivot
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class Echelon:
    """Integer row echelon form grown one row at a time, fraction-free.

    Each kept row is primitive and zero in the pivot columns of the rows
    kept before it, so len(rows) is the rank of everything added so far.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: Iterable[Sequence[int]] = ()):
        self.rows: list[IntVector] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

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

    def normal(self, dim: int) -> IntVector:
        """A primitive vector n orthogonal to the kept rows, zero unless dim-1 rows were kept.
        n starts as the free column's unit vector; each kept row, last first, scales n by a/g and
        sets n[pivot] = -s/g (a = row[pivot], s = <row, n>, g = gcd(a, s): a/g, s/g are coprime)."""
        if len(self.rows) != dim - 1:
            return (0,) * dim
        n = [int(j not in self.pivots) for j in range(dim)]
        for col, row in zip(reversed(self.pivots), reversed(self.rows)):
            a, s = row[col], sum(map(mul, row, n))
            if s:
                g = gcd(a, s)
                n = [x * (a // g) for x in n]
                n[col] = -s // g
        return tuple(n)


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix; no row is added once the rank is the column count."""
    echelon = Echelon()
    return sum(echelon.add(row) for row in rows if len(echelon.rows) < len(row))


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


def is_identity(matrix: Sequence[Sequence[int]], dim: int) -> bool:
    if len(matrix) != dim:
        return False
    return all(
        len(row) == dim and all(row[j] == (1 if i == j else 0) for j in range(dim))
        for i, row in enumerate(matrix)
    )

