"""Exact integer linear algebra: determinants, the adjugate, a fraction-free
row echelon form and the Hermite normal form. Everything stays in plain Python
ints; nothing here builds a Fraction or touches a float.

There is one elimination kernel, `adjugate`, and `det_int` is its determinant. For
n x n matrices with 1 <= n <= 4 (about 99% of the calls) it uses closed cofactor
formulas: integer identities with no division, equal to the elimination bit for bit. A
cofactor expansion grows factorially, so n = 0 and n >= 5 (4-D start simplices,
sigma(d >= 4), any user matrix) take one fraction-free Gauss-Jordan pass (Bareiss,
Math. Comp. 22, 1968), whose last pivot, signed by its row swaps, is the determinant.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

IntVector = tuple[int, ...]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the one `adjugate` finds with the inverse."""
    return adjugate(rows)[0]


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """(det A, adj A) of a square integer matrix A, or (0, None) if A is singular: cofactors for
    1 <= n <= 4, else one fraction-free Gauss-Jordan pass over [A | I] in place. Step k clears column
    k in every other row, dividing exactly by the previous pivot, and keeps column k of the right
    block there, so the rows end as D (PA)^-1, D = det PA, P the row swaps, undone on the columns."""
    n = len(rows)
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    if 0 < n < 5:
        det, adj = _cofactors(a)
        return (det, adj) if det else (0, None)
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


def _cofactors(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det a, adj a) of a, n x n with 1 <= n <= 4; at n = 4 from the 2 x 2 minors s of rows 0-1 and c of rows 2-3."""
    if len(a) < 3:
        if len(a) == 1:
            return a[0][0], [[1]]
        (p, q), (r, s) = a
        return p*s - q*r, [[s, -q], [-r, p]]
    if len(a) == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        c0, c1, c2 = t*x - u*w, u*v - s*x, s*w - t*v
        return p*c0 + q*c1 + r*c2, [[c0, r*w - q*x, q*u - r*t], [c1, p*x - r*v, r*s - p*u], [c2, q*v - p*w, p*t - q*s]]
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    s01, s02, s03 = a00*a11 - a01*a10, a00*a12 - a02*a10, a00*a13 - a03*a10
    s12, s13, s23 = a01*a12 - a02*a11, a01*a13 - a03*a11, a02*a13 - a03*a12
    c01, c02, c03 = a20*a31 - a21*a30, a20*a32 - a22*a30, a20*a33 - a23*a30
    c12, c13, c23 = a21*a32 - a22*a31, a21*a33 - a23*a31, a22*a33 - a23*a32
    return s01*c23 - s02*c13 + s03*c12 + s12*c03 - s13*c02 + s23*c01, [
        [a11*c23 - a12*c13 + a13*c12, a02*c13 - a01*c23 - a03*c12, a31*s23 - a32*s13 + a33*s12, a22*s13 - a21*s23 - a23*s12],
        [a12*c03 - a10*c23 - a13*c02, a00*c23 - a02*c03 + a03*c02, a32*s03 - a30*s23 - a33*s02, a20*s23 - a22*s03 + a23*s02],
        [a10*c13 - a11*c03 + a13*c01, a01*c03 - a00*c13 - a03*c01, a30*s13 - a31*s03 + a33*s01, a21*s03 - a20*s13 - a23*s01],
        [a11*c02 - a10*c12 - a12*c01, a00*c12 - a01*c02 + a02*c01, a31*s02 - a30*s12 - a32*s01, a20*s12 - a21*s02 + a22*s01],
    ]


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

