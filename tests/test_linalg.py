import ast
import inspect
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmink import linalg

from conftest import inverse_exact, rank, solve_exact


def det_by_permutation_expansion(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestRationalScalars:
    """The rational scalar type keeps lowest terms with positive denominator."""

    @given(st.integers(-100, 100), st.integers(-100, 100).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_normalized_on_construction(self, num, den):
        from math import gcd

        q = Fraction(num, den)
        assert q.denominator > 0
        assert gcd(q.numerator, q.denominator) == 1

    def test_exact_arithmetic(self):
        assert Fraction(1, 3) + Fraction(1, 3) + Fraction(1, 3) == 1
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(1, -2) == Fraction(-1, 2)


class TestDet:
    def test_examples(self):
        assert linalg.det_int([[1, 0], [0, 1]]) == 1
        assert linalg.det_int([[1, 1], [0, 1]]) == 1
        assert linalg.det_int([[1, 0, -1], [0, 1, -1], [0, 0, 2]]) == 2
        assert linalg.det_int([[2, 4], [1, 2]]) == 0
        assert linalg.det_int([]) == 1

    def test_not_square(self):
        with pytest.raises(ValueError):
            linalg.det_int([[1, 2, 3], [4, 5, 6]])

    @given(square_matrices)
    @settings(max_examples=200, deadline=None)
    def test_matches_permutation_expansion(self, rows):
        assert linalg.det_int(rows) == det_by_permutation_expansion(rows)


class TestSolve:
    """The exact solve that the oracles in conftest use."""

    def test_unique_solution(self):
        x = solve_exact([[2, 0], [0, 4]], [1, 1])
        assert x == (Fraction(1, 2), Fraction(1, 4))

    def test_singular_returns_none(self):
        assert solve_exact([[1, 2], [2, 4]], [1, 1]) is None

    @given(square_matrices, st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, rows, data):
        n = len(rows)
        if linalg.det_int(rows) == 0:
            assert solve_exact(rows, [0] * n) is None
            return
        x = [data.draw(st.integers(-4, 4)) for _ in range(n)]
        b = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert solve_exact(rows, b) == tuple(Fraction(v) for v in x)


class TestRank:
    """The tests' rank oracle (scan_beneath_beyond's vertex rule), a fraction-free echelon."""

    def test_examples(self):
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[0, 0]]) == 0
        assert rank([]) == 0

    def test_stops_at_full_column_rank(self, monkeypatch):
        added = []
        add = linalg.Echelon.add
        monkeypatch.setattr(linalg.Echelon, "add", lambda self, row: added.append(row) or add(self, row))
        assert rank([[1, 1], [2, 2], [0, 1], [3, 4], [5, 6]]) == 2
        assert added == [[1, 1], [2, 2], [0, 1]]

    @given(st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), max_size=6)
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_hermite_normal_form(self, rows):
        assert rank(rows) == len(linalg.hermite_normal_form(rows))


class TestPrimitiveVector:
    def test_examples(self):
        assert linalg.primitive_vector((2, 4, 6)) == (1, 2, 3)
        assert linalg.primitive_vector((-3, 6)) == (-1, 2)
        assert linalg.primitive_vector((0, 0)) == (0, 0)
        assert linalg.primitive_vector((5,)) == (1,)


entries = st.one_of(st.integers(-4, 4), st.integers(-(10**6), 10**6))


@st.composite
def adjugate_cases(draw):
    """Square matrices of size 0..7; some rows are integer combinations of the
    rows before them, so the matrix is singular."""
    n = draw(st.integers(0, 7))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 4)) == 0:
            coeffs = [draw(st.integers(-3, 3)) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return rows


class TestAdjugate:
    """linalg.adjugate against det_int and the Fraction inverse of the conftest
    oracle: adj A = det A * A^-1 when A is nonsingular."""

    @given(adjugate_cases())
    @example([[0, 1], [1, 0]])  # a row swap at the first pivot
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # anti-diagonal: a swap, then none
    @example([[1, 2, 3], [2, 4, 5], [1, 1, 1]])  # leading 2x2 minor zero: a swap at the second pivot
    @example([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]])  # two swaps sharing a row: undone last first
    @example([[1, 2], [2, 4]])
    @example([])
    @settings(max_examples=300, deadline=None)
    def test_matches_inverse_and_det(self, rows):
        det, adj = linalg.adjugate(rows)
        assert det == linalg.det_int(rows)
        inverse = inverse_exact(rows)
        if inverse is None:
            assert (det, adj) == (0, None)
        else:
            assert adj == [[det * x for x in row] for row in inverse]

    def test_pinned_pivots(self):
        assert linalg.adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert linalg.adjugate([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == (-1, [[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
        assert linalg.adjugate([[1, 2, 3], [2, 4, 5], [1, 1, 1]]) == (-1, [[-1, 1, -2], [3, -2, 1], [-2, 1, 0]])
        cycle = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
        assert linalg.adjugate(cycle) == (1, [list(col) for col in zip(*cycle)])
        assert linalg.adjugate([]) == (1, [])
        assert linalg.adjugate([[7]]) == (7, [[1]])

    @pytest.mark.parametrize("n", [5, 6])
    def test_pinned_pivots_by_elimination(self, n):
        # the row-swap cases above at sizes the cofactor formulas do not take
        def permutation(rows):
            return [[int(j == i) for j in range(n)] for i in rows]

        anti = permutation(reversed(range(n)))  # a swap at each of the first n // 2 pivots
        sign = (-1) ** (n * (n - 1) // 2)
        assert linalg.adjugate(anti) == (sign, [[sign * x for x in row] for row in anti])
        # two swaps sharing a row, undone last first: (2, 4) then (3, 4), or (1, 3) then (2, 3)
        cycle = permutation([0, 1, 3, 4, 2] if n == 5 else [0, 2, 3, 1, 4, 5])
        assert linalg.adjugate(cycle) == (1, [list(col) for col in zip(*cycle)])
        # leading 2x2 minor zero: a swap at the second pivot
        minor = [[1, 2, 3, -1, 2, 1][:n], [2, 4, 5, 1, -3, 2][:n]] + [
            [int(i == j) + (i + 2 * j) % 3 for j in range(n)] for i in range(2, n)
        ]
        det = det_by_permutation_expansion(minor)
        assert det and linalg.adjugate(minor) == (det, [[det * x for x in row] for row in inverse_exact(minor)])

    def test_singular(self):
        assert linalg.adjugate([[1, 2], [2, 4]]) == (0, None)
        assert linalg.adjugate([[0, 0], [0, 0]]) == (0, None)
        assert linalg.adjugate([[1, 0, 0], [0, 0, 0], [0, 0, 1]]) == (0, None)
        assert linalg.adjugate([[0]]) == (0, None) and linalg.det_int([[0]]) == 0

    def test_not_square(self):
        with pytest.raises(ValueError):
            linalg.adjugate([[1, 2, 3], [4, 5, 6]])


@st.composite
def closed_form_cases(draw, n):
    """n x n matrices with entries up to 5, 10^6 or 10^30 in size; in some, one row
    (at any index) is an integer combination of the others, so the matrix is singular."""
    bound = draw(st.sampled_from((5, 10**6, 10**30)))
    rows = [draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        i, coeffs = draw(st.integers(0, n - 1)), draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rows[i] = [sum(c * r[j] for k, (c, r) in enumerate(zip(coeffs, rows)) if k != i) for j in range(n)]
    return rows


class TestClosedForms:
    """det_int and adjugate at n = 1..4, the sizes the cofactor formulas take, against
    the permutation expansion and the Fraction inverse of the conftest oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracles(self, n, data):
        rows = data.draw(closed_form_cases(n))
        det = det_by_permutation_expansion(rows)
        assert linalg.det_int(rows) == det
        inverse = inverse_exact(rows)
        if inverse is None:
            assert det == 0 and linalg.adjugate(rows) == (0, None)
        else:
            assert linalg.adjugate(rows) == (det, [[det * x for x in row] for row in inverse])


def in_row_lattice(hnf_rows, vector):
    """Echelon reduction: is vector an integer combination of HNF rows?"""
    v = list(vector)
    for row in hnf_rows:
        pivot_col = next(i for i, x in enumerate(row) if x)
        if v[pivot_col] % row[pivot_col] != 0:
            return False
        q = v[pivot_col] // row[pivot_col]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


int_row_sets = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=6
    )
)


class TestHermiteNormalForm:
    def test_index_two_sublattice(self):
        rows = [[2, 0], [0, 1], [-2, 0], [0, -1]]
        assert linalg.hermite_normal_form(rows) == [[2, 0], [0, 1]]

    def test_identity_lattice(self):
        rows = [[1, 0, 0], [0, 1, 0], [-1, -1, 3], [0, 0, 1]]
        assert linalg.hermite_normal_form(rows) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_zero_rows_dropped(self):
        assert linalg.hermite_normal_form([[0, 0], [0, 0]]) == []
        assert linalg.hermite_normal_form([]) == []

    @given(int_row_sets)
    @settings(max_examples=150, deadline=None)
    def test_echelon_shape(self, rows):
        h = linalg.hermite_normal_form(rows)
        pivots = []
        for row in h:
            col = next(i for i, x in enumerate(row) if x)
            assert row[col] > 0
            pivots.append(col)
            for above in h[: len(pivots) - 1]:
                assert 0 <= above[col] < row[col]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)

    @given(int_row_sets)
    @settings(max_examples=150, deadline=None)
    def test_original_rows_in_lattice(self, rows):
        h = linalg.hermite_normal_form(rows)
        for row in rows:
            if any(row):
                assert in_row_lattice(h, row)

    @given(int_row_sets)
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_shuffle_and_negation(self, rows):
        h = linalg.hermite_normal_form(rows)
        assert linalg.hermite_normal_form(list(reversed(rows))) == h
        assert linalg.hermite_normal_form([[-x for x in r] for r in rows]) == h


class TestIntegerOnly:
    def test_no_fractions_import(self):
        tree = ast.parse(inspect.getsource(linalg))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported
        assert not hasattr(linalg, "inverse_exact")


class TestInverse:
    """The Fraction inverse is a test oracle (of linalg.adjugate and unimodular_criteria's cofactor rule)."""

    def test_round_trip(self):
        a = [[1, 1], [0, 1]]
        inv = inverse_exact(a)
        assert inv == [[1, -1], [0, 1]]

    def test_singular(self):
        assert inverse_exact([[1, 2], [2, 4]]) is None

    @given(square_matrices)
    @settings(max_examples=80, deadline=None)
    def test_product_is_identity(self, rows):
        n = len(rows)
        inv = inverse_exact(rows)
        if linalg.det_int(rows) == 0:
            assert inv is None
            return
        for i in range(n):
            for j in range(n):
                entry = sum(rows[i][k] * inv[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)
