import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmink import lp

from conftest import solve_exact


def best_basic_feasible_solution(cost, a_eq, b_eq):
    """Oracle: maximum of cost.x over all basic feasible solutions.

    Valid for bounded feasible LPs, where the optimum is attained at a BFS.
    Returns None when infeasible. Dependent constraint rows are reduced away
    first so that every vertex shows up as a square subsystem.
    """
    n = len(cost)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(a_eq, b_eq)]
    reduced = []
    for row in rows:
        for prior in reduced:
            lead = next(j for j, v in enumerate(prior) if v)
            if row[lead]:
                f = row[lead] / prior[lead]
                row = [a - f * b for a, b in zip(row, prior)]
        if any(row[:n]):
            reduced.append(row)
        elif row[n]:
            return None  # 0 = nonzero: inconsistent
    m = len(reduced)
    best = None
    for cols in itertools.combinations(range(n), m):
        square = [[row[j] for j in cols] for row in reduced]
        solution = solve_exact(square, [row[n] for row in reduced])
        if solution is None or any(v < 0 for v in solution):
            continue
        x = [Fraction(0)] * n
        for j, v in zip(cols, solution):
            x[j] = v
        value = sum(Fraction(c) * v for c, v in zip(cost, x))
        if best is None or value > best:
            best = value
    return best


class TestMaximize:
    def test_simple_optimum(self):
        value, x = lp.maximize([1, 0], [[1, 1]], [1])
        assert value == 1
        assert x == [1, 0]

    def test_infeasible(self):
        # x1 + x2 = -1 has no nonnegative solution
        assert lp.maximize([1, 0], [[1, 1]], [-1]) is None

    def test_equalities_conflict(self):
        assert lp.maximize([0], [[1], [1]], [1, 2]) is None

    def test_redundant_rows(self):
        value, x = lp.maximize([1], [[1], [1]], [2, 2])
        assert value == 2 and x == [2]

    def test_unbounded(self):
        with pytest.raises(lp.Unbounded):
            lp.maximize([1, -1], [[0, 1]], [1])

    def test_no_constraints(self):
        assert lp.maximize([0, 0], [], []) == (0, [0, 0])
        with pytest.raises(lp.Unbounded):
            lp.maximize([1], [], [])

    def test_fractional_optimum(self):
        # max x1 with 2 x1 + x2 = 1
        value, x = lp.maximize([1, 0], [[2, 1]], [1])
        assert value == Fraction(1, 2)

    def test_degenerate_cycling_guard(self):
        # classic degenerate instance; Bland's rule must terminate and agree
        # with exhaustive enumeration of basic feasible solutions
        a = [
            [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
            [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
        b = [0, 0, 1]
        c = [Fraction(3, 4), -20, Fraction(1, 2), -6, 0, 0, 0]
        value, _ = lp.maximize(c, a, b)
        assert value == best_basic_feasible_solution(c, a, b)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_bfs_enumeration_on_bounded_instances(self, data):
        n = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, 2))
        a = [
            [data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)
        ]
        b = [data.draw(st.integers(-3, 3)) for _ in range(m)]
        # a simplex constraint keeps the region bounded
        a.append([1] * n)
        b.append(data.draw(st.integers(1, 5)))
        c = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        expected = best_basic_feasible_solution(c, a, b)
        got = lp.maximize(c, a, b)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got[0] == expected


class TestPointInConvexHull:
    def test_triangle(self):
        tri = [(0, 0), (1, 0), (0, 1)]
        assert lp.point_in_convex_hull(tri, (Fraction(1, 3), Fraction(1, 3)))
        assert lp.point_in_convex_hull(tri, (0, 0))
        assert not lp.point_in_convex_hull(tri, (Fraction(1, 2), 1))
        assert not lp.point_in_convex_hull(tri, (1, 1))

    def test_segment_in_plane(self):
        seg = [(0, 0), (2, 2)]
        assert lp.point_in_convex_hull(seg, (1, 1))
        assert lp.point_in_convex_hull(seg, (Fraction(1, 2), Fraction(1, 2)))
        assert not lp.point_in_convex_hull(seg, (1, 0))

    def test_empty(self):
        assert not lp.point_in_convex_hull([], (0,))

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=6
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_convex_combinations_are_inside(self, points, data):
        weights = [data.draw(st.integers(0, 4)) for _ in points]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        target = tuple(
            sum(Fraction(w, total) * p[i] for w, p in zip(weights, points))
            for i in range(2)
        )
        assert lp.point_in_convex_hull(points, target)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_outside_bounding_box_is_outside(self, points):
        beyond = max(x for p in points for x in p) + 1
        assert not lp.point_in_convex_hull(points, (beyond, 0))


def lp_imports(source: str) -> list[int]:
    """The lines of the imports of a module named lp in source, read off its syntax tree:
    `import latmink.lp`, `from latmink import lp`, `from . import lp`, `from .lp import x`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("lp" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


class TestOracleIndependence:
    """lp is the slow reference form of membership and of the pair test, and the fast paths
    are checked against it: no library module may import it."""

    def test_scan_finds_every_import_form(self):
        source = "import latmink.lp\nfrom latmink import lp\nfrom . import lp\nfrom .lp import maximize\nimport help\n"
        assert lp_imports(source) == [1, 2, 3, 4]
        assert lp_imports("from . import linalg\nfrom .geometry import Point\nimport alpha.lpx\n") == []

    def test_no_library_module_imports_lp(self):
        package = Path(lp.__file__).resolve().parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) >= 10
        found = {path.name: lp_imports(path.read_text()) for path in modules}
        assert {name: lines for name, lines in found.items() if lines} == {}
