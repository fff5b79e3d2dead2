import dataclasses
import gc
import inspect
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmink import (
    GroupPresentation,
    Halfspace,
    LatticePolytope,
    LatticeSimplex,
    PointSet,
    ResourceLimitError,
    Triangulation,
    check_equality_range,
    classify_simplex,
    cross_polytope,
    cube,
    decompose,
    hull,
    is_unimodular,
    sigma,
    unimodular_criteria,
    validate_triangulation,
)
from latmink import geometry, linalg
from latmink.cli import main
from latmink.geometry import (
    _affine_frame,
    _beneath_beyond,
    as_point,
    as_points,
    barycentric_forms,
    dot,
    edge_rows,
    form_plane,
)
from latmink.verify import orthant_fan

import conftest
from conftest import (
    affine_rank,
    box_scan_points,
    box_scan_runs,
    brute_force_facets,
    brute_force_integer_points,
    cofactor_normal,
    ehrhart_polynomial,
    ehrhart_value,
    lp_contains,
    lp_vertices,
    oracle_volume,
    pairwise_validate_triangulation,
    plane_through,
    recursive_fan_simplices,
    scan_beneath_beyond,
    unimodular,
)

points_2d = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8
)
points_3d = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    min_size=1,
    max_size=6,
)



@st.composite
def lattice_clouds(draw, max_dim=4, min_dim=1, max_directions=None):
    """Points base + sum c_j * u_j for small integer coefficients c_j.

    With fewer directions u_j than coordinates the cloud is lower
    dimensional; coefficient grids put many points on common facets and
    edges, and repeated coefficients give duplicate points.
    """
    d = draw(st.integers(min_dim, max_dim))
    k = draw(st.integers(0, d if max_directions is None else max_directions))
    coord = st.integers(-2, 2)
    base = draw(st.tuples(*[coord] * d))
    dirs = [draw(st.tuples(*[coord] * d)) for _ in range(k)]
    coeffs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=10))
    return [
        tuple(b + sum(c * u[i] for c, u in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in coeffs
    ]


@st.composite
def solid_clouds(draw, min_dim=3, max_dim=5, k=None):
    """Points base + sum c_j * u_j of affine dimension k >= 3 (any of 3..d when None),
    unless the k directions u_j are dependent: base and each base + u_j are among
    them, with random points of coefficients -1..1."""
    d = draw(st.integers(min_dim, max_dim))
    k = draw(st.integers(3, d)) if k is None else k
    base = draw(st.tuples(*[st.integers(-2, 2)] * d))
    dirs = [draw(st.tuples(*[st.integers(-1, 1)] * d)) for _ in range(k)]
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    coeffs = units + draw(st.lists(st.tuples(*[st.integers(-1, 1)] * k), min_size=1, max_size=8))
    return [
        tuple(b + sum(c * u[i] for c, u in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in coeffs
    ]


@st.composite
def midpoint_clouds(draw, max_dim=4):
    """Even grid points plus midpoints of some of their pairs: the midpoints on
    edges and facets of the hull are boundary points that are not vertices."""
    d = draw(st.integers(1, max_dim))
    corners = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=d + 1, max_size=8))
    even = [tuple(2 * x for x in p) for p in corners]
    pairs = draw(st.lists(st.tuples(st.sampled_from(even), st.sampled_from(even)), max_size=6))
    return even + [tuple((x + y) // 2 for x, y in zip(p, q)) for p, q in pairs]


class TestAsPoint:
    def test_rejects_bools_and_floats(self):
        with pytest.raises(ValueError):
            as_point((True, 0))
        with pytest.raises(ValueError):
            as_point((1.0, 0))
        with pytest.raises(ValueError):
            as_point(())

    @pytest.mark.parametrize("value", [5, "ab", {1: 2}, {1, 2}, None, range(2), iter([0, 1])])
    def test_only_tuples_and_lists(self, value):
        # a str, dict or set would otherwise be read as its characters or keys
        with pytest.raises(ValueError, match=f"got {type(value).__name__}$"):
            as_point(value)

    def test_message_names_the_type_not_the_value(self):
        with pytest.raises(ValueError) as info:
            as_point("1" * 10**6)
        assert str(info.value) == "a point must be a tuple or list, got str"

    @pytest.mark.parametrize("point", [5, "ab", {1: 2}, {1, 2}])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda p: PointSet([(0, 0), p]),
            lambda p: LatticePolytope([(0, 0), (1, 0), p]),
            lambda p: LatticeSimplex([(0, 0), (1, 0), p]),
            lambda p: is_unimodular([[1, 0], p]),
            lambda p: unimodular_criteria([[1, 0], p]),
            lambda p: GroupPresentation.zd(2, [(0, 0), p]),
            lambda p: decompose(cross_polytope(2), orthant_fan(2), 1, p),
        ],
        ids=["PointSet", "LatticePolytope", "LatticeSimplex", "is_unimodular",
             "unimodular_criteria", "GroupPresentation.zd", "decompose"],
    )
    def test_every_entry_point_rejects_a_non_point(self, entry, point):
        with pytest.raises(ValueError, match="a point must be a tuple or list"):
            entry(point)

    @pytest.mark.parametrize(
        "entry, points, name",
        [(PointSet, 5, "int"), (LatticePolytope, 5, "int"), (LatticeSimplex, None, "NoneType")],
    )
    def test_point_list_must_be_iterable(self, entry, points, name):
        with pytest.raises(ValueError, match=f"^a point list must be iterable, got {name}$"):
            entry(points)


class TestPointSet:
    def test_canonical_order(self):
        s = PointSet([(1, 0), (0, 1), (1, 0), (0, 0)])
        assert s.points == ((0, 0), (0, 1), (1, 0))
        assert (1, 0) in s and (2, 2) not in s

    def test_empty_needs_dim(self):
        with pytest.raises(ValueError, match="no points and no dimension given"):
            PointSet([])
        assert len(PointSet([], dim=3)) == 0

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed dimensions in point list"):
            PointSet([(1,), (1, 2)])

    def test_dimension_must_match(self):
        with pytest.raises(ValueError, match="points have dimension 2, expected 3"):
            PointSet([(1, 2)], dim=3)

    @pytest.mark.parametrize("dim", ["x", 0, -3, True, 2.0])
    def test_dim_must_be_a_positive_int(self, dim):
        with pytest.raises(ValueError, match="dimension must be a plain int >= 1"):
            PointSet([], dim=dim)
        with pytest.raises(ValueError, match="dimension must be a plain int >= 1"):
            PointSet([(1, 2)], dim=dim)

    @pytest.mark.parametrize("value", [5, None, [[1], [1]], (1, 1, 0)])
    def test_contains_a_non_member(self, value):
        # like a frozenset: a value that is no point of the set is not in it
        s = PointSet([(1, 1)])
        assert value not in s
        assert [1, 1] in s

    def test_difference_and_subset(self):
        a = PointSet([(0,), (1,), (2,)])
        b = PointSet([(1,)])
        assert a.difference(b).points == ((0,), (2,))
        assert b.issubset(a) and not a.issubset(b)

    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d), *[st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=12)] * 2)))
    @settings(max_examples=100, deadline=None)
    def test_difference_equals_the_sorting_constructor(self, case):
        # the filtered tuple is already canonical: no second check or sort
        d, xs, ys = case
        a, b = PointSet(xs, d), PointSet(ys, d)
        diff, expected = a.difference(b), PointSet([p for p in xs if p not in set(ys)], d)
        assert diff == expected
        assert diff._members == expected._members


class TestHull:
    def test_unit_square_from_corners(self, unit_square):
        assert unit_square.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert unit_square.is_full_dimensional

    def test_collinear_point_removed(self):
        seg = hull([(0,), (1,), (2,)])
        assert seg.vertices == ((0,), (2,))

    def test_sigma_3_2_vertices_all_survive(self):
        # oracle: each defining point is outside the hull of the other three
        from latmink import lp

        pts = list(sigma(3, 2).vertices)
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1 :]
            assert not lp.point_in_convex_hull(others, p)
        assert hull(pts).vertices == tuple(sorted(pts))

    def test_interior_point_dropped(self):
        p = hull([(0, 0), (4, 0), (0, 4), (1, 1)])
        assert (1, 1) not in p.vertices

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no points and no dimension given"):
            hull([])

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed dimensions in point list"):
            hull([(0, 0), (1,)])

    def test_dict_vertex_rejected(self):
        # read as its keys, {1: 0, 2: 0} would be the vertex (1, 2)
        with pytest.raises(ValueError, match="got dict"):
            hull([{1: 0, 2: 0}, (0, 1), (1, 0)])

    @given(points_2d)
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, pts):
        p = hull(pts)
        assert hull(p.vertices) == p

    @given(points_3d)
    @settings(max_examples=40, deadline=None)
    def test_idempotent_3d(self, pts):
        p = hull(pts)
        assert hull(p.vertices) == p


def box_size(p: LatticePolytope, n: int) -> int:
    size = 1
    for i in range(p.dim):
        size *= n * (max(v[i] for v in p.vertices) - min(v[i] for v in p.vertices)) + 1
    return size


class TestHullOracles:
    """The beneath-beyond hull against LP vertex pruning and brute-force facets."""

    @given(st.one_of(lattice_clouds(), points_2d, points_3d))
    @settings(max_examples=150, deadline=None)
    def test_matches_lp_and_brute_force(self, pts):
        p = hull(pts)
        assert p.vertices == lp_vertices(pts)
        assert p.affine_dim == affine_rank(pts)
        if p.is_full_dimensional:
            assert [(h.normal, h.offset) for h in p.facets] == brute_force_facets(p.vertices)
            assert p.volume() == oracle_volume(p.vertices)

    @given(lattice_clouds(), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_lower_dimensional_integer_points(self, pts, n):
        p = hull(pts)
        assume(not p.is_full_dimensional)
        assume(box_size(p, n) <= 400)
        assert p.integer_points(n) == brute_force_integer_points(p, n)

    @given(lattice_clouds(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lower_dimensional_membership(self, pts, data):
        p = hull(pts)
        assume(not p.is_full_dimensional)
        den = data.draw(st.integers(1, 3))
        probe = data.draw(
            st.one_of(
                st.tuples(*[st.integers(-9, 9)] * p.dim),
                st.sampled_from(sorted(p.integer_points(1).points)),
            )
        )
        probe = tuple(Fraction(x, den) for x in probe)
        assert p.contains(probe) == lp_contains(p, probe)

    def test_edge_midpoints_of_4d_cross_polytope(self):
        # each edge lies on four facets whose normals have rank three, so a count
        # of facets cannot tell its midpoint from a vertex; a vertex is the only
        # corner on all of its facets, and a midpoint shares them with the edge's ends
        corners = cross_polytope(4).dilate(2).vertices
        mids = {tuple((a + b) // 2 for a, b in zip(u, v)) for u in corners for v in corners}
        p = hull(list(corners) + sorted(mids))
        assert p.vertices == corners
        assert [(h.normal, h.offset) for h in p.facets] == brute_force_facets(corners)

    def test_edge_midpoints_on_eight_facets_in_5d(self):
        # a unimodular image of 2 cross(5): each edge lies on eight facets, and the hull
        # pass makes some of the edge midpoints corners of the boundary
        shear = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, -1, 1, 0, 0], [2, -1, 0, 1, 0], [0, 0, 0, 0, 1]]
        corners = sorted(tuple(dot(row, v) for row in shear) for v in cross_polytope(5).dilate(2).vertices)
        mids = {tuple((a + b) // 2 for a, b in zip(u, v)) for u in corners for v in corners if u != v}
        p = hull(corners + sorted(mids))
        assert p.vertices == tuple(corners)
        assert [(h.normal, h.offset) for h in p.facets] == brute_force_facets(corners)
        on_corners = [m for face, _ in p._faces for m in face if m in mids]
        assert on_corners and all(sum(h.slack(m) == 0 for h in p.facets) == 8 for m in on_corners)
        run = hull_pass(corners + sorted(mids))
        assert _beneath_beyond(*run) == scan_beneath_beyond(*run[:2])

    @given(st.one_of(lattice_clouds(max_dim=5), midpoint_clouds(max_dim=5)))
    @settings(max_examples=80, deadline=None)
    def test_vertices_by_incidence(self, pts):
        # the incidence rule against the rank of the normals at each corner (the scan
        # oracle's rule) and against LP, in d <= 5 and lower-dimensional clouds too
        p = hull(pts)
        assert p.vertices == lp_vertices(pts)
        run = hull_pass(pts)
        if run is not None:
            found = _beneath_beyond(*run)[0]
            assert found == scan_beneath_beyond(*run[:2])[0]
            assert [as_points(pts)[i] for i in found] == list(p.vertices)
            assert [run[0][i] for i in found] == list(p._corners)

    def test_segment_in_z3(self):
        seg = LatticePolytope([(0, 0, 0), (8, 8, 8), (4, 4, 4)])
        assert seg.vertices == ((0, 0, 0), (8, 8, 8))
        assert seg.integer_points(2).points == tuple((i, i, i) for i in range(17))

    def test_triangle_in_z4(self):
        tri = LatticePolytope([(0, 0, 0, 0), (2, 0, 1, 1), (0, 2, 1, -1), (1, 1, 1, 0)])
        assert tri.affine_dim == 2
        assert tri.vertices == ((0, 0, 0, 0), (0, 2, 1, -1), (2, 0, 1, 1))
        for n in (1, 2):
            assert tri.integer_points(n) == brute_force_integer_points(tri, n)


def hull_pass(points):
    """The (pts, simplex, start_planes) that LatticePolytope hands to _beneath_beyond,
    the points in its lattice frame, or None for a point; scan_beneath_beyond takes
    the first two."""
    pts = as_points(points)
    simplex, echelon = _affine_frame(pts)
    k, d = len(simplex) - 1, len(pts[0])
    if not k:
        return None
    if k < d:
        basis = linalg.integer_kernel(linalg.integer_kernel(echelon.rows, d), d)
        pts = [tuple(geometry._in_frame(p, pts[0], basis)) for p in pts]
    return pts, simplex, [form_plane(f) for f in barycentric_forms([pts[i] for i in simplex])[1]]


def cross_cloud(seed, d, count):
    """The recipe of the benchmark's hull clouds: the 2d vertices of a cross-polytope of
    radius r, random points of l1 norm above r up to 2d + 2 outer points, and interior
    points of l1 norm below r up to count points, shuffled."""
    rng, r = random.Random(seed), {2: 5, 3: 3, 4: 3}[d]
    outer = [tuple(s * r if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]
    while len(outer) < 2 * d + 2:
        p = tuple(rng.randint(-r, r) for _ in range(d))
        if sum(map(abs, p)) > r and p not in outer:
            outer.append(p)
    pool = [p for p in itertools.product(range(-r + 1, r), repeat=d) if sum(map(abs, p)) < r]
    points = outer + rng.sample(pool, count - len(outer))
    rng.shuffle(points)
    return points


def parallelotope(matrix):
    """lemma1's parallelotope: the sums of every subset of the matrix's columns."""
    cols = list(zip(*matrix))
    subsets = (chosen for n in range(len(cols) + 1) for chosen in itertools.combinations(cols, n))
    return [tuple(map(sum, zip((0,) * len(cols), *chosen))) for chosen in subsets]


TWICE_CROSS_4 = cross_polytope(4).dilate(2).vertices
HULL_CASES = {
    "segment": [(0,), (5,), (2,), (-3,), (2,)],
    "segment in Z^3": [(4, 4, 4), (0, 0, 0), (8, 8, 8), (-4, -4, -4)],
    "2 cross(4) and its edge midpoints": sorted(
        {tuple((a + b) // 2 for a, b in zip(u, v)) for u in TWICE_CROSS_4 for v in TWICE_CROSS_4}
    ),
    "lemma1 parallelotope 2": parallelotope([[2, -1], [1, 3]]),
    "lemma1 parallelotope 3": parallelotope([[1, 2, -3], [0, 1, 2], [3, -1, 1]]),
    "lemma1 parallelotope 4": parallelotope([[1, 0, 2, -1], [0, 1, 1, 1], [-2, 1, 0, 3], [1, 1, -1, 0]]),
    "4-D cloud": cross_cloud(3, 4, 22),
    "3-D cloud": cross_cloud(5, 3, 20),
}


class TestBeneathBeyond:
    """The flooding hull pass against the scan of every face (`scan_beneath_beyond`),
    and the work it does: one adjugate for the start simplex's planes, every other
    plane from the pencil of a horizon ridge, and visibility tests near the eye only."""

    @given(st.one_of(lattice_clouds(), midpoint_clouds(), points_2d, points_3d))
    @settings(max_examples=200, deadline=None)
    def test_matches_scan_oracle(self, pts):
        run = hull_pass(pts)
        assume(run is not None)
        assert _beneath_beyond(*run) == scan_beneath_beyond(*run[:2])

    @pytest.mark.parametrize("name", HULL_CASES)
    def test_matches_scan_oracle_on_named_clouds(self, name):
        run = hull_pass(HULL_CASES[name])
        assert _beneath_beyond(*run) == scan_beneath_beyond(*run[:2])

    @given(st.one_of(lattice_clouds(), midpoint_clouds()))
    @settings(max_examples=100, deadline=None)
    def test_planes_from_the_pencil(self, pts):
        # every face's stored plane, the start faces' from the forms and the
        # pencil's, is the cofactor oracle's plane through its points
        run = hull_pass(pts)
        assume(run is not None)
        work, simplex, start_planes = run
        k = len(work[0])
        inner = [sum(work[i][j] for i in simplex) for j in range(k)]
        faces = []

        class Recorded(geometry._Face):
            def __init__(self, verts, plane):
                super().__init__(verts, plane)
                faces.append(self)

        with mock.patch.object(geometry, "_Face", Recorded):
            _beneath_beyond(work, simplex, start_planes)
        for face in faces:
            assert (face.normal, face.offset) == plane_through([work[i] for i in face.verts], inner, k + 1)

    @pytest.mark.parametrize("name", [*HULL_CASES, "point"])
    def test_one_adjugate_per_polytope(self, name):
        # the frame's one adjugate gives the start planes
        calls = []
        adjugate = linalg.adjugate

        def counted(rows):
            calls.append(rows)
            return adjugate(rows)

        with mock.patch.object(linalg, "adjugate", counted):
            LatticePolytope(HULL_CASES.get(name, [(3, -1, 2)]))
        assert len(calls) == 1

    def test_start_simplex_builds_no_ridge_map(self):
        # the ridge map is built from itertools.combinations of the faces, and only
        # once some point lies outside the start simplex
        made = []
        combinations = itertools.combinations

        def counted(*args):
            made.append(args)
            return combinations(*args)

        with mock.patch.object(itertools, "combinations", counted):
            for d in (2, 3, 4):
                for m in (1, 3):
                    classify_simplex(sigma(d, m))
            LatticePolytope(LOWER_DIMENSIONAL["triangle in Z^4"])
            assert made == []
            LatticePolytope(parallelotope([[2, -1], [1, 3]]))
        assert made

    def test_flood_tests_fewer_faces_than_a_scan(self, monkeypatch):
        # visibility tests are the dots the hull functions make in their own frame
        # with a point as second argument (the guard dots against `inner`, a list)
        tests = Counter()

        def counted(a, b):
            tests[sys._getframe(1).f_code.co_name] += type(b) is tuple
            return dot(a, b)

        monkeypatch.setattr(geometry, "dot", counted)
        monkeypatch.setattr(conftest, "dot", counted)
        run = hull_pass(HULL_CASES["4-D cloud"])
        assert _beneath_beyond(*run) == scan_beneath_beyond(*run[:2])
        assert (tests["_beneath_beyond"], tests["scan_beneath_beyond"]) == (43, 61)

    @given(st.one_of(lattice_clouds(max_dim=5), midpoint_clouds(max_dim=5), solid_clouds()))
    @settings(max_examples=80, deadline=None)
    def test_start_simplex_changes_no_answer(self, pts):
        # the extreme-point frame and the lex-first one give the same polytope; only
        # the boundary triangulation `_faces` may differ
        def answers(p):
            points = []
            for n in (1, 2):
                try:
                    points.append(p.integer_points(n, cap=10**5))
                except ResourceLimitError:
                    points.append(None)
            full = p.is_full_dimensional
            return p.vertices, p._basis, p._corners, p._planes, full and p.volume(), points

        extreme = hull(pts)
        with mock.patch.object(geometry, "_affine_frame", conftest.lex_first_frame):
            lex_first = hull(pts)
        assert answers(extreme) == answers(lex_first)

    def test_start_simplex_from_extreme_points(self):
        # the lex-max point, then the lex-first points of least and greatest x and y
        pts = as_points([(0, 3), (1, 3), (2, 3), (3, 2), (4, 0)])
        frame, echelon = _affine_frame(pts)
        assert frame == [0, 1, 4] and sorted(echelon.pivots) == [0, 1]
        assert conftest.lex_first_frame(pts)[0] == [0, 1, 3]
        assert _affine_frame([(5, 5, 5)])[0] == [0]
        assert _affine_frame(as_points([(0, 0, 0), (2, 2, 2), (1, 1, 1)]))[0] == [0, 2]

    def test_guard_on_a_bad_horizon_plane(self):
        # start planes turned inward give a pencil plane with `inner` beyond it; a gcd
        # of 0 in the hull pass (not in the start planes) stands for a zero normal
        def flipped(form):
            normal, offset = form_plane(form)
            return tuple(-x for x in normal), -offset

        def zero_in_the_pencil(*normal):
            return 0 if sys._getframe(1).f_code.co_name == "_beneath_beyond" else math.gcd(*normal)

        pts = [(0, 0), (4, 0), (0, 4), (5, 5), (-1, 2), (2, -3)]
        for name, fake in (("form_plane", flipped), ("gcd", zero_in_the_pencil)):
            with mock.patch.object(geometry, name, fake):
                with pytest.raises(RuntimeError, match="internal inconsistency"):
                    LatticePolytope(pts)

    def test_leaves_no_reference_cycles(self):
        # faces point at no face, so the ridge map frees with the hull pass
        gc.disable()
        try:
            gc.collect()
            for points in HULL_CASES.values():
                LatticePolytope(points)
            assert gc.collect() == 0
        finally:
            gc.enable()


def elimination_steps(build) -> int:
    """The line events on the `for k in range(n):` pivot loop of adjugate, the one elimination
    (det_int is adjugate's determinant), while build() runs, counted by a trace hook: 0 if and
    only if no elimination step ran."""
    source, first = inspect.getsourcelines(linalg.adjugate)
    header = first + next(i for i, line in enumerate(source) if line.strip() == "for k in range(n):")
    kernel, steps = linalg.adjugate.__code__, 0

    def in_kernel(frame, event, arg):
        nonlocal steps
        steps += event == "line" and frame.f_lineno == header
        return in_kernel

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_kernel if frame.f_code is kernel else None)
    try:
        build()
    finally:
        sys.settrace(previous)
    return steps


class TestClosedFormKernel:
    """Simplices and polytopes in Z^3 need determinants and adjugates of at most 4 x 4,
    which linalg takes from cofactor formulas: no elimination step runs. A simplex in Z^4
    needs a 5 x 5 adjugate, which the elimination serves."""

    def test_no_elimination_in_z3(self):
        def build_simplex():
            s = LatticeSimplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 2)])
            return s.normalized_volume, s.facets

        def build_polytope():
            p = LatticePolytope(HULL_CASES["3-D cloud"])
            return p.volume(), p.facets

        assert elimination_steps(build_simplex) == 0
        assert elimination_steps(build_polytope) == 0

    def test_elimination_in_z4(self):
        assert elimination_steps(lambda: LatticeSimplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 2)]))


class TestFacets:
    def test_unit_square(self, unit_square):
        expected = {
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
        }
        assert {(h.normal, h.offset) for h in unit_square.facets} == expected

    def test_unit_triangle(self, unit_triangle):
        got = {(h.normal, h.offset) for h in unit_triangle.facets}
        assert got == {((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)}

    def test_sigma_3_2_is_a_simplex(self):
        p = LatticePolytope(sigma(3, 2).vertices)
        facets = p.facets
        assert len(facets) == 4
        for h in facets:
            tight = [v for v in p.vertices if h.slack(v) == 0]
            assert len(tight) == 3
            assert all(h.slack(v) >= 0 for v in p.vertices)

    def test_segment(self):
        seg = LatticePolytope([(-1,), (2,)])
        assert {(h.normal, h.offset) for h in seg.facets} == {((1,), 2), ((-1,), 1)}

    def test_requires_full_dimension(self):
        flat = LatticePolytope([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            flat.facets

    def test_every_plane_is_a_halfspace(self):
        # one plane type: a form's plane, the hull pass, a polytope's facets
        # (its stored planes, in ascending order) and a simplex's facets
        assert type(form_plane((1, 1, -1))) is Halfspace
        assert all(type(h) is Halfspace for h in _beneath_beyond(*hull_pass(HULL_CASES["3-D cloud"]))[1])
        for p in (cube(3), cross_polytope(4), LatticePolytope(sigma(3, 2).vertices)):
            assert p.facets is p._planes
            assert all(type(h) is Halfspace for h in p.facets)
            assert list(p.facets) == sorted(p.facets)
        assert all(type(h) is Halfspace for h in sigma(4, 3).facets)

    def test_halfspace_is_a_tuple(self):
        h = Halfspace((1, -1), 2)
        assert h == ((1, -1), 2) and hash(h) == hash(((1, -1), 2))
        normal, offset = h
        assert (normal, offset) == (h.normal, h.offset) == ((1, -1), 2)
        assert not dataclasses.is_dataclass(h)
        assert repr(h) == "Halfspace(normal=(1, -1), offset=2)"
        assert h.slack((Fraction(1, 2), 0)) == Fraction(3, 2)


@st.composite
def lattice_simplices(draw):
    """d+1 affinely independent points of Z^d, d = 1..5."""
    d = draw(st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=d + 1, max_size=d + 1))
    assume(linalg.det_int(edge_rows(pts)) != 0)
    return pts


big_entries = st.one_of(st.integers(-4, 4), st.integers(-(10**6), 10**6))


@st.composite
def normal_rows(draw):
    """d-1 rows of length d (d = 1..6); some are integer combinations of the
    rows before them, so the set is dependent and its normal is zero."""
    d = draw(st.integers(1, 6))
    rows = []
    for _ in range(d - 1):
        if rows and draw(st.integers(0, 4)) == 0:
            coeffs = [draw(st.integers(-3, 3)) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)])
        else:
            rows.append(draw(st.lists(big_entries, min_size=d, max_size=d)))
    return d, rows


def form_planes(pts):
    """The facet planes read from the barycentric forms of a simplex, facet j opposite pts[j]."""
    return [form_plane(f) for f in barycentric_forms(pts)[1]]


class TestPlaneThrough:
    """The planes read from a simplex's barycentric forms against the oriented
    primitive plane of the cofactor oracle (`conftest.plane_through`)."""

    @given(lattice_simplices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_simplex_facets(self, pts, data):
        omit = data.draw(st.integers(0, len(pts) - 1))
        rest = pts[:omit] + pts[omit + 1 :]
        plane = form_planes(pts)[omit]
        assert plane == plane_through(rest, pts[omit])
        # the beneath-beyond orientation: (d+1) times the centroid, at scale d+1
        inner = [sum(col) for col in zip(*pts)]
        assert plane == plane_through(rest, inner, len(pts))
        assert plane in LatticeSimplex(pts).facets

    @given(normal_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_large_entries(self, case):
        # the simplex of 0, the rows and their cofactor normal n: |det| = <n, n>,
        # and the facet opposite n is the plane through 0 and the rows
        d, rows = case
        normal = cofactor_normal(rows, d)
        pts = [(0,) * d] + [tuple(r) for r in rows] + [normal]
        vol, forms = barycentric_forms(pts)
        if not any(normal):
            assert (vol, forms) == (0, [])
            return
        assert vol == dot(normal, normal)
        assert form_plane(forms[-1]) == plane_through(pts[:-1], normal)
        assert all(dot(f, p + (1,)) == vol * (i == j) for i, f in enumerate(forms) for j, p in enumerate(pts))

    def test_dimension_one(self):
        assert form_planes([(0,), (3,)]) == [((1,), 3), ((-1,), 0)]
        assert plane_through([(3,)], (0,)) == ((1,), 3)

    def test_plane_normal(self):
        assert form_planes([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2)])[3] == ((0, 0, -1), 0)
        assert cofactor_normal([[1, 0, 0], [0, 1, 0]], 3) == (0, 0, 1)

    def test_dependent_points_have_no_forms(self):
        assert barycentric_forms([(0, 0, 0), (1, 2, 3), (-2, -4, -6), (0, 0, 1)]) == (0, [])
        assert barycentric_forms([(0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 0, 2), (0, 1, 0, 0)]) == (0, [])


class TestContains:
    def test_square_half_half(self, unit_square):
        assert unit_square.contains((Fraction(1, 2), Fraction(1, 2)))

    def test_triangle_boundary_cases(self, unit_triangle):
        assert not unit_triangle.contains((Fraction(1, 2), 1))
        assert unit_triangle.contains((Fraction(1, 2), Fraction(1, 2)))

    def test_symmetric_example_rational_point(self):
        pts = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]
        sym = LatticePolytope(pts + [tuple(-c for c in p) for p in pts])
        assert sym.contains((Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)))

    def test_strict_interior(self, unit_square):
        assert unit_square.contains((Fraction(1, 2), Fraction(1, 2)), strict=True)
        assert not unit_square.contains((0, 0), strict=True)

    def test_lower_dimensional_membership(self):
        seg = LatticePolytope([(0, 0), (2, 2)])
        assert seg.contains((1, 1))
        assert seg.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not seg.contains((1, 0))
        assert not seg.contains((1, 1), strict=True)

    @pytest.mark.parametrize("point", ["11", {1: 0, 1.5: 0}, (True, 0), ("1", 0), (float("inf"), 0), (None, 0)])
    def test_non_rational_points_rejected(self, unit_square, point):
        # "11" was read as the point (1, 1), a dict as its keys and True as 1
        with pytest.raises(ValueError):
            unit_square.contains(point)

    def test_dimension_mismatch(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.contains((1,))

    @given(points_2d, st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    @settings(max_examples=120, deadline=None)
    def test_facet_path_agrees_with_lp_path(self, pts, probe):
        p = hull(pts)
        if not p.is_full_dimensional:
            return
        assert p.contains(probe) == lp_contains(p, probe)

    @given(points_2d, st.data())
    @settings(max_examples=80, deadline=None)
    def test_rational_probes_agree(self, pts, data):
        p = hull(pts)
        if not p.is_full_dimensional:
            return
        num = data.draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
        den = data.draw(st.integers(1, 4))
        probe = (Fraction(num[0], den), Fraction(num[1], den))
        assert p.contains(probe) == lp_contains(p, probe)

    @given(points_3d, st.tuples(*[st.integers(-8, 8)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_int_fraction_and_float_inputs_agree(self, pts, num):
        # int coordinates stay ints and the others become Fractions: the
        # answers must not depend on which form an equal value comes in
        p, simplex = hull(pts), sigma(3, 3)
        for forms in (
            [num, tuple(map(Fraction, num)), tuple(map(float, num))],
            [tuple(Fraction(x, 4) for x in num), tuple(x / 4 for x in num)],
        ):
            assert len({p.contains(q) for q in forms}) == 1
            assert len({p.contains(q, strict=True) for q in forms}) == 1
            assert len({simplex.barycentric(q) for q in forms}) == 1
            assert len({simplex.contains(q) for q in forms}) == 1


class TestIntegerPoints:
    def test_unit_square_doubled(self, unit_square):
        got = unit_square.integer_points(2)
        assert got.points == tuple((x, y) for x in range(3) for y in range(3))

    def test_sigma_3_2_only_vertices(self):
        p = LatticePolytope(sigma(3, 2).vertices)
        assert p.integer_points(1) == PointSet(p.vertices, 3)

    def test_sigma_3_3_adds_e3(self):
        p = LatticePolytope(sigma(3, 3).vertices)
        assert p.integer_points(1) == PointSet(list(p.vertices) + [(0, 0, 1)], 3)

    def test_zero_returns_origin(self, unit_square):
        assert unit_square.integer_points(0).points == ((0, 0),)
        shifted = LatticePolytope([(5, 5), (6, 5), (5, 6)])
        assert shifted.integer_points(0).points == ((0, 0),)

    def test_negative_rejected(self, unit_square):
        # a point has no line runs, and its n is checked all the same
        for poly in (unit_square, LatticePolytope([(3, -2)])):
            with pytest.raises(ValueError, match="^dilation factor must be >= 0$"):
                poly.integer_points(-1)

    def test_cap(self, unit_square):
        with pytest.raises(ResourceLimitError):
            unit_square.integer_points(10, cap=5)

    def test_lower_dimensional(self):
        seg = LatticePolytope([(0, 0), (2, 2)])
        assert seg.integer_points(1).points == ((0, 0), (1, 1), (2, 2))
        skew = LatticePolytope([(0, 0), (2, 1)])
        assert skew.integer_points(1).points == ((0, 0), (2, 1))

    @given(points_2d, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, pts, n):
        p = hull(pts)
        assert p.integer_points(n) == brute_force_integer_points(p, n)

    @given(points_3d, st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_3d(self, pts, n):
        p = hull(pts)
        assert p.integer_points(n) == brute_force_integer_points(p, n)

    @given(points_2d, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_dilation_consistency(self, pts, n):
        p = hull(pts)
        assert p.integer_points(n) == p.dilate(n).integer_points(1)


LOWER_DIMENSIONAL = {
    "segment in Z^3": [(0, 0, 0), (8, 8, 8)],
    "skew segment in Z^3": [(1, -1, 0), (5, 1, 6)],
    "triangle in Z^4": [(0, 0, 0, 0), (2, 0, 1, 1), (0, 2, 1, -1)],
    "point in Z^2": [(3, -2)],
}
SKEW_TRIANGLE = [(0, 0, 0), (1000, 0, -1), (0, 1000, -1)]  # on x + y + 1000 z = 0
THIN_TRIANGLE = [(0, 0, 0), (1000, 0, -1), (999, 1, -1)]  # in the same plane, unimodular there
# Facets whose normal has last coefficient 0 bound no line: the square's and
# the cube's sides, and the prism's side x + y <= 2, which empties the lines
# through the prefixes (1, 2), (2, 1) and (2, 2) of its bounding box. The
# shadow of the triangle times a square is the prism: its side x + y <= 2,
# free of z too, skips those prefixes of (x, y, z) before any z is looped over.
ZERO_LAST_COEFFICIENT = {
    "unit square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "triangular prism": [(x, y, z) for x, y in [(0, 0), (2, 0), (0, 2)] for z in (0, 1)],
    "4-cube": list(cube(4).vertices),
    "triangle times square": [(x, y, z, w) for x, y in [(0, 0), (2, 0), (0, 2)] for z in (0, 1) for w in (0, 1)],
}


class TestLineScan:
    """integer_points by line intervals against the facet test on every box point."""

    @given(lattice_clouds(), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_box_scan(self, pts, n):
        p = hull(pts)
        assume(box_size(p, n) <= 3000)
        assert p.integer_points(n) == box_scan_points(p, n)

    @given(lattice_clouds(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_output_is_already_canonical(self, pts, n):
        # integer_points skips as_points on the scan's output: it must already
        # be distinct plain-int tuples of the right length in lex order
        p = hull(pts)
        assume(box_size(p, n) <= 3000)
        got = p.integer_points(n)
        assert list(got.points) == as_points(got.points, p.dim)
        assert all(type(x) is tuple and all(type(c) is int for c in x) for x in got.points)

    @given(lattice_clouds(min_dim=3, max_directions=2), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_lifted_output_is_already_canonical(self, pts, n):
        # segments and polygons in Z^3 and Z^4: the images of the frame's points
        # are canonical as they come, so as_points is skipped there too
        p = hull(pts)
        assume(0 < p.affine_dim < p.dim and box_size(p, n) <= 3000)
        got = p.integer_points(n)
        assert list(got.points) == as_points(got.points, p.dim)
        assert all(type(x) is tuple and all(type(c) is int for c in x) for x in got.points)
        assert got == box_scan_points(p, n)

    @given(
        st.one_of(
            st.integers(1, 4).flatmap(lambda d: st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=d + 1, max_size=d + 5)),
            lattice_clouds(max_dim=5),
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_run_lengths_count_the_points(self, pts, n):
        # the search counts a full-dimensional polytope's points from its runs,
        # before it builds any; a lower-dimensional one is scanned in its own
        # lattice, so none of its runs' points is dropped either
        p = hull(pts)
        assume(p.affine_dim >= 1 and box_size(p, n) <= 3000)
        runs = p.line_runs(n)
        assert sum(hi - lo + 1 for _, lo, hi in runs) == len(p.integer_points(n))
        if p.is_full_dimensional:
            assert geometry.run_points(runs) == list(p.integer_points(n).points)

    def test_skew_triangle_scans_its_lattice_only(self):
        # 501,501 points of the triangle's projection on (x, y), but 1,002 lattice points
        p = LatticePolytope(SKEW_TRIANGLE)
        assert sum(hi - lo + 1 for _, lo, hi in p.line_runs(1)) == 1002 == len(p.integer_points(1))
        assert len(p.integer_points(3)) == 6004

    @pytest.mark.parametrize("name", [*LOWER_DIMENSIONAL, *ZERO_LAST_COEFFICIENT])
    def test_named_polytopes(self, name):
        p = LatticePolytope({**LOWER_DIMENSIONAL, **ZERO_LAST_COEFFICIENT}[name])
        for n in range(5):
            assert p.integer_points(n) == box_scan_points(p, n)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_sigma(self, d):
        for m in (1, 2, 3):
            p = LatticePolytope(sigma(d, m).vertices)
            for n in range(5 if d < 5 else 4):
                assert p.integer_points(n) == box_scan_points(p, n)
                assert p.line_runs(n) == box_scan_runs(p, n)

    @given(st.one_of(solid_clouds(), lattice_clouds(max_dim=5)), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_extra_valid_planes_keep_the_runs(self, pts, n, data):
        # a plane (u, n max <u, v>) over Q's corners v holds on nQ; one for each coordinate
        # j, u's last nonzero coefficient at j, cuts prefixes at every level, before k - 2
        # too, and no point of nQ is lost
        p = hull(pts)
        assume(p.affine_dim >= 1 and geometry.box_count(*p.box(n)) <= 3000)
        k, planes = p.affine_dim, [(a, n * b) for a, b in p._planes]
        for j in range(k):
            head = data.draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
            u = (*head, data.draw(st.integers(-3, 3).filter(bool)), *[0] * (k - 1 - j))
            planes.append((u, n * max(dot(u, v) for v in p._corners)))
        assert geometry._line_scan(planes, *p.box(n))(1) == box_scan_runs(p, n)  # the plan of nQ, walked at 1

    def test_leaves_no_reference_cycles(self):
        # cycles would hold each scan's point list until the collector runs
        polytopes = [cube(3), LatticePolytope(LOWER_DIMENSIONAL["triangle in Z^4"])]
        gc.disable()
        try:
            gc.collect()
            for p in polytopes:
                p.integer_points(2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", LOWER_DIMENSIONAL)
    def test_lower_dimensional_contains_matches_lp(self, name):
        p = LatticePolytope(LOWER_DIMENSIONAL[name])
        first, last = p.vertices[0], p.vertices[-1]
        probes = [tuple(Fraction(3 * a - b, 2) for a, b in zip(first, last))]  # on the hull, outside P
        for x in p.integer_points(2):
            half = tuple(Fraction(c, 2) for c in x)
            probes.append(half)
            probes += [half[:j] + (half[j] + Fraction(1, 2),) + half[j + 1 :] for j in range(p.dim)]
        for q in probes:
            assert p.contains(q) == lp_contains(p, q), q


def counted_plans(monkeypatch) -> list[list[int]]:
    """Wrap `geometry._line_scan` for the rest of a test: one list for each plan built
    from then on, of the n it is walked at, in order."""
    plans, build = [], geometry._line_scan

    def line_scan(*args):
        walk, ns = build(*args), []
        plans.append(ns)

        def counted(n):
            ns.append(n)
            return walk(n)

        return counted

    monkeypatch.setattr(geometry, "_line_scan", line_scan)
    return plans


class TestScanPlan:
    """A polytope builds its scan plan once, at scale 1 and after the cap check of its
    first scan, and walks it at every n."""

    @given(st.one_of(lattice_clouds(max_dim=6), solid_clouds(max_dim=6)), st.permutations([0, 1, 1, 2, 3, 2, 0]))
    @settings(max_examples=100, deadline=None)
    def test_walks_match_fresh_scans(self, pts, ns):
        # a point, lower-dimensional and full-dimensional polytopes in d <= 6, walked
        # at shuffled n with 0 and repeats: each walk is a fresh polytope's first scan
        p = hull(pts)
        for n in [n for n in ns if geometry.box_count(*p.box(n)) <= 4000]:
            assert p.line_runs(n) == box_scan_runs(p, n) == hull(pts).line_runs(n)

    def test_one_plan_per_polytope(self, monkeypatch, capsys):
        plans = counted_plans(monkeypatch)
        reports = check_equality_range(LatticePolytope(sigma(5, 2).vertices), range(1, 6))
        assert [r.holds for r in reports] == [True, True, False, False, False]  # no stop: every n is scanned
        assert plans == [[1, 2, 3, 4, 5]]
        plans.clear()
        assert main(["points", "sigma-5-2", "1"]) == 0
        assert plans == [[1]]

    def test_cap_acts_before_the_plan(self, monkeypatch):
        # sigma(4, 2) is scanned in four coordinates, with its shadow
        plans, walked = counted_plans(monkeypatch), LatticePolytope(sigma(4, 2).vertices)
        cap = walked.box_size(3) - 1
        walked.line_runs(1)
        with pytest.raises(ResourceLimitError):
            walked.line_runs(3, cap)
        assert plans == [[1]]
        fresh = LatticePolytope(sigma(4, 2).vertices)
        with pytest.raises(ResourceLimitError):
            fresh.line_runs(3, cap)
        assert plans == [[1]] and "_walk" not in vars(fresh) and "_shadow" not in vars(fresh)


def scan_calls(p: LatticePolytope, n: int) -> list[tuple[int, int, int]]:
    """(j, lo, hi) of each call of `_line_scan`'s inner `scan` for nP, read by a profile
    hook: the scan entered the prefix y_0..y_{j-1}, and lo..hi is y_j's interval there."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "scan":
            calls.append((frame.f_locals["j"], frame.f_locals["lo"], frame.f_locals["hi"]))

    sys.setprofile(profile)
    try:
        p.line_runs(n)
    finally:
        sys.setprofile(None)
    return calls


def lines_examined(p: LatticePolytope, n: int, j: int | None = None) -> int:
    """The prefixes y_0..y_{j-1} (j >= 1) whose interval at coordinate j `_line_scan`
    computes for nP (the lines at the last coordinate, the default): one for each value
    y_{j-1} takes in a prefix entered at j - 1."""
    j = p.affine_dim - 1 if j is None else j
    return sum(hi - lo + 1 for i, lo, hi in scan_calls(p, n) if i == j - 1)


class TestShadow:
    """`LatticePolytope._shadow`, planes of last coefficient 0 that with the vertical
    facets cut out the projection of the scanned polytope Q along its last coordinate,
    against the facets of the hull of Q's projected vertices, and the lines and
    prefixes the scan then examines."""

    @staticmethod
    def check(p: LatticePolytope) -> None:
        projected = [v[:-1] for v in p._corners]
        assert all(len(a) == p.affine_dim and not a[-1] for a, _ in p._shadow)
        vertical = [(a, b) for a, b in p._planes if not a[-1]]
        planes = {(tuple(a[:-1]), b) for a, b in [*p._shadow, *vertical]}
        assert set(LatticePolytope(projected).facets) <= planes
        assert all(dot(a, y) <= b for a, b in planes for y in projected)

    @given(st.one_of(solid_clouds(), lattice_clouds(max_dim=5, min_dim=3)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_projected_hull(self, pts):
        p = hull(pts)
        assume(p.affine_dim >= 3)
        self.check(p)

    @given(solid_clouds(min_dim=4, k=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_projected_hull_in_the_frame(self, pts):
        # 3-dimensional polytopes in Z^4 and Z^5: the shadow is in the lattice frame's coordinates
        p = hull(pts)
        assume(p.affine_dim == 3)
        self.check(p)

    @pytest.mark.parametrize("name", [name for name, pts in ZERO_LAST_COEFFICIENT.items() if len(pts[0]) >= 3])
    def test_vertical_facets(self, name):
        # a vertical facet cuts its own coordinate as a facet: the shadow holds no copy of it
        p = LatticePolytope(ZERO_LAST_COEFFICIENT[name])
        self.check(p)
        vertical = {(a, b) for a, b in p.facets if not a[-1]}
        assert vertical and not vertical & set(p._shadow)

    @given(solid_clouds(), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_runs_match_a_scan_of_every_line(self, pts, n):
        # a line through a prefix outside the shadow holds no point, so no run is lost
        p = hull(pts)
        assume(p.affine_dim >= 3 and box_size(p, n) <= 20000)
        assert p.line_runs(n) == box_scan_runs(p, n)

    def test_lines_examined(self):
        # the box of 3 * sigma(5, 2) has 7^4 = 2,401 lines; 56 prefixes are in its shadow
        p = LatticePolytope(sigma(5, 2).vertices)
        assert lines_examined(p, 3) == 56
        assert len(LatticePolytope([tuple(3 * x for x in v[:-1]) for v in p.vertices]).integer_points(1)) == 56
        cloud = hull(HULL_CASES["4-D cloud"])
        los, his = cloud.box(1)
        assert (lines_examined(cloud, 1), math.prod(h - l + 1 for l, h in zip(los[:-1], his[:-1]))) == (64, 343)
        # 6 (x, y) in the triangle, times 2 z, of the box's 18 prefixes
        assert lines_examined(LatticePolytope(ZERO_LAST_COEFFICIENT["triangle times square"]), 1) == 12

    def test_only_nonempty_prefixes_are_entered(self):
        # the 4-D cloud at n = 1: of the box's 7 x 7 (y_0, y_1), the interval at coordinate
        # 2 is computed for 43 and nonempty for 25, and only those 25 are entered (a call
        # per prefix entered all 43); their 64 lines are cut with no call each
        cloud = hull(HULL_CASES["4-D cloud"])
        calls = scan_calls(cloud, 1)
        assert (lines_examined(cloud, 1, 2), sum(j == 2 for j, _, _ in calls), lines_examined(cloud, 1)) == (43, 25, 64)
        assert all(lo <= hi for _, lo, hi in calls) and max(j for j, _, _ in calls) == 2

    def test_vertical_facets_cut_their_own_coordinate(self):
        # the side x + y <= 2n cuts y: at n = 3 the (x, y) of the triangle, 28 of the
        # box's 49, are examined at coordinate 2; the lines, the 28 (x, y) times 4 z, stay 112
        p = LatticePolytope(ZERO_LAST_COEFFICIENT["triangle times square"])
        assert (lines_examined(p, 3, 2), lines_examined(p, 3)) == (28, 112)
        # conv{(0, 0), (3, 1), (1, 3)} x {0, 1}^3 in Z^5 at n = 2: the triangle's three
        # sides cut y, before coordinate k - 2 = 3; 21 of the box's 49 (x, y) times 3 z
        # are examined at coordinate 3, and 189 lines
        p = LatticePolytope([(x, y, *t) for x, y in [(0, 0), (3, 1), (1, 3)] for t in itertools.product((0, 1), repeat=3)])
        assert (lines_examined(p, 2, 3), lines_examined(p, 2)) == (63, 189)

    def test_two_coordinates_examine_every_line(self):
        # a scan of k <= 2 coordinates has no shadow: it examines each line of the box
        for p in (LatticePolytope([(0, 0), (6, 0), (0, 6)]), LatticePolytope(LOWER_DIMENSIONAL["triangle in Z^4"])):
            los, his = p.box(2)
            assert lines_examined(p, 2) == his[0] - los[0] + 1
            assert "_shadow" not in vars(p)


class TestLatticeFrame:
    """A lower-dimensional polytope in its own lattice: the basis B of (aff P - v0) & Z^d,
    and the points it lists against the projection and lift it replaced."""

    @given(lattice_clouds(max_dim=5))
    @settings(max_examples=150, deadline=None)
    def test_basis_is_the_hnf_basis_of_the_lattice(self, pts):
        # echelon with positive pivots and reduced entries above them (so the HNF of
        # its lattice, which is unique), of the hull's direction space, and saturated:
        # its k x k minors have gcd 1
        p = hull(pts)
        if p.is_full_dimensional:
            assert p._basis is None and p._corners == p.vertices
            return
        basis, k = p._basis, p.affine_dim
        pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
        assert len(basis) == k and pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(basis, pivots)):
            assert row[c] > 0 and all(0 <= other[c] < row[c] for other in basis[:i])
        assert conftest.rank(list(basis) + edge_rows(p.vertices)) == k == affine_rank(pts)
        minors = [linalg.det_int([[row[c] for c in cs] for row in basis]) for cs in itertools.combinations(range(p.dim), k)]
        assert math.gcd(*minors) == 1
        for v, y in zip(p.vertices, p._corners):
            assert tuple(a + sum(t * row[j] for t, row in zip(y, basis)) for j, a in enumerate(p.vertices[0])) == v

    @given(lattice_clouds(max_dim=5, max_directions=4), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_projection_and_lift(self, pts, n):
        # the same points in the same order: the frame's map keeps the scan's lex order
        p = hull(pts)
        assume(not p.is_full_dimensional and box_size(p, n) <= 3000)
        assert p.integer_points(n).points == conftest.projection_lift_points(p, n)

    @pytest.mark.parametrize("name", [*LOWER_DIMENSIONAL, "skew triangle"])
    def test_named_polytopes_match_the_projection_and_lift(self, name):
        p = LatticePolytope({**LOWER_DIMENSIONAL, "skew triangle": [(0, 0, 0), (40, 0, -1), (0, 40, -1)]}[name])
        for n in range(4):
            assert p.integer_points(n).points == conftest.projection_lift_points(p, n)

    def test_the_skew_triangle(self):
        p = LatticePolytope(SKEW_TRIANGLE)
        assert p._basis == [[1, 999, -1], [0, 1000, -1]]
        assert p._corners == ((0, 0), (0, 1), (1000, -999))
        assert p.contains((500, 500, -1)) and not p.contains((500, 501, -1))
        assert p.contains((Fraction(1, 2), Fraction(1, 2), Fraction(-1, 1000)))
        assert not p.contains((Fraction(1, 2), Fraction(1, 2), Fraction(-1, 999)))

    @given(lattice_clouds(max_dim=5), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_box_size_is_the_smaller_box(self, pts, n):
        # the frame's box, or the projection's box the cap bounded before it if that
        # is smaller: a cap never fires where it did not, and both bound the points
        p = hull(pts)
        frame = math.prod(h - l + 1 for l, h in zip(*p.box(n)))
        size = p.box_size(n)
        assert size == min(frame, conftest.projection_box_count(p, n))
        assume(size <= 3000)
        assert len(p.integer_points(n)) <= size

    def test_the_thin_triangle(self):
        # Q = conv{(0, 0), (999, -998), (1000, -999)} is unimodular, but its box at
        # n = 11 has 11,001 x 10,990 points, over DEFAULT_BOX_CAP; nP's box on (x, y)
        # has 11,001 x 12
        p = LatticePolytope(THIN_TRIANGLE)
        assert p._basis == [[1, 999, -1], [0, 1000, -1]]
        assert p._corners == ((0, 0), (999, -998), (1000, -999))
        assert math.prod(h - l + 1 for l, h in zip(*p.box(11))) == 11001 * 10990 > geometry.DEFAULT_BOX_CAP
        assert p.box_size(11) == 11001 * 12
        assert len(p.integer_points(11)) == 78 == 12 * 13 // 2
        with pytest.raises(ResourceLimitError, match="bounding box has 132012 candidate points, cap is 132011"):
            p.integer_points(11, cap=11001 * 12 - 1)

    @pytest.mark.parametrize("name", LOWER_DIMENSIONAL)
    def test_zero_frame_determinant_is_an_internal_inconsistency(self, name):
        with mock.patch.object(linalg, "adjugate", lambda rows: (0, None)):
            with pytest.raises(RuntimeError, match="internal inconsistency"):
                LatticePolytope(LOWER_DIMENSIONAL[name])


def invariance_case(seed: int):
    """A seeded cloud in Z^k (1 <= k <= 4; 2-6 points in [-2, 2]^k, so some are
    lower-dimensional) and an affine map y -> U[:, :k] y + t into Z^d, k <= d <= 4,
    U in GL(d, Z): the first k columns of U span a saturated sublattice, so the map
    is a unimodular map of Z^k onto the lattice points of its image."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    d = rng.randint(k, 4)
    cloud = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(2, 6))]
    u, t = unimodular(rng, d), tuple(rng.randint(-3, 3) for _ in range(d))
    assert abs(linalg.det_int(u)) == 1
    return cloud, [row[:k] for row in u], t, [row[k] for row in u] if k < d else None


class TestUnimodularInvariance:
    """Every answer is invariant under a unimodular affine map: P and its image under
    y -> U[:, :k] y + t agree on the affine dimension, the vertices, nP's lattice
    points for n = 0..3 (each the image of one of P's), membership of the images of
    rational points in and out of P, and for a full-dimensional image of a
    full-dimensional P, the facet count and the volume. No oracle: P is scanned in
    its own coordinates and the image, a skewed or lower-dimensional one, in its own
    lattice frame."""

    @pytest.mark.parametrize("seed", range(120))
    def test_image_agrees(self, seed):
        cloud, columns, t, off = invariance_case(seed)
        p = hull(cloud)

        def image(y, n=1):
            return tuple(n * c + dot(row, y) for row, c in zip(columns, t))

        q = hull(map(image, cloud))
        assert (q.dim, q.affine_dim) == (len(t), p.affine_dim)
        assert q.vertices == tuple(sorted(map(image, p.vertices)))
        for n in range(4):
            assert set(q.integer_points(n)) == {image(y, n) for y in p.integer_points(n)}
        centroid = [Fraction(sum(c), len(p.vertices)) for c in zip(*p.vertices)]
        probes = [centroid] + [[(a + b) / 2 for a, b in zip(v, centroid)] for v in p.vertices]
        probes += [[2 * a - b for a, b in zip(v, centroid)] for v in p.vertices]  # outside unless P is a point
        rng = random.Random(seed)
        probes += [[Fraction(rng.randint(-9, 9), 4) for _ in centroid] for _ in range(4)]
        for y in probes:
            assert q.contains(image(y)) == p.contains(y)
            if off is not None:  # off the image's affine hull
                assert not q.contains(tuple(a + Fraction(b, 2) for a, b in zip(image(y), off)))
        if q.is_full_dimensional and p.is_full_dimensional:
            assert (len(q.facets), q.volume()) == (len(p.facets), p.volume())


# Ehrhart cases: "plane in Z^3" lies on x + y = 2z, so half of the points of
# its projection on (x, y) are off its lattice; "sigma(3,2) in Z^4" is sigma(3, 2) on
# x4 = x1 + x2 + x3.
EHRHART_FULL = {
    "unit triangle": [(0, 0), (1, 0), (0, 1)],
    "cross-2d": list(cross_polytope(2).vertices),
    "skew quadrilateral": [(0, 0), (3, 1), (1, 2), (-1, 1)],
    "sigma(3,2)": list(sigma(3, 2).vertices),
    "sigma(3,3)": list(sigma(3, 3).vertices),
    "cross-3d": list(cross_polytope(3).vertices),
    **ZERO_LAST_COEFFICIENT,
}
EHRHART_LOWER = {
    **LOWER_DIMENSIONAL,
    "plane in Z^3": [(0, 0, 0), (2, 0, 1), (0, 2, 1), (2, 2, 2)],
    "square in Z^4": [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)],
    "sigma(3,2) in Z^4": [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (-1, -1, 2, 0)],
}


class TestEhrhart:
    """integer_points, volume and strict membership against the Ehrhart polynomial
    interpolated from box scans at n = 0..dim P (Ehrhart 1962; Macdonald 1971;
    Beck and Robins, *Computing the Continuous Discretely*, Ch. 3-4)."""

    @pytest.mark.parametrize("name", [*EHRHART_FULL, *EHRHART_LOWER])
    def test_counts_at_larger_dilations(self, name):
        p = LatticePolytope({**EHRHART_FULL, **EHRHART_LOWER}[name])
        coeffs = ehrhart_polynomial(p)
        for n in (*range(p.affine_dim + 1, p.affine_dim + 4), 12):
            assert len(p.integer_points(n)) == ehrhart_value(coeffs, n), n

    @given(lattice_clouds(max_dim=3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_counts_on_clouds(self, pts, extra):
        p = hull(pts)
        n = p.affine_dim + extra
        assume(box_size(p, n) <= 3000)
        assert len(p.integer_points(n)) == ehrhart_value(ehrhart_polynomial(p), n)

    @pytest.mark.parametrize("name", EHRHART_FULL)
    def test_leading_coefficient_is_the_volume(self, name):
        p = LatticePolytope(EHRHART_FULL[name])
        assert ehrhart_polynomial(p)[-1] == p.volume()

    @pytest.mark.parametrize("name", EHRHART_FULL)
    def test_reciprocity_counts_interior_points(self, name):
        # Ehrhart-Macdonald reciprocity: (-1)^d L_P(-n) is the number of
        # integer points x with x / n in the interior of P
        p = LatticePolytope(EHRHART_FULL[name])
        coeffs = ehrhart_polynomial(p)
        for n in (1, 2):
            interior = [x for x in p.integer_points(n) if p.contains([Fraction(c, n) for c in x], strict=True)]
            assert (-1) ** p.dim * ehrhart_value(coeffs, -n) == len(interior), n


def boundary_lattice_point_count(poly: LatticePolytope) -> int:
    pts = poly.integer_points(1)
    return sum(1 for p in pts if not poly.contains(p, strict=True))


class TestVolume:
    def test_unit_cube(self):
        assert cube(3).volume() == 1

    def test_unit_triangle(self, unit_triangle):
        assert unit_triangle.volume() == Fraction(1, 2)

    def test_sigma_family(self):
        assert LatticePolytope(sigma(3, 2).vertices).volume() == Fraction(1, 3)
        assert LatticePolytope(sigma(4, 3).vertices).volume() == Fraction(3, 24)

    def test_cross_polytope(self):
        assert cross_polytope(2).volume() == 2
        assert cross_polytope(3).volume() == Fraction(4, 3)

    def test_requires_full_dimension(self):
        with pytest.raises(ValueError):
            LatticePolytope([(0, 0), (1, 1)]).volume()

    def test_fan_simplices_partition_volume(self):
        for poly in (cube(3), cross_polytope(3), cube(2, -1, 1)):
            total = sum(LatticeSimplex(s).volume() for s in recursive_fan_simplices(poly))
            assert total == poly.volume()

    @given(st.one_of(lattice_clouds(), midpoint_clouds()))
    @settings(max_examples=60, deadline=None)
    def test_fan_simplices_triangulate(self, pts):
        p = hull(pts)
        assume(p.is_full_dimensional)
        fan = p.fan_simplices()
        assert all(p.vertices[0] in s for s in fan)
        tri = Triangulation(p, tuple(map(LatticeSimplex, fan)))
        report = validate_triangulation(tri)
        assert report.valid and report.covered_volume == p.volume()
        if len(fan) <= 6:  # the pairwise oracle runs an LP per overlapping pair
            assert report == pairwise_validate_triangulation(tri)

    def test_fan_corner_off_the_vertices(self):
        # (1, 3) lies on the edge from (0, 3) to (2, 3), a start-simplex corner of the
        # hull's boundary; the cones skip the faces on that edge, which holds the apex
        p = hull([(0, 3), (1, 3), (2, 3), (3, 2), (4, 0)])
        assert p.vertices == ((0, 3), (2, 3), (3, 2), (4, 0))
        assert {c for face, _ in p._faces for c in face} - set(p.vertices) == {(1, 3)}
        assert p.fan_simplices() == (((0, 3), (2, 3), (3, 2)), ((0, 3), (3, 2), (4, 0)))
        assert p.volume() == Fraction(7, 2)
        # (2, 1, 1), the midpoint of the edge from (2, 0, 0) to (2, 2, 2), is a corner of both cones
        p = hull([(0, 2, 2), (2, 0, 0), (2, 1, 1), (2, 2, 2), (3, 1, 2)])
        assert p.vertices == ((0, 2, 2), (2, 0, 0), (2, 2, 2), (3, 1, 2))
        assert p.fan_simplices() == (
            ((0, 2, 2), (2, 0, 0), (2, 1, 1), (3, 1, 2)),
            ((0, 2, 2), (2, 1, 1), (2, 2, 2), (3, 1, 2)),
        )
        assert p.volume() == Fraction(2, 3)
        assert hull([(0,), (2,), (1,), (5,)]).fan_simplices() == (((0,), (5,)),)

    def test_no_polytope_built(self, monkeypatch):
        # a return of the recursive fan would build a polytope per facet
        polys = [cube(4), cross_polytope(4), LatticePolytope(sigma(4, 3).vertices)]
        built = []
        init = LatticePolytope.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LatticePolytope, "__init__", counting)
        for poly in polys:
            poly.fan_simplices()
            poly.volume()
        assert built == []

    @given(points_2d)
    @settings(max_examples=80, deadline=None)
    def test_picks_formula_in_the_plane(self, pts):
        # independent oracle: area = interior points + boundary points / 2 - 1
        p = hull(pts)
        if not p.is_full_dimensional:
            return
        all_points = len(p.integer_points(1))
        boundary = boundary_lattice_point_count(p)
        interior = all_points - boundary
        assert p.volume() == interior + Fraction(boundary, 2) - 1

    @given(points_3d, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_scales_with_dilation(self, pts, n):
        p = hull(pts)
        if not p.is_full_dimensional:
            return
        assert p.dilate(n).volume() == n**p.dim * p.volume()


class TestDilate:
    def test_scales_vertices(self, unit_triangle):
        assert unit_triangle.dilate(3).vertices == ((0, 0), (0, 3), (3, 0))

    def test_zero_collapses(self, unit_triangle):
        assert unit_triangle.dilate(0).vertices == ((0, 0),)


class TestConstructors:
    def test_cube_2d(self):
        assert cube(2).vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_symmetric_cube(self):
        assert cube(2, -1, 1).vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))

    def test_cross_polytope_vertex_count(self):
        assert len(cross_polytope(3).vertices) == 6

    def test_affine_dim(self):
        assert LatticePolytope([(0, 0), (1, 0), (0, 1)]).affine_dim == 2
        assert LatticePolytope([(0, 0), (2, 2)]).affine_dim == 1
        assert LatticePolytope([(5, 5)]).affine_dim == 0
