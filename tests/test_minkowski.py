import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmink import (
    LatticePolytope,
    LatticeSimplex,
    PointSet,
    ResourceLimitError,
    Triangulation,
    check_equality,
    check_equality_range,
    cross_polytope,
    cube,
    decompose,
    generates_zd,
    hull,
    minkowski_power,
    minkowski_sum,
    search_primitive_triangulation,
    sigma,
    validate_triangulation,
)
from latmink import geometry
from latmink.geometry import dot
from latmink.minkowski import _equality_reports
from latmink.triangulation import DEFAULT_POINT_CAP
from latmink.verify import orthant_fan, symmetric_example_polytope

from conftest import (
    brute_force_integer_points,
    folded_minkowski_power,
    is_n_fold_sum,
    per_point_equality_reports,
    rank,
    unimodular,
)

small_sets_1d = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(
    lambda xs: PointSet([(x,) for x in xs])
)
small_sets_2d = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5
).map(PointSet)


class TestMinkowskiSum:
    def test_segments(self):
        a = PointSet([(0,), (1,)])
        assert minkowski_sum(a, a).points == ((0,), (1,), (2,))

    def test_zero_is_neutral(self):
        a = PointSet([(2, 1), (-1, 3)])
        zero = PointSet([(0, 0)])
        assert minkowski_sum(a, zero) == a

    def test_sigma_3_2_vertex_sum_misses_e3(self):
        verts = PointSet(sigma(3, 2).vertices, 3)
        total = minkowski_sum(verts, verts)
        assert len(total) == 10
        assert (0, 0, 1) not in total

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(PointSet([(0,)]), PointSet([(0, 0)]))

    @given(small_sets_2d, small_sets_2d)
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_enumeration(self, a, b):
        expected = sorted(
            {(p[0] + q[0], p[1] + q[1]) for p in a.points for q in b.points}
        )
        assert list(minkowski_sum(a, b).points) == expected


class TestMinkowskiPower:
    def test_symmetric_segment(self):
        s = PointSet([(-1,), (0,), (1,)])
        assert minkowski_power(s, 3).points == tuple((k,) for k in range(-3, 4))

    def test_zero_power_is_origin(self):
        s = PointSet([(5, 5)])
        assert minkowski_power(s, 0).points == ((0, 0),)

    def test_symmetric_example_misses_witness(self):
        omega = symmetric_example_polytope().integer_points(1)
        assert len(omega) == 9
        assert (-1, -1, 1) not in minkowski_power(omega, 2)

    def test_unit_simplex_fills_dilations(self):
        # vertex sums against the independent dilation enumeration
        for d in (1, 2, 3):
            simplex = hull([(0,) * d] + [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)])
            verts = PointSet(simplex.vertices, d)
            for n in range(1, 5):
                assert minkowski_power(verts, n) == simplex.integer_points(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            minkowski_power(PointSet([(0,)]), -1)

    def test_cap_bounds_the_box_of_the_sum(self, monkeypatch):
        # 3 * {(0, 0), (2, 1)} spans the box [0, 6] x [0, 3] of 28 points.
        s = PointSet([(0, 0), (2, 1)])
        assert len(minkowski_power(s, 3, cap=28)) == 4
        with pytest.raises(ResourceLimitError, match="bounding box has 28 candidate points, cap is 27"):
            minkowski_power(s, 3, cap=27)
        monkeypatch.setattr(geometry, "DEFAULT_BOX_CAP", 27)
        with pytest.raises(ResourceLimitError, match="cap is 27"):
            minkowski_power(s, 3)

    @given(st.data(), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_folded_sums_away_from_origin(self, data, d, n):
        # The engine translates by the lex-least point; the oracle does not.
        point = st.tuples(*[st.integers(1, 3)] * d)
        s = PointSet(data.draw(st.lists(point, min_size=1, max_size=5)), d)
        assert (0,) * d not in s
        assert minkowski_power(s, n) == folded_minkowski_power(s, n)

    @given(small_sets_2d, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_folded_sums(self, s, n):
        assert minkowski_power(s, n) == folded_minkowski_power(s, n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_empty_set(self, n):
        empty = PointSet([], 2)
        assert minkowski_power(empty, n) == folded_minkowski_power(empty, n)
        assert len(minkowski_power(empty, n)) == (1 if n == 0 else 0)

    @given(small_sets_2d, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_scaled_copies_are_contained(self, s, n):
        power = minkowski_power(s, n)
        for p in s.points:
            assert tuple(n * c for c in p) in power

    @given(small_sets_2d, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_contained_in_dilation(self, s, n):
        poly = hull(s.points)
        assert minkowski_power(s, n).issubset(poly.integer_points(n))

    @given(small_sets_2d, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_when_zero_present(self, s, n):
        with_zero = PointSet(list(s.points) + [(0, 0)])
        assert minkowski_power(with_zero, n).issubset(minkowski_power(with_zero, n + 1))


class TestCheckEquality:
    def test_thin_triangle_within_the_default_cap(self):
        # the box of 11 Q in the lattice frame has 11,001 x 10,990 points, over
        # DEFAULT_BOX_CAP; the cap bounds nP's box on (x, y), 11,001 x 12 points
        p = LatticePolytope([(0, 0, 0), (1000, 0, -1), (999, 1, -1)])
        reports = check_equality_range(p, range(1, 12))
        assert [r.n for r in reports] == list(range(1, 12)) and all(r.holds for r in reports)

    def test_sigma_3_2(self):
        p = LatticePolytope(sigma(3, 2).vertices)
        assert check_equality(p, 1).holds
        report = check_equality(p, 2)
        assert not report.holds
        assert report.witness == (0, 0, 1)

    def test_sigma_5_2_delayed(self):
        p = LatticePolytope(sigma(5, 2).vertices)
        assert [check_equality(p, n).holds for n in (1, 2, 3)] == [True, True, False]

    def test_witness_is_lex_least(self):
        p = LatticePolytope(sigma(3, 2).vertices)
        report = check_equality(p, 2)
        full = p.integer_points(2)
        ball = minkowski_power(p.integer_points(1), 2)
        missing = sorted(set(full.points) - set(ball.points))
        assert report.witness == missing[0]

    def test_small_polygons_always_hold(self):
        for pts in [
            [(0, 0), (2, 0), (0, 3)],
            [(-1, -1), (2, 0), (0, 2), (1, -1)],
            [(0, 0), (3, 1), (1, 3)],
        ]:
            p = hull(pts)
            for n in range(1, 6):
                assert check_equality(p, n).holds

    def test_rejects_n_zero(self, unit_square):
        with pytest.raises(ValueError):
            check_equality(unit_square, 0)
        with pytest.raises(ValueError):
            check_equality_range(unit_square, range(0, 2))

    @given(
        st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=6),
        st.integers(1, 2),
        st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_matches_folded_sums(self, pts, lo, extra):
        poly = hull(pts)
        omega = poly.integer_points(1)
        reports = check_equality_range(poly, range(lo, lo + extra + 1))
        assert [r.n for r in reports] == list(range(lo, lo + extra + 1))
        for r in reports:
            power = folded_minkowski_power(omega, r.n)
            missing = [p for p in poly.integer_points(r.n) if p not in power]
            assert r.holds == (not missing)
            assert r.witness == (missing[0] if missing else None)
            assert r == check_equality(poly, r.n)

    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=7),
        st.integers(1, 3),
        st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_polygon_reports_match_folded_sums(self, pts, lo, extra):
        # the coded lookup code(p) - code(n * t) against tuple sums, with
        # negative coordinates, segments and points among the polygons
        poly = hull(pts)
        omega = poly.integer_points(1)
        for r in check_equality_range(poly, range(lo, lo + extra + 1)):
            power = folded_minkowski_power(omega, r.n)
            missing = [p for p in poly.integer_points(r.n) if p not in power]
            assert r.holds == (not missing)
            assert r.witness == (missing[0] if missing else None)

    def test_box_cap_checked_before_the_ball(self, monkeypatch, unit_square):
        from latmink import minkowski

        layers = []
        real = minkowski.BallCodec.layers

        def counted(*args, **kwargs):
            for n, ball, layer in real(*args, **kwargs):
                layers.append(n)
                yield n, ball, layer

        monkeypatch.setattr(minkowski.BallCodec, "layers", counted)
        with pytest.raises(ResourceLimitError, match="^bounding box has 90601 candidate points, cap is 100$"):
            check_equality_range(unit_square, range(300, 301), cap=100)
        assert len(layers) <= 1

    def test_range_stops_at_the_first_box_over_the_cap(self, unit_square):
        # boxes grow with n: (n + 1)^2 first exceeds 100 at n = 10
        with pytest.raises(ResourceLimitError, match="^bounding box has 121 candidate points, cap is 100$"):
            check_equality_range(unit_square, range(1, 301), cap=100)
        assert [r.n for r in check_equality_range(unit_square, range(5, 0, -2), cap=100)] == [1, 3, 5]

    def test_nothing_is_scanned_before_the_box_over_the_cap(self, monkeypatch, unit_square):
        # check_equality_range checks box_size(1) and bisects the range before any scan
        scans, real = [], LatticePolytope.line_runs

        def counted(self, n, cap=None):
            scans.append(n)
            return real(self, n, cap)

        monkeypatch.setattr(LatticePolytope, "line_runs", counted)
        with pytest.raises(ResourceLimitError, match="^bounding box has 121 candidate points, cap is 100$"):
            check_equality_range(unit_square, range(1, 301), cap=100)
        assert scans == []

    def test_a_point_never_meets_the_box_cap(self):
        point = LatticePolytope([(2, -1)])
        assert [r.holds for r in check_equality_range(point, range(1, 10**4, 10**3), cap=1)] == [True] * 10

    def test_range_sigma_5_2(self):
        p = LatticePolytope(sigma(5, 2).vertices)
        reports = check_equality_range(p, range(1, 4))
        assert [r.holds for r in reports] == [True, True, False]
        assert check_equality_range(p, range(2, 2)) == []

    def test_omega_is_the_scan_at_n_1(self, monkeypatch):
        # P is scanned once, for Omega, and read again at n = 1: one line scan per n
        p = LatticePolytope(sigma(5, 2).vertices)
        omega = p.integer_points(1)
        scans, real = [], LatticePolytope.line_runs

        def counted(self, n, cap=None):
            scans.append(n)
            return real(self, n, cap)

        monkeypatch.setattr(LatticePolytope, "line_runs", counted)
        reports = check_equality_range(p, range(1, 4))
        assert scans == [1, 2, 3]
        for r in reports:
            power = folded_minkowski_power(omega, r.n)
            missing = [x for x in p.integer_points(r.n) if x not in power]
            assert (r.holds, r.witness) == (not missing, missing[0] if missing else None)
        assert [r.holds for r in reports] == [True, True, False]


def seeded_polytope(seed: int) -> LatticePolytope:
    """A seeded polytope of one of three kinds, by seed % 3: a point in Z^1..Z^3;
    a full-dimensional cloud (3-7 points in [0, 2]^d) in Z^2 or Z^3; or such a
    cloud in Z^1..Z^3 mapped into Z^d, d one to two more, by v + yM for an
    integer M of full row rank (entries in [-2, 2]), so lower-dimensional."""
    rng = random.Random(seed)
    kind, k = seed % 3, rng.randint(1, 3)
    if kind == 0:
        return LatticePolytope([tuple(rng.randint(-3, 3) for _ in range(k))])
    if kind == 1:
        k = max(k, 2)  # full-dimensional in Z^2 or Z^3
    cloud = [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(rng.randint(3, 7))]
    if kind == 1:
        return hull(cloud)
    d = k + rng.randint(1, 2)
    matrix = [[0] * d]
    while rank(matrix) < k:
        matrix = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)]
    v = tuple(rng.randint(-3, 3) for _ in range(d))
    return hull(tuple(c + dot(y, col) for c, col in zip(v, zip(*matrix))) for y in cloud)


# 3-D polytopes P' in Z^3 and their verdicts over n = 1..3: the unit simplex with
# (1, 1, 1), the unit cube, and the Reeve tetrahedron of height 2, which has no
# lattice point but its vertices and fails at n = 2.
FRAME_SOLIDS = {
    "simplex-and-111": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [True, True, True]),
    "unit-cube": (list(itertools.product((0, 1), repeat=3)), [True, True, True]),
    "reeve-2": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)], [True, False, False]),
}


def frame_image(d: int):
    """The map (n, ys) -> the sorted points nv + yM, M the first three rows of a seeded U
    in GL(d, Z) and v in [-3, 3]^d. M's rows extend to a basis of Z^d, so for P' in Z^3
    and P = v + P'M, nP & Z^d is the image of nP' & Z^3."""
    rng = random.Random(d)
    matrix, v = unimodular(rng, d)[:3], tuple(rng.randint(-3, 3) for _ in range(d))
    return lambda n, ys: sorted(tuple(n * c + dot(y, col) for c, col in zip(v, zip(*matrix))) for y in ys)


class TestEqualityByLines:
    """check_equality_range tests each run of nQ, Q the polytope in its own lattice, as
    one range of codes; the per-point form it replaced builds, encodes and looks up
    every point of nP."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("name", FRAME_SOLIDS)
    def test_frame_matches_an_oracle_with_no_codec(self, name, d):
        # _equality_reports over 1..3 on P in Z^3 (full-dimensional), Z^4 and Z^5 against
        # LP membership on the box of nP' and tuple sums, mapped into Z^d: no codec, no
        # line scan and no lattice frame of the library's
        cloud, holds = FRAME_SOLIDS[name]
        image, solid = frame_image(d), hull(cloud)
        poly = hull(image(1, cloud))
        omega = PointSet(image(1, brute_force_integer_points(solid, 1).points))
        assert (poly.affine_dim, poly.integer_points(1)) == (3, omega)
        reports = list(_equality_reports(poly, range(1, 4)))
        for r in reports:
            sums = folded_minkowski_power(omega, r.n)
            missing = [x for x in image(r.n, brute_force_integer_points(solid, r.n).points) if x not in sums]
            assert (r.holds, r.witness) == (not missing, missing[0] if missing else None)
        assert [r.holds for r in reports] == holds

    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(0, 5))
    @settings(max_examples=90, deadline=None)
    def test_matches_the_per_point_form(self, seed, lo, extra):
        poly = seeded_polytope(seed)
        ns = range(lo, min(lo + extra, 6) + 1)
        assert check_equality_range(poly, ns) == per_point_equality_reports(poly, ns)

    def test_first_seeds(self):
        # seeds 0..299: each kind, and full- and lower-dimensional polytopes that fail
        kinds = Counter()
        for seed in range(300):
            poly = seeded_polytope(seed)
            reports = check_equality_range(poly, range(1, 5))
            assert reports == per_point_equality_reports(poly, range(1, 5))
            kinds[poly.affine_dim == 0, poly.is_full_dimensional, all(r.holds for r in reports)] += 1
        assert kinds == {(True, False, True): 103, (False, True, True): 81, (False, True, False): 5,
                         (False, False, True): 106, (False, False, False): 5}

    @pytest.mark.parametrize(
        "vertices",
        [sigma(5, 2).vertices, [(0, 0, 0), (40, 0, -1), (0, 40, -1)], [(0, 0), (2, 0), (3, 1), (3, 3), (1, 3), (0, 2)]],
        ids=["sigma-5-2", "skew-triangle", "hexagon"],
    )
    def test_no_point_of_a_dilation_is_built_past_n_1(self, monkeypatch, vertices):
        # the scan of Omega lists its points in Q's frame; at n >= 2 only the runs' first
        # points are encoded, and a failing n decodes and lifts its witness alone; a
        # polygon (k <= 2) is answered with no scan at all
        p = LatticePolytope(vertices)
        expected, omega = per_point_equality_reports(p, range(1, 5)), p.integer_points(1)
        built, real = [], geometry.run_points

        def counted(runs):
            points = real(runs)
            built.append(len(points))
            return points

        monkeypatch.setattr(geometry, "run_points", counted)
        assert check_equality_range(p, range(1, 5)) == expected
        assert built == ([len(omega)] if p.affine_dim >= 3 else [])

    def test_one_point_stays_one_point(self):
        point = LatticePolytope([(2, -1, 5)])
        assert check_equality_range(point, range(1, 7)) == per_point_equality_reports(point, range(1, 7))


HEXAGON = [(0, 0), (2, 0), (3, 1), (3, 3), (1, 3), (0, 2)]
SKEW_TRIANGLE = [(0, 0, 0), (40, 0, -1), (0, 40, -1)]


def differential_polytope(seed: int) -> LatticePolytope:
    """seeded_polytope(seed) when seed % 5 < 3; else a seeded 4-D cloud (5-8
    points in [0, 1]^4, full- or lower-dimensional), or a segment conv{v, v + w}
    in Z^1..Z^4 with v in [-3, 3]^d and w != 0 in [-3, 3]^d."""
    if seed % 5 < 3:
        return seeded_polytope(seed)
    rng = random.Random(seed)
    if seed % 5 == 3:
        return hull([tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(rng.randint(5, 8))])
    d = rng.randint(1, 4)
    v, w = tuple(rng.randint(-3, 3) for _ in range(d)), (0,) * d
    while not any(w):
        w = tuple(rng.randint(-3, 3) for _ in range(d))
    return hull([v, tuple(map(operator.add, v, w))])


@st.composite
def low_dimensional_polytopes(draw):
    """A point, a segment or a polygon (k <= 2) in Z^2..Z^5: the hull of k+1 to 6 points of
    [-2, 2]^k mapped into Z^d by y -> v + yM, M an integer k x d matrix of rank k with
    entries in [-2, 2] and v in [-3, 3]^d."""
    d, k = draw(st.integers(2, 5)), draw(st.sampled_from([2, 1, 0]))
    cloud = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=k + 1, max_size=6))
    matrix = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=k, max_size=k))
    assume(rank(matrix) == k)
    v = draw(st.tuples(*[st.integers(-3, 3)] * d))
    columns = [[row[j] for row in matrix] for j in range(d)]  # d columns, empty ones when k = 0
    return hull(tuple(c + dot(y, col) for c, col in zip(v, columns)) for y in cloud)


def top_n(poly: LatticePolytope) -> int:
    """The largest n the differential tests compute: 8, or 5 for a 4-D polytope."""
    return 5 if poly.affine_dim == 4 else 8


class TestStopAtTheTheorem:
    """check_equality_range stops at the first holding n >= max(k - 1, 1) and
    fills in the later reports; per_point_equality_reports, the oracle,
    computes every n of a range."""

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 4), st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_matches_every_n_computed(self, seed, lo, count, step):
        # single n up to 8 (count 1), steps 1..3, and empty ranges (count 0)
        poly = differential_polytope(seed)
        ns = range(min(lo, top_n(poly)), top_n(poly) + 1, step)[:count]
        assert check_equality_range(poly, ns) == per_point_equality_reports(poly, ns)

    @given(low_dimensional_polytopes(), st.integers(1, 8), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_k_at_most_2_matches_every_n_computed(self, poly, lo, count, step):
        # a point, a segment or a polygon is answered from n = 1 with no ball; the oracle
        # computes each n of the range
        ns = range(lo, lo + count * step, step)
        assert check_equality_range(poly, ns) == per_point_equality_reports(poly, ns)

    def test_first_seeds_past_k_minus_1(self):
        # seeds 0..99, each at a single n and over a range with step 2 or 3, both
        # starting past max(k - 1, 1), where the first n answers the range or fails
        kinds = Counter()
        for seed in range(100):
            poly = differential_polytope(seed)
            h, top = max(poly.affine_dim - 1, 1), top_n(poly)
            for ns in (range(top, top + 1), range(h + 1, top + 1, 2 + seed % 2)):
                reports = check_equality_range(poly, ns)
                assert reports == per_point_equality_reports(poly, ns)
                kinds[poly.affine_dim, all(r.holds for r in reports)] += 1
        assert kinds == {(0, True): 40, (1, True): 60, (2, True): 48, (3, True): 22, (3, False): 4,
                         (4, True): 24, (4, False): 2}

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_holding_past_k_minus_1_keeps_holding(self, seed):
        # the theorem itself, on the oracle: holding at c >= k - 1 holds at c + 1 and c + 2
        poly = differential_polytope(seed)
        h = max(poly.affine_dim - 1, 1)
        holds = [r.holds for r in per_point_equality_reports(poly, range(1, h + 4))]
        for c in (h, h + 1):
            if holds[c - 1]:
                assert holds[c] and holds[c + 1]

    @pytest.mark.parametrize(
        "vertices, ns, scans, radii",
        [
            # k <= 2: every n holds by the theorem from n = 1, with no scan and no ball
            (HEXAGON, range(1, 26), [], []),
            (HEXAGON, range(25, 26), [], []),
            (HEXAGON, range(25, 31), [], []),
            (SKEW_TRIANGLE, range(3, 10), [], []),
            (cube(3, 0, 2).vertices, range(1, 11), [1, 2], [1, 2]),
            (sigma(5, 2).vertices, range(1, 6), [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
            (sigma(4, 2).vertices, range(1, 7), [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]),
            # a range past max(k - 1, 1) computes its first n: the scan of Omega, then nP
            (sigma(3, 2).vertices, range(4, 5), [1, 4], [4]),
        ],
        ids=["hexagon-1-25", "hexagon-25", "hexagon-25-30", "skew-triangle-3-9", "cube-3-0-2-1-10", "sigma-5-2-1-5", "sigma-4-2-1-6", "sigma-3-2-4"],
    )
    def test_work_pins(self, monkeypatch, vertices, ns, scans, radii):
        # line scans (the scan of Omega at 1) and the radii the one ball stream yields,
        # the ball growing no further than the last of them
        from latmink import minkowski

        p = LatticePolytope(vertices)
        expected = per_point_equality_reports(p, ns)
        scanned, yielded = [], []
        real_runs, real_layers = LatticePolytope.line_runs, minkowski.BallCodec.layers

        def counted_runs(self, n, cap=None):
            scanned.append(n)
            return real_runs(self, n, cap)

        def counted_layers(*args, **kwargs):
            for n, ball, layer in real_layers(*args, **kwargs):
                yielded.append(n)
                yield n, ball, layer

        monkeypatch.setattr(LatticePolytope, "line_runs", counted_runs)
        monkeypatch.setattr(minkowski.BallCodec, "layers", counted_layers)
        assert check_equality_range(p, ns) == expected
        assert (scanned, yielded) == (scans, radii)

    @pytest.mark.parametrize(
        "vertices, ns, computed",
        [(cube(3, 0, 2).vertices, range(1, 11), {2}), (sigma(3, 2).vertices, range(2, 6), {2, 3, 4, 5})],
        ids=["cube-3-0-2-1-10", "sigma-3-2-2-5"],
    )
    def test_guard_runs_on_every_n_computed(self, monkeypatch, vertices, ns, computed):
        # the last run of nQ ends at n times Q's lex-max vertex, a sum: dropping it at
        # one n leaves a sum outside the runs read, which the guard reports if n is
        # computed (at n = 1 the runs are Omega's own, so n starts at 2)
        p, real = LatticePolytope(vertices), LatticePolytope.line_runs
        expected = per_point_equality_reports(p, ns)  # the oracle scans nP too: read it unpatched
        for bad in range(2, ns[-1] + 1):

            def dropped(self, n, cap=None, bad=bad):
                runs = real(self, n, cap)
                return runs[:-1] if n == bad else runs

            monkeypatch.setattr(LatticePolytope, "line_runs", dropped)
            if bad in computed:
                with pytest.raises(RuntimeError, match="sums escaped the dilation"):
                    check_equality_range(p, ns)
            else:
                assert check_equality_range(p, ns) == expected


def equality_case(seed: int):
    """A seeded cloud in Z^2 or Z^3 (4-7 points in [-2, 2]^d) and an affine map
    x -> Ux + t, U in GL(d, Z) a product of +-1 shears, swaps and sign flips."""
    rng = random.Random(seed)
    d = 2 + seed % 2
    cloud = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(4, 7))]
    return cloud, unimodular(rng, d), tuple(rng.randint(-3, 3) for _ in range(d))


class TestUnimodularEquality:
    """check_equality_range over 1..3 on P and on its image UP + t: the same verdicts,
    and each witness w of P maps to Uw + nt, a point of n(UP + t) that the n-fold sum of
    the image's lattice points misses."""

    @pytest.mark.parametrize("seed", range(120))
    def test_image_agrees(self, seed):
        cloud, u, t = equality_case(seed)
        p, q = hull(cloud), hull(tuple(c + dot(row, x) for row, c in zip(u, t)) for x in cloud)
        reports = check_equality_range(p, range(1, 4))
        assert [r.holds for r in check_equality_range(q, range(1, 4))] == [r.holds for r in reports]
        omega = q.integer_points(1)
        for r in reports:
            if not r.holds:
                w = tuple(r.n * c + dot(row, r.witness) for row, c in zip(u, t))
                assert w in q.integer_points(r.n) and w not in minkowski_power(omega, r.n)

    def test_cases_fail_somewhere(self):
        # the seeded clouds in Z^3 are not all normal: 62 verdicts fail, so witnesses are mapped
        verdicts = [r.holds for seed in range(120) for r in check_equality_range(hull(equality_case(seed)[0]), range(1, 4))]
        assert verdicts.count(False) == 62


class TestDecompose:
    def test_square_diagonal_example(self, unit_square):
        tri = Triangulation(
            unit_square,
            (
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
                LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
            ),
        )
        dec = decompose(unit_square, tri, 2, (1, 2))
        assert dec.summands == ((0, 1), (1, 1))

    def test_one_dimensional(self):
        seg = LatticePolytope([(0,), (1,)])
        tri = Triangulation(seg, (LatticeSimplex([(0,), (1,)]),))
        assert decompose(seg, tri, 3, (2,)).summands == ((0,), (1,), (1,))

    def test_cross_polytope_example(self):
        poly = cross_polytope(2)
        dec = decompose(poly, orthant_fan(2), 2, (1, -1))
        assert dec.summands == ((0, -1), (1, 0))

    def test_point_outside_dilation(self, unit_square):
        tri = Triangulation(
            unit_square,
            (
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
                LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
            ),
        )
        with pytest.raises(ValueError):
            decompose(unit_square, tri, 2, (3, 0))

    def test_simplex_vertex_outside_the_polytope_rejected(self, unit_square):
        # the first simplex is unimodular and holds (3, 2)/4, but its vertex (2, 1) is
        # not in P: a decomposition through it would print a false witness
        tri = Triangulation(
            unit_square,
            (
                LatticeSimplex([(0, 0), (1, 1), (2, 1)]),
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
                LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
            ),
        )
        message = "simplex 0 has vertex (2, 1) outside the polytope; invalid triangulation"
        with pytest.raises(ValueError) as info:
            decompose(unit_square, tri, 4, (3, 2))
        assert str(info.value) == message
        assert decompose(unit_square, tri, 4, (3, 1)).summands == ((0, 0), (1, 0), (1, 0), (1, 1))

    def test_non_primitive_triangulation_rejected(self):
        p = LatticePolytope(sigma(3, 2).vertices)
        tri = Triangulation(p, (LatticeSimplex(p.vertices),))
        with pytest.raises(ValueError):
            decompose(p, tri, 1, (1, 0, 0))

    def test_every_point_of_small_dilations_decomposes(self):
        for poly, tri in [
            (cross_polytope(2), orthant_fan(2)),
            (cross_polytope(3), orthant_fan(3)),
        ]:
            omega = poly.integer_points(1)
            for n in (1, 2, 3):
                for x in poly.integer_points(n):
                    dec = decompose(poly, tri, n, x)
                    assert len(dec.summands) == n
                    assert all(s in omega for s in dec.summands)
                    assert tuple(map(sum, zip(*dec.summands))) == x
                    # independent check that x really is an n-fold sum
                    assert is_n_fold_sum(omega, n, x)

    @given(
        st.one_of(
            st.lists(st.tuples(st.integers(-1, 2), st.integers(0, 2)), min_size=3, max_size=6),
            st.lists(st.tuples(st.integers(-1, 1), st.integers(0, 1), st.integers(0, 1)), min_size=4, max_size=7),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_searched_triangulations_decompose_every_point(self, pts):
        # the summands against the Fraction form of the slack rule: in the first
        # simplex whose barycentric coordinates of x/n are all >= 0, each vertex
        # taken n times its coordinate
        poly = hull(pts)
        assume(poly.is_full_dimensional and len(poly.integer_points(1)) <= DEFAULT_POINT_CAP)
        tri = search_primitive_triangulation(poly).triangulation
        assume(tri is not None)
        report = validate_triangulation(tri)
        assert report.valid and report.is_primitive
        omega = poly.integer_points(1)
        for n in (1, 2, 3):
            for x in poly.integer_points(n):
                dec = decompose(poly, tri, n, x)
                assert len(dec.summands) == n
                assert all(s in omega for s in dec.summands)
                assert tuple(map(sum, zip(*dec.summands))) == x
                p = [Fraction(c, n) for c in x]
                first = next(s for s in tri.simplices if min(s.barycentric(p)) >= 0)
                multiplicities = [n * c for c in first.barycentric(p)]
                assert all(m.denominator == 1 for m in multiplicities)
                expected = [v for v, m in zip(first.vertices, multiplicities) for _ in range(int(m))]
                assert dec.summands == tuple(sorted(expected))


class TestGeneratesZd:
    def test_standard_cross(self):
        assert generates_zd(PointSet([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]))

    def test_index_two_sublattice(self):
        s = PointSet([(0, 0), (2, 0), (-2, 0), (0, 1), (0, -1)])
        assert not generates_zd(s)

    def test_symmetric_example(self):
        omega = symmetric_example_polytope().integer_points(1)
        assert generates_zd(omega)

    def test_requires_origin(self):
        with pytest.raises(ValueError, match="origin"):
            generates_zd(PointSet([(1, 0), (-1, 0)]))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            generates_zd(PointSet([(0, 0), (1, 0), (0, 1), (0, -1)]))

    def test_origin_alone_generates_nothing(self):
        assert not generates_zd(PointSet([(0, 0)]))


class TestPrimitiveTriangulationImpliesEquality:
    def test_found_triangulation_forces_equality(self):
        # polytopes where the search certifies a primitive triangulation
        # must satisfy the dilation equality at every tested n
        from latmink import search_primitive_triangulation, validate_triangulation

        cases = [
            cube(3),
            cube(2, -1, 1),
            cross_polytope(2),
            cross_polytope(3),
            LatticePolytope(sigma(3, 3).vertices),
            hull([(0, 0), (3, 1), (1, 3)]),
        ]
        for poly in cases:
            found = search_primitive_triangulation(poly)
            assert found.triangulation is not None, poly
            assert validate_triangulation(found.triangulation).is_primitive
            for n in range(1, 6):
                assert check_equality(poly, n).holds, (poly, n)


class TestRemarkCrossChecks:
    def test_equality_plus_interior_origin_gives_coverage(self):
        # with equality for n <= N and 0 interior, the n-fold sums fill boxes
        for poly in (cube(2, -1, 1), cross_polytope(2), cross_polytope(3)):
            omega = poly.integer_points(1)
            assert generates_zd(omega)
            d = poly.dim
            box = list(itertools.product(range(-2, 3), repeat=d))
            for n in range(1, 13):
                ball = minkowski_power(omega, n)
                if all(p in ball for p in box):
                    break
            else:
                pytest.fail(f"radius-2 box never covered for {poly}")
