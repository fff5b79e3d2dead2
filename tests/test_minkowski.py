import itertools
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
from latmink.triangulation import DEFAULT_POINT_CAP
from latmink.verify import orthant_fan, symmetric_example_polytope

from conftest import folded_minkowski_power, is_n_fold_sum

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

    def test_only_omega_is_scanned_before_the_box_over_the_cap(self, monkeypatch, unit_square):
        scans, real = [], LatticePolytope.integer_points

        def counted(self, n, cap=None):
            scans.append(n)
            return real(self, n, cap)

        monkeypatch.setattr(LatticePolytope, "integer_points", counted)
        with pytest.raises(ResourceLimitError, match="^bounding box has 121 candidate points, cap is 100$"):
            check_equality_range(unit_square, range(1, 301), cap=100)
        assert scans == [1]

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
