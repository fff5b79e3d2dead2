import functools
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    fresh_env,
    lp_interiors_intersect,
    pairwise_face_to_face,
    pairwise_validate_triangulation,
    spans_face,
)
from latmink import (
    LatticePolytope,
    LatticeSimplex,
    PointSet,
    ResourceLimitError,
    Triangulation,
    classify_simplex,
    cross_polytope,
    cube,
    is_elementary_polytope,
    is_unimodular,
    linalg,
    lp,
    search_primitive_triangulation,
    serialize,
    sigma,
    sigma_prime,
    simplices_face_to_face,
    triangulation,
    unimodular_criteria,
    validate_triangulation,
)
from latmink.geometry import barycentric_forms, edge_rows, form_plane
from latmink.triangulation import relative_interiors_intersect
from latmink.verify import orthant_fan, symmetric_example_polytope

SIGMA_3_2_MATRIX = [[1, 0, -1], [0, 1, -1], [0, 0, 2]]


class TestLatticeSimplex:
    def test_vertices_sorted_and_volume(self):
        s = LatticeSimplex([(1, 0), (0, 1), (0, 0)])
        assert s.vertices == ((0, 0), (0, 1), (1, 0))
        assert s.normalized_volume == 1
        assert s.volume() == Fraction(1, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            LatticeSimplex([(0, 0), (1, 1), (2, 2)])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            LatticeSimplex([(0, 0), (1, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no points and no dimension given"):
            LatticeSimplex([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed dimensions in point list"):
            LatticeSimplex([(0, 0), (1, 0), (0, 1, 0)])

    def test_barycentric_and_contains(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        assert s.barycentric((Fraction(1, 3), Fraction(1, 3))) == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )
        assert s.contains((0, 0))
        assert not s.contains((1, 1))

    @pytest.mark.parametrize("point", [(True, 0, 0), "100", ("1", 0, 0)])
    def test_barycentric_rejects_non_rational_points(self, point):
        with pytest.raises(ValueError):
            sigma(3, 3).barycentric(point)

    def test_facets_contain_simplex(self):
        s = LatticeSimplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(s.facets) == 4
        for h in s.facets:
            assert all(h.slack(v) >= 0 for v in s.vertices)
            assert sum(1 for v in s.vertices if h.slack(v) == 0) == 3


class TestOneAdjugatePerSimplex:
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=d + 1, unique=True)
        )
    )
    @example([(0, 0), (1, 1), (2, 2)])
    @example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    @settings(max_examples=200, deadline=None)
    def test_volume_and_facets_match_det_and_fresh_forms(self, pts):
        det = linalg.det_int(edge_rows(pts))
        if det == 0:
            with pytest.raises(ValueError, match="degenerate simplex"):
                LatticeSimplex(pts)
            return
        s = LatticeSimplex(pts)
        expected = tuple(map(form_plane, barycentric_forms(s.vertices)[1]))
        assert (s.normalized_volume, s.facets) == (abs(det), expected)
        assert LatticeSimplex._canonical(s.vertices, s.normalized_volume).facets == expected


class TestFacetIncidence:
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=d + 1, max_size=d + 4)
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_masks_match_slacks_on_every_facet(self, pts, data):
        poly = LatticePolytope(pts)
        assume(poly.is_full_dimensional)
        d = poly.dim
        for p in itertools.product(range(-1, 4), repeat=d):
            assert (triangulation._incidence(poly.facets, p) is not None) == poly.contains(p)
        omega = poly.integer_points(1).points
        incidence = {p: triangulation._incidence(poly.facets, p) for p in omega}
        for _ in range(12):
            k = data.draw(st.integers(1, d + 1))
            points = data.draw(st.lists(st.sampled_from(omega), min_size=k, max_size=k))
            assert triangulation._on_facet(incidence, points) == conftest.on_boundary(poly.facets, points)


class TestIsUnimodular:
    def test_identity(self):
        assert is_unimodular([[1, 0], [0, 1]])

    def test_sigma_3_2_matrix(self):
        assert not is_unimodular(SIGMA_3_2_MATRIX)

    def test_shear(self):
        assert is_unimodular([[1, 1], [0, 1]])

    @pytest.mark.parametrize("check", [is_unimodular, unimodular_criteria])
    @pytest.mark.parametrize("entry", [1.9, True])
    def test_entries_must_be_plain_ints(self, check, entry):
        # int() would read 1.9 and True as 1, and [[1, 0], [0, 1]] is unimodular
        with pytest.raises(ValueError, match="plain ints"):
            check([[entry, 0], [0, 1]])


class TestUnimodularCriteria:
    def test_identity_all_true(self):
        crit = unimodular_criteria([[1, 0], [0, 1]])
        assert not crit.singular
        assert all(crit.first_five())
        assert crit.corner_simplex_elementary

    def test_sigma_3_2_separates_corner_condition(self):
        crit = unimodular_criteria(SIGMA_3_2_MATRIX)
        assert not crit.singular
        assert not any(crit.first_five())
        assert crit.corner_simplex_elementary

    def test_sigma_2_1_all_true(self):
        # columns e1 and (-1, 1)
        crit = unimodular_criteria([[1, -1], [0, 1]])
        assert all(crit.first_five())
        assert crit.corner_simplex_elementary

    def test_singular_reported(self):
        crit = unimodular_criteria([[1, 2], [2, 4]])
        assert crit.singular
        assert not any(crit.first_five())
        assert not crit.corner_simplex_elementary

    def test_dimension_bound(self):
        with pytest.raises(ValueError, match="dimension 5 exceeds the semi-exhaustive bound 4"):
            unimodular_criteria([[1] * 5 for _ in range(5)])

    def test_dimension_four_supported(self):
        shear4 = [
            [1, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        crit = unimodular_criteria(shear4)
        assert all(crit.first_five())
        assert crit.corner_simplex_elementary

    def test_seeded_sample_consistency(self):
        rng = random.Random(7)
        for _ in range(150):
            d = rng.randint(1, 3)
            matrix = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            crit = unimodular_criteria(matrix)
            flags = set(crit.first_five())
            assert len(flags) == 1
            if flags == {True}:
                assert crit.corner_simplex_elementary
            if d <= 2 and crit.corner_simplex_elementary and not crit.singular:
                assert flags == {True}


square_matrices = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d)
)


def inverse_is_integral(matrix) -> bool:
    """The oracle of inverse_integral: a Fraction inverse with every denominator 1."""
    inverse = conftest.inverse_exact(matrix)
    return inverse is not None and all(x.denominator == 1 for row in inverse for x in row)


class TestInverseIntegralByCofactors:
    """inverse_integral is decided as "det divides every cofactor"; the
    Gauss-Jordan inverse over Fractions is its oracle."""

    def test_every_small_2x2(self):
        for entries in itertools.product(range(-2, 3), repeat=4):
            matrix = [list(entries[:2]), list(entries[2:])]
            assert unimodular_criteria(matrix).inverse_integral == inverse_is_integral(matrix), matrix

    @given(square_matrices)
    @example([[2]])
    @example([[1, 0, 0], [0, 1, 0], [1, 0, 0]])  # singular
    @example([[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])  # inverse mixes integral and half entries
    @settings(max_examples=150, deadline=None)
    def test_square_matrices_up_to_dimension_four(self, matrix):
        assert unimodular_criteria(matrix).inverse_integral == inverse_is_integral(matrix)


class TestClassifySimplex:
    def test_unit_simplex_primitive(self):
        cls = classify_simplex(
            LatticeSimplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        )
        assert cls.is_primitive and cls.is_elementary
        assert cls.normalized_volume == 1
        assert len(cls.non_vertex_points) == 0

    def test_sigma_3_2_elementary_not_primitive(self):
        cls = classify_simplex(sigma(3, 2))
        assert cls.is_elementary and not cls.is_primitive
        assert cls.normalized_volume == 2

    def test_sigma_prime_3_5(self):
        cls = classify_simplex(sigma_prime(3, 5))
        assert cls.is_elementary and not cls.is_primitive
        assert cls.normalized_volume == 5

    def test_sigma_3_3_not_elementary(self):
        cls = classify_simplex(sigma(3, 3))
        assert not cls.is_elementary
        assert cls.non_vertex_points.points == ((0, 0, 1),)

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=3
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_flag_consistency(self, pts):
        try:
            simplex = LatticeSimplex(pts)
        except ValueError:
            return
        cls = classify_simplex(simplex)
        assert cls.is_primitive == (cls.normalized_volume == 1)
        assert cls.is_elementary == (len(cls.non_vertex_points) == 0)
        if cls.is_primitive:
            assert cls.is_elementary


class TestSigmaConstructors:
    def test_sigma_shape(self):
        assert sigma(3, 2).vertices == tuple(
            sorted([(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 2)])
        )
        assert sigma_prime(3, 2).vertices == tuple(
            sorted([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        )

    def test_sigma_4_5_contains_exactly_e4(self):
        poly = LatticePolytope(sigma(4, 5).vertices)
        extra = poly.integer_points(1).difference(PointSet(sigma(4, 5).vertices, 4))
        assert extra.points == ((0, 0, 0, 1),)

    def test_sigma_interior_points_formula(self):
        for d in (3, 4, 5):
            for m in range(1, 7):
                poly = LatticePolytope(sigma(d, m).vertices)
                k = m // d
                expected = sorted(
                    list(sigma(d, m).vertices)
                    + [
                        tuple(0 if j < d - 1 else t for j in range(d))
                        for t in range(1, k + 1)
                    ]
                )
                assert list(poly.integer_points(1).points) == expected

    def test_reeve_elementary_for_all_m(self):
        for m in range(1, 7):
            assert classify_simplex(sigma_prime(3, m)).is_elementary

    def test_one_dimensional_allowed(self):
        assert sigma(1, 3).vertices == ((0,), (3,))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sigma(0, 1)
        with pytest.raises(ValueError):
            sigma_prime(3, 0)

    def test_elementary_polytope_helper(self):
        assert is_elementary_polytope(LatticePolytope(sigma(3, 2).vertices))
        assert not is_elementary_polytope(LatticePolytope(sigma(3, 3).vertices))


class TestFaceToFace:
    def test_shared_edge_opposite_sides(self):
        a = LatticeSimplex([(0, 0), (1, 0), (1, 1)])
        b = LatticeSimplex([(0, 0), (0, 1), (1, 1)])
        assert simplices_face_to_face(a, b)
        assert not relative_interiors_intersect(a, b)

    def test_identical_simplices_intersect(self):
        a = LatticeSimplex([(0, 0), (1, 0), (1, 1)])
        assert relative_interiors_intersect(a, a)
        assert simplices_face_to_face(a, a)

    def test_overlapping_interiors(self):
        a = LatticeSimplex([(0, 0), (2, 0), (0, 2)])
        b = LatticeSimplex([(0, 0), (2, 0), (2, 2)])
        assert relative_interiors_intersect(a, b)
        assert not simplices_face_to_face(a, b)

    def test_partial_edge_overlap_no_shared_vertex(self):
        a = LatticeSimplex([(0, 0), (2, 0), (0, 1)])
        b = LatticeSimplex([(1, 0), (3, 0), (2, -1)])
        assert not relative_interiors_intersect(a, b)
        assert not simplices_face_to_face(a, b)

    def test_disjoint(self):
        a = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        b = LatticeSimplex([(5, 5), (6, 5), (5, 6)])
        assert simplices_face_to_face(a, b)
        assert not relative_interiors_intersect(a, b)

    def test_vertex_touch(self):
        a = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        b = LatticeSimplex([(0, 0), (-1, 0), (0, -1)])
        assert simplices_face_to_face(a, b)

    def test_spans_face(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        assert spans_face(s, [(0, 0), (1, 0)])
        assert spans_face(s, [(0, 0)])
        assert spans_face(s, [])
        assert not spans_face(s, [(5, 5)])

    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=d + 1, max_size=d + 1, unique=True
    )))
    @settings(max_examples=150, deadline=None)
    def test_every_vertex_subset_spans_a_face(self, pts):
        # validate_triangulation relies on this instead of calling spans_face
        try:
            s = LatticeSimplex(pts)
        except ValueError:
            return
        for mask in range(1 << len(s.vertices)):
            subset = [v for k, v in enumerate(s.vertices) if mask >> k & 1]
            assert spans_face(s, subset)

    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.integers(0, d),
        *[st.lists(st.tuples(*[st.integers(-1, 2)] * d), min_size=d + 1, max_size=d + 1)] * 2,
    )))
    @settings(max_examples=400, deadline=None)
    def test_face_to_face_matches_oracle_with_shared_vertices(self, case):
        # the first k vertices of q are replaced by those of p, so the pair
        # shares up to k vertices
        k, p, q = case
        try:
            a, b = LatticeSimplex(p), LatticeSimplex(p[:k] + q[k:])
        except ValueError:
            return
        assert simplices_face_to_face(a, b) == pairwise_face_to_face(a, b)


@st.composite
def simplex_pairs(draw):
    """Two simplices with coordinates in [0, 3]^d, d = 1..4; half the pairs
    share their first 1..d vertices."""
    d = draw(st.integers(1, 4))
    points = st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=d + 1, max_size=d + 1, unique=True)
    p, q = draw(points), draw(points)
    k = draw(st.integers(1, d)) if draw(st.booleans()) else 0
    try:
        return LatticeSimplex(p), LatticeSimplex(p[:k] + q[k:])
    except ValueError:
        assume(False)


# Pairs that meet in a lower-dimensional set that is not a face of both:
# one simplex's facet inside the other's, d = 2, 3, 4. Random pairs in
# [0, 3]^d seldom do this.
TOUCHING_PAIRS = [
    (LatticeSimplex(a), LatticeSimplex(b))
    for a, b in (
        ([(0, 1), (2, 1), (0, 2)], [(1, 1), (3, 1), (2, 0)]),
        ([(0, 0, 1), (2, 0, 1), (0, 2, 1), (0, 0, 2)], [(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 0)]),
        (
            [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (0, 0, 0, 2)],
            [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 0)],
        ),
    )
]


def _with_touching_pairs(test):
    for pair in TOUCHING_PAIRS:
        test = example(pair)(test)
    return test


class TestPairTestAgainstOracles:
    """The integer pair test against the LP and the Fraction-solve oracles."""

    def test_touching_pairs_do_not_meet_face_to_face(self):
        for pair in TOUCHING_PAIRS:
            assert triangulation._pair_problem(*pair) == "do not meet face-to-face"

    @given(simplex_pairs())
    @_with_touching_pairs
    @settings(max_examples=100, deadline=None)
    def test_interiors_match_lp(self, pair):
        assert relative_interiors_intersect(*pair) == lp_interiors_intersect(*pair)

    @given(simplex_pairs())
    @_with_touching_pairs
    @settings(max_examples=100, deadline=None)
    def test_intersection_vertices_match_fraction_solves(self, pair):
        pairs = triangulation._intersection_vertices(*pair)
        assert all(den > 0 and gcd(den, *num) == 1 for num, den in pairs)  # lowest terms: one pair a vertex
        assert {tuple(Fraction(c, den) for c in num) for num, den in pairs} == conftest._intersection_vertices(*pair)

    @given(simplex_pairs())
    @_with_touching_pairs
    @settings(max_examples=100, deadline=None)
    def test_face_to_face_matches_oracle(self, pair):
        assert simplices_face_to_face(*pair) == pairwise_face_to_face(*pair)


@st.composite
def facet_pairs(draw):
    """A facet of d sorted points in [0, 3]^d, d = 1..4, and two apexes that
    each span a simplex with it."""
    d = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 3)] * d)
    facet = sorted(draw(st.lists(point, min_size=d, max_size=d, unique=True)))
    a, b = draw(point), draw(point)
    try:
        return facet, a, b, LatticeSimplex(facet + [a]), LatticeSimplex(facet + [b])
    except ValueError:
        assume(False)


def _side(facet, apex) -> int:
    """Sign of det(f1 - f0, ..., f_{d-1} - f0, apex - f0)."""
    rows = [[x - y for x, y in zip(p, facet[0])] for p in facet[1:] + [apex]]
    det = linalg.det_int(rows)
    return (det > 0) - (det < 0)


@st.composite
def unimodular_simplices(draw):
    """A unimodular simplex in Z^d, d = 1..4: a base point in [-3, 3]^d plus the
    rows of a product of row shears (multipliers -2..2) with one row negated."""
    d = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3 * (d - 1)))):
        r, c = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(-2, 2))
        rows[r] = [a + k * b for a, b in zip(rows[r], rows[c])]
    rows[0] = [-a for a in rows[0]] if draw(st.booleans()) else rows[0]
    base = draw(st.tuples(*[st.integers(-3, 3)] * d))
    return LatticeSimplex([base] + [tuple(map(sum, zip(base, row))) for row in rows])


class TestFacetRule:
    @given(facet_pairs())
    @settings(max_examples=200, deadline=None)
    def test_opposite_matches_determinant_signs(self, case):
        facet, a, b, s, t = case
        expected = _side(facet, a) != _side(facet, b)
        for (u, x), (v, y) in (((s, a), (t, b)), ((t, b), (s, a))):
            assert triangulation._opposite(u, u.vertices.index(x), v, v.vertices.index(y)) == expected

    @given(unimodular_simplices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_branch_rule(self, s, data):
        # the search's node branches: on a unimodular simplex's facet F, opposite
        # vertex i, the slack of a lattice point q is +-det(F + (q,)), and the
        # apex's slack is 1, so F + (q,) is unimodular and beyond F iff it is -1
        assert s.normalized_volume == 1
        i = data.draw(st.integers(0, s.dim), label="omit")
        q = data.draw(st.tuples(*[st.integers(-6, 6)] * s.dim), label="q")
        facet = s.facet_vertex_sets()[i]
        assert facet == s.vertices[:i] + s.vertices[i + 1 :]
        assert abs(linalg.det_int(edge_rows(facet + (q,)))) == abs(s.facets[i].slack(q))
        assert s.facets[i].slack(s.vertices[i]) == 1


class TestValidateTriangulation:
    def test_square_diagonal_valid(self, unit_square):
        tri = Triangulation(
            unit_square,
            (
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
                LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
            ),
        )
        report = validate_triangulation(tri)
        assert report.valid and report.is_primitive and report.is_elementary
        assert report.covered_volume == 1

    def test_orthant_fans_valid_and_primitive(self):
        for d in (2, 3):
            report = validate_triangulation(orthant_fan(d))
            assert report.valid and report.is_primitive
            assert len(orthant_fan(d).simplices) == 2**d

    def test_duplicate_simplex_fails_coverage(self, unit_square):
        tri = Triangulation(
            unit_square,
            (
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
            ),
        )
        report = validate_triangulation(tri)
        assert not report.valid
        assert any("duplicates" in p for p in report.problems)
        assert any("covered volume" in p for p in report.problems)
        assert any("intersecting interiors" in p for p in report.problems)

    def test_gap_fails_volume(self, unit_square):
        tri = Triangulation(unit_square, (LatticeSimplex([(0, 0), (1, 0), (1, 1)]),))
        report = validate_triangulation(tri)
        assert not report.valid
        assert any("covered volume" in p for p in report.problems)

    def test_overlap_reported_with_offending_pair(self):
        poly = LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)])
        tri = Triangulation(
            poly,
            (
                LatticeSimplex([(0, 0), (2, 0), (0, 2)]),
                LatticeSimplex([(0, 0), (2, 0), (2, 2)]),
                LatticeSimplex([(0, 2), (2, 0), (2, 2)]),
            ),
        )
        report = validate_triangulation(tri)
        assert not report.valid
        assert any("0 and 1" in p for p in report.problems)

    def test_non_face_to_face_split(self):
        # (0,1)-(2,1) cuts the left triangle's hypotenuse in half: volumes
        # match but the middle pair is not face-to-face
        poly = LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)])
        tri = Triangulation(
            poly,
            (
                LatticeSimplex([(0, 0), (2, 0), (2, 2)]),
                LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
                LatticeSimplex([(0, 1), (0, 2), (2, 2)]),
                LatticeSimplex([(0, 1), (1, 1), (2, 2)]),
            ),
        )
        report = validate_triangulation(tri)
        assert not report.valid
        assert any("face-to-face" in p for p in report.problems)

    def test_simplex_outside_polytope(self, unit_triangle):
        tri = Triangulation(
            unit_triangle,
            (
                LatticeSimplex([(0, 0), (1, 0), (0, 1)]),
                LatticeSimplex([(1, 0), (2, 0), (1, 1)]),
            ),
        )
        report = validate_triangulation(tri)
        assert not report.valid
        assert any("outside" in p for p in report.problems)

    def test_elementary_but_not_primitive(self):
        poly = LatticePolytope(sigma(3, 2).vertices)
        tri = Triangulation(poly, (LatticeSimplex(poly.vertices),))
        report = validate_triangulation(tri)
        assert report.valid
        assert report.is_elementary and not report.is_primitive

    def test_t_junction_fails(self):
        # volumes and vertices check out, but the edge (0,0)-(2,0) above is
        # matched by two half edges below
        tri = _diamond_t_junction()
        report = validate_triangulation(tri)
        assert report.problems == (
            "simplices 0 and 1 do not meet face-to-face",
            "simplices 0 and 2 do not meet face-to-face",
        )
        assert report == pairwise_validate_triangulation(tri)


def _diamond_t_junction() -> Triangulation:
    poly = LatticePolytope([(0, 0), (2, 0), (1, 1), (1, -1)])
    return Triangulation(
        poly,
        (
            LatticeSimplex([(0, 0), (2, 0), (1, 1)]),
            LatticeSimplex([(0, 0), (1, 0), (1, -1)]),
            LatticeSimplex([(1, 0), (2, 0), (1, -1)]),
        ),
    )


def _seeded_polygons(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        poly = LatticePolytope([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(3, 6))])
        if poly.is_full_dimensional and len(poly.integer_points(1)) <= 10:
            out.append(poly)
    return out


def _sheared_prisms(seed: int, count: int) -> list:
    """Prisms over small polygons, sheared by an integer map that fixes the base."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = LatticePolytope([(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(3, 5))])
        if not base.is_full_dimensional or len(base.integer_points(1)) > 4:
            continue
        a, b = rng.randint(-1, 1), rng.randint(-1, 1)
        out.append(LatticePolytope([(x, y, z + a * x + b * y) for x, y in base.vertices for z in (0, 1)]))
    return out


def _bundled_polytopes() -> list:
    out = []
    for entry in sorted(resources.files("latmink.data").iterdir(), key=lambda e: e.name):
        doc = json.loads(entry.read_text())
        if "vertices" in doc:
            out.append(serialize.parse_polytope(doc))
    return out


@functools.cache
def _found_triangulations() -> tuple:
    """The orthant fans and the search's triangulations of the corpus polytopes."""
    polys = _seeded_polygons(5, 6) + _sheared_prisms(5, 3) + [cube(3), cross_polytope(3)]
    found = [search_primitive_triangulation(p).triangulation for p in polys]
    assert None not in found
    return (orthant_fan(2), orthant_fan(3), *found)


def _interior_facets(simplices) -> list:
    """(i, j, facet) for each facet shared by simplices i < j."""
    owners: dict = {}
    for k, s in enumerate(simplices):
        for facet in s.facet_vertex_sets():
            owners.setdefault(facet, []).append(k)
    return [(ks[0], ks[1], facet) for facet, ks in owners.items() if len(ks) == 2]


def _scaled(s: LatticeSimplex, k: int) -> LatticeSimplex:
    return LatticeSimplex([tuple(k * x for x in v) for v in s.vertices])


MUTATIONS = ("none", "drop", "duplicate", "outside", "flip", "t-junction")


def _mutate(tri: Triangulation, kind: str, index: int) -> Triangulation:
    """A copy of tri changed by one mutation; `index` picks the simplex or facet."""
    poly, simplices = tri.polytope, list(tri.simplices)
    i = index % len(simplices)
    if kind == "drop" and len(simplices) > 1:
        del simplices[i]
    elif kind == "duplicate":
        simplices.append(simplices[i])
    elif kind == "outside":
        width = max(v[0] for v in poly.vertices) - min(v[0] for v in poly.vertices)
        simplices[i] = LatticeSimplex([(v[0] + width + 1,) + v[1:] for v in simplices[i].vertices])
    elif kind == "flip" and _interior_facets(simplices):
        # swap the diagonal: replace two simplices across a facet by the
        # nondegenerate simplices on the segment between their apexes
        facets = _interior_facets(simplices)
        i, j, facet = facets[index % len(facets)]
        apexes = [next(v for v in simplices[k].vertices if v not in facet) for k in (i, j)]
        flipped = []
        for f in facet:
            try:
                flipped.append(LatticeSimplex([v for v in facet if v != f] + apexes))
            except ValueError:
                pass
        simplices = [s for k, s in enumerate(simplices) if k not in (i, j)] + flipped
    elif kind == "t-junction" and _interior_facets(simplices):
        # double everything, then split one owner of an interior facet at
        # the midpoint of a facet edge: the other owner's facet is matched
        # by two smaller facets
        poly, simplices = poly.dilate(2), [_scaled(s, 2) for s in simplices]
        facets = _interior_facets(simplices)
        i, _, facet = facets[index % len(facets)]
        u, v = facet[0], facet[1]
        mid = tuple((x + y) // 2 for x, y in zip(u, v))
        s = simplices[i].vertices
        simplices[i : i + 1] = [
            LatticeSimplex([mid if w == u else w for w in s]),
            LatticeSimplex([mid if w == v else w for w in s]),
        ]
    return Triangulation(poly, tuple(simplices))


class TestValidatorAgainstPairwiseOracle:
    """The facet-adjacency validator gives the whole report of the pairwise one."""

    def test_every_found_triangulation_and_mutation(self):
        corpus = _found_triangulations()
        for n, tri in enumerate(corpus):
            assert validate_triangulation(tri).valid
            for kind in MUTATIONS:
                mutated = _mutate(tri, kind, n)
                assert validate_triangulation(mutated) == pairwise_validate_triangulation(mutated), (n, kind)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_mutations(self, data):
        corpus = _found_triangulations()
        tri = data.draw(st.sampled_from(corpus))
        kind = data.draw(st.sampled_from(MUTATIONS))
        mutated = _mutate(tri, kind, data.draw(st.integers(0, 200)))
        assert validate_triangulation(mutated) == pairwise_validate_triangulation(mutated)

    def test_mutations_are_caught(self):
        for tri in _found_triangulations():
            for kind in ("drop", "duplicate", "outside"):
                assert not validate_triangulation(_mutate(tri, kind, 1)).valid
            if _interior_facets(tri.simplices):
                assert not validate_triangulation(_mutate(tri, "t-junction", 0)).valid


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the calls of lp.maximize while the test runs."""
    calls = []
    maximize = lp.maximize

    def counting(*args, **kwargs):
        calls.append(args)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(lp, "maximize", counting)
    return calls


class TestValidationWork:
    """Valid triangulations are settled by facet adjacency; no validation runs an LP."""

    def test_orthant_fans(self, lp_calls):
        for d in (1, 2, 3, 4):
            assert validate_triangulation(orthant_fan(d)).valid
        assert lp_calls == []

    def test_search_outputs(self, lp_calls):
        polys = [cube(3), cross_polytope(3)]
        for poly in _bundled_polytopes():
            if poly.is_full_dimensional and len(poly.integer_points(1)) <= 14:
                polys.append(poly)
        found = 0
        for poly in polys:
            result = search_primitive_triangulation(poly)  # validates its output too
            assert lp_calls == []
            if result.triangulation is not None:
                found += 1
                assert validate_triangulation(result.triangulation).valid
                assert lp_calls == []
        assert found == 9  # cube(3), cross_polytope(3) and seven bundled polytopes

    def test_rejected_input_without_lp(self, lp_calls):
        report = validate_triangulation(_diamond_t_junction())
        assert not report.valid
        assert lp_calls == []
        assert report == pairwise_validate_triangulation(_diamond_t_junction())


@pytest.fixture
def scan_calls(monkeypatch):
    """Counts the calls of LatticePolytope.integer_points while the test runs."""
    calls = []
    integer_points = LatticePolytope.integer_points

    def counting(self, *args, **kwargs):
        calls.append(self)
        return integer_points(self, *args, **kwargs)

    monkeypatch.setattr(LatticePolytope, "integer_points", counting)
    return calls


class TestClassificationWork:
    """Validation scans the integer points of non-unit simplices only."""

    def test_unit_simplices_not_scanned(self, scan_calls):
        polys = [cube(3), cross_polytope(3)]
        polys += [p for p in _bundled_polytopes() if p.is_full_dimensional and len(p.integer_points(1)) <= 14]
        found = [r.triangulation for r in map(search_primitive_triangulation, polys) if r.triangulation]
        assert len(found) == 9
        scan_calls.clear()  # the searches scan their polytopes
        for tri in found:
            report = validate_triangulation(tri)
            assert report.valid and report.is_primitive and report.is_elementary
        assert scan_calls == []

    def test_non_unit_simplex_scanned(self, scan_calls):
        fat = LatticeSimplex([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])  # holds (1, 0, 0)
        for s, elementary in ((fat, False), (sigma(3, 2), True)):
            report = validate_triangulation(Triangulation(LatticePolytope(s.vertices), (s,)))
            assert report.valid and not report.is_primitive
            assert report.is_elementary == elementary
        assert len(scan_calls) >= 2


# Search results recorded before the search read the validator's facet
# rule: the polytope, {budget: (nodes, exhausted, found)} with None for the
# default budget, and the simplices found (the same at every budget that
# finds one). The polygons are the first three of _seeded_polygons(11, 3).
SEARCH_PINS = {
    "cube(3)": (
        cube(3),
        {1: (1, False, False), 3: (3, False, False), 10: (6, False, True), 40: (6, False, True), None: (6, False, True)},
        (
            ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
            ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)),
            ((0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1)),
            ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)),
            ((0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)),
            ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)),
        ),
    ),
    "cross_polytope(3)": (
        cross_polytope(3),
        {1: (1, False, False), 3: (3, False, False), 10: (8, False, True), 40: (8, False, True), None: (8, False, True)},
        (
            ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 0)),
            ((-1, 0, 0), (0, -1, 0), (0, 0, 0), (0, 0, 1)),
            ((-1, 0, 0), (0, 0, -1), (0, 0, 0), (0, 1, 0)),
            ((-1, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0)),
            ((0, -1, 0), (0, 0, -1), (0, 0, 0), (1, 0, 0)),
            ((0, -1, 0), (0, 0, 0), (0, 0, 1), (1, 0, 0)),
            ((0, 0, -1), (0, 0, 0), (0, 1, 0), (1, 0, 0)),
            ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ),
    ),
    "cross_polytope(4)": (
        cross_polytope(4),
        {1: (1, False, False), 3: (3, False, False), 10: (10, False, False), 40: (16, False, True), None: (16, False, True)},
        (
            ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 0)),
            ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 1)),
            ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 1, 0)),
            ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
            ((-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0)),
            ((-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)),
            ((-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)),
            ((-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
            ((0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 0), (1, 0, 0, 0)),
            ((0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)),
            ((0, -1, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)),
            ((0, -1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)),
            ((0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
            ((0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)),
            ((0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
            ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
        ),
    ),
    "sigma(3, 2)": (
        LatticePolytope(sigma(3, 2).vertices),
        {1: (0, True, False), 3: (0, True, False), 10: (0, True, False), 40: (0, True, False), None: (0, True, False)},
        None,
    ),
    "symmetric example": (
        symmetric_example_polytope(),
        {1: (1, False, False), 3: (3, False, False), 10: (10, False, False), 40: (26, True, False), None: (26, True, False)},
        None,
    ),
    "polygon 0": (
        LatticePolytope([(0, 3), (2, 3), (3, 0)]),
        {1: (1, False, False), 3: (3, False, False), 10: (6, False, True), 40: (6, False, True), None: (6, False, True)},
        (
            ((0, 3), (1, 2), (1, 3)),
            ((1, 2), (1, 3), (2, 1)),
            ((1, 3), (2, 1), (2, 2)),
            ((1, 3), (2, 2), (2, 3)),
            ((2, 1), (2, 2), (3, 0)),
            ((2, 2), (2, 3), (3, 0)),
        ),
    ),
    "polygon 1": (
        LatticePolytope([(0, 0), (1, 2), (2, 2)]),
        {1: (1, False, False), 3: (2, False, True), 10: (2, False, True), 40: (2, False, True), None: (2, False, True)},
        (
            ((0, 0), (1, 1), (1, 2)),
            ((1, 1), (1, 2), (2, 2)),
        ),
    ),
    "polygon 2": (
        LatticePolytope([(0, 0), (2, 3), (3, 0)]),
        {1: (1, False, False), 3: (3, False, False), 10: (9, False, True), 40: (9, False, True), None: (9, False, True)},
        (
            ((0, 0), (1, 0), (1, 1)),
            ((0, 0), (1, 1), (2, 3)),
            ((1, 0), (1, 1), (2, 0)),
            ((1, 1), (2, 0), (2, 1)),
            ((1, 1), (2, 1), (2, 2)),
            ((1, 1), (2, 2), (2, 3)),
            ((2, 0), (2, 1), (3, 0)),
            ((2, 1), (2, 2), (3, 0)),
            ((2, 2), (2, 3), (3, 0)),
        ),
    ),
}


class TestSearch:
    def test_unit_square(self, unit_square):
        result = search_primitive_triangulation(unit_square)
        assert result.triangulation is not None
        assert len(result.triangulation.simplices) == 2

    def test_unit_cube_six_simplices(self):
        result = search_primitive_triangulation(cube(3))
        assert result.triangulation is not None
        assert len(result.triangulation.simplices) == 6
        report = validate_triangulation(result.triangulation)
        assert report.valid and report.is_primitive

    def test_sigma_3_2_provably_none(self):
        result = search_primitive_triangulation(LatticePolytope(sigma(3, 2).vertices))
        assert result.triangulation is None
        assert result.exhausted

    def test_reeve_provably_none(self):
        result = search_primitive_triangulation(LatticePolytope(sigma_prime(3, 3).vertices))
        assert result.triangulation is None
        assert result.exhausted

    def test_cross_polytopes(self):
        for d in (2, 3):
            result = search_primitive_triangulation(cross_polytope(d))
            assert result.triangulation is not None
            assert len(result.triangulation.simplices) == 2**d

    def test_budget_exhaustion_reported(self):
        result = search_primitive_triangulation(cube(3), budget=2)
        assert result.triangulation is None
        assert not result.exhausted

    def test_point_cap(self):
        with pytest.raises(ResourceLimitError):
            search_primitive_triangulation(cube(2, 0, 4), point_cap=14)

    def test_found_triangulations_validate(self):
        for poly in (cube(2, -1, 1), cross_polytope(3), cube(3)):
            result = search_primitive_triangulation(poly)
            report = validate_triangulation(result.triangulation)
            assert report.valid and report.is_primitive

    def test_requires_full_dimension(self):
        with pytest.raises(ValueError):
            search_primitive_triangulation(LatticePolytope([(0, 0), (1, 1)]))

    def test_symmetric_counterexample_provably_none(self):
        # equality fails at n=2 for this polytope, so a primitive
        # triangulation cannot exist; the search must prove that
        result = search_primitive_triangulation(symmetric_example_polytope())
        assert result.triangulation is None
        assert result.exhausted

    def test_sigma_3_3_cone_over_base(self):
        # one interior-file point: the three unit simplices around the
        # 0-to-apex edge triangulate it
        poly = LatticePolytope(sigma(3, 3).vertices)
        result = search_primitive_triangulation(poly)
        assert result.triangulation is not None
        assert len(result.triangulation.simplices) == 3

    def test_deterministic(self):
        first = search_primitive_triangulation(cube(3))
        second = search_primitive_triangulation(cube(3))
        assert first.nodes == second.nodes
        assert [s.vertices for s in first.triangulation.simplices] == [
            s.vertices for s in second.triangulation.simplices
        ]

    def test_pinned_intersection_vertex_solves(self, monkeypatch):
        # the integer certificate of _separated settles all but 32 of this
        # search's 1,081 pair tests (none of a branch against its facet's
        # owner); a certificate change that sends more
        # pairs to the Cramer solves of _intersection_vertices shows here
        counts = {"_pair_problem": 0, "_intersection_vertices": 0}
        for name in counts:
            def counted(a, b, real=getattr(triangulation, name), name=name):
                counts[name] += 1
                return real(a, b)

            monkeypatch.setattr(triangulation, name, counted)
        result = search_primitive_triangulation(cube(3, 0, 2), point_cap=40)
        assert (result.nodes, counts) == (48, {"_pair_problem": 1081, "_intersection_vertices": 32})

    @pytest.mark.parametrize("poly, dropped", [(cube(3), 5), (cross_polytope(3), 7), (cube(3, 0, 2), 47)])
    def test_no_branch_is_pair_tested_against_its_owner(self, monkeypatch, poly, dropped):
        # the recursive oracle tests each branch against every chosen simplex; the
        # search makes the same tests less those of a branch against the owner of
        # the facet it is built across, which a pair reached only that way never gets
        tested = []
        real = triangulation.simplices_face_to_face
        monkeypatch.setattr(triangulation, "simplices_face_to_face", lambda a, b: tested.append((a, b)) or real(a, b))
        found = search_primitive_triangulation(poly, point_cap=40)
        library, owner_pairs = set(tested), set()
        tested.clear()
        oracle = conftest.recursive_search(poly, found.nodes, 40, owner_pairs)
        assert oracle.nodes == found.nodes
        assert library <= set(tested)
        assert set(tested) - library <= owner_pairs
        assert len(set(tested) - library) == dropped

    def test_pinned_determinants(self, monkeypatch):
        # 12 for the volume's cones, read once by the search and its validation,
        # and 2 for the root subsets through (0, 0, 0) that the search reaches;
        # a node reads its branches off a facet plane, with no determinant
        calls = []

        def counted(rows, real=linalg.det_int):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(linalg, "det_int", counted)
        result = search_primitive_triangulation(cube(3))
        assert (result.nodes, len(calls)) == (6, 14)

    def test_facets_are_computed_once_per_simplex(self, monkeypatch):
        # each candidate is one object, whichever facet of the search reaches it
        seen = []

        def counted(points, real=triangulation.barycentric_forms):
            seen.append(tuple(points))
            return real(points)

        monkeypatch.setattr(triangulation, "barycentric_forms", counted)
        result = search_primitive_triangulation(cube(3, 0, 2), point_cap=40)
        assert result.nodes == 48
        assert (len(seen), len(set(seen))) == (47, 47)

    @pytest.mark.parametrize("poly, runs, simplices", SEARCH_PINS.values(), ids=SEARCH_PINS)
    def test_pinned_results(self, poly, runs, simplices):
        for budget, (nodes, exhausted, found) in runs.items():
            result = search_primitive_triangulation(poly, **({} if budget is None else {"budget": budget}))
            assert (result.nodes, result.exhausted) == (nodes, exhausted)
            got = None if result.triangulation is None else tuple(s.vertices for s in result.triangulation.simplices)
            assert got == (simplices if found else None)


# ROADMAP item 4's test polytope: 27 lattice points, a search too long to run
# to its end in a test
Q27 = LatticePolytope([(0, 0, 1), (2, 2, 4), (2, 3, 2), (3, 3, 0), (4, 0, 1), (4, 2, 2), (4, 3, 4)])


def _outcome(result):
    found = None if result.triangulation is None else tuple(s.vertices for s in result.triangulation.simplices)
    return result.nodes, result.exhausted, found


class TestSearchAgainstRecursiveOracle:
    """The loop over a stack of open facets against conftest.recursive_search:
    the same nodes, exhausted flag and simplices."""

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=7)
        ),
        st.integers(1, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_polytopes(self, pts, budget):
        poly = LatticePolytope(pts)
        assume(poly.is_full_dimensional and len(poly.integer_points(1)) <= 14)
        got = search_primitive_triangulation(poly, budget=budget)
        assert _outcome(got) == _outcome(conftest.recursive_search(poly, budget, 14))

    def test_seeded_polytopes(self):
        # seeded 2-D and 3-D polytopes of at most 14 points, each searched to its
        # end and again at half its nodes: found, exhausted and budget-stopped
        rng = random.Random(29)
        kinds = set()
        tried = 0
        while tried < 60:
            d = rng.choice((2, 3))
            poly = LatticePolytope([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 7))])
            if not poly.is_full_dimensional or len(poly.integer_points(1)) > 14:
                continue
            tried += 1
            full = search_primitive_triangulation(poly, budget=20_000)
            for budget in (20_000, max(1, full.nodes // 2)):
                got = search_primitive_triangulation(poly, budget=budget)
                assert _outcome(got) == _outcome(conftest.recursive_search(poly, budget, 14)), (poly, budget)
                kinds.add((d, "found" if got.triangulation else "exhausted" if got.exhausted else "budget"))
        assert kinds == {(d, kind) for d in (2, 3) for kind in ("found", "budget")} | {(3, "exhausted")}

    @pytest.mark.parametrize(
        "poly, budget, nodes", [(Q27, 2000, 2000), (cube(3, 0, 2), 200_000, 48)], ids=["Q27", "cube(3, 0, 2)"]
    )
    def test_deeper_searches(self, poly, budget, nodes):
        got = search_primitive_triangulation(poly, budget=budget, point_cap=40)
        assert got.nodes == nodes
        assert _outcome(got) == _outcome(conftest.recursive_search(poly, budget, 40))

    @pytest.mark.parametrize("name", ["cube(3)", "polygon 1", "polygon 2"])
    def test_budget_of_exactly_the_nodes_taken_finds(self, name):
        # the budget is tested before a node is counted, so the last node a
        # search takes to find its triangulation fits a budget of that many
        poly, runs, simplices = SEARCH_PINS[name]
        nodes = runs[None][0]
        assert _outcome(search_primitive_triangulation(poly, budget=nodes)) == (nodes, False, simplices)
        assert _outcome(search_primitive_triangulation(poly, budget=nodes - 1)) == (nodes - 1, False, None)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # one accepted simplex per stack entry: conv{0, 150} needs 150 entries,
        # more than a recursion limit of 120 allows frames
        script = (
            "import sys\n"
            "from latmink import LatticePolytope, search_primitive_triangulation\n"
            "segment = LatticePolytope([(0,), (150,)])\n"
            "sys.setrecursionlimit(120)\n"
            "result = search_primitive_triangulation(segment, point_cap=200)\n"
            "print(len(result.triangulation.simplices), result.nodes)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split()[0] == "150"

    def test_point_cap_counts_before_building_points(self, monkeypatch):
        def no_points(runs):
            raise AssertionError("points were built")

        monkeypatch.setattr(triangulation, "run_points", no_points)
        with pytest.raises(ResourceLimitError, match="^polytope has 25 lattice points, point cap is 14$"):
            search_primitive_triangulation(cube(2, 0, 4))


class TestFaceToFaceOneDimensional:
    def test_adjacent_segments(self):
        a = LatticeSimplex([(0,), (1,)])
        b = LatticeSimplex([(1,), (2,)])
        assert simplices_face_to_face(a, b)
        assert not relative_interiors_intersect(a, b)

    def test_nested_segments(self):
        a = LatticeSimplex([(0,), (1,)])
        c = LatticeSimplex([(0,), (2,)])
        assert relative_interiors_intersect(a, c)
        assert not simplices_face_to_face(a, c)

    def test_segment_search(self):
        seg = LatticePolytope([(-2,), (3,)])
        result = search_primitive_triangulation(seg)
        assert result.triangulation is not None
        assert len(result.triangulation.simplices) == 5
        assert validate_triangulation(result.triangulation).valid


class TestSearchCrossValidation:
    """Seeded fuzzing: whatever the search returns must satisfy the theory."""

    def test_random_polygons_always_triangulate(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            pts = [
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(3, 6))
            ]
            poly = LatticePolytope(pts)
            if not poly.is_full_dimensional or len(poly.integer_points(1)) > 14:
                continue
            result = search_primitive_triangulation(poly)
            assert result.triangulation is not None, pts
            verdict = validate_triangulation(result.triangulation)
            assert verdict.valid and verdict.is_primitive, (pts, verdict.problems)
            checked += 1

    def test_random_3d_findings_respect_the_theory(self):
        from latmink import check_equality

        rng = random.Random(3)
        tried = 0
        while tried < 15:
            pts = [
                (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(4, 6))
            ]
            poly = LatticePolytope(pts)
            if not poly.is_full_dimensional or len(poly.integer_points(1)) > 12:
                continue
            result = search_primitive_triangulation(poly, budget=400_000)
            if result.triangulation is not None:
                verdict = validate_triangulation(result.triangulation)
                assert verdict.valid and verdict.is_primitive, pts
                for n in (1, 2, 3):
                    assert check_equality(poly, n).holds, (pts, n)
            else:
                assert result.exhausted or result.nodes == 400_000
            tried += 1


class TestDilationDeskSearch:
    """Exploration: some small multiple of sigma(3,2) triangulates primitively."""

    def test_some_small_multiple_works(self):
        base = LatticePolytope(sigma(3, 2).vertices)
        budget = 2_000_000
        skipped = False
        for k in (2, 3, 4):
            scaled = base.dilate(k)
            if len(scaled.integer_points(1)) > 22:
                skipped = True
                continue
            result = search_primitive_triangulation(scaled, budget=budget, point_cap=22)
            if result.triangulation is not None:
                report = validate_triangulation(result.triangulation)
                assert report.valid and report.is_primitive
                return
            if not result.exhausted:
                skipped = True
        if skipped:
            pytest.skip("search budget or point cap exhausted before a hit")
        pytest.fail("no dilation k <= 4 admits a primitive triangulation")
