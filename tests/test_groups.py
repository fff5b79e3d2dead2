import itertools
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmink import (
    ElementSet,
    GroupPresentation,
    LatticePolytope,
    ResourceLimitError,
    ball_boundary,
    ball_layers,
    check_boundary_equality,
    check_boundary_equality_range,
    check_equality,
    cross_polytope,
    cube,
    gl2z_swap_shear_generators,
    hull,
    minkowski_power,
    omega_boundary,
    omega_interior,
    word_ball,
    zd_presentation_from_polytope,
)
from latmink.groups import GL2Z_IDENTITY, BallCodec, BoundaryReport, as_gl2z
from latmink.verify import random_lattice_polygon, symmetric_example_polytope

from conftest import (
    _product,
    brute_force_boundary,
    brute_force_word_ball,
    full_ball_boundary_reports,
    per_point_equality_reports,
    table_interior,
)

import random


def _small_gl2z():
    """The 40 elements of GL(2, Z) with entries in {-1, 0, 1}."""
    found = []
    for a, b, c, d in itertools.product((-1, 0, 1), repeat=4):
        if a * d - b * c in (1, -1):
            found.append(((a, b), (c, d)))
    return found


@st.composite
def zd_groups(draw):
    """Z^d presentations with d <= 3 and up to five generators besides 0."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * d)
    return GroupPresentation.zd(d, [(0,) * d] + draw(st.lists(point, max_size=5)))


gl2z_groups = st.lists(st.sampled_from(_small_gl2z()), max_size=4).map(
    lambda gens: GroupPresentation.gl2z([GL2Z_IDENTITY] + gens)
)


# Finite groups: Z^2 generated by {0}, and the GL(2, Z) pairs {I, swap} and {I, -I}.
FINITE_GROUPS = [
    GroupPresentation.zd(2, [(0, 0)]),
    GroupPresentation.gl2z([GL2Z_IDENTITY, ((0, 1), (1, 0))]),
    GroupPresentation.gl2z([GL2Z_IDENTITY, ((-1, 0), (0, -1))]),
]


def l1_ball(radius):
    return {
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    }


@pytest.fixture
def z2_cross():
    return GroupPresentation.zd(2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture
def gl2z():
    return GroupPresentation.gl2z(gl2z_swap_shear_generators())


class TestElementSet:
    def test_canonical_order(self):
        s = ElementSet([(2,), (1,), (2,)])
        assert s.elements == ((1,), (2,))

    def test_difference(self):
        a = ElementSet([(1,), (2,), (3,)])
        assert a.difference(ElementSet([(2,)])).elements == ((1,), (3,))

    @given(st.one_of(
        st.tuples(*[st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12)] * 2),
        st.tuples(*[st.lists(st.sampled_from(_small_gl2z()), max_size=12)] * 2),
    ))
    @settings(max_examples=100, deadline=None)
    def test_difference_equals_the_sorting_constructor(self, case):
        # the filtered tuple is already canonical: no second sort
        xs, ys = case
        diff, expected = ElementSet(xs).difference(ElementSet(ys)), ElementSet(x for x in xs if x not in set(ys))
        assert diff == expected
        assert diff._members == expected._members


class TestGroupPresentation:
    def test_zd_requires_identity(self):
        with pytest.raises(ValueError, match="identity"):
            GroupPresentation.zd(2, [(1, 0), (-1, 0)])

    def test_gl2z_determinant_checked(self):
        with pytest.raises(ValueError, match="determinant"):
            as_gl2z([[1, 0], [0, 2]])

    @pytest.mark.parametrize(
        "matrix", [[[1, 0], 5], 5, [None, [0, 1]], [[1, 0], "ab"], [[1, 0], {0: 1, 1: 0}], "ab", {1: 2, 3: 4}]
    )
    def test_gl2z_rows_must_be_sequences(self, matrix):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            GroupPresentation.gl2z([GL2Z_IDENTITY, matrix])

    @pytest.mark.parametrize("dim", [None, 0, True, "2"])
    def test_zd_dimension_must_be_an_int_at_least_one(self, dim):
        with pytest.raises(ValueError, match="integer dimension >= 1"):
            GroupPresentation("zd", [(0, 0)], dim=dim)

    def test_gl2z_requires_identity(self):
        with pytest.raises(ValueError, match="identity"):
            GroupPresentation.gl2z([((0, 1), (1, 0))])

    def test_multiplication(self, z2_cross, gl2z):
        assert z2_cross.mul((1, 2), (3, -1)) == (4, 1)
        w = gl2z_swap_shear_generators()
        assert gl2z.mul(w[2], w[1]) == w[3]

    def test_generator_dimension_checked(self):
        with pytest.raises(ValueError):
            GroupPresentation.zd(2, [(0, 0), (1,)])


class TestWordBall:
    def test_radius_zero(self, z2_cross, gl2z):
        assert word_ball(z2_cross, 0).elements == ((0, 0),)
        assert word_ball(gl2z, 0).elements == (((1, 0), (0, 1)),)

    def test_z2_radius_two_is_l1_ball(self, z2_cross):
        # oracle: the l1 ball of radius 2 has 13 points
        expected = l1_ball(2)
        ball = word_ball(z2_cross, 2)
        assert len(ball) == 13
        assert set(ball) == expected

    def test_gl2z_radius_one_is_generating_set(self, gl2z):
        ball = word_ball(gl2z, 1)
        assert len(ball) == 6
        assert set(ball) == set(gl2z_swap_shear_generators())

    def test_monotone(self, z2_cross, gl2z):
        for group in (z2_cross, gl2z):
            previous = word_ball(group, 0)
            for n in range(1, 5):
                current = word_ball(group, n)
                assert previous.issubset(current)
                previous = current

    def test_cap(self, gl2z):
        with pytest.raises(ResourceLimitError):
            word_ball(gl2z, 10, cap=50)

    def test_negative_rejected(self, z2_cross):
        with pytest.raises(ValueError):
            word_ball(z2_cross, -1)
        with pytest.raises(ValueError):
            next(ball_layers(z2_cross, -1))


class TestBallEngine:
    """word_ball and ball_layers against the rebuild-every-round oracle."""

    @given(zd_groups(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_zd_word_ball_matches_oracle(self, group, n):
        assert word_ball(group, n) == brute_force_word_ball(group, n)

    @given(gl2z_groups, st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_gl2z_word_ball_matches_oracle(self, group, n):
        assert word_ball(group, n) == brute_force_word_ball(group, n)

    @given(st.one_of(zd_groups(), gl2z_groups))
    @settings(max_examples=40, deadline=None)
    def test_layers_are_the_fresh_elements(self, group):
        previous = set()
        for n, (ball, layer) in enumerate(ball_layers(group, 4)):
            expected = brute_force_word_ball(group, n)
            assert ball == set(expected)
            assert sorted(layer) == [x for x in expected if x not in previous]
            previous = ball

    def test_cap_is_exact_at_the_ball_size(self, gl2z, z2_cross):
        assert len(word_ball(gl2z, 4, cap=178)) == 178
        with pytest.raises(ResourceLimitError, match="exceeded 177 elements"):
            word_ball(gl2z, 4, cap=177)
        assert len(word_ball(z2_cross, 5, cap=61)) == 61
        with pytest.raises(ResourceLimitError, match="^word ball exceeded 60 elements$"):
            word_ball(z2_cross, 5, cap=60)

    @given(st.one_of(zd_groups(), gl2z_groups), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_the_stream_stops_at_its_radius(self, group, r):
        # past radius + 1 the Z^d codes wrap: the stream takes no radius past
        # its codec's, and ends at the last radius asked for
        codec = BallCodec(group, r)
        balls = [(n, codec.elements(ball)) for n, ball, _ in codec.layers(range(r + 1))]
        assert balls == [(k, brute_force_word_ball(group, k)) for k in range(r + 1)]
        for ns in (range(r + 2), range(r + 1, r + 3), range(-1, r + 1), range(r, -2, -1)):
            with pytest.raises(ValueError, match="increasing range within"):
                next(codec.layers(ns))

    @given(
        st.one_of(
            st.tuples(st.one_of(zd_groups(), gl2z_groups), st.just(4)),
            st.tuples(st.sampled_from(FINITE_GROUPS), st.just(12)),
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_layers_yield_the_radii_asked_for(self, case, data):
        # ranges of any step, past the first empty layer where the group is
        # finite, in a codec whose radius top may pass the range's last n
        group, top = case
        start = data.draw(st.integers(0, top))
        ns = range(start, data.draw(st.integers(start + 1, top + 1)), data.draw(st.integers(1, 3)))
        codec = BallCodec(group, top)
        streamed = [(n, codec.elements(ball), codec.elements(layer)) for n, ball, layer in codec.layers(ns)]
        expected = []
        for n in ns:
            ball = brute_force_word_ball(group, n)
            before = brute_force_word_ball(group, n - 1) if n else ElementSet(())
            expected.append((n, ball, ball.difference(before)))
        assert streamed == expected

    @pytest.mark.parametrize("group, sizes", zip(FINITE_GROUPS, ([1], [1, 1], [1, 1])))
    def test_no_product_after_the_first_empty_layer(self, group, sizes, monkeypatch):
        # {0} has layer(1) empty, the two-element groups layer(2): every
        # later ball is the same, so the stream to radius 50 multiplies only
        # the layers before that one
        codec, multiplied = BallCodec(group, 50), []
        product_set = codec.product_set

        def counting_product_set(codes, gens):
            multiplied.append(len(codes))
            return product_set(codes, gens)

        monkeypatch.setattr(codec, "product_set", counting_product_set)
        [(n, ball, layer)] = codec.layers(range(50, 51))
        assert (n, codec.elements(ball), layer) == (50, brute_force_word_ball(group, len(sizes)), set())
        assert multiplied == sizes

    def test_cap_fires_before_a_full_round(self, gl2z, monkeypatch):
        # Only elements already in the ball get multiplied, so fewer than
        # |S| * cap products are formed before the cap fires. Multiplying the
        # whole ball each round would form 20,922 here. The products are
        # counted at the engine's product step.
        from latmink import groups

        calls = [0]
        product_set = groups._gl2z_product_set

        def counting_product_set(codes, gens):
            calls[0] += len(codes) * len(gens)
            return product_set(codes, gens)

        monkeypatch.setattr(groups, "_gl2z_product_set", counting_product_set)
        with pytest.raises(ResourceLimitError):
            word_ball(gl2z, 40, cap=2000)
        assert 0 < calls[0] < len(gl2z.generators) * 2000


class TestInteriorAndBoundary:
    def test_z1_segment(self):
        group = GroupPresentation.zd(1, [(-1,), (0,), (1,)])
        subset = ElementSet([(k,) for k in range(-2, 3)])
        assert omega_interior(group, subset).elements == ((-1,), (0,), (1,))
        assert omega_boundary(group, subset).elements == ((-2,), (2,))

    def test_empty_subset(self, z2_cross):
        empty = ElementSet([])
        assert len(omega_interior(z2_cross, empty)) == 0
        assert len(omega_boundary(z2_cross, empty)) == 0

    def test_gl2z_swap_is_interior(self, gl2z):
        w = gl2z_swap_shear_generators()
        ball1 = word_ball(gl2z, 1)
        assert w[1] in omega_interior(gl2z, ball1)
        assert w[1] not in omega_boundary(gl2z, ball1)

    def test_z2_ball3_boundary_is_sphere(self, z2_cross):
        # oracle: the boundary of the radius-3 l1 ball is the 12-point sphere
        ball = word_ball(z2_cross, 3)
        boundary = omega_boundary(z2_cross, ball)
        expected = {p for p in l1_ball(3) if abs(p[0]) + abs(p[1]) == 3}
        assert len(boundary) == 12
        assert set(boundary) == expected

    def test_boundary_is_part_of_the_set(self, z2_cross):
        ball = word_ball(z2_cross, 2)
        assert omega_boundary(z2_cross, ball).issubset(ball)


class TestCheckBoundaryEquality:
    def test_z1_holds_for_all_small_n(self):
        group = GroupPresentation.zd(1, [(-1,), (0,), (1,)])
        for n in range(1, 7):
            assert check_boundary_equality(group, n).holds

    def test_polytope_groups_hold(self):
        for poly in (cross_polytope(2), cube(2, -1, 1), cross_polytope(3)):
            group = zd_presentation_from_polytope(poly)
            for n in range(1, 6):
                report = check_boundary_equality(group, n)
                assert report.holds, (poly, n)
                assert len(report.lhs_minus_rhs) == 0

    def test_gl2z_fails_at_one(self, gl2z):
        report = check_boundary_equality(gl2z, 1)
        assert not report.holds
        assert gl2z_swap_shear_generators()[1] in report.rhs_minus_lhs
        assert len(report.lhs_minus_rhs) == 0

    def test_rejects_n_zero(self, z2_cross):
        with pytest.raises(ValueError):
            check_boundary_equality(z2_cross, 0)
        with pytest.raises(ValueError):
            check_boundary_equality_range(z2_cross, range(0, 3))

    @given(st.one_of(zd_groups(), gl2z_groups), st.integers(1, 4), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_range_matches_oracle_balls(self, group, lo, extra):
        reports = check_boundary_equality_range(group, range(lo, lo + extra + 1))
        assert [r.n for r in reports] == list(range(lo, lo + extra + 1))
        for r in reports:
            ball = brute_force_word_ball(group, r.n)
            fresh = ball.difference(brute_force_word_ball(group, r.n - 1))
            boundary = omega_boundary(group, ball)
            assert r.rhs_minus_lhs == fresh.difference(boundary)
            assert len(r.lhs_minus_rhs) == 0
            assert r.holds == (len(r.rhs_minus_lhs) == 0)
            assert r == check_boundary_equality(group, r.n)

    def test_empty_range(self, gl2z):
        assert check_boundary_equality_range(gl2z, range(3, 3)) == []


@st.composite
def codec_cases(draw):
    """A Z^d group (d <= 5, generator coordinates in -3..3, possibly all 0), a
    radius, and the bound R = (radius + 1) * max|g| (at least 1) of its codes."""
    d = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=4))
    group = GroupPresentation.zd(d, [(0,) * d] + gens)
    radius = draw(st.integers(0, 6))
    size = max(abs(c) for g in group.generators for c in g)
    return group, radius, max(1, (radius + 1) * size)


def box_points(d, bound):
    """Points of the box |x_i| <= bound, with coordinates of exactly +-bound often."""
    coordinate = st.one_of(st.sampled_from([-bound, bound]), st.integers(-bound, bound))
    return st.tuples(*[coordinate] * d)


class TestBallCodec:
    """Z^d codes: an injective, order-preserving homomorphism on the box |x_i| <= R."""

    @given(codec_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_encode_is_additive(self, case, data):
        group, radius, bound = case
        codec = BallCodec(group, radius)
        x, y = data.draw(box_points(group.dim, bound)), data.draw(box_points(group.dim, bound))
        assert codec.encode([tuple(map(add, x, y))]) == [sum(codec.encode([x, y]))]

    @given(codec_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_injective_and_lex_ordered_on_the_box(self, case, data):
        group, radius, bound = case
        codec = BallCodec(group, radius)
        x, y = data.draw(box_points(group.dim, bound)), data.draw(box_points(group.dim, bound))
        cx, cy = codec.encode([x, y])
        assert (cx == cy) == (x == y)
        assert (cx < cy) == (x < y)

    @given(codec_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_decode_inverts_encode(self, case, data):
        group, radius, bound = case
        codec = BallCodec(group, radius)
        points = data.draw(st.lists(box_points(group.dim, bound), max_size=8))
        corners = list(itertools.product((-bound, bound), repeat=group.dim))
        for pts in (points, corners):
            decoded = list(codec.decode(codec.encode(pts)))
            assert decoded == pts
            assert all(type(x) is tuple and all(type(c) is int for c in x) for x in decoded)

    @given(codec_cases())
    @settings(max_examples=60, deadline=None)
    def test_the_box_is_exactly_the_bound(self, case):
        # one step past the box, a point shares its code with a point inside
        group, radius, bound = case
        assume(group.dim >= 2)
        codec = BallCodec(group, radius)
        zeros = (0,) * (group.dim - 2)
        outside, inside = codec.encode([zeros + (0, bound + 1), zeros + (1, -bound)])
        assert outside == inside

    @pytest.mark.parametrize("d", range(1, 6))
    def test_all_zero_generators(self, d):
        group = GroupPresentation.zd(d, [(0,) * d])
        codec = BallCodec(group, 7)
        assert codec.generators == (codec.identity,) == (0,)
        corners = list(itertools.product((-1, 1), repeat=d))  # the bound is 1
        assert list(codec.decode(sorted(codec.encode(corners)))) == corners
        assert [len(ball) for ball, _ in ball_layers(group, 4, cap=1)] == [1] * 5
        assert word_ball(group, 3, cap=0).elements == ((0,) * d,)

    @given(codec_cases(), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_bare_stream_bound(self, case, cap):
        # a ball of radius n with a nonzero generator has at least n + 1
        # elements, so a stream of radius cap stops at the cap
        group, _, _ = case
        assume(len(group.generators) > 1)
        previous = set()
        with pytest.raises(ResourceLimitError):
            for n, (ball, layer) in enumerate(ball_layers(group, cap, cap)):
                expected = brute_force_word_ball(group, n)
                assert ball == set(expected)
                assert layer == tuple(x for x in expected if x not in previous)
                previous = ball


class TestCodedAgainstTupleOracles:
    """Coded boundaries against tuple products over the oracle balls."""

    @given(st.one_of(zd_groups(), gl2z_groups, codec_cases().map(lambda case: case[0])), st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_boundary_reports(self, group, lo, extra):
        assume(len(brute_force_word_ball(group, lo + extra)) <= 3000)
        for r in check_boundary_equality_range(group, range(lo, lo + extra + 1)):
            ball = brute_force_word_ball(group, r.n)
            fresh = ball.difference(brute_force_word_ball(group, r.n - 1))
            boundary = brute_force_boundary(group, ball)
            rhs_minus_lhs = fresh.difference(boundary)
            assert r == BoundaryReport(r.n, len(rhs_minus_lhs) == 0, boundary.difference(fresh), rhs_minus_lhs)

    @given(st.one_of(zd_groups(), codec_cases().map(lambda case: case[0])), st.data())
    @settings(max_examples=80, deadline=None)
    def test_boundary_of_any_subset(self, group, data):
        # not a ball: the codes must cover the subset's own coordinates
        subset = ElementSet(data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * group.dim), max_size=30)))
        boundary = brute_force_boundary(group, subset)
        assert omega_boundary(group, subset) == boundary
        assert omega_interior(group, subset) == subset.difference(boundary)

    @given(st.lists(st.sampled_from(_small_gl2z()), max_size=10).map(ElementSet), gl2z_groups)
    @settings(max_examples=40, deadline=None)
    def test_gl2z_boundary_of_any_subset(self, subset, group):
        assert omega_boundary(group, subset) == brute_force_boundary(group, subset)


HUGE = 10**30


@st.composite
def huge_gl2z_groups(draw):
    """GL(2, Z) presentations with entries up to 10^30: upper and lower shears
    by huge k, their inverses, and their products with the swap or -I."""
    ks = draw(st.lists(st.integers(-HUGE, HUGE), min_size=1, max_size=3))
    swap, minus = ((0, 1), (1, 0)), ((-1, 0), (0, -1))
    pool = []
    for k in ks:
        upper, lower = ((1, k), (0, 1)), ((1, 0), (k, 1))
        pool += [upper, ((1, -k), (0, 1)), lower, _product(upper, swap), _product(swap, lower), _product(minus, upper)]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return GroupPresentation.gl2z([GL2Z_IDENTITY] + gens)


class TestFlatGL2ZCodes:
    """GL(2, Z) codes are flat tuples: no bound, entries of any size, and
    sorted codes decode in canonical order."""

    @given(huge_gl2z_groups(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_huge_entries_word_ball_and_layers(self, group, n):
        assert word_ball(group, n) == brute_force_word_ball(group, n)
        previous = set()
        for k, (ball, layer) in enumerate(ball_layers(group, n)):
            expected = brute_force_word_ball(group, k)
            assert ball == set(expected)
            assert layer == tuple(x for x in expected if x not in previous)
            previous = ball

    @given(huge_gl2z_groups(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_huge_entries_boundary_reports(self, group, top):
        for r in check_boundary_equality_range(group, range(1, top + 1)):
            ball = brute_force_word_ball(group, r.n)
            fresh = ElementSet(x for x in ball if x not in brute_force_word_ball(group, r.n - 1))
            boundary = brute_force_boundary(group, ball)
            lhs_minus_rhs = ElementSet(x for x in boundary if x not in fresh)
            rhs_minus_lhs = ElementSet(x for x in fresh if x not in boundary)
            assert r == BoundaryReport(r.n, len(rhs_minus_lhs) == 0, lhs_minus_rhs, rhs_minus_lhs)

    @given(huge_gl2z_groups(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_interior_of_any_subset(self, group, data):
        # not a ball: elements of a huge ball and of the small matrices, mixed
        pool = brute_force_word_ball(group, 2).elements + tuple(_small_gl2z())
        subset = ElementSet(data.draw(st.lists(st.sampled_from(pool), max_size=30)))
        boundary = brute_force_boundary(group, subset)
        interior = omega_interior(group, subset)
        assert interior == ElementSet(a for a in subset if a not in boundary)
        assert omega_boundary(group, subset) == boundary

    @given(huge_gl2z_groups(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_the_tuple_product(self, group, data):
        generators = st.sampled_from(group.generators.elements)
        a, b = data.draw(generators), data.draw(generators)
        assert group.mul(a, b) == _product(a, b)

    @given(huge_gl2z_groups(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_elements_is_the_sorted_decode(self, group, data):
        entry = st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))
        codes = set(data.draw(st.lists(st.tuples(*[entry] * 4), max_size=20)))
        codec = BallCodec(group, 0)
        got, expected = codec.elements(codes), ElementSet(codec.decode(codes))
        assert got.elements == expected.elements
        assert got._members == expected._members
        assert codec.encode(got.elements) == sorted(codes)


class TestRowsSets:
    """A GL(2, Z) set of BallCodec.elements holds its sorted codes as rows and
    nests them into matrices at its first read of elements; the eager set of
    the same matrices, built from a caller's elements, is the oracle."""

    @staticmethod
    def eager(codes) -> ElementSet:
        return ElementSet(((a, b), (c, d)) for a, b, c, d in codes)

    @given(st.one_of(gl2z_groups, huge_gl2z_groups()), st.integers(0, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_rows_set_is_the_eager_set(self, group, n, data):
        codec = BallCodec(group, n)
        [(_, ball, _)] = codec.layers(range(n, n + 1))
        pool = sorted(ball)
        codes, others = data.draw(st.sets(st.sampled_from(pool))), data.draw(st.sets(st.sampled_from(pool)))
        eager, other = self.eager(codes), self.eager(others)
        rows = codec.elements(codes)
        assert (rows.rows, rows.shape, rows._elements) == (tuple(sorted(codes)), (2, 2), None)
        assert len(rows) == len(eager) and repr(rows) == repr(eager)
        items = iter(rows)
        assert rows._elements is None  # iteration nests nothing before its first item
        assert list(items) == list(eager) and rows.elements == eager.elements
        probes = [((a, b), (c, d)) for a, b, c, d in pool] + [GL2Z_IDENTITY, ((0, 1), (1, 0))]
        for read in (
            lambda s: s.elements,
            lambda s: [x in s for x in probes],
            lambda s: (s == other, other == s, s == rows, s != eager),
            lambda s: hash(s),
            lambda s: len(s.difference(other)),
            lambda s: s.difference(other).elements,
            lambda s: s.issubset(other),
            lambda s: other.issubset(s),
        ):
            assert read(codec.elements(codes)) == read(eager)
        difference = codec.elements(codes).difference(codec.elements(others))
        assert (difference.rows, difference.shape) == (tuple(sorted(codes - others)), (2, 2))
        assert difference == eager.difference(other)

    def test_a_rows_set_of_the_radius_7_ball(self, gl2z):
        ball = word_ball(gl2z, 7)
        assert (len(ball), ball._elements) == (1876, None)
        assert ball == brute_force_word_ball(gl2z, 7) and ball._elements is not None


# The benchmark's Z^d polytope groups, (polytope, largest n of its boundary range).
ZD_CASES = [
    (cross_polytope(2), 6),
    (cube(2, -1, 1), 5),
    (cross_polytope(3), 5),
    (cube(3, -1, 1), 3),
]


class TestFreshLayerBoundary:
    """check_boundary_equality_range and ball_boundary test the fresh layer
    alone; the full-ball form, every element of ball(n) tested, is the oracle."""

    def test_gl2z_fails_at_every_n(self, gl2z):
        reports = check_boundary_equality_range(gl2z, range(1, 8))
        assert reports == full_ball_boundary_reports(gl2z, range(1, 8))
        assert [len(r.rhs_minus_lhs) for r in reports] == [1, 4, 12, 24, 52, 118, 196]
        assert not any(r.holds or r.lhs_minus_rhs for r in reports)

    @pytest.mark.parametrize("poly, hi", ZD_CASES)
    def test_polytope_groups(self, poly, hi):
        group = zd_presentation_from_polytope(poly)
        reports = check_boundary_equality_range(group, range(1, hi + 1))
        assert reports == full_ball_boundary_reports(group, range(1, hi + 1))
        assert all(r.holds for r in reports)

    @pytest.mark.parametrize("group", FINITE_GROUPS)
    def test_past_the_first_empty_layer(self, group):
        reports = check_boundary_equality_range(group, range(3, 7))
        assert reports == full_ball_boundary_reports(group, range(3, 7))
        assert all(r.holds for r in reports)

    @given(
        st.one_of(zd_groups(), gl2z_groups, huge_gl2z_groups(), codec_cases().map(lambda case: case[0])),
        st.integers(1, 3),
        st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_reports_match_the_full_ball_form(self, group, lo, extra):
        ns = range(lo, lo + extra + 1)
        assert check_boundary_equality_range(group, ns) == full_ball_boundary_reports(group, ns)

    @given(st.one_of(zd_groups(), gl2z_groups, huge_gl2z_groups()), st.integers(0, 2), st.data())
    @settings(max_examples=120, deadline=None)
    def test_interior_matches_the_product_table(self, group, radius, data):
        # codes and within are any subsets of ball(radius + 1), whose codes
        # and products the codec's bound covers; codes need not lie in within
        codec = BallCodec(group, radius + 1)
        [(_, ball, _)] = codec.layers(range(radius + 1, radius + 2))
        pool = sorted(ball)
        codes = data.draw(st.sets(st.sampled_from(pool)))
        within = data.draw(st.sets(st.sampled_from(pool)))
        if data.draw(st.booleans()):
            within |= codes
        assert codec.interior(codes, within) == table_interior(codec, codes, within)
        assert codec.interior(codes, ball) == table_interior(codec, codes, ball)

    @staticmethod
    def products_formed(monkeypatch, group, ns) -> int:
        """The products the two kernels of BallCodec form in check_boundary_equality_range(group, ns):
        product_set one for each code and generator, products_by one for each code."""
        counted, init = [0], BallCodec.__init__

        def counting_init(codec, *args):
            init(codec, *args)
            product_set, products_by = codec.product_set, codec.products_by

            def counting_product_set(codes, by):
                counted[0] += len(codes) * len(by)
                return product_set(codes, by)

            def counting_products_by(codes, w):
                counted[0] += len(codes)
                return products_by(codes, w)

            codec.product_set, codec.products_by = counting_product_set, counting_products_by

        monkeypatch.setattr(BallCodec, "__init__", counting_init)
        check_boundary_equality_range(group, ns)
        return counted[0]

    def test_products_of_the_fresh_layers_only(self, gl2z, monkeypatch):
        # the stream multiplies layers 0..4 by the five generators other than
        # the identity (890 products) and the interior test forms 961 for
        # layers 1..5; by all six generators and a full product table they took
        # 1,068 and 2,502 (3,570 in all), and testing every element of balls
        # 1..5, as the full-ball form does, takes 4,164 for the interior test
        assert self.products_formed(monkeypatch, gl2z, range(1, 6)) == 1851

    def test_products_of_the_fresh_layers_only_on_a_cube(self, monkeypatch):
        # the Z^3 group of cube(3, -1, 1): layers 0..2 by 26 generators (3,250)
        # and 1,313 for the interior test; by all 27 generators and a full
        # product table they took 3,375 and 9,234 (12,609 in all)
        group = zd_presentation_from_polytope(cube(3, -1, 1))
        assert self.products_formed(monkeypatch, group, range(1, 4)) == 4563

    @given(
        st.one_of(
            st.tuples(st.one_of(zd_groups(), gl2z_groups, huge_gl2z_groups()), st.integers(0, 4)),
            st.tuples(st.sampled_from(FINITE_GROUPS), st.integers(0, 6)),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_ball_boundary_is_the_boundary_of_the_ball(self, case):
        group, n = case
        assert ball_boundary(group, n) == omega_boundary(group, word_ball(group, n))

    def test_ball_boundary_cap_and_radius(self, gl2z, z2_cross):
        assert ball_boundary(z2_cross, 3).elements == tuple(sorted(p for p in l1_ball(3) if sum(map(abs, p)) == 3))
        assert len(ball_boundary(gl2z, 4, cap=178)) == len(omega_boundary(gl2z, word_ball(gl2z, 4)))
        with pytest.raises(ResourceLimitError, match="^word ball exceeded 177 elements$"):
            ball_boundary(gl2z, 4, cap=177)
        with pytest.raises(ValueError, match="n must be >= 0"):
            ball_boundary(gl2z, -1)


class TestInclusionChains:
    @pytest.mark.parametrize("builder", [
        lambda: GroupPresentation.zd(1, [(-1,), (0,), (1,)]),
        lambda: zd_presentation_from_polytope(cross_polytope(2)),
        lambda: zd_presentation_from_polytope(cube(2, -1, 1)),
        lambda: zd_presentation_from_polytope(symmetric_example_polytope()),
        lambda: GroupPresentation.gl2z(gl2z_swap_shear_generators()),
    ])
    def test_chains_hold(self, builder):
        group = builder()
        previous = word_ball(group, 0)
        for n in range(1, 6):
            current = word_ball(group, n)
            interior = omega_interior(group, current)
            boundary = omega_boundary(group, current)
            assert previous.issubset(interior)
            assert interior.issubset(current)
            assert boundary.issubset(current.difference(previous))
            previous = current


class TestZdPresentationFromPolytope:
    def test_symmetric_square(self):
        group = zd_presentation_from_polytope(cube(2, -1, 1))
        assert len(group.generators) == 9

    def test_cross_3d(self):
        group = zd_presentation_from_polytope(cross_polytope(3))
        assert len(group.generators) == 7

    def test_symmetric_example_nine_generators(self):
        group = zd_presentation_from_polytope(symmetric_example_polytope())
        assert len(group.generators) == 9

    def test_requires_origin(self):
        shifted = LatticePolytope([(1, 1), (2, 1), (1, 2)])
        with pytest.raises(ValueError, match="origin"):
            zd_presentation_from_polytope(shifted)


class TestWordBallOracle:
    def test_verify_claim_does_not_compare_the_engine_with_itself(self, monkeypatch):
        from latmink import verify

        def engine_power(*args):
            raise AssertionError("minkowski_power reads the same engine as word_ball")

        monkeypatch.setattr(verify, "minkowski_power", engine_power)
        ok, detail = verify._claim_word_ball_equals_minkowski(0)
        assert ok and detail == "word balls match n-fold Minkowski sums for n <= 5"

    def test_equals_minkowski_power(self):
        polytopes = [
            LatticePolytope([(-1,), (1,)]),
            cross_polytope(2),
            cube(2, -1, 1),
            symmetric_example_polytope(),
        ]
        for poly in polytopes:
            group = zd_presentation_from_polytope(poly)
            omega = poly.integer_points(1)
            for n in range(6):
                assert set(word_ball(group, n)) == set(minkowski_power(omega, n).points)

    def test_equality_for_low_n_implies_boundary_equality(self):
        # seeded polygons containing the origin: dilation equality holds in
        # the plane, so the ball boundary must equal the fresh layer
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            poly = random_lattice_polygon(rng)
            if (0, 0) not in poly.integer_points(1):
                continue
            assert all(check_equality(poly, m).holds for m in range(1, 7))
            group = zd_presentation_from_polytope(poly)
            for n in range(1, 6):
                assert check_boundary_equality(group, n).holds
            checked += 1


class TestBoundaryFromDilation:
    """The link between the two questions. For S containing 0 and P = conv S,
    an interior element a of ball(n) has a + v in ball(n), within nP, for each
    vertex v of P (all in S), so a lies in the Minkowski difference of nP and P,
    which is (n-1)P. For S = P & Z^d, dilation equality at n - 1 then leaves the
    fresh layer no interior element: boundary equality at n."""

    @given(zd_groups(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_interior_of_the_ball_lies_in_the_smaller_dilation(self, group, n):
        s = group.generators.elements
        smaller = set(LatticePolytope(s).integer_points(n - 1).points)
        assert set(omega_interior(group, word_ball(group, n))) <= smaller

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_dilation_equality_at_n_minus_1_gives_boundary_equality_at_n(self, seed):
        # seeded clouds with 0 in [-1, 2]^d, d = 2, 3 (the dilation fails for some
        # 3-D ones), or a polygon in the plane z = x + y of Z^3; at n = 1 the
        # dilation at 0 holds, 0P = {0} = 0 * Omega
        rng = random.Random(seed)
        d = rng.randint(2, 3)
        cloud = [(0,) * d] + [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(rng.randint(2, 6))]
        if seed % 4 == 0:
            cloud = [(x, y, x + y) for x, y, *_ in cloud]
        poly = hull(cloud)
        dilation = per_point_equality_reports(poly, range(1, 4))
        boundary = full_ball_boundary_reports(zd_presentation_from_polytope(poly), range(1, 5))
        for n, report in enumerate(boundary, 1):
            if n == 1 or dilation[n - 2].holds:
                assert report.holds
