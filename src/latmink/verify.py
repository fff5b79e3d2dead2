"""Regression suite reproducing every published example and counterexample.

Each claim is a self-contained check, declared once by the @claim decorator
that gives its id and description; run_all evaluates them in declaration
order and the CLI's verify-paper subcommand renders the results. Randomized
claims are seeded and therefore reproducible; a quick run draws fewer samples.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable

from .geometry import LatticePolytope, PointSet, cross_polytope, cube
from .groups import (
    ElementSet,
    GroupPresentation,
    ball_layers,
    check_boundary_equality,
    check_boundary_equality_range,
    gl2z_swap_shear_generators,
    omega_boundary,
    omega_interior,
    word_ball,
    zd_presentation_from_polytope,
)
from .minkowski import _equality_reports, check_equality_range, decompose, minkowski_power, minkowski_sum, generates_zd
from .records import Record
from .triangulation import (
    LatticeSimplex,
    Triangulation,
    classify_simplex,
    search_primitive_triangulation,
    sigma,
    sigma_prime,
    unimodular_criteria,
    validate_triangulation,
)

# Sample counts of the seeded claims, indexed by quick: (full run, quick run).
POLYGON_SAMPLES = (200, 25)
MATRIX_SAMPLES = (500, 60)


class ClaimResult(Record):
    claim: str
    description: str
    ok: bool
    detail: str


Check = Callable[..., tuple[bool, str]]  # fn(seed, quick=...) -> (ok, detail)
CLAIMS: list[tuple[str, str, Check]] = []


def claim(claim_id: str, description: str):
    """Append (claim_id, description, fn) to CLAIMS for the decorated check fn; fn is returned unchanged."""

    def register(fn: Check) -> Check:
        CLAIMS.append((claim_id, description, fn))
        return fn

    return register


def symmetric_example_polytope() -> LatticePolytope:
    """conv{+-e1, +-e2, +-(-1,-1,3)} in Z^3."""
    pts = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]
    return LatticePolytope(pts + [tuple(-c for c in p) for p in pts])


def random_lattice_polygon(rng: random.Random, spread: int = 4) -> LatticePolytope:
    """Full-dimensional polygon with vertices drawn from [-spread, spread]^2."""
    while True:
        k = rng.randint(3, 8)
        pts = [(rng.randint(-spread, spread), rng.randint(-spread, spread)) for _ in range(k)]
        poly = LatticePolytope(pts)
        if poly.is_full_dimensional:
            return poly


def random_integer_matrix(rng: random.Random, dim: int, spread: int = 3) -> list[list[int]]:
    return [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(dim)]


def orthant_fan(dim: int) -> Triangulation:
    """The cross-polytope triangulated into 2^dim unit simplices at the origin."""
    poly = cross_polytope(dim)
    simplices = []
    for signs in sorted(itertools.product((-1, 1), repeat=dim)):
        pts = [(0,) * dim]
        for i, s in enumerate(signs):
            pts.append(tuple(s if j == i else 0 for j in range(dim)))
        simplices.append(LatticeSimplex(pts))
    return Triangulation(poly, tuple(simplices))


@claim("sigma-simplex-interior-points", "non-vertex integer points of sigma(d,m) are e_d..floor(m/d)e_d for d=3..5, m=1..6")
def _claim_sigma_interior_points(seed: int, **_) -> tuple[bool, str]:
    for d in (3, 4, 5):
        for m in range(1, 7):
            s = sigma(d, m)
            k = m // d
            expected = PointSet(
                list(s.vertices) + [tuple(0 if j < d - 1 else t for j in range(d)) for t in range(1, k + 1)],
                d,
            )
            got = LatticePolytope(s.vertices).integer_points(1)
            if got != expected:
                return False, f"d={d}, m={m}: expected {expected.points}, got {got.points}"
    return True, "non-vertex integer points are exactly e_d, 2e_d, ..., floor(m/d) e_d"


@claim("reeve-simplex-elementary", "sigma_prime(3,m) is elementary with normalized volume m for m=1..6")
def _claim_reeve_elementary(seed: int, **_) -> tuple[bool, str]:
    for m in range(1, 7):
        cls = classify_simplex(sigma_prime(3, m))
        if not cls.is_elementary or cls.normalized_volume != m:
            return False, f"m={m}: {cls}"
        if (m >= 2) == cls.is_primitive:
            return False, f"m={m}: primitivity should hold only for m=1"
    return True, "sigma_prime(3, m) is elementary with normalized volume m for m=1..6"


@claim("sigma-3-2-sum-misses-e3", "the vertex self-sum of sigma(3,2) has 10 points and omits (0,0,1)")
def _claim_sigma32_sum_misses_e3(seed: int, **_) -> tuple[bool, str]:
    verts = PointSet(sigma(3, 2).vertices, 3)
    total = minkowski_sum(verts, verts)
    if len(total) != 10:
        return False, f"vertex self-sum has {len(total)} points, expected 10"
    if (0, 0, 1) in total:
        return False, "(0,0,1) is a sum of two vertices"
    return True, "vertex self-sum has 10 points and misses (0,0,1)"


@claim("sigma-3-2-equality-breaks-at-2", "equality holds at n=1 and fails at n=2 with witness (0,0,1)")
def _claim_sigma32_equality(seed: int, **_) -> tuple[bool, str]:
    poly = LatticePolytope(sigma(3, 2).vertices)
    r1, r2 = check_equality_range(poly, range(1, 3))
    ok = r1.holds and not r2.holds and r2.witness == (0, 0, 1)
    return ok, f"n=1 holds={r1.holds}; n=2 holds={r2.holds} witness={r2.witness}"


@claim("sigma-5-2-delayed-failure", "equality holds at n=1,2 and first fails at n=3")
def _claim_sigma52_delayed(seed: int, **_) -> tuple[bool, str]:
    poly = LatticePolytope(sigma(5, 2).vertices)
    results = [r.holds for r in check_equality_range(poly, range(1, 4))]
    ok = results == [True, True, False]
    return ok, f"holds at n=1,2,3: {results}"


@claim("symmetric-counterexample", "symmetric polytope: 9 generators of Z^3, interior origin, (-1,-1,1) unreachable at n=2")
def _claim_symmetric_counterexample(seed: int, **_) -> tuple[bool, str]:
    poly = symmetric_example_polytope()
    omega = poly.integer_points(1)
    expected = PointSet(
        [
            (0, 0, 0),
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
            (-1, -1, 3), (1, 1, -3),
        ],
        3,
    )
    if omega != expected:
        return False, f"integer points: {omega.points}"
    if not generates_zd(omega):
        return False, "the nine points do not generate Z^3"
    if not poly.contains((0, 0, 0), strict=True):
        return False, "origin is not interior"
    if not poly.contains((Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2))):
        return False, "(-1/2,-1/2,1/2) not in the polytope"
    target = (-1, -1, 1)
    if target not in poly.integer_points(2):
        return False, f"{target} not in the 2-fold dilation"
    if target in minkowski_power(omega, 2):
        return False, f"{target} is a 2-fold sum"
    return True, "9 generators of Z^3, origin interior, (-1,-1,1) in 2P but not in 2*Omega"


@claim("planar-equality", "seeded random lattice polygons satisfy equality for all n <= 5")
def _claim_polygon_equality(seed: int, quick: bool = False) -> tuple[bool, str]:
    polygon_samples = POLYGON_SAMPLES[quick]
    rng = random.Random(seed)
    # every n is computed: check_equality_range would answer n = 2..5 from n = 1 by the theorem
    for i in range(polygon_samples):
        poly = random_lattice_polygon(rng)
        for report in _equality_reports(poly, range(1, 6)):
            if not report.holds:
                return False, f"polygon #{i} {list(poly.vertices)} fails at n={report.n}, witness {report.witness}"
    return True, f"{polygon_samples} seeded polygons satisfy equality for n <= 5"


@claim("volumes", "exact volumes of the unit cube, unit triangle and sigma(3,2)")
def _claim_volumes(seed: int, **_) -> tuple[bool, str]:
    checks = [
        (cube(3).volume(), Fraction(1), "unit cube"),
        (LatticePolytope([(0, 0), (1, 0), (0, 1)]).volume(), Fraction(1, 2), "unit triangle"),
        (LatticePolytope(sigma(3, 2).vertices).volume(), Fraction(1, 3), "sigma(3,2)"),
    ]
    for got, want, name in checks:
        if got != want:
            return False, f"{name}: volume {got}, expected {want}"
    return True, "unit cube has volume 1; unit triangle 1/2; sigma(3,2) 1/3"


@claim("unimodular-criteria", "seeded random matrices: the five unimodularity conditions agree and imply the corner-simplex condition")
def _claim_unimodular_criteria(seed: int, quick: bool = False) -> tuple[bool, str]:
    matrix_samples = MATRIX_SAMPLES[quick]
    rng = random.Random(seed)
    for i in range(matrix_samples):
        d = rng.randint(1, 3)
        matrix = random_integer_matrix(rng, d)
        crit = unimodular_criteria(matrix)
        flags = crit.first_five()
        if len(set(flags)) != 1:
            return False, f"matrix #{i} {matrix}: conditions disagree: {crit}"
        if flags[0] and not crit.corner_simplex_elementary:
            return False, f"matrix #{i} {matrix}: corner simplex not elementary despite unimodularity"
        if d <= 2 and crit.corner_simplex_elementary and not flags[0]:
            return False, f"matrix #{i} {matrix}: d<=2 corner simplex elementary without unimodularity"
    witness = unimodular_criteria([[1, 0, -1], [0, 1, -1], [0, 0, 2]])
    if witness.det_unit or not witness.corner_simplex_elementary:
        return False, f"sigma(3,2) matrix: {witness}"
    return True, f"{matrix_samples} seeded matrices consistent; sigma(3,2) separates the corner-simplex condition"


@claim("primitive-triangulation-pipeline", "search + validate + n-summand decomposition for cube, symmetric square and cross-polytopes")
def _claim_triangulation_pipeline(seed: int, **_) -> tuple[bool, str]:
    cases = [
        ("unit cube", cube(3)),
        ("symmetric square", cube(2, -1, 1)),
        ("cross 2d", cross_polytope(2)),
        ("cross 3d", cross_polytope(3)),
    ]
    for name, poly in cases:
        result = search_primitive_triangulation(poly)
        if result.triangulation is None:
            return False, f"{name}: no primitive triangulation found"
        report = validate_triangulation(result.triangulation)
        if not (report.valid and report.is_primitive):
            return False, f"{name}: triangulation invalid: {report.problems}"
        for n in range(1, 5):
            for x in poly.integer_points(n):
                dec = decompose(poly, result.triangulation, n, x)
                if len(dec.summands) != n:
                    return False, f"{name}: {x} decomposed into {len(dec.summands)} != {n} summands"
    return True, "search, validation and n-summand decomposition succeed for all four polytopes, n <= 4"


@claim("sigma-3-2-no-primitive-triangulation", "exhaustive search proves sigma(3,2) admits no primitive triangulation")
def _claim_sigma32_no_primitive_triangulation(seed: int, **_) -> tuple[bool, str]:
    poly = LatticePolytope(sigma(3, 2).vertices)
    result = search_primitive_triangulation(poly)
    if result.triangulation is not None:
        return False, "a primitive triangulation was found"
    if not result.exhausted:
        return False, "search stopped on budget instead of exhausting"
    return True, "candidate space exhausted: no primitive triangulation exists"


@claim("cross-polytope-orthant-fan", "2^d unit orthant simplices triangulate the cross-polytope (d=2,3)")
def _claim_orthant_fan(seed: int, **_) -> tuple[bool, str]:
    for d in (2, 3):
        tri = orthant_fan(d)
        if len(tri.simplices) != 2**d:
            return False, f"d={d}: {len(tri.simplices)} simplices"
        report = validate_triangulation(tri)
        if not (report.valid and report.is_primitive):
            return False, f"d={d}: {report.problems}"
    return True, "the 2^d orthant simplices triangulate the cross-polytope, d=2,3"


@claim("zd-boundary-equality", "ball boundary equals the fresh layer for polytope-generated Z^d presentations, n <= 5")
def _claim_zd_boundary_equality(seed: int, **_) -> tuple[bool, str]:
    cases = [
        ("cross 2d", cross_polytope(2)),
        ("symmetric square", cube(2, -1, 1)),
        ("cross 3d", cross_polytope(3)),
    ]
    for name, poly in cases:
        group = zd_presentation_from_polytope(poly)
        for report in check_boundary_equality_range(group, range(1, 6)):
            if not report.holds:
                return False, f"{name}: boundary equality fails at n={report.n}"
    return True, "boundary of the radius-n ball equals its fresh layer for n <= 5"


@claim("gl2z-products", "the six swap products close the generating set under right multiplication")
def _claim_gl2z_products(seed: int, **_) -> tuple[bool, str]:
    w = gl2z_swap_shear_generators()
    group = GroupPresentation.gl2z(w)
    expected = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    for i, j in expected.items():
        if group.mul(w[i], w[1]) != w[j]:
            return False, f"w{i} * w1 != w{j}"
    products = {group.mul(g, w[1]) for g in w}
    if not products <= set(w):
        return False, "right multiplication by the swap leaves the generating set"
    return True, "the six stated products hold, so Omega * w1 is contained in Omega"


@claim("gl2z-boundary-violation", "boundary equality fails at n=1 for the swap-shear generating set")
def _claim_gl2z_boundary_violation(seed: int, **_) -> tuple[bool, str]:
    w = gl2z_swap_shear_generators()
    group = GroupPresentation.gl2z(w)
    ball1 = word_ball(group, 1)
    if len(ball1) != 6 or set(ball1) != set(w):
        return False, f"radius-1 ball has {len(ball1)} elements"
    ball0 = word_ball(group, 0)
    if w[1] in ball0:
        return False, "swap is a word of length 0"
    boundary = omega_boundary(group, ball1)
    if w[1] in boundary:
        return False, "swap is in the boundary of the radius-1 ball"
    if w[1] not in omega_interior(group, ball1):
        return False, "swap is not interior to the radius-1 ball"
    report = check_boundary_equality(group, 1)
    if report.holds or w[1] not in report.rhs_minus_lhs:
        return False, f"boundary equality report: holds={report.holds}"
    return True, "swap lies in ball(1) minus ball(0) but not in the boundary; equality fails at n=1"


def _test_groups() -> list[tuple[str, GroupPresentation]]:
    groups = [
        ("z1 segment", zd_presentation_from_polytope(LatticePolytope([(-1,), (1,)]))),
        ("cross 2d", zd_presentation_from_polytope(cross_polytope(2))),
        ("symmetric square", zd_presentation_from_polytope(cube(2, -1, 1))),
        ("symmetric example", zd_presentation_from_polytope(symmetric_example_polytope())),
        ("gl2z", GroupPresentation.gl2z(gl2z_swap_shear_generators())),
    ]
    return groups


@claim("inclusion-chains", "ball(n-1) inside interior(ball(n)); boundary inside the fresh layer")
def _claim_inclusion_chains(seed: int, **_) -> tuple[bool, str]:
    for name, group in _test_groups():
        balls = [ElementSet(ball) for ball, _ in ball_layers(group, 5)]
        for n in range(1, 6):
            interior = omega_interior(group, balls[n])
            boundary = omega_boundary(group, balls[n])
            if not balls[n - 1].issubset(interior):
                return False, f"{name}: ball({n - 1}) not inside the interior of ball({n})"
            if not interior.issubset(balls[n]):
                return False, f"{name}: interior escapes ball({n})"
            if not boundary.issubset(balls[n].difference(balls[n - 1])):
                return False, f"{name}: boundary of ball({n}) escapes the fresh layer"
    return True, "both inclusion chains hold for every test group and n <= 5"


@claim("word-ball-equals-minkowski", "word balls over polytope presentations equal n-fold Minkowski sums")
def _claim_word_ball_equals_minkowski(seed: int, **_) -> tuple[bool, str]:
    polytopes = [
        ("z1 segment", LatticePolytope([(-1,), (1,)])),
        ("cross 2d", cross_polytope(2)),
        ("symmetric square", cube(2, -1, 1)),
        ("symmetric example", symmetric_example_polytope()),
    ]
    for name, poly in polytopes:
        group = zd_presentation_from_polytope(poly)
        omega = poly.integer_points(1)
        power = PointSet([(0,) * poly.dim], poly.dim)
        for n in range(6):
            # The fold of minkowski_sum, not minkowski_power, which reads word balls.
            if set(word_ball(group, n)) != set(power.points):
                return False, f"{name}: ball({n}) != {n}-fold Minkowski sum"
            power = minkowski_sum(power, omega)
    return True, "word balls match n-fold Minkowski sums for n <= 5"


@claim("sigma-small-point-sets", "integer points of sigma(3,2) and sigma(3,3)")
def _claim_sigma_small_points(seed: int, **_) -> tuple[bool, str]:
    p32 = LatticePolytope(sigma(3, 2).vertices).integer_points(1)
    if len(p32) != 4:
        return False, f"sigma(3,2) has {len(p32)} integer points, expected 4"
    p33 = LatticePolytope(sigma(3, 3).vertices).integer_points(1)
    expected = PointSet(list(sigma(3, 3).vertices) + [(0, 0, 1)], 3)
    if p33 != expected:
        return False, f"sigma(3,3) integer points: {p33.points}"
    return True, "sigma(3,2) has only its vertices; sigma(3,3) adds exactly (0,0,1)"


@claim("facet-counts", "facet enumeration on the unit square, unit triangle and sigma(3,2)")
def _claim_facet_counts(seed: int, **_) -> tuple[bool, str]:
    square = cube(2)
    if len(square.facets) != 4:
        return False, f"unit square has {len(square.facets)} facets"
    triangle = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    facets = triangle.facets
    if len(facets) != 3 or not any(h.normal == (1, 1) and h.offset == 1 for h in facets):
        return False, f"unit triangle facets: {facets}"
    s32 = LatticePolytope(sigma(3, 2).vertices)
    if len(s32.facets) != 4:
        return False, f"sigma(3,2) has {len(s32.facets)} facets"
    return True, "unit square has 4 facets, unit triangle 3 (with x+y <= 1), sigma(3,2) 4"


def run_all(seed: int = 0, quick: bool = False) -> list[ClaimResult]:
    """Every claim in CLAIMS order; quick takes the smaller sample counts."""
    return [ClaimResult(claim_id, description, *fn(seed, quick=quick)) for claim_id, description, fn in CLAIMS]
