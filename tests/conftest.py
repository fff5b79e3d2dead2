"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: vertices and
membership by LP instead of the hull, facets by trying every vertex subset,
point counts by exhaustive scan, determinants by permutation expansion, word
balls by multiplying the whole ball each round, Minkowski powers by folding
minkowski_sum.
"""

import itertools
from fractions import Fraction

import pytest

from latmink import ElementSet, LatticePolytope, PointSet, linalg, lp, minkowski_sum
from latmink.geometry import dot


def lp_vertices(points) -> tuple:
    """Vertices by exact LP: a point is kept when it is outside the hull of the others."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) == 1:
        return tuple(pts)
    return tuple(
        p for i, p in enumerate(pts) if not lp.point_in_convex_hull(pts[:i] + pts[i + 1 :], p)
    )


def brute_force_facets(vertices) -> list:
    """Facet (normal, offset) pairs of a full-dimensional polytope, ascending.

    Every d-subset of vertices proposes a hyperplane, kept when all vertices
    lie weakly on one side; normals are primitive and point outward.
    """
    d = len(vertices[0])
    found = set()
    for subset in itertools.combinations(vertices, d):
        base = subset[0]
        rows = [[q[i] - base[i] for i in range(d)] for q in subset[1:]]
        normal = linalg.cofactor_normal(rows, d)
        if not any(normal):
            continue  # affinely dependent subset
        normal = linalg.primitive_vector(normal)
        offset = dot(normal, base)
        values = [dot(normal, v) - offset for v in vertices]
        if any(v > 0 for v in values):
            if any(v < 0 for v in values):
                continue  # hyperplane cuts the polytope
            normal = tuple(-x for x in normal)
            offset = -offset
        found.add((normal, offset))
    return sorted(found)


def oracle_volume(vertices) -> Fraction:
    """Volume as a sum of pyramids from the first vertex over brute-force facets.

    A facet with normal a, offset b, projected by dropping a coordinate j
    with a_j != 0, bounds a pyramid of volume (b - a.apex) * vol'(F) / (d |a_j|),
    vol'(F) being the volume of the projected facet.
    """
    d = len(vertices[0])
    if d == 1:
        return Fraction(max(vertices)[0] - min(vertices)[0])
    apex = vertices[0]
    total = Fraction(0)
    for normal, offset in brute_force_facets(vertices):
        height = offset - dot(normal, apex)
        if height == 0:
            continue
        j = next(i for i, a in enumerate(normal) if a)
        facet = sorted({v[:j] + v[j + 1 :] for v in vertices if dot(normal, v) == offset})
        total += height * oracle_volume(facet) / (d * abs(normal[j]))
    return total


def brute_force_integer_points(poly: LatticePolytope, n: int) -> PointSet:
    """Scan the bounding box and decide each point by LP membership."""
    d = poly.dim
    if n == 0:
        return PointSet([(0,) * d], d)
    scaled = [tuple(n * x for x in v) for v in poly.vertices]
    los = [min(v[i] for v in scaled) for i in range(d)]
    his = [max(v[i] for v in scaled) for i in range(d)]
    pts = [
        p
        for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
        if lp.point_in_convex_hull(scaled, p)
    ]
    return PointSet(pts, d)


def is_n_fold_sum(omega: PointSet, n: int, target) -> bool:
    """Dynamic program: can target be written as a sum of n points of omega?"""
    reachable = {(0,) * omega.dim}
    for _ in range(n):
        reachable = {
            tuple(a + b for a, b in zip(p, q)) for p in reachable for q in omega.points
        }
    return tuple(target) in reachable


def _product(a, b):
    """Group product of two Z^d tuples or two 2x2 integer matrices."""
    if isinstance(a[0], tuple):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )
    return tuple(x + y for x, y in zip(a, b))


def brute_force_word_ball(group, n: int) -> ElementSet:
    """Radius-n ball by left-multiplying the whole ball by every generator, n times."""
    ball = {group.identity}
    for _ in range(n):
        ball = {_product(w, a) for w in group.generators for a in ball}
    return ElementSet(ball)


def folded_minkowski_power(s: PointSet, n: int) -> PointSet:
    """n-fold Minkowski sum as n folds of minkowski_sum, starting from {0}."""
    acc = PointSet([(0,) * s.dim], s.dim)
    for _ in range(n):
        acc = minkowski_sum(acc, s)
    return acc


@pytest.fixture
def unit_square():
    return LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def unit_triangle():
    return LatticePolytope([(0, 0), (1, 0), (0, 1)])
