"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: vertices and
membership by LP instead of the hull, facets by trying every vertex subset,
integer points by testing every point of the bounding box (by LP, or against
every facet) instead of one interval per line, volumes by pyramids over
brute-force facets, fans by recursing into a fresh hull of every facet instead
of reading the hull's boundary, lattice point counts by the Ehrhart polynomial
interpolated from box scans, determinants by permutation expansion,
hyperplane normals by d cofactor minors instead of one adjugate, affine
dimensions by the rank of a Fraction elimination instead of an integer echelon, the
beneath-beyond hull by testing every face for visibility and building every
face's plane from its points instead of flooding ridges, word balls by
multiplying the whole ball each round, ball boundaries by testing every
element of the ball instead of its fresh layer alone, Minkowski powers by
folding minkowski_sum, triangulations by an exact LP and an intersection-vertex test
(exact Fraction solves) on every pair of simplices, inverses by Gauss-Jordan
over Fractions instead of the integer adjugate, report text by
building the report's plain JSON data first for the standard library to write,
the primitive-triangulation search by recursion over the complex's facet
owner lists instead of one loop over a stack of open facets, and report
records by the frozen dataclass of their fields.
"""

import functools
import itertools
import os
import dataclasses
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import latmink
from latmink import (
    ElementSet,
    GroupPresentation,
    LatticePolytope,
    PointSet,
    ResourceLimitError,
    classify_simplex,
    linalg,
    lp,
    minkowski_sum,
    serialize,
    triangulation,
)
from latmink.geometry import _affine_frame, _Face, Halfspace, as_point, as_rational_point, dot, edge_rows
from latmink.groups import BallCodec, BoundaryReport
from latmink.records import Record
from latmink.triangulation import LatticeSimplex, SearchResult, Triangulation, TriangulationReport


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this latmink."""
    src = str(Path(latmink.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def solve_exact(matrix, rhs) -> tuple | None:
    """Solve a square linear system by Gauss-Jordan elimination over Fractions;
    None if the matrix is singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(row[n] for row in a)


def inverse_exact(rows) -> list | None:
    """Exact inverse of a square integer matrix, one Gauss-Jordan pass over
    [A | I] in Fractions; None if singular. The oracle of `linalg.adjugate`
    and of the cofactor rule that unimodular_criteria decides inverse_integral by."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def affine_rank(points) -> int:
    """Dimension of the affine hull of points: the rank of their edge rows from
    the first point, by Gaussian elimination over Fractions."""
    rows = [[Fraction(x - y) for x, y in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cofactor_normal(rows, dim: int) -> tuple:
    """Integer vector orthogonal to dim-1 given row vectors of length dim.

    Entry j is (-1)^j times the minor obtained by deleting column j; the zero
    vector signals linear dependence. For dim == 1 (no rows) this is (1,).
    """
    if len(rows) != dim - 1:
        raise ValueError("need exactly dim-1 rows")
    normal = []
    for j in range(dim):
        minor = [[row[i] for i in range(dim) if i != j] for row in rows]
        normal.append((-1) ** j * linalg.det_int(minor))
    return tuple(normal)


def plane_through(points, inside, scale: int = 1) -> Halfspace:
    """The primitive halfspace bounded by the hyperplane through d affinely
    independent points of Z^d, its normal from the cofactor minors, oriented so
    that inside / scale lies beneath it: <normal, inside> <= scale * offset."""
    normal = linalg.primitive_vector(cofactor_normal(edge_rows(points), len(points[0])))
    offset = dot(normal, points[0])
    if dot(normal, inside) > scale * offset:
        return Halfspace(tuple(-x for x in normal), -offset)
    return Halfspace(normal, offset)


def scan_beneath_beyond(pts, simplex) -> tuple:
    """geometry._beneath_beyond with no face adjacency: each added point tests
    every alive face for visibility, the horizon is the ridges of exactly one
    visible face, and each new face's plane comes from its points by
    plane_through. Returns the same (vertices, planes, faces), each face an
    (index tuple, plane) pair."""
    k = len(pts[0])
    inner = [sum(pts[i][j] for i in simplex) for j in range(k)]

    def make_face(verts):
        return _Face(verts, plane_through([pts[i] for i in verts], inner, k + 1))

    def assign(indices, faces):
        for i in indices:
            p = pts[i]
            for face in faces:
                if dot(face.normal, p) > face.offset:
                    face.outside.append(i)
                    break

    start = [make_face(tuple(i for i in simplex if i != omit)) for omit in simplex]
    alive = dict.fromkeys(start)
    members = set(simplex)
    assign((i for i in range(len(pts)) if i not in members), start)
    pending = [face for face in start if face.outside]
    while pending:
        face = pending.pop()
        if face not in alive:
            continue
        eye = max(face.outside, key=lambda i: dot(face.normal, pts[i]))
        p = pts[eye]
        visible = []
        for g in alive:  # a loop, not a comprehension: the tests count these dots by their frame
            if dot(g.normal, p) > g.offset:
                visible.append(g)
        ridges = {}
        for g in visible:
            del alive[g]
            for ridge in itertools.combinations(g.verts, k - 1):
                ridges[ridge] = ridges.get(ridge, 0) + 1
        new = [make_face(tuple(sorted(r + (eye,)))) for r, seen in ridges.items() if seen == 1]
        alive.update(dict.fromkeys(new))
        assign((i for g in visible for i in g.outside if i != eye), new)
        pending.extend(g for g in new if g.outside)

    planes = set()
    normals_at = {}
    for face in alive:
        planes.add((face.normal, face.offset))
        for i in face.verts:
            normals_at.setdefault(i, set()).add(face.normal)
    vertices = sorted(i for i, normals in normals_at.items() if len(normals) >= k and linalg.rank(normals) == k)
    return vertices, sorted(planes), [(face.verts, (face.normal, face.offset)) for face in alive]


def lp_vertices(points) -> tuple:
    """Vertices by exact LP: a point is kept when it is outside the hull of the others."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) == 1:
        return tuple(pts)
    return tuple(
        p for i, p in enumerate(pts) if not lp.point_in_convex_hull(pts[:i] + pts[i + 1 :], p)
    )


def lp_contains(poly: LatticePolytope, point) -> bool:
    """Membership decided by LP feasibility over the vertices, not by the facets."""
    q = as_rational_point(point)
    if len(q) != poly.dim:
        raise ValueError(f"point has dimension {len(q)}, expected {poly.dim}")
    return lp.point_in_convex_hull(poly.vertices, q)


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
        normal = cofactor_normal(rows, d)
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


def recursive_fan_simplices(poly: LatticePolytope) -> tuple:
    """Triangulation by recursive fans from the lex-least vertex.

    Each facet missing the apex is projected (a coordinate with a nonzero
    normal entry dropped), hulled afresh and fanned the same way; the apex is
    coned over the lifted simplices. Corners are always vertices of poly.
    """
    d = poly.dim
    verts = poly.vertices
    if len(verts) == d + 1:
        return (verts,)
    if d == 1:
        return ((verts[0], verts[-1]),)
    apex = verts[0]
    simplices = []
    for h in poly.facets:
        if h.slack(apex) == 0:
            continue  # apex lies on this facet
        drop = next(i for i in range(d) if h.normal[i] != 0)
        back = {v[:drop] + v[drop + 1 :]: v for v in verts if h.slack(v) == 0}
        for s in recursive_fan_simplices(LatticePolytope(back)):
            simplices.append((apex,) + tuple(back[p] for p in s))
    return tuple(simplices)


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


def box_scan_points(poly: LatticePolytope, n: int) -> PointSet:
    """Test every point of the dilation's bounding box against every dilated facet.

    Scans the same projection as `integer_points` (the `_cols` coordinates of
    a lower-dimensional polytope) and lifts each point found by an exact solve
    against an edge matrix of its own, from an affine frame of the vertices
    (not the polytope's equations), keeping integral lifts.
    """
    d = poly.dim
    if n == 0:
        return PointSet([(0,) * d], d)
    frame, _ = _affine_frame(poly.vertices)
    cols, edges = poly._cols, edge_rows([poly.vertices[i] for i in frame])
    ranges = [range(min(n * v[c] for v in poly.vertices), max(n * v[c] for v in poly.vertices) + 1) for c in cols]
    dilated = [(a, n * b) for a, b in poly._planes]
    inside = [p for p in itertools.product(*ranges) if all(dot(a, p) <= b for a, b in dilated)]
    if poly.is_full_dimensional:
        return PointSet(inside, d)
    base = tuple(n * x for x in poly.vertices[0])
    found = []
    for y in inside:
        coeffs = solve_exact([[e[c] for e in edges] for c in cols], [yc - base[c] for yc, c in zip(y, cols)])
        x = tuple(b + sum(t * e[i] for t, e in zip(coeffs, edges)) for i, b in enumerate(base))
        if all(c.denominator == 1 for c in x):
            found.append(tuple(map(int, x)))
    return PointSet(found, d)


def ehrhart_polynomial(poly: LatticePolytope) -> tuple:
    """Coefficients c_0, ..., c_k (Fractions) of the Ehrhart polynomial L_P(n) = |nP ∩ Z^d|.

    For a lattice polytope of dimension k, L_P is a polynomial of degree k in n
    (Ehrhart 1962; Beck and Robins, *Computing the Continuous Discretely*,
    Ch. 3), so its k + 1 values at n = 0..k fix it: they are counted by
    box_scan_points and interpolated by an exact Vandermonde solve.
    """
    k = poly.affine_dim
    counts = [len(box_scan_points(poly, n)) for n in range(k + 1)]
    return solve_exact([[n**j for j in range(k + 1)] for n in range(k + 1)], counts)


def ehrhart_value(coeffs, n: int):
    """The polynomial with coefficients coeffs (constant first) at n, negative n too."""
    return sum(c * n**j for j, c in enumerate(coeffs))


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


def brute_force_boundary(group, subset: ElementSet) -> ElementSet:
    """Elements a of subset with some left translate w*a outside it, by tuple products."""
    return ElementSet(a for a in subset if any(_product(w, a) not in subset for w in group.generators))


def full_ball_boundary_reports(group, ns: range, cap=None) -> list:
    """check_boundary_equality_range by the full-ball form: at each n of ns,
    the boundary of ball(n) is ball(n) less its interior within itself, every
    element of the ball tested, and the guard raises if that boundary leaves
    the fresh layer."""
    codec, reports = BallCodec(group, ns[-1] if ns else 0), []
    for n, ball, layer in codec.layers(ns, cap):
        lhs = ball - codec.interior(ball, ball)
        lhs_minus_rhs = codec.elements(lhs - layer)
        if len(lhs_minus_rhs) != 0:
            raise RuntimeError("internal inconsistency: boundary escaped the fresh layer")
        rhs_minus_lhs = codec.elements(layer - lhs)
        reports.append(BoundaryReport(n, len(rhs_minus_lhs) == 0, lhs_minus_rhs, rhs_minus_lhs))
    return reports


def folded_minkowski_power(s: PointSet, n: int) -> PointSet:
    """n-fold Minkowski sum as n folds of minkowski_sum, starting from {0}."""
    acc = PointSet([(0,) * s.dim], s.dim)
    for _ in range(n):
        acc = minkowski_sum(acc, s)
    return acc


def spans_face(simplex, subset) -> bool:
    """Supporting-hyperplane check that a vertex subset spans a face.

    The vertices lying on every simplex facet that contains the subset must
    be exactly the subset; for genuine simplices this always holds.
    """
    wanted = set(as_point(p) for p in subset)
    if not wanted <= set(simplex.vertices):
        return False
    if not wanted:
        return True
    carried = set(simplex.vertices)
    for h in simplex.facets:
        if all(h.slack(p) == 0 for p in wanted):
            carried &= {v for v in simplex.vertices if h.slack(v) == 0}
    return carried == wanted


def lp_interiors_intersect(a, b) -> bool:
    """Exact LP test: do the open simplices share a point?

    Maximizes the least barycentric coordinate across both simplices subject
    to describing a common point; a positive optimum is an interior witness.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    k = d + 1
    # variables: t, s_0..s_d (lambda_i = t + s_i), u_0..u_d (mu_j = t + u_j)
    a_eq = [
        [Fraction(k)] + [Fraction(1)] * k + [Fraction(0)] * k,
        [Fraction(k)] + [Fraction(0)] * k + [Fraction(1)] * k,
    ]
    b_eq = [Fraction(1), Fraction(1)]
    for i in range(d):
        coeff = [Fraction(sum(v[i] for v in a.vertices) - sum(w[i] for w in b.vertices))]
        coeff += [Fraction(v[i]) for v in a.vertices]
        coeff += [Fraction(-w[i]) for w in b.vertices]
        a_eq.append(coeff)
        b_eq.append(Fraction(0))
    objective = [1] + [0] * (2 * k)
    result = lp.maximize(objective, a_eq, b_eq)
    if result is None:
        return False
    return result[0] > 0


def _boxes_disjoint(a, b) -> bool:
    """Do the bounding boxes of the vertices of a and b miss each other on some axis?"""
    return any(max(x) < min(y) or max(y) < min(x) for x, y in zip(zip(*a.vertices), zip(*b.vertices)))


def _intersection_vertices(a, b) -> set:
    """Vertices of the intersection of two simplices, by exhausting d-subsets of facets."""
    halfspaces = list(dict.fromkeys(a.facets + b.facets))
    found = set()
    for subset in itertools.combinations(halfspaces, a.dim):
        point = solve_exact([h.normal for h in subset], [h.offset for h in subset])
        if point is not None and all(h.slack(point) >= 0 for h in halfspaces):
            found.add(point)
    return found


def pairwise_face_to_face(a, b) -> bool:
    """Face-to-face by the vertices of the intersection, with no separation certificate."""
    if a.vertices == b.vertices or _boxes_disjoint(a, b):
        return True
    common = set(a.vertices) & set(b.vertices)
    if len(common) == a.dim:
        shared = sorted(common)
        base = shared[0]
        rows = [[q[i] - base[i] for i in range(a.dim)] for q in shared[1:]]
        normal = cofactor_normal(rows, a.dim)
        offset = dot(normal, base)
        apex_a = next(v for v in a.vertices if v not in common)
        apex_b = next(v for v in b.vertices if v not in common)
        return (dot(normal, apex_a) > offset) != (dot(normal, apex_b) > offset)
    for x in _intersection_vertices(a, b):
        for coeff, vertex in zip(a.barycentric(x), a.vertices):
            if coeff != 0 and vertex not in common:
                return False
    return True


def pairwise_validate_triangulation(tri) -> TriangulationReport:
    """The validator that tests every pair of simplices with overlapping boxes.

    Same checks and problem strings as `validate_triangulation`: vertices
    inside the polytope, duplicates, the volume sum, then per pair an exact
    LP for intersecting interiors, face-to-face by intersection vertices,
    and `spans_face` on the shared vertices.
    """
    problems = []
    poly = tri.polytope
    simplices = tri.simplices
    if not poly.is_full_dimensional:
        return TriangulationReport(False, False, False, Fraction(0), ("polytope is not full-dimensional",))
    for idx, s in enumerate(simplices):
        for v in s.vertices:
            if not poly.contains(v):
                problems.append(f"simplex {idx} has vertex {v} outside the polytope")
                break
    seen = {}
    distinct = []
    for idx, s in enumerate(simplices):
        if s.vertices in seen:
            problems.append(f"simplex {idx} duplicates simplex {seen[s.vertices]}")
        else:
            seen[s.vertices] = idx
            distinct.append(s)
    covered = sum((s.volume() for s in distinct), Fraction(0))
    target = poly.volume()
    if covered != target:
        problems.append(f"covered volume {covered} != polytope volume {target}")
    for i, j in itertools.combinations(range(len(simplices)), 2):
        a, b = simplices[i], simplices[j]
        if _boxes_disjoint(a, b):
            continue
        if a.vertices == b.vertices or lp_interiors_intersect(a, b):
            problems.append(f"simplices {i} and {j} have intersecting interiors")
            continue
        if not pairwise_face_to_face(a, b):
            problems.append(f"simplices {i} and {j} do not meet face-to-face")
            continue
        shared = set(a.vertices) & set(b.vertices)
        if shared and not (spans_face(a, shared) and spans_face(b, shared)):
            problems.append(f"shared vertices of simplices {i} and {j} span no common face")
    classes = [classify_simplex(s) for s in simplices]
    return TriangulationReport(
        valid=not problems,
        is_elementary=all(c.is_elementary for c in classes),
        is_primitive=all(c.is_primitive for c in classes),
        covered_volume=covered,
        problems=tuple(problems),
    )


class _Budget(Exception):
    pass


def recursive_search(poly: LatticePolytope, budget: int, point_cap: int) -> SearchResult:
    """search_primitive_triangulation as a recursion: each call completes a
    complex from the owner lists of all its facets, rescanned for the open ones
    (one owner, not on P's boundary) and copied with the new simplex's facets at
    every step; a budget stop unwinds by an exception. Same candidates, branch
    order, node count and pair tests; the found triangulation is not validated."""
    points = poly.integer_points(1).points
    if len(points) > point_cap:
        raise ResourceLimitError(f"polytope has {len(points)} lattice points, point cap is {point_cap}")
    d = poly.dim
    target = poly.volume() * factorial(d)
    combs = itertools.combinations(points, d + 1)
    candidates = [LatticeSimplex(c) for c in combs if abs(linalg.det_int(edge_rows(c))) == 1]
    by_facet = triangulation._facet_owners(candidates)
    on_boundary = functools.cache(functools.partial(triangulation._on_boundary, poly.facets))
    face_to_face = functools.cache(triangulation.simplices_face_to_face)
    nodes = 0

    def extend(chosen, owners):
        nonlocal nodes
        if len(chosen) == target:
            return Triangulation(poly, chosen)
        if chosen:
            open_facets = [f for f, owned in owners.items() if len(owned) == 1 and not on_boundary(f)]
            if not open_facets:
                return None
            fkey = min(open_facets)
            [(s, omit)] = owners[fkey]
            branches = [t for t, t_omit in by_facet[fkey] if triangulation._opposite(s, omit, t, t_omit)]
        else:
            branches = [c for c in candidates if poly.vertices[0] in c.vertices]
        for t in branches:
            if nodes >= budget:
                raise _Budget
            nodes += 1
            if all(face_to_face(u, t) for u in chosen):
                grown = {f: owners.get(f, []) + owned for f, owned in triangulation._facet_owners([t]).items()}
                result = extend(chosen + (t,), {**owners, **grown})
                if result is not None:
                    return result
        return None

    try:
        result = extend((), {})
    except _Budget:
        return SearchResult(None, False, nodes)
    return SearchResult(result, result is None, nodes)


@functools.cache
def frozen_dataclass(record: type) -> type:
    """The frozen dataclass of a record class's fields, the form `Record`
    replaces: the oracle of its construction, repr, equality, hash and
    immutability."""
    return dataclasses.make_dataclass(record.__name__, record._fields, frozen=True)


def oracle_to_json(value):
    """The plain JSON data of a report value, the first stage of the two-stage
    form that serialize.dumps replaces: a record becomes the dict of its
    fields, a tuple, list, PointSet or ElementSet a list, a Fraction "p/q" (or
    "p"), a polytope, simplex or group its file form; any other type raises
    TypeError."""
    kind = type(value)
    if kind in (int, str, bool) or value is None:
        return value
    if kind in (tuple, list, PointSet, ElementSet):
        return [oracle_to_json(v) for v in value]
    if kind is dict:
        return {key: oracle_to_json(v) for key, v in value.items()}
    if kind is Fraction:
        return str(value)
    if kind is LatticePolytope:
        return serialize.polytope_to_dict(value)
    if kind is LatticeSimplex:
        return [list(v) for v in value.vertices]
    if kind is GroupPresentation:
        return serialize.group_to_dict(value)
    if issubclass(kind, Record):
        return {name: oracle_to_json(getattr(value, name)) for name in kind._fields}
    raise TypeError(f"no JSON form for {kind.__name__}")


@pytest.fixture
def unit_square():
    return LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def unit_triangle():
    return LatticePolytope([(0, 0), (1, 0), (0, 1)])
