"""Lattice simplices, unimodularity tests, and primitive triangulations.

A lattice simplex is elementary when its only integer points are its
vertices, and primitive (unimodular) when its edge matrix has determinant
+-1; primitive implies elementary. A triangulation is a face-to-face cover
of a polytope by full-dimensional lattice simplices, and is elementary or
primitive when all of its simplices are. This module classifies simplices,
validates triangulations exactly, and searches for primitive triangulations
by deterministic backtracking at desk scale.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial
from operator import and_
from typing import Iterable, Sequence

from . import linalg
from .geometry import (
    Halfspace,
    LatticePolytope,
    Point,
    PointSet,
    ResourceLimitError,
    as_point,
    as_points,
    as_rational_point,
    barycentric_forms,
    dot,
    edge_rows,
    form_plane,
    run_points,
)
from .records import Record

DEFAULT_SEARCH_BUDGET = 200_000
DEFAULT_POINT_CAP = 14
CRITERIA_MAX_DIM = 4  # the semi-exhaustive checks of unimodular_criteria


def _incidence(poly_facets: Sequence[Halfspace], point: Point) -> int | None:
    """The facets of the polytope through the point as a bitmask, bit i for
    poly_facets[i], from one slack pass; None when the point is outside."""
    mask = 0
    for i, h in enumerate(poly_facets):
        slack = h.slack(point)
        if slack < 0:
            return None
        if not slack:
            mask |= 1 << i
    return mask


def _on_facet(incidence: dict[Point, int], points: Sequence[Point]) -> bool:
    """Do the points, each with its `_incidence` mask, lie on one facet plane of the polytope?"""
    return bool(functools.reduce(and_, map(incidence.__getitem__, points)))


class LatticeSimplex:
    """Full-dimensional lattice simplex: d+1 affinely independent points of Z^d.

    Vertices are stored sorted; degenerate input is a construction error.
    One `barycentric_forms` adjugate gives the normalized volume and the
    forms, which are kept: `facets` is built from them on first read, with
    no second elimination.
    """

    def __init__(self, vertices: Iterable):
        pts = as_points(vertices)
        d = len(pts[0])
        if len(pts) != d + 1:
            raise ValueError(f"a simplex in Z^{d} needs {d + 1} distinct vertices, got {len(pts)}")
        volume, forms = barycentric_forms(pts)
        if not volume:
            raise ValueError("degenerate simplex: vertices are affinely dependent")
        self.vertices: tuple[Point, ...] = tuple(pts)
        self.dim = d
        self.normalized_volume = volume
        self._forms = forms
        self._hash = hash(self.vertices)

    @classmethod
    def _canonical(cls, vertices: tuple, normalized_volume: int) -> "LatticeSimplex":
        """The simplex of vertices, a tuple that as_points returns unchanged, of known normalized
        volume; its forms are computed by the first read of `facets`."""
        self = cls.__new__(cls)
        self.vertices, self.dim, self.normalized_volume = vertices, len(vertices) - 1, normalized_volume
        self._forms = None
        self._hash = hash(vertices)
        return self

    def volume(self) -> Fraction:
        return Fraction(self.normalized_volume, factorial(self.dim))

    def barycentric(self, point: Iterable) -> tuple[Fraction, ...]:
        """Unique barycentric coordinates of a rational point: a vertex's is the
        point's slack on the opposite facet over the vertex's own slack there."""
        q = as_rational_point(point)
        if len(q) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(Fraction(h.slack(q), h.slack(v)) for v, h in zip(self.vertices, self.facets))

    def contains(self, point: Iterable) -> bool:
        return all(c >= 0 for c in self.barycentric(point))

    @functools.cached_property
    def facets(self) -> tuple[Halfspace, ...]:
        """The d+1 facet halfspaces, oriented to contain the simplex; facet i, of barycentric form i, omits vertex i."""
        return tuple(map(form_plane, self._forms or barycentric_forms(self.vertices)[1]))

    def facet_vertex_sets(self) -> tuple[tuple[Point, ...], ...]:
        """Vertex tuples of the d+1 facets, each sorted; facet i omits vertex i."""
        return tuple(itertools.combinations(self.vertices, self.dim))[::-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeSimplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LatticeSimplex({list(self.vertices)})"


class SimplexClass(Record):
    """Classification record for one lattice simplex."""

    normalized_volume: int
    non_vertex_points: PointSet
    is_elementary: bool
    is_primitive: bool


def classify_simplex(simplex: LatticeSimplex) -> SimplexClass:
    """Elementary/primitive flags plus the witnessing non-vertex points."""
    poly = LatticePolytope(simplex.vertices)
    inside = poly.integer_points(1)
    non_vertex = inside.difference(PointSet(simplex.vertices, simplex.dim))
    elementary = len(non_vertex) == 0
    primitive = simplex.normalized_volume == 1
    if primitive and not elementary:
        raise RuntimeError("internal inconsistency: unit simplex with extra points")
    return SimplexClass(simplex.normalized_volume, non_vertex, elementary, primitive)


def is_elementary_polytope(poly: LatticePolytope) -> bool:
    """True when the polytope's only integer points are its vertices."""
    return poly.integer_points(1) == PointSet(poly.vertices, poly.dim)


def is_unimodular(matrix: Sequence[Sequence[int]]) -> bool:
    """True iff the square integer matrix has determinant +-1."""
    return abs(linalg.det_int([as_point(r) for r in matrix])) == 1


class UnimodularCriteria(Record):
    """Independent evaluations of the standard unimodularity conditions.

    For a nonsingular integer matrix the first five flags agree; the corner
    simplex flag is implied by them and is equivalent only in dimensions one
    and two.
    """

    singular: bool
    lattice_onto: bool  # columns generate all of Z^d
    inverse_integral: bool  # inverse has integer entries: det divides every cofactor
    det_unit: bool  # determinant is +1 or -1
    parallelotope_unit_volume: bool  # image of the unit cube has volume 1
    parallelotope_elementary: bool  # cube image has no integer points beyond corners
    corner_simplex_elementary: bool  # conv{0, columns} has no extra integer points

    def first_five(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.lattice_onto,
            self.inverse_integral,
            self.det_unit,
            self.parallelotope_unit_volume,
            self.parallelotope_elementary,
        )


def unimodular_criteria(matrix: Sequence[Sequence[int]]) -> UnimodularCriteria:
    """Evaluate each unimodularity condition by its own method.

    The inverse is integral iff det divides every cofactor, every entry of
    `linalg.adjugate` (A^-1 = adj(A) / det); no Fraction is built. Semi-exhaustive
    checks (lattice image, cube enumeration) bound the dimension; raise above
    CRITERIA_MAX_DIM.
    """
    rows = [as_point(r) for r in matrix]
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix is not square")
    if d > CRITERIA_MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the semi-exhaustive bound {CRITERIA_MAX_DIM}")
    det, adj = linalg.adjugate(rows)
    if det == 0:
        return UnimodularCriteria(True, False, False, False, False, False, False)

    cols = list(zip(*rows))
    lattice_onto = linalg.is_identity(linalg.hermite_normal_form(cols), d)

    inverse_integral = all(x % det == 0 for row in adj for x in row)

    det_unit = abs(det) == 1

    corners = [
        tuple(sum(c[i] for c in chosen) for i in range(d))
        for k in range(d + 1)
        for chosen in itertools.combinations(cols, k)
    ]
    parallelotope = LatticePolytope(corners)
    parallelotope_unit_volume = parallelotope.volume() == 1
    parallelotope_elementary = is_elementary_polytope(parallelotope)

    simplex = LatticeSimplex([(0,) * d] + cols)
    corner_simplex_elementary = classify_simplex(simplex).is_elementary

    return UnimodularCriteria(
        False,
        lattice_onto,
        inverse_integral,
        det_unit,
        parallelotope_unit_volume,
        parallelotope_elementary,
        corner_simplex_elementary,
    )


def sigma(d: int, m: int) -> LatticeSimplex:
    """conv{0, e_1, ..., e_{d-1}, (-1, ..., -1, m)}; normalized volume m."""
    return _corner_simplex(d, m, -1)


def sigma_prime(d: int, m: int) -> LatticeSimplex:
    """conv{0, e_1, ..., e_{d-1}, (1, ..., 1, m)}; elementary for every m."""
    return _corner_simplex(d, m, 1)


def _corner_simplex(d: int, m: int, sign: int) -> LatticeSimplex:
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    pts = [(0,) * d]
    for i in range(d - 1):
        pts.append(tuple(1 if j == i else 0 for j in range(d)))
    pts.append(tuple([sign] * (d - 1) + [m]))
    return LatticeSimplex(pts)


class Triangulation(Record):
    """An ordered list of simplices intended to triangulate a polytope."""

    polytope: LatticePolytope
    simplices: tuple[LatticeSimplex, ...]

    def __post_init__(self):
        if not self.simplices:
            raise ValueError("a triangulation needs at least one simplex")
        if any(s.dim != self.polytope.dim for s in self.simplices):
            raise ValueError("simplex dimension does not match the polytope")


class TriangulationReport(Record):
    """Outcome of validate_triangulation; problems lists every failed check."""

    valid: bool
    is_elementary: bool
    is_primitive: bool
    covered_volume: Fraction
    problems: tuple[str, ...]


def _intersection_vertices(a: LatticeSimplex, b: LatticeSimplex) -> set:
    """Vertices of a ∩ b: each d-subset of facets, normals N and offsets c, is solved by Cramer's
    rule in integers, x = num / den with num = ±adj(N) c and den = |det N|, and x is kept when
    den * offset >= <normal, num> on every facet. Only the kept points become Fractions."""
    halfspaces = list(dict.fromkeys(a.facets + b.facets))
    found = set()
    for subset in itertools.combinations(halfspaces, a.dim):
        den, adj = linalg.adjugate([h.normal for h in subset])
        if den == 0:
            continue
        num = [dot(row, [h.offset for h in subset]) for row in adj]
        if den < 0:
            den, num = -den, [-x for x in num]
        if all(den * h.offset >= dot(h.normal, num) for h in halfspaces):
            found.add(tuple(Fraction(x, den) for x in num))
    return found


def _separated(a: LatticeSimplex, b: LatticeSimplex, common: set) -> bool:
    """Integer certificate that a and b, with shared vertices common, have
    disjoint interiors and meet face-to-face.

    It holds when a halfspace containing one simplex s has the other, t, on
    its closed far side, and s or t meets its plane H in exactly the shared
    vertices: the intersection lies in H, so it is their hull, a face of
    both. Tried are each facet halfspace of s (t then meets H in at least
    the shared vertices) and the sum of those through the shared vertices,
    whose plane meets s in exactly them.
    """
    if len(common) > a.dim:
        return False  # the same simplex twice
    for s, t in ((a, b), (b, a)):
        through = [h for v, h in zip(s.vertices, s.facets) if v not in common]
        summed = Halfspace(tuple(map(sum, zip(*(h.normal for h in through)))), sum(h.offset for h in through))
        if max(summed.slack(v) for v in t.vertices) <= 0:
            return True
        for h in s.facets:
            slacks = [h.slack(v) for v in t.vertices]
            if max(slacks) <= 0 and slacks.count(0) == len(common):
                return True
    return False


def _pair_problem(a: LatticeSimplex, b: LatticeSimplex) -> str | None:
    """What keeps a and b from being two simplices of one triangulation, or None.

    A `_separated` certificate: None. The same simplex, or d shared vertices
    without a certificate (both apexes on one side of the shared facet):
    intersecting interiors. Else the vertices X of a ∩ b decide. If each lies
    on every facet of a opposite an unshared vertex, a ∩ b is the hull of the
    shared vertices: None. If not, a ∩ b is full-dimensional (the interiors
    intersect) iff the centroid of X is strictly inside a and b; else it lies
    in the boundary of one and is not a face of both.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    common = set(a.vertices) & set(b.vertices)
    if _separated(a, b, common):
        return None
    if len(common) >= a.dim:
        return "have intersecting interiors"
    xs = _intersection_vertices(a, b)
    off_face = [h for v, h in zip(a.vertices, a.facets) if v not in common]
    if all(h.slack(x) == 0 for x in xs for h in off_face):
        return None
    centroid = tuple(sum(c) / len(xs) for c in zip(*xs))
    if all(h.slack(centroid) > 0 for h in a.facets + b.facets):
        return "have intersecting interiors"
    return "do not meet face-to-face"


def relative_interiors_intersect(a: LatticeSimplex, b: LatticeSimplex) -> bool:
    """Do the open simplices share a point? Read off `_pair_problem`."""
    return _pair_problem(a, b) == "have intersecting interiors"


def simplices_face_to_face(a: LatticeSimplex, b: LatticeSimplex) -> bool:
    """Is a ∩ b a common face of both, the hull of their shared vertices?"""
    return a.vertices == b.vertices or _pair_problem(a, b) is None


def _facet_owners(simplices: Iterable[LatticeSimplex]) -> dict[tuple[Point, ...], list[tuple[LatticeSimplex, int]]]:
    """Each facet (its sorted vertex tuple) mapped to its owners (simplex,
    omit), the index of the simplex's vertex off that facet, in input order."""
    owners: dict[tuple[Point, ...], list[tuple[LatticeSimplex, int]]] = {}
    for s in simplices:
        for omit, fkey in enumerate(s.facet_vertex_sets()):
            owners.setdefault(fkey, []).append((s, omit))
    return owners


def _opposite(s: LatticeSimplex, omit: int, t: LatticeSimplex, t_omit: int) -> bool:
    """Is t's apex, its vertex t_omit, strictly beyond s's facet opposite vertex omit?"""
    return s.facets[omit].slack(t.vertices[t_omit]) < 0


def _facets_matched(simplices: Sequence[LatticeSimplex], incidence: dict[Point, int]) -> bool:
    """True when each facet (a vertex tuple) with one owner lies on a facet
    plane of the polytope (its vertices' `_incidence` masks share a bit) and
    each other facet has two owners whose apexes lie strictly on opposite
    sides of it."""
    for fkey, owned in _facet_owners(simplices).items():
        if len(owned) > 2 or (len(owned) == 1 and not _on_facet(incidence, fkey)):
            return False
        if len(owned) == 2 and not _opposite(*owned[0], *owned[1]):
            return False
    return True


def validate_triangulation(tri: Triangulation) -> TriangulationReport:
    """Exhaustive exact validation of a claimed triangulation.

    Checks: every simplex inside the polytope P; no duplicates; volumes
    summing to vol(P); pairwise disjoint interiors; pairwise face-to-face
    intersections. All failures are reported, none raise. Only the simplices
    of normalized volume other than 1 are scanned for the elementary flag.

    Each distinct vertex gets one slack pass against P's facets, its
    `_incidence`: it is inside P when no slack is negative, and the facets
    at slack 0 form its bitmask, so a facet of the simplices lies on P's
    boundary when the masks of its vertices share a bit. The covered volume
    is one Fraction, the summed normalized volumes over d!.

    When the first three checks pass, the facet-adjacency pass of
    `_facets_matched` settles the other two in integer arithmetic, linear
    in the number of simplices: each facet with one owner lies on a facet
    plane of P, and each other facet has two owners, with apexes strictly
    on opposite sides. This is the interior-facet plus covering
    characterization (De Loera, Rambau and Santos, *Triangulations*, 2010,
    Ch. 4). Sketch:

    - Covering. Let m(x) count the simplices whose interior holds x. A
      facet through a point of P's interior is not on P's boundary, so it
      has one owner on either side: m does not change across a facet plane
      away from the (d-2)-faces and the other planes, which paths in P's
      interior can avoid (codimension two). So m is a constant c almost
      everywhere on P; as every simplex lies in P, c vol(P) = vol(P) and
      c = 1. The interiors are disjoint and cover P.
    - Face-to-face. Let F be the carrier face of a point x in one simplex.
      The simplices having F as a face are closed under crossing their
      facets through x (the other owner has F as a face too); the facets
      not crossed lie on P's boundary. So their tangent cones at x fill
      P's, and a simplex through x with another carrier face would overlap
      one of them. Any two simplices thus meet in the hull of their shared
      vertices.

    Otherwise (a problem is recorded, or a facet is unmatched) every pair
    goes through the integer pair test of `_pair_problem`, which names
    intersecting interiors or a meeting that is not face-to-face.
    """
    problems: list[str] = []
    poly = tri.polytope
    simplices = tri.simplices

    if not poly.is_full_dimensional:
        return TriangulationReport(False, False, False, Fraction(0), ("polytope is not full-dimensional",))

    facets = poly.facets
    incidence = {v: _incidence(facets, v) for v in {v for s in simplices for v in s.vertices}}
    for idx, s in enumerate(simplices):
        outside = next((v for v in s.vertices if incidence[v] is None), None)
        if outside is not None:
            problems.append(f"simplex {idx} has vertex {outside} outside the polytope")

    seen: dict[tuple[Point, ...], int] = {}
    distinct: list[LatticeSimplex] = []
    for idx, s in enumerate(simplices):
        if s.vertices in seen:
            problems.append(f"simplex {idx} duplicates simplex {seen[s.vertices]}")
        else:
            seen[s.vertices] = idx
            distinct.append(s)

    covered = Fraction(sum(s.normalized_volume for s in distinct), factorial(poly.dim))
    target = poly.volume()
    if covered != target:
        problems.append(f"covered volume {covered} != polytope volume {target}")

    if problems or not _facets_matched(simplices, incidence):
        clean = not problems
        for i, j in itertools.combinations(range(len(simplices)), 2):
            problem = _pair_problem(simplices[i], simplices[j])
            if problem:
                problems.append(f"simplices {i} and {j} {problem}")
        if clean and not problems:
            raise RuntimeError("internal inconsistency: a facet is unmatched but every pair is valid")

    # a unit simplex is primitive, hence elementary: only the others are scanned
    non_unit = [classify_simplex(s) for s in distinct if s.normalized_volume != 1]
    return TriangulationReport(
        valid=not problems,
        is_elementary=all(c.is_elementary for c in non_unit),
        is_primitive=not non_unit,
        covered_volume=covered,
        problems=tuple(problems),
    )


class SearchResult(Record):
    """Result of a primitive-triangulation search.

    triangulation is None when none was found; exhausted distinguishes a
    proof of non-existence (candidate space fully explored) from running
    out of budget.
    """

    triangulation: Triangulation | None
    exhausted: bool
    nodes: int


def search_primitive_triangulation(
    poly: LatticePolytope,
    budget: int = DEFAULT_SEARCH_BUDGET,
    point_cap: int = DEFAULT_POINT_CAP,
) -> SearchResult:
    """Backtracking search for a primitive triangulation on the lattice points.

    The candidates are the (d+1)-subsets of the integer points Omega
    (counted against point_cap from `line_runs` before any is built) with
    determinant +-1. The search grows a complex by the facet-owner rule of
    `validate_triangulation`, depth first in one loop over a stack. An entry
    holds the branches left at a node, the complex there and its open
    facets: each facet (sorted vertex tuple) with one owner (simplex, omit),
    not on P's boundary. A branch is one node of the budget, and is taken
    when the candidate t meets every chosen simplex face-to-face; a facet of
    t that is open then closes, and any other not on P's boundary opens.
    That is exact as t meets the complex face-to-face: no facet gets two
    owners on one side, nor a boundary facet a second.

    The root branches on the candidates through the lex-least point, each
    determinant taken when the search reaches its subset. A node branches on
    those beyond its lex-least open facet F, owned by s: F + (q,) for the
    points q with h.slack(q) == -1, h being s's plane on F, in lex order of
    q and so of the vertex tuples. By the pyramid rule, normalized volume is
    the base's relative volume times the apex's lattice distance from its
    plane (De Loera, Rambau and Santos, *Triangulations*, 2010, Ch. 2 and 4;
    Beck and Robins, *Computing the Continuous Discretely*, Ch. 3). As s is
    unimodular, F has relative volume 1, so |det(F + (q,))| is |h.slack(q)|,
    negative beyond F. A search stopped by the budget reports nodes ==
    budget. Deterministic; exhaustion proves that no primitive triangulation
    exists.

    A branch is not pair-tested against s, the owner of the facet it is
    built across, which the stack entry keeps: t = F + (q,) meets s in
    exactly F. s lies in h's halfspace, where its apex has slack 1 and F
    slack 0, and t on the far side, where q has slack -1; so s ∩ t lies in
    h's plane, which meets s and t each in F alone. The pair test would
    always pass, and since it passes, skipping it changes neither which
    branch is taken nor where `all` stops. A facet is on P's boundary when
    the `_incidence` masks of its points share a bit.
    """
    if not poly.is_full_dimensional:
        raise ValueError("search requires a full-dimensional polytope")
    runs = poly.line_runs(1)
    count = sum(hi - lo + 1 for _, lo, hi in runs)
    if count > point_cap:
        raise ResourceLimitError(f"polytope has {count} lattice points, point cap is {point_cap}")
    d = poly.dim
    target_volume = poly.volume() * factorial(d)
    if target_volume.denominator != 1:
        raise RuntimeError("normalized volume must be an integer")
    target = int(target_volume)

    points = run_points(runs)  # in lex order, so points[0] is the lex-least vertex
    unit = functools.cache(lambda vertices: LatticeSimplex._canonical(vertices, 1))

    @functools.cache
    def beyond(fkey: tuple[Point, ...], plane: Halfspace) -> list[LatticeSimplex]:
        return [unit(tuple(sorted(fkey + (q,)))) for q in points if plane.slack(q) == -1]

    facets = poly.facets
    incidence = {p: _incidence(facets, p) for p in points}
    face_to_face = functools.cache(simplices_face_to_face)

    # combinations of the sorted points come in lex order of their vertex tuples
    through_v0 = ((points[0], *c) for c in itertools.combinations(points[1:], d))
    root = (unit(c) for c in through_v0 if abs(linalg.det_int(edge_rows(c))) == 1)
    stack = [(root, (), {}, None)]  # (branches left, complex, its open facets, their facet's owner) per node
    nodes = 0
    while stack:
        branches, chosen, open_facets, owner = stack[-1]
        t = next(branches, None)
        if t is None:
            stack.pop()
            continue
        if nodes >= budget:
            return SearchResult(None, False, nodes)
        nodes += 1
        if not all(face_to_face(u, t) for u in chosen if u is not owner):
            continue
        chosen += (t,)
        if len(chosen) == target:
            break
        grown = dict(open_facets)
        for omit, fkey in enumerate(t.facet_vertex_sets()):
            if grown.pop(fkey, None) is None and not _on_facet(incidence, fkey):
                grown[fkey] = (t, omit)
        if grown:  # else a closed complex below target volume: a dead end
            fkey = min(grown)
            s, omit = grown[fkey]
            stack.append((iter(beyond(fkey, s.facets[omit])), chosen, grown, s))
    else:
        return SearchResult(None, True, nodes)
    result = Triangulation(poly, chosen)
    report = validate_triangulation(result)
    if not (report.valid and report.is_primitive):
        raise RuntimeError(f"search produced an invalid triangulation: {report.problems}")
    return SearchResult(result, False, nodes)
