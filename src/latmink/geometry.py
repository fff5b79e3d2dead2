"""Lattice polytopes with exact predicates.

A lattice polytope is stored by its irredundant integer vertex list and its
facet inequalities, both found in one beneath-beyond convex hull pass in
integer arithmetic (Barber, Dobkin and Huhdanpaa, "The Quickhull algorithm
for convex hulls", ACM TOMS 1996) that keeps each ridge's two faces: the
faces a new point sees are found by a flood from one of them, and a new
face's plane combines the two planes at its horizon ridge. As in Quickhull,
the pass starts from a simplex of extreme points (the lex-max point, then
the lex-first points of least and greatest value in each coordinate), which
spans much of the cloud, so few faces are made only to be discarded. A
point is a vertex when it is the only corner of the boundary on all of its
facets. A lower-dimensional polytope P is hulled and scanned in its own
lattice (aff P - v0) & Z^d, where all its lattice points lie. All queries --
membership, integer point enumeration, volume -- are exact: coordinates are
Python ints and derived scalars are fractions.Fraction.

Integer points are listed line by line along the last scanned coordinate, by one
rule: each plane cuts the coordinate of its last nonzero coefficient, given the
coordinates before it. The facets cut the lines, and vertical facets, free of
the last coordinate, cut earlier ones. With three or more coordinates the
scan is also handed planes of the polytope's shadow, its projection along the
last coordinate: combinations of two facets that meet at a ridge, with last
coefficients of opposite sign, that eliminate the last coordinate, read off the
hull's boundary simplices. With the vertical facets they cut out the shadow, so
only the lines through it are examined. Each level bounds the next coordinate
before it enters a prefix, so an empty prefix costs no call, and cuts each line
inline. None of the scan's plan -- each plane's cut coordinate, the order of the
planes, the box's planes and each level's coefficient tables -- depends on n: a
polytope builds its plan once, at its first scan, and walks it at every n with the
offsets and the box scaled by n.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial, gcd, isfinite, prod
from operator import floordiv, mul, neg, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from . import linalg

Point = tuple[int, ...]
RationalPoint = tuple[int | Fraction, ...]

DEFAULT_BOX_CAP = 10**8
SEQUENCES = (tuple, list)  # the containers a point, a matrix or a matrix row may come in
_RATIONALS = {int, Fraction, float}


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def box_count(los: Sequence[int], his: Sequence[int]) -> int:
    """The number of integer points of the box [los, his]."""
    return prod(hi - lo + 1 for lo, hi in zip(los, his))


def check_box(count: int, cap: int | None = None) -> None:
    """Raise ResourceLimitError if a box of count integer points is over cap (DEFAULT_BOX_CAP when None)."""
    cap = DEFAULT_BOX_CAP if cap is None else cap
    if count > cap:
        raise ResourceLimitError(f"bounding box has {count} candidate points, cap is {cap}")


def quoted_prefix(text: str) -> str:
    """repr of text's first 20 characters, then ... if text is longer: an error
    message quotes a document's literal of any length in one short line."""
    return repr(text[:20]) + ("..." if len(text) > 20 else "")


def as_point(coords: Sequence) -> Point:
    """Validate one integer point: a tuple or list of plain ints (bools are rejected)."""
    if not isinstance(coords, SEQUENCES):
        raise ValueError(f"a point must be a tuple or list, got {type(coords).__name__}")
    if not coords:
        raise ValueError("points must have dimension >= 1")
    for c in coords:
        if type(c) is not int:
            raise ValueError(f"lattice coordinates must be plain ints, got {type(c).__name__}")
    return tuple(coords)


def as_points(points: Iterable, dim: int | None = None) -> list[Point]:
    """The distinct as_point points in lex order, all of dimension dim (a plain int >= 1, required if empty)."""
    if dim is not None and (type(dim) is not int or dim < 1):
        raise ValueError(f"dimension must be a plain int >= 1, got {dim!r}")
    try:
        checked = map(as_point, points)
    except TypeError:  # map raises at once when points is not iterable
        raise ValueError(f"a point list must be iterable, got {type(points).__name__}") from None
    pts = sorted(set(checked))
    if not pts:
        if dim is None:
            raise ValueError("no points and no dimension given")
    elif any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("mixed dimensions in point list")
    elif dim is not None and dim != len(pts[0]):
        raise ValueError(f"points have dimension {len(pts[0])}, expected {dim}")
    return pts


def as_rational_point(coords: Sequence) -> RationalPoint:
    """Validate one rational point: as_point's rule, but Fractions and finite floats are read exactly too."""
    if not isinstance(coords, SEQUENCES) or not coords:
        as_point(coords)  # raises as_point's error for the container
    for c in coords:
        if type(c) not in _RATIONALS or type(c) is float and not isfinite(c):
            what = repr(c) if type(c) is float else type(c).__name__  # inf or nan: a short repr
            raise ValueError(f"rational coordinates must be ints, Fractions or finite floats, got {what}")
    return tuple(c if type(c) is int else Fraction(c) for c in coords)


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def edge_rows(points: Sequence[Point]) -> list[list[int]]:
    """The rows p - points[0] for the points p after the first."""
    return [list(map(sub, p, points[0])) for p in points[1:]]


class Halfspace(NamedTuple):
    """The halfspace {y : <normal, y> <= offset}, normal a primitive integer vector;
    the one plane type, a facet."""

    normal: Point
    offset: int

    def slack(self, point: Sequence):
        """offset - <normal, point>; nonnegative inside the halfspace."""
        return self.offset - dot(self.normal, point)


def barycentric_forms(points: Sequence[Point]) -> tuple[int, list[Point]]:
    """|det M| and the barycentric forms f_j of k+1 points p_j of Z^k, M the matrix of rows (p_j, 1): f_j is
    column j of adj M times sign(det M), so <f_j, (x, 1)> = |det M| lambda_j(x), and the facet opposite p_j
    is lambda_j >= 0 (`form_plane`). (0, []) if the points are affinely dependent."""
    det, adj = linalg.adjugate([(*p, 1) for p in points])
    columns = zip(*adj) if det else ()
    return abs(det), [col if det > 0 else tuple(map(neg, col)) for col in columns]


def form_plane(form: Sequence[int]) -> Halfspace:
    """The facet <form, (x, 1)> >= 0 of a barycentric form as a primitive outward halfspace."""
    *normal, offset = form
    div = gcd(*normal)
    return Halfspace(tuple(map(floordiv, normal, itertools.repeat(-div))), offset // div)


def _affine_frame(points: Sequence[Point]) -> tuple[list[int], linalg.Echelon]:
    """Ascending indices of affinely independent points of the lex-sorted
    `points` spanning their affine hull, and the echelon of their edge rows.

    Greedy from extreme points: the lex-max point is the base, and a candidate
    joins when its edge row from the base is independent of those kept, until
    they have full rank. The candidates come in this order: for each coordinate
    the lex-first point of least and the lex-first point of greatest value (each
    the lex-least point of a face, so a vertex), then every other point in lex
    order. The echelon's rows span the hull's direction space.
    """
    last, base = len(points) - 1, points[-1]
    columns = list(zip(*points))
    extremes = [col.index(pick(col)) for col in columns for pick in (min, max)]
    frame, echelon = [last], linalg.Echelon()
    for i in dict.fromkeys([*extremes, *range(last)]):
        if len(echelon.rows) == len(columns):
            break
        if echelon.add(list(map(sub, points[i], base))):
            frame.append(i)
    return sorted(frame), echelon


def _in_frame(x: Iterable, origin: Point, basis: Sequence[Sequence[int]], div=floordiv) -> list | None:
    """The y with x = origin + yB, B the echelon rows of basis, read off B's pivot columns row by row,
    div dividing by each pivot (floordiv on the lattice, else Fraction); None if there is none."""
    r, y = list(map(sub, x, origin)), []
    for row in basis:
        pivot = next(j for j, a in enumerate(row) if a)
        y.append(div(r[pivot], row[pivot]))
        r = [a - y[-1] * b for a, b in zip(r, row)]
    return None if any(r) else y


class _Face:
    """One simplex of the hull boundary, with its plane (also kept unpacked) and the points that see it."""

    __slots__ = ("verts", "plane", "normal", "offset", "outside")

    def __init__(self, verts: tuple[int, ...], plane: Halfspace):
        self.verts, self.plane, self.outside = verts, plane, []
        self.normal, self.offset = plane


def _beneath_beyond(
    pts: Sequence[Point], simplex: Sequence[int], start_planes: Sequence[Halfspace]
) -> tuple[list[int], list[Halfspace], list[tuple[tuple[int, ...], Halfspace]]]:
    """Vertex indices, facet planes and boundary simplices, each with its
    plane, of conv(pts), pts full-dimensional in Z^k.

    The boundary is kept as simplices, started from the ascending indices
    `simplex` of k+1 affinely independent points, the facet opposite
    simplex[j] on start_planes[j], and grown one point at a time. A point
    sees a face when it lies strictly beyond its hyperplane; a point on the
    hyperplane counts as beneath. Each face keeps the points that see it,
    so a point that sees no face is inside the hull for good.
    The returned planes are primitive outward `Halfspace`s in ascending
    order. The returned faces, (index tuple of k points, its plane) pairs, are
    the boundary of the placing triangulation of pts in the order the points
    were added: a triangulation of the hull's boundary whose corners may
    include boundary points that are not vertices.

    A corner is a vertex when it is the only corner on all of its planes,
    read off one bitmask per plane with a bit for each corner on it. The faces
    on a facet triangulate it, so each vertex of the facet is a corner on its
    plane; the facets through a vertex meet in the vertex alone, so it passes.
    A corner that is no vertex lies in the relative interior of a face G of
    dimension >= 1, and every facet through it contains G, so G's vertices
    (two or more) are corners on all of its planes: it fails.

    Before each flood, `ridges` is brought to map each ridge (a face less one
    index) to its two faces; a hull that is its start simplex builds none. The
    faces the eye sees triangulate the hull's shadow from it, so a flood from
    the eye's face finds them, testing only them and their neighbours. A horizon
    ridge parts a seen face g, s_g = <n_g, eye> - c_g > 0, from a hidden face h,
    s_h <= 0: the plane s_g (n_h, c_h) - s_h (n_g, c_g) holds the ridge and the
    eye and has `inner` beneath it, as g and h do, so over the gcd of its normal
    it is the face's primitive outward plane. Seen faces in creation order and
    horizon ridges by seen face, then in `combinations` order, keep a scan's order.
    """
    k = len(pts[0])
    # (k+1) times the centroid of the start simplex: strictly inside the hull
    inner = [sum(pts[i][j] for i in simplex) for j in range(k)]

    def assign(indices: Iterable[int], faces: Sequence[_Face]) -> None:
        for i in indices:
            p = pts[i]
            for face in faces:
                if sum(map(mul, face.normal, p)) > face.offset:
                    face.outside.append(i)
                    break

    start = [_Face(tuple(i for i in simplex if i != omit), plane) for omit, plane in zip(simplex, start_planes)]
    serials = itertools.count()
    alive = dict(zip(start, serials))  # face -> creation serial, in creation order
    members = set(simplex)
    assign((i for i in range(len(pts)) if i not in members), start)
    pending = [face for face in start if face.outside]
    ridges: dict[tuple[int, ...], list[_Face]] = {}
    new = start  # the faces not yet in `ridges`
    while pending:
        face = pending.pop()
        if face not in alive:
            continue
        for f in new:
            for ridge in itertools.combinations(f.verts, k - 1):
                ridges.setdefault(ridge, []).append(f)
        eye = max(face.outside, key=lambda i: sum(map(mul, face.normal, pts[i])))
        p = pts[eye]
        slack, visible, horizon, new = {face: dot(face.normal, p) - face.offset}, [face], [], []
        for g in visible:
            for ridge in itertools.combinations(g.verts, k - 1):
                pair = ridges.pop(ridge, (g, g))  # (g, g): a ridge of two seen faces, met again
                h = pair[pair[0] is g]
                if h not in slack and slack.setdefault(h, dot(h.normal, p) - h.offset) > 0:
                    visible.append(h)
                if slack[h] <= 0:
                    horizon.append((alive[g], ridge, g, h, slack[g], slack[h]))
        visible.sort(key=alive.pop)  # each seen face leaves alive, giving its serial as key
        for _, ridge, g, h, sg, sh in sorted(horizon):
            normal = [sg * b - sh * a for a, b in zip(g.normal, h.normal)]
            offset, div = sg * h.offset - sh * g.offset, gcd(*normal)
            if not div or dot(normal, inner) >= (k + 1) * offset:
                raise RuntimeError("internal inconsistency: a horizon plane is not outward")
            plane = Halfspace(tuple(x // div for x in normal), offset // div)
            new.append(_Face(tuple(sorted(ridge + (eye,))), plane))
            ridges[ridge] = [h]
        alive.update(zip(new, serials))
        assign((i for g in visible for i in g.outside if i != eye), new)
        pending.extend(g for g in new if g.outside)

    on: dict[Halfspace, int] = {}  # plane -> bitmask of the corners on it
    for face in alive:
        on[face.plane] = on.get(face.plane, 0) | sum(1 << i for i in face.verts)
    common: dict[int, int] = {}  # corner -> the corners on all of its planes
    for face in alive:
        bits = on[face.plane]
        for i in face.verts:
            common[i] = common.get(i, bits) & bits
    vertices = sorted(i for i, bits in common.items() if bits == 1 << i)
    return vertices, sorted(on), [(face.verts, face.plane) for face in alive]


def _line_scan(planes: Sequence[tuple[Point, int]], los: Sequence[int], his: Sequence[int]) -> Callable[[int], list]:
    """The walk of a scan plan: for n >= 0, the integer points y of the box [n los, n his]
    (k >= 1 coordinates) with <a, y> <= n b for all (a, b) in planes, nonzero normals a that
    bound a polytope, as runs (prefix, lo, hi): the points prefix + (t,) for lo <= t <= hi,
    in lex order.

    One rule: a plane cuts y_j, j the index of its last nonzero coefficient c. With
    r = n b - <a, (y_0..y_{j-1})>, it keeps y_j <= floor(r/c) if c > 0 and y_j >=
    ceil(r/c) if c < 0, within the box's range of y_j; a side of y_j that no plane cuts
    is cut by the box's own plane. A prefix a cut leaves out has no point of the polytope
    above it, so the runs are exact. None of this depends on n, so the plan -- each plane's
    cut coordinate, the order, the box planes and each level's coefficient tables -- is
    built here once, at scale 1, and the walk scales the offsets and the box by n. The loops
    over prefixes carry each plane's residual r, one subtraction a step, up to its own
    coordinate: the planes are ordered by it, latest first, so each level reads its cuts off
    the tail of the residuals and passes the rest on. The loop over y_j computes y_{j+1}'s
    interval before it enters a prefix and enters only those where it is nonempty; at
    j = k - 2 the interval is a line's run, appended with no call. An empty interval holds
    no run and the values come in the same order, so the runs and their order are those of
    a call for every prefix."""
    last, keyed = len(los) - 1, []
    for a, b in planes:
        j = last
        while not a[j]:
            j -= 1
        keyed.append(((j, a[j] > 0), a, b))
    sides = {key for key, _, _ in keyed}
    keyed += [((j, c > 0), (0,) * j + (c,) + (0,) * (last - j), his[j] if c > 0 else -los[j])
              for j in range(last + 1) for c in (1, -1) if (j, c > 0) not in sides]
    keyed.sort(key=lambda t: t[0], reverse=True)  # by coordinate, latest first; c > 0 before c < 0
    levels = []  # per coordinate j: res[:m] the residuals carried past j, res[m:p] those of c > 0, res[p:] of c < 0
    for j in range(last + 1):
        m = sum(i > j for (i, _), _, _ in keyed)
        ups = [a[j] for _, a, _ in keyed[m:] if a[j] > 0]  # a plane that cuts an earlier coordinate has a_j == 0
        step = [a[j - 1] for (i, _), a, _ in keyed if i >= j > 0]  # y_{j-1}'s coefficients on the planes carried to j
        levels.append((m, m + len(ups), ups, [-a[j] for _, a, _ in keyed[m:] if a[j] < 0], his[j], -los[j], step))
    offsets = [b for _, _, b in keyed]

    def walk(n: int) -> list[tuple[Point, int, int]]:
        scaled = [(m, p, ups, downs, n * top, n * bottom, step) for m, p, ups, downs, top, bottom, step in levels]
        m, p, ups, downs, top, bottom, _ = scaled[0]
        res = [n * b for b in offsets]
        lo, hi = -min(bottom, *map(floordiv, res[p:], downs)), min(top, *map(floordiv, res[m:p], ups))
        found: list[tuple[Point, int, int]] = [((), lo, hi)] if lo <= hi and not last else []

        def scan(j: int, prefix: Point, res: list[int], lo: int, hi: int) -> None:
            m, p, ups, downs, top, bottom, step = scaled[j + 1]
            res = [r - a * lo for r, a in zip(res, step)]
            for y in range(lo, hi + 1):
                h = min(map(floordiv, res[m:p], ups))
                g = min(map(floordiv, res[p:], downs))  # -g is y_{j+1}'s least value
                h = top if h > top else h
                g = bottom if g > bottom else g
                if h + g >= 0:
                    if j + 1 < last:
                        scan(j + 1, prefix + (y,), res, -g, h)
                    else:
                        found.append((prefix + (y,), -g, h))
                res = list(map(sub, res, step))

        if lo <= hi and last:
            scan(0, (), res, lo, hi)
        del scan  # it refers to itself: free found now, not at a later gc pass
        return found

    return walk


def run_points(runs: Iterable[tuple[Point, int, int]]) -> list[Point]:
    """The points of the runs (prefix, lo, hi), prefix + (t,) for lo <= t <= hi, in order."""
    return [prefix + (t,) for prefix, lo, hi in runs for t in range(lo, hi + 1)]


class PointSet:
    """Deduplicated finite subset of Z^d in canonical lexicographic order. Its
    member set is built at the first in, difference or issubset, then kept."""

    __slots__ = ("dim", "points", "_set")

    def __init__(self, points: Iterable, dim: int | None = None):
        self.points, self._set = tuple(as_points(points, dim)), None
        self.dim = len(self.points[0]) if self.points else dim

    @classmethod
    def _canonical(cls, points: tuple, dim: int) -> "PointSet":
        """The set of points, a tuple that as_points(points, dim) returns unchanged."""
        self = cls.__new__(cls)
        self.points, self.dim, self._set = points, dim, None
        return self

    @property
    def _members(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self.points)
        return self._set

    def __contains__(self, point) -> bool:
        try:
            return tuple(point) in self._members
        except TypeError:  # not iterable or not hashable, so not a point of the set
            return False

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.dim == other.dim
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.points))

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, {len(self.points)} points)"

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_dim(other)
        return PointSet._canonical(tuple(itertools.filterfalse(other._members.__contains__, self.points)), self.dim)

    def issubset(self, other: "PointSet") -> bool:
        self._check_dim(other)
        return self._members <= other._members

    def _check_dim(self, other: "PointSet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


class LatticePolytope:
    """Convex hull of finitely many integer points, stored by its vertices.

    Construction canonicalizes: duplicates and non-vertex points are dropped
    and the surviving vertices are kept in lexicographic order. One exact
    beneath-beyond hull pass finds the vertices and the facet inequalities
    together. A P of affine dimension k < d is hulled and scanned as Q =
    (P - v0) B^-1 in Z^k, v0 its lex-least vertex and B (`_basis`)
    the HNF basis of (aff P - v0) & Z^d, k rows in echelon form with positive
    pivots: the integer kernel of the integer kernel of the frame's edge rows.
    A full-dimensional P has B = None and Q = P. `_planes` are Q's facets,
    `_corners` its vertices and `_faces` its boundary simplices as (point
    tuple, plane) pairs: `_fan` reads them for `fan_simplices` and `volume`,
    and a scan of k >= 3 coordinates its `_shadow`. `_walk`, the one scan plan
    of Q, is built at the first scan and walked at every n.
    """

    def __init__(self, points: Iterable):
        pts = as_points(points)
        self.dim = d = len(pts[0])
        simplex, echelon = _affine_frame(pts)
        self.affine_dim = k = len(simplex) - 1
        self._basis = None if k == d else linalg.integer_kernel(linalg.integer_kernel(echelon.rows, d), d)
        work = pts if k == d else [tuple(_in_frame(p, pts[0], self._basis)) for p in pts]
        vol, forms = barycentric_forms([work[i] for i in simplex])
        if not vol:
            raise RuntimeError("internal inconsistency: the affine frame's determinant is zero")
        found, planes, faces = _beneath_beyond(work, simplex, list(map(form_plane, forms))) if k else ([0], [], [])
        self.vertices: tuple[Point, ...] = tuple(pts[i] for i in found)
        self._corners = tuple(work[i] for i in found)
        self._planes: tuple[Halfspace, ...] = tuple(planes)
        self._faces = tuple((tuple(work[i] for i in verts), plane) for verts, plane in faces)

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    @property
    def facets(self) -> tuple[Halfspace, ...]:
        """Irredundant facet halfspaces (full-dimensional polytopes only): the
        hull's planes as stored, primitive and outward, in ascending order."""
        if not self.is_full_dimensional:
            raise ValueError("facet enumeration requires a full-dimensional polytope")
        return self._planes

    def contains(self, point: Iterable, strict: bool = False) -> bool:
        """Exact membership of a rational point: a lower-dimensional polytope solves its y in
        the frame (False off the affine hull) and tests y on Q's planes, a full-dimensional one
        the point on its facets. With strict=True this tests membership in the topological
        interior, which a lower-dimensional polytope does not have."""
        q = as_rational_point(point)
        if len(q) != self.dim:
            raise ValueError(f"point has dimension {len(q)}, expected {self.dim}")
        if self._basis is not None and (strict or (q := _in_frame(q, self.vertices[0], self._basis, Fraction)) is None):
            return False  # an empty interior, or off the affine hull
        return all(h.slack(q) > 0 if strict else h.slack(q) >= 0 for h in self._planes)

    def box(self, n: int) -> tuple[list[int], list[int]]:
        """The corners of the bounding box of nQ (n >= 0), the box integer_points
        scans: in the frame's k coordinates, P's own when full-dimensional."""
        columns = [[n * x for x in column] for column in zip(*self._corners)]
        return [min(c) for c in columns], [max(c) for c in columns]

    def box_size(self, n: int) -> int:
        """The candidates a cap bounds at n >= 0: box(n)'s, or if fewer those of nP's box on B's
        pivot columns. aff P projects injectively there and y_1..y_i are read off its first i, so
        either count bounds the points and the lines a scan examines; either can be far the larger."""
        size = box_count(*self.box(n))
        if self._basis is not None:
            columns = [[v[row.index(next(filter(None, row)))] for v in self.vertices] for row in self._basis]
            size = min(size, prod(n * (max(c) - min(c)) + 1 for c in columns))
        return size

    @functools.cached_property
    def _shadow(self) -> tuple[tuple[Point, int], ...]:
        """Fourier-Motzkin planes (a, b) of Q (k >= 2) whose last coefficient is 0: with Q's
        vertical facets, those of last coefficient 0, they cut out the shadow, the projection
        of the hulled polytope Q along its last coordinate, by elimination over adjacent faces
        only (Ziegler, *Lectures on Polytopes*, GTM 152, Sec. 1.2-1.3). With c_g the last
        coefficient of face g's normal n_g, they are for each two faces g, h sharing a ridge
        with c_g * c_h < 0, |c_h| (n_g, b_g) + |c_g| (n_h, b_h) over the gcd of its entries.
        Each is a nonnegative combination of valid inequalities, so it holds on Q, and its
        normal is not 0, as the scan's rule needs: g's and h's planes both hold their common
        ridge, so antiparallel normals would put the full-dimensional Q in one hyperplane.
        With the vertical facets they cut out no more than the shadow: the points of Q a
        supporting vertical plane (u, 0) of a shadow facet meets form a face F of Q with
        (u, 0) in the relative interior of F's normal cone. If F is a facet, it is vertical;
        else F is a ridge, (u, 0) = s n_g + t n_h with s, t > 0 for its two facets, so
        s c_g + t c_h = 0: both are vertical, or they have opposite signs and (u, 0) is the
        combination up to scale. A ridge of Q is a union of ridges of the boundary
        simplices, each between a simplex in g and one in h. Built at the first scan that
        needs it. The ridge map holds the ridges of the faces with c > 0: a ridge lies in
        two faces, so one of a face with c < 0 found there joins the two. A hull that is
        its start simplex has every two faces adjacent, so it builds no ridge map."""
        k = self.affine_dim
        ups = [face for face in self._faces if face[1].normal[-1] > 0]
        downs = [face for face in self._faces if face[1].normal[-1] < 0]
        if len(self._faces) == k + 1:
            pairs = [(g, h) for _, g in ups for _, h in downs]
        else:
            up_at = {ridge: g for verts, g in ups for ridge in itertools.combinations(verts, k - 1)}
            pairs = [
                (up_at[ridge], h) for verts, h in downs for ridge in itertools.combinations(verts, k - 1) if ridge in up_at
            ]
        shadow = set()
        for (a, b), (e, f) in set(pairs):
            s, t = -e[-1], a[-1]
            normal, offset = [s * x + t * y for x, y in zip(a, e)], s * b + t * f
            div = gcd(offset, *normal)
            shadow.add((tuple(x // div for x in normal), offset // div))
        return tuple(shadow)

    @functools.cached_property
    def _walk(self) -> Callable[[int], list[tuple[Point, int, int]]]:
        """The walk of Q's scan plan (k >= 1): `_line_scan` of Q's planes, with `_shadow`'s
        when k >= 3, and box(1), built at the first scan, after its cap check, and walked
        at every n."""
        return _line_scan(self._planes + self._shadow if self.affine_dim >= 3 else self._planes, *self.box(1))

    def line_runs(self, n: int, cap: int | None = None) -> list[tuple[Point, int, int]]:
        """The integer points of nQ (nP when full-dimensional; a point has no runs) as
        `_line_scan`'s runs, which count them before any is built: the polytope's one scan
        plan, `_walk`, walked at n. A scan of k >= 3 coordinates is handed the `_shadow`
        with Q's planes: each plane cuts the coordinate of its last nonzero coefficient, so
        the shadow's planes cut the prefixes and the scan examines only the lines that meet
        nQ; one of fewer coordinates examines every line of the box. Raises as
        integer_points does, before the plan is built or walked."""
        if n < 0:
            raise ValueError("dilation factor must be >= 0")
        check_box(self.box_size(n), cap)
        return self._walk(n) if self.affine_dim else []

    def integer_points(self, n: int, cap: int | None = None) -> PointSet:
        """All integer points of the n-fold dilation, canonically ordered.

        Scans the bounding box of nQ line by line (`line_runs`): the dilated facets cut
        each line to one exact integer interval. A lower-dimensional polytope maps each
        scanned y to n v0 + yB; at n == 0 the box is the one point 0, and a point's frame
        is Z^0. A box_size over cap (DEFAULT_BOX_CAP when None) raises ResourceLimitError
        before any line is scanned. The map keeps the scan's lex order: if y and y' first
        differ at i, the rows of B from the i-th on are zero before B's i-th pivot column
        and only the i-th is nonzero there, so their images agree before that column and
        differ there with the sign of y_i - y'_i, the pivot being positive.
        """
        runs = self.line_runs(n, cap)  # checks n and the cap first, also for a point, which has no runs
        inside = run_points(runs) if self.affine_dim else [()]
        return PointSet._canonical(tuple(self._lift(inside, n)), self.dim)

    def lines(self, n: int, cap: int | None = None) -> tuple[list[Point], list[int], Point]:
        """The integer points of nP as lines, without building them: the first point of each
        line in Z^d, in lex order, the number of points on it, and the step from one point of a
        line to the next, the same for every line: e_d when P is full-dimensional, B's last row
        otherwise (a point has one line of one point, and step 0). The points of the lines, in
        order, are those of integer_points(n, cap); raises as it does."""
        runs = self.line_runs(n, cap)
        if not self.affine_dim:
            return self._lift([()], n), [1], (0,) * self.dim
        firsts = self._lift([prefix + (lo,) for prefix, lo, _ in runs], n)
        step = (0,) * (self.dim - 1) + (1,) if self._basis is None else tuple(self._basis[-1])
        return firsts, [hi - lo + 1 for _, lo, hi in runs], step

    def _lift(self, ys: list[Point], n: int) -> list[Point]:
        """The points n v0 + yB of nP for the points y of nQ; ys itself when P is full-dimensional."""
        if self._basis is None:
            return ys
        origin, columns = [n * c for c in self.vertices[0]], [[row[j] for row in self._basis] for j in range(self.dim)]
        return [tuple(o + dot(y, col) for o, col in zip(origin, columns)) for y in ys]

    def dilate(self, n: int) -> "LatticePolytope":
        """The polytope with every vertex scaled by n (n >= 0)."""
        if n < 0:
            raise ValueError("dilation factor must be >= 0")
        return LatticePolytope([tuple(n * x for x in v) for v in self.vertices])

    def fan_simplices(self) -> tuple[tuple[Point, ...], ...]:
        """Triangulation by cones from the lex-least vertex over the hull's boundary.

        The cones run over the boundary simplices `_faces` that the hull pass
        keeps, skipping those whose plane holds the apex; as the faces
        triangulate the boundary, the cones triangulate the polytope (De
        Loera, Rambau and Santos, *Triangulations*, 2010, Sec. 4.3). Each
        returned tuple is the vertex list of a full-dimensional simplex, apex
        first; its other corners are input points on the boundary, usually
        vertices but not always: a boundary point becomes a corner when the
        pass adds it before the vertices that make it redundant. Which faces
        the pass keeps follows its start simplex and the order it adds
        points in, so the fan is one triangulation of the polytope, not a
        canonical one.
        """
        if not self.is_full_dimensional:
            raise ValueError("triangulation requires a full-dimensional polytope")
        return tuple(cone for cone, _ in self._fan)

    def volume(self) -> Fraction:
        """Exact Euclidean d-volume (full-dimensional polytopes only): the |det| of the edge
        rows of every cone of `fan_simplices`, over d!."""
        if not self.is_full_dimensional:
            raise ValueError("volume requires a full-dimensional polytope")
        return Fraction(sum(det for _, det in self._fan), factorial(self.dim))

    @functools.cached_property
    def _fan(self) -> tuple[tuple[tuple[Point, ...], int], ...]:
        """The cones from the lex-least vertex over `_faces` whose edge rows have a nonzero
        determinant, each with its |det|, in `_faces` order: one determinant a cone."""
        cones = ((self.vertices[0],) + face for face, _ in self._faces)
        return tuple((cone, abs(det)) for cone in cones if (det := linalg.det_int(edge_rows(cone))))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticePolytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))

    def __repr__(self) -> str:
        return f"LatticePolytope(dim={self.dim}, vertices={list(self.vertices)})"


def hull(points: Iterable) -> LatticePolytope:
    """Convex hull of integer points as a canonical LatticePolytope (an alias of its constructor)."""
    return LatticePolytope(points)


def cube(dim: int, low: int = 0, high: int = 1) -> LatticePolytope:
    """The box [low, high]^dim."""
    if dim < 1 or low >= high:
        raise ValueError("need dim >= 1 and low < high")
    return LatticePolytope(itertools.product((low, high), repeat=dim))


def cross_polytope(dim: int) -> LatticePolytope:
    """conv{+-e_1, ..., +-e_dim}."""
    if dim < 1:
        raise ValueError("need dim >= 1")
    pts = []
    for i in range(dim):
        for s in (1, -1):
            pts.append(tuple(s if j == i else 0 for j in range(dim)))
    return LatticePolytope(pts)
