"""n-fold Minkowski sums of lattice point sets and the dilation-equality test.

For a lattice polytope P with integer points Omega, the n-fold Minkowski sum
n*Omega is always contained in the integer points of the dilation nP; this
module decides whether the two sets coincide, produces the lex-least missing
point as a witness when they do not, and constructively decomposes integer
points of nP into n summands from Omega via a primitive triangulation.
n*Omega comes from the word-ball engine of groups, over Z^d after a
translation by t, the lex-least point of Omega: the equality test looks each
point p of nP up by code(p) - code(n*t) among the int codes of the ball, so
no sum is decoded; minkowski_sum is the direct pairwise form.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import add, sub

from . import geometry, linalg
from .geometry import LatticePolytope, Point, PointSet, ResourceLimitError, as_point, box_count, check_box, dot
from .groups import BallCodec, GroupPresentation, word_ball
from .records import Record
from .triangulation import Triangulation


def minkowski_sum(a: PointSet, b: PointSet) -> PointSet:
    """{x + y : x in a, y in b}, deduplicated and canonically ordered."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sums = {tuple(x + y for x, y in zip(p, q)) for p in a.points for q in b.points}
    return PointSet(sums, a.dim)


def _translated_group(s: PointSet) -> GroupPresentation:
    """Z^d generated by s - t, t the lex-least point of s. It contains 0, and
    n*s is its radius-n word ball shifted by n*t."""
    t = s.points[0]
    return GroupPresentation.zd(s.dim, [tuple(map(sub, p, t)) for p in s.points])


def minkowski_power(s: PointSet, n: int, cap: int | None = None) -> PointSet:
    """The n-fold Minkowski sum of s with itself; n == 0 gives {0}.

    Read off the word-ball engine through _translated_group. The cap
    (DEFAULT_BOX_CAP when None) bounds the bounding box of n*s, which holds
    the sum: a box over the cap raises ResourceLimitError before any product,
    so the ball itself needs no cap.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not s.points:
        return PointSet([(0,) * s.dim] if n == 0 else [], s.dim)
    columns = list(zip(*s.points))
    box = [n * min(c) for c in columns], [n * max(c) for c in columns]
    check_box(*box, cap)
    shift = tuple(n * c for c in s.points[0])
    ball = word_ball(_translated_group(s), n, cap=box_count(*box))
    # a translation keeps the ball's points distinct and in lex order
    return PointSet._canonical(tuple([tuple(map(add, p, shift)) for p in ball]), s.dim)


class EqualityReport(Record):
    """Outcome of check_equality at one dilation factor.

    When holds is False, witness is the lexicographically smallest integer
    point of the dilation that is not an n-fold sum.
    """

    n: int
    holds: bool
    witness: Point | None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing report needs a witness")


def check_equality(poly: LatticePolytope, n: int, cap: int | None = None) -> EqualityReport:
    """Does the n-fold Minkowski sum of the integer points fill the dilation?"""
    return check_equality_range(poly, range(n, n + 1), cap)[0]


def check_equality_range(
    poly: LatticePolytope, ns: range, cap: int | None = None
) -> list[EqualityReport]:
    """check_equality for every n in ns, in increasing order, reading n*Omega
    off one BallCodec.layers stream of _translated_group(Omega) over ns. The
    box cap (DEFAULT_BOX_CAP when None) bounds each dilation nP; after the
    scan of Omega, the first n of ns whose box is over the cap raises before
    any other scan, so every ball of the stream, at most the box of the last
    n, is within the cap too: |m*Omega| <= |mP & Z^d| <= box(m) for m <= n.
    Boxes grow with n, and unless P is a point the (cap + 1)-th n of ns has
    one over the cap, so a bisection of the first cap + 1 finds it."""
    ns = ns if ns.step > 0 else ns[::-1]
    if ns and ns[0] < 1:
        raise ValueError("n must be >= 1")
    omega = poly.integer_points(1, cap=cap)
    cap = geometry.DEFAULT_BOX_CAP if cap is None else cap
    head = ns[:cap + 1]
    over = bisect_left(head, True, key=lambda n: box_count(*poly.box(n)) > cap)
    if over < len(head):
        check_box(*poly.box(head[over]), cap)  # raises, as the scan of that box would
    codec, reports = BallCodec(_translated_group(omega), ns[-1] if ns else 0), []
    [t_code] = codec.encode(omega.points[:1])
    for n, ball, _ in codec.layers(ns, cap):
        full = omega if n == 1 else poly.integer_points(n, cap=cap)  # P was scanned for Omega
        shift = n * t_code  # the code of n*t: codes are additive
        missing = [p for p, c in zip(full.points, codec.encode(full.points)) if c - shift not in ball]
        if len(full) - len(missing) != len(ball):
            raise RuntimeError("internal inconsistency: sums escaped the dilation")
        reports.append(EqualityReport(n, not missing, missing[0] if missing else None))
    return reports


class Decomposition(Record):
    """target written as the sum of exactly n points, multiset-sorted."""

    target: Point
    summands: tuple[Point, ...]

    def __post_init__(self):
        total = tuple(sum(c) for c in zip(*self.summands))
        if total != self.target:
            raise ValueError("summands do not add up to the target")


def decomposition_target(poly: LatticePolytope, n: int, x) -> Point:
    """x as a point of the n-fold dilation for decompose, checked without a
    triangulation, so before any search for one: ValueError unless n >= 1 and
    x is an integer point of nP, ResourceLimitError if n is over DEFAULT_BOX_CAP."""
    x = as_point(x)
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = geometry.DEFAULT_BOX_CAP
    if n > cap:
        raise ResourceLimitError(f"a decomposition has {n} summands, cap is {cap}")
    if len(x) != poly.dim:
        raise ValueError("dimension mismatch")
    if not poly.contains(tuple(Fraction(c, n) for c in x)):
        raise ValueError(f"{x} is not in the {n}-fold dilation")
    return x


def decompose(
    poly: LatticePolytope, tri: Triangulation, n: int, x
) -> Decomposition:
    """Write x, an integer point of the n-fold dilation, as n summands.

    Requires tri to be a primitive triangulation of poly. Each simplex is
    tested on the integers n * offset - <normal, x> over its facets, n times
    the slacks of x/n; the first one with all of them >= 0 holds x/n. The
    multiplicity of a vertex is that integer over the vertex's own slack on
    its opposite facet (its lattice height, 1 on a unit simplex), n times its
    barycentric coordinate. The n summands are n points of the report, so n
    over DEFAULT_BOX_CAP raises ResourceLimitError before any work.
    """
    x = decomposition_target(poly, n, x)
    if tri.polytope != poly:
        raise ValueError("triangulation belongs to a different polytope")
    for simplex in tri.simplices:
        slacks = [n * h.offset - dot(h.normal, x) for h in simplex.facets]
        if min(slacks) >= 0:
            break
    else:
        raise ValueError("no simplex of the triangulation contains the point; invalid triangulation")
    if simplex.normalized_volume != 1:
        raise ValueError("triangulation is not primitive")
    summands: list[Point] = []
    for slack, vertex, h in zip(slacks, simplex.vertices, simplex.facets):
        beta, rest = divmod(slack, h.slack(vertex))
        if rest:
            raise RuntimeError("internal inconsistency: non-integer multiplicity on a unit simplex")
        if not 0 <= beta <= n:
            raise RuntimeError("internal inconsistency: multiplicity out of range")
        summands.extend([vertex] * beta)
    if len(summands) != n:
        raise RuntimeError("internal inconsistency: multiplicities do not sum to n")
    return Decomposition(x, tuple(sorted(summands)))


def generates_zd(s: PointSet) -> bool:
    """Does the symmetric set s (with 0) generate the full integer lattice?

    Decided by the Hermite normal form of the matrix of elements: the group
    generated is all of Z^d exactly when the form is the identity. Requires
    0 in s and -p in s for every p; without symmetry, group and semigroup
    generation differ and this test would be wrong.
    """
    origin = (0,) * s.dim
    if origin not in s:
        raise ValueError("the set must contain the origin")
    asymmetric = [p for p in s.points if tuple(-c for c in p) not in s]
    if asymmetric:
        raise ValueError(f"the set is not symmetric: missing negatives of {asymmetric}")
    rows = [list(p) for p in s.points if p != origin]
    if not rows:
        return False
    return linalg.is_identity(linalg.hermite_normal_form(rows), s.dim)
