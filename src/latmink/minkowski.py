"""n-fold Minkowski sums of lattice point sets and the dilation-equality test.

For a lattice polytope P with integer points Omega, the n-fold Minkowski sum
n*Omega is always contained in the integer points of the dilation nP; this
module decides whether the two sets coincide, produces the lex-least missing
point as a witness when they do not, and constructively decomposes integer
points of nP into n summands from Omega via a primitive triangulation.
n*Omega comes from the word-ball engine of groups, after a translation by t,
the lex-least point of Omega; minkowski_sum is the direct pairwise form. The
equality test works in P's own lattice, where P is full-dimensional: it reads
nP as the line runs of its scan (LatticePolytope.line_runs) and never builds
its points. The codes code(y) - code(n*t) of a run's points form one range of
consecutive ints (the last coordinate has weight 1), looked up among the int
codes of the ball at once. No sum is decoded, and of the points of nP only the
first missing code is, lifted to Z^d as the witness. Equality holds at every n
for a point, a segment or a polygon, and a range of n on a polytope of
dimension k >= 3 stops at its first holding n >= k - 1: equality there holds
at every later n (Bruns, Gubeladze and Trung), so these reports are filled in
with no ball layer or scan.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, filterfalse
from operator import add, sub
from typing import Iterator

from . import geometry, linalg
from .geometry import LatticePolytope, Point, PointSet, ResourceLimitError, as_point, box_count, check_box
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
    size = box_count([n * min(c) for c in columns], [n * max(c) for c in columns])
    check_box(size, cap)
    shift = tuple(n * c for c in s.points[0])
    ball = word_ball(_translated_group(s), n, cap=size)
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


def _equality_reports(poly: LatticePolytope, ns: range, cap: int | None = None) -> Iterator[EqualityReport]:
    """The report of check_equality at every n of ns, an increasing range of n >= 1,
    each computed in Q's frame, for P of dimension k >= 1 (Q is P in its own lattice,
    P itself when full-dimensional; see LatticePolytope): n*Omega is read off one
    BallCodec.layers stream of _translated_group of Omega's points in Z^k over ns, and
    no n is answered by the theorem of check_equality_range.

    At each n, nQ comes as LatticePolytope.line_runs (at n = 1 the scan of Omega, read
    again), and each run as one range of consecutive codes, code(y) - code(n*t) for
    the points y of the run and t the lex-least point of Omega, the last coordinate
    having weight 1 (the codec's bound covers the coordinates of nQ - n*t, at most n
    times a generator's, Q's vertices being points of Omega, so codes are injective
    there); each range is tested with ball.issuperset. When every run is in
    the ball, equality holds; else the hits are counted code by code and the first
    missing code of the first run not in the ball, decoded and lifted to n v0 + yB by
    `_lift`, is the lex-least witness: the runs and their points come in lex order, and
    the lift keeps it (see integer_points) and maps nQ & Z^k onto nP & Z^d one to one.
    Either way the hits must number |ball|, or a sum escaped the dilation. The cap
    bounds each scan (DEFAULT_BOX_CAP when None) and each layer of the ball
    (DEFAULT_BALL_CAP when None); check_equality_range checks the boxes of its whole
    range before it calls this."""
    runs = poly.line_runs(1, cap)
    omega = PointSet._canonical(tuple(geometry.run_points(runs)), poly.affine_dim)
    codec = BallCodec(_translated_group(omega), ns[-1] if ns else 0)
    [t_code] = codec.encode(omega.points[:1])
    for n, ball, _ in codec.layers(ns, cap):
        runs = runs if n == 1 else poly.line_runs(n, cap)
        codes, shift = codec.encode([prefix + (lo,) for prefix, lo, _ in runs]), n * t_code
        lines = [range(c - shift, c - shift + hi - lo + 1) for c, (_, lo, hi) in zip(codes, runs)]
        if all(map(ball.issuperset, lines)):
            hits, witness = sum(map(len, lines)), None
        else:
            hits = sum(map(ball.__contains__, chain.from_iterable(lines)))
            line = next(filterfalse(ball.issuperset, lines))
            [y] = codec.decode([next(filterfalse(ball.__contains__, line))])
            [witness] = poly._lift([tuple(map(add, y, [n * c for c in omega.points[0]]))], n)
        if hits != len(ball):
            raise RuntimeError("internal inconsistency: sums escaped the dilation")
        yield EqualityReport(n, witness is None, witness)


def check_equality_range(
    poly: LatticePolytope, ns: range, cap: int | None = None
) -> list[EqualityReport]:
    """check_equality for every n in ns, in increasing order: (n, True, None) for
    every n when P has dimension k <= 2, and else the reports of _equality_reports
    up to the first holding n >= k - 1 and (m, True, None) for each later m of ns.

    Both are the theorem of Bruns, Gubeladze and Trung (J. reine angew.
    Math. 485, 1997; Bruns and Gubeladze, Polytopes, Rings, and K-Theory,
    2009, Ch. 2): for a lattice polytope P of dimension k >= 1,
    (cP & Z^d) + Omega = (c+1)P & Z^d for every integer c >= max(k - 1, 1). Proof:
    triangulate P with vertex set Omega, so no simplex holds a lattice point
    but its vertices, and write x of (c+1)P & Z^d as sum(l_i v_i) over one
    simplex, l_i >= 0, sum(l_i) = c + 1 >= k. Were every l_i < 1, the sum
    would be k and sum((1 - l_i) v_i) = sum(v_i) - x a lattice point of the
    simplex that is no vertex; so some l_i >= 1, and x - v_i is in cP & Z^d.
    A lower-dimensional P is full-dimensional in its own lattice. Hence if
    c*Omega = cP & Z^d at some c >= max(k - 1, 1), then (c+1)P & Z^d =
    c*Omega + Omega = (c+1)*Omega, and by induction equality holds at every
    n >= c. At c = 1 it holds by definition, 1*Omega = Omega = P & Z^d, so for
    k <= 2, where max(k - 1, 1) = 1, it holds at every n >= 1 (and for a point,
    k = 0, n*Omega is the one point of nP); no n is computed. A report is only
    (n, holds, witness), so (m, True, None) is the report the computation of m
    would give, with no ball layer or scan. For k >= 3 a range that starts past
    k - 1 is computed at its first n and stops there if it holds; every n
    computed passes the guard of _equality_reports.

    The box cap (DEFAULT_BOX_CAP when None) bounds each dilation nP and is checked
    before all of this: box_size(1) first, as the scan of Omega would, then the
    first n of ns whose box_size is over the cap raises, so every ball of the
    stream is within the cap too: |m*Omega| <= |mP & Z^d| <= box_size(m) for
    m <= n. The sizes grow with n, and unless P is a point the (cap + 1)-th n of
    ns has one over the cap, so a bisection of the first cap + 1 finds it."""
    ns, reports = ns if ns.step > 0 else ns[::-1], []
    if ns and ns[0] < 1:
        raise ValueError("n must be >= 1")
    cap = geometry.DEFAULT_BOX_CAP if cap is None else cap
    check_box(poly.box_size(1), cap)
    head = ns[:cap + 1]
    over = bisect_left(head, True, key=lambda n: poly.box_size(n) > cap)
    if over < len(head):
        check_box(poly.box_size(head[over]), cap)  # raises, as the scan of that box would
    if poly.affine_dim <= 2:
        return [EqualityReport(n, True, None) for n in ns]
    for report in _equality_reports(poly, ns, cap):
        reports.append(report)
        if report.holds and report.n >= poly.affine_dim - 1:
            # equality holds at every later n by the theorem above
            return reports + [EqualityReport(m, True, None) for m in ns[len(reports):]]
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
    x is an integer point of nP, ResourceLimitError if n is over DEFAULT_BOX_CAP.
    x is in nP iff x/n is in P: the Fractions x/n are only read, and
    `LatticePolytope.contains` decides in integers, at their least common
    denominator."""
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
    tested on the integers h.slack(x, n) = n * offset - <normal, x> over its
    facets h, n times the slacks of x/n; the first one with all of them >= 0
    holds x/n. The multiplicity of a vertex is that integer over the vertex's
    own slack on its opposite facet (its lattice height, 1 on a unit simplex),
    n times its barycentric coordinate. The n summands are n points of the
    report, so n over DEFAULT_BOX_CAP raises ResourceLimitError before any work.

    The triangulation is not validated, but the d+1 vertices of the simplex
    picked are checked against poly: a summand outside P would be a false
    witness, so the first vertex outside raises ValueError.
    """
    x = decomposition_target(poly, n, x)
    if tri.polytope != poly:
        raise ValueError("triangulation belongs to a different polytope")
    for index, simplex in enumerate(tri.simplices):
        slacks = [h.slack(x, n) for h in simplex.facets]
        if min(slacks) >= 0:
            break
    else:
        raise ValueError("no simplex of the triangulation contains the point; invalid triangulation")
    if simplex.normalized_volume != 1:
        raise ValueError("triangulation is not primitive")
    outside = next((v for v in simplex.vertices if not poly.contains(v)), None)
    if outside is not None:
        raise ValueError(f"simplex {index} has vertex {outside} outside the polytope; invalid triangulation")
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
