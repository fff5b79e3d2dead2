"""Word balls and boundary notions in finitely generated groups.

Two concrete group kinds are supported: the additive group Z^d (elements are
integer tuples) and GL(2, Z) (elements are 2x2 integer matrices of
determinant +-1, stored as nested tuples). The generating set must contain
the identity, so the ball of radius n equals the set of words of length
exactly n. All interior/boundary notions use left multiplication.

Balls come from one engine, BallCodec.layers, which yields the ball and the
fresh layer of each radius its caller asks for, within its codec's radius
(ball_layers and word_ball take it as n). It multiplies only the fresh layer,
over codes and by every generator but the identity, into one set per layer,
checks the cap once per layer, and stops at the first empty layer, past which
all balls are the same.

S*ball(n-1) lies in ball(n), so ball(n-1) is interior to ball(n): the
boundary of ball(n) is its fresh layer less the layer's interior within
ball(n), and ball_boundary and check_boundary_equality_range test only that
layer. BallCodec.interior, the one interior rule, tests a set of codes within
another by elimination: a code leaves at the first generator whose product
leaves the set, and is interior iff no generator makes it leave.

A Z^d point is one int in balanced radix B = 2R + 1, first coordinate most
significant; R = (radius + 1) * max|g|, at least 1, covers a ball and the
interior test w*a on it. On the box |x_i| <= R the code is an injective
homomorphism, ordered as lex order: a product is one int addition. A GL(2, Z)
matrix is the flat tuple (a, b, c, d), not an int: a radix would grow as
(max row norm)^(radius + 1). Both codes sort as their elements do, so sorted
codes decode in canonical order, and are decoded only where returned: a
GL(2, Z) set keeps its sorted codes as rows and nests them into matrices only
when its elements are read, which a report written by serialize never does.

Whether a given generating set generates the whole group as a semigroup is
not verified (undecidable here for matrix groups); callers are trusted on it.
"""

from __future__ import annotations

import itertools
from operator import add, not_
from typing import Iterable, Iterator, Sequence

from .geometry import SEQUENCES, LatticePolytope, ResourceLimitError, as_point, quoted_prefix
from .records import Record

KIND_ZD = "zd"
KIND_GL2Z = "gl2z"

DEFAULT_BALL_CAP = 10**6

Matrix2 = tuple[tuple[int, int], tuple[int, int]]

GL2Z_IDENTITY: Matrix2 = ((1, 0), (0, 1))


def _matrices(rows: Iterable[tuple]) -> list[Matrix2]:
    """The matrices ((a, b), (c, d)) of flat rows (a, b, c, d): the one nesting of GL(2, Z) codes."""
    return [((a, b), (c, d)) for a, b, c, d in rows]


class ElementSet:
    """Deduplicated finite set of group elements in canonical sorted order. Its
    member set is built at the first in, difference or issubset, then kept.

    rows and shape are the elements as flat int rows, in the same order, and
    the dimensions each row nests into, when the set's builder knows them: the
    sets BallCodec.elements builds, and their differences; both are None in a
    set built from a caller's elements. A Z^d row, of shape (d,), is its
    element. A GL(2, Z) row is a flat code (a, b, c, d), of shape (2, 2): its
    matrix ((a, b), (c, d)) is built at the first read of elements, which in,
    ==, hash, difference and issubset make, and iteration, lazy, at its first
    item. serialize writes a set with rows from its rows, by one template, and
    every other set element by element."""

    __slots__ = ("_elements", "rows", "shape", "_set")

    def __init__(self, elements: Iterable):
        self._elements, self.rows, self.shape, self._set = tuple(sorted(set(elements))), None, None, None

    @classmethod
    def _canonical(cls, elements: tuple | None, shape: tuple | None = None, rows: tuple | None = None) -> "ElementSet":
        """The set of elements, a tuple already distinct and in canonical order,
        with their rows of this shape when given; elements None for the
        matrices of GL(2, Z) rows, nested at their first read."""
        self = cls.__new__(cls)
        self._elements, self.shape, self.rows, self._set = elements, shape, rows, None
        return self

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(_matrices(self.rows))
        return self._elements

    @property
    def _members(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self.elements)
        return self._set

    def __contains__(self, x) -> bool:
        return x in self._members

    def __iter__(self):
        yield from self.elements  # a generator: nothing is nested before the first item is read

    def __len__(self) -> int:
        return len(self.elements if self.rows is None else self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"ElementSet({len(self)} elements)"

    def difference(self, other: "ElementSet") -> "ElementSet":
        outside = list(map(not_, map(other._members.__contains__, self.elements)))
        rows = self.rows and tuple(itertools.compress(self.rows, outside))
        return ElementSet._canonical(tuple(itertools.compress(self.elements, outside)), self.shape, rows)

    def issubset(self, other: "ElementSet") -> bool:
        return self._members <= other._members


def as_gl2z(matrix) -> Matrix2:
    """Validate a 2x2 integer matrix with determinant +-1: a tuple or list of two tuple or list rows."""
    if not isinstance(matrix, SEQUENCES) or [isinstance(r, SEQUENCES) and len(r) for r in matrix] != [2, 2]:
        raise ValueError("expected a 2x2 matrix")
    rows = tuple(map(tuple, matrix))
    for x in rows[0] + rows[1]:
        if type(x) is not int:
            raise ValueError(f"matrix entries must be plain ints, got {type(x).__name__}")
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det not in (1, -1):
        raise ValueError(f"matrix determinant is {det}, must be +1 or -1")
    return rows


def group_elements(kind: str, generators: Iterable, dim: int | None) -> tuple[list, tuple]:
    """The generators of a zd (integer dim >= 1, as_point of length dim) or
    gl2z (as_gl2z, dim ignored) group, checked, and the group's identity. The
    identity is built after the lengths match dim: a huge dim costs nothing."""
    if kind == KIND_ZD:
        if type(dim) is not int or dim < 1:
            raise ValueError("zd groups need an integer dimension >= 1")
        gens = [as_point(g) for g in generators]
        if any(len(g) != dim for g in gens):
            raise ValueError("generator dimension mismatch")
        return gens, (0,) * dim
    if kind == KIND_GL2Z:
        return [as_gl2z(g) for g in generators], GL2Z_IDENTITY
    if type(kind) is not str:  # a repr of any JSON value could run to thousands of characters
        raise ValueError(f"a group kind must be a string, got {type(kind).__name__}")
    raise ValueError(f"unknown group kind {quoted_prefix(kind)}")


class GroupPresentation:
    """A group given by concrete element arithmetic plus a finite generating set."""

    __slots__ = ("kind", "dim", "generators", "identity")

    def __init__(self, kind: str, generators: Iterable, dim: int | None = None):
        gens, self.identity = group_elements(kind, generators, dim)
        self.kind = kind
        self.dim = dim if kind == KIND_ZD else None
        self.generators = ElementSet(gens)
        if self.identity not in self.generators:
            raise ValueError("the generating set must contain the identity element")

    @classmethod
    def zd(cls, dim: int, generators: Iterable) -> "GroupPresentation":
        return cls(KIND_ZD, generators, dim=dim)

    @classmethod
    def gl2z(cls, generators: Iterable) -> "GroupPresentation":
        return cls(KIND_GL2Z, generators)

    def mul(self, a, b):
        """Group product a * b."""
        if self.kind == KIND_ZD:
            return tuple(map(add, a, b))
        [product] = _matrices(_gl2z_products_by([b[0] + b[1]], a[0] + a[1]))
        return product

    def __repr__(self) -> str:
        where = f"Z^{self.dim}" if self.kind == KIND_ZD else "GL(2,Z)"
        return f"GroupPresentation({where}, {len(self.generators)} generators)"


def _gl2z_product_set(codes: Iterable[tuple], gens: Sequence[tuple]) -> set[tuple]:
    """BallCodec.product_set for GL(2, Z) on flat matrices (a, b, c, d)."""
    return {(p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
            for a, b, c, d in codes for p, q, r, s in gens}


def _gl2z_products_by(codes: Iterable[tuple], w: tuple) -> list[tuple]:
    """BallCodec.products_by for GL(2, Z) on flat matrices (a, b, c, d)."""
    p, q, r, s = w
    return [(p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d) for a, b, c, d in codes]


class BallCodec:
    """The ball engine over a group's encoded elements (see the module
    docstring); Z^d codes take bound = extent + (radius + 1) * max|g|, at least
    1, for extent the largest coordinate of members, so layers takes no radius
    past it.
    encode and decode map lists of elements and codes, and rows maps sorted
    codes to the rows of their ElementSet: Z^d codes decoded, GL(2, Z) codes as
    they are. Two product kernels per kind: product_set(codes, gens) is the set
    of g * x for x in codes and g in gens, and products_by(codes, w) lists
    w * x for each x of codes in order."""

    def __init__(self, group: GroupPresentation, radius: int, members: Iterable = ()):
        if radius < 0:
            raise ValueError("n must be >= 0")
        self.radius = radius
        gens = group.generators.elements
        if group.kind == KIND_ZD:
            extent = max((abs(c) for x in members for c in x), default=0)
            bound = max(1, extent + (radius + 1) * max(abs(c) for g in gens for c in g))
            base = 2 * bound + 1
            weights = [base**i for i in reversed(range(group.dim))]
            offset = bound * sum(weights)  # code + offset has the digits x_i + bound, all in 0..2 * bound

            def encode(xs: Sequence[tuple[int, ...]]) -> list[int]:
                codes = [0] * len(xs)
                for w, column in zip(weights, zip(*xs)):
                    codes = [c + w * x for c, x in zip(codes, column)]
                return codes

            self.encode = encode
            self.decode = lambda codes: zip(*[[(c + offset) // w % base - bound for c in codes] for w in weights])
            self.rows = self.decode
            self.product_set = lambda codes, by: {x + w for x in codes for w in by}
            self.products_by = lambda codes, w: [x + w for x in codes]
            self.shape = (group.dim,)
        else:
            self.encode = lambda xs: [r0 + r1 for r0, r1 in xs]
            self.decode, self.rows = _matrices, iter
            self.product_set, self.products_by = _gl2z_product_set, _gl2z_products_by
            self.shape = (2, 2)
        [self.identity] = self.encode([group.identity])
        self.generators = tuple(self.encode(gens))

    def elements(self, codes: Iterable) -> ElementSet:
        """The set of codes, with its rows of the codec's element shape: sorted
        codes give rows in canonical order, each a Z^d element, or a GL(2, Z)
        code left for the set to nest at its first read of elements."""
        rows = tuple(self.rows(sorted(codes)))
        return ElementSet._canonical(rows if len(self.shape) == 1 else None, self.shape, rows)

    def layers(self, ns: range, cap: int | None = None) -> Iterator[tuple[int, set, set]]:
        """Yield (n, ball(n), layer(n)), the last two as sets of codes, for each n
        of ns, an increasing range within 0..radius; ball(n) is the engine's own
        set: read it before advancing. The identity generator gives ball(m) =
        ball(m-1) | S*layer(m-1), so each round multiplies only the fresh layer,
        by S less the identity: I*layer(m-1) lies in ball(m-1) already. The cap
        (DEFAULT_BALL_CAP when None) is checked once per layer, before the
        layer joins the ball. At the first empty layer(m) the walk stops:
        S*{} is empty, so every later layer is empty and every later ball is
        ball(m), and each n left in ns is yielded off that final ball."""
        if ns and not 0 <= ns[0] <= ns[-1] <= self.radius:
            raise ValueError(f"radii must be an increasing range within 0..{self.radius}")
        cap = DEFAULT_BALL_CAP if cap is None else cap
        movers = [w for w in self.generators if w != self.identity]
        ball, layer, m = {self.identity}, {self.identity}, 0
        while ns and layer:
            if ns[0] == m:
                yield m, ball, layer
                ns = ns[1:]
            else:
                layer = self.product_set(layer, movers)
                layer -= ball
                if layer and len(ball) + len(layer) > cap:
                    raise ResourceLimitError(f"word ball exceeded {cap} elements")
                ball |= layer
                m += 1
        for n in ns:
            yield n, ball, layer

    def interior(self, codes: Iterable, within: set) -> set:
        """The codes a of codes with w*a in within for every generator w, the
        one interior rule, by elimination: each generator in turn multiplies the
        codes left and drops those whose product is outside within, until none
        is left; "for every w" is the conjunction of these passes. The identity's
        pass tests a in within, with no product. The interior of a set is
        interior(codes, codes); a layer of a ball is tested within the ball,
        whose codes and their products the codec's bound covers."""
        items = list(codes)
        for w in self.generators:
            if not items:
                break
            hits = map(within.__contains__, items if w == self.identity else self.products_by(items, w))
            items = list(itertools.compress(items, hits))
        return set(items)


def ball_layers(group: GroupPresentation, n: int, cap: int | None = None) -> Iterator[tuple[frozenset, tuple]]:
    """Yield (ball(k), layer(k)) for k = 0..n: the radius-k ball as a frozenset
    and its fresh layer ball(k) minus ball(k-1) as a tuple in canonical order,
    decoded from the BallCodec.layers stream of radius n."""
    codec, ball = BallCodec(group, n), set()
    for _, _, codes in codec.layers(range(n + 1), cap):
        layer = codec.elements(codes).elements
        ball.update(layer)
        yield frozenset(ball), layer


def word_ball(group: GroupPresentation, n: int, cap: int | None = None) -> ElementSet:
    """All products of at most n generators (the radius-n word-metric ball).

    The one ball that BallCodec.layers yields for range(n, n + 1); the
    identity generator makes the balls increasing, so length "at most n" and
    "exactly n" coincide.
    """
    codec = BallCodec(group, n)
    [(_, ball, _)] = codec.layers(range(n, n + 1), cap)
    return codec.elements(ball)


def ball_boundary(group: GroupPresentation, n: int, cap: int | None = None) -> ElementSet:
    """The boundary of the radius-n ball, omega_boundary(group, word_ball(group,
    n, cap)), read off one BallCodec.layers stream: ball(n-1) is interior to
    ball(n) (see BoundaryReport), so the boundary is layer(n) less the
    layer's interior within ball(n)."""
    codec = BallCodec(group, n)
    [(_, ball, layer)] = codec.layers(range(n, n + 1), cap)
    return codec.elements(layer - codec.interior(layer, ball))


def omega_interior(group: GroupPresentation, subset: ElementSet) -> ElementSet:
    """Elements a of the subset with every left translate w*a in the subset."""
    codec = BallCodec(group, 0, subset)
    codes = set(codec.encode(subset.elements))
    return codec.elements(codec.interior(codes, codes))


def omega_boundary(group: GroupPresentation, subset: ElementSet) -> ElementSet:
    """The subset minus its interior; by definition a part of the subset."""
    return subset.difference(omega_interior(group, subset))


class BoundaryReport(Record):
    """Comparison of the boundary layer of a ball with the fresh layer.

    lhs is the boundary of the radius-n ball, rhs is ball(n) minus
    ball(n-1). lhs_minus_rhs is always empty: for a in ball(n-1) and a
    generator w, w*a is a product of at most n generators, so it lies in
    ball(n); every element of ball(n-1) is interior to ball(n), and the
    boundary lies in the fresh layer. rhs_minus_lhs, the fresh elements that
    are interior, carries the interesting counterexamples.
    """

    n: int
    holds: bool
    lhs_minus_rhs: ElementSet
    rhs_minus_lhs: ElementSet


def check_boundary_equality(group: GroupPresentation, n: int, cap: int | None = None) -> BoundaryReport:
    """Does the boundary of the radius-n ball equal its fresh layer?"""
    return check_boundary_equality_range(group, range(n, n + 1), cap)[0]


def check_boundary_equality_range(
    group: GroupPresentation, ns: range, cap: int | None = None
) -> list[BoundaryReport]:
    """check_boundary_equality for every n in ns, in increasing order, read
    off one BallCodec.layers stream of the radii of ns: rhs is the stream's
    fresh layer. ball(n-1) is interior to ball(n) (see BoundaryReport), so
    only the fresh layer is tested, within ball(n): rhs_minus_lhs is the
    layer's interior, the only set decoded, and lhs_minus_rhs is empty."""
    ns = ns if ns.step > 0 else ns[::-1]
    if ns and ns[0] < 1:
        raise ValueError("n must be >= 1")
    codec, reports = BallCodec(group, ns[-1] if ns else 0), []
    for n, ball, layer in codec.layers(ns, cap):
        rhs_minus_lhs = codec.elements(codec.interior(layer, ball))
        reports.append(BoundaryReport(n, len(rhs_minus_lhs) == 0, ElementSet(()), rhs_minus_lhs))
    return reports


def zd_presentation_from_polytope(poly: LatticePolytope) -> GroupPresentation:
    """The Z^d presentation generated by the polytope's integer points.

    The polytope must contain the origin so that the generating set contains
    the identity.
    """
    omega = poly.integer_points(1)
    origin = (0,) * poly.dim
    if origin not in omega:
        raise ValueError("the polytope does not contain the origin")
    return GroupPresentation.zd(poly.dim, omega.points)


def gl2z_swap_shear_generators() -> tuple[Matrix2, ...]:
    """Six-element generating set of GL(2, Z): identity, the swap, the shear,
    its inverse, and their two products with the swap.

    Right multiplication by the swap permutes this set, which makes the swap
    an interior point of the radius-1 ball and breaks the boundary-equality
    identity already at n = 1.
    """
    w0 = GL2Z_IDENTITY
    w1 = ((0, 1), (1, 0))
    w2 = ((1, 1), (0, 1))
    w3 = ((1, 1), (1, 0))
    w4 = ((1, -1), (0, 1))
    w5 = ((-1, 1), (1, 0))
    return (w0, w1, w2, w3, w4, w5)
