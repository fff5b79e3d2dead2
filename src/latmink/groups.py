"""Word balls and boundary notions in finitely generated groups.

Two concrete group kinds are supported: the additive group Z^d (elements are
integer tuples) and GL(2, Z) (elements are 2x2 integer matrices of
determinant +-1, stored as nested tuples). The generating set must contain
the identity, so the ball of radius n equals the set of words of length
exactly n. All interior/boundary notions use left multiplication.

Balls come from one engine, BallCodec.layers, which yields the ball and the
fresh layer of each radius its caller asks for, within its codec's radius
(ball_layers and word_ball take it as n). It multiplies only the fresh layer,
over encoded elements, checks the cap once per layer, and stops multiplying
at the first empty layer, past which every ball is the same.

S*ball(n-1) lies in ball(n), so ball(n-1) is interior to ball(n): the
boundary of ball(n) is its fresh layer less the layer's interior within
ball(n), and ball_boundary and check_boundary_equality_range test only that
layer (BallCodec.interior, the one interior rule, tests a set of codes
within another).

A Z^d point is one int in balanced radix B = 2R + 1, first coordinate most
significant; R = (radius + 1) * max|g|, at least 1, covers a ball and the
interior test w*a on it. On the box |x_i| <= R the code is an injective
homomorphism, ordered as lex order: a product is one int addition.
A GL(2, Z) matrix is the flat tuple (a, b, c, d), not an int: a radix would
grow as (max row norm)^(radius + 1). Both codes sort as their elements do,
so sorted codes decode in canonical order, only where returned.

Whether a given generating set actually generates the whole group as a
semigroup is not verified (undecidable at this level of machinery for matrix
groups); callers are trusted on that point.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Iterable, Iterator, Sequence

from .geometry import SEQUENCES, LatticePolytope, ResourceLimitError, as_point, quoted_prefix
from .records import Record

KIND_ZD = "zd"
KIND_GL2Z = "gl2z"

DEFAULT_BALL_CAP = 10**6

Matrix2 = tuple[tuple[int, int], tuple[int, int]]

GL2Z_IDENTITY: Matrix2 = ((1, 0), (0, 1))


class ElementSet:
    """Deduplicated finite set of group elements in canonical sorted order."""

    __slots__ = ("elements", "_members")

    def __init__(self, elements: Iterable):
        items = sorted(set(elements))
        self.elements = tuple(items)
        self._members = frozenset(items)

    @classmethod
    def _canonical(cls, items: tuple) -> "ElementSet":
        """The set of items, a tuple already distinct and in canonical order."""
        self = cls.__new__(cls)
        self.elements, self._members = items, frozenset(items)
        return self

    def __contains__(self, x) -> bool:
        return x in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"ElementSet({len(self.elements)} elements)"

    def difference(self, other: "ElementSet") -> "ElementSet":
        return ElementSet._canonical(tuple(x for x in self.elements if x not in other._members))

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
        [(p, q, r, s)] = _gl2z_products([b[0] + b[1]], [a[0] + a[1]])
        return (p, q), (r, s)

    def __repr__(self) -> str:
        where = f"Z^{self.dim}" if self.kind == KIND_ZD else "GL(2,Z)"
        return f"GroupPresentation({where}, {len(self.generators)} generators)"


def _gl2z_products(elements: Iterable[tuple], gens: Sequence[tuple]) -> list[tuple]:
    """BallCodec.products for GL(2, Z) on flat matrices (a, b, c, d): one tuple per product."""
    return [(p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
            for a, b, c, d in elements for p, q, r, s in gens]


class BallCodec:
    """The ball engine over a group's encoded elements (see the module
    docstring); Z^d codes take bound = extent + (radius + 1) * max|g|, at least
    1, for extent the largest coordinate of members, so layers takes no radius
    past it.
    encode and decode map lists of elements and codes; products(xs, gens)
    lists g * x for each x of xs and, within it, each g of gens in order."""

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
            self.products = lambda codes, by: [x + w for x in codes for w in by]
        else:
            self.encode = lambda xs: [r0 + r1 for r0, r1 in xs]
            self.decode = lambda codes: [((a, b), (c, d)) for a, b, c, d in codes]
            self.products = _gl2z_products
        [self.identity] = self.encode([group.identity])
        self.generators = tuple(self.encode(gens))

    def elements(self, codes: Iterable) -> ElementSet:
        """The decoded elements of codes: sorted codes decode in canonical order."""
        return ElementSet._canonical(tuple(self.decode(sorted(codes))))

    def layers(self, ns: range, cap: int | None = None) -> Iterator[tuple[int, set, set]]:
        """Yield (n, ball(n), layer(n)), the last two as sets of codes, for each n
        of ns, an increasing range within 0..radius; ball(n) is the engine's own
        set: read it before advancing. The identity generator gives ball(m) =
        ball(m-1) | S*layer(m-1), so each round multiplies only the fresh layer;
        the cap (DEFAULT_BALL_CAP when None) is checked once per layer, before
        the layer joins the ball. At the first empty layer(m) the walk stops:
        S*{} is empty, so every later layer is empty and every later ball is
        ball(m), and each n left in ns is yielded off that final ball."""
        if ns and not 0 <= ns[0] <= ns[-1] <= self.radius:
            raise ValueError(f"radii must be an increasing range within 0..{self.radius}")
        cap = DEFAULT_BALL_CAP if cap is None else cap
        ball, layer, m = {self.identity}, {self.identity}, 0
        while ns and layer:
            if ns[0] == m:
                yield m, ball, layer
                ns = ns[1:]
            else:
                layer = set(self.products(layer, self.generators)) - ball
                if layer and len(ball) + len(layer) > cap:
                    raise ResourceLimitError(f"word ball exceeded {cap} elements")
                ball |= layer
                m += 1
        for n in ns:
            yield n, ball, layer

    def interior(self, codes: Iterable, within: set) -> set:
        """The codes a of codes with w*a in within for every generator w, the
        one interior rule: products come in runs of one per generator. The
        interior of a set is interior(codes, codes); a layer of a ball is
        tested within the ball, whose codes and their products the codec's
        bound covers."""
        items = list(codes)
        hits = map(within.__contains__, self.products(items, self.generators))
        return set(itertools.compress(items, map(all, zip(*[hits] * len(self.generators)))))


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
