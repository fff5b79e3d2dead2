"""Seeded inputs and the fixed operation list of each workload.

An operation is one `latmink` command line. Its input files are written
into a work directory before set-up; the list is built from the seed and the
round count alone, so two runs with the same arguments run the same
operations.
Sizes follow a ladder indexed by the round, and the seed draws coordinates,
so every seed covers the same spread of sizes. Each operation carries the
independent check of its report (see `oracle`).

Search outputs are the only inputs made during a run: the triangulation a
`search-primitive` operation finds is written to a file for the
`validate-triangulation` and `decompose` operations that follow it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import oracle

# Reference seconds (see reference.py) per round, measured; `rounds_for`
# turns the seconds of a pass into a fixed round count with them.
NOMINAL_ROUND_S = {"hull": 0.24, "balls": 0.077, "triangulate": 0.675}
MIN_OPS = 100

GL2Z_SWAP_SHEAR = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 1), (1, 0)),
    ((1, -1), (0, 1)),
    ((-1, 1), (1, 0)),
)


class Op:
    """One command line, the check of its parsed report, and an optional follow-up.

    `after` runs on the report text right after the operation, before the
    next one starts; the search operations use it to write the files that
    later operations of the same round read.
    """

    __slots__ = ("argv", "check", "after")

    def __init__(self, argv, check, after=None):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.after = after


def rounds_for(workload: str, seconds: float, ops_per_round: int) -> int:
    return max(-(-MIN_OPS // ops_per_round), round(seconds / NOMINAL_ROUND_S[workload]))


class Inputs:
    """Writes the input files of one run into its work directory.

    Documents are stored under a digest of their text, so an input that
    recurs (a fixed case, a repeated matrix) is written once.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.written: set[str] = set()
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, doc) -> str:
        text = json.dumps(doc)
        path = str(self.workdir / f"{hashlib.sha1(text.encode()).hexdigest()[:16]}.json")
        if path not in self.written:
            Path(path).write_text(text)
            self.written.add(path)
        return path

    def polytope(self, vertices) -> str:
        vertices = [list(v) for v in vertices]
        return self.write({"dim": len(vertices[0]), "vertices": vertices})


def _ladder(round_index: int, lo: int, hi: int, step: int = 5) -> int:
    """A value of lo..hi that cycles through the whole range as rounds go by."""
    return lo + (round_index * step) % (hi - lo + 1)


def _cross(d: int, r: int = 1):
    return [tuple(s * r if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


def _cube(d: int, lo: int = -1, hi: int = 1):
    return list(itertools.product((lo, hi), repeat=d))


def _sigma(d: int, m: int):
    return [(0,) * d] + [tuple(1 if j == i else 0 for j in range(d)) for i in range(d - 1)] + [
        tuple([-1] * (d - 1) + [m])
    ]


def _polygon(rng: random.Random, lo: int, hi: int, count: int, interior: int | None = None):
    """A polygon with 3 to 8 random vertices in [lo, hi]^2 and exactly `count`
    lattice points, `interior` of them inside when given."""
    while True:
        pts = [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(rng.randint(3, 8))]
        hull = oracle.planar_hull(pts)
        if len(hull) >= 3 and oracle.pick_count(hull) == count:
            if interior is None or count - oracle.boundary_count(hull) == interior:
                return hull


def _cloud(rng: random.Random, d: int, k: int):
    """k points whose hull is a cross-polytope of radius r plus a few outer points.

    The inner points have l1 norm below r, so they lie strictly inside and
    are redundant; the vertices are among the 2d + 2 outer points. Returns
    the points and the outer points.
    """
    r = {2: 5, 3: 3, 4: 3}[d]
    outer = _cross(d, r)
    while len(outer) < 2 * d + 2:
        p = tuple(rng.randint(-r, r) for _ in range(d))
        if sum(map(abs, p)) > r and p not in outer:
            outer.append(p)
    inner_pool = [p for p in itertools.product(range(-r + 1, r), repeat=d) if sum(map(abs, p)) < r]
    inner = rng.sample(inner_pool, k - len(outer))
    points = outer + inner
    rng.shuffle(points)
    return points, outer


# --- hull -------------------------------------------------------------------------


def hull_ops(inputs: Inputs, seed: int, rounds: int):
    ops = []
    for r in range(rounds):
        rng = random.Random(f"hull/{seed}/{r}")
        for d, (lo, hi) in ((2, (12, 24)), (3, (12, 22)), (4, (14, 22))):
            points, outer = _cloud(rng, d, _ladder(r, lo, hi))
            path = inputs.polytope(points)
            ops.append(
                Op(["points", path, 1], lambda rep, p=points, o=outer: oracle.check_points(rep, p, o))
            )
            dim = 1 + (r + d) % 3
            matrix = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            path = inputs.write({"matrix": matrix})
            ops.append(Op(["lemma1", path], lambda rep, m=matrix: oracle.check_lemma1(rep, m)))
    return ops


def hull_warmup(inputs: Inputs):
    points = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1)]
    path = inputs.polytope(points)
    matrix = [[1, 2], [0, 1]]
    mpath = inputs.write({"matrix": matrix})
    return [
        Op(["points", path, 1], lambda rep: oracle.check_points(rep, points)),
        Op(["lemma1", mpath], lambda rep: oracle.check_lemma1(rep, matrix)),
    ]


# --- balls ------------------------------------------------------------------------


def _sigma_op(inputs, d, m, hi):
    vertices = _sigma(d, m)
    path = inputs.polytope(vertices)

    def check(rep):
        return oracle.check_equality_exact(rep, vertices, hi) or oracle.check_sigma_claims(rep, d, m)

    return Op(["check-equality", path, f"1..{hi}"], check)


def _zd_ops(inputs, shape, d, hi, radius):
    vertices = _cube(d) if shape == "cube" else _cross(d)
    path = inputs.polytope(vertices)
    return [
        Op(["check-boundary", path, f"1..{hi}"], lambda rep: oracle.check_zd_boundary(rep, hi)),
        Op(["word-ball", path, radius], lambda rep: oracle.check_zd_ball(rep, shape, d, radius)),
    ]


def _gl2z_ops(inputs, radius, hi):
    gens = GL2Z_SWAP_SHEAR
    path = inputs.write({"kind": "gl2z", "generators": [[list(row) for row in g] for g in gens]})
    return [
        Op(["word-ball", path, radius], lambda rep: oracle.check_gl2z_ball(rep, gens, radius)),
        Op(["check-boundary", path, f"1..{hi}"], lambda rep: oracle.check_gl2z_boundary(rep, gens, hi)),
    ]


# (d, m, largest n of the range), cycled by round
SIGMA_CASES = ((3, 2, 2), (4, 3, 2), (5, 2, 3), (3, 4, 3), (3, 2, 3), (4, 2, 3), (5, 2, 2), (3, 5, 2))

# (shape, dimension, largest n of the boundary range, word-ball radius), cycled by round
ZD_CASES = (
    ("cross", 2, 6, 8),
    ("cube", 2, 4, 6),
    ("cross", 3, 4, 5),
    ("cube", 3, 3, 3),
    ("cross", 2, 5, 10),
    ("cube", 2, 5, 5),
    ("cross", 3, 5, 4),
)


def balls_ops(inputs: Inputs, seed: int, rounds: int):
    ops = []
    for r in range(rounds):
        rng = random.Random(f"balls/{seed}/{r}")
        for i in range(2):
            vertices = _polygon(rng, -4, 4, _ladder(2 * r + i, 6, 30))
            hi = _ladder(2 * r + i, 2, 4, 1)
            path = inputs.polytope(vertices)
            ops.append(
                Op(
                    ["check-equality", path, f"1..{hi}"],
                    lambda rep, h=hi: oracle.check_equality_planar(rep, h),
                )
            )
        ops.append(_sigma_op(inputs, *SIGMA_CASES[r % len(SIGMA_CASES)]))
        shape, d, hi, radius = ZD_CASES[r % len(ZD_CASES)]
        ops += _zd_ops(inputs, shape, d, hi, radius)
        ops += _gl2z_ops(inputs, _ladder(r, 3, 7, 2), _ladder(r, 2, 5, 3))
    return ops


def balls_warmup(inputs: Inputs):
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    path = inputs.polytope(square)
    return [
        Op(["check-equality", path, "1..2"], lambda rep: oracle.check_equality_planar(rep, 2)),
        *_zd_ops(inputs, "cross", 2, 2, 2),
        *_gl2z_ops(inputs, 2, 1),
    ]


# --- triangulate ------------------------------------------------------------------


def _mutate(simplices, kind: str, index: int):
    """A triangulation that is invalid by construction."""
    simplices = [list(s) for s in simplices]
    i = index % len(simplices)
    if kind == "drop" and len(simplices) > 1:
        return simplices[:i] + simplices[i + 1:]
    if kind == "outside":
        width = max(v[0] for s in simplices for v in s) - min(v[0] for s in simplices for v in s)
        moved = [[v[0] + width + 1] + v[1:] for v in simplices[i]]
        return simplices[:i] + [moved] + simplices[i + 1:]
    return simplices + [simplices[i]]


def _triangulate_case(inputs, rng, name, vertices, expect_found, n):
    """search-primitive, then validate (found and mutated) and decompose."""
    path = inputs.polytope(vertices)
    search = Op(["search-primitive", path], lambda rep: oracle.check_search(rep, vertices, expect_found))
    if not expect_found:
        return [search]
    tri_path = inputs.workdir / f"{name}-tri.json"
    mut_path = inputs.workdir / f"{name}-mutated.json"
    kind = rng.choice(("drop", "duplicate", "outside"))
    index = rng.randrange(1000)

    def write_triangulations(text):
        tri = json.loads(text)["result"]["triangulation"]
        if tri is None:
            return
        tri_path.write_text(json.dumps(tri))
        mutated = dict(tri, simplices=_mutate(tri["simplices"], kind, index))
        mut_path.write_text(json.dumps(mutated))

    search.after = write_triangulations
    omega = oracle.lattice_points(vertices, 1)
    target = tuple(map(sum, zip(*(rng.choice(omega) for _ in range(n)))))
    return [
        search,
        Op(["validate-triangulation", tri_path], lambda rep: oracle.check_validation(rep, True)),
        Op(["validate-triangulation", mut_path], lambda rep: oracle.check_validation(rep, False)),
        Op(
            ["decompose", path, n, *target, "--triangulation", tri_path],
            lambda rep: oracle.check_decomposition(rep, vertices, n, target),
        ),
    ]


# (lattice points, interior points) of the seeded polygons, cycled by round;
# the normalized volume, and so the number of simplices, is count + interior - 2.
POLYGON_CASES = ((6, 1), (4, 0), (8, 1), (5, 0), (7, 2), (6, 0), (9, 1), (5, 1), (7, 0), (8, 2))

# Fixed cases, one per round in turn: cube(3), cross(3), cube(2,0,2), sigma(3,2).
FIXED_CASES = (
    ("cube3", _cube(3, 0, 1), True),
    ("cross3", _cross(3), True),
    ("square2", _cube(2, 0, 2), True),
    ("sigma32", _sigma(3, 2), False),
)


def _prism(rng: random.Random, count: int):
    """A sheared prism over a polygon with count lattice points: 2*count points,
    and a primitive triangulation exists (one per prism over a unit triangle)."""
    base = _polygon(rng, 0, 2, count, 0)
    a, b = rng.randint(-1, 1), rng.randint(-1, 1)
    return [(x, y, z + a * x + b * y) for x, y in base for z in (0, 1)]


def triangulate_ops(inputs: Inputs, seed: int, rounds: int):
    ops = []
    for r in range(rounds):
        rng = random.Random(f"triangulate/{seed}/{r}")
        n = _ladder(r, 2, 4, 1)
        count, interior = POLYGON_CASES[r % len(POLYGON_CASES)]
        polygon = _polygon(rng, 0, 3, count, interior)
        ops += _triangulate_case(inputs, rng, f"polygon-{r}", polygon, True, n)
        ops += _triangulate_case(inputs, rng, f"prism-{r}", _prism(rng, 3 + r % 2), True, n)
        name, vertices, found = FIXED_CASES[r % len(FIXED_CASES)]
        ops += _triangulate_case(inputs, rng, f"{name}-{r}", vertices, found, n)
    return ops


def triangulate_warmup(inputs: Inputs):
    rng = random.Random("triangulate/warm-up")
    return _triangulate_case(inputs, rng, "warm-square", _cube(2, 0, 1), True, 2)


WORKLOADS = {
    "hull": (hull_ops, hull_warmup, 6),
    "balls": (balls_ops, balls_warmup, 7),
    "triangulate": (triangulate_ops, triangulate_warmup, 9),
}


def build(workload: str, seed: int, seconds: float, workdir: Path):
    """The warm-up operations and the timed operation list of one run."""
    make_ops, make_warmup, ops_per_round = WORKLOADS[workload]
    inputs = Inputs(workdir)
    rounds = rounds_for(workload, seconds, ops_per_round)
    return make_warmup(inputs), make_ops(inputs, seed, rounds)
