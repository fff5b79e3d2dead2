"""Byte-identity check of the `latmink` command line between two checkouts.

    python3 tools/same_output.py PARENT_ROOT CHANGE_ROOT

For each root, one fresh interpreter imports `src/latmink` from that root
and, in a temporary work directory of its own, runs every command of this list:

- the warm-up and operation lists of the benchmark workloads `hull`, `balls`
  and `triangulate` for seeds 3, 7 and 11, at the size of one benchmark pass
  (built by importing this checkout's `perfbench/workloads.py`, which is read,
  never written: no bytecode is cached);
- each subcommand on every bundled dataset, and `search-primitive` on it at
  budgets 1, 5 and 25, as JSON and with `--pretty`;
- `points` at -1 and 3, `minkowski` at 3, `check-equality` over 1..3,
  `word-ball` and `boundary` at 3, `check-boundary` over 1..3, `classify` and
  `search-primitive` on five lower-dimensional polytopes written into the work
  directory (no bundled dataset is one), one of them a point, as JSON and with
  `--pretty`, so that the scan in each polytope's own lattice, membership and
  the check of n on a point, which has no line runs, are compared too;
- `word-ball` and `boundary` at 4 and `check-boundary` over 1..4 and 3..6 on
  inputs whose balls stop growing, written into the work directory (the
  GL(2, Z) groups {I, swap} and {I, -I}, the Z^2 group of the identity alone
  and the one-point polytope at the origin), and `minkowski` at 4 and
  `check-equality` over 1..4 and 3..6 on that polytope, as JSON and with
  `--pretty`, so that radii past a stream's first empty layer are compared;
- `points` at n = 1..4 and `check-equality` over 1..3 on polytopes whose
  scans have three or more coordinates, written into the work directory:
  sigma(d, m) for d = 4..6 and m = 2, 3, a 4-D prism with vertical facets and
  a sheared top, a 3-dimensional polytope in Z^5 (its scan runs in the
  coordinates of its own lattice), and a triangle times a square in Z^4 and
  times a cube in Z^5 (vertical facets that cut a coordinate before the last
  two), and on sigma(d, 2) for d = 4..6 `points` at n = 0 and
  `check-equality` over 1..5 (a range that fails, so each n is scanned), as
  JSON and with `--pretty`, so that scans that skip the lines outside the
  polytope's shadow, prefixes cut before it, and one scan plan, built at
  scale 1, walked at n = 0 and at each n of a range, are compared too;
- `points` at n = 0..3, `minkowski` at 2, `check-equality` over 1..3, and
  `points` at 3 with `--cap` at the number of candidates the cap bounds at
  n = 3 and at one less, on lower-dimensional polytopes whose projection on
  leading coordinates is not onto their lattice, written into the work
  directory: conv{0, (40, 0, -1), (0, 40, -1)}, the segment
  conv{0, (6, 10, 15)}, a triangle in Z^4 on two skew equations, a pentagon
  in Z^5 and the thin triangle conv{0, (1000, 0, -1), (999, 1, -1)}, whose
  box in its own lattice is far larger than its box on (x, y), with `points`
  at 11 on it too, as JSON and with `--pretty`, so that the scan in the
  polytope's own lattice is compared too (the cap counts the smaller of the
  box in that lattice and the box of a projection);
- `points` at n = 1..2 and `check-equality` over 1..2 on clouds with
  boundary points that are not vertices, written into the work directory:
  2 cross(d) and 2 cube(d) with the midpoints of every two of their vertices
  for d = 2..5, and 2 cross(3) with those midpoints on x4 = x1 + x2,
  x5 = x2 - x3 in Z^5, as JSON and with `--pretty`, so that the vertex rule
  and the hull's start simplex are compared too;
- `points NAME 0` on every bundled dataset;
- the integer inverse at d >= 4, on inputs written into the work directory,
  as JSON and with `--pretty`: `classify` on sigma(d, m) and sigma_prime(d, m)
  for d = 4..6 and m = 2, 3 (simplex facets from the barycentric forms);
  `validate-triangulation` on the orthant fan of the 4-D cross-polytope and
  on that fan with its first simplex replaced by one of normalized volume 2,
  whose pair tests solve for intersection vertices at d = 4; and `points` at
  n = 1..3 and `check-equality` over 1..2 on a segment and a triangle in Z^6,
  with five and four affine-hull equations;
- `lemma1` on seeded matrices written into the work directory, two of each
  kind for d = 1..4: det +-1 (products of row shears and a sign), |det| > 1
  (one row of such a matrix times 2 or 3, so for d >= 2 the inverse mixes
  integral and fractional entries) and singular; and `decompose` at n = 3
  and 50 on `unit-square`, `cross-2d`, `unit-cube` and `cross-3d`, at n
  times each vertex and at the floor of n times the vertex centroid (a point
  of nP's interior), as JSON and with `--pretty`, so that the integrality
  tests of both are compared;
- `lemma1` on the matrices whose elimination took its row-swap path (a swap
  at the first pivot, the 3 x 3 anti-diagonal, a zero leading 2 x 2 minor and
  a 4 x 4 cycle of two swaps that share a row) and on matrices with entries
  near 10^12 for d = 2..4 (det 1, det 3 and singular; the nonsingular ones
  stop at the box cap, exit 3, after their adjugate), and `classify` on a
  Z^3 simplex whose (v, 1) matrix has a zero leading pivot, written into the
  work directory, as JSON and with `--pretty`, so that determinants and
  adjugates up to 4 x 4 from the cofactor formulas are compared with the
  elimination's;
- `decompose` at n = 2 on `cube(3, 0, 2)` and `cross-3d`, written into the
  work directory, through their searched triangulation under polytope
  documents that list the canonical vertices, permuted, with a duplicate,
  with a lattice point that is not a vertex, without `"dim"`, with a wrong,
  a string and a boolean `"dim"`, and as another polytope, so that a loaded
  polytope reused for the document is compared against a fresh parse;
  `validate-triangulation` on the drop, duplicate and outside mutations of
  those triangulations; and `decompose` through a triangulation of the unit
  square with a unimodular simplex outside it, as JSON and with `--pretty`;
- deeper searches, written into the work directory: `search-primitive` on
  Q27 (ROADMAP item 4's 27-point polytope) stopped mid-depth by budgets 200
  and 2,000, on `cube(3, 0, 2)` (found in 48 nodes) and on the segment
  conv{0, 300} (300 simplices deep), and `decompose` on that cube through its
  own search, as JSON and with `--pretty`;
- `search-primitive` at `--point-cap 30` and `--budget 50` on the 40 seeded
  3-D polytopes of ROADMAP item 1 (`random.Random(11)`, 5-8 vertices in
  0..4), written into the work directory, as JSON and with `--pretty`:
  searches that find, exhaust and stop on the budget with up to 30 points,
  and one over the cap (exit 3);
- `verify-paper` in full, quick, quick with `--pretty` and quick at seed 1;
- commands stopped by a `--cap` of 100 (exit 3), so that a cap checked
  before or after the work it bounds gives the same message; ball commands
  at their ball's exact size as cap (exit 0) and one under it (exit 3), so
  that a cap checked per element or per layer fires at the same size; and
  ranges up to 20,000 that meet their cap (exit 3), so that a range read
  whole or by its ends stops at the same n;
- large and deeply nested reports (thousands of points, GL(2, Z) matrices,
  the boundary of the 916-element radius-6 GL(2, Z) ball), the int arrays
  that `serialize.dumps` writes from one template each;
- boundaries read off the fresh layer at the largest balls the `balls`
  workload builds: `check-boundary` over 1..7 and `boundary` at 7 on
  `gl2z-swap-shear` (a ball of 1,876 elements), and `check-boundary` over
  1..4 on the group of cube(3, -1, 1), written into the work directory, as
  JSON and with `--pretty`;
- the paths that keep n-fold sums and word balls in codes until they are
  printed, on inputs written into the work directory, as JSON and with
  `--pretty`: `check-equality` over 1..25 on the hexagon
  conv{(0,0), (2,0), (3,1), (3,3), (1,3), (0,2)}, over 1..6 on
  `cube(3, 0, 2)`, over 1..3 on the skew triangle conv{0, (40, 0, -1),
  (0, 40, -1)} and the segment conv{0, (6, 10, 15, -3)} that CI writes, and
  over 1..6 on a one-point polytope in Z^5 (each line of nP tested as a range
  of codes, consecutive or stepping by a row of the lattice basis); and
  `word-ball` and `boundary` at 5 and `check-boundary` over 1..5 on the
  GL(2, Z) group {I} (empty boundaries) and on `z1-segment` (sets written by
  their element shape);
- `check-equality` where it stops at the theorem (equality at an n >= k - 1
  holds at every later n), on the files above and bundled datasets, as JSON
  and with `--pretty`: over 1..50 on the hexagon and `cube(3, 0, 2)`; at one
  n past k - 1, where equality holds (the hexagon at 25, `cube(3, 0, 2)` at
  10) or fails (`sigma-3-2` at 4, `sigma-5-2` at 5); and over 3..9 on the
  skew triangle and the 4-D segment;
- each bound (`--cap`, `--budget`, `--point-cap`) at -1, 0 and 1; at 0 and
  -1 the parser exits 2, so these commands differ against a checkout whose
  parser still takes non-positive bounds;
- the parser itself: `-h` and `<subcommand> -h` for every subcommand,
  argparse errors (an unknown subcommand of 4 and of 3,000 characters
  among them), missing paths (a bare name, and 3,000 characters in
  200-character components), global flags placed before or after the subcommand, and
  `--cap` given to each of the six subcommands that reject it (these
  differ against a checkout that accepts and ignores it there).

Input paths are relative to the work directory, so both roots see the same
argv. The exit code and digests of stdout and stderr of every command are
compared; every command that differs is printed (an argument over 60
characters by its first 40 and its length), then their count, and the
exit code is 1. Exit code 0 means every command matched. Given one root, the
script prints that root's digests as JSON (the fresh interpreter runs this way).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (3, 7, 11)
WORKLOADS = ("hull", "balls", "triangulate")
SEARCH_BUDGETS = (1, 5, 25)
PASS_SECONDS = 10  # one pass of a benchmark run: run_seconds / 2 passes
VERIFY_COMMANDS = [
    ["verify-paper", "--quick"],
    ["verify-paper"],
    ["--pretty", "verify-paper", "--quick"],
    ["verify-paper", "--quick", "--seed", "1"],
]
CAPPED_COMMANDS = [
    ["points", "unit-square", "300", "--cap", "100"],
    ["minkowski", "unit-square", "300", "--cap", "100"],
    ["check-equality", "unit-square", "1..300", "--cap", "100"],
    ["check-equality", "unit-square", "300..300", "--cap", "100"],
    ["word-ball", "cross-2d", "300", "--cap", "100"],
    # |ball(4)| = 178 for gl2z-swap-shear, |ball(5)| = 61 for cross-2d
    ["word-ball", "gl2z-swap-shear", "4", "--cap", "178"],
    ["word-ball", "gl2z-swap-shear", "4", "--cap", "177"],
    ["boundary", "gl2z-swap-shear", "4", "--cap", "177"],
    ["check-boundary", "gl2z-swap-shear", "1..4", "--cap", "177"],
    ["word-ball", "cross-2d", "5", "--cap", "61"],
    ["word-ball", "cross-2d", "5", "--cap", "60"],
    ["check-boundary", "cross-2d", "1..5", "--cap", "60"],
    ["check-equality", "unit-square", "1..20000", "--cap", "1000"],
    ["check-boundary", "gl2z-swap-shear", "1..20000", "--cap", "1000"],
]
LARGE_COMMANDS = [
    ["points", "sigma-3-2", "30"],
    ["word-ball", "gl2z-swap-shear", "6"],
    ["boundary", "gl2z-swap-shear", "6"],
    ["check-boundary", "gl2z-swap-shear", "1..6"],
    ["minkowski", "cross-2d", "8"],
]
BOUND_COMMANDS = [
    [*command, flag, value]
    for flag, command in [
        ("--cap", ["points", "unit-square", "1"]),
        ("--budget", ["search-primitive", "unit-square"]),
        ("--point-cap", ["search-primitive", "unit-square"]),
    ]
    for value in ("-1", "0", "1")
]

# Lower-dimensional polytopes: "plane-3d" lies on x + y = 2z, so half of the
# points of its projection on (x, y) are off its lattice; "sigma-3-2-4d" is sigma(3, 2) on x4 = x1 + x2 + x3,
# where check-equality fails at n = 2 with witness (0, 0, 1, 1).
LOWER_DIMENSIONAL = {
    "segment-2d": [[-2, -4], [4, 8]],
    "plane-3d": [[0, 0, 0], [2, 0, 1], [0, 2, 1], [2, 2, 2]],
    "point-3d": [[3, -1, 2]],
    "square-4d": [[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]],
    "sigma-3-2-4d": [[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 1], [-1, -1, 2, 0]],
}

# Polytopes scanned in three or more coordinates: sigma(d, m) as the library
# builds it, a prism over 2 * sigma(3, 1) whose top x4 = 1 + x1 is sheared
# (its sides are vertical), sigma(3, 2) plus (1, 1, 1) on x4 = x1 + x2,
# x5 = x2 - x3 in Z^5, and two products of a triangle with a square or a cube,
# whose triangle's sides are vertical facets that cut y, before coordinate k - 2.
SHADOW_POLYTOPES = {
    **{
        f"sigma-{d}-{m}": [[0] * d] + [[int(i == j) for j in range(d)] for i in range(d - 1)] + [[-1] * (d - 1) + [m]]
        for d in (4, 5, 6)
        for m in (2, 3)
    },
    "prism-4d": [[x, y, z, w] for x, y, z in [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)] for w in (0, 1 + x)],
    "solid-3d-in-5d": [[x, y, z, x + y, y - z] for x, y, z in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 2), (1, 1, 1)]],
    "triangle-times-square-4d": [[x, y, z, w] for x, y in [(0, 0), (2, 0), (0, 2)] for z in (0, 1) for w in (0, 1)],
    "triangle-times-cube-5d": [[x, y, *t] for x, y in [(0, 0), (3, 1), (1, 3)] for t in itertools.product((0, 1), repeat=3)],
}

# Lower-dimensional polytopes whose projection on the leading coordinates of
# their affine hull is not onto their lattice, with the number of candidates a
# cap bounds at n = 3 (`LatticePolytope.box_size`): the smaller of nQ's box, Q
# the polytope in its lattice frame, and the box of nP's projection.
SKEW_LOWER_DIMENSIONAL = {
    "skew-triangle-3d": ([[0, 0, 0], [40, 0, -1], [0, 40, -1]], 14641),
    "segment-3d": ([[0, 0, 0], [6, 10, 15]], 4),
    "triangle-4d": ([[0, 0, 0, 0], [4, 2, 3, 5], [2, 6, 5, 1]], 130),
    "pentagon-5d": ([[0, 0, 0, 0, 0], [3, 1, 2, 0, 5], [7, 6, 4, 3, 12], [5, 9, 2, 6, 9], [1, 4, 0, 3, 2]], 154),
    "thin-triangle-3d": ([[0, 0, 0], [1000, 0, -1], [999, 1, -1]], 12004),
}


def _with_midpoints(vertices):
    """The vertices and the midpoints of every two of them, for vertices of even coordinates."""
    return sorted({tuple((a + b) // 2 for a, b in zip(u, v)) for u in vertices for v in vertices})


# Clouds whose boundary holds points that are not vertices: 2 cross(d) and
# 2 cube(d) with their midpoints, and 2 cross(3) with its midpoints in Z^5.
_TWICE_CROSS = {d: [tuple(2 * s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)] for d in range(2, 6)}
MIDPOINT_CLOUDS = {
    **{f"cross-{d}-midpoints": _with_midpoints(_TWICE_CROSS[d]) for d in range(2, 6)},
    **{f"cube-{d}-midpoints": _with_midpoints(list(itertools.product((0, 2), repeat=d))) for d in range(2, 6)},
    "cross-3-midpoints-5d": [(x, y, z, x + y, y - z) for x, y, z in _with_midpoints(_TWICE_CROSS[3])],
}

# Simplices and polytopes that exercise the integer inverse at d >= 4: sigma(d, m)
# and sigma_prime(d, m) as the library builds them, and a segment and a
# triangle in Z^6 (five and four affine-hull equations).
INVERSE_SIMPLICES = {
    f"{name}-{d}-{m}": [[0] * d] + [[int(i == j) for j in range(d)] for i in range(d - 1)] + [[sign] * (d - 1) + [m]]
    for name, sign in (("sigma", -1), ("sigma-prime", 1))
    for d in (4, 5, 6)
    for m in (2, 3)
}
INVERSE_LOWER_DIMENSIONAL = {
    "segment-6d": [[1, -1, 2, 0, 3, -2], [3, 3, 0, 4, 5, 0]],
    "triangle-6d": [[0, 0, 0, 0, 0, 0], [2, 0, 1, 1, 3, -1], [0, 2, 1, -1, 1, 3]],
}

# Searches deeper than the bundled datasets' (a point cap of 40 or 400 lets
# them run): "q27" stops on its budget mid-depth, "cube-3-0-2" finds a
# triangulation in 48 nodes and "segment-300" one 300 simplices deep.
DEEP_SEARCHES = {
    "q27": [[0, 0, 1], [2, 2, 4], [2, 3, 2], [3, 3, 0], [4, 0, 1], [4, 2, 2], [4, 3, 4]],
    "cube-3-0-2": [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)],
    "segment-300": [[0], [300]],
}
DEEP_SEARCH_ARGS = [
    ["search-primitive", "q27.json", "--point-cap", "40", "--budget", "200"],
    ["search-primitive", "q27.json", "--point-cap", "40", "--budget", "2000"],
    ["search-primitive", "cube-3-0-2.json", "--point-cap", "40"],
    ["search-primitive", "segment-300.json", "--point-cap", "400"],
    ["decompose", "cube-3-0-2.json", "2", "3,1,4", "--point-cap", "40"],
]

# Inputs of the paths that keep n-fold sums and word balls in codes until they
# are printed: lines of nP tested as ranges of codes (long ranges on a hexagon
# and on cube(3, 0, 2), the skew triangle and the 4-D segment that CI writes,
# whose lines step by a row of their lattice basis, and a one-point polytope),
# and sets written by their element shape (the GL(2, Z) group {I}, whose
# boundaries are empty, and the bundled Z^1 group of `z1-segment`).
CODE_PATH_POLYTOPES = {
    "hexagon": ([[0, 0], [2, 0], [3, 1], [3, 3], [1, 3], [0, 2]], "1..25"),
    "cube-3-0-2-lines": ([[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)], "1..6"),
    "ci-skew-triangle": ([[0, 0, 0], [40, 0, -1], [0, 40, -1]], "1..3"),
    "ci-segment-4d": ([[0, 0, 0, 0], [6, 10, 15, -3]], "1..3"),
    "point-5d": ([[4, -2, 7, 0, -1]], "1..6"),
}
# check-equality's stop at the theorem (equality at an n >= k - 1 holds at
# every later n) on the CODE_PATH_POLYTOPES files and bundled sigma(d, m):
# ranges over 1..50 answered at n = 1 (the hexagon) and n = 2 (cube(3, 0, 2)),
# one n past k - 1 where equality holds (the hexagon at 25, cube(3, 0, 2) at
# 10) or fails (sigma(3, 2) at 4, sigma(5, 2) at 5), and ranges past k - 1 on
# the skew triangle and the 4-D segment.
THEOREM_STOP_COMMANDS = [
    ["check-equality", "hexagon.json", "1..50"],
    ["check-equality", "cube-3-0-2-lines.json", "1..50"],
    ["check-equality", "hexagon.json", "25"],
    ["check-equality", "cube-3-0-2-lines.json", "10"],
    ["check-equality", "sigma-3-2", "4"],
    ["check-equality", "sigma-5-2", "5"],
    ["check-equality", "ci-skew-triangle.json", "3..9"],
    ["check-equality", "ci-segment-4d.json", "3..9"],
]
CODE_PATH_GROUPS = {
    "gl2z-identity.json": {"kind": "gl2z", "generators": [[[1, 0], [0, 1]]]},
    "z1-segment": None,  # bundled
}

# Inputs whose word balls stop growing: each ball stream has an empty layer.
FINITE_STREAMS = {
    "gl2z-swap": {"kind": "gl2z", "generators": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
    "gl2z-minus": {"kind": "gl2z", "generators": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]},
    "z2-identity": {"kind": "zd", "dim": 2, "generators": [[0, 0]]},
    "origin-2d": {"dim": 2, "vertices": [[0, 0]]},
}

SUBCOMMANDS = (
    "points", "minkowski", "check-equality", "decompose", "classify", "lemma1",
    "validate-triangulation", "search-primitive", "word-ball", "boundary", "check-boundary", "verify-paper",
)
PARSER_COMMANDS = [
    ["-h"],
    *([name, "-h"] for name in SUBCOMMANDS),
    ["points"],
    ["decompose", "cross-2d", "2"],
    ["nope"],
    ["x" * 3000],
    ["points", "no-such-polytope", "1"],
    ["points", "/".join(["a" * 200] * 15), "1"],
    ["points", "unit-square", "x"],
    ["--cap"],
    ["--cap", "100", "points", "unit-square", "300"],
    ["--seed", "1", "verify-paper", "--quick"],
    ["points", "unit-square", "2", "--pretty"],
    ["classify", "sigma-3-2", "--cap", "1"],
    ["--cap", "1", "lemma1", "sigma-3-2-matrix"],
    ["validate-triangulation", "unit-square", "--cap", "1"],
    ["search-primitive", "unit-cube", "--cap", "1"],
    ["--cap", "1", "decompose", "unit-square", "2", "1,1"],
    ["verify-paper", "--quick", "--cap", "1"],
]


def _dataset_commands(data: Path):
    """Every subcommand on every bundled dataset, and search-primitive on it at
    small budgets (so that a search stopped by its budget is compared too),
    JSON first, then --pretty."""
    commands = []
    for path in sorted(data.glob("*.json")):
        name = path.stem
        doc = json.loads(path.read_text())
        vertices = doc.get("vertices") if isinstance(doc, dict) else None
        point = [str(a + b) for a, b in zip(vertices[0], vertices[-1])] if vertices else ["0"]
        commands += [
            ["points", name, "0"],
            ["points", name, "2"],
            ["minkowski", name, "2"],
            ["check-equality", name, "1..2"],
            ["decompose", name, "2", *point],
            ["classify", name],
            ["lemma1", name],
            ["validate-triangulation", name],
            ["search-primitive", name],
            *(["search-primitive", name, "--budget", str(b)] for b in SEARCH_BUDGETS),
            ["word-ball", name, "2"],
            ["boundary", name, "2"],
            ["check-boundary", name, "1..2"],
        ]
    return commands + [["--pretty", *argv] for argv in commands]


def _lower_dimensional_commands(work: Path):
    """Write each LOWER_DIMENSIONAL polytope into work as NAME.json and return
    the commands run on it, JSON first, then --pretty."""
    commands = []
    for name, vertices in LOWER_DIMENSIONAL.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        commands += [
            ["points", path, "-1"],
            ["points", path, "3"],
            ["minkowski", path, "3"],
            ["check-equality", path, "1..3"],
            ["word-ball", path, "3"],
            ["boundary", path, "3"],
            ["check-boundary", path, "1..3"],
            ["classify", path],
            ["search-primitive", path],
        ]
    return commands + [["--pretty", *argv] for argv in commands]


def _shadow_commands(work: Path):
    """Write each SHADOW_POLYTOPES polytope into work as NAME.json and return
    points at n = 1..4 and check-equality over 1..3 on it, and on sigma(d, 2)
    points at n = 0 and check-equality over 1..5 too, JSON first, then
    --pretty."""
    commands = []
    for name, vertices in SHADOW_POLYTOPES.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        commands += [["points", path, str(n)] for n in range(1, 5)] + [["check-equality", path, "1..3"]]
        if name in {f"sigma-{d}-2" for d in (4, 5, 6)}:
            commands += [["points", path, "0"], ["check-equality", path, "1..5"]]
    return commands + [["--pretty", *argv] for argv in commands]


def _frame_commands(work: Path):
    """Write each SKEW_LOWER_DIMENSIONAL polytope into work as NAME.json and return
    the commands run on it, JSON first, then --pretty."""
    commands = []
    for name, (vertices, box) in SKEW_LOWER_DIMENSIONAL.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        commands += [["points", path, str(n)] for n in range(4)]
        commands += [["minkowski", path, "2"], ["check-equality", path, "1..3"]]
        commands += [["points", path, "3", "--cap", str(cap)] for cap in (box, box - 1)]
    commands.append(["points", "thin-triangle-3d.json", "11"])  # its box in the frame is over DEFAULT_BOX_CAP
    return commands + [["--pretty", *argv] for argv in commands]


def _midpoint_commands(work: Path):
    """Write each MIDPOINT_CLOUDS cloud into work as NAME.json and return points at
    n = 1..2 and check-equality over 1..2 on it, JSON first, then --pretty."""
    commands = []
    for name, points in MIDPOINT_CLOUDS.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps({"dim": len(points[0]), "vertices": points}))
        commands += [["points", path, "1"], ["points", path, "2"], ["check-equality", path, "1..2"]]
    return commands + [["--pretty", *argv] for argv in commands]


def _finite_stream_commands(work: Path):
    """Write each FINITE_STREAMS input into work as NAME.json and return the
    commands run on it, JSON first, then --pretty: the ball commands on each,
    the polytope commands on the polytope."""
    commands = []
    for name, doc in FINITE_STREAMS.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps(doc))
        commands += [
            ["word-ball", path, "4"],
            ["boundary", path, "4"],
            ["check-boundary", path, "1..4"],
            ["check-boundary", path, "3..6"],
        ]
        if "vertices" in doc:
            commands += [
                ["minkowski", path, "4"],
                ["check-equality", path, "1..4"],
                ["check-equality", path, "3..6"],
            ]
    return commands + [["--pretty", *argv] for argv in commands]


def _code_path_commands(work: Path):
    """Write the CODE_PATH_POLYTOPES and the written CODE_PATH_GROUPS into work
    and return check-equality on each polytope over its range, word-ball and
    boundary at 5 and check-boundary over 1..5 on each group, and the
    THEOREM_STOP_COMMANDS, JSON first, then --pretty."""
    commands = []
    for name, (vertices, ns) in CODE_PATH_POLYTOPES.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        commands.append(["check-equality", path, ns])
    for path, doc in CODE_PATH_GROUPS.items():
        if doc is not None:
            (work / path).write_text(json.dumps(doc))
        commands += [["word-ball", path, "5"], ["boundary", path, "5"], ["check-boundary", path, "1..5"]]
    commands += THEOREM_STOP_COMMANDS
    return commands + [["--pretty", *argv] for argv in commands]


def _lemma1_commands(work: Path):
    """Write the seeded lemma1 matrices into work as lemma1-D-I.json and
    return the lemma1 command on each, JSON first, then --pretty."""
    rng, commands = random.Random(24), []
    for d in range(1, 5):
        for i in range(2):
            unit = [[int(r == c) for c in range(d)] for r in range(d)]
            for _ in range(3 * (d - 1)):
                (r, c), k = rng.sample(range(d), 2), rng.choice((-2, -1, 1, 2))
                unit[r] = [a + k * b for a, b in zip(unit[r], unit[c])]
            sign, r, k = rng.choice((-1, 1)), rng.randrange(d), rng.choice((2, 3))
            unit[0] = [sign * a for a in unit[0]]
            scaled = unit[:r] + [[k * a for a in unit[r]]] + unit[r + 1 :]
            singular = unit[:-1] + [list(map(sum, zip([0] * d, *unit[:-1])))]  # last row: the sum of the others
            for kind, matrix in [("unit", unit), ("scaled", scaled), ("singular", singular)]:
                path = f"lemma1-{d}-{kind}-{i}.json"
                (work / path).write_text(json.dumps({"matrix": matrix}))
                commands.append(["lemma1", path])
    return commands + [["--pretty", *argv] for argv in commands]


# The row-swap cases that test_pinned_pivots (tests/test_linalg.py) pins, for lemma1.
SWAP_MATRICES = {
    "swap-2": [[0, 1], [1, 0]],
    "anti-diagonal-3": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    "zero-minor-3": [[1, 2, 3], [2, 4, 5], [1, 1, 1]],
    "cycle-4": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]],
}
# Sorted, its first vertex is (0, 0, 1), so its (v, 1) matrix has a zero first pivot.
ZERO_PIVOT_SIMPLEX = [[0, 1, 0], [0, 0, 1], [1, 0, 0], [2, 3, 5]]


def _swap_path_commands(work: Path):
    """Write SWAP_MATRICES, matrices with entries near 10^12 and ZERO_PIVOT_SIMPLEX into
    work and return lemma1 on each matrix and classify on the simplex, JSON first, then
    --pretty. The unit matrix of size d has rows 1...1 and 10^12 + [j >= i], i = 1..d-1
    (det 1); the scaled one has its last row times 3, the singular one the sum of the others there."""
    matrices, big = dict(SWAP_MATRICES), 10**12
    for d in range(2, 5):
        unit = [[1] * d] + [[big + (j >= i) for j in range(d)] for i in range(1, d)]
        matrices[f"big-{d}-unit"] = unit
        matrices[f"big-{d}-scaled"] = unit[:-1] + [[3 * x for x in unit[-1]]]
        matrices[f"big-{d}-singular"] = unit[:-1] + [list(map(sum, zip(*unit[:-1])))]
    commands = []
    for name, matrix in matrices.items():
        (work / f"lemma1-{name}.json").write_text(json.dumps({"matrix": matrix}))
        commands.append(["lemma1", f"lemma1-{name}.json"])
    (work / "zero-pivot-simplex-3d.json").write_text(json.dumps({"dim": 3, "vertices": ZERO_PIVOT_SIMPLEX}))
    commands.append(["classify", "zero-pivot-simplex-3d.json"])
    return commands + [["--pretty", *argv] for argv in commands]


def _decompose_commands(data: Path):
    """decompose at n = 3 and 50 on four bundled polytopes, at n times each
    vertex and at the floor of n times the vertex centroid, JSON first, then
    --pretty."""
    commands = []
    for name in ("unit-square", "cross-2d", "unit-cube", "cross-3d"):
        vertices = json.loads((data / f"{name}.json").read_text())["vertices"]
        for n in (3, 50):
            centroid = [n * sum(c) // len(vertices) for c in zip(*vertices)]
            for point in [[n * c for c in v] for v in vertices] + [centroid]:
                commands.append(["decompose", name, str(n), ",".join(map(str, point))])
    return commands + [["--pretty", *argv] for argv in commands]


# Polytopes whose searched triangulation decompose reads back from documents that
# list the polytope in other ways: (canonical vertices, a lattice point that is not
# a vertex, targets in the 2-fold dilation).
REUSE_POLYTOPES = {
    "cube-3-0-2": ([list(v) for v in itertools.product((0, 2), repeat=3)], [1, 1, 1], ["4,4,4", "1,2,3"]),
    "cross-3d": (sorted([s * int(i == j) for j in range(3)] for i in range(3) for s in (1, -1)), [0, 0, 0], ["2,0,0", "1,-1,0"]),
}
# The triangulation of the unit square that put (2, 1) in a decomposition, a false witness.
FALSE_WITNESS = {
    "polytope": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    "simplices": [[[0, 0], [1, 1], [2, 1]], [[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]],
}


def _listings(vertices, inner):
    """Polytope documents of the canonical vertices: the same listing, and others that a
    reused polytope must not stand in for (only "same" and "no-dim" list them exactly)."""
    d = len(vertices[0])
    return {
        "same": {"dim": d, "vertices": vertices},
        "permuted": {"dim": d, "vertices": vertices[::-1]},
        "duplicate": {"dim": d, "vertices": vertices + vertices[:1]},
        "non-vertex": {"dim": d, "vertices": vertices + [inner]},
        "no-dim": {"vertices": vertices},
        "wrong-dim": {"dim": d + 1, "vertices": vertices},
        "str-dim": {"dim": str(d), "vertices": vertices},
        "bool-dim": {"dim": True, "vertices": vertices},
        "other": {"dim": d, "vertices": vertices[:-1]},
    }


def _triangulation_document_commands(work: Path, mutate):
    """Write each REUSE_POLYTOPES polytope and FALSE_WITNESS into work and return
    (argv, after) pairs: search-primitive on the polytope, whose after writes its
    triangulation under every `_listings` polytope document and its drop, duplicate
    and outside mutations (by `mutate`, the benchmark's own); then decompose at
    n = 2 through each document, validate-triangulation on each mutation and
    decompose through FALSE_WITNESS, JSON first, then --pretty."""
    searches, commands = [], []
    for name, (vertices, inner, points) in REUSE_POLYTOPES.items():
        path = f"reuse-{name}.json"
        (work / path).write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))

        def write(text, name=name, vertices=vertices, inner=inner):
            simplices = json.loads(text)["result"]["triangulation"]["simplices"]
            for variant, polytope in _listings(vertices, inner).items():
                doc = {"polytope": polytope, "simplices": simplices}
                (work / f"reuse-{name}-{variant}.json").write_text(json.dumps(doc))
            for kind in ("drop", "duplicate", "outside"):
                doc = {"polytope": _listings(vertices, inner)["same"], "simplices": mutate(simplices, kind, 0)}
                (work / f"reuse-{name}-{kind}-mutation.json").write_text(json.dumps(doc))

        searches.append((["search-primitive", path, "--point-cap", "40"], write))
        for variant in _listings(vertices, inner):
            for point in points:
                commands.append(["decompose", path, "2", point, "--triangulation", f"reuse-{name}-{variant}.json"])
        commands += [["validate-triangulation", f"reuse-{name}-{kind}-mutation.json"] for kind in ("drop", "duplicate", "outside")]
    (work / "false-witness-square.json").write_text(json.dumps(FALSE_WITNESS["polytope"]))
    (work / "false-witness.json").write_text(json.dumps(FALSE_WITNESS))
    commands.append(["decompose", "false-witness-square.json", "4", "3,2", "--triangulation", "false-witness.json"])
    return searches + [(argv, None) for argv in commands + [["--pretty", *argv] for argv in commands]]


def _orthant_fan_4d():
    """The orthant fan of the 4-D cross-polytope as `verify.orthant_fan(4)` builds it,
    as a triangulation document."""
    units = [[[s * int(i == j) for j in range(4)] for s in (1, -1)] for i in range(4)]
    vertices = [v for pair in units for v in pair]
    simplices = [
        [[0] * 4] + [[s * int(i == j) for j in range(4)] for i, s in enumerate(signs)]
        for signs in itertools.product((-1, 1), repeat=4)
    ]
    return {"polytope": {"dim": 4, "vertices": vertices}, "simplices": simplices}


def _inverse_commands(work: Path):
    """Write INVERSE_SIMPLICES, INVERSE_LOWER_DIMENSIONAL and the 4-D orthant fan,
    whole and with its first simplex replaced by conv{-e1, -e2, -e3, -e4, e1}, into
    work and return the commands run on them, JSON first, then --pretty."""
    commands = []
    for name, vertices in {**INVERSE_SIMPLICES, **INVERSE_LOWER_DIMENSIONAL}.items():
        path = f"{name}.json"
        (work / path).write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        if name in INVERSE_SIMPLICES:
            commands.append(["classify", path])
        else:
            commands += [["points", path, str(n)] for n in range(1, 4)] + [["check-equality", path, "1..2"]]
    fan = _orthant_fan_4d()
    replaced = dict(fan, simplices=[[[-int(i == j) for j in range(4)] for i in range(4)] + [[1, 0, 0, 0]]] + fan["simplices"][1:])
    for name, doc in (("orthant-fan-4d", fan), ("orthant-fan-4d-replaced", replaced)):
        (work / f"{name}.json").write_text(json.dumps(doc))
        commands.append(["validate-triangulation", f"{name}.json"])
    return commands + [["--pretty", *argv] for argv in commands]


def _deep_search_commands(work: Path):
    """Write each DEEP_SEARCHES polytope into work as NAME.json and return
    DEEP_SEARCH_ARGS, JSON first, then --pretty."""
    for name, vertices in DEEP_SEARCHES.items():
        (work / f"{name}.json").write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
    return DEEP_SEARCH_ARGS + [["--pretty", *argv] for argv in DEEP_SEARCH_ARGS]


def _seeded_search_commands(work: Path):
    """Write ROADMAP item 1's seeded 3-D polytopes into work as seeded-I.json and
    return search-primitive on each, JSON first, then --pretty."""
    rng, commands = random.Random(11), []
    for i in range(40):
        vertices = [[rng.randint(0, 4) for _ in range(3)] for _ in range(rng.randint(5, 8))]
        (work / f"seeded-{i}.json").write_text(json.dumps({"dim": 3, "vertices": vertices}))
        commands.append(["search-primitive", f"seeded-{i}.json", "--point-cap", "30", "--budget", "50"])
    return commands + [["--pretty", *argv] for argv in commands]


def _boundary_commands(work: Path):
    """Write cube(3, -1, 1) into work as cube-3.json and return the boundary
    commands at the largest balls of the balls workload, JSON first, then
    --pretty."""
    vertices = [list(v) for v in itertools.product((-1, 1), repeat=3)]
    (work / "cube-3.json").write_text(json.dumps({"dim": 3, "vertices": vertices}))
    commands = [
        ["check-boundary", "gl2z-swap-shear", "1..7"],
        ["boundary", "gl2z-swap-shear", "7"],
        ["check-boundary", "cube-3.json", "1..4"],
    ]
    return commands + [["--pretty", *argv] for argv in commands]


def _run_one(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse printed help or rejected the argv
            code = exc.code
        except Exception:
            code = "raised"
            traceback.print_exc(limit=0, file=err)
    return code, out.getvalue(), err.getvalue()


def digests(root: Path) -> list:
    """[argv, exit code, stdout digest, stderr digest] of every command, run
    against root's latmink in a fresh temporary work directory."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(HERE / "perfbench")]
    import workloads
    from latmink import cli

    rows = []

    def run(argv, after=None):
        code, out, err = _run_one(cli, argv)
        rows.append([argv, code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()])
        if after is not None and code == 0:
            after(out)

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in WORKLOADS:
            for seed in SEEDS:
                warmup, ops = workloads.build(workload, seed, PASS_SECONDS, Path(f"{workload}-{seed}"))
                for op in warmup + ops:
                    run(op.argv, op.after)
        for argv in _dataset_commands(root / "src" / "latmink" / "data"):
            run(argv)
        for argv in _lower_dimensional_commands(Path(tmp)) + _shadow_commands(Path(tmp)) + _finite_stream_commands(Path(tmp)):
            run(argv)
        for argv in _midpoint_commands(Path(tmp)) + _frame_commands(Path(tmp)):
            run(argv)
        for argv in _lemma1_commands(Path(tmp)) + _decompose_commands(root / "src" / "latmink" / "data"):
            run(argv)
        for argv in _inverse_commands(Path(tmp)) + _swap_path_commands(Path(tmp)):
            run(argv)
        for argv, after in _triangulation_document_commands(Path(tmp), workloads._mutate):
            run(argv, after)
        for argv in _deep_search_commands(Path(tmp)) + _seeded_search_commands(Path(tmp)) + _boundary_commands(Path(tmp)):
            run(argv)
        for argv in _code_path_commands(Path(tmp)):
            run(argv)
        for argv in VERIFY_COMMANDS + CAPPED_COMMANDS + LARGE_COMMANDS + BOUND_COMMANDS + PARSER_COMMANDS:
            run(argv)
        os.chdir(HERE)
    return rows


def _child(root: str) -> list:
    done = subprocess.run(
        [sys.executable, __file__, root], capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"error: the run against {root} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        print(json.dumps(digests(Path(argv[0]).resolve())))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (_child(root) for root in argv)
    differing = [(a, b) for a, b in zip(parent, change) if a != b]
    for a, b in differing:
        parts = [what for what, x, y in zip(("exit code", "stdout", "stderr"), a[1:], b[1:]) if x != y]
        shown = (arg if len(arg) <= 60 else f"{arg[:40]}... ({len(arg)} characters)" for arg in a[0])
        print(f"differs ({', '.join(parts)}): latmink {' '.join(shown)}")
    if len(parent) != len(change):
        print(f"differs: {len(parent)} commands against {len(change)}")
        return 1
    if differing:
        print(f"{len(differing)} of {len(parent)} commands differ")
        return 1
    print(f"same: {len(parent)} commands, identical exit codes, stdout and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
