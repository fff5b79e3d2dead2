"""Independent answers that the benchmark checks `latmink` reports against.

Nothing here imports `latmink`. Every answer is computed by a different
route from the library's: determinants by Laplace expansion, facets from
supporting hyperplanes through raw points, planar counts by Pick's theorem,
normalized volumes by finite differences of lattice-point counts (Ehrhart),
Minkowski powers and GL(2,Z) balls by plain set products.

Each `check_*` function takes the parsed JSON report of one operation plus
what the benchmark knows about its input, and returns None when the report
is right or a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
from math import comb, gcd


def det(rows):
    """Determinant of a small square integer matrix by Laplace expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def supporting_halfspaces(points, candidates=None):
    """Facet halfspaces (a, b), meaning a.x <= b, of conv(points).

    Every hyperplane through d affinely independent candidate points that
    leaves all points weakly on one side is kept. The candidates, all points
    by default, must include every vertex.
    """
    points = [tuple(p) for p in points]
    d = len(points[0])
    found = set()
    for subset in itertools.combinations(sorted(set(map(tuple, candidates or points))), d):
        base = subset[0]
        rows = [[q[i] - base[i] for i in range(d)] for q in subset[1:]]
        normal = tuple(
            (-1) ** j * det([row[:j] + row[j + 1:] for row in rows]) for j in range(d)
        )
        if not any(normal):
            continue
        normal = _primitive(normal)
        offset = _dot(normal, base)
        values = [_dot(normal, p) - offset for p in points]
        if all(v <= 0 for v in values):
            found.add((normal, offset))
        elif all(v >= 0 for v in values):
            found.add((tuple(-x for x in normal), -offset))
    return sorted(found)


def lattice_points(vertices, t=1, candidates=None):
    """Integer points of t*conv(vertices) by a box scan against own facets."""
    vertices = [tuple(v) for v in vertices]
    d = len(vertices[0])
    if t == 0:
        return [(0,) * d]
    halfspaces = [(a, t * b) for a, b in supporting_halfspaces(vertices, candidates)]
    los = [t * min(v[i] for v in vertices) for i in range(d)]
    his = [t * max(v[i] for v in vertices) for i in range(d)]
    return [
        p
        for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
        if all(_dot(a, p) <= b for a, b in halfspaces)
    ]


def in_dilation(vertices, t, point):
    """Is the integer point in t*conv(vertices)?"""
    return all(_dot(a, point) <= t * b for a, b in supporting_halfspaces(vertices))


def planar_hull(points):
    """Vertices of a planar point set in counter-clockwise order (monotone chain)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def boundary_count(points):
    """Number of integer points on the boundary of a lattice polygon."""
    hull = planar_hull(points)
    return sum(gcd(abs(x1 - x0), abs(y1 - y0)) for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))


def pick_count(points):
    """Number of integer points of a full-dimensional lattice polygon, by Pick."""
    hull = planar_hull(points)
    twice_area = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1])))
    boundary = boundary_count(hull)
    return (twice_area - boundary + 2) // 2 + boundary


def normalized_volume(vertices):
    """d! times the volume, as the d-th difference of the Ehrhart counts."""
    d = len(vertices[0])
    return sum(
        (-1) ** (d - t) * comb(d, t) * len(lattice_points(vertices, t)) for t in range(d + 1)
    )


def minkowski_power(omega, n):
    """The n-fold sums of omega as a set of tuples."""
    acc = {tuple(p) for p in omega}
    for _ in range(n - 1):
        acc = {tuple(x + y for x, y in zip(p, q)) for p in acc for q in omega}
    return acc


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def gl2z_balls(generators, n):
    """Word balls of radius 0..n, each grown by left products with the generators."""
    balls = [{((1, 0), (0, 1))}]
    for _ in range(n):
        balls.append({mat_mul(w, a) for w in generators for a in balls[-1]})
    return balls


def _as_matrix(element):
    return tuple(tuple(row) for row in element)


# --- checks, one per operation kind ------------------------------------------


def check_points(report, raw_points, outer=None):
    """`points P 1` on a cloud: counts and points against the own hull.

    `outer` are the raw points that can be vertices (all by default).
    """
    result = report["result"]
    reported = {tuple(p) for p in result["points"]}
    raw = {tuple(p) for p in raw_points}
    vertices = {tuple(v) for v in report["inputs"]["polytope"]["vertices"]}
    if len(reported) != result["count"] or len(result["points"]) != result["count"]:
        return "count disagrees with the point list"
    if not raw <= reported:
        return f"input point {min(raw - reported)} not reported"
    if not vertices <= raw:
        return f"vertex {min(vertices - raw)} is not an input point"
    d = len(next(iter(raw)))
    if d == 2:
        if set(planar_hull(raw)) != vertices:
            return "vertices differ from the planar hull"
        expected = pick_count(raw)
        if result["count"] != expected:
            return f"count {result['count']} != Pick count {expected}"
        return None
    expected = set(lattice_points(list(raw), 1, outer))
    if reported != expected:
        return f"{len(reported ^ expected)} points differ from the own facet scan"
    return None


def check_lemma1(report, matrix):
    """The five equivalent flags all equal |det| == 1."""
    result = report["result"]
    value = det(matrix)
    flags = [
        result["lattice_onto"],
        result["inverse_integral"],
        result["det_unit"],
        result["parallelotope_unit_volume"],
        result["parallelotope_elementary"],
    ]
    if result["singular"] != (value == 0):
        return f"singular flag is {result['singular']} but det is {value}"
    if any(flag != (abs(value) == 1) for flag in flags):
        return f"flags {flags} disagree with det {value}"
    return None


def _check_range(rows, lo, hi):
    if [row["n"] for row in rows] != list(range(lo, hi + 1)):
        return f"reported n values {[row['n'] for row in rows]} != {lo}..{hi}"
    return None


def check_equality_planar(report, hi):
    """Planar theorem: equality at every n."""
    rows = report["result"]
    problem = _check_range(rows, 1, hi)
    if problem:
        return problem
    for row in rows:
        if not row["holds"] or row["witness"] is not None:
            return f"equality reported failing at n={row['n']} for a polygon"
    return None


def check_equality_exact(report, vertices, hi):
    """Every n of a range against the own dilation scan and own n-fold sums."""
    rows = report["result"]
    problem = _check_range(rows, 1, hi)
    if problem:
        return problem
    omega = lattice_points(vertices, 1)
    for row in rows:
        n = row["n"]
        missing = sorted(set(lattice_points(vertices, n)) - minkowski_power(omega, n))
        if row["holds"] != (not missing):
            return f"n={n}: holds={row['holds']} but {len(missing)} points are missing"
        if missing:
            witness = tuple(row["witness"])
            if not in_dilation(vertices, n, witness):
                return f"n={n}: witness {witness} is outside the dilation"
            if witness in minkowski_power(omega, n):
                return f"n={n}: witness {witness} is an {n}-fold sum"
            if witness != missing[0]:
                return f"n={n}: witness {witness} is not the lex-least missing point"
    return None


def check_sigma_claims(report, d, m):
    """The paper's two named counterexamples, on top of the exact check."""
    rows = {row["n"]: row for row in report["result"]}
    if (d, m) == (3, 2) and 2 in rows:
        if rows[2]["holds"] or rows[2]["witness"] != [0, 0, 1]:
            return "sigma(3,2) must fail at n=2 with witness (0,0,1)"
    if (d, m) == (5, 2) and 3 in rows:
        first = min((n for n, row in rows.items() if not row["holds"]), default=None)
        if first != 3:
            return f"sigma(5,2) must first fail at n=3, got {first}"
    return None


def zd_ball_size(shape, d, n):
    """Closed forms for the balls of the Z^d presentations used."""
    if shape == "cube":
        return (2 * n + 1) ** d
    if shape == "cross" and d == 2:
        return 2 * n * n + 2 * n + 1
    if shape == "cross" and d == 3:
        return (2 * n + 1) * (2 * n * n + 2 * n + 3) // 3
    raise ValueError(f"no closed form for {shape} in dimension {d}")


def check_zd_ball(report, shape, d, n):
    result = report["result"]
    elements = {tuple(e) for e in result["elements"]}
    expected = zd_ball_size(shape, d, n)
    if result["count"] != expected or len(elements) != expected:
        return f"{shape}({d}) ball of radius {n} has {result['count']} elements, expected {expected}"
    norm = (lambda e: max(map(abs, e))) if shape == "cube" else (lambda e: sum(map(abs, e)))
    if any(norm(e) > n for e in elements):
        return "a ball element lies outside the dilation"
    return None


def check_zd_boundary(report, hi):
    rows = report["result"]
    problem = _check_range(rows, 1, hi)
    if problem:
        return problem
    for row in rows:
        if not row["holds"] or row["lhs_minus_rhs"] or row["rhs_minus_lhs"]:
            return f"boundary equality reported failing at n={row['n']}"
    return None


def check_gl2z_ball(report, generators, n):
    result = report["result"]
    expected = gl2z_balls(generators, n)[n]
    got = {_as_matrix(e) for e in result["elements"]}
    if result["count"] != len(expected) or got != expected:
        return f"GL(2,Z) ball of radius {n}: {result['count']} elements, expected {len(expected)}"
    return None


def check_gl2z_boundary(report, generators, hi):
    rows = report["result"]
    problem = _check_range(rows, 1, hi)
    if problem:
        return problem
    balls = gl2z_balls(generators, hi)
    for row in rows:
        n = row["n"]
        ball = balls[n]
        boundary = {a for a in ball if any(mat_mul(w, a) not in ball for w in generators)}
        fresh = ball - balls[n - 1]
        got_rl = {_as_matrix(e) for e in row["rhs_minus_lhs"]}
        got_lr = {_as_matrix(e) for e in row["lhs_minus_rhs"]}
        if got_rl != fresh - boundary or got_lr != boundary - fresh:
            return f"n={n}: boundary differences disagree with the own product search"
        if row["holds"] != (not (fresh - boundary)):
            return f"n={n}: holds={row['holds']} disagrees with the own product search"
    if rows and rows[0]["n"] == 1:
        if rows[0]["holds"] or [[0, 1], [1, 0]] not in rows[0]["rhs_minus_lhs"]:
            return "n=1 must fail with the swap in rhs_minus_lhs"
    return None


def check_search(report, vertices, expect_found):
    """A found triangulation is primitive and has normalized-volume many simplices."""
    result = report["result"]
    if not expect_found:
        if result["found"] or not result["exhausted"] or result["triangulation"] is not None:
            return "search must exhaust without a triangulation"
        return None
    if not result["found"] or result["triangulation"] is None:
        return "no triangulation found"
    simplices = result["triangulation"]["simplices"]
    for s in simplices:
        base = s[0]
        if abs(det([[q[i] - base[i] for i in range(len(base))] for q in s[1:]])) != 1:
            return f"simplex {s} is not unimodular"
    if len({tuple(map(tuple, s)) for s in simplices}) != len(simplices):
        return "a simplex is listed twice"
    omega = set(lattice_points(vertices, 1))
    if any(tuple(v) not in omega for s in simplices for v in s):
        return "a simplex vertex is not a lattice point of the polytope"
    volume = normalized_volume(vertices)
    if len(simplices) != volume:
        return f"{len(simplices)} simplices, normalized volume is {volume}"
    return None


def check_validation(report, expect_valid):
    result = report["result"]
    if result["valid"] != expect_valid:
        return f"validation says valid={result['valid']}, expected {expect_valid}"
    if expect_valid and (result["problems"] or not result["is_primitive"]):
        return "a valid primitive triangulation was reported with problems"
    if not expect_valid and not result["problems"]:
        return "an invalid triangulation was reported without problems"
    return None


def check_decomposition(report, vertices, n, target):
    result = report["result"]
    summands = [tuple(s) for s in result["summands"]]
    omega = set(lattice_points(vertices, 1))
    if tuple(result["target"]) != tuple(target):
        return "reported target differs from the requested point"
    if len(summands) != n:
        return f"{len(summands)} summands, expected {n}"
    if any(s not in omega for s in summands):
        return "a summand is not a lattice point of the polytope"
    if tuple(map(sum, zip(*summands))) != tuple(target):
        return "summands do not add up to the target"
    return None
