"""Each check accepts a right report and rejects a corrupted one.

Run from the root of the checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import unittest

import oracle

SWAP = [[0, 1], [1, 0]]
GL2Z = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 1), (1, 0)),
    ((1, -1), (0, 1)),
    ((-1, 1), (1, 0)),
)
SIGMA_3_2 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 2)]
SIGMA_5_2 = [(0,) * 5] + [tuple(int(i == j) for j in range(5)) for i in range(4)] + [(-1, -1, -1, -1, 2)]
UNIT_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def points_report(vertices, points):
    return {
        "inputs": {"polytope": {"vertices": [list(v) for v in vertices]}},
        "result": {"count": len(points), "points": [list(p) for p in points]},
    }


def equality_report(rows):
    return {"result": [{"n": n, "holds": w is None, "witness": w} for n, w in rows]}


def gl2z_boundary_report(hi):
    balls = oracle.gl2z_balls(GL2Z, hi)
    rows = []
    for n in range(1, hi + 1):
        ball = balls[n]
        boundary = {a for a in ball if any(oracle.mat_mul(w, a) not in ball for w in GL2Z)}
        fresh = ball - balls[n - 1]
        as_list = lambda s: [[list(r) for r in m] for m in sorted(s)]
        rows.append({
            "n": n,
            "holds": not (fresh - boundary),
            "lhs_minus_rhs": as_list(boundary - fresh),
            "rhs_minus_lhs": as_list(fresh - boundary),
        })
    return {"result": rows}


class Helpers(unittest.TestCase):
    def test_det(self):
        self.assertEqual(oracle.det([[2, 0, 0], [0, 3, 0], [1, 1, 1]]), 6)
        self.assertEqual(oracle.det([[1, 2], [2, 4]]), 0)

    def test_counts_and_volumes(self):
        self.assertEqual(oracle.pick_count([(0, 0), (2, 0), (0, 2)]), 6)
        self.assertEqual(len(oracle.lattice_points(SIGMA_3_2, 2)), 11)
        self.assertEqual(oracle.normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1)
        self.assertEqual(oracle.normalized_volume(SIGMA_3_2), 2)
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        self.assertEqual(oracle.normalized_volume(cube), 6)

    def test_ball_sizes_match_sums(self):
        cross3 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0)]
        for n in range(1, 5):
            self.assertEqual(len(oracle.minkowski_power(cross3, n)), oracle.zd_ball_size("cross", 3, n))


class Checks(unittest.TestCase):
    def assertAccepts(self, problem):
        self.assertIsNone(problem)

    def assertRejects(self, problem):
        self.assertIsInstance(problem, str)

    def test_points_planar(self):
        raw = [(0, 0), (2, 0), (0, 2), (1, 0)]
        points = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        vertices = [(0, 0), (0, 2), (2, 0)]
        self.assertAccepts(oracle.check_points(points_report(vertices, points), raw))
        self.assertRejects(oracle.check_points(points_report(vertices, points[:-1] + [(2, 2)]), raw))
        self.assertRejects(oracle.check_points(points_report(vertices + [(1, 0)], points), raw))
        self.assertRejects(oracle.check_points(points_report(vertices, [p for p in points if p != (1, 0)]), raw))

    def test_points_spatial(self):
        raw = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)] + [(1, 1, 1)]
        points = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        vertices = raw[:8]
        self.assertAccepts(oracle.check_points(points_report(vertices, points), raw))
        self.assertRejects(oracle.check_points(points_report(vertices, points[:-1] + [(3, 0, 0)]), raw))
        self.assertRejects(oracle.check_points(points_report(vertices, [p for p in points if p != (1, 1, 1)]), raw))

    def test_lemma1(self):
        report = {"result": dict.fromkeys(
            ["lattice_onto", "inverse_integral", "det_unit", "parallelotope_unit_volume", "parallelotope_elementary"], True)}
        report["result"]["singular"] = False
        self.assertAccepts(oracle.check_lemma1(report, [[1, 2], [0, 1]]))
        self.assertRejects(oracle.check_lemma1(report, [[2, 0], [0, 1]]))
        report["result"]["inverse_integral"] = False
        self.assertRejects(oracle.check_lemma1(report, [[1, 2], [0, 1]]))

    def test_equality_exact(self):
        good = equality_report([(1, None), (2, [0, 0, 1])])
        self.assertAccepts(oracle.check_equality_exact(good, SIGMA_3_2, 2))
        self.assertAccepts(oracle.check_sigma_claims(good, 3, 2))
        for bad in (
            equality_report([(1, None), (2, None)]),
            equality_report([(1, None), (2, [0, 0, 0])]),
            equality_report([(1, None), (2, [0, 0, 9])]),
            equality_report([(1, None)]),
        ):
            self.assertRejects(oracle.check_equality_exact(bad, SIGMA_3_2, 2))

    def test_sigma_5_2_first_failure(self):
        good = equality_report([(1, None), (2, None), (3, [0, 0, 0, 0, 1])])
        self.assertAccepts(oracle.check_equality_exact(good, SIGMA_5_2, 3))
        self.assertAccepts(oracle.check_sigma_claims(good, 5, 2))
        early = equality_report([(1, None), (2, [0, 0, 0, 0, 1]), (3, [0, 0, 0, 0, 1])])
        self.assertRejects(oracle.check_sigma_claims(early, 5, 2))
        self.assertRejects(oracle.check_equality_exact(early, SIGMA_5_2, 3))

    def test_equality_planar(self):
        self.assertAccepts(oracle.check_equality_planar(equality_report([(1, None), (2, None)]), 2))
        self.assertRejects(oracle.check_equality_planar(equality_report([(1, None), (2, [1, 1])]), 2))

    def test_zd_ball(self):
        elements = sorted(oracle.minkowski_power([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], 2))
        report = {"result": {"count": len(elements), "elements": [list(e) for e in elements]}}
        self.assertAccepts(oracle.check_zd_ball(report, "cross", 2, 2))
        report["result"]["elements"][-1] = [2, 2]
        self.assertRejects(oracle.check_zd_ball(report, "cross", 2, 2))
        del report["result"]["elements"][-1]
        report["result"]["count"] -= 1
        self.assertRejects(oracle.check_zd_ball(report, "cross", 2, 2))

    def test_zd_boundary(self):
        row = {"n": 1, "holds": True, "lhs_minus_rhs": [], "rhs_minus_lhs": []}
        self.assertAccepts(oracle.check_zd_boundary({"result": [row]}, 1))
        self.assertRejects(oracle.check_zd_boundary({"result": [dict(row, holds=False, rhs_minus_lhs=[[0, 1]])]}, 1))

    def test_gl2z_ball(self):
        ball = sorted(oracle.gl2z_balls(GL2Z, 2)[2])
        report = {"result": {"count": len(ball), "elements": [[list(r) for r in m] for m in ball]}}
        self.assertAccepts(oracle.check_gl2z_ball(report, GL2Z, 2))
        report["result"]["elements"].pop()
        report["result"]["count"] -= 1
        self.assertRejects(oracle.check_gl2z_ball(report, GL2Z, 2))

    def test_gl2z_boundary(self):
        good = gl2z_boundary_report(2)
        self.assertIn(SWAP, good["result"][0]["rhs_minus_lhs"])
        self.assertAccepts(oracle.check_gl2z_boundary(good, GL2Z, 2))
        bad = copy.deepcopy(good)
        bad["result"][0]["rhs_minus_lhs"].remove(SWAP)
        self.assertRejects(oracle.check_gl2z_boundary(bad, GL2Z, 2))
        bad = copy.deepcopy(good)
        bad["result"][1]["holds"] = not bad["result"][1]["holds"]
        self.assertRejects(oracle.check_gl2z_boundary(bad, GL2Z, 2))

    def test_search(self):
        tri = [[[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]]
        found = {"result": {"found": True, "exhausted": False, "triangulation": {"simplices": tri}}}
        self.assertAccepts(oracle.check_search(found, UNIT_SQUARE, True))
        self.assertRejects(oracle.check_search(found, UNIT_SQUARE, False))
        short = copy.deepcopy(found)
        short["result"]["triangulation"]["simplices"].pop()
        self.assertRejects(oracle.check_search(short, UNIT_SQUARE, True))
        fat = copy.deepcopy(found)
        fat["result"]["triangulation"]["simplices"] = [[[0, 0], [2, 0], [0, 2]], [[0, 0], [1, 0], [0, 1]]]
        self.assertRejects(oracle.check_search(fat, UNIT_SQUARE, True))
        none = {"result": {"found": False, "exhausted": True, "triangulation": None}}
        self.assertAccepts(oracle.check_search(none, SIGMA_3_2, False))
        self.assertRejects(oracle.check_search(dict(none, result=dict(none["result"], exhausted=False)), SIGMA_3_2, False))

    def test_validation(self):
        valid = {"result": {"valid": True, "is_primitive": True, "problems": []}}
        invalid = {"result": {"valid": False, "is_primitive": True, "problems": ["simplex 1 duplicates simplex 0"]}}
        self.assertAccepts(oracle.check_validation(valid, True))
        self.assertAccepts(oracle.check_validation(invalid, False))
        self.assertRejects(oracle.check_validation(valid, False))
        self.assertRejects(oracle.check_validation(invalid, True))

    def test_decomposition(self):
        good = {"result": {"target": [1, 1], "summands": [[0, 0], [1, 1]]}}
        self.assertAccepts(oracle.check_decomposition(good, UNIT_SQUARE, 2, (1, 1)))
        self.assertRejects(oracle.check_decomposition(good, UNIT_SQUARE, 3, (1, 1)))
        outside = {"result": {"target": [1, 1], "summands": [[-1, 0], [2, 1]]}}
        self.assertRejects(oracle.check_decomposition(outside, UNIT_SQUARE, 2, (1, 1)))
        wrong_sum = {"result": {"target": [1, 1], "summands": [[0, 0], [1, 0]]}}
        self.assertRejects(oracle.check_decomposition(wrong_sum, UNIT_SQUARE, 2, (1, 1)))


if __name__ == "__main__":
    unittest.main()
