import errno
import gc
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from latmink import cli, geometry, groups, minkowski
from latmink.cli import build_parser, main

from conftest import fresh_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def run_fresh(*argv, timeout=60) -> subprocess.CompletedProcess:
    """`python -m latmink *argv` in a fresh interpreter, stopped after timeout seconds."""
    return subprocess.run(
        [sys.executable, "-m", "latmink", *argv], capture_output=True, text=True, env=fresh_env(), timeout=timeout
    )


class TestPoints:
    def test_unit_square_doubled(self, capsys):
        code, doc, _ = run_json(capsys, "points", "unit-square.json", "2")
        assert code == 0
        assert doc["result"]["count"] == 9

    def test_sigma_3_2_single(self, capsys):
        code, doc, _ = run_json(capsys, "points", "sigma-3-2.json", "1")
        assert code == 0
        assert doc["result"]["count"] == 4

    def test_sigma_3_3_five_points(self, capsys):
        code, doc, _ = run_json(capsys, "points", "sigma-3-3.json", "1")
        assert code == 0
        assert doc["result"]["count"] == 5
        assert [0, 0, 1] in doc["result"]["points"]

    def test_bundled_name_without_extension(self, capsys):
        code, doc, _ = run_json(capsys, "points", "unit-square", "1")
        assert code == 0
        assert doc["result"]["count"] == 4

    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run(capsys, "points", "no-such-polytope.json", "1")
        assert code == 2
        assert "no such file" in err

    @pytest.mark.parametrize("name", ["no-such-dir/unit-square.json", "./unit-square", "{tmp}/unit-square.json"])
    def test_missing_path_does_not_fall_back_to_a_bundled_dataset(self, capsys, tmp_path, monkeypatch, name):
        # only a bare name falls back to the bundled dataset of that name
        monkeypatch.chdir(tmp_path)
        name = name.format(tmp=tmp_path)
        code, out, err = run(capsys, "points", name, "1")
        assert (code, out) == (2, "")
        assert err == f"error: no such file or bundled dataset: {geometry.quoted_prefix(name)}\n"

    def test_cap_exceeded_exit_code(self, capsys):
        code, out, err = run(capsys, "--cap", "3", "points", "unit-square.json", "5")
        assert code == 3
        assert "cap" in err

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "points", "cross-3d.json", "2")
        _, second, _ = run(capsys, "points", "cross-3d.json", "2")
        assert first == second


class TestClosedStdout:
    def test_closed_pipe_exits_141_without_traceback(self):
        # the console script's form: main called directly; the report, far larger
        # than a pipe buffer, meets the pipe closed after its first bytes
        env = fresh_env()
        script = "import sys\nfrom latmink.cli import main\nsys.exit(main())\n"
        argv = [sys.executable, "-c", script, "points", "sigma-3-2", "30"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(100).startswith(b"{")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err and "Error" not in err


class TestMinkowski:
    def test_power_of_square(self, capsys):
        code, doc, _ = run_json(capsys, "minkowski", "unit-square.json", "2")
        assert code == 0
        assert doc["result"]["count"] == 9

    # The box of 9 * unit-square has 10^2 = 100 points, all of them sums.
    def test_cap_at_the_box_size(self, capsys):
        code, doc, _ = run_json(capsys, "minkowski", "unit-square", "9", "--cap", "100")
        assert code == 0 and doc["result"]["count"] == 100
        code, out, err = run(capsys, "minkowski", "unit-square", "9", "--cap", "99")
        assert (code, out) == (3, "")
        assert err == "resource cap exceeded: bounding box has 100 candidate points, cap is 99\n"

    def test_cap_acts_before_any_product(self, capsys, monkeypatch):
        calls = []

        def counted_word_ball(*args, **kwargs):
            calls.append(args)
            return groups.word_ball(*args, **kwargs)

        monkeypatch.setattr(minkowski, "word_ball", counted_word_ball)
        code, out, err = run(capsys, "minkowski", "unit-square", "300", "--cap", "100")
        assert (code, out, calls) == (3, "", [])
        assert err == "resource cap exceeded: bounding box has 90601 candidate points, cap is 100\n"
        assert run(capsys, "points", "unit-square", "300", "--cap", "100") == (3, "", err)


class TestCheckEquality:
    def test_sigma_3_2_range(self, capsys):
        code, doc, _ = run_json(capsys, "check-equality", "sigma-3-2.json", "1..2")
        assert code == 0
        rows = doc["result"]
        assert rows[0] == {"n": 1, "holds": True, "witness": None}
        assert rows[1] == {"n": 2, "holds": False, "witness": [0, 0, 1]}

    def test_sigma_5_2_delayed(self, capsys):
        code, doc, _ = run_json(capsys, "check-equality", "sigma-5-2.json", "1..3")
        assert code == 0
        assert [r["holds"] for r in doc["result"]] == [True, True, False]

    def test_sym_example_witness(self, capsys):
        code, doc, _ = run_json(capsys, "check-equality", "sym-example.json", "2")
        assert code == 0
        assert doc["result"][0]["witness"] == [-1, -1, 1]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "check-equality", "sigma-3-2.json", "2..1")
        assert code == 2


class TestDecompose:
    def test_cube_with_searched_triangulation(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "unit-cube.json", "2", "1,1,2")
        assert code == 0
        summands = [tuple(s) for s in doc["result"]["summands"]]
        assert len(summands) == 2
        assert tuple(map(sum, zip(*summands))) == (1, 1, 2)

    def test_negative_coordinates_as_separate_tokens(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "cross-2d.json", "2", "-1", "-1")
        assert code == 0
        assert doc["result"]["summands"] == [[-1, 0], [0, -1]]

    @pytest.mark.parametrize("comma, spaced", [("-1,-1", ("-1", "-1")), ("-1,0", ("-1", "0"))])
    def test_comma_separated_point_with_leading_minus(self, capsys, comma, spaced):
        code, out, _ = run(capsys, "decompose", "cross-2d.json", "2", comma)
        assert code == 0
        assert out == run(capsys, "decompose", "cross-2d.json", "2", *spaced)[1]

    @pytest.mark.parametrize("token", ["-1,x", "1,x"])
    def test_malformed_comma_separated_point(self, capsys, token):
        code, out, err = run(capsys, "decompose", "cross-2d.json", "2", token)
        assert (code, out, err) == (2, "", f"error: bad point {token!r}\n")

    def test_explicit_triangulation_file(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "search-primitive", "cross-2d.json")
        assert code == 0
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc["result"]["triangulation"]))
        code, doc, _ = run_json(
            capsys,
            "decompose",
            "cross-2d.json",
            "2",
            "1,-1",
            "--triangulation",
            str(path),
        )
        assert code == 0
        assert doc["result"]["summands"] == [[0, -1], [1, 0]]

    def test_point_outside(self, capsys):
        code, _, err = run(capsys, "decompose", "unit-cube.json", "2", "5,0,0")
        assert code == 2

    def test_no_primitive_triangulation(self, capsys):
        code, _, err = run(capsys, "decompose", "sigma-3-2.json", "1", "0,0,0")
        assert code == 2
        assert "no primitive triangulation" in err

    def test_n_is_bounded_by_the_box_cap(self, capsys, monkeypatch):
        # the box of unit-square has 4 points, so the search still runs at cap 9
        monkeypatch.setattr(geometry, "DEFAULT_BOX_CAP", 9)
        code, doc, _ = run_json(capsys, "decompose", "unit-square", "9", "9,0")
        assert code == 0 and doc["result"]["summands"] == [[1, 0]] * 9
        code, out, err = run(capsys, "decompose", "unit-square", "10", "10,0")
        assert (code, out, err) == (3, "", "resource cap exceeded: a decomposition has 10 summands, cap is 9\n")

    @pytest.mark.parametrize(
        "n, point, err",
        [
            ("0", "0,0,0", "error: n must be >= 1\n"),
            ("-1", "0,0,0", "error: n must be >= 1\n"),
            ("2", "0,0", "error: dimension mismatch\n"),
            ("2", "5,0,0", "error: (5, 0, 0) is not in the 2-fold dilation\n"),
            ("2", "1,x", "error: bad point '1,x'\n"),
        ],
    )
    def test_inputs_are_checked_before_the_search(self, capsys, monkeypatch, n, point, err):
        # a search that could run long (or fail on its budget) starts only for a decomposable target
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "search_primitive_triangulation", no_search)
        assert run(capsys, "decompose", "unit-cube", n, point) == (2, "", err)
        with pytest.raises(AssertionError, match="the search ran"):
            main(["decompose", "unit-cube", "2", "1,1,2"])

    def test_huge_n_exits_3_at_once(self):
        n = str(10**20)
        done = run_fresh("decompose", "unit-square", n, f"{n},0", timeout=30)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == f"resource cap exceeded: a decomposition has {n} summands, cap is 100000000\n"


class TestClassify:
    def test_sigma_3_2(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "sigma-3-2.json")
        assert code == 0
        result = doc["result"]
        assert result["is_elementary"] and not result["is_primitive"]
        assert result["normalized_volume"] == 2

    def test_sigma_prime(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "sigma-prime-3-2.json")
        assert code == 0
        assert doc["result"]["is_elementary"]


class TestLemma1:
    def test_sigma_matrix(self, capsys):
        code, doc, _ = run_json(capsys, "lemma1", "sigma-3-2-matrix.json")
        assert code == 0
        result = doc["result"]
        assert not result["det_unit"]
        assert result["corner_simplex_elementary"]
        assert not result["singular"]


class TestSearchAndValidate:
    def test_search_cube_then_validate_file(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "search-primitive", "unit-cube.json")
        assert code == 0
        assert doc["result"]["found"]
        tri_doc = doc["result"]["triangulation"]
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(tri_doc))
        code, doc2, _ = run_json(capsys, "validate-triangulation", str(path))
        assert code == 0
        assert doc2["result"]["valid"] and doc2["result"]["is_primitive"]

    def test_search_sigma_3_2_exhausts(self, capsys):
        code, doc, _ = run_json(capsys, "search-primitive", "sigma-3-2.json")
        assert code == 0
        assert not doc["result"]["found"]
        assert doc["result"]["exhausted"]

    @pytest.mark.parametrize("name, budget", [("unit-square", 1), ("cross-3d", 5)])
    def test_budget_stop_reports_the_budget(self, capsys, name, budget):
        # a search stopped by the budget took exactly budget nodes
        code, doc, _ = run_json(capsys, "search-primitive", name, "--budget", str(budget))
        assert code == 0
        assert doc["result"] == {"exhausted": False, "found": False, "nodes": budget, "triangulation": None}
        code, out, _ = run(capsys, "--pretty", "search-primitive", name, "--budget", str(budget))
        assert (code, out) == (0, f"no primitive triangulation found within budget ({budget} nodes)\n")

    def test_validate_malformed(self, capsys, tmp_path):
        bad = {
            "polytope": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
            "simplices": [
                [[0, 0], [1, 0], [1, 1]],
                [[0, 0], [1, 0], [1, 1]],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, doc, _ = run_json(capsys, "validate-triangulation", str(path))
        assert code == 0
        assert not doc["result"]["valid"]
        assert any("covered volume" in p for p in doc["result"]["problems"])

    def test_library_never_imports_the_lp(self, tmp_path):
        # a rejected input reaches the pair test; a fresh interpreter shows
        # which modules the command line loads
        diamond = {
            "polytope": {"dim": 2, "vertices": [[0, 0], [2, 0], [1, 1], [1, -1]]},
            "simplices": [[[0, 0], [2, 0], [1, 1]], [[0, 0], [1, 0], [1, -1]], [[1, 0], [2, 0], [1, -1]]],
        }
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(diamond))
        script = (
            "import sys\n"
            "from latmink.cli import main\n"
            "codes = [main(['validate-triangulation', sys.argv[1]]), main(['points', 'unit-square', '2'])]\n"
            "print(codes, 'latmink.lp' in sys.modules)\n"
        )
        env = fresh_env()
        done = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert "do not meet face-to-face" in done.stdout
        assert done.stdout.splitlines()[-1] == "[0, 0] False"


class TestImportGraph:
    """What a fresh interpreter loads for a command. It starts with -S: a site
    .pth file may import importlib.resources before latmink does."""

    COLD = ["dataclasses", "inspect", "importlib.resources", "latmink.verify"]

    def loaded(self, *commands) -> list[list[str]]:
        """The COLD modules loaded after `import latmink.cli`, then after each command in turn."""
        script = (
            "import contextlib, io, json, sys\n"
            "def cold(): return [m for m in json.loads(sys.argv[1]) if m in sys.modules]\n"
            "from latmink import cli\n"
            "seen = [cold()]\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    seen.append(cold())\n"
            "print(json.dumps(seen))\n"
        )
        argv = [sys.executable, "-S", "-c", script, json.dumps(self.COLD), json.dumps(commands)]
        done = subprocess.run(argv, capture_output=True, text=True, env=fresh_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_a_command_on_a_file(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        assert self.loaded(["points", str(path), "1"]) == [[], []]

    def test_commands_that_read_them(self):
        seen = self.loaded(["points", "unit-square", "1"], ["verify-paper", "--quick"])
        assert seen == [[], ["importlib.resources"], ["importlib.resources", "latmink.verify"]]


class TestGroupCommands:
    def test_word_ball_gl2z(self, capsys):
        code, doc, _ = run_json(capsys, "word-ball", "gl2z-swap-shear.json", "1")
        assert code == 0
        assert doc["result"]["count"] == 6

    def test_boundary_z1(self, capsys):
        code, doc, _ = run_json(capsys, "boundary", "z1-segment.json", "2")
        assert code == 0
        assert doc["result"]["elements"] == [[-2], [2]]

    def test_check_boundary_gl2z_fails_at_one(self, capsys):
        code, doc, _ = run_json(capsys, "check-boundary", "gl2z-swap-shear.json", "1")
        assert code == 0
        row = doc["result"][0]
        assert not row["holds"]
        assert [[0, 1], [1, 0]] in row["rhs_minus_lhs"]

    def test_check_boundary_cross_2d_all_hold(self, capsys):
        code, doc, _ = run_json(capsys, "check-boundary", "cross-2d.json", "1..5")
        assert code == 0
        assert all(r["holds"] for r in doc["result"])

    def test_check_boundary_z1_all_hold(self, capsys):
        code, doc, _ = run_json(capsys, "check-boundary", "z1-segment.json", "1..6")
        assert code == 0
        assert all(r["holds"] for r in doc["result"])

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "--pretty", "check-boundary", "z1-segment.json", "1..2")
        assert code == 0
        assert "holds" in out


class TestVerifyPaper:
    def test_quick_run_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify-paper", "--quick")
        assert code == 0
        assert doc["result"]["failed"] == 0
        assert doc["result"]["passed"] == len(doc["result"]["rows"])
        assert all(r["ok"] for r in doc["result"]["rows"])

    def test_pretty_lists_rows(self, capsys):
        code, out, _ = run(capsys, "--pretty", "verify-paper", "--quick")
        assert code == 0
        assert out.count("PASS") >= 18


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("points", "unit-square", "-1"),
            ("word-ball", "cross-2d", "-1"),
            ("minkowski", "unit-square", "-2"),
            ("check-equality", "unit-square", "0"),
            ("check-boundary", "cross-2d", "0..2"),
            ("decompose", "cross-2d", "-1", "0,0"),
        ],
    )
    def test_bad_n_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_path_exits_2_with_one_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "points", str(tmp_path), "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1


_SQUARE = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
_TRIANGLE = [[0, 0], [1, 0], [0, 1]]
_ID = [[1, 0], [0, 1]]

# Malformed documents, each with the argv that reads it ({} is the file).
_MALFORMED = [
    *(
        (("points", "{}", "1"), doc)
        for doc in [
            5, None, [], "x", {"dim": 2}, {"vertices": 5}, {"vertices": []}, {"vertices": {}},
            {"vertices": [5]}, {"vertices": [None]}, {"vertices": ["ab"]}, {"vertices": [[True]]},
            {"vertices": [["a"]]}, {"vertices": [[None]]}, {"vertices": [[[0]]]}, {"vertices": [[]]},
            {"vertices": [[0], [0, 1]]}, {"dim": "2", "vertices": [[0, 0]]},
            {"dim": True, "vertices": [[0]]}, {"dim": 3, "vertices": [[0, 0]]},
        ]
    ),
    (("classify", "{}"), {"vertices": [[0, 0], [1, 0]]}),
    (("classify", "{}"), {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}),
    *(
        (("validate-triangulation", "{}"), doc)
        for doc in [
            5, {"polytope": _SQUARE}, {"simplices": [_TRIANGLE]},
            {"polytope": 5, "simplices": [_TRIANGLE]},
            *(
                {"polytope": _SQUARE, "simplices": simplices}
                for simplices in [
                    5, None, True, "abc", {}, [], [5], [None], ["ab"], [[]], [[5]], [[None]],
                    [[[True, 0], [1, 0], [0, 1]]], [[["a", 0], [1, 0], [0, 1]]],
                    [[[0, 0], [1, 0]]], [[[0, 0], [1, 0], [0, 1], [1, 1]]], [[[0], [1]]],
                    [[[0, 0], [1, 1], [2, 2]]], [[[0, 0], [1, 0], [0]]],
                ]
            ),
        ]
    ),
    *(
        (("decompose", "cross-2d", "1", "0,0", "--triangulation", "{}"), {
            "polytope": {"dim": 2, "vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
            "simplices": simplices,
        })
        for simplices in [5, None, True, [[]]]
    ),
    *(
        (("word-ball", "{}", "1"), doc)
        for doc in [
            5, {"kind": "zd"}, {"generators": [[0]]}, {"vertices": [[1], [2]]}, {"vertices": [[True]]},
            *(
                {"kind": kind, "generators": [[0]], **dim}
                for kind, dim in [
                    ("zd", {}), ("zd", {"dim": 0}), ("zd", {"dim": -1}), ("zd", {"dim": True}),
                    ("zd", {"dim": "1"}), ("zd", {"dim": None}), ("free", {"dim": 1}),
                    (None, {"dim": 1}), (5, {"dim": 1}),
                ]
            ),
            *(
                {"kind": "zd", "dim": 1, "generators": generators}
                for generators in [
                    5, [], {}, [5], [None], ["ab"], [{}], [[True]], [["a"]], [[0, 1]], [[]], [[[0]]],
                ]
            ),
            {"kind": "zd", "dim": 5_000_000, "generators": [[0], [1]]},
            *(
                {"kind": "gl2z", "generators": [_ID, generator]}
                for generator in [
                    5, None, "ab", [1, 0], [[1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0]],
                    [[1, 0], 5], [[1, 0], None], [[1, 0], [0, True]], [[1, 0], [0, "a"]],
                    [[2, 0], [0, 1]], [[1, 0], "ab"], [[1, 0], {"a": 1, "b": 2}],
                ]
            ),
        ]
    ),
    *(
        (("lemma1", "{}"), doc)
        for doc in [
            5, [], {}, {"matrix": 5}, {"matrix": []}, [5], [None], ["ab"], [[1, 0]], [[1, 0], [0]],
            [[True]], [["a"]], [[None]], [[[1]]], [[]], [[1, 0], 5], [[1] * 5] * 5,
        ]
    ),
]
# Texts that are not JSON, or hold a float.
_MALFORMED_TEXT = [
    (("points", "{}", "1"), '{"vertices": [[0.5]]}'),
    (("points", "{}", "1"), '{"vertices": [[NaN]]}'),
    (("points", "{}", "1"), '{"vertices": '),
    (("word-ball", "{}", "1"), '{"kind": "zd", "dim": 1, "generators": [[1.5]]}'),
    (("lemma1", "{}"), "[[1.9, 0], [0, 1]]"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "argv, text",
        [(argv, json.dumps(doc)) for argv, doc in _MALFORMED] + _MALFORMED_TEXT,
        ids=lambda value: value[0] if isinstance(value, tuple) else value,
    )
    def test_exit_2_with_one_error_line(self, capsys, tmp_path, argv, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, *(str(path) if a == "{}" else a for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


class TestDeepDocuments:
    """A document nested 5,000 deep is too deep for the JSON decoder's
    recursion: one error line and exit 2, in a fresh interpreter so that the
    depth the decoder reaches is a command's, not the test runner's."""

    DEEP = "[" * 5000 + "]" * 5000

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("points", "{}", "1"), DEEP),
            (("points", "{}", "1"), '{"dim": 2, "vertices": ' + DEEP + "}"),
            (("lemma1", "{}"), DEEP),
            (("word-ball", "{}", "1"), '{"dim": 2, "vertices": ' + DEEP + "}"),
            (("validate-triangulation", "{}"), '{"polytope": {"dim": 1, "vertices": [[0], [1]]}, "simplices": ' + DEEP + "}"),
        ],
        ids=["points-array", "points-vertices", "lemma1", "word-ball", "validate-triangulation"],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        done = run_fresh(*(str(path) if a == "{}" else a for a in argv))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {path}: JSON document is nested too deeply\n"


class TestShortErrorLines:
    """A bad value nested just under the decoder's limit (958 deep) is named by
    its type, not its repr, and a 3,000-character float literal or group kind
    by its first 20 characters: one short error line and exit 2, in a fresh
    interpreter so that the depth the decoder reaches is a command's."""

    DEEP = "[" * 958 + "]" * 958
    LONG_FLOAT = "1." + "0" * 3000
    LONG_KIND = "x" * 3000

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (("points", "{}", "1"), '{"vertices": ' + DEEP + "}", "lattice coordinates must be plain ints, got list"),
            (("lemma1", "{}"), '{"matrix": [[' + DEEP + "]]}", "lattice coordinates must be plain ints, got list"),
            (
                ("word-ball", "{}", "1"),
                '{"kind": "zd", "dim": 1, "generators": [[' + DEEP + "]]}",
                "lattice coordinates must be plain ints, got list",
            ),
            (
                ("word-ball", "{}", "1"),
                '{"kind": "gl2z", "generators": [[[' + DEEP + ", 0], [0, 1]]]}",
                "matrix entries must be plain ints, got list",
            ),
            (("word-ball", "{}", "1"), '{"kind": ' + DEEP + ', "generators": [[0]]}', "a group kind must be a string, got list"),
            (
                ("points", "{}", "1"),
                '{"vertices": [[' + LONG_FLOAT + "]]}",
                "floating point literal '1.000000000000000000'...: coordinates must be exact integers",
            ),
            (
                ("word-ball", "{}", "1"),
                '{"kind": "' + LONG_KIND + '", "generators": [[0]]}',
                "unknown group kind 'xxxxxxxxxxxxxxxxxxxx'...",
            ),
        ],
        ids=["points", "lemma1", "zd", "gl2z", "kind", "float", "long-kind"],
    )
    def test_exit_2_with_one_short_line(self, tmp_path, argv, text, message):
        path = tmp_path / "deep.json"
        path.write_text(text)
        done = run_fresh(*(str(path) if a == "{}" else a for a in argv))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {path}: {message}\n"
        assert len(done.stderr) <= 200


class TestLongArguments:
    """A 3,000-character path, range, point, integer or subcommand is quoted by
    its first 20 characters: exit 2 and every stderr line under 200 characters,
    but for the list of choices after an unknown subcommand. A literal of 20
    characters or fewer keeps its whole repr."""

    NOT_AN_INT = "1" * 2999 + "x"
    QUOTED = "'11111111111111111111'..."

    def test_path_name_too_long_for_the_file_system(self, capsys):
        code, out, err = run(capsys, "points", "a" * 3000, "1")
        assert (code, out) == (2, "")
        assert err == f"error: 'aaaaaaaaaaaaaaaaaaaa'...: {os.strerror(errno.ENAMETOOLONG)}\n"

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (("check-equality", "unit-square", NOT_AN_INT), f"error: bad range {QUOTED}"),
            (("check-boundary", "cross-2d", NOT_AN_INT), f"error: bad range {QUOTED}"),
            (("check-equality", "unit-square", "1" * 3000 + "..1"), f"error: empty range {QUOTED}"),
            (("decompose", "unit-square", "2", NOT_AN_INT), f"error: bad point {QUOTED}"),
            (("points", "unit-square", NOT_AN_INT), f"latmink points: error: argument n: invalid int value: {QUOTED}"),
            (("word-ball", "cross-2d", NOT_AN_INT), f"latmink word-ball: error: argument n: invalid int value: {QUOTED}"),
            (("--cap", NOT_AN_INT, "points", "unit-square", "1"), f"latmink: error: argument --cap: invalid int value: {QUOTED}"),
            (
                ("search-primitive", "unit-square", "--budget", NOT_AN_INT),
                f"latmink search-primitive: error: argument --budget: invalid int value: {QUOTED}",
            ),
            (("--seed", NOT_AN_INT, "verify-paper"), f"latmink: error: argument --seed: invalid int value: {QUOTED}"),
        ],
        ids=["range", "group-range", "empty-range", "point", "n", "group-n", "cap", "budget", "seed"],
    )
    def test_exit_2_with_short_lines(self, capsys, argv, last_line):
        code, out, err = outcome(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == last_line
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (("check-equality", "unit-square", "1..x"), "error: bad range '1..x'"),
            (("decompose", "unit-square", "2", "1,x"), "error: bad point '1,x'"),
            (("points", "unit-square", "x" * 20), f"latmink points: error: argument n: invalid int value: {'x' * 20!r}"),
            (("word-ball", "cross-2d", "2.5"), "latmink word-ball: error: argument n: invalid int value: '2.5'"),
        ],
        ids=["range", "point", "n-at-20", "group-n"],
    )
    def test_short_literals_keep_their_repr(self, capsys, argv, last_line):
        code, out, err = outcome(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", last_line)

    def test_missing_path(self, capsys, tmp_path, monkeypatch):
        # fifteen 200-character components: no name is too long, so exists() answers False
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "points", "/".join(["a" * 200] * 15), "1")
        assert (code, out) == (2, "")
        assert err == "error: no such file or bundled dataset: 'aaaaaaaaaaaaaaaaaaaa'...\n"

    def test_unknown_subcommand(self, capsys):
        # the choices list is as long as for a short name; only the name is cut
        _, _, short = outcome(capsys, "x" * 20)
        code, out, err = outcome(capsys, "x" * 3000)
        assert (code, out) == (2, "")
        assert short.splitlines()[-1].startswith(f"latmink: error: argument command: invalid choice: {'x' * 20!r} (choose from 'points', ")
        assert err == short.replace(repr("x" * 20), repr("x" * 20) + "...")


class TestGlobalFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--cap", "5", "points", "unit-square", "2"),
            ("points", "unit-square", "2", "--cap", "5"),
        ],
    )
    def test_cap_before_or_after_subcommand(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--pretty", "points", "unit-square", "1"),
            ("points", "unit-square", "1", "--pretty"),
        ],
    )
    def test_pretty_before_or_after_subcommand(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("4 integer points")

    def test_timing_after_subcommand(self, capsys):
        # --timing adds one line, in sorted position, to the untimed report
        _, untimed, _ = run(capsys, "points", "unit-square", "1")
        code, timed, _ = run(capsys, "points", "unit-square", "1", "--timing")
        assert code == 0
        lines = timed.splitlines(keepends=True)
        assert lines[1].startswith('  "command": ')
        assert re.fullmatch(r'  "elapsed_ms": \d+,\n', lines[2])
        assert lines[3] == '  "inputs": {\n'
        assert "".join(lines[:2] + lines[3:]) == untimed

    def test_parser_is_built_once_and_keeps_no_flag_state(self, capsys):
        assert build_parser() is build_parser()
        code, out, _ = run(capsys, "--pretty", "points", "unit-square", "1")
        assert code == 0 and out.startswith("4 integer points")
        code, doc, _ = run_json(capsys, "points", "unit-square", "1")
        assert code == 0 and doc["result"]["count"] == 4
        assert "elapsed_ms" not in doc


class TestBounds:
    """--cap, --budget and --point-cap take positive integers only: argparse
    rejects 0 and -1 (exit 2), and 1 reaches the command."""

    COMMANDS = {
        "--cap": ("points", "unit-square", "1"),
        "--budget": ("search-primitive", "unit-square"),
        "--point-cap": ("search-primitive", "unit-square"),
    }

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", COMMANDS)
    def test_non_positive_is_a_usage_error(self, capsys, flag, value):
        command = self.COMMANDS[flag]
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"latmink {command[0]}: error: argument {flag}: must be a positive integer, got {value}"
        )

    def test_non_integer_keeps_the_int_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["--cap", "x", "points", "unit-square", "1"])
        assert capsys.readouterr().err.splitlines()[-1] == "latmink: error: argument --cap: invalid int value: 'x'"

    def test_one_is_accepted(self, capsys):
        assert run(capsys, "points", "unit-square", "1", "--cap", "1") == (
            3,
            "",
            "resource cap exceeded: bounding box has 4 candidate points, cap is 1\n",
        )
        code, doc, _ = run_json(capsys, "search-primitive", "unit-square", "--budget", "1")
        assert code == 0 and doc["result"]["found"] is doc["result"]["exhausted"] is False
        assert run(capsys, "search-primitive", "unit-square", "--point-cap", "1") == (
            3,
            "",
            "resource cap exceeded: polytope has 4 lattice points, point cap is 1\n",
        )


def outcome(capsys, *argv):
    """(exit code, stdout, stderr) of argv, with the value of elapsed_ms
    blanked; a usage error gives argparse's exit code and output."""
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:
        code, (out, err) = exc.code, capsys.readouterr()
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": _', out), err


class TestFlagPlacement:
    """A global flag reads the same before the subcommand, after it and on
    both sides, for every subcommand; on both sides the later value wins.
    The same holds for --cap where it is rejected (TestCapIsRejected)."""

    COMMANDS = [
        ("points", "unit-square", "2"),
        ("minkowski", "unit-square", "2"),
        ("check-equality", "unit-square", "1..2"),
        ("decompose", "unit-square", "2", "1,1"),
        ("classify", "sigma-3-2"),
        ("lemma1", "sigma-3-2-matrix"),
        ("validate-triangulation", "TRIANGULATION"),
        ("search-primitive", "unit-square"),
        ("word-ball", "cross-2d", "2"),
        ("boundary", "cross-2d", "2"),
        ("check-boundary", "cross-2d", "1..2"),
    ]
    FLAGS = [("--pretty",), ("--timing",), ("--cap", "5"), ("--cap", "1000")]
    DEFAULTS = {"pretty": False, "cap": None, "seed": 0, "timing": False}

    @pytest.fixture
    def command(self, request, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({
            "polytope": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
            "simplices": [[[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]],
        }))
        return [str(path) if a == "TRIANGULATION" else a for a in request.param]

    @pytest.mark.parametrize("command", COMMANDS, indirect=True, ids=lambda c: c[0])
    @pytest.mark.parametrize("flag", FLAGS, ids=" ".join)
    def test_before_after_and_both_sides(self, capsys, command, flag):
        after = outcome(capsys, *command, *flag)
        assert outcome(capsys, *flag, *command) == after
        assert outcome(capsys, *flag, *command, *flag) == after

    @pytest.mark.parametrize("command", COMMANDS, indirect=True, ids=lambda c: c[0])
    def test_the_later_cap_wins(self, capsys, command):
        for first, last in [("5", "1000"), ("1000", "5")]:
            assert outcome(capsys, "--cap", first, *command, "--cap", last) == outcome(
                capsys, *command, "--cap", last
            )

    @pytest.mark.parametrize("command", COMMANDS, indirect=True, ids=lambda c: c[0])
    def test_absent_flags_take_their_defaults(self, capsys, monkeypatch, command):
        seen, emit = [], cli._emit

        def recorded_emit(args, *rest):
            seen.append({key: getattr(args, key) for key in self.DEFAULTS})
            return emit(args, *rest)

        monkeypatch.setattr(cli, "_emit", recorded_emit)
        code, doc, _ = run_json(capsys, *command)
        assert code == 0 and "elapsed_ms" not in doc
        assert seen == [self.DEFAULTS]

    def test_seed_before_after_and_both_sides(self, capsys):
        after = outcome(capsys, "verify-paper", "--quick", "--seed", "1")
        assert json.loads(after[1])["inputs"] == {"seed": 1}
        assert outcome(capsys, "--seed", "1", "verify-paper", "--quick") == after
        assert outcome(capsys, "--seed", "0", "verify-paper", "--quick", "--seed", "1") == after

    def test_both_search_commands_read_the_search_options(self, capsys):
        code, doc, _ = run_json(capsys, "search-primitive", "unit-square", "--budget", "1")
        assert code == 0 and doc["result"]["found"] is False
        code, _, err = run(capsys, "decompose", "unit-square", "2", "1,1", "--budget", "1")
        assert code == 2 and "no primitive triangulation found within budget" in err
        for command in [("search-primitive", "unit-square"), ("decompose", "unit-square", "2", "1,1")]:
            assert run(capsys, *command, "--point-cap", "3") == (
                3,
                "",
                "resource cap exceeded: polytope has 4 lattice points, point cap is 3\n",
            )


class TestCapIsRejected:
    """The six subcommands that read no cap reject --cap, before or after the
    subcommand: argparse's usage and one error line, exit 2."""

    COMMANDS = [
        ("classify", "sigma-3-2"),
        ("lemma1", "sigma-3-2-matrix"),
        ("validate-triangulation", "TRIANGULATION"),
        ("search-primitive", "unit-cube"),
        ("decompose", "unit-square", "2", "1,1"),
        ("verify-paper", "--quick"),
    ]
    command = TestFlagPlacement.command  # the fixture that writes TRIANGULATION

    @pytest.mark.parametrize("command", COMMANDS, indirect=True, ids=lambda c: c[0])
    def test_exit_2_before_and_after(self, capsys, command):
        assert outcome(capsys, *command)[0] == 0
        for argv in [("--cap", "1", *command), (*command, "--cap", "1")]:
            code, out, err = outcome(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage: latmink ") and "Traceback" not in err
            assert err.splitlines()[-1] == f"latmink: error: --cap does not apply to {command[0]}"

    def test_commands_that_reject_the_flag_still_stop_at_the_default_cap(self, capsys, tmp_path):
        # the box of conv{(0, 0), (20000, 0), (0, 20000)} has 20001^2 > 10^8 points
        path = tmp_path / "big-triangle.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [20000, 0], [0, 20000]]}))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (3, "")
        assert err == "resource cap exceeded: bounding box has 400040001 candidate points, cap is 100000000\n"
        code, out, err = outcome(capsys, "classify", str(path), "--cap", "1000000000")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "latmink: error: --cap does not apply to classify"

    def test_help_names_the_commands_that_read_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["-h"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "read by points, minkowski, check-equality, word-ball, boundary, check-boundary only" in help_text


class TestLongRanges:
    """A range command reads its range by its ends, so a range up to 10^23
    meets its cap at once; each runs in a fresh interpreter with a timeout."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ("check-equality", "unit-square", f"1..{10**23}"),
                "resource cap exceeded: bounding box has 100020001 candidate points, cap is 100000000\n",
            ),
            (
                ("check-boundary", "gl2z-swap-shear", f"1..{10**23}", "--cap", "1000"),
                "resource cap exceeded: word ball exceeded 1000 elements\n",
            ),
        ],
        ids=["check-equality", "check-boundary"],
    )
    def test_exit_3_without_traceback(self, argv, err):
        done = run_fresh(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", err)


HUGE_N = 10**23
FINITE_INPUTS = {
    "swap.json": {"kind": "gl2z", "generators": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
    "zero.json": {"kind": "zd", "dim": 2, "generators": [[0, 0]]},
    "origin.json": {"dim": 2, "vertices": [[0, 0]]},
}


class TestFiniteStreams:
    """A ball stream stops growing at its first empty layer: at n = 10^23, a
    command on a finite group or a one-point polytope reports what it reports
    at a small n past that layer, but for n. The huge runs each take a fresh
    interpreter with a timeout."""

    @pytest.mark.parametrize(
        "command, name, small, huge",
        [
            ("word-ball", "swap.json", "3", str(HUGE_N)),
            ("boundary", "swap.json", "3", str(HUGE_N)),
            ("check-boundary", "swap.json", "3", str(HUGE_N)),
            ("check-boundary", "swap.json", "3..6", f"{HUGE_N}..{HUGE_N + 3}"),
            ("word-ball", "zero.json", "3", str(HUGE_N)),
            ("minkowski", "origin.json", "3", str(HUGE_N)),
            ("check-equality", "origin.json", "3", str(HUGE_N)),
            ("check-equality", "origin.json", "3..6", f"{HUGE_N}..{HUGE_N + 3}"),
        ],
    )
    def test_report_at_a_huge_n(self, capsys, tmp_path, command, name, small, huge):
        path = tmp_path / name
        path.write_text(json.dumps(FINITE_INPUTS[name]))
        code, expected, _ = run_json(capsys, command, str(path), small)
        assert code == 0
        done = run_fresh(command, str(path), huge, timeout=30)
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        if isinstance(doc["result"], list):  # one report per n of the range
            lo, _, hi = huge.partition("..")
            assert [r.pop("n") for r in doc["result"]] == list(range(int(lo), int(hi or lo) + 1))
            assert doc["inputs"].pop("range") == huge
            for r in expected["result"]:
                del r["n"]
            del expected["inputs"]["range"]
        else:
            assert doc["inputs"].pop("n") == HUGE_N
            del expected["inputs"]["n"]
        assert doc == expected


class TestBoxCap:
    # The box of 3 * sigma(3, 2) has 7^3 = 343 points; 24 of them are inside.
    def test_cap_at_the_box_size(self, capsys):
        code, doc, _ = run_json(capsys, "points", "sigma-3-2", "3", "--cap", "343")
        assert code == 0 and doc["result"]["count"] == 24
        code, out, err = run(capsys, "points", "sigma-3-2", "3", "--cap", "342")
        assert (code, out) == (3, "")
        assert err == "resource cap exceeded: bounding box has 343 candidate points, cap is 342\n"

    def test_minkowski_checks_n_before_any_line_is_scanned(self, capsys, monkeypatch):
        # minkowski_power checks n too, but Omega is scanned before it is called
        def no_scan(*args):
            raise AssertionError("a line was scanned")

        monkeypatch.setattr(geometry, "_line_scan", no_scan)
        assert run(capsys, "minkowski", "sigma-3-2", "-1") == (2, "", "error: n must be >= 0\n")
        with pytest.raises(AssertionError, match="a line was scanned"):
            main(["minkowski", "sigma-3-2", "0"])

    def test_cap_acts_before_any_line_is_scanned(self, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a line was scanned")

        monkeypatch.setattr(geometry, "_line_scan", no_scan)
        code, _, err = run(capsys, "points", "sigma-3-2", "3", "--cap", "342")
        assert code == 3 and "cap is 342" in err
        with pytest.raises(AssertionError, match="a line was scanned"):
            main(["points", "sigma-3-2", "3", "--cap", "343"])


class TestPointCap:
    """The search counts Omega against its point cap before it builds any
    point: [0, 9999]^2, whose box is exactly DEFAULT_BOX_CAP, stops at once.
    Each runs in a fresh interpreter with a timeout."""

    @pytest.mark.parametrize("command, rest", [("search-primitive", []), ("decompose", ["1", "0,0"])])
    def test_big_square_exits_3_at_once(self, tmp_path, command, rest):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [9999, 0], [0, 9999], [9999, 9999]]}))
        done = run_fresh(command, str(path), *rest, timeout=30)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "resource cap exceeded: polytope has 100000000 lattice points, point cap is 14\n"


class TestBallCap:
    # |ball(4)| = 178 for the swap-shear generators of GL(2, Z).
    COMMANDS = [("word-ball", "4"), ("boundary", "4"), ("check-boundary", "1..4")]

    @pytest.mark.parametrize("command, n", COMMANDS)
    def test_cap_at_the_ball_size(self, capsys, command, n):
        code, _, err = run(capsys, command, "gl2z-swap-shear", n, "--cap", "177")
        assert code == 3 and "exceeded 177 elements" in err
        code, _, _ = run(capsys, command, "gl2z-swap-shear", n, "--cap", "178")
        assert code == 0

    @pytest.mark.parametrize("command, n", COMMANDS)
    def test_default_is_the_ball_cap(self, capsys, monkeypatch, command, n):
        monkeypatch.setattr(geometry, "DEFAULT_BOX_CAP", 1)
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 177)
        code, _, err = run(capsys, command, "gl2z-swap-shear", n)
        assert code == 3 and "exceeded 177 elements" in err
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 178)
        code, _, _ = run(capsys, command, "gl2z-swap-shear", n)
        assert code == 0

    def test_polytope_commands_keep_the_box_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 1)
        monkeypatch.setattr(geometry, "DEFAULT_BOX_CAP", 8)
        code, _, err = run(capsys, "points", "unit-square", "2")
        assert code == 3 and "cap is 8" in err
        monkeypatch.setattr(geometry, "DEFAULT_BOX_CAP", 9)
        code, doc, _ = run_json(capsys, "check-equality", "unit-square", "1..2")
        assert code == 0 and all(r["holds"] for r in doc["result"])


class TestReportBytes:
    """Exact stdout of one command per report type, pinned before
    serialize.dumps wrote library objects directly; JSON keys come out sorted."""

    DIGESTS = {
        ("check-equality", "sigma-3-2", "1..2"): "472b6ace27ecae0850ea58c1494b66722375d8d45287f6e7d1566d6baaf10b60",
        ("check-boundary", "gl2z-swap-shear", "1"): "9c0a0e64b39b1a9383ad0cedc5842c018b4db1b4260639cfd5dc888c74c90cbc",
        ("word-ball", "gl2z-swap-shear", "1"): "878c9771e4b8415b6dbcde5935e8c1e2eeb93427d5d11950e038fbcbc35c3822",
        ("word-ball", "gl2z-swap-shear", "5"): "e5d9d84723a8a9df83536f5707641555e223e420caaf0644e0e26e19653512f9",
        ("boundary", "gl2z-swap-shear", "4"): "2979e319e67164b49c73f0209b8db099f0a22ec092c914c20127ce3bf36e6f8a",
        ("check-boundary", "gl2z-swap-shear", "1..4"): "b60594a8b6a0179171a5de86e7aed1303c5810cd03d6910a678e70d5276fc3ae",
        ("classify", "sigma-3-3"): "2c8a853e5ed8c2e02c26319dab8be0101c0dccfd456b4e6a170845bca6a8d81a",
        ("lemma1", "sigma-3-2-matrix"): "5bd41a22fcab3604e2698e20c846857de49fcc694579b366008695a6041b2a51",
        ("search-primitive", "unit-square"): "48286f7f32afbf427eddbec0aaf8692a9d5c1ff80ba383dab33ea8c044c6ba0b",
        ("search-primitive", "sigma-3-2"): "64e20759a6d397d0a23cac05a5088ac0af82aad274e45fc960b59a5ea415983f",
        ("decompose", "unit-cube", "2", "1,1,2"): "4e63696a3a9f8a8ae903fc8c885dfa2bcf109085f3d4f269fbb85b8115725cbb",
    }

    @pytest.mark.parametrize("argv", DIGESTS)
    def test_json_reports(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]

    def test_pretty_lemma1_keeps_the_field_order(self, capsys):
        code, out, _ = run(capsys, "--pretty", "lemma1", "sigma-3-2-matrix")
        assert code == 0
        assert out == (
            "singular: False\n"
            "lattice_onto: False\n"
            "inverse_integral: False\n"
            "det_unit: False\n"
            "parallelotope_unit_volume: False\n"
            "parallelotope_elementary: False\n"
            "corner_simplex_elementary: True\n"
        )

    def test_fractional_covered_volume(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({
            "polytope": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
            "simplices": [[[0, 0], [1, 0], [1, 1]]],
        }))
        code, out, _ = run(capsys, "validate-triangulation", str(path))
        assert code == 0
        assert out == """{
  "command": "validate-triangulation",
  "inputs": {
    "simplices": 1
  },
  "result": {
    "covered_volume": "1/2",
    "is_elementary": true,
    "is_primitive": true,
    "problems": [
      "covered volume 1/2 != polytope volume 1"
    ],
    "valid": false
  }
}
"""


class TestNoReferenceCycles:
    COMMANDS = [
        ("points", "sigma-3-2", "3"),
        ("minkowski", "cross-2d", "3"),
        ("check-equality", "unit-square", "1..2"),
        ("decompose", "unit-square", "2", "1,1"),
        ("classify", "sigma-3-3"),
        ("lemma1", "sigma-3-2-matrix"),
        ("search-primitive", "unit-square"),
        ("word-ball", "gl2z-swap-shear", "3"),
        ("boundary", "cross-2d", "2"),
        ("check-boundary", "cross-2d", "1..3"),
    ]

    def test_reports_leave_no_garbage_for_the_collector(self, capsys):
        """Every object an emitted report makes is freed by reference
        counting, so a long-running caller does not wait on the collector."""
        for command in self.COMMANDS:  # warm up: parser, imports, caches
            assert main(list(command)) == 0
        gc.collect()
        gc.disable()
        try:
            for command in self.COMMANDS:
                assert main(list(command)) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert capsys.readouterr().err == ""
