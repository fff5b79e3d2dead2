"""The rule of `tools/code_lines.py`: code lines are the non-blank lines outside
docstrings and `#` comments."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


class Box:
    """A class docstring."""

    size = 2

    def area(self):
        """A method docstring,
        two lines."""
        text = """a string that is
        no docstring"""
        return self.size * len(text)


def empty():
    pass
'''


def test_counts_code_lines_only():
    # import, class, size, def, text's two lines, return, def, pass
    assert code_lines.code_lines(SOURCE) == 9


@pytest.mark.parametrize(
    "source, count",
    [
        ("", 0),
        ("# only a comment\n\n", 0),
        ('"""only a docstring"""\n', 0),
        ('x = 1\n"""a string after code is no docstring"""\n', 2),
        ("def f(): return 1\n", 1),
        ("x = (1,\n\n     2)\n", 2),
    ],
)
def test_edge_cases(source, count):
    assert code_lines.code_lines(source) == count


def test_two_roots_print_the_delta(tmp_path, capsys):
    for name, body in [("old", "x = 1\n"), ("new", "x = 1\ny = 2\n")]:
        package = tmp_path / name / "src" / "latmink"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(body)
    assert code_lines.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["mod.py", "1", "2", "+1"], ["total", "1", "2", "+1"]]
