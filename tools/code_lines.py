"""Code lines of each `src/latmink` module in one or two checkouts.

    python3 tools/code_lines.py [ROOT ...]

A code line is a non-blank line outside docstrings and `#` comments: a line
that holds part of a token other than a comment or a docstring (the string
that opens a module, class or function body). A string literal that is not a
docstring counts on every line it spans. For each root (default: this
checkout) the table gives each module's count and the total; given two
roots, a last column gives the second's count less the first's. It only
prints; the exit code is 0 unless a root has no `src/latmink`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    bodies = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    firsts = [node.body[0] for node in ast.walk(ast.parse(source)) if isinstance(node, bodies) and node.body]
    docstrings = {
        (first.lineno, first.col_offset)
        for first in firsts
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str)
    }
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def counts(root: Path) -> dict[str, int]:
    """Each module of root's `src/latmink` by file name, with its code lines."""
    package = root / "src" / "latmink"
    if not package.is_dir():
        sys.exit(f"no src/latmink under {root}")
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent]
    if len(roots) > 2:
        sys.exit("usage: code_lines.py [ROOT [ROOT]]")
    tables = [counts(root) for root in roots]
    names = sorted(set().union(*tables))
    rows = [[name, *(table.get(name, 0) for table in tables)] for name in names]
    rows.append(["total", *(sum(table.values()) for table in tables)])
    header = ["module", *map(str, roots)]
    if len(tables) == 2:
        header.append("delta")
        for row in rows:
            row.append(f"{row[2] - row[1]:+d}")
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        cells = [str(cell).rjust(width) for cell, width in zip(row, widths)]
        print("  ".join([str(row[0]).ljust(widths[0]), *cells[1:]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
