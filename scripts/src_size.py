#!/usr/bin/env python3
"""Print the size of `src/irsma`: total, code, docstring, comment and blank
lines, per module and in total.

A line is blank if it holds only whitespace (inside a docstring too), else a
docstring line if it lies in the docstring of a module, class or function,
else a comment line if it starts with `#`. Every other line is code, so a
line that holds code and a trailing comment counts as code.

Usage: python3 scripts/src_size.py [PACKAGE_DIR]   (default: src/irsma)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings under `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(path: Path) -> dict[str, int]:
    """The line counts of one module, keyed by `COLUMNS`."""
    text = path.read_text()
    docstring = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            kind = "blank"
        elif number in docstring:
            kind = "docstring"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts["total"] += 1
        counts[kind] += 1
    return counts


def package_size(package: Path) -> dict[str, dict[str, int]]:
    """`count_lines` of every module of `package`, by file name, plus "total"."""
    sizes = {path.name: count_lines(path) for path in sorted(package.glob("*.py"))}
    sizes["total"] = {c: sum(s[c] for s in sizes.values()) for c in COLUMNS}
    return sizes


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "irsma"
    width = max(len("module"), *(len(p.name) for p in package.glob("*.py")))
    print(f"{'module':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, counts in package_size(package).items():
        print(f"{name:<{width}}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
