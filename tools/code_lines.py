"""Lines and code lines per module of a package directory.

    python3 tools/code_lines.py [DIR]

DIR defaults to src/lieram.  A code line is a line that is not blank, not
only a comment, and not part of a docstring (the string that opens a
module, class or function body); every line of a statement that spans
lines counts, and so does every line of a string that is not a docstring.
One row per module (lines, code lines, name), then the totals, and the
totals without selftest.py.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER)


def count(source: str):
    """(lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(first := node.body[0], ast.Expr)
                and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    directory = pathlib.Path(args[0]) if args else ROOT / "src" / "lieram"
    rows = [(path.name, *count(path.read_text())) for path in sorted(directory.glob("*.py"))]
    for name, lines, code in rows:
        print(f"{lines:6} {code:6}  {name}")
    rest = [row for row in rows if row[0] != "selftest.py"]
    for label, part in (("total", rows), ("total without selftest.py", rest)):
        print(f"{sum(r[1] for r in part):6} {sum(r[2] for r in part):6}  {label}")


if __name__ == "__main__":
    main()
