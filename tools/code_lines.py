"""Count the code lines of Python sources: lines holding a token that is not
a comment, with docstrings removed.

A line counts when a token other than a comment, a newline or an indent
starts or runs through it; a string token spanning several lines counts
every line it spans.  Docstrings, the string literal that opens a module,
class or function body, are removed by line with ast.  Blank lines and
comment-only lines never hold such a token.

    python3 tools/code_lines.py src/qtraj

prints one line per module and the total.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = sorted(f for arg in map(Path, args)
                   for f in (arg.rglob("*.py") if arg.is_dir() else [arg]))
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
