"""Count the code lines of Python files: lines that hold a token of code,
leaving out blank lines, comments and docstrings.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default is
``src``.  Prints the count of each file and the total; exits 1, quietly,
when the reader of its output leaves early (``| head -1``).
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    paths = []
    for arg in argv or ["src"]:
        path = Path(arg)
        paths += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    try:
        for path in paths:
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  total")
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
    except BrokenPipeError:
        # the reader left (e.g. `| head -1`); the interpreter flushes stdout
        # again at exit, so point fd 1 at devnull to keep that from raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
