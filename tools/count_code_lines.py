"""Count the code lines of a Python tree: python3 tools/count_code_lines.py [DIR ...]

A code line is one that is not blank, not a comment alone and not part
of a module, class or function docstring (found with ast).  Prints each
file's count and the total; DIR defaults to src.  Standard library only.
"""

import ast
import pathlib
import sys


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv) -> int:
    total = 0
    for root in argv or ["src"]:
        for path in sorted(pathlib.Path(root).rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
