"""The stdlib code-line counter in tools/ on a source with every kind of line."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment alone


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        text = """a string that is
not a docstring"""
        return text


async def g():
    """Coroutine docstring."""
    return math.pi
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of text, return, async def, return
    assert count_code_lines.code_lines(SOURCE) == 8


def test_main_prints_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
