"""tools/count_lines.py on a small synthetic module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

MODULE = '''"""Module docstring,
over two lines."""

import os   # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is
    not a docstring"""
    return (x +
            1)


class A:
    """Class docstring."""
    y = 2
'''


def test_counts_exclude_docstrings_comments_and_blanks():
    # code: import, def, s = (2 lines), return (2 lines), class, y
    assert count_lines.count_lines(MODULE) == (18, 8)


def test_main_prints_each_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["lines", "code", "module"], ["18", "8", "a.py"],
                    ["3", "1", "pkg/b.py"], ["21", "9", "total"]]
    assert count_lines.main([]) == 2
