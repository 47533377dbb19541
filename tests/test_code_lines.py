"""`tools/code_lines.py`, the code-line counter, on a fixture source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: 10 code lines: the import, `def f`, the two lines of `s`, the two of the
#: return, `class C`, `y`, the bare string after it and `async def g`
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    s = """a string
    over two lines"""
    return (x +
            1)


class C:
    """Class
    docstring."""
    y = 1
    "not a docstring: it is not the first statement"


async def g():
    """Async docstring."""
'''


def test_counts_code_lines_of_the_fixture():
    assert code_lines.code_lines(FIXTURE) == 10


def test_docstring_lines_are_the_leading_strings_of_bodies():
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 10, 18, 19, 25}


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(FIXTURE)
    two.write_text("x = 1\n\n# comment\n")
    assert code_lines.main([str(one), str(two)]) == 0
    assert capsys.readouterr().out.split() == ["10", str(one), "1", str(two), "11", "total"]


def test_a_directory_counts_every_python_file_under_it_in_order(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "sub" / "c.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    single = tmp_path / "one.py"
    single.write_text("w = 0\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(single)]) == 0
    pkg = tmp_path / "pkg"
    assert capsys.readouterr().out.split() == [
        "1", str(pkg / "a.py"), "10", str(pkg / "b.py"), "2", str(pkg / "sub" / "c.py"),
        "1", str(single), "14", "total"]
