"""`tools/line_reach.py`, the unreached-line finder, on a fixture package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "line_reach.py"
_spec = importlib.util.spec_from_file_location("line_reach", TOOL)
line_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_reach)

#: lines that can run after import: the lambda at module level (3),
#: `deco`'s return (7), `clip`'s body (13-16; the docstring and the `def`
#: line are not), `area` (23) and `unused` (26-27). The module-level dict
#: comprehension (2), the class body (20) and the decorator (10) run at
#: import.
FIXTURE = '''"""A module."""
TABLE = {k: k * 2 for k in range(3)}
SQUARE = lambda x: x * x  # noqa: E731


def deco(f):
    return f


@deco
def clip(x, lo=TABLE[0]):
    """Docstring."""
    if x < lo:
        return lo
    return [v for v in (x,) if v][0] if x else (
        0)


class Box:
    size = [1, 2]

    def area(self):
        return sum(s for s in self.size)

    def unused(self):
        raise ValueError(
            "never")
'''

FIXTURE_TESTS = '''import gc

from hypothesis import settings

from pkg import mod


def test_clip():
    assert mod.clip(3) == 3


def test_area():
    assert mod.Box().area() == 3


def test_hypothesis_runs_derandomized():
    assert settings.default.derandomize and settings.default.database is None


def test_square_over_budget():
    assert mod.SQUARE(2) == 4
    assert False, "took 12.5s, budget is 10s"


def test_cycle_count():
    assert gc.collect() == -1  # fails as a cycle count does under tracing


def test_real_failure():
    assert mod.clip(-1) == 1
'''

TABLE = """\
# Lines of src/pkg that no test of `tests` runs, as
# `path:line: source`. Module-level statements are left out: they run at
# import. Rewritten by `python3 tools/line_reach.py`.
src/pkg/mod.py:16: 0)
src/pkg/mod.py:26: raise ValueError(
src/pkg/mod.py:27: "never")
"""


#: fixture tests that reach the lines the other fixture tests reach and
#: pass, and a check of the table as it was before the run, like tier-1's
FIXTURE_TABLE_TESTS = '''from pathlib import Path

from pkg import mod


def test_reach():
    assert (mod.clip(3), mod.clip(-1), mod.Box().area(), mod.SQUARE(2)) == (3, 0, 3, 4)


def test_committed_table_names_the_current_lines():
    for row in Path("tools/unreached.txt").read_text().splitlines()[3:]:
        path, line, source = row.split(":", 2)
        assert Path(path).read_text().splitlines()[int(line) - 1].strip() == source[1:]
'''


def _fixture_repo(tmp_path, tests):
    """A repository with the fixture package under `src/pkg`, the test
    module `tests` and an empty `tools` directory."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(FIXTURE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(tests)
    (tmp_path / "tools").mkdir()
    (tmp_path / "pytest.ini").write_text("[pytest]\npythonpath = src\n")


def _run(tmp_path, command):
    return subprocess.run([sys.executable, *command, "--src", "src/pkg", "--table",
                           "tools/unreached.txt", "tests"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_executable_lines_leave_out_what_runs_at_import():
    assert line_reach.executable_lines(FIXTURE) == {3, 7, 13, 14, 15, 16, 23, 26, 27}


def test_traced_run_writes_the_table_and_reports_the_tracer_costs_apart(tmp_path):
    # the two failures that measure the tracer are reported apart, and only
    # the third one fails the command
    _fixture_repo(tmp_path, FIXTURE_TESTS)
    run = _run(tmp_path, [str(TOOL)])
    assert run.returncode == 1, run.stdout + run.stderr
    assert (tmp_path / "tools" / "unreached.txt").read_text() == TABLE
    tail = run.stdout[run.stdout.index("\n3 unreached lines"):]
    assert tail == ("\n3 unreached lines, written to tools/unreached.txt\n"
                    + TABLE.split("\n", 3)[-1]
                    + "failed on its time budget under tracing (not counted): "
                    "tests/test_mod.py::test_square_over_budget\n"
                    "failed on a reference-cycle count under tracing (not counted): "
                    "tests/test_mod.py::test_cycle_count\n"
                    "FAILED under tracing: tests/test_mod.py::test_real_failure\n")


def test_a_stale_table_before_the_run_is_reported_apart(tmp_path):
    # the table check fails on the old table, whose row is one line off,
    # and does not fail the command: the table written in its place is
    # checked instead, and is current
    _fixture_repo(tmp_path, FIXTURE_TABLE_TESTS)
    (tmp_path / "tools" / "unreached.txt").write_text(TABLE.replace(":16: ", ":17: "))
    run = _run(tmp_path, [str(TOOL)])
    assert run.returncode == 0, run.stdout + run.stderr
    assert (tmp_path / "tools" / "unreached.txt").read_text() == TABLE
    assert run.stdout.endswith(
        "\n3 unreached lines, written to tools/unreached.txt\n"
        + TABLE.split("\n", 3)[-1]
        + "failed on the table before this run (not counted): "
        "tests/test_mod.py::test_committed_table_names_the_current_lines\n")


def test_a_stale_table_written_by_the_run_fails_the_command(tmp_path):
    # a table whose row does not name its line (here `unreached` is made to
    # report line 17 with line 16's text) fails the command, and is named
    _fixture_repo(tmp_path, FIXTURE_TABLE_TESTS)
    wrapper = tmp_path / "wrapper.py"
    wrapper.write_text(f"""import importlib.util, pathlib, sys
spec = importlib.util.spec_from_file_location("line_reach", {str(TOOL)!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tool.unreached = lambda src, reached: [(pathlib.Path("src/pkg/mod.py"), 17, "0)")]
sys.exit(tool.main())
""")
    run = _run(tmp_path, [str(wrapper)])
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.endswith(
        "STALE in the table just written: src/pkg/mod.py:17: 0)\n")


def test_committed_table_names_the_current_lines():
    """Each row of `tools/unreached.txt` still names its line of
    `src/texcurve`: an edit that moves a listed line makes the table
    stale, and this fails until `tools/line_reach.py` rewrites it."""
    text = (ROOT / "tools" / "unreached.txt").read_text(encoding="utf-8")
    assert text.startswith(TABLE.split("\n", 1)[0].replace("src/pkg", "src/texcurve"))
    rows = [row for row in text.splitlines() if not row.startswith("#")]
    assert all(row.startswith("src/texcurve/") for row in rows)
    assert line_reach.stale_rows(text, ROOT) == []


def test_a_moved_line_makes_its_row_stale(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    mod = tmp_path / "src" / "pkg" / "mod.py"
    mod.write_text(FIXTURE)
    assert line_reach.stale_rows(TABLE, tmp_path) == []
    mod.write_text("\n" + FIXTURE)
    assert line_reach.stale_rows(TABLE, tmp_path) == TABLE.splitlines()[3:]
    mod.unlink()
    assert line_reach.stale_rows(TABLE, tmp_path) == TABLE.splitlines()[3:]
