"""List the lines of `src/texcurve` that no tier-1 test runs.

A `sys.settrace` pytest plugin records every line of the package that
runs in the main thread while the tests run (no test starts a thread). The lines that can run are the lines of the
package's functions, methods and lambdas, and of the comprehensions inside
them. Module-level statements are left out: the module and class bodies,
their decorators and default values, and the comprehensions they run all
run once at import. So is a function's prologue, the `def` line itself,
which a call runs without a line event.

    python3 tools/line_reach.py

run from the repository root, runs tier-1 under the plugin, prints the
unreached lines and rewrites `tools/unreached.txt`, one `path:line:
source` row per line, paths relative to the current directory. `--src
DIR` and `--table FILE` choose another package and table, and any further
arguments replace the test paths.

Tracing starts before pytest loads the first `conftest.py`, so the
package's import runs traced too. Hypothesis runs derandomized and without its
example database, so a line that only some random draw reaches does not
come and go between runs. It also runs without deadlines or the too-slow
health check, which measure the tracer's cost, not the code. Two kinds of
test failure measure the tracer too, and are reported apart without
failing the command:

- a test over its own time budget (an assertion "took 11.8s, budget is
  10s"), since tracing slows every line;
- a test that counts reference cycles (`gc.collect()`): a Python trace
  function makes CPython keep each traced frame's locals in a dict, and an
  exception held there refers back to its frame through its traceback.

The tier-1 test that checks the committed table
(`test_committed_table_names_the_current_lines`) is reported apart too: it
runs against the table as it was before the run, which an edit that moved
a listed line has made stale, and the run is about to rewrite it. The
command checks the table it has just written instead, with the same
`stale_rows`, and fails (exit 1) if that one is stale.

Any other failure fails the command (exit 1), and the table is still
written. The traced run of tier-1 takes minutes, so it is not part of
tier-1 itself.
"""

from __future__ import annotations

import argparse
import dis
import os
import re
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the names of the code objects that comprehensions run in
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

#: failure reports that measure the tracer, not the code: why, and a
#: pattern of the report
_TRACER_COSTS = {
    "its time budget": re.compile(r"took [\d.]+s, budget is [\d.]+s"),
    "a reference-cycle count": re.compile(r"where \d+ = <built-in function collect>"),
}

#: the tier-1 test that checks the committed table, which the run rewrites
_TABLE_CHECK = "test_committed_table_names_the_current_lines"

_HEADER = """\
# Lines of {src} that no test of `{tests}` runs, as
# `path:line: source`. Module-level statements are left out: they run at
# import. Rewritten by `python3 tools/line_reach.py`.
"""


def _body_lines(code: types.CodeType) -> set:
    """The lines of the instructions after a function's prologue (up to
    its RESUME, on Python 3.11 and later)."""
    start = 0
    for ins in dis.get_instructions(code):
        if ins.opname == "RESUME":
            start = ins.offset + 2
            break
    return {line for begin, _, line in code.co_lines() if line is not None and begin >= start}


def executable_lines(source: str, filename: str = "<source>") -> set:
    """The line numbers that can run after import: every line of a
    function, method or lambda body, and of the comprehensions inside
    them. A comprehension at module or class level runs at import."""
    lines = set()

    def walk(code: types.CodeType, in_function: bool):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            function = bool(const.co_flags & 0x1)  # CO_OPTIMIZED: a function body
            runs_later = function and (in_function or const.co_name not in _COMPREHENSIONS)
            if runs_later:
                lines.update(_body_lines(const))
            walk(const, runs_later)

    walk(compile(source, filename, "exec"), False)
    return lines


class LineTracer:
    """A pytest plugin that records the lines run in the `.py` files under
    one directory, and the tests that fail."""

    def __init__(self, src):
        self.src = os.path.realpath(src) + os.sep
        self.reached = {}  # real path -> set of line numbers
        self.failed = []  # node ids of the tests that failed
        self.tracer_costs = []  # (node id, why) of the failures that measure the tracer
        self.old_table = []  # node ids of the failed checks of the table before the run
        self._ours = {}  # co_filename -> real path under src, or None

    def _file(self, filename):
        if filename not in self._ours:
            path = os.path.realpath(filename)
            self._ours[filename] = path if path.startswith(self.src) else None
        return self._ours[filename]

    def _call(self, frame, event, arg):
        path = self._file(frame.f_code.co_filename)
        if path is None:
            return None
        lines = self.reached.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def pytest_load_initial_conftests(self, early_config, parser, args):
        sys.settrace(self._call)  # before `conftest.py` imports the package

    def pytest_configure(self, config):
        _derandomize_hypothesis()

    def pytest_runtest_logreport(self, report):
        if not report.failed:
            return
        if report.nodeid.endswith("::" + _TABLE_CHECK):
            self.old_table.append(report.nodeid)
            return
        for why, pattern in _TRACER_COSTS.items():
            if report.when == "call" and pattern.search(report.longreprtext):
                self.tracer_costs.append((report.nodeid, why))
                return
        self.failed.append(report.nodeid)


def unreached(src, reached) -> list:
    """`(path, line, source)` for every line of the `.py` files under `src`
    that can run and is not in `reached` (real path -> line numbers),
    sorted by path and line."""
    rows = []
    for path in sorted(Path(src).rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = reached.get(os.path.realpath(path), set())
        for line in sorted(executable_lines(source, str(path)) - seen):
            rows.append((path, line, text[line - 1].strip()))
    return rows


def table(rows, src, tests, base) -> str:
    """The text of the unreached table: a three-line header, then one row
    per line, paths relative to `base`."""
    def rel(path):
        return Path(os.path.relpath(path, base)).as_posix()

    body = "".join(f"{rel(path)}:{line}: {text}\n" for path, line, text in rows)
    return _HEADER.format(src=rel(src), tests=" ".join(rel(t) for t in tests)) + body


def stale_rows(table_text, base) -> list:
    """The rows of an unreached table that do not name a line that can
    run, of a file under `base`, whose source text is the row's."""
    stale = []
    for row in table_text.splitlines():
        if row.startswith("#"):
            continue
        path, line, source = row.split(":", 2)
        file, line = Path(base) / path, int(line)
        text = file.read_text(encoding="utf-8") if file.is_file() else ""
        lines = text.splitlines()
        if not (0 < line <= len(lines) and lines[line - 1].strip() == source[1:]
                and line in executable_lines(text)):
            stale.append(row)
    return stale


def _derandomize_hypothesis():
    """Load a hypothesis profile for the traced run: derandomized, with no
    example database, no deadline and no too-slow health check."""
    from hypothesis import HealthCheck, settings

    settings.register_profile("line-reach", derandomize=True, database=None, deadline=None,
                              suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("line-reach")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src" / "texcurve"))
    parser.add_argument("--table", default=str(ROOT / "tools" / "unreached.txt"))
    parser.add_argument("tests", nargs="*", default=[str(ROOT / "tests")])
    args = parser.parse_args(argv)

    import pytest

    tracer = LineTracer(args.src)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args.tests], plugins=[tracer])
    finally:
        sys.settrace(None)
    rows = unreached(args.src, tracer.reached)
    text = table(rows, args.src, args.tests, os.getcwd())
    Path(args.table).write_text(text, encoding="utf-8")

    print(f"\n{len(rows)} unreached lines, written to {os.path.relpath(args.table)}")
    print(text.split("\n", 3)[-1], end="")
    for nodeid, why in tracer.tracer_costs:
        print(f"failed on {why} under tracing (not counted): {nodeid}")
    for nodeid in tracer.old_table:
        print(f"failed on the table before this run (not counted): {nodeid}")
    stale = stale_rows(text, os.getcwd())
    for row in stale:
        print(f"STALE in the table just written: {row}")
    for nodeid in tracer.failed:
        print(f"FAILED under tracing: {nodeid}")
    if tracer.failed or stale or code not in (pytest.ExitCode.OK,
                                              pytest.ExitCode.TESTS_FAILED):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
