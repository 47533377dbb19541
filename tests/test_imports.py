"""The package's import graph, pinned: each module of `texcurve` imports
exactly the package modules its row below names. A new edge is a one-line
change to this table. The package's one write site is pinned the same
way: only `core._write_file` opens a file for writing."""

import ast
from pathlib import Path

import pytest

import texcurve

PACKAGE = Path(texcurve.__file__).parent

#: module -> the package modules it imports
ALLOWED = {
    "__init__": {"analysis", "container", "core", "encoder", "reference", "sampler", "texeval"},
    "__main__": {"cli"},
    "analysis": {"core", "sampler", "texeval"},
    "cli": {"analysis", "container", "core", "curvefile", "encoder", "reference", "texeval"},
    "container": {"core"},
    "core": set(),
    "curvefile": {"core"},
    "encoder": {"core", "reference"},
    "reference": {"core"},
    "sampler": {"core"},
    "texeval": {"core", "reference", "sampler"},
}


def package_imports(source: str) -> set:
    """The `texcurve` modules that `source` imports, relatively or not,
    at module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                head, _, module = module.partition(".")
                if head != "texcurve":
                    continue
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x, from texcurve import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("texcurve."))
    return found


def test_every_module_has_a_row():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_its_row(module):
    assert package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) \
        == ALLOWED[module]


@pytest.mark.parametrize("source, modules", [
    ("from .core import lerp", {"core"}),
    ("from . import sampler, core", {"sampler", "core"}),
    ("from texcurve.encoder import _finish", {"encoder"}),
    ("from texcurve import reference", {"reference"}),
    ("import texcurve.container as c", {"container"}),
    ("def f():\n    from .cli import main", {"cli"}),
    ("import numpy as np\nfrom typing import Optional", set()),
])
def test_package_imports_reads_every_form(source, modules):
    assert package_imports(source) == modules


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether `call` is `os.open`, or `open()` with a mode that holds w, a,
    x or +, or with a mode that is not a string literal."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os"
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def write_openers(source: str) -> set:
    """The functions of `source` that open a file for writing, by name of
    the innermost function around the call; `<module>` outside any."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.add(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_core_write_file_opens_files_for_writing():
    openers = {module: write_openers((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
               for module in ALLOWED}
    assert {module: names for module, names in openers.items() if names} \
        == {"core": {"_write_file"}}


@pytest.mark.parametrize("source, openers", [
    ("open(p)\nopen(p, 'rb')\nopen(p, mode='r')\nread(p, 'w')", set()),
    ("open(p, 'a')", {"<module>"}),
    ("def f(p):\n    open(p, 'w')", {"f"}),
    ("def f(p):\n    with open(p, mode='xb') as fh:\n        pass", {"f"}),
    ("def f(p):\n    open(p, 'r+')", {"f"}),
    ("def f(p, m):\n    open(p, m)", {"f"}),
    ("import os\ndef f(p):\n    return os.open(p, os.O_RDONLY)", {"f"}),
    ("class C:\n    def save(self):\n        open(self.p, 'wb')", {"save"}),
    ("def f(p):\n    def g():\n        open(p, 'w')\n    open(p)", {"g"}),
])
def test_write_openers_reads_every_form(source, openers):
    assert write_openers(source) == openers
