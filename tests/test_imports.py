"""The package's import graph, pinned: each module of `texcurve` imports
exactly the package modules its row below names. A new edge is a one-line
change to this table."""

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
