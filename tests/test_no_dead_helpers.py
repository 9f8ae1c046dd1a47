"""No function or method in ``src/finemw`` goes unreferenced, nor any module-level import.

A name counts as used only where code names it, besides its own
definitions, in ``src/finemw`` or ``perfbench/``: a name, an attribute, an
import, or a string constant such as perfbench's ``BINDINGS``, read in
dotted parts.  Docstrings and comments do not count, so a stale mention
keeps nothing alive; README.md counts as words, since it documents the
API.  Tests do not count either, so a helper kept only for a test belongs
in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finemw"
# (module, name) of the imports that only perfbench's BINDINGS resolve there
RE_EXPORTS = {("snf", "snf_int64"), ("presentations", "weierstrass_divide")}


def code_names(source):
    """Every name the code of a module's source refers to, docstrings and comments aside."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(node.value.split("."))
    return names


def dead_helpers(package_sources, other_sources=(), documents=()):
    """Non-dunder functions and methods of the package sources that nothing refers to."""
    defined = {node.name for source in package_sources for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    used = set().union(*(code_names(source) for source in [*package_sources, *other_sources]))
    used.update(word for text in documents for word in re.findall(r"\w+", text))
    return sorted(defined - used)


def dead_imports(source):
    """Names that a module's top-level imports bind and the rest of its code never names."""
    tree = ast.parse(source)
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    bound = {alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names}
    tree.body = [node for node in tree.body if node not in imports]
    return sorted(bound - code_names(ast.unparse(tree)))


def test_every_helper_is_referenced():
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert dead_helpers(package, bench, [(ROOT / "README.md").read_text()]) == []


def test_a_docstring_or_a_comment_keeps_no_helper_alive():
    source = '''
"""Module docstring naming stale."""


def stale():
    """Only docstrings name stale."""


def used():
    # a comment naming stale
    return helper()


def helper():
    return "see stale in this message"


def bound():
    pass


BINDINGS = (("module", "bound"),)
'''
    assert dead_helpers([source]) == ["stale", "used"]
    assert dead_helpers([source], documents=["call used()"]) == ["stale"]


def test_every_module_level_import_is_named():
    # __init__ imports the public API in order to re-export it
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "__init__" for name in dead_imports(path.read_text())}
    assert sorted(found - RE_EXPORTS) == []


def test_an_import_that_only_a_docstring_names_is_reported():
    source = '''
"""Module docstring naming bisect."""

from __future__ import annotations

import bisect
import os.path
import numpy as np
from json import dumps, loads

__all__ = ["loads"]


def run(x):
    """Calls bisect."""
    return np.asarray(os.path.join(x, dumps(x)))
'''
    assert dead_imports(source) == ["bisect"]
