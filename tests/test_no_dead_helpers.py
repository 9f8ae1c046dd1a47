"""No function or method in ``src/finemw`` goes unreferenced.

A name counts as used when it appears as a word somewhere in ``src/finemw``,
``perfbench/`` or README.md besides its own definitions: a call, an
attribute binding, a docstring that documents it.  Tests do not count, so a
helper kept only for a test belongs in ``tests/oracles.py``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finemw"


def _texts():
    files = [path for path in sorted(PACKAGE.rglob("*")) + sorted((ROOT / "perfbench").rglob("*"))
             if path.is_file() and path.suffix in (".py", ".json")]
    return [path.read_text() for path in files + [ROOT / "README.md"]]


def dead_helpers():
    """Non-dunder functions and methods of the package named nowhere but at their definitions."""
    definitions = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                definitions[node.name] += 1
    words = Counter(word for text in _texts() for word in re.findall(r"\w+", text))
    return sorted(name for name, count in definitions.items() if words[name] <= count)


def test_every_helper_is_referenced():
    assert dead_helpers() == []
