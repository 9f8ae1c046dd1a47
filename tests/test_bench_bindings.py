"""perfbench/spans.py wraps finemw functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

import finemw
import finemw.cli  # noqa: F401  (finemw/__init__ does not import the CLI)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_bench_binding_resolves_on_finemw():
    bindings = _bindings()
    assert bindings
    missing = []
    for owner_path, attr, _ in bindings:
        owner = finemw
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
