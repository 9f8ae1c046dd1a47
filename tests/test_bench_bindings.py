"""perfbench/spans.py wraps finemw functions by name; every name must resolve."""

import importlib.util
import random
from pathlib import Path

import finemw
import finemw.cli  # noqa: F401  (finemw/__init__ does not import the CLI)
from finemw import snf
from finemw.padics import CoefficientRing

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_binding_resolves_on_finemw():
    bindings = _spans_module().BINDINGS
    assert bindings
    missing = []
    for owner_path, attr, _ in bindings:
        owner = finemw
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_int64_spans_carry_tracking_and_pivot_counts(monkeypatch):
    # the benchmark's per-layer counts read snf_int64's arguments and the
    # exponents in position 0 of its result
    monkeypatch.setattr(snf, "PURE_SIZE_LIMIT", 0)
    ring = CoefficientRing(5, 1, 13)  # N = W: no full-precision rerun
    rng = random.Random(3)
    mat = [[rng.randrange(ring.modulus) * 5 ** rng.choice((0, 0, 1)) for _ in range(30)]
           for _ in range(40)]
    tracer = _spans_module().Tracer(finemw)
    tracer.install()
    try:
        assert tracer.missing == []
        results = [snf.smith_normal_form(mat, ring, with_transforms=track)
                   for track in (True, False)]
    finally:
        tracer.uninstall()
    spans = [s[5] for s in tracer.spans if s[0] == "snf.int64"]
    assert [s["tracked"] for s in spans] == [True, False]
    for attrs, res in zip(spans, results):
        assert res.engine == "int64"
        assert attrs["unit"] + attrs["deep"] == len(res.exponents)
        assert (attrs["rows"], attrs["cols"]) == (40, 30)
    assert snf.snf_int64 is finemw._kernels.snf_int64
