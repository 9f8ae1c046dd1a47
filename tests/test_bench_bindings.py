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


def test_names_the_benchmark_reads_outside_bindings_resolve():
    # perfbench/run.py reports _kernels.HAVE_NUMBA on every run;
    # perfbench/workloads.py builds its inputs and runs the CLI through the rest
    assert isinstance(finemw._kernels.HAVE_NUMBA, bool)
    missing = []
    for path in ("CoefficientRing", "IwasawaPoly.constant", "ModulePresentation",
                 "cyclic_module", "cyclotomic", "build_elementary", "obfuscate",
                 "presentation_to_json", "oracle.sample_recipe", "cli.main"):
        owner = finemw
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(path)
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


def test_expand_spans_are_not_nested_and_count_their_entries(monkeypatch):
    # the benchmark's expanded_entries adds the entries of every expand span;
    # a builder that called the other would count its matrix twice
    from finemw.polynomials import IwasawaPoly
    from finemw.presentations import FinLevelModule, ModulePresentation, coinvariants

    results = []
    for name in ("matrix_int64", "matrix_coords"):
        original = getattr(FinLevelModule, name)

        def recorded(*args, _original=original, **kwargs):
            results.append(_original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(FinLevelModule, name, recorded)
    rng = random.Random(4)
    tracer = _spans_module().Tracer(finemw)
    tracer.install()
    try:
        for p, level in ((5, 3), (7, 1)):  # int64 at p^W and p^N; coordinate rows
            ring = CoefficientRing(p, 1, 24)
            rows = [[IwasawaPoly(ring, [[rng.randrange(ring.modulus)] for _ in range(p + 2)])]
                    for _ in range(2)]
            M = ModulePresentation(ring, 2, rows)
            coinvariants(M, 1, with_transforms=True)
            cols = [[rng.randrange(ring.modulus) for _ in range(2 * p**level)]]
            coinvariants(M, level, cols)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    expand = [s for s in spans if s[0] == "presentations.expand"]
    assert len(expand) == len(results) >= 4
    assert all(spans[s[3]][0] != "presentations.expand" for s in expand if s[3] >= 0)
    for span, result in zip(expand, results):
        shape = result.shape if hasattr(result, "shape") else (len(result), len(result[0]))
        assert span[5]["entries"] == shape[0] * shape[1]
    assert any(hasattr(r, "shape") for r in results)
    assert any(isinstance(r, list) for r in results)


def test_level_smith_attributes_the_benchmark_reads():
    # spans._level_smith_attrs reads level, component and ring.precision_exponent
    # off _level_smith's first argument and precision_used off its result,
    # outside BINDINGS: renaming any of them would break traced runs only
    from finemw.polynomials import IwasawaPoly
    from finemw.presentations import ModulePresentation, coinvariants

    ring = CoefficientRing(5, 1, 24)
    M = ModulePresentation(ring, 1, [[IwasawaPoly(ring, [5, 0, 1])]])
    tracer = _spans_module().Tracer(finemw)
    tracer.install()
    try:
        coinvariants(M, 1)
        coinvariants(M, 1, [[1, 0, 0, 0, 0]], precision_cap=20)
    finally:
        tracer.uninstall()
    spans = [s[5] for s in tracer.spans if s[0] == "presentations.level_smith"]
    assert spans == [{"level": 1, "component": None, "extra": 0, "reduced": False},
                     {"level": 1, "component": None, "extra": 1, "reduced": True}]
