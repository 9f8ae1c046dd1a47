"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The round-trip corpus
(100 instances per prime, levels up to 3, precision 24, 24 obfuscation steps)
is generated once and shared across criteria.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from finemw.cli import main as cli_main
from finemw.oracle import (build_elementary, obfuscate, roundtrip_suite, run_instance,
                           sample_recipe)
from finemw.padics import CoefficientRing
from finemw.polynomials import IwasawaPoly, phi_degree
from finemw.predictors import (
    SettingTag,
    bdp_order_lower_bound,
    local_mw_prediction,
    predict,
)
from finemw.presentations import ModulePresentation, cyclic_module, phi_component_ranks
from finemw.structure import analyze, g_functor_vanishes
from finemw.errors import HypothesisError
from oracles import finite_level_order

PRIMES = (5, 7)
INSTANCES = 100
N_MAX = 3
PRECISION = 24
OBFUSCATION_STEPS = 24
CORPUS_SEED = 2024
JOBS = min(2, os.cpu_count() or 1)

_lines = []


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}"
    _lines.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    # warm the jit cache outside the timed region
    roundtrip_suite(5, 1, n_max=2, seed=1, steps=4, precision=PRECISION)
    t0 = time.monotonic()
    suites = {p: roundtrip_suite(p, INSTANCES, n_max=N_MAX, seed=CORPUS_SEED,
                                 steps=OBFUSCATION_STEPS, precision=PRECISION,
                                 jobs=JOBS, checks="classify")
              for p in PRIMES}
    elapsed = time.monotonic() - t0
    return suites, elapsed


def test_criterion_1_roundtrip_classification(corpus):
    """100 seeded obfuscated modules per prime; exact type recovery in <= 120 s."""
    suites, elapsed = corpus
    ok = elapsed <= 120.0
    details = [f"runtime {elapsed:.1f}s (budget 120s, {JOBS} workers)"]
    for p in PRIMES:
        s = suites[p]
        recovered = INSTANCES - s["type_recovery_failures"]
        exploded = sum(1 for r in s["records"] if "error" in r)
        details.append(f"p={p}: {recovered}/{INSTANCES} recovered")
        ok = ok and recovered == INSTANCES and exploded == 0
    report("1 round-trip classification", ok, "; ".join(details))


def test_criterion_2_rank_identity(corpus):
    """free rank of coinvariants = r p^n + sum s_j phi(p^j), exactly, all levels."""
    suites, _ = corpus
    checked = 0
    bad = []
    for p in PRIMES:
        for rec in suites[p]["records"]:
            recipe = rec["recipe"]
            r = recipe["free_rank"]
            s = {int(k): v for k, v in recipe["cyclo_multiplicities"].items()}
            ranks = rec["evidence"]["ranks"]
            for n in range(N_MAX + 1):
                expected = r * p**n + sum(sj * phi_degree(p, j)
                                          for j, sj in s.items() if j <= n)
                checked += 1
                if ranks[n] != expected:
                    bad.append((p, rec["seed"], n, ranks[n], expected))
    report("2 rank identity", not bad,
           f"{checked} level checks across {2 * INSTANCES} modules" +
           (f"; first mismatch {bad[0]}" if bad else ""))


def _full_check(args):
    p, seed = args
    recipe = sample_recipe(seed, p)
    return p, seed, run_instance(p, N_MAX, seed, steps=OBFUSCATION_STEPS,
                                 precision=PRECISION, checks="full", recipe=recipe)


def test_criterion_3_finite_quotient_components(corpus):
    """All torsion instances with vanishing limit: c_j = s_j under all selectors."""
    suites, _ = corpus
    jobs = []
    for p in PRIMES:
        for rec in suites[p]["records"]:
            recipe = rec["recipe"]
            if (recipe["free_rank"] == 0 and not recipe["mu_summands"]
                    and not recipe["extra_factors"]):
                jobs.append((p, rec["seed"]))
    assert jobs, "corpus contains no torsion instances"
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_full_check, jobs, chunksize=2))
    bad = []
    selector_names = ("zero", "full-torsion", "random-subgroup")
    for p, seed, record in results:
        for sel in selector_names:
            verdict = record["checks"].get(f"finite_quotients[{sel}]")
            if verdict != "pass":
                bad.append((p, seed, sel, verdict, record.get("error")))
    report("3 finite-quotient components", not bad,
           f"{len(results)} torsion instances x 3 selectors" +
           (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_4_warning_class_regression():
    """Lambda/(T - p) at p = 5: t_n = n + 1, verdict no, residual 1, components 0."""
    ring = CoefficientRing(5, 1, PRECISION)
    T = IwasawaPoly.variable(ring)
    M = cyclic_module(ring, T - IwasawaPoly.constant(ring, 5))
    analysis = analyze(M, 4)
    etype = analysis.classify()
    rep = g_functor_vanishes(M, 4)
    components = phi_component_ranks(M, 4)
    ok = (analysis.torsion_orders == [1, 2, 3, 4, 5]
          and rep.verdict == "no"
          and etype.residual_lambda == 1
          and etype.mu == 0
          and etype.cyclo_multiplicities == {}
          and components == [0, 0, 0, 0, 0])
    report("4 warning-class regression", ok,
           f"torsion orders {analysis.torsion_orders}, verdict {rep.verdict}, "
           f"residual lambda {etype.residual_lambda}, components {components}")


GOLDEN = [
    # (setting, kind, growth values, expected factors or intervals)
    (SettingTag.CM_INERT_CYC, "f", (2, 1, 0), [(0, 1)]),
    (SettingTag.CM_INERT_CYC, "f", (1, 1, 1), []),
    (SettingTag.CM_INERT_CYC, "f", (3, 2, 2), [(0, 2), (1, 1), (2, 1)]),
    (SettingTag.CM_INERT_ANTICYC, "f", (2, 0, 1, 0), [(0, 1)]),
    (SettingTag.CM_INERT_ANTICYC, "f", (0, 1, 0, 1), []),
    (SettingTag.CM_INERT_ANTICYC, "f", (4, 1, 2), [(0, 3), (2, 1)]),
    (SettingTag.CM_SPLIT_SINGLE_Q, "f", (1, 2, 0), [(1, 1)]),
    (SettingTag.CM_SPLIT_SINGLE_Q, "f", (0, 0, 0), []),
    (SettingTag.CM_SPLIT_SINGLE_Q, "f", (2, 2, 2), [(0, 1), (1, 1), (2, 1)]),
    (SettingTag.CM_SPLIT_CYC, "e", (3, 2, 0), [(0, 4), (1, 2)]),
    (SettingTag.CM_SPLIT_CYC, "e", (1, 1), []),
    (SettingTag.CM_SPLIT_CYC, "e", (0, 2, 1), [(1, 2)]),
    (SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS, "e", (2, 0), [(0, 2)]),
    (SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS, "e", (1, 3), [(1, 4)]),
    (SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS, "e", (0, 0), []),
    (SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS, "e", (2, 1, 1), [(0, 2)]),
    (SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS, "e", (1, 2, 2), [(1, 2), (2, 2)]),
    (SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS, "e", (3,), [(0, 4)]),
    (SettingTag.HEEGNER_BDP, "e", (3, 2, 1), [(0, 2), (1, 1)]),
    (SettingTag.HEEGNER_BDP, "e", (1, 1, 1), []),
    (SettingTag.HEEGNER_BDP, "e", (2, 3), [(0, 1), (1, 2)]),
    (SettingTag.HEEGNER_FINE, "e", (3, 1, 2), [(0, 1, 2), (1, 0, 0), (2, 0, 1)]),
    (SettingTag.HEEGNER_FINE, "e", (1,), [(0, 0, 0)]),
    (SettingTag.HEEGNER_FINE, "e", (4, 2), [(0, 2, 3), (1, 0, 1)]),
]


def test_criterion_5_predictor_golden_suite(capsys):
    from finemw.predictors import GrowthSequence

    bad = []
    per_setting = {}
    for setting, kind, values, expected in GOLDEN:
        pred = predict(setting, GrowthSequence(kind, 5, values))
        per_setting[setting] = per_setting.get(setting, 0) + 1
        got = list(pred.intervals) if pred.is_interval else list(pred.multiplicities)
        if got != [tuple(e) for e in expected]:
            bad.append((setting.value, values, got, expected))
    coverage_ok = all(per_setting.get(t, 0) >= 3 for t in SettingTag)
    # hypothesis-failure fixture: some e_n = 0 in the Heegner setting
    with pytest.raises(HypothesisError):
        from finemw.predictors import GrowthSequence as GS
        predict(SettingTag.HEEGNER_BDP, GS("e", 5, (2, 0)))
    exit_code = cli_main(["predict", "--setting", "heegner_bdp", "--ranks", "2,2",
                          "--p", "5", "--rank-kind", "Z"])
    capsys.readouterr()
    ok = not bad and coverage_ok and exit_code == 3
    report("5 predictor golden suite", ok,
           f"{len(GOLDEN)} fixtures over {len(per_setting)} settings, "
           f"hypothesis-failure exit code {exit_code}" +
           (f"; first mismatch {bad[0]}" if bad else ""))


def test_criterion_6_local_growth_fixture():
    pred = local_mw_prediction(1, 1, 3)
    total_degree = sum(m * phi_degree(5, j) for j, m in pred)
    ok = pred == [(0, 1), (1, 1), (2, 1), (3, 1)] and total_degree == 5**3
    report("6 local Mordell-Weil fixture", ok,
           f"multiplicities {pred}, total degree {total_degree} = 5^3")


def test_criterion_7_bdp_order_bounds():
    expected = {1: (Fraction(0), 0), 2: (Fraction(1, 2), 1),
                3: (Fraction(1), 1), 4: (Fraction(3, 2), 2)}
    got = {e: bdp_order_lower_bound(e) for e in (1, 2, 3, 4)}
    ok = got == expected
    report("7 BDP order bounds", ok, f"{ {e: (str(b), c) for e, (b, c) in got.items()} }")


def test_criterion_8_deterministic_reports(tmp_path):
    """Identical seeds and config give byte-identical JSON reports."""
    paths = [str(tmp_path / name) for name in ("run1.json", "run2.json")]
    for path in paths:
        code = cli_main(["oracle", "--p", "5", "--instances", "25",
                         "--seed", str(CORPUS_SEED), "--steps", str(OBFUSCATION_STEPS),
                         "--records", "--jobs", str(JOBS), "--out", path])
        assert code == 0
    b1, b2 = (open(p, "rb").read() for p in paths)
    ok = b1 == b2 and len(b1) > 0
    report("8 byte-identical reports", ok, f"{len(b1)} bytes compared")


FINITE_LEVEL_DRAWS = {5: 100, 7: 40}


def test_finite_level_orders_match_the_determinant_referee(corpus):
    """Every finite level of the square corpus draws (p = 5 draws 0-99, p = 7
    draws 0-39): the torsion order equals sum_{j <= n} v(det A mod Phi_j)."""
    suites, _ = corpus
    checked = 0
    for p, draws in FINITE_LEVEL_DRAWS.items():
        ring = CoefficientRing(p, 1, PRECISION)
        for rec in suites[p]["records"][:draws]:
            levels = [n for n, r in enumerate(rec["evidence"]["ranks"]) if r == 0]
            if not levels:
                continue
            seed = rec["seed"]
            M = obfuscate(build_elementary(sample_recipe(seed, p, N_MAX), ring),
                          seed=seed ^ 0x5EED, steps=OBFUSCATION_STEPS)
            if M.generators != M.num_relations:
                continue
            for n in levels:
                assert finite_level_order(M, n) == rec["evidence"]["torsion_orders"][n], \
                    (p, seed, n)
                checked += 1
    assert checked == 43 + 14


@pytest.mark.xfail(strict=True, reason="a hidden p^20 counts as free rank at the reduced "
                                       "working precision (ROADMAP item 1)")
@pytest.mark.parametrize("p", PRIMES)
def test_planted_finite_levels_match_the_determinant_referee(p):
    """Lambda/(p^20) + Lambda/(T - p): every level is finite."""
    ring = CoefficientRing(p, 1, PRECISION)
    one, zero = IwasawaPoly.constant(ring, 1), IwasawaPoly(ring, [])
    M = ModulePresentation(ring, 3, [
        [one, one, zero],
        [one, IwasawaPoly.constant(ring, 1 + p**20), zero],
        [zero, zero, IwasawaPoly.variable(ring) - IwasawaPoly.constant(ring, p)]])
    analysis = analyze(M, N_MAX)
    assert analysis.torsion_orders == [finite_level_order(M, n) for n in range(N_MAX + 1)]


def test_zz_summary(corpus):
    print()
    for line in _lines:
        print(line)
