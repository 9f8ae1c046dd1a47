import random

import pytest

from finemw.errors import ResourceLimitError
from finemw.padics import CoefficientRing
from finemw.polynomials import IwasawaPoly, cyclotomic, weierstrass_divide
from finemw.presentations import coinvariants, phi_component_ranks
from finemw.oracle import (
    ConstructionRecipe,
    build_elementary,
    obfuscate,
    roundtrip_suite,
    run_instance,
    sample_recipe,
)
from finemw.structure import classify_elementary
from oracles import poly_matrix_det

RING = CoefficientRing(5, 1, 24)


def test_build_free_module_recipe():
    M = build_elementary(ConstructionRecipe(seed=0, free_rank=1), RING)
    assert M.generators == 1 and M.num_relations == 0


def test_build_phi1_plus_p():
    rec = ConstructionRecipe(seed=0, cyclo_multiplicities={1: 1}, mu_summands=[1])
    M = build_elementary(rec, RING)
    assert M.generators == 2 and M.num_relations == 2
    t = classify_elementary(M, 3)
    assert t.cyclo_multiplicities == {1: 1} and t.mu == 1


def test_build_warning_class_recipe():
    rec = ConstructionRecipe(seed=0, extra_factors=["T-p"])
    M = build_elementary(rec, RING)
    t = classify_elementary(M, 3)
    assert t.residual_lambda == 1 and t.g_functor_vanishes == "no"


def test_recipe_budget():
    rec = ConstructionRecipe(seed=0, free_rank=3, cyclo_multiplicities={0: 2})
    with pytest.raises(ResourceLimitError):
        build_elementary(rec, RING)


def test_obfuscate_zero_steps_is_identity():
    M = build_elementary(ConstructionRecipe(seed=0, cyclo_multiplicities={1: 1}), RING)
    M2 = obfuscate(M, seed=5, steps=0)
    assert M2.relations == M.relations


def test_obfuscate_preserves_classification():
    rng = random.Random(0)
    for seed in range(6):
        rec = sample_recipe(seed + 500, 5)
        M = build_elementary(rec, RING)
        M2 = obfuscate(M, seed=seed, steps=25)
        assert classify_elementary(M, 3).as_dict() == classify_elementary(M2, 3).as_dict()


def test_obfuscate_preserves_level_data():
    rec = ConstructionRecipe(seed=0, cyclo_multiplicities={1: 1}, mu_summands=[1])
    M = build_elementary(rec, RING)
    M2 = obfuscate(M, seed=9, steps=30)
    for n in range(3):
        a, b = coinvariants(M, n), coinvariants(M2, n)
        assert a.free_rank == b.free_rank
        assert a.torsion_exponents == b.torsion_exponents
        assert phi_component_ranks(M, n) == phi_component_ranks(M2, n)


def test_obfuscate_preserves_determinant_ideal():
    # square torsion block: det changes by a unit of Lambda only
    rec = ConstructionRecipe(seed=0, cyclo_multiplicities={0: 1, 1: 1},
                             extra_factors=["T-p"])
    M = build_elementary(rec, RING)
    M2 = obfuscate(M, seed=21, steps=20)
    zero = IwasawaPoly(RING, [])
    one = IwasawaPoly.constant(RING, 1)
    det = poly_matrix_det(M2.relations, lambda a, b: a * b, lambda a, b: a + b,
                          lambda a, b: a - b, zero, one)
    # ground truth: det = unit * T * Phi_1 * (T - p), i.e. unit * p^0 * D
    D = cyclotomic(RING, 0) * cyclotomic(RING, 1) * (IwasawaPoly.variable(RING)
                                                     - IwasawaPoly.constant(RING, 5))
    assert min(c.valuation() for c in det.coefficients if not c.is_zero()) == 0
    q, r = weierstrass_divide(det, D)
    assert r.is_zero()
    assert q.degree() == det.degree() - D.degree()
    assert q.coefficient(0).valuation() == 0  # quotient is a unit


def test_sample_recipe_respects_budget_and_distribution():
    for seed in range(200):
        rec = sample_recipe(seed, 5)
        assert rec.block_count <= 4
        assert all(level <= 2 for level in rec.cyclo_multiplicities)
        assert all(1 <= s <= 2 for s in rec.cyclo_multiplicities.values())
        assert len(rec.mu_summands) <= 2
        assert all(1 <= k <= 2 for k in rec.mu_summands)
        assert len(rec.extra_factors) <= 1
        assert rec.block_count > 0


def test_sample_recipe_deterministic():
    assert sample_recipe(42, 5).as_dict() == sample_recipe(42, 5).as_dict()


def test_sample_recipe_drops_support_at_n_max_and_keeps_the_stream():
    for seed in range(300):
        for p in (5, 7):
            default = sample_recipe(seed, p)
            assert sample_recipe(seed, p, 3).as_dict() == default.as_dict()
            capped = sample_recipe(seed, p, 2)
            assert all(j < 2 for j in capped.cyclo_multiplicities)
            assert (capped.free_rank, capped.mu_summands, capped.extra_factors) == (
                default.free_rank, default.mu_summands, default.extra_factors)


@pytest.mark.parametrize("seed", [7000024, 7000027])
def test_run_instance_at_n_max_2_draws_identifiable_support(seed):
    # both drew Phi_2 support, which levels 0..2 cannot tell apart from free rank
    assert 2 in sample_recipe(seed, 7).cyclo_multiplicities
    r = run_instance(7, 2, seed, checks="full")
    assert "2" not in r["recipe"]["cyclo_multiplicities"]
    assert r["status"] != "fail" and "error" not in r
    assert all(v == "pass" for v in r["checks"].values())


def test_run_instance_classify_and_full():
    r = run_instance(5, 3, seed=77, checks="classify")
    assert r["checks"].get("type_recovery") == "pass"
    r = run_instance(5, 3, seed=77, checks="full")
    assert r["status"] in ("pass", "undetermined")
    assert all(v in ("pass", "skipped") for v in r["checks"].values())


def test_run_instance_full_checks_with_scaled_generators_past_int64():
    # the random-subgroup selector scales p = 7 generators past int64
    r = run_instance(7, 2, 7000021, checks="full")
    assert "error" not in r
    assert r["status"] == "pass"
    for sel in ("zero", "full-torsion", "random-subgroup"):
        assert r["checks"][f"finite_quotients[{sel}]"] == "pass"


class _MisstatedVerdict(ConstructionRecipe):
    """A recipe whose ground truth claims the opposite torsion-limit verdict."""

    def expected_type(self):
        truth = super().expected_type()
        truth.g_functor_vanishes = "no" if truth.g_functor_vanishes == "yes" else "yes"
        return truth


def test_run_instance_fails_a_verdict_contradicting_the_recipe():
    recipe = ConstructionRecipe(seed=0, cyclo_multiplicities={1: 1})
    honest = run_instance(5, 3, 0, recipe=recipe)
    assert honest["status"] == "pass" and honest["g_functor"] == "yes"
    assert set(honest) == {"seed", "recipe", "status", "checks", "type", "g_functor",
                           "evidence"}
    lying = _MisstatedVerdict(seed=0, cyclo_multiplicities={1: 1})
    r = run_instance(5, 3, 0, recipe=lying)
    assert r["status"] == "fail"
    assert r["error"] == ("VerdictContradiction: torsion-limit verdict 'yes' "
                          "contradicts the recipe's 'no'")
    assert r["checks"]["type_recovery"] == "pass"


def test_failure_record_keeps_the_failing_frame(monkeypatch):
    from finemw import oracle

    def broken(M, n_max):
        raise RuntimeError("no analysis")

    monkeypatch.setattr(oracle, "analyze", broken)
    r = run_instance(5, 2, 3)
    assert r["status"] == "fail"
    assert r["error"] == "RuntimeError: no analysis"
    assert r["error_at"] == f"test_oracle.py:{broken.__code__.co_firstlineno + 1}"
    assert "presentation" in r


def test_run_instance_keeps_undetermined_apart_from_failures():
    # Lambda/Phi_2 leaves transient torsion at level 1: the verdict stays open,
    # which contradicts nothing
    recipe = _MisstatedVerdict(seed=0, cyclo_multiplicities={2: 1})
    r = run_instance(5, 3, 0, recipe=recipe)
    assert r["g_functor"] == "undetermined"
    assert r["status"] == "undetermined" and "error" not in r


def test_roundtrip_suite_empty():
    s = roundtrip_suite(5, 0, seed=0)
    assert s["passes"] == 0 and s["failures"] == 0 and s["records"] == []


def test_roundtrip_suite_deterministic_and_parallel_equal():
    a = roundtrip_suite(5, 4, seed=9, jobs=1)
    b = roundtrip_suite(5, 4, seed=9, jobs=2)
    assert a == b


@pytest.mark.parametrize("p, instances", [(5, 20), (7, 3)])
def test_roundtrip_over_the_quadratic_ring(p, instances):
    # the same draws over O: every level reduction is the regular
    # representation at p^N, whose layer 0 pivots on the echelon keys
    s = roundtrip_suite(p, instances, n_max=3, seed=2024, degree=2)
    assert s["unramified_degree"] == 2
    assert s["failures"] == 0 and s["type_recovery_failures"] == 0
    assert s["passes"] + s["undetermined"] == instances


def test_failures_reproducible_from_seed():
    # records carry the seed and recipe, and rebuilding from them is stable
    s = roundtrip_suite(5, 3, seed=4)
    for rec in s["records"]:
        again = run_instance(5, 3, rec["seed"])
        assert again["recipe"] == rec["recipe"]
        assert again["type"] == rec["type"]


def test_obfuscate_with_level_cap_reduces_entries():
    rec = ConstructionRecipe(seed=0, cyclo_multiplicities={2: 1}, mu_summands=[1])
    M = build_elementary(rec, RING)
    M2 = obfuscate(M, seed=13, steps=30, reduce_cap=3)
    assert M2.level_cap == 3
    assert all(entry.degree() < 5**3 for row in M2.relations for entry in row)
    assert classify_elementary(M, 3).as_dict() == classify_elementary(M2, 3).as_dict()
    with pytest.raises(ResourceLimitError):
        coinvariants(M2, 4)
