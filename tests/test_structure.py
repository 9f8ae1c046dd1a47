import json

import pytest

from finemw.errors import (ClassificationError, HypothesisError, UncertifiedError,
                           ValidationError)
from finemw.padics import CoefficientRing
from finemw.polynomials import IwasawaPoly, cyclotomic
from finemw.presentations import (
    ModulePresentation,
    coinvariants,
    cyclic_module,
    direct_sum,
    free_module,
    presentation_to_json,
)
from finemw.snf import smith_normal_form
from finemw.structure import (
    ElementaryType,
    StructureAnalysis,
    TowerSpec,
    _TorsionSpan,
    analyze,
    classify_elementary,
    g_functor_vanishes,
    generator_change_invariance,
    verify_finite_quotients,
    verify_rank_identity,
)

RING = CoefficientRing(5, 1, 24)
T = IwasawaPoly.variable(RING)
FIVE = IwasawaPoly.constant(RING, 5)


def finite_summand(ring, k):
    """Lambda/(p, T^k): pseudo-null, invisible to classification."""
    return ModulePresentation(ring, 1, [[IwasawaPoly.constant(ring, ring.prime),
                                         IwasawaPoly.from_ints(ring, [0] * k + [1])]])


def test_classify_free_module():
    t = classify_elementary(free_module(RING, 1), 3)
    assert (t.free_rank, t.cyclo_multiplicities, t.mu, t.residual_lambda) == (1, {}, 0, 0)
    assert t.g_functor_vanishes == "yes"


def test_classify_phi1_plus_p():
    M = direct_sum(cyclic_module(RING, cyclotomic(RING, 1)), cyclic_module(RING, FIVE))
    t = classify_elementary(M, 3)
    assert t.free_rank == 0
    assert t.cyclo_multiplicities == {1: 1}
    assert t.mu == 1 and t.residual_lambda == 0
    assert t.g_functor_vanishes == "no"


def test_classify_warning_class_module():
    t = classify_elementary(cyclic_module(RING, T - FIVE), 3)
    assert t.free_rank == 0 and t.cyclo_multiplicities == {}
    assert t.mu == 0 and t.residual_lambda == 1
    assert t.g_functor_vanishes == "no"


def test_classify_degree_two_residual():
    M = cyclic_module(RING, T * T - FIVE)
    t = classify_elementary(M, 3)
    assert t.residual_lambda == 2 and t.mu == 0


def test_classify_mixed_type():
    M = direct_sum(free_module(RING, 1),
                   cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, IwasawaPoly.constant(RING, 25)))
    t = classify_elementary(M, 3)
    assert t.free_rank == 1
    assert t.cyclo_multiplicities == {1: 2}
    assert t.mu == 2
    assert t.residual_lambda == 0


def test_classification_invariant_under_finite_summands():
    # pseudo-isomorphic modules classify identically
    base = direct_sum(cyclic_module(RING, cyclotomic(RING, 1)), cyclic_module(RING, T))
    padded = direct_sum(base, finite_summand(RING, 2))
    t1, t2 = classify_elementary(base, 3), classify_elementary(padded, 3)
    assert t1.as_dict() == t2.as_dict()
    assert t2.g_functor_vanishes == "yes"


def test_g_functor_examples():
    assert g_functor_vanishes(cyclic_module(RING, cyclotomic(RING, 2)), 4).verdict == "yes"
    rep = g_functor_vanishes(cyclic_module(RING, T - FIVE), 4)
    assert rep.verdict == "no"
    assert rep.torsion_orders == [1, 2, 3, 4, 5]
    rep = g_functor_vanishes(cyclic_module(RING, IwasawaPoly.constant(RING, 25)), 3)
    assert rep.verdict == "no"
    assert rep.torsion_orders == [2, 10, 50, 250]


def test_g_functor_undetermined_when_window_too_short():
    # support at n_max - 1 pollutes the window: honestly undetermined
    assert g_functor_vanishes(cyclic_module(RING, cyclotomic(RING, 2)), 3).verdict \
        == "undetermined"


def test_elementary_type_invariant():
    with pytest.raises(ValidationError):
        ElementaryType(0, {}, 1, 0, "yes")
    with pytest.raises(ValidationError):
        ElementaryType(0, {}, 0, 2, "yes")


def test_verify_rank_identity_passes_for_elementary():
    M = direct_sum(free_module(RING, 2), cyclic_module(RING, cyclotomic(RING, 1)))
    rep = verify_rank_identity(M, 3)
    assert rep["verdict"] == "pass"
    assert rep["type"]["free_rank"] == 2


def test_verify_rank_identity_forbids_vacuous_pass():
    rep = verify_rank_identity(cyclic_module(RING, FIVE), 3)
    assert rep["verdict"] == "skipped"
    assert "verdict" in rep["reason"] or "vanish" in rep["reason"]


def test_verify_finite_quotients_two_phi1_blocks():
    M = direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, cyclotomic(RING, 1)))
    for sel in ("zero", "full-torsion", "random-subgroup"):
        rep = verify_finite_quotients(TowerSpec(M, sel, seed=7), 3)
        assert rep["verdict"] == "pass"
        for level in rep["levels"]:
            n = level["level"]
            expect = [0] + [2 if j == 1 else 0 for j in range(1, n + 1)]
            assert level["multiplicities"] == expect


def test_verify_finite_quotients_omega1():
    M = cyclic_module(RING, T * cyclotomic(RING, 1))
    rep = verify_finite_quotients(TowerSpec(M, "zero"), 3)
    assert rep["verdict"] == "pass"
    assert rep["levels"][1]["multiplicities"] == [1, 1]
    assert rep["levels"][3]["multiplicities"] == [1, 1, 0, 0]


def test_verify_finite_quotients_random_selector_matches_full():
    # a finite submodule cannot change the free part
    M = direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, cyclotomic(RING, 2)))
    reps = {sel: verify_finite_quotients(TowerSpec(M, sel, seed=3), 3)
            for sel in ("zero", "full-torsion", "random-subgroup")}
    mults = {sel: [l["multiplicities"] for l in rep["levels"]]
             for sel, rep in reps.items()}
    assert mults["zero"] == mults["full-torsion"] == mults["random-subgroup"]


VERIFY_MODULES = {
    "two_phi1": direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                           cyclic_module(RING, cyclotomic(RING, 1))),
    "omega1": cyclic_module(RING, T * cyclotomic(RING, 1)),
    "phi1_phi2": direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                            cyclic_module(RING, cyclotomic(RING, 2))),
    "phi1_finite": direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                              finite_summand(RING, 2)),
}


@pytest.mark.parametrize("name", sorted(VERIFY_MODULES))
def test_verify_finite_quotients_same_report_with_shared_analysis(name):
    M = VERIFY_MODULES[name]
    shared = analyze(M, 3)
    etype = shared.classify()
    for sel in ("zero", "full-torsion", "random-subgroup"):
        alone = verify_finite_quotients(TowerSpec(M, sel, seed=3), 3)
        assert verify_finite_quotients(TowerSpec(M, sel, seed=3), 3,
                                       analysis=shared) == alone
        assert verify_finite_quotients(TowerSpec(M, sel, seed=3), 3, expected=etype,
                                       analysis=shared) == alone


def test_verify_finite_quotients_rejects_a_foreign_analysis():
    shared = analyze(VERIFY_MODULES["omega1"], 3)
    with pytest.raises(ValidationError):
        verify_finite_quotients(TowerSpec(VERIFY_MODULES["two_phi1"], "zero"), 3,
                                analysis=shared)
    with pytest.raises(ValidationError):
        verify_finite_quotients(TowerSpec(VERIFY_MODULES["omega1"], "zero"), 4,
                                analysis=shared)


@pytest.mark.parametrize("name, torsion_levels, int64_tracked", [
    ("phi1_phi2", [0, 1], 0),  # levels 2 and 3 are torsion-free
    ("phi1_finite", [0, 1, 2, 3], 1),  # level 3 (250 x 375) runs the int64 kernel
])
def test_verify_reduces_each_distinct_matrix_once(name, torsion_levels, int64_tracked,
                                                  monkeypatch, tmp_path, capsys):
    from finemw import _kernels, presentations
    from finemw.cli import main

    reductions, kernel_calls, components = [], [], []
    level_smith, snf_int64 = presentations._level_smith, _kernels.snf_int64
    ranks_against = presentations.component_ranks_against

    def counted_level_smith(fin, extra_columns=(), with_transforms=False, **kwargs):
        reductions.append((fin.level, fin.component, len(tuple(extra_columns)),
                           with_transforms))
        return level_smith(fin, extra_columns, with_transforms, **kwargs)

    def counted_ranks_against(M, n, extra_columns=(), precision_cap=None):
        components.append((n, len(tuple(extra_columns))))
        return ranks_against(M, n, extra_columns, precision_cap)

    def counted_snf_int64(A, p, m, track, **kwargs):
        kernel_calls.append(track)
        return snf_int64(A, p, m, track, **kwargs)

    monkeypatch.setattr(presentations, "_level_smith", counted_level_smith)
    monkeypatch.setattr(presentations, "component_ranks_against", counted_ranks_against)
    monkeypatch.setattr(_kernels, "snf_int64", counted_snf_int64)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(presentation_to_json(VERIFY_MODULES[name])))
    assert main(["verify", "--file", str(path), "--n-max", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    torsion = doc["checks"][0]["levels"]["torsion_orders"]
    assert [n for n, t in enumerate(torsion) if t] == torsion_levels
    assert [c["selector"] for c in doc["checks"][1:]] == ["zero", "full-torsion",
                                                          "random-subgroup"]
    assert all(c["verdict"] == "pass" for c in doc["checks"][1:])

    plain = [r[0] for r in reductions if r[1] is None and not r[2] and not r[3]]
    tracked = [r[0] for r in reductions if r[3]]
    assert plain == [0, 1, 2, 3]
    assert tracked == torsion_levels
    # the Phi_j components take no Smith reduction of a level expansion, and
    # the unquotiented ranks c_0..c_3 are computed once, at n_max
    assert all(r[1] is None for r in reductions)
    assert [n for n, k in components if not k] == [3]
    assert sum(1 for track in kernel_calls if track) == int64_tracked


def test_verify_finite_quotients_rejects_free_modules():
    with pytest.raises(HypothesisError):
        verify_finite_quotients(TowerSpec(free_module(RING, 1), "zero"), 2)


def test_tower_spec_validation():
    with pytest.raises(ValidationError):
        TowerSpec(free_module(RING, 1), "bogus")


def test_generator_change_invariance():
    M = cyclic_module(RING, cyclotomic(RING, 1))
    assert generator_change_invariance(M, 1, 3)["verdict"] == "pass"
    assert generator_change_invariance(M, 6, 3)["verdict"] == "pass"
    # mu is blind to the variable change
    Mp = cyclic_module(RING, FIVE)
    rep = generator_change_invariance(Mp, 2, 3)
    assert rep["verdict"] == "pass"
    assert rep["type"]["mu"] == 1


def test_generator_change_rejects_non_units():
    with pytest.raises(ValidationError):
        generator_change_invariance(cyclic_module(RING, T), 5, 2)
    with pytest.raises(ValidationError):
        generator_change_invariance(cyclic_module(RING, T), 0, 2)


def test_classification_error_names_level():
    # rank jump not divisible: impossible from genuine presentations, so force
    # the torsion-trend failure instead: support at the top level looks like
    # free rank and breaks the fit at a named level
    M = direct_sum(cyclic_module(RING, cyclotomic(RING, 3)),
                   cyclic_module(RING, cyclotomic(RING, 3)))
    with pytest.raises(ClassificationError) as err:
        classify_elementary(M, 3)
    assert err.value.level is not None


def test_analysis_requires_three_levels():
    with pytest.raises(ValidationError):
        analyze(free_module(RING, 1), 1)


def test_g_functor_iff_at_sufficient_depth():
    # with the window past the cyclotomic support, the verdict is exactly
    # "yes" when the construction has mu = 0 and no residual factor
    cases = [
        (direct_sum(cyclic_module(RING, cyclotomic(RING, 2)),
                    cyclic_module(RING, T)), True),
        (cyclic_module(RING, cyclotomic(RING, 1)), True),
        (direct_sum(cyclic_module(RING, cyclotomic(RING, 2)),
                    cyclic_module(RING, FIVE)), False),
        (direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                    cyclic_module(RING, T - FIVE)), False),
    ]
    for M, vanishes in cases:
        rep = g_functor_vanishes(M, 4)
        assert rep.verdict == ("yes" if vanishes else "no")


def test_classification_over_quadratic_coefficients():
    # inert-CM coefficient ring: everything in O-length units
    ringq = CoefficientRing(5, 2, 10)
    Tq = IwasawaPoly.variable(ringq)
    M = direct_sum(cyclic_module(ringq, cyclotomic(ringq, 1)),
                   cyclic_module(ringq, Tq - IwasawaPoly.constant(ringq, 5)))
    t = classify_elementary(M, 2)
    assert t.free_rank == 0
    assert t.cyclo_multiplicities == {1: 1}
    assert t.mu == 0 and t.residual_lambda == 1


def deep_summand_module(precision):
    """Lambda/(7^12) + (Lambda/Phi_1)^3 over Z_7 at the given precision."""
    ring = CoefficientRing(7, 1, precision)
    return direct_sum(cyclic_module(ring, IwasawaPoly.constant(ring, 7**12)),
                      *[cyclic_module(ring, cyclotomic(ring, 1))] * 3)


def test_unrerun_reduced_precision_level_is_uncertified():
    # at 7^14 the 7^12 summands reach precision_used - 2 at every level
    analysis = StructureAnalysis(deep_summand_module(14), 3)
    top = analysis.structures[3]
    assert top.smith.precision_used == 14 and top.torsion_exponents == [12] * 343
    assert [s.certified for s in analysis.structures] == [False] * 4
    assert not analysis.certified and analysis.evidence()["certified"] is False
    with pytest.raises(UncertifiedError, match=r"levels \[0, 1, 2, 3\]"):
        analysis.classify()
    with pytest.raises(UncertifiedError):
        verify_rank_identity(analysis.presentation, analysis=analysis)


def test_torsion_span_tracks_the_o_span():
    # Lambda/(5) over O = Z_5[x]/(x^2 - nu) at level 0 is O/5; x e_0 is
    # torsion and generates it, so it must grow an empty span
    ring = CoefficientRing(5, 2, 24)
    M = cyclic_module(ring, IwasawaPoly.constant(ring, 5))
    s = coinvariants(M, 0, with_transforms=True)
    x_e0 = [(0, 1)]
    assert s.torsion_exponents == [1] and s.smith.is_torsion_vector(x_e0)
    assert coinvariants(M, 0, [x_e0]).torsion_exponents == []
    assert _TorsionSpan(s.smith, 5).add(x_e0)
    span = _TorsionSpan(s.smith, 5)
    assert span.add([(1, 0)])
    assert not span.add(x_e0)
    assert not span.add([(3, 2)])


def test_torsion_span_add_is_membership():
    # over (Z/25)^2, 5 r = (0, 5) lies in the span of r = (5, 1) although its
    # pivot sits where no stored row has one
    smith = smith_normal_form([[25, 0], [0, 25]], RING, with_transforms=True)
    span = _TorsionSpan(smith, 5)
    assert span.add([5, 1])
    assert not span.add([25, 5])
    assert not span.add([0, 5])
    assert span.add([0, 1])
    assert not span.add([5, 0])
    assert span.add([1, 0])
