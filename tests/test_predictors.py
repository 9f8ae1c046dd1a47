from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from finemw.errors import HypothesisError, InvalidRankTableError, SettingError, ValidationError
from finemw.oracle import ConstructionRecipe, build_elementary, obfuscate
from finemw.padics import CoefficientRing
from finemw.polynomials import phi_degree
from finemw.presentations import coinvariants
from finemw.structure import classify_elementary
from finemw.predictors import (
    SETTINGS,
    GrowthSequence,
    RankTable,
    SettingTag,
    anticyclotomic_parity_check,
    bdp_order_lower_bound,
    growth_sequence,
    local_mw_prediction,
    mw_tate_prediction,
    predict,
    question_report,
    ranks_over_O_from_Z,
    resolve_setting,
)


def seq(kind, p, values):
    return GrowthSequence(kind, p, tuple(values))


def test_growth_sequence_examples():
    t = RankTable(5, (2, 6, 26), "Z")
    assert growth_sequence(t, "e").values == (2, 1, 1)
    t = RankTable(5, (1, 1, 1), "O")
    assert growth_sequence(t, "f").values == (1, 0, 0)


def test_growth_divisibility_error_names_level():
    with pytest.raises(InvalidRankTableError) as err:
        RankTable(5, (0, 3), "Z")
    assert err.value.level == 1
    assert "not divisible by 4" in str(err.value)


def test_rank_table_monotonicity():
    with pytest.raises(InvalidRankTableError):
        RankTable(5, (4, 0), "Z")


def test_growth_kind_requires_matching_rank_kind():
    with pytest.raises(SettingError):
        growth_sequence(RankTable(5, (1, 5), "Z"), "f")
    with pytest.raises(SettingError):
        growth_sequence(RankTable(5, (2, 10), "O"), "e")


def test_rank_O_converter():
    assert ranks_over_O_from_Z((1, 3, 13)) == (2, 6, 26)


def test_predict_cm_inert_cyc():
    pred = predict(SettingTag.CM_INERT_CYC, seq("f", 5, [2, 1, 0]))
    assert pred.multiplicities == ((0, 1),)
    assert pred.text() == "Φ_0^1"
    assert pred.ring == "Lambda_Op"


def test_predict_cm_split_cyc():
    pred = predict(SettingTag.CM_SPLIT_CYC, seq("e", 5, [3, 2, 0]))
    assert pred.multiplicities == ((0, 4), (1, 2))
    assert pred.ring == "Lambda"


def test_predict_heegner_fine_intervals():
    pred = predict(SettingTag.HEEGNER_FINE, seq("e", 5, [3, 1, 2]))
    assert pred.intervals == ((0, 1, 2), (1, 0, 0), (2, 0, 1))
    assert pred.is_interval


def test_predict_heegner_bdp():
    pred = predict(SettingTag.HEEGNER_BDP, seq("e", 5, [3, 2, 1]))
    assert pred.multiplicities == ((0, 2), (1, 1))


def test_predict_heegner_bdp_hypothesis_failure():
    with pytest.raises(HypothesisError):
        predict(SettingTag.HEEGNER_BDP, seq("e", 5, [2, 0, 1]))


def test_predict_kind_mismatch():
    with pytest.raises(SettingError):
        predict(SettingTag.CM_INERT_CYC, seq("e", 5, [1]))
    with pytest.raises(SettingError):
        predict(SettingTag.HEEGNER_BDP, seq("f", 5, [1]))


def test_mw_tate_prediction_examples():
    assert mw_tate_prediction(seq("e", 5, [2, 1]), 1) == [(0, 2), (1, 1)]
    assert mw_tate_prediction(seq("e", 5, [0]), 0) == []


def test_mw_tate_consistency_with_rank_table():
    table = RankTable(5, (2, 6, 26), "Z")
    s = growth_sequence(table, "e")
    for n in range(3):
        total = sum(m * phi_degree(5, j) for j, m in mw_tate_prediction(s, n))
        assert total == table.values[n]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(0, 3), st.data())
def test_mw_tate_prediction_realises_the_rank_table(p, n, data):
    # the predicted Tate module, built as a sum of (Lambda/Phi_j)^(e_j), has
    # the table's Z_p-rank at every level up to n
    e = []
    for _ in range(n + 1):
        e.append(data.draw(st.integers(0, 4 - sum(e))))
    ranks = [sum(e[j] * phi_degree(p, j) for j in range(k + 1)) for k in range(n + 1)]
    s = growth_sequence(RankTable(p, tuple(ranks), "Z"), "e")
    recipe = ConstructionRecipe(seed=0, cyclo_multiplicities=dict(mw_tate_prediction(s, n)))
    M = build_elementary(recipe, CoefficientRing(p, 1, 24))
    assert [coinvariants(M, k).free_rank for k in range(n + 1)] == ranks


E_SETTINGS = [tag for tag, record in SETTINGS.items() if record.kind == "e"]


@pytest.mark.parametrize("setting", E_SETTINGS, ids=lambda tag: tag.value)
@settings(max_examples=4, deadline=None)
@given(st.sampled_from([5, 7]), st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.integers(0, 2**32))
def test_e_prediction_is_realised_and_classified(setting, p, values, seed):
    # an e-sequence whose predicted support lies at levels <= 2, realised as
    # the disguised sum of (Lambda/Phi_j)^(m_j), classifies at n_max = 3 as
    # exactly that: free rank 0, the predicted multiplicities, mu = lambda = 0;
    # an interval-valued prediction at both of its ends
    s = seq("e", p, values)
    try:
        prediction = predict(setting, s)
    except HypothesisError:
        assume(False)
    if prediction.is_interval:
        ends = [{n: bound[end] for n, *bound in prediction.intervals if bound[end]}
                for end in (0, 1)]
    else:
        ends = [dict(prediction.multiplicities)]
    assume(1 <= sum(ends[-1].values()) <= 4)
    for multiplicities in ends:
        recipe = ConstructionRecipe(seed=seed, cyclo_multiplicities=multiplicities)
        M = obfuscate(build_elementary(recipe, CoefficientRing(p, 1, 24)), seed=seed, steps=24)
        etype = classify_elementary(M, 3)
        assert (etype.free_rank, etype.cyclo_multiplicities, etype.mu,
                etype.residual_lambda) == (0, multiplicities, 0, 0)


def test_local_mw_prediction():
    assert local_mw_prediction(1, 1, 2) == [(0, 1), (1, 1), (2, 1)]
    assert local_mw_prediction(1, 2, 1) == [(0, 2), (1, 2)]
    # Mattuck rank check: sum of g d phi(p^j) = g d p^n
    for p, g, d, n in [(5, 1, 1, 3), (7, 2, 3, 2)]:
        total = sum(m * phi_degree(p, j) for j, m in local_mw_prediction(g, d, n))
        assert total == g * d * p**n


def test_bdp_order_lower_bound():
    assert bdp_order_lower_bound(3) == (Fraction(1), 1)
    assert bdp_order_lower_bound(1) == (Fraction(0), 0)
    assert bdp_order_lower_bound(4) == (Fraction(3, 2), 2)
    with pytest.raises(HypothesisError):
        bdp_order_lower_bound(0)


def test_bdp_bound_zero_iff_rank_one():
    for e in range(1, 8):
        bound, ceil = bdp_order_lower_bound(e)
        assert bound >= 0
        assert (bound == 0) == (e == 1)


def test_question_reports():
    q = question_report(SettingTag.CM_INERT_ANTICYC, seq("f", 5, [1, 1, 0, 1]))
    assert q["status"] == "conjectural"
    assert q["prediction"]["text"] == "1"
    assert q["object"] == "Y(E/F^ac)"

    q = question_report(SettingTag.CM_SPLIT_CYC, seq("e", 5, [2, 2]))
    assert q["prediction"]["factors"] == [[0, 2], [1, 2]]
    assert q["object"] == "Y(E/F^cyc)"

    q = question_report(SettingTag.HEEGNER_FINE, seq("e", 5, [3]))
    assert q["prediction"]["intervals"] == [[0, 1, 2]]
    assert any("undetermined" in note for note in q["notes"])


def test_question_report_labels_proven_part():
    q = question_report(SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS, seq("e", 5, [2]))
    assert q["proven_shape"]["status"] == "proven-shape"
    assert q["proven_shape"]["object"] == "Y_f(E/F^ac)"


def test_parity_check_examples():
    rep = anticyclotomic_parity_check(seq("f", 5, [2, 0, 1, 0, 1]))
    assert rep["verdict"] == "pass"
    assert rep["parity"] == "even"  # levels 2 and 4, counted from zero
    rep = anticyclotomic_parity_check(seq("f", 5, [1, 1, 1, 1]))
    assert rep["verdict"] == "fail"
    rep = anticyclotomic_parity_check(seq("f", 5, [0, 0, 0]))
    assert rep["verdict"] == "pass" and rep.get("degenerate")


def test_resolve_setting():
    assert resolve_setting("cm_inert_cyc") is SettingTag.CM_INERT_CYC
    assert resolve_setting("cm_split_anticyc", "+1") is SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS
    assert resolve_setting("cm_split_anticyc", "-1") is SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS
    with pytest.raises(ValidationError):
        resolve_setting("cm_split_anticyc")
    with pytest.raises(ValidationError):
        resolve_setting("nope")


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=5), st.integers(0, 4),
       st.sampled_from([t for t in SettingTag if t is not SettingTag.HEEGNER_BDP]))
def test_predict_is_monotone(values, bump_at, setting):
    kind = SETTINGS[setting].kind
    s = seq(kind, 5, values)
    bumped_vals = list(values)
    idx = bump_at % len(values)
    bumped_vals[idx] += 1
    bumped = seq(kind, 5, bumped_vals)
    a, b = predict(setting, s), predict(setting, bumped)

    def mults(pred):
        if pred.is_interval:
            return {n: hi for n, _, hi in pred.intervals}
        return dict(pred.multiplicities)

    ma, mb = mults(a), mults(b)
    for n in set(ma) | set(mb):
        assert mb.get(n, 0) >= ma.get(n, 0)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_heegner_interval_contains_admissible_values(values):
    s = seq("e", 5, values)
    pred = predict(SettingTag.HEEGNER_FINE, s)
    for n, lo, hi in pred.intervals:
        e = values[n]
        assert lo == max(0, e - 2) and hi == max(0, e - 1)
        assert lo <= hi
        for candidate in range(lo, hi + 1):
            assert max(0, e - 2) <= candidate <= max(0, e - 1)


def test_growth_sequence_inverts_synthetic_tables():
    # build a table from a chosen sequence, recover the sequence
    import random

    rng = random.Random(6)
    for _ in range(30):
        p = rng.choice((5, 7))
        e = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 5))]
        values = [e[0]]
        for n in range(1, len(e)):
            values.append(values[-1] + e[n] * phi_degree(p, n))
        table = RankTable(p, tuple(values), "Z")
        assert list(growth_sequence(table, "e").values) == e
