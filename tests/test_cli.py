import json
import os

import pytest

from finemw.cli import main
from finemw.padics import CoefficientRing
from finemw.polynomials import IwasawaPoly, cyclotomic
from finemw.presentations import (
    ModulePresentation,
    cyclic_module,
    direct_sum,
    free_module,
    presentation_to_json,
)

RING = CoefficientRing(5, 1, 24)


@pytest.fixture(scope="module")
def schema():
    import finemw

    path = os.path.join(os.path.dirname(finemw.__file__), "schemas", "report.schema.json")
    with open(path) as handle:
        return json.load(handle)


def validate(doc, schema):
    import jsonschema

    jsonschema.validate(doc, schema)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def phi1_file(tmp_path):
    path = tmp_path / "phi1.json"
    path.write_text(json.dumps(presentation_to_json(
        cyclic_module(RING, cyclotomic(RING, 1)))))
    return str(path)


@pytest.fixture()
def warning_file(tmp_path):
    T = IwasawaPoly.variable(RING)
    M = cyclic_module(RING, T - IwasawaPoly.constant(RING, 5))
    path = tmp_path / "warning1.json"
    path.write_text(json.dumps(presentation_to_json(M)))
    return str(path)


def test_predict_trivial_ideal(capsys, schema):
    code, out = run_cli(["predict", "--setting", "cm_split_cyc", "--ranks", "1,5",
                         "--p", "5", "--rank-kind", "Z"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["growth"] == [1, 1]
    assert doc["prediction"]["text"] == "1"


def test_predict_heegner_bdp(capsys, schema):
    code, out = run_cli(["predict", "--setting", "heegner_bdp", "--ranks", "3,7",
                         "--p", "5", "--rank-kind", "Z"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["growth"] == [3, 1]
    assert doc["prediction"]["factors"] == [[0, 2]]


def test_predict_exit_2_on_bad_jump(capsys):
    code, _ = run_cli(["predict", "--setting", "cm_split_cyc", "--ranks", "0,3",
                       "--p", "5", "--rank-kind", "Z"], capsys)
    assert code == 2


def test_predict_exit_3_on_hypothesis_failure(capsys):
    code, _ = run_cli(["predict", "--setting", "heegner_bdp", "--ranks", "0,4",
                       "--p", "5", "--rank-kind", "Z"], capsys)
    assert code == 3


def test_predict_question_block(capsys, schema):
    code, out = run_cli(["predict", "--setting", "cm_inert_cyc", "--ranks", "2,2,2",
                         "--p", "5", "--rank-kind", "O", "--question"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["conjectural"]["status"] == "conjectural"
    assert doc["conjectural"]["object"] == "Y(E/F^cyc)"
    assert doc["conjectural"]["prediction"]["text"] == "Φ_0^1"


def test_classify_file(capsys, schema, phi1_file):
    code, out = run_cli(["classify", "--file", phi1_file], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["type"]["cyclo_multiplicities"] == {"1": 1}


def test_classify_warning_class(capsys, schema, warning_file):
    code, out = run_cli(["classify", "--file", warning_file], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["type"]["residual_lambda"] == 1
    assert doc["type"]["g_functor_vanishes"] == "no"


def test_classify_free_rank_two(capsys, tmp_path, schema):
    path = tmp_path / "free2.json"
    path.write_text(json.dumps(presentation_to_json(free_module(RING, 2))))
    code, out = run_cli(["classify", "--file", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["type"]["free_rank"] == 2


def test_classify_exit_4_on_budget(capsys, phi1_file):
    code, _ = run_cli(["classify", "--file", phi1_file, "--n-max", "9"], capsys)
    assert code == 4


def test_classify_exit_4_on_relation_entries(capsys, tmp_path):
    # 4 generators at p = 7 pass the row budget at level 3, but 1000 relations
    # would expand to 3.8 GB of int64; refused before any level is reduced
    doc = {"p": 7, "precision": 24, "generators": 4,
           "relations": [[[["1"]]] * 1000 for _ in range(4)]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code = main(["classify", "--file", str(path), "--n-max", "3"])
    assert code == 4
    assert "entries" in capsys.readouterr().err


def test_classify_exit_5_on_uncertified_levels(capsys, tmp_path):
    # Lambda/(7^12) + (Lambda/Phi_1)^3: level 3 runs at 7^11, where the 7^12
    # summands vanish, and is too large to redo at full precision
    ring = CoefficientRing(7, 1, 24)
    M = direct_sum(cyclic_module(ring, IwasawaPoly.constant(ring, 7**12)),
                   *[cyclic_module(ring, cyclotomic(ring, 1))] * 3)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(presentation_to_json(M)))
    code = main(["classify", "--file", str(path), "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "not certified" in captured.err


def test_classify_exit_3_when_torsion_trend_has_no_fit(capsys, tmp_path, schema):
    # Lambda/(p, T^2) has torsion orders 1, 2, 2: no integer mu fits the trend
    ring = CoefficientRing(5, 1, 24)
    M = ModulePresentation(ring, 1, [[IwasawaPoly.constant(ring, 5),
                                      IwasawaPoly.from_ints(ring, [0, 0, 1])]])
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(presentation_to_json(M)))
    code, out = run_cli(["classify", "--file", str(path), "--n-max", "2"], capsys)
    assert code == 3
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["status"] == "no-elementary-fit"
    assert doc["error"] == "level 2: torsion trend [1, 2, 2] admits no integer mu"


def test_classify_exit_2_on_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _ = run_cli(["classify", "--file", str(bad)], capsys)
    assert code == 2


def test_verify_warning_file_skips_with_reason(capsys, schema, warning_file):
    code, out = run_cli(["verify", "--file", warning_file], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    names = {c["name"]: c for c in doc["checks"]}
    assert names["rank_identity"]["verdict"] == "skipped"
    assert names["finite_quotients"]["verdict"] == "skipped"
    assert "warning-class" in names["finite_quotients"]["reason"]


def test_verify_phi1_passes(capsys, schema, phi1_file):
    code, out = run_cli(["verify", "--file", phi1_file], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["verdict"] == "pass"
    selectors = [c.get("selector") for c in doc["checks"] if c["name"] == "finite_quotients"]
    assert selectors == ["zero", "full-torsion", "random-subgroup"]


def test_oracle_empty_run(capsys, schema):
    code, out = run_cli(["oracle", "--p", "5", "--instances", "0", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["passes"] == 0 and doc["failures"] == 0


def test_oracle_small_run(capsys, schema):
    code, out = run_cli(["oracle", "--p", "5", "--instances", "3", "--seed", "42"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["type_recovery_failures"] == 0


def test_reports_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out1, out2):
        code = main(["oracle", "--p", "5", "--instances", "2", "--seed", "11",
                     "--records", "--out", out])
        assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_csv_rank_ingestion(capsys, tmp_path, schema):
    csv_path = tmp_path / "ranks.csv"
    csv_path.write_text("level,rank\n0,2\n1,6\n2,26\n")
    code, out = run_cli(["predict", "--setting", "cm_split_cyc", "--p", "5",
                         "--rank-kind", "Z", "--ranks-csv", str(csv_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["growth"] == [2, 1, 1]


def test_csv_bad_header_rejected(capsys, tmp_path):
    csv_path = tmp_path / "ranks.csv"
    csv_path.write_text("lvl,rk\n0,2\n")
    code, _ = run_cli(["predict", "--setting", "cm_split_cyc", "--p", "5",
                       "--rank-kind", "Z", "--ranks-csv", str(csv_path)], capsys)
    assert code == 2


def test_config_env_var(capsys, tmp_path, monkeypatch, schema):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p": 5, "rank_kind": "Z"}))
    monkeypatch.setenv("FINEMW_CONFIG", str(cfg))
    code, out = run_cli(["predict", "--setting", "cm_split_cyc", "--ranks", "1,5"], capsys)
    assert code == 0
    assert json.loads(out)["p"] == 5


def test_atomic_write_creates_file(tmp_path):
    out = str(tmp_path / "sub" / "report.json")
    os.makedirs(os.path.dirname(out))
    code = main(["predict", "--setting", "cm_split_cyc", "--ranks", "1,5", "--p", "5",
                 "--rank-kind", "Z", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "predict"
    leftovers = [f for f in os.listdir(os.path.dirname(out)) if f.startswith(".finemw-")]
    assert leftovers == []


def test_text_format_renders_paper_notation(capsys, phi1_file):
    code, out = run_cli(["predict", "--setting", "cm_split_cyc", "--ranks", "1,9",
                         "--p", "5", "--rank-kind", "Z", "--format", "text"], capsys)
    assert code == 0
    assert "Φ_1^2" in out


def test_oracle_rejects_low_precision(capsys):
    code, _ = run_cli(["oracle", "--p", "5", "--instances", "1", "--precision", "2"], capsys)
    assert code == 2


def test_oracle_rejects_overdeep_level(capsys):
    code, _ = run_cli(["oracle", "--p", "5", "--instances", "1", "--n-max", "9"], capsys)
    assert code == 2
