import json
import os
import subprocess
import sys
import time

import pytest

import finemw
from finemw.cli import main
from finemw.padics import CoefficientRing
from finemw.polynomials import IwasawaPoly, cyclotomic, degree_budget
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


def test_classify_exit_4_at_a_large_prime_before_any_reduction(capsys, tmp_path, monkeypatch):
    # at p = 101 level 2 needs 101^2 = 10201 rows, over the 9604-row cap
    def refuse(*args, **kwargs):
        raise AssertionError("a level was reduced")

    monkeypatch.setattr("finemw.snf.reduce", refuse)
    path = tmp_path / "p101.json"
    path.write_text(json.dumps({"p": 101, "generators": 1, "relations": [[[["0"], ["1"]]]]}))
    code = main(["classify", "--file", str(path), "--n-max", "2"])
    assert code == 4
    assert "rows" in capsys.readouterr().err


@pytest.mark.parametrize("excess, code", [(1, 4), (0, 0)])
def test_classify_bounds_the_degree_of_relation_entries(excess, code, tmp_path):
    # Lambda/(1 + T^D) at p = 7 is zero.  D = budget + 1 is refused before
    # any level is expanded; D = budget still divides into every level.  A
    # child process keeps the refused case's time and memory its own.
    degree = degree_budget(7) + excess
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"p": 7, "generators": 1,
                                "relations": [[[["1"]] + [["0"]] * (degree - 1) + [["1"]]]]}))
    src = os.path.dirname(os.path.dirname(finemw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "finemw.cli", "classify", "--file", str(path),
                            "--n-max", "3"], capture_output=True, text=True, env=env, timeout=300)
    elapsed = time.perf_counter() - start
    assert child.returncode == code, child.stderr
    if code:
        assert child.stdout == ""
        assert f"relation entry of degree {degree} > budget {degree - 1}" in child.stderr
        assert elapsed < 30
    else:
        doc = json.loads(child.stdout)
        assert doc["evidence"]["ranks"] == [0, 0, 0, 0]
        assert doc["type"]["free_rank"] == 0


def test_an_entry_at_the_degree_budget_folds_through_short_power_tables(
        monkeypatch, capsys, tmp_path):
    # Lambda/(1 + T^9604) at p = 7 is zero, and its report is that of
    # Lambda/(1); dividing the entry asks for no power table longer than
    # max(q, 64) rows at any level (it asked for about 9300 rows, 488 MB)
    tables = []
    power_table = finemw.presentations._power_table

    def recorded(wrap, m, rows, p):
        tables.append((len(wrap), rows))
        return power_table(wrap, m, rows, p)

    monkeypatch.setattr(finemw.presentations, "_power_table", recorded)
    reports = []
    for entry in ([["1"]] + [["0"]] * (degree_budget(7) - 1) + [["1"]], [["1"]]):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"p": 7, "generators": 1, "relations": [[entry]]}))
        assert main(["classify", "--file", str(path), "--n-max", "3"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert {q for q, _ in tables} == {1, 7, 49, 343}
    assert all(rows <= max(q, 64) for q, rows in tables)


def test_classify_exit_2_on_negative_level_cap(capsys, tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"p": 5, "generators": 1, "relations": [[[["0"], ["1"]]]],
                                "level_cap": -1}))
    assert main(["classify", "--file", str(path)]) == 2
    assert "level_cap" in capsys.readouterr().err


def test_classify_exit_2_on_prime_beyond_the_primality_bound(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 10**25 + 13, "generators": 1,
                                "relations": [[[["0"], ["1"]]]]}))
    assert main(["classify", "--file", str(path)]) == 2


def _deep_summand_file(tmp_path, precision):
    # Lambda/(7^12) + (Lambda/Phi_1)^3
    ring = CoefficientRing(7, 1, precision)
    M = direct_sum(cyclic_module(ring, IwasawaPoly.constant(ring, 7**12)),
                   *[cyclic_module(ring, cyclotomic(ring, 1))] * 3)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(presentation_to_json(M)))
    return str(path)


def test_classify_exit_5_on_uncertified_levels(capsys, tmp_path):
    # at 7^14 the 7^12 summands reach precision_used - 2 at every level
    code = main(["classify", "--file", _deep_summand_file(tmp_path, 14), "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "levels [0, 1, 2, 3] are not certified" in captured.err


def test_classify_deep_summands_exactly_at_7_24(capsys, tmp_path, schema):
    # level 3 (1372 x 1372) is suspicious at 7^11 and redone exactly at 7^24
    code, out = run_cli(["classify", "--file", _deep_summand_file(tmp_path, 24),
                         "--n-max", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc, schema)
    assert doc["evidence"]["certified"] is True
    assert doc["evidence"]["ranks"] == [0, 18, 18, 18]
    assert doc["evidence"]["torsion_orders"] == [15, 84, 588, 4116]
    assert doc["type"]["cyclo_multiplicities"] == {"1": 3}
    assert (doc["type"]["mu"], doc["type"]["g_functor_vanishes"]) == (12, "no")


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


@pytest.mark.parametrize("field, doc", [
    ("relation coefficient", {"p": 5, "generators": 1, "relations": [[[["0"], ["x1"]]]]}),
    ("p", {"p": "five", "generators": 1, "relations": [[[["1"]]]]}),
    ("level_cap", {"p": 5, "generators": 1, "relations": [[[["1"]]]], "level_cap": "two"}),
])
def test_classify_exit_2_on_non_integer_field(field, doc, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["classify", "--file", str(bad)]) == 2
    assert f"JSON: {field} " in capsys.readouterr().err


@pytest.mark.parametrize("field, text", [
    ("p", '{"p": 7.9, "generators": 1, "relations": [[[["1"]]]]}'),
    ("generators", '{"p": 5, "generators": true, "relations": [[[["1"]]]]}'),
    ("relation coefficient", '{"p": 5, "generators": 1, "relations": [[[[1e30]]]]}'),
])
def test_classify_exit_2_on_inexact_integer_field(field, text, capsys, tmp_path):
    # a float, a bool or a float coefficient would otherwise be truncated,
    # read as 1 or rounded to the nearest double: integer fields are exact
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["classify", "--file", str(bad)]) == 2
    assert f"JSON: {field} " in capsys.readouterr().err


@pytest.mark.parametrize("field, doc", [
    # each would otherwise be iterated as if it were the array: Lambda/(7),
    # 1 + 2T, 1 + 2x over O and the constant 3
    ("relations", {"p": 5, "generators": 1, "relations": "7"}),
    ("relation row", {"p": 5, "generators": 1, "relations": ["7"]}),
    ("relation entry", {"p": 5, "generators": 1, "relations": [["12"]]}),
    ("coefficient", {"p": 5, "unramified_degree": 2, "generators": 1, "relations": [[["12"]]]}),
    ("coefficient", {"p": 5, "generators": 1, "relations": [[[{"3": 0}]]]}),
])
def test_classify_exit_2_on_a_non_array_field(field, doc, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["classify", "--file", str(bad)]) == 2
    assert f"JSON: {field} " in capsys.readouterr().err


def test_classify_exit_2_on_a_directory(capsys, tmp_path):
    assert main(["classify", "--file", str(tmp_path)]) == 2
    assert f"presentation file {tmp_path}: " in capsys.readouterr().err


def test_classify_exit_2_on_a_file_that_is_not_utf8(capsys, tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"p": 5, "generators": 1, "relations": [], "note": "\xe9"}')
    assert main(["classify", "--file", str(latin)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def _predict(*args, config=()):
    return main([*config, "predict", "--setting", "cm_split_cyc", "--p", "5", "--rank-kind", "Z",
                 *args])


@pytest.mark.parametrize("text", ["level,rank\n0,2\n1,a\n", "level,rank\n0,2\n1,\n",
                                  "level,rank\n0,2\n1\n",
                                  # int() alone reads both as 2
                                  "level,rank\n0,2\n1,0_2\n", "level,rank\n0,2\n1,\u0662\n"])
def test_predict_exit_2_on_a_rank_csv_cell_that_is_no_integer(text, capsys, tmp_path):
    csv_path = tmp_path / "ranks.csv"
    csv_path.write_text(text)
    assert _predict("--ranks-csv", str(csv_path)) == 2
    assert "rank CSV rank" in capsys.readouterr().err


def test_predict_exit_2_on_a_missing_rank_csv(capsys, tmp_path):
    assert _predict("--ranks-csv", str(tmp_path / "absent.csv")) == 2
    assert f"rank CSV {tmp_path / 'absent.csv'}: " in capsys.readouterr().err


def test_predict_exit_2_on_a_non_integer_rank(capsys):
    assert _predict("--ranks", "1,a") == 2
    assert "rank 'a' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("ranks, code", [("1,1_3,\u0665\u0663", 2), (" 1 , 5 ", 0)])
def test_predict_reads_ranks_by_the_presentation_integer_rule(ranks, code, capsys):
    # int() alone reads 1_3 as 13 and Arabic-Indic digits as 53; spaces
    # around an item stay allowed
    assert _predict("--ranks", ranks) == code
    if code:
        assert "rank '1_3' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["٥", "0_5"])
def test_an_integer_option_takes_the_same_rule(p, capsys):
    # argparse's type=int read both as 5
    with pytest.raises(SystemExit) as exited:
        _predict("--ranks", "1,5", "--p", p)
    assert exited.value.code == 2
    assert f"argument --p: value {p!r} is not an integer" in capsys.readouterr().err


def test_predict_exit_2_on_a_non_integer_config_rank(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ranks": ["x"]}))
    assert _predict(config=("--config", str(cfg))) == 2
    assert "rank 'x' is not an integer" in capsys.readouterr().err


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


def test_oracle_over_the_quadratic_ring(capsys, schema):
    # --degree 2 draws the same recipes over O and says so in the summary;
    # the default summary has no such key, and full checks over O are refused
    code, out = run_cli(["oracle", "--p", "5", "--instances", "2", "--seed", "42",
                         "--n-max", "2", "--degree", "2"], capsys)
    doc = json.loads(out)
    validate(doc, schema)
    assert code == 0 and doc["unramified_degree"] == 2 and doc["type_recovery_failures"] == 0
    code, out = run_cli(["oracle", "--p", "5", "--instances", "0"], capsys)
    assert code == 0 and "unramified_degree" not in json.loads(out)
    code, out = run_cli(["oracle", "--p", "5", "--instances", "1", "--degree", "2",
                         "--checks", "full"], capsys)
    assert code == 2 and out == ""


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


def test_classify_text_format_without_an_elementary_fit(capsys, tmp_path):
    # corpus draw 4 over O at n_max 2 has no elementary fit; the text report
    # gives the status, the verdict from the evidence and the evidence itself
    from finemw.oracle import build_elementary, obfuscate, sample_recipe

    recipe = sample_recipe(2024 * 1000003 + 4, 5)
    M = obfuscate(build_elementary(recipe, CoefficientRing(5, 2, 24)),
                  seed=recipe.seed ^ 0x5EED, steps=24)
    path = tmp_path / "draw4.json"
    path.write_text(json.dumps(presentation_to_json(M)))
    args = ["classify", "--file", str(path), "--n-max", "2"]
    code, out = run_cli(args, capsys)
    doc = json.loads(out)
    assert code == 3 and doc["status"] == "no-elementary-fit"
    code, out = run_cli(args + ["--format", "text"], capsys)
    assert code == 3
    assert out.splitlines() == [
        f"status: no-elementary-fit  ({doc['error']})",
        f"torsion-limit vanishes: {doc['g_functor']}",
        f"ranks: {doc['evidence']['ranks']}",
        f"torsion orders: {doc['evidence']['torsion_orders']}",
    ]


def test_classify_text_format_of_a_classified_module(capsys, phi1_file):
    code, out = run_cli(["classify", "--file", phi1_file, "--n-max", "2", "--format", "text"],
                        capsys)
    assert code == 0
    assert out.splitlines() == [
        "free rank: 0",
        "cyclotomic part: Φ_1^1",
        "mu: 0  residual lambda: 0",
        "torsion-limit vanishes: undetermined",
        "ranks: [0, 4, 4]",
        "torsion orders: [1, 0, 0]",
    ]


def test_oracle_rejects_low_precision(capsys):
    code, _ = run_cli(["oracle", "--p", "5", "--instances", "1", "--precision", "2"], capsys)
    assert code == 2


def test_oracle_rejects_overdeep_level(capsys):
    code, _ = run_cli(["oracle", "--p", "5", "--instances", "1", "--n-max", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag, value, field", [
    ("--n-max", "1", "n_max"),
    ("--n-max", "0", "n_max"),
    ("--steps", "-1", "steps"),
])
def test_oracle_refuses_levels_and_steps_it_cannot_run(flag, value, field, capsys, monkeypatch):
    from finemw import oracle

    def no_instance(*args, **kwargs):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(oracle, "run_instance", no_instance)
    code = main(["oracle", "--p", "5", "--instances", "2", "--seed", "3", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert field in captured.err


def test_parser_is_built_once_and_survives_a_refused_call(capsys):
    # main reuses one parser per process: a call that argparse refuses
    # (exit 2) leaves nothing behind for the next one, and --help prints
    # what a freshly built parser prints
    from finemw.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as refused:
        main(["classify", "--file", "x.json", "--n-max", "three"])
    assert refused.value.code == 2
    assert "argument --n-max: value 'three' is not an integer" in capsys.readouterr().err
    code, out = run_cli(["predict", "--setting", "cm_split_cyc", "--ranks", "1,5",
                         "--p", "5", "--rank-kind", "Z"], capsys)
    assert code == 0 and json.loads(out)["growth"] == [1, 1]
    with pytest.raises(SystemExit) as helped:
        main(["--help"])
    assert helped.value.code == 0
    assert capsys.readouterr().out == build_parser.__wrapped__().format_help()
