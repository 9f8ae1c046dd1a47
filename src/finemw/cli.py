"""Command-line entry points: predict, classify, verify, oracle.

Exit codes: 0 success, 1 oracle-suite failures, 2 invalid input, 3 theorem
hypothesis violated by the data, 4 resource budget exceeded, 5 level data not
certified at its working precision (classification refused).  All reports are
deterministic for fixed inputs and seeds (sorted keys, no timestamps) and can
be emitted as JSON or text.  File writes go through a temp-file rename.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import dataclass

from .errors import (
    ClassificationError,
    FinemwError,
    HypothesisError,
    InvalidRankTableError,
    ResourceLimitError,
    SettingError,
    UncertifiedError,
    ValidationError,
)
from .oracle import roundtrip_suite
from .polynomials import default_max_level, hard_max_level
from .predictors import (
    RankTable,
    SettingTag,
    anticyclotomic_parity_check,
    growth_sequence,
    predict,
    question_report,
    resolve_setting,
    SETTING_KIND,
    SETTING_OBJECT,
)
from .presentations import presentation_from_json
from .structure import TowerSpec, analyze, verify_finite_quotients, verify_rank_identity

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_SUITE_FAILURES = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_RESOURCE = 4
EXIT_UNCERTIFIED = 5


@dataclass(frozen=True)
class SessionConfig:
    """Validated per-invocation settings shared by the subcommands."""

    p: int = 5
    precision: int = 24
    n_max: int | None = None
    seed: int = 0
    output_format: str = "json"

    def __post_init__(self):
        if self.p < 5:
            raise ValidationError(f"prime must be >= 5, got {self.p}")
        if self.precision < 4:
            raise ValidationError(f"precision exponent must be >= 4, got {self.precision}")
        if self.output_format not in ("json", "text"):
            raise ValidationError(f"unknown output format {self.output_format!r}")
        if self.n_max is not None and self.n_max > hard_max_level(self.p):
            raise ValidationError(
                f"n_max {self.n_max} beyond the budget for p = {self.p} "
                f"(max {hard_max_level(self.p)})")


def _emit(doc, args):
    payload = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    if getattr(args, "format", "json") == "text":
        payload = _render_text(doc) + "\n"
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, payload)
    else:
        sys.stdout.write(payload)


def _atomic_write(path, payload):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".finemw-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_text(doc) -> str:
    kind = doc.get("kind")
    lines = []
    if kind == "predict":
        lines.append(f"p = {doc['p']}  setting = {doc['setting']}")
        lines.append(f"ranks ({doc['rank_kind']}): {doc['ranks']}")
        lines.append(f"growth {doc['growth_kind']}: {doc['growth']}")
        lines.append(f"object: {doc['object']}")
        lines.append(f"prediction ({doc['status']}): {doc['prediction']['text']}")
        conj = doc.get("conjectural")
        if conj:
            lines.append(f"conjectural char ideal of {conj['object']}: "
                         f"{conj['prediction']['text']}")
        for note in doc.get("notes", []):
            lines.append(f"note: {note}")
    elif kind == "classify":
        t = doc["type"]
        mults = t["cyclo_multiplicities"]
        prod = "·".join(f"Φ_{n}^{m}" for n, m in sorted(mults.items(), key=lambda x: int(x[0])))
        lines.append(f"free rank: {t['free_rank']}")
        lines.append(f"cyclotomic part: {prod or '1'}")
        lines.append(f"mu: {t['mu']}  residual lambda: {t['residual_lambda']}")
        lines.append(f"torsion-limit vanishes: {t['g_functor_vanishes']}")
        lines.append(f"ranks: {doc['evidence']['ranks']}")
        lines.append(f"torsion orders: {doc['evidence']['torsion_orders']}")
    elif kind == "verify":
        for check in doc["checks"]:
            line = f"{check['name']}: {check['verdict']}"
            if check.get("selector"):
                line = f"{check['name']}[{check['selector']}]: {check['verdict']}"
            if check.get("reason"):
                line += f"  ({check['reason']})"
            lines.append(line)
        lines.append(f"verdict: {doc['verdict']}")
    elif kind == "oracle":
        lines.append(f"p = {doc['p']}  instances = {doc['instances']}  seed = {doc['seed']}")
        lines.append(f"passes: {doc['passes']}  failures: {doc['failures']}  "
                     f"undetermined: {doc['undetermined']}")
        if doc["failing_seeds"]:
            lines.append(f"failing seeds: {doc['failing_seeds']}")
    else:
        lines.append(json.dumps(doc, sort_keys=True, ensure_ascii=True))
    return "\n".join(lines)


def _load_config(args):
    path = getattr(args, "config", None) or os.environ.get("FINEMW_CONFIG")
    if not path:
        return {}
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    return doc


def _read_ranks(args, config):
    if args.ranks and args.ranks_csv:
        raise ValidationError("give either --ranks or --ranks-csv, not both")
    if args.ranks_csv:
        levels = {}
        with open(args.ranks_csv, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["level", "rank"]:
                raise ValidationError("rank CSV needs the header 'level,rank'")
            for row in reader:
                levels[int(row["level"])] = int(row["rank"])
        if not levels or sorted(levels) != list(range(max(levels) + 1)):
            raise ValidationError("rank CSV must cover contiguous levels starting at 0")
        return [levels[n] for n in sorted(levels)]
    raw = args.ranks if args.ranks is not None else config.get("ranks")
    if raw is None:
        raise ValidationError("no ranks given (use --ranks or --ranks-csv)")
    if isinstance(raw, str):
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    return [int(x) for x in raw]


def cmd_predict(args) -> int:
    config = _load_config(args)
    p = args.p if args.p is not None else config.get("p")
    if p is None:
        raise ValidationError("missing --p")
    ranks = _read_ranks(args, config)
    rank_kind = args.rank_kind or config.get("rank_kind", "Z")
    setting = resolve_setting(args.setting, args.root_number)
    kind = SETTING_KIND[setting]
    table = RankTable(int(p), tuple(ranks), rank_kind)
    growth = growth_sequence(table, kind)
    prediction = predict(setting, growth)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "predict",
        "p": table.p,
        "setting": setting.value,
        "rank_kind": table.rank_kind,
        "ranks": list(table.values),
        "growth": list(growth.values),
        "growth_kind": growth.kind,
        "object": SETTING_OBJECT[setting][0],
        "status": "proven-shape",
        "prediction": prediction.as_dict(),
        "notes": [],
    }
    if args.question:
        q = question_report(setting, growth)
        doc["conjectural"] = {
            "object": q["object"],
            "prediction": q["prediction"],
            "status": q["status"],
        }
        doc["notes"].extend(q["notes"])
    if setting in (SettingTag.CM_INERT_ANTICYC,) and args.parity_check:
        doc["parity_check"] = anticyclotomic_parity_check(growth)
    _emit(doc, args)
    return EXIT_OK


def _load_presentation(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"presentation file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    return presentation_from_json(doc)


def cmd_classify(args) -> int:
    M = _load_presentation(args.file)
    n_max = args.n_max if args.n_max is not None else default_max_level(M.ring.prime)
    analysis = analyze(M, n_max)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "classify",
        "p": M.ring.prime,
        "n_max": n_max,
        "evidence": analysis.evidence(),
    }
    try:
        etype = analysis.classify()
        doc["type"] = etype.as_dict()
        doc["status"] = "ok"
    except ClassificationError as exc:
        doc["status"] = "no-elementary-fit"
        doc["error"] = str(exc)
        doc["g_functor"] = analysis.verdict_without_classification()
        _emit(doc, args)
        return EXIT_HYPOTHESIS
    _emit(doc, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    M = _load_presentation(args.file)
    n_max = args.n_max if args.n_max is not None else default_max_level(M.ring.prime)
    analysis = analyze(M, n_max)
    checks = []
    rank_rep = verify_rank_identity(M, n_max, analysis=analysis)
    checks.append(rank_rep)
    try:
        etype = analysis.classify()
    except ClassificationError as exc:
        etype = None
        checks.append({"name": "finite_quotients", "verdict": "skipped",
                       "reason": f"no elementary classification: {exc}"})
    if etype is not None:
        if etype.free_rank != 0:
            checks.append({"name": "finite_quotients", "verdict": "skipped",
                           "reason": "module is not torsion (free rank > 0)"})
        elif etype.g_functor_vanishes == "no":
            checks.append({
                "name": "finite_quotients", "verdict": "skipped",
                "reason": "torsion limit does not vanish: warning-class module "
                          "whose fine part is zero while the module is not"})
        else:
            for sel in ("zero", "full-torsion", "random-subgroup"):
                rep = verify_finite_quotients(TowerSpec(M, sel, seed=args.seed),
                                              n_max, expected=etype, analysis=analysis)
                rep["selector"] = sel
                checks.append(rep)
    failed = [c for c in checks if c["verdict"] == "fail"]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "p": M.ring.prime,
        "n_max": n_max,
        "checks": checks,
        "verdict": "fail" if failed else "pass",
    }
    _emit(doc, args)
    return EXIT_SUITE_FAILURES if failed else EXIT_OK


def cmd_oracle(args) -> int:
    config = SessionConfig(p=args.p, precision=args.precision, n_max=args.n_max,
                           seed=args.seed, output_format=args.format)
    summary = roundtrip_suite(config.p, args.instances, n_max=config.n_max,
                              seed=config.seed, steps=args.steps,
                              precision=config.precision, jobs=args.jobs,
                              checks=args.checks)
    doc = dict(summary)
    doc["schema_version"] = SCHEMA_VERSION
    doc["kind"] = "oracle"
    if not args.records:
        doc.pop("records")
    _emit(doc, args)
    return EXIT_OK if summary["failures"] == 0 else EXIT_SUITE_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finemw",
        description="Exact Iwasawa-module structure tools and Mordell-Weil "
                    "rank-growth predictors.")
    parser.add_argument("--config", help="JSON config file (or set FINEMW_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("predict", help="rank table -> predicted characteristic ideal")
    pr.add_argument("--setting", required=True,
                    help="one of: " + ", ".join(sorted(t.value for t in SettingTag))
                    + ", or cm_split_anticyc with --root-number")
    pr.add_argument("--p", type=int)
    pr.add_argument("--ranks", help="comma-separated ranks for levels 0..n")
    pr.add_argument("--ranks-csv", help="CSV file with header 'level,rank'")
    pr.add_argument("--rank-kind", choices=["Z", "O"])
    pr.add_argument("--root-number", choices=["+1", "-1"])
    pr.add_argument("--question", action="store_true",
                    help="include the conjectural characteristic ideal of the full dual")
    pr.add_argument("--parity-check", action="store_true")
    pr.add_argument("--format", choices=["json", "text"], default="json")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_predict)

    cl = sub.add_parser("classify", help="presentation file -> elementary type")
    cl.add_argument("--file", required=True)
    cl.add_argument("--n-max", type=int, dest="n_max")
    cl.add_argument("--format", choices=["json", "text"], default="json")
    cl.add_argument("--out")
    cl.set_defaults(func=cmd_classify)

    ve = sub.add_parser("verify", help="run structure verifiers on a presentation")
    ve.add_argument("--file", required=True)
    ve.add_argument("--n-max", type=int, dest="n_max")
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--format", choices=["json", "text"], default="json")
    ve.add_argument("--out")
    ve.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="round-trip classification suite")
    orc.add_argument("--p", type=int, required=True)
    orc.add_argument("--instances", type=int, required=True)
    orc.add_argument("--n-max", type=int, dest="n_max")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--steps", type=int, default=24)
    orc.add_argument("--precision", type=int, default=24)
    orc.add_argument("--jobs", type=int)
    orc.add_argument("--checks", choices=["classify", "full"], default="classify")
    orc.add_argument("--records", action="store_true", help="include per-instance records")
    orc.add_argument("--format", choices=["json", "text"], default="json")
    orc.add_argument("--out")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InvalidRankTableError, SettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ClassificationError as exc:
        print(f"classification error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except UncertifiedError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except FinemwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
