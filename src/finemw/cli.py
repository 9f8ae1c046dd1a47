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
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass

from .errors import (
    ClassificationError,
    FinemwError,
    HypothesisError,
    ResourceLimitError,
    UncertifiedError,
    ValidationError,
)
from .oracle import roundtrip_suite
from .polynomials import char_ideal_render, hard_max_level
from .predictors import (
    SETTINGS,
    RankTable,
    SettingTag,
    anticyclotomic_parity_check,
    growth_sequence,
    predict,
    question_report,
    resolve_setting,
)
from .presentations import parse_integer, presentation_from_json
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
        t = doc.get("type")
        if t is None:  # no elementary fit: the verdict comes from the evidence alone
            lines.append(f"status: {doc['status']}  ({doc['error']})")
            lines.append(f"torsion-limit vanishes: {doc['g_functor']}")
        else:
            factors = [(int(n), m) for n, m in t["cyclo_multiplicities"].items()]
            lines.append(f"free rank: {t['free_rank']}")
            lines.append(f"cyclotomic part: {char_ideal_render(factors, expand=False).text}")
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


def _read_input(path, what, read):
    """read(handle) of the UTF-8 text file ``path``; a bad file is a ValidationError."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return read(handle)
    except OSError as exc:
        raise ValidationError(f"{what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what} {path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from None


def _load_config(args):
    path = getattr(args, "config", None) or os.environ.get("FINEMW_CONFIG")
    if not path:
        return {}
    doc = _read_input(path, "config file", json.load)
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    return doc


def _read_ranks(args, config):
    if args.ranks and args.ranks_csv:
        raise ValidationError("give either --ranks or --ranks-csv, not both")
    if args.ranks_csv:
        rows = _read_input(args.ranks_csv, "rank CSV", lambda handle: list(csv.reader(handle)))
        if not rows or [f.strip() for f in rows[0]] != ["level", "rank"]:
            raise ValidationError("rank CSV needs the header 'level,rank'")
        levels = {}
        for row in filter(None, rows[1:]):  # a blank line reads as []
            level, rank = (row + [None])[:2]
            levels[_integer(level, "rank CSV level")] = _integer(rank, "rank CSV rank")
        if not levels or sorted(levels) != list(range(max(levels) + 1)):
            raise ValidationError("rank CSV must cover contiguous levels starting at 0")
        return [levels[n] for n in sorted(levels)]
    raw = args.ranks if args.ranks is not None else config.get("ranks")
    if raw is None:
        raise ValidationError("no ranks given (use --ranks or --ranks-csv)")
    if isinstance(raw, str):
        raw = [x for x in raw.split(",") if x.strip() != ""]
    if not isinstance(raw, list):
        raise ValidationError(f"ranks {raw!r} are not a list")
    return [_integer(x, "rank") for x in raw]


def _integer(value, name):
    """An integer from a comma list, a CSV cell or a config (``parse_integer``).

    Spaces around a string are allowed; an empty or missing cell is refused.
    """
    return parse_integer(value.strip() if isinstance(value, str) else value, name)


def _option_integer(text):
    """An integer option (``_integer``); argparse exits 2 on a refusal."""
    try:
        return _integer(text, "value")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_predict(args) -> int:
    config = _load_config(args)
    p = args.p if args.p is not None else config.get("p")
    if p is None:
        raise ValidationError("missing --p")
    ranks = _read_ranks(args, config)
    rank_kind = args.rank_kind or config.get("rank_kind", "Z")
    setting = resolve_setting(args.setting, args.root_number)
    record = SETTINGS[setting]
    table = RankTable(_integer(p, "p"), tuple(ranks), rank_kind)
    growth = growth_sequence(table, record.kind)
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
        "object": record.object,
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
    if record.parity_check and args.parity_check:
        doc["parity_check"] = anticyclotomic_parity_check(growth)
    _emit(doc, args)
    return EXIT_OK


def _load_presentation(path):
    return presentation_from_json(_read_input(path, "presentation file", json.load))


def cmd_classify(args) -> int:
    M = _load_presentation(args.file)
    analysis = analyze(M, args.n_max)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "classify",
        "p": M.ring.prime,
        "n_max": analysis.n_max,
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
    analysis = analyze(M, args.n_max)
    checks = []
    rank_rep = verify_rank_identity(M, analysis=analysis)
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
                                              expected=etype, analysis=analysis)
                rep["selector"] = sel
                checks.append(rep)
    failed = [c for c in checks if c["verdict"] == "fail"]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "p": M.ring.prime,
        "n_max": analysis.n_max,
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
                              checks=args.checks, degree=args.degree)
    doc = dict(summary)
    doc["schema_version"] = SCHEMA_VERSION
    doc["kind"] = "oracle"
    if not args.records:
        doc.pop("records")
    _emit(doc, args)
    return EXIT_OK if summary["failures"] == 0 else EXIT_SUITE_FAILURES


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it formats every help string once (about 1 ms); parsing leaves
    it unchanged, so ``main`` reuses it for every call in a process.
    """
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
    pr.add_argument("--p", type=_option_integer)
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
    cl.add_argument("--n-max", type=_option_integer, dest="n_max")
    cl.add_argument("--format", choices=["json", "text"], default="json")
    cl.add_argument("--out")
    cl.set_defaults(func=cmd_classify)

    ve = sub.add_parser("verify", help="run structure verifiers on a presentation")
    ve.add_argument("--file", required=True)
    ve.add_argument("--n-max", type=_option_integer, dest="n_max")
    ve.add_argument("--seed", type=_option_integer, default=0)
    ve.add_argument("--format", choices=["json", "text"], default="json")
    ve.add_argument("--out")
    ve.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="round-trip classification suite")
    orc.add_argument("--p", type=_option_integer, required=True)
    orc.add_argument("--instances", type=_option_integer, required=True)
    orc.add_argument("--n-max", type=_option_integer, dest="n_max")
    orc.add_argument("--seed", type=_option_integer, default=0)
    orc.add_argument("--steps", type=_option_integer, default=24)
    orc.add_argument("--precision", type=_option_integer, default=24)
    orc.add_argument("--jobs", type=_option_integer)
    orc.add_argument("--checks", choices=["classify", "full"], default="classify")
    orc.add_argument("--degree", type=_option_integer, choices=[1, 2], default=1,
                     help="unramified degree of the coefficient ring (2: classify checks only)")
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
    except ValidationError as exc:
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
