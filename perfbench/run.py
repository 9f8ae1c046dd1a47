#!/usr/bin/env python3
"""finemw benchmark: end-to-end runs of the CLI with every report checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload classify_p7 --seed 0 --seconds 45 --trace 0

Each workload runs one ``finemw`` command (``finemw.cli.main`` in process, one
command in flight, a closed loop) over presentation files generated from the
seed; see ``workloads.py`` for the workloads and their inputs.  Every report
is validated against ``src/finemw/schemas/report.schema.json`` and scored
against its recipe's ground truth.

``--trace 0`` repeats the module set while ``--seconds`` allow (at least once)
and reports the end-to-end metrics: ``wall_s`` (time to the checked solution
of the whole set: the sum over modules of each module's median time across
passes, which damps slow phases of a shared machine), ``setup_s`` (the
median of seven set-up rounds, each a fresh interpreter that imports finemw,
writes the inputs and runs a warm-up command), ``peak_rss_mb`` and the
ground-truth rates.  ``--trace 1`` runs the set once untraced and twice with
the layer wrappers of ``spans.py`` installed, reports the per-layer metrics,
checks that the deterministic counts repeat exactly, and writes the spans to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.

Standard output ends with two JSON lines: the details (machine and input
fingerprints, rates with their bases, per-module outcomes) and the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans  # sibling modules: this script's directory is first on sys.path
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"

SETUP_ROUNDS = 7
TRACED_PASSES = 2
DEFAULT_SEED = 0


@dataclass
class Outcome:
    seconds: float
    code: object
    stdout: str
    stderr: str
    error: object  # "Type: message (file:line)" when the command raised


def import_program():
    """Import finemw from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "finemw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no finemw sources under {src}")
    sys.path.insert(0, str(src))
    import finemw
    import finemw.cli

    if Path(finemw.__file__).resolve().parent != (src / "finemw").resolve():
        sys.exit(f"perfbench: imported finemw from {finemw.__file__}, not from {src}")
    return finemw


def schema_validator():
    import jsonschema

    with open(ROOT / "src" / "finemw" / "schemas" / "report.schema.json") as handle:
        schema = json.load(handle)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def run_command(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a raised command is a counted failure, not a benchmark crash
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        error = f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"
    seconds = time.perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), error)


def run_pass(finemw, workload, modules, tracer=None):
    outcomes = []
    for module in modules:
        argv = workloads.argv_for(workload, module.path)
        if tracer is None:
            outcomes.append(run_command(finemw.cli, argv))
        else:
            outcomes.append(tracer.command(module.index,
                                           lambda: run_command(finemw.cli, argv)))
    return outcomes


def setup(finemw, workload, seed, workdir):
    """Time SETUP_ROUNDS fresh set-ups, then generate the inputs in process.

    Returns the modules, their fingerprint, the median set-up round and the
    in-process generation time.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_round.py"), workload.name,
                        str(seed), str(workdir)], check=True, timeout=120)
        rounds.append(time.perf_counter() - start)
    start = time.perf_counter()
    modules, fingerprint = workloads.generate(finemw, workload, seed, workdir)
    generate_s = time.perf_counter() - start
    return modules, fingerprint, statistics.median(rounds), generate_s


# ---------------------------------------------------------------------------
# fingerprints


def _blas():
    import numpy

    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["env_threads"] = {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                break
    return info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256():
    digest = hashlib.sha256()
    src = ROOT / "src" / "finemw"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine(finemw):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "numba": importlib.util.find_spec("numba") is not None,
        "smith_kernel": "_snf_i64" if finemw._kernels.HAVE_NUMBA else "_snf_i64_numpy",
        "precision": workloads.PRECISION,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def input_fingerprint(workload, seed, fingerprint):
    reference = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    ref = reference["workloads"].get(workload.name, {})
    doc = dict(fingerprint, seed=seed)
    doc["recipes_match_reference"] = fingerprint["recipes_sha256"] == ref.get("recipes_sha256")
    doc["inputs_match_reference"] = (fingerprint["inputs_sha256"] == ref.get("inputs_sha256")
                                     if seed == reference["default_seed"] else None)
    if doc["recipes_match_reference"] is False or doc["inputs_match_reference"] is False:
        print("perfbench: generated inputs differ from perfbench/fingerprints.json; "
              "timings are not comparable with runs on the reference inputs", file=sys.stderr)
    return doc


# ---------------------------------------------------------------------------
# scoring


def score_passes(workload, modules, passes, validator):
    """Score every outcome; later passes must repeat the first pass's report bytes."""
    scored = []
    for number, outcomes in enumerate(passes):
        for module, outcome, first in zip(modules, outcomes, passes[0]):
            result = workloads.score(workload, module, outcome, validator)
            if number and (outcome.stdout, outcome.code) != (first.stdout, first.code):
                result["problems"].append(f"pass {number} report differs from pass 0")
                result["failed"] = result["wrong"] = True
            scored.append(result)
    return scored


def rates(workload, first_pass):
    """Ground-truth rates over the modules of one pass, each with its base."""
    n = len(first_pass)
    identifiable = [r for r in first_pass if r["identifiable"]]
    failed = sum(r["failed"] for r in first_pass)
    recovered = sum(bool(r["recovered"]) for r in identifiable)
    undetermined = sum(r["verdict"] == "undetermined" for r in first_pass)
    decided = sum(r["verdict"] in ("yes", "no") for r in first_pass)
    doc = {
        "error_rate": {"value": failed / n, "failed": failed, "modules": n},
        "type_recovery_rate": {"value": recovered / len(identifiable) if identifiable else 0.0,
                               "recovered": recovered, "identifiable": len(identifiable)},
        "verdict_contradictions": {"value": sum(r["contradiction"] for r in first_pass),
                                   "decided": decided},
        "undetermined_rate": {"value": undetermined / n, "undetermined": undetermined,
                              "modules": n},
        "decided_rate": {"value": decided / n, "decided": decided, "modules": n},
    }
    if workload.command == "verify":
        run = sum(r["checks_run"] for r in first_pass)
        passed = sum(r["checks_passed"] for r in first_pass)
        doc["check_pass_rate"] = {"value": passed / run if run else 0.0, "passed": passed,
                                  "run": run,
                                  "skipped": sum(r["checks_skipped"] for r in first_pass)}
    return doc


# ---------------------------------------------------------------------------
# modes


def measure(finemw, workload, modules, seconds):
    """Repeat the module set while time allows; at least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        outcomes = run_pass(finemw, workload, modules)
        passes.append(outcomes)
        last = sum(o.seconds for o in outcomes)
        if time.perf_counter() - start + 0.5 * last > seconds:
            return passes


def traced(finemw, workload, modules):
    """One untraced pass, then TRACED_PASSES passes with the wrappers installed."""
    untraced = run_pass(finemw, workload, modules)
    tracer = spans.Tracer(finemw)
    tracer.install()
    bounds, passes = [], []
    try:
        for _ in range(TRACED_PASSES):
            begin = len(tracer.spans)
            passes.append(run_pass(finemw, workload, modules, tracer))
            bounds.append((begin, len(tracer.spans)))
    finally:
        tracer.uninstall()
    return untraced, passes, tracer, bounds


def expected_layers(workload):
    names = ["snf.python", "presentations.level_smith", "presentations.expand",
             "polynomials.weierstrass", "structure.classify", "cli.parse", "cli.emit"]
    if workload.int64_expected:
        names.append("snf.int64")
    if workload.verify_expected:
        names += ["presentations.component_ranks", "structure.verify_fq",
                  "structure.span_closure", "structure.span_add"]
    return names


def layer_report(workload, modules, untraced, tracer, bounds, generate_s):
    per_pass, silent = [], set()
    for begin, end in bounds:
        metrics, calls = spans.layer_metrics(tracer.spans[begin:end], begin, len(modules),
                                             workload.n_max + 1)
        per_pass.append(metrics)
        silent.update(name for name in expected_layers(workload) if not calls.get(name))
    mismatches = [name for name in spans.DETERMINISTIC
                  if len({m[name][0] for m in per_pass}) > 1]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit in ("s", "1/s"):
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    metrics["oracle.generate_s"] = {"value": generate_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"]
                                   - sum(o.seconds for o in untraced), "unit": "s"}
    selfcheck = {"unbound": tracer.missing, "silent_layers": sorted(silent),
                 "count_mismatches": {name: [m[name][0] for m in per_pass]
                                      for name in mismatches}}
    metrics["trace.selfcheck_failures"] = {
        "value": len(tracer.missing) + len(silent) + len(mismatches), "unit": "count"}
    for problem, items in selfcheck.items():
        if items:
            print(f"perfbench: trace self-check: {problem}: {items}", file=sys.stderr)
    return metrics, selfcheck


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    started = time.perf_counter()
    finemw = import_program()
    validator = schema_validator()

    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        modules, fingerprint, setup_round_s, generate_s = setup(finemw, workload, args.seed,
                                                               workdir)
        if args.trace:
            untraced, passes, tracer, bounds = traced(finemw, workload, modules)
            metrics, selfcheck = layer_report(workload, modules, untraced, tracer, bounds,
                                              generate_s)
            passes = [untraced] + passes
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
        else:
            passes = measure(finemw, workload, modules, args.seconds)
            selfcheck = spans_path = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scored = score_passes(workload, modules, passes, validator)
    quality = rates(workload, scored[:len(modules)])
    pass_walls = [sum(o.seconds for o in outcomes) for outcomes in passes]
    if not args.trace:
        metrics = {
            "wall_s": {"value": sum(statistics.median(o.seconds for o in per_module)
                                    for per_module in zip(*passes)), "unit": "s"},
            "setup_s": {"value": setup_round_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "success_rate": {"value": 1.0 - quality["error_rate"]["value"], "unit": "share"},
            "type_recovery_rate": {"value": quality["type_recovery_rate"]["value"],
                                   "unit": "share"},
            "decided_rate": {"value": quality["decided_rate"]["value"], "unit": "share"},
        }
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "pass_wall_s": pass_walls,
        "elapsed_s": time.perf_counter() - started,
        "machine": machine(finemw),
        "inputs": input_fingerprint(workload, args.seed, fingerprint),
        "quality": quality, "trace_selfcheck": selfcheck,
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "modules": scored[:len(modules)],
        "problems": sorted({p for r in scored for p in
                            (f"module {r['module']}: {q}" for q in r["problems"])}),
    }
    print(json.dumps({"perfbench_details": details}, sort_keys=True))
    print(json.dumps({"correct": not any(r["wrong"] for r in scored),
                      "attempted": len(scored),
                      "failed": sum(r["failed"] for r in scored),
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
