"""Round-trip oracles: build modules of known type, disguise them, re-classify.

A recipe pins the ground truth (free rank, cyclotomic multiplicities, p-power
part, residual factors).  ``build_elementary`` realizes it as a block-diagonal
presentation, ``obfuscate`` applies random elementary row and column
operations over Lambda (exact isomorphisms, so the ground truth is preserved
on the nose), and the suite checks that classification recovers the recipe.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass, field

from .errors import FinemwError, ResourceLimitError, ValidationError
from .padics import CoefficientRing
from .polynomials import IwasawaPoly, cyclotomic, default_max_level, omega, weierstrass_divide
from .presentations import ModulePresentation, presentation_to_json
from .structure import (
    ElementaryType,
    TowerSpec,
    analyze,
    verify_finite_quotients,
    verify_rank_identity,
)

GENERATOR_BUDGET = 4  # keeps level-n_max expansions to a few hundred rows


class VerdictContradiction(FinemwError):
    """A decided torsion-limit verdict disagrees with the recipe's ground truth."""


#: Non-cyclotomic distinguished factors of degree <= 2, as integer coefficient
#: rows (constant first) in the prime p.  All have roots of valuation >= 1/2,
#: so their coinvariant torsion grows exactly linearly in the level.
EXTRA_FACTOR_CATALOG = {
    "T-p": lambda p: [-p, 1],
    "T+p": lambda p: [p, 1],
    "T^2-p": lambda p: [-p, 0, 1],
    "T^2+pT+p": lambda p: [p, p, 1],
}


@dataclass
class ConstructionRecipe:
    """Ground truth for one generated instance."""

    seed: int
    free_rank: int = 0
    cyclo_multiplicities: dict = field(default_factory=dict)
    mu_summands: list = field(default_factory=list)  # exponents k for Lambda/p^k
    extra_factors: list = field(default_factory=list)  # catalog keys
    finite_summands: list = field(default_factory=list)  # k for Lambda/(p, T^k)

    @property
    def mu(self) -> int:
        return sum(self.mu_summands)

    @property
    def residual_lambda(self) -> int:
        return sum(len(EXTRA_FACTOR_CATALOG[name](5)) - 1 for name in self.extra_factors)

    @property
    def block_count(self) -> int:
        return (self.free_rank + sum(self.cyclo_multiplicities.values())
                + len(self.mu_summands) + len(self.extra_factors)
                + len(self.finite_summands))

    def expected_type(self) -> ElementaryType:
        verdict = "yes" if (self.mu == 0 and self.residual_lambda == 0) else "no"
        return ElementaryType(self.free_rank, dict(self.cyclo_multiplicities),
                              self.mu, self.residual_lambda, verdict)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "free_rank": self.free_rank,
            "cyclo_multiplicities": {str(k): v for k, v in sorted(self.cyclo_multiplicities.items())},
            "mu_summands": list(self.mu_summands),
            "extra_factors": list(self.extra_factors),
            "finite_summands": list(self.finite_summands),
        }


def build_elementary(recipe: ConstructionRecipe, ring: CoefficientRing) -> ModulePresentation:
    """Block-diagonal presentation realizing the recipe exactly."""
    if recipe.block_count > GENERATOR_BUDGET:
        raise ResourceLimitError(
            f"recipe needs {recipe.block_count} generators > budget {GENERATOR_BUDGET}")
    p = ring.prime
    diag = []  # single-relation blocks
    for level in sorted(recipe.cyclo_multiplicities):
        for _ in range(recipe.cyclo_multiplicities[level]):
            diag.append(cyclotomic(ring, level))
    for k in recipe.mu_summands:
        diag.append(IwasawaPoly.constant(ring, p**k))
    for name in recipe.extra_factors:
        diag.append(IwasawaPoly.from_ints(ring, EXTRA_FACTOR_CATALOG[name](p)))
    g = recipe.free_rank + len(diag) + len(recipe.finite_summands)
    zero = IwasawaPoly(ring, [])
    ncols = len(diag) + 2 * len(recipe.finite_summands)
    rows = [[zero] * ncols for _ in range(g)]
    for j, f in enumerate(diag):
        rows[recipe.free_rank + j][j] = f
    base = recipe.free_rank + len(diag)
    for i, k in enumerate(recipe.finite_summands):
        rows[base + i][len(diag) + 2 * i] = IwasawaPoly.constant(ring, p)
        rows[base + i][len(diag) + 2 * i + 1] = IwasawaPoly.from_ints(ring, [0] * k + [1])
    return ModulePresentation(ring, g, rows)


def _random_lambda_poly(rng, ring):
    """Random polynomial entry of degree <= 2 for an elementary operation (valuation >= 0)."""
    p = ring.prime
    deg = rng.randrange(0, 3)
    coeffs = [rng.randrange(0, 2 * p) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return IwasawaPoly.from_ints(ring, coeffs)


def _random_unit_poly(rng, ring):
    p = ring.prime
    deg = rng.randrange(0, 3)
    coeffs = [rng.randrange(0, 2 * p) for _ in range(deg + 1)]
    coeffs[0] = rng.randrange(1, p)  # unit constant term
    return IwasawaPoly.from_ints(ring, coeffs)


def obfuscate(M: ModulePresentation, seed: int, steps: int,
              reduce_cap: int | None = None) -> ModulePresentation:
    """Apply `steps` random elementary row/column operations over Lambda.

    Operations are exactly invertible (adds of polynomial multiples, swaps,
    unit scalings), so the cokernel is unchanged up to isomorphism, not merely
    pseudo-isomorphism.  With ``reduce_cap`` set, entries are reduced modulo
    omega_{reduce_cap} afterwards and the presentation carries that level cap.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    ring = M.ring
    rows = [list(r) for r in M.relations]
    g = M.generators
    c = M.num_relations
    if steps == 0:
        return ModulePresentation(ring, g, rows, M.level_cap)
    rng = random.Random(seed)
    for _ in range(steps):
        kind = rng.choice(("row_add", "col_add", "row_add", "col_add",
                           "row_swap", "col_swap", "row_unit", "col_unit"))
        if kind == "row_add" and g >= 2:
            i, k = rng.sample(range(g), 2)
            lam = _random_lambda_poly(rng, ring)
            rows[i] = [a + lam * b for a, b in zip(rows[i], rows[k])]
        elif kind == "col_add" and c >= 2:
            j, k = rng.sample(range(c), 2)
            lam = _random_lambda_poly(rng, ring)
            for row in rows:
                row[j] = row[j] + lam * row[k]
        elif kind == "row_swap" and g >= 2:
            i, k = rng.sample(range(g), 2)
            rows[i], rows[k] = rows[k], rows[i]
        elif kind == "col_swap" and c >= 2:
            j, k = rng.sample(range(c), 2)
            for row in rows:
                row[j], row[k] = row[k], row[j]
        elif kind == "row_unit" and g >= 1:
            i = rng.randrange(g)
            u = _random_unit_poly(rng, ring)
            rows[i] = [u * a for a in rows[i]]
        elif kind == "col_unit" and c >= 1:
            j = rng.randrange(c)
            u = _random_unit_poly(rng, ring)
            for row in rows:
                row[j] = u * row[j]
    cap = M.level_cap
    if reduce_cap is not None:
        w = omega(ring, reduce_cap)
        rows = [[weierstrass_divide(a, w)[1] if a.degree() >= w.degree() else a
                 for a in row] for row in rows]
        cap = reduce_cap if cap is None else min(cap, reduce_cap)
    return ModulePresentation(ring, g, rows, cap)


def sample_recipe(seed: int, p: int, n_max: int | None = None) -> ConstructionRecipe:
    """Draw a recipe within the generator budget.

    Cyclotomic support lives on levels <= 2 with multiplicities <= 2, at most
    two p-power summands with exponent <= 2, at most one residual factor of
    degree <= 2.  With ``n_max`` set, support drawn at levels >= n_max, which
    levels 0..n_max cannot tell apart from free rank, is dropped after the
    draws.  Degenerate draws fall back to a single cyclotomic block.
    """
    rng = random.Random(seed)
    budget = GENERATOR_BUDGET
    free_rank = rng.choice((0, 0, 0, 1, 1, 2))
    budget -= free_rank
    s = {}
    for level in (0, 1, 2):
        if budget <= 0:
            break
        if rng.random() < 0.45:
            cnt = min(rng.choice((1, 1, 2)), budget, 2)
            if cnt:
                s[level] = cnt
                budget -= cnt
    mu_summands = []
    while budget > 0 and len(mu_summands) < 2 and rng.random() < 0.3:
        mu_summands.append(rng.choice((1, 1, 2)))
        budget -= 1
    extras = []
    if budget > 0 and rng.random() < 0.3:
        extras.append(rng.choice(sorted(EXTRA_FACTOR_CATALOG)))
        budget -= 1
    if n_max is not None:
        s = {level: cnt for level, cnt in s.items() if level < n_max}
    if free_rank == 0 and not s and not mu_summands and not extras:
        s[rng.choice((0, 1))] = 1
    return ConstructionRecipe(seed=seed, free_rank=free_rank, cyclo_multiplicities=s,
                              mu_summands=mu_summands, extra_factors=extras)


def run_instance(p: int, n_max: int, seed: int, steps: int = 24,
                 precision: int = 24, checks: str = "classify",
                 recipe: ConstructionRecipe | None = None, degree: int = 1) -> dict:
    """Build, obfuscate and classify one instance over the ring of unramified ``degree``.

    ``checks="classify"`` runs the type-recovery round trip only; ``"full"``
    additionally verifies the rank identity and the finite-quotient component
    multiplicities wherever their hypotheses hold.  A "yes" or "no"
    torsion-limit verdict that contradicts the recipe fails the instance.
    """
    ring = CoefficientRing(p, degree, precision)
    if recipe is None:
        recipe = sample_recipe(seed, p, n_max)
    record = {"seed": seed, "recipe": recipe.as_dict(), "status": "pass", "checks": {}}
    try:
        M = obfuscate(build_elementary(recipe, ring), seed=seed ^ 0x5EED, steps=steps)
        truth = recipe.expected_type()
        full = checks == "full"
        analysis = analyze(M, n_max)
        etype = analysis.classify()
        record["type"] = etype.as_dict()
        record["g_functor"] = etype.g_functor_vanishes
        record["evidence"] = {"ranks": list(analysis.ranks),
                              "torsion_orders": list(analysis.torsion_orders)}
        recovered = (etype.free_rank == truth.free_rank
                     and etype.cyclo_multiplicities == truth.cyclo_multiplicities
                     and etype.mu == truth.mu
                     and etype.residual_lambda == truth.residual_lambda)
        record["checks"]["type_recovery"] = "pass" if recovered else "fail"
        if full:
            if etype.g_functor_vanishes == "yes":
                rep = verify_rank_identity(M, n_max, analysis=analysis)
                record["checks"]["rank_identity"] = rep["verdict"]
            if truth.free_rank == 0:
                for sel in ("zero", "full-torsion", "random-subgroup"):
                    rep = verify_finite_quotients(TowerSpec(M, sel, seed=seed),
                                                  n_max, expected=truth,
                                                  analysis=analysis)
                    record["checks"][f"finite_quotients[{sel}]"] = rep["verdict"]
        verdict = etype.g_functor_vanishes
        if verdict in ("yes", "no") and verdict != truth.g_functor_vanishes:
            raise VerdictContradiction(
                f"torsion-limit verdict {verdict!r} contradicts the recipe's "
                f"{truth.g_functor_vanishes!r}")
        if any(v == "fail" for v in record["checks"].values()):
            record["status"] = "fail"
        elif etype.g_functor_vanishes == "undetermined":
            record["status"] = "undetermined"
    except Exception as exc:  # noqa: BLE001 - failures are data for the summary
        record["status"] = "fail"
        record["error"] = f"{type(exc).__name__}: {exc}"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        record["error_at"] = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    if record["status"] == "fail":
        # dump the disguised presentation so the failure replays standalone
        try:
            record["presentation"] = presentation_to_json(
                obfuscate(build_elementary(recipe, ring), seed=seed ^ 0x5EED, steps=steps))
        except Exception:  # noqa: BLE001 - the recipe itself may be the failure
            pass
    return record


def _worker(args):
    p, n_max, seed, steps, precision, checks, degree = args
    return run_instance(p, n_max, seed, steps=steps, precision=precision, checks=checks,
                        degree=degree)


def roundtrip_suite(p: int, instances: int, n_max: int | None = None, seed: int = 0,
                    steps: int = 24, precision: int = 24, jobs: int | None = None,
                    checks: str = "classify", degree: int = 1) -> dict:
    """Generate, disguise and re-classify `instances` random modules.

    The summary is deterministic for fixed (p, instances, n_max, seed, steps,
    precision, checks, degree) regardless of worker count or completion
    order.  Over the quadratic ring (``degree`` 2) it says so
    (``unramified_degree``) and runs the classify checks only: the full
    checks' torsion bases come from tracked reductions over Z_p.
    """
    if instances < 0:
        raise ValidationError("instances must be >= 0")
    if checks not in ("classify", "full"):
        raise ValidationError("checks must be 'classify' or 'full'")
    if degree not in (1, 2):
        raise ValidationError(f"unramified degree must be 1 or 2, got {degree}")
    if degree == 2 and checks == "full":
        raise ValidationError("full checks over the quadratic ring are not supported")
    if n_max is None:
        n_max = default_max_level(p)
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    arglist = [(p, n_max, seed * 1_000_003 + idx, steps, precision, checks, degree)
               for idx in range(instances)]
    if jobs and jobs > 1 and instances > 1:
        # imported here: the worker pool's modules cost every other command
        # about 1 MB of resident memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, arglist, chunksize=2))
    else:
        records = [_worker(a) for a in arglist]
    summary = {
        "p": p,
        "n_max": n_max,
        "instances": instances,
        "seed": seed,
        "obfuscation_steps": steps,
        "precision": precision,
        "checks": checks,
        "passes": sum(1 for r in records if r["status"] == "pass"),
        "failures": sum(1 for r in records if r["status"] == "fail"),
        "undetermined": sum(1 for r in records if r["status"] == "undetermined"),
        "type_recovery_failures": sum(
            1 for r in records if r.get("checks", {}).get("type_recovery") == "fail"),
        "failing_seeds": [r["seed"] for r in records if r["status"] == "fail"],
        "records": records,
    }
    if degree == 2:
        summary["unramified_degree"] = degree
    return summary
