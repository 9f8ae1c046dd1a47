"""Classification of presented modules up to pseudo-isomorphism.

The elementary type of a finitely generated torsion-plus-free module is
(r, {s_n}, mu, residual lambda): free rank, cyclotomic multiplicities,
p-power multiplicity and the total degree of non-cyclotomic distinguished
factors.  Everything here is reconstructed from finite-level data:

* free ranks of the coinvariants give r and the s_n through the jump
  identity  rank(M_{Gamma_n}) - rank(M_{Gamma_{n-1}}) = (r + s_n) phi(p^n);
* torsion orders t_n, corrected for the transient contribution p^n of each
  Lambda/Phi_j summand at levels n < j, grow like mu p^n + lambda n + const,
  and the fit on the last three levels must be an exact integer fit.

The vanishing of the limit-of-torsion functor is semi-decided: constant
torsion tails with a clean cyclotomic classification give "yes", strictly
growing tails give "no", anything else stays "undetermined".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import presentations
from ._kernels import to_planes
from .errors import ClassificationError, HypothesisError, UncertifiedError, ValidationError
from .polynomials import IwasawaPoly, phi_degree, default_max_level
from .presentations import (
    ModulePresentation,
    check_component_sum,
    check_level_budget,
    coinvariants,
    phi_component_ranks,
)

YES, NO, UNDETERMINED = "yes", "no", "undetermined"


@dataclass
class ElementaryType:
    """Structure-theorem data recovered from finite levels."""

    free_rank: int
    cyclo_multiplicities: dict
    mu: int
    residual_lambda: int
    g_functor_vanishes: str = UNDETERMINED

    def __post_init__(self):
        self.cyclo_multiplicities = {int(n): int(s) for n, s in self.cyclo_multiplicities.items()
                                     if s}
        if self.g_functor_vanishes == YES and (self.mu or self.residual_lambda):
            raise ValidationError(
                "a vanishing torsion limit forces mu = 0 and residual lambda = 0")

    def multiplicity(self, n: int) -> int:
        return self.cyclo_multiplicities.get(n, 0)

    def as_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "cyclo_multiplicities": {str(n): s for n, s in sorted(self.cyclo_multiplicities.items())},
            "mu": self.mu,
            "residual_lambda": self.residual_lambda,
            "g_functor_vanishes": self.g_functor_vanishes,
        }


@dataclass
class TowerSpec:
    """A presentation together with a finite-submodule selector per level."""

    presentation: ModulePresentation
    selector: str = "zero"  # zero | full-torsion | random-subgroup
    seed: int = 0

    def __post_init__(self):
        if self.selector not in ("zero", "full-torsion", "random-subgroup"):
            raise ValidationError(f"unknown selector {self.selector!r}")


class StructureAnalysis:
    """Per-level coinvariant data for one presentation, computed once.

    The untracked level structures are reduced up front; transform-tracked
    structures and the Phi_j-component ranks are reduced on first use and
    cached, so every verifier sharing the analysis reuses them.
    """

    def __init__(self, M: ModulePresentation, n_max: int):
        if n_max < 2:
            raise ValidationError("structure analysis needs n_max >= 2")
        check_level_budget(M, n_max)  # the largest expansion, refused before any work
        self.presentation = M
        self.n_max = n_max
        self.structures = [coinvariants(M, n) for n in range(n_max + 1)]
        self.ranks = [s.free_rank for s in self.structures]
        self.torsion_orders = [s.torsion_order for s in self.structures]
        self.certified = all(s.certified for s in self.structures)
        self._tracked = {}
        self._phi_ranks = None

    def tracked(self, n: int):
        """Level-n structure with Smith transforms, reduced at most once.

        Submodule selectors draw generators from torsion summands only, so a
        torsion-free level needs no transforms and its untracked structure
        is returned instead.
        """
        structure = self.structures[n]
        if not structure.torsion_exponents:
            return structure
        if n not in self._tracked:
            self._tracked[n] = coinvariants(self.presentation, n, with_transforms=True)
        return self._tracked[n]

    def phi_ranks(self) -> list:
        """Phi_j-component ranks c_0..c_{n_max} of the unquotiented module.

        M/Phi_j M, a g-row matrix over Z_p[T]/Phi_j, does not depend on the
        level n >= j, so one call at n_max serves every level: level n reads
        the prefix c_0..c_n.
        """
        if self._phi_ranks is None:
            self._phi_ranks = presentations.component_ranks_against(self.presentation,
                                                                     self.n_max)
        return self._phi_ranks

    @property
    def p(self):
        return self.presentation.ring.prime

    # -- classification -----------------------------------------------------

    def multiplicities(self):
        """m_n = r + s_n from the rank jumps; errors name the offending level."""
        p = self.p
        ms = [self.ranks[0]]
        for n in range(1, self.n_max + 1):
            jump = self.ranks[n] - self.ranks[n - 1]
            deg = phi_degree(p, n)
            if jump < 0 or jump % deg:
                raise ClassificationError(
                    f"level {n}: rank jump {jump} is not a multiple of {deg}", level=n)
            ms.append(jump // deg)
        return ms

    def classify(self) -> ElementaryType:
        """Fit the elementary type; uncertified level data is refused, not fitted."""
        if not self.certified:
            levels = [s.level for s in self.structures if not s.certified]
            raise UncertifiedError(
                f"levels {levels} are not certified at their working precision; "
                "refusing to classify")
        p = self.p
        ms = self.multiplicities()
        r = ms[self.n_max]
        s = {}
        for n in range(self.n_max):
            sn = ms[n] - r
            if sn < 0:
                raise ClassificationError(
                    f"level {n}: multiplicity {ms[n]} below the stable free rank {r}",
                    level=n)
            if sn:
                s[n] = sn
        # Fit mu p^n + lambda n + nu on the last three levels, after removing
        # the transient torsion p^n that each Lambda/Phi_j summand leaves at
        # window levels n < j.  The transient term is exact for genuine direct
        # summands (anything produced by unimodular operations); for non-split
        # extensions with cyclotomic support inside the window the fit may
        # honestly fail.
        w0 = self.n_max - 2
        corrected = {}
        for n in (w0, w0 + 1, w0 + 2):
            pollution = sum(sj for j, sj in s.items() if j > n) * p**n
            ct = self.torsion_orders[n] - pollution
            if ct < 0:
                raise ClassificationError(
                    f"level {n}: torsion order {self.torsion_orders[n]} below the "
                    f"cyclotomic contribution {pollution}", level=n)
            corrected[n] = ct
        a, b, c = corrected[w0], corrected[w0 + 1], corrected[w0 + 2]
        second = (c - b) - (b - a)
        denom = p**w0 * (p - 1) ** 2
        if second % denom:
            raise ClassificationError(
                f"level {self.n_max}: torsion trend {[a, b, c]} admits no integer "
                f"mu", level=self.n_max)
        mu = second // denom
        lam = (c - b) - mu * (p ** (w0 + 2) - p ** (w0 + 1))
        nu = a - mu * p**w0 - lam * w0
        if mu < 0 or lam < 0 or nu < 0:
            raise ClassificationError(
                f"level {self.n_max}: torsion trend {[a, b, c]} fits no elementary "
                f"type (mu={mu}, lambda={lam}, nu={nu})", level=self.n_max)
        verdict = self._verdict(mu, lam)
        return ElementaryType(r, s, mu, lam, verdict)

    def _verdict(self, mu, lam):
        t = self.torsion_orders
        if t[-1] == t[-2] == t[-3] and mu == 0 and lam == 0:
            return YES
        return self.verdict_without_classification()

    def verdict_without_classification(self):
        t = self.torsion_orders
        if t[-1] > t[-2]:
            return NO
        return UNDETERMINED

    def evidence(self) -> dict:
        return {
            "levels": list(range(self.n_max + 1)),
            "ranks": list(self.ranks),
            "torsion_orders": list(self.torsion_orders),
            "certified": self.certified,
        }


def analyze(M: ModulePresentation, n_max: int | None = None) -> StructureAnalysis:
    if n_max is None:
        n_max = default_max_level(M.ring.prime)
    return StructureAnalysis(M, n_max)


def classify_elementary(M: ModulePresentation, n_max: int | None = None) -> ElementaryType:
    """Recover (r, {s_n}, mu, residual lambda) from levels 0..n_max.

    The stable free rank is read from the top level, so cyclotomic support at
    n_max itself is indistinguishable from free rank; inconsistent data raises
    ClassificationError naming the offending level.
    """
    return analyze(M, n_max).classify()


@dataclass
class GFunctorReport:
    verdict: str
    torsion_orders: list
    ranks: list
    note: str = ""

    def as_dict(self):
        return {"verdict": self.verdict, "torsion_orders": self.torsion_orders,
                "ranks": self.ranks, "note": self.note}


def g_functor_vanishes(M: ModulePresentation, n_max: int | None = None) -> GFunctorReport:
    """Semi-decide whether the limit of the coinvariant torsion vanishes.

    "yes" needs a constant torsion tail over the last three levels together
    with a classification carrying no mu and no residual lambda; a strictly
    increasing tail gives "no"; everything else is honestly undetermined.
    """
    analysis = analyze(M, n_max)
    try:
        etype = analysis.classify()
        verdict = etype.g_functor_vanishes
        note = ""
    except ClassificationError as exc:
        verdict = analysis.verdict_without_classification()
        note = f"classification failed: {exc}"
    return GFunctorReport(verdict, list(analysis.torsion_orders), list(analysis.ranks), note)


# ---------------------------------------------------------------------------
# verifiers


def verify_rank_identity(M: ModulePresentation, n_max: int | None = None,
                         analysis: StructureAnalysis | None = None) -> dict:
    """Check the classified type reproduces every level's free rank exactly.

    Runs only when the torsion-limit verdict is "yes"; a vacuous pass on
    modules with growing torsion is forbidden, those are skipped with reason.
    """
    if analysis is None:
        analysis = analyze(M, n_max)
    report = {"name": "rank_identity", "levels": analysis.evidence(), "verdict": "pass",
              "counterexample": None}
    try:
        etype = analysis.classify()
    except ClassificationError as exc:
        report["verdict"] = "skipped"
        report["reason"] = f"no elementary classification: {exc}"
        return report
    if etype.g_functor_vanishes != YES:
        report["verdict"] = "skipped"
        report["reason"] = (f"torsion-limit verdict is {etype.g_functor_vanishes!r}; "
                            "the rank identity applies to the vanishing case")
        return report
    p = analysis.p
    r = etype.free_rank
    for n in range(analysis.n_max + 1):
        expected = r * p**n + sum(
            sj * phi_degree(p, j) for j, sj in etype.cyclo_multiplicities.items() if j <= n)
        if analysis.ranks[n] != expected:
            report["verdict"] = "fail"
            report["counterexample"] = {"level": n, "expected_rank": expected,
                                        "computed_rank": analysis.ranks[n]}
            return report
    report["type"] = etype.as_dict()
    return report


class _TorsionSpan:
    """Echelon span tracker inside the torsion part ⊕ O/p^(e_k).

    Coordinates are embedded into (O/p^E)^b via c -> p^(E - e_k) c, which is
    an injective O-linear map, so span membership can be decided by ordinary
    valuation echelon over one modulus.  The echelon runs on Z_p-coordinates;
    over the quadratic ring x v goes in with every v, so it spans the O-span.
    """

    def __init__(self, smith, p):
        self.smith = smith
        self.p = p
        self.positions = smith.torsion_positions
        self.exps = [smith.exponents[k] for k in self.positions]
        self.cap = max(self.exps, default=1)
        self.modulus = p**self.cap
        if self.cap >= smith.junk_free_precision:
            raise ValidationError(
                "torsion span tracking undecidable: exponents too close to precision")
        self.by_pos = {}  # pivot position -> (pivot valuation, vector)

    def _project(self, block):
        """Embedded Z_p-coordinates of v and, over O, of x v: they span O v.

        ``block`` holds v as its one vector (``SmithResult.reduce_block``).
        Over O = Z_p[x]/(x^2 - nu) each O-coordinate a + b x is the pair
        (a, b), and x (a + b x) = nu b + a x.
        """
        y = self.smith.reduce_block(block)[:, 0, self.positions].T.tolist()
        images = [y]
        if self.smith.ring.unramified_degree == 2:
            images.append([(self.smith.ring.nu * b, a) for a, b in y])
        p = self.p
        return [[c % p**e * p ** (self.cap - e) % self.modulus
                 for coords, e in zip(image, self.exps) for c in coords]
                for image in images]

    def add(self, vector) -> bool:
        """Insert the O-span of one ambient vector, a list or planes (d, 1, L).

        Returns True if the span grew.
        """
        block = vector if isinstance(vector, np.ndarray) else [vector]
        return any([self._insert(v) for v in self._project(block)])

    def _insert(self, v) -> bool:
        """Reduce against the span; insert if new.  Returns True if span grew.

        Position-ordered echelon over Z/p^cap, kept Howell-complete: storing
        a row of pivot valuation r also inserts p^(cap - r) times it, which
        vanishes at the pivot, so a vector reduces to zero exactly when it is
        in the span.  A row displaced by one of lower pivot valuation is
        inserted again.  Stored rows vanish before their pivot and every store
        fills a pivot or lowers its valuation, so the closure terminates.
        """
        m, p = self.modulus, self.p
        pending, grew = [v], False
        while pending:
            v = pending.pop()
            for _ in range(16 * self.cap * (len(v) + 1) + 16):
                pos = next((i for i, c in enumerate(v) if c % m), None)
                if pos is None:
                    break
                vval = _vp(v[pos], p, self.cap)
                stored = self.by_pos.get(pos)
                if stored is None or vval < stored[0]:
                    self.by_pos[pos] = (vval, v)
                    grew = True
                    pending.append([c * p ** (self.cap - vval) % m for c in v])
                    if stored:
                        pending.append(stored[1])
                    break
                rval, rvec = stored
                q = (v[pos] // p**rval) * pow((rvec[pos] // p**rval) % m, -1, m) % m
                v = [(a - q * b) % m for a, b in zip(v, rvec)]
            else:
                raise ValidationError("span closure failed to terminate")
        return grew


def _vp(c, p, cap):
    v = 0
    while v < cap and c % p == 0:
        c //= p
        v += 1
    return v


def _selector_columns(structure, selector, seed, level):
    """Ambient generators of the chosen finite Lambda-submodule of the torsion, as planes.

    The random selector scales a random subset of the torsion summand
    generators by random p-powers and then closes under the T-action (the
    span must be a Lambda-submodule); closure is detected by span
    stabilization inside the torsion part.
    """
    smith, fin = structure.smith, structure.fin_level
    positions = smith.torsion_positions
    if selector == "zero" or not positions:
        return fin.reduce_columns([])
    gens = smith.generator_columns(positions)
    if selector == "full-torsion":
        # already a Lambda-submodule; no closure required
        return gens
    ring = fin.ring
    p, N = ring.prime, ring.precision_exponent
    rng = random.Random(seed * 1000003 + level)
    exps = [smith.exponents[k] for k in positions]
    chosen = [(k, rng.randrange(0, max(1, e))) for k, e in enumerate(exps) if rng.random() >= 0.5]
    if not chosen:
        k = rng.randrange(len(exps))
        chosen.append((k, rng.randrange(0, max(1, exps[k]))))
    span = _TorsionSpan(smith, p)
    # x p^s mod p^N as (x mod p^(N - s)) p^s, which stays in the residue dtype of p^N
    queue = [to_planes(gens[:, [k]], ring.unramified_degree, ring.modulus) % p ** (N - s) * p**s
             for k, s in chosen]
    columns = []
    while queue:
        vec = queue.pop(0)
        if span.add(vec):
            columns.append(vec)
            queue.append(fin.t_apply(vec))
    return np.concatenate(columns, axis=1)


def verify_finite_quotients(tower: TowerSpec, n_max: int | None = None,
                            expected: ElementaryType | None = None,
                            analysis: StructureAnalysis | None = None) -> dict:
    """Check the component multiplicities of M_n / M'_n against the s_j.

    Hypotheses enforced: the module must classify as torsion (free rank 0)
    and every selected submodule generator must be a torsion element.  The
    quotient's Phi_j-component ranks are then computed genuinely from the
    augmented presentation and compared with s_j for every j <= n <= n_max.
    A level where the selector picks no generator quotients by nothing, so
    it reads the unquotiented ranks that ``analysis`` computes once.

    ``analysis`` shares the level structures, the transform-tracked
    structures and the component ranks between checks of one presentation;
    without it one is built for levels 0..n_max.
    """
    M = tower.presentation
    if analysis is None:
        analysis = analyze(M, n_max)
    elif analysis.presentation is not M:
        raise ValidationError("the analysis belongs to a different presentation")
    if n_max is None:
        n_max = analysis.n_max
    elif n_max > analysis.n_max:
        raise ValidationError(f"the analysis stops at level {analysis.n_max} < {n_max}")
    etype = analysis.classify() if expected is None else expected
    if etype.free_rank != 0:
        raise HypothesisError(
            f"module has free rank {etype.free_rank}; the finite-quotient check "
            "requires a torsion module")
    p = M.ring.prime
    report = {"name": "finite_quotients", "selector": tower.selector, "verdict": "pass",
              "levels": [], "counterexample": None}
    for n in range(n_max + 1):
        if tower.selector == "zero":
            structure = analysis.structures[n]
        else:
            structure = analysis.tracked(n)
        cols = _selector_columns(structure, tower.selector, tower.seed, n)
        count = cols.shape[1]
        if count:
            if not all(structure.smith.is_torsion_block(cols)):
                raise HypothesisError(f"level {n}: selected submodule generator is not torsion")
            comp = phi_component_ranks(
                M, n, cols, precision_cap=structure.smith.junk_free_precision,
                base_free_rank=structure.free_rank)
        else:
            comp = analysis.phi_ranks()[:n + 1]
            check_component_sum(comp, structure.free_rank, n)
        mults = []
        for j, cj in enumerate(comp):
            deg = phi_degree(p, j)
            if cj % deg:
                report["verdict"] = "fail"
                report["counterexample"] = {"level": n, "component": j,
                                            "rank": cj, "degree": deg}
                return report
            mults.append(cj // deg)
        report["levels"].append({"level": n, "component_ranks": comp,
                                 "multiplicities": mults,
                                 "submodule_generators": count})
        for j, m in enumerate(mults):
            if m != etype.multiplicity(j):
                report["verdict"] = "fail"
                report["counterexample"] = {
                    "level": n, "component": j,
                    "expected_multiplicity": etype.multiplicity(j),
                    "computed_multiplicity": m}
                return report
    report["assumptions"] = [
        "torsion hypothesis checked through classification (free rank 0)",
        "selected submodules verified finite (all generators torsion)",
    ]
    return report


def generator_change_invariance(M: ModulePresentation, u: int,
                                n_max: int | None = None) -> dict:
    """Re-express the presentation under T -> (1+T)^u - 1 and reclassify.

    ``u`` must be a positive integer prime to p, so the substitution is an
    exact polynomial map representing a unit of Z_p at any precision.
    """
    ring = M.ring
    if u < 1 or u % ring.prime == 0:
        raise ValidationError("u must be a positive integer prime to p")
    if n_max is None:
        n_max = default_max_level(ring.prime)
    base_type = classify_elementary(M, n_max)
    if u == 1:
        return {"name": "generator_change", "u": u, "verdict": "pass",
                "type": base_type.as_dict(), "transformed_type": base_type.as_dict()}
    sub = IwasawaPoly(ring, [0] + [math.comb(u, k) for k in range(1, u + 1)])
    rows = [[entry.substitute(sub) for entry in row] for row in M.relations]
    twisted = ModulePresentation(ring, M.generators, rows, M.level_cap)
    twisted_type = classify_elementary(twisted, n_max)
    same = (base_type.free_rank == twisted_type.free_rank
            and base_type.cyclo_multiplicities == twisted_type.cyclo_multiplicities
            and base_type.mu == twisted_type.mu
            and base_type.residual_lambda == twisted_type.residual_lambda)
    return {"name": "generator_change", "u": u,
            "verdict": "pass" if same else "fail",
            "type": base_type.as_dict(), "transformed_type": twisted_type.as_dict()}
