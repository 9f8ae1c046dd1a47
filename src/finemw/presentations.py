"""Finitely presented Lambda-modules and their finite-level coinvariants.

A module is the cokernel of a matrix of polynomials acting on Lambda^g.  At
level n the quotient Lambda/omega_n is free over the coefficient ring with
basis 1, T, ..., T^(p^n - 1), so each polynomial relation expands into p^n
columns over the coefficient ring and the coinvariants M/omega_n M become the
cokernel of an ordinary matrix, which Smith reduction then diagonalizes.  The
omega_n multiples of the generators reduce to exact zero columns in this
basis, so they are kept implicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import int64_precision_cap
from .errors import ResourceLimitError, ValidationError
from .padics import CoefficientRing
from .polynomials import (
    IwasawaPoly,
    cyclotomic,
    hard_max_level,
    omega,
    weierstrass_divide,
)

ROW_BUDGET_FACTOR = 4


@dataclass
class ModulePresentation:
    """Cokernel presentation: `generators` rows, one column per relation.

    When ``level_cap`` is set the entries are only meaningful modulo
    omega_{level_cap}; expanding beyond the cap is refused.
    """

    ring: CoefficientRing
    generators: int
    relations: list = field(default_factory=list)  # g rows of IwasawaPoly
    level_cap: int | None = None

    def __post_init__(self):
        if self.generators < 0:
            raise ValidationError("generators must be >= 0")
        if len(self.relations) != self.generators:
            if self.generators == 0 and not self.relations:
                pass
            else:
                raise ValidationError("relation matrix must have one row per generator")
        width = None
        for row in self.relations:
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValidationError("ragged relation matrix")
            for entry in row:
                if not isinstance(entry, IwasawaPoly) or entry.ring != self.ring:
                    raise ValidationError("relation entries must be IwasawaPoly over the same ring")

    @property
    def num_relations(self) -> int:
        return len(self.relations[0]) if self.relations else 0

    def relation_column(self, j):
        return [self.relations[i][j] for i in range(self.generators)]

    def with_extra_relations(self, columns) -> "ModulePresentation":
        """New presentation with extra relation columns appended."""
        rows = [list(r) for r in self.relations] or [[] for _ in range(self.generators)]
        for col in columns:
            if len(col) != self.generators:
                raise ValidationError("relation column has wrong length")
            for i, entry in enumerate(col):
                rows[i].append(entry)
        return ModulePresentation(self.ring, self.generators, rows, self.level_cap)


def cyclic_module(ring, poly: IwasawaPoly) -> ModulePresentation:
    """Lambda/(f) as a one-generator presentation."""
    return ModulePresentation(ring, 1, [[poly]])


def free_module(ring, rank: int) -> ModulePresentation:
    return ModulePresentation(ring, rank, [[] for _ in range(rank)])


def direct_sum(*modules) -> ModulePresentation:
    ring = modules[0].ring
    if any(m.ring != ring for m in modules):
        raise ValidationError("direct sum requires identical rings")
    g = sum(m.generators for m in modules)
    total_cols = sum(m.num_relations for m in modules)
    zero = IwasawaPoly(ring, [])
    rows = []
    col_offset = 0
    row_template = [zero] * total_cols
    for m in modules:
        for i in range(m.generators):
            row = list(row_template)
            for j in range(m.num_relations):
                row[col_offset + j] = m.relations[i][j]
            rows.append(row)
        col_offset += m.num_relations
    cap = None
    caps = [m.level_cap for m in modules if m.level_cap is not None]
    if caps:
        cap = min(caps)
    return ModulePresentation(ring, g, rows, cap)


# ---------------------------------------------------------------------------
# level expansion


def check_level_budget(pres: ModulePresentation, n: int):
    p = pres.ring.prime
    nmax = hard_max_level(p)
    if n < 0:
        raise ValidationError("level must be >= 0")
    if n > nmax:
        raise ResourceLimitError(f"level {n} exceeds the budget (max level {nmax} for p = {p})")
    if pres.level_cap is not None and n > pres.level_cap:
        raise ResourceLimitError(
            f"presentation entries are only valid modulo omega_{pres.level_cap}")
    budget = ROW_BUDGET_FACTOR * p**nmax
    rows = pres.generators * p**n
    if rows > budget:
        raise ResourceLimitError(f"expansion needs {rows} rows > budget {budget}")
    # relation columns are unbounded in JSON input; bound the entries they expand to
    entries = rows * pres.num_relations * p**n
    if entries > budget**2:
        raise ResourceLimitError(
            f"expansion needs {entries} entries > budget {budget**2}")


def _wrap_vector(ring, h: IwasawaPoly):
    """Coefficients of T^deg(h) modulo the monic h, as integers -h_k.

    Both omega_n and the cyclotomic factors have rational-integer
    coefficients, so the wrap stays a scalar list for every coefficient ring.
    """
    pn = ring.modulus
    wrap = []
    for k in range(h.degree()):
        coords = h.coefficient(k).coords
        if any(c for c in coords[1:]):
            raise ValidationError("modulus polynomial must have integer coefficients")
        wrap.append((-coords[0]) % pn)
    return wrap


class FinLevelModule:
    """A presentation expanded at one tower level.

    With ``component=None`` the expansion is modulo omega_n: the documented
    matrix has shape (g*q) x ((cols+g)*q), where the omega block is
    identically zero in the reduced basis and stays implicit.  With
    ``component=j`` (j <= level) the expansion is modulo Phi_j, which
    realizes M/Phi_j M; its free rank is the Phi_j-component rank of the
    rationalized level-n coinvariants because (omega_n, Phi_j) = (Phi_j).
    """

    def __init__(self, pres: ModulePresentation, level: int, component: int | None = None):
        check_level_budget(pres, level)
        if component is not None and not (0 <= component <= level):
            raise ValidationError("component index must satisfy 0 <= j <= level")
        self.presentation = pres
        self.level = level
        self.component = component
        self.ring = pres.ring
        if component is None:
            self.modulus_poly = omega(pres.ring, level)
        else:
            self.modulus_poly = cyclotomic(pres.ring, component)
        self.q = self.modulus_poly.degree()
        self._wrap = _wrap_vector(pres.ring, self.modulus_poly)
        self._reduced = {}  # (i, j) -> reduced relation entry

    @property
    def nrows(self) -> int:
        return self.presentation.generators * self.q

    @property
    def full_shape(self):
        """Documented shape including the implicit omega block."""
        g, c, q = self.presentation.generators, self.presentation.num_relations, self.q
        return (g * q, (c + g) * q)

    # -- T-action ---------------------------------------------------------

    def t_apply(self, vec):
        """Multiply an ambient coordinate vector (length g*q) by T."""
        q, pn = self.q, self.ring.modulus
        g = self.presentation.generators
        d = self.ring.unramified_degree
        out = []
        for i in range(g):
            seg = vec[i * q:(i + 1) * q]
            top = seg[q - 1]
            if d == 1:
                shifted = [0] + [int(x) for x in seg[:-1]]
                out.extend((shifted[k] + int(top) * self._wrap[k]) % pn for k in range(q))
            else:
                shifted = [tuple(0 for _ in range(d))] + list(seg[:-1])
                out.extend(tuple((a + self._wrap[k] * b) % pn for a, b in zip(shifted[k], top))
                           for k in range(q))
        return out

    def omega_annihilates(self, vec) -> bool:
        """Check (1+T)^(p^n) - 1 kills the vector, exactly at precision."""
        if self.component is not None:
            raise ValidationError("omega check only applies to the omega expansion")
        cur = list(vec)
        for _ in range(self.q):
            tv = self.t_apply(cur)
            cur = [_entry_add(a, b, self.ring) for a, b in zip(cur, tv)]
        return all(_entry_eq(a, b) for a, b in zip(cur, vec))

    # -- expanded matrices --------------------------------------------------

    def reduced_entry(self, i, j) -> IwasawaPoly:
        """Relation entry (i, j) reduced modulo the expansion modulus, divided once."""
        f = self._reduced.get((i, j))
        if f is None:
            f = self.presentation.relations[i][j]
            if f.degree() >= self.q:
                f = weierstrass_divide(f, self.modulus_poly)[1]
            self._reduced[i, j] = f
        return f

    def reduce_ambient_column(self, col):
        """Reduce an omega-basis ambient column into this expansion's basis.

        Needed when quotienting a component expansion (modulo Phi_j) by
        submodule generators that live in omega_n coordinates.
        """
        full = self.presentation.ring.prime**self.level
        if len(col) == self.presentation.generators * self.q:
            return [_as_coords(x, self.ring) for x in col]
        if len(col) != self.presentation.generators * full:
            raise ValidationError("extra column has wrong length")
        ring = self.ring
        q, pn = self.q, ring.modulus
        pad = (0,) * (ring.unramified_degree - 1)
        out = []
        for i in range(self.presentation.generators):
            seg = [x if isinstance(x, tuple) else (x,) + pad
                   for x in col[i * full:(i + 1) * full]]
            # long division by the monic modulus on integers, one coordinate at
            # a time (its coefficients are rational integers): T^q = sum wrap_k T^k
            rems = []
            for coeffs in zip(*seg):
                c = [int(x) for x in coeffs]
                for t in range(full - 1, q - 1, -1):
                    top = c[t] % pn
                    if top:
                        for k, w in enumerate(self._wrap):
                            c[t - q + k] += top * w
                rems.append([x % pn for x in c[:q]])
            out.extend(zip(*rems))
        return out

    def has_deep_entries(self, threshold: int) -> bool:
        """True if a relation coefficient is nonzero yet p^threshold-divisible."""
        if threshold <= 0:
            return True
        pt = self.ring.prime**threshold
        for i in range(self.presentation.generators):
            for j in range(self.presentation.num_relations):
                for coeff in self.reduced_entry(i, j).coefficients:
                    if any(c and c % pt == 0 for c in coeff.coords):
                        return True
        return False

    def matrix_int64(self, working_exponent=None, extra_columns=()):
        """Relation block plus optional columns as int64 mod p^W; degree 1 only."""
        ring = self.ring
        if ring.unramified_degree != 1:
            raise ValidationError("int64 expansion requires unramified degree 1")
        p = ring.prime
        W = working_exponent or min(ring.precision_exponent, int64_precision_cap(p))
        m = p**W
        g = self.presentation.generators
        c = self.presentation.num_relations
        q = self.q
        wrap = np.array([w % m for w in self._wrap], dtype=np.int64)
        blocks = []
        for j in range(c):
            col_block = np.zeros((g * q, q), dtype=np.int64)
            for i in range(g):
                f = self.reduced_entry(i, j)
                if not f.is_zero():
                    col_block[i * q:(i + 1) * q, :] = _mult_matrix_int64(f, q, wrap, m)
            blocks.append(col_block)
        for col in extra_columns:
            reduced = self.reduce_ambient_column(col)
            v = np.asarray([int(x[0]) % m for x in reduced], dtype=np.int64).reshape(-1, 1)
            blocks.append(v)
        if not blocks:
            return np.zeros((g * q, 0), dtype=np.int64)
        return np.hstack(blocks)

    def matrix_coords(self, extra_columns=()):
        """Full-precision coordinate-tuple expansion (any degree)."""
        g, q = self.presentation.generators, self.q
        cols = []
        for j in range(self.presentation.num_relations):
            for k in range(q):
                cols.append(self._poly_column(j, k))
        for col in extra_columns:
            cols.append(self.reduce_ambient_column(col))
        rows = [[cols[c][r] for c in range(len(cols))] for r in range(g * q)]
        if not cols:
            rows = [[] for _ in range(g * q)]
        return rows

    def _poly_column(self, j, k):
        out = []
        for i in range(self.presentation.generators):
            out.extend(self._segment(self.reduced_entry(i, j), k))
        return out

    def _segment(self, f, k):
        """Coordinates of f * T^k modulo the expansion modulus, full precision."""
        ring = self.ring
        q, pn = self.q, ring.modulus
        d = ring.unramified_degree
        vec = [f.coefficient(t).coords for t in range(q)]
        for _ in range(k):
            top = vec[q - 1]
            vec = [tuple(0 for _ in range(d))] + vec[:-1]
            if any(top):
                vec = [tuple((a + w * b) % pn for a, b in zip(vec[t], top))
                       for t, w in enumerate(self._wrap)]
        return vec


def _mult_matrix_int64(f, q, wrap, m):
    """q x q multiplication-by-f matrix on O[T]/(modulus), entries mod m."""
    col = np.zeros(q, dtype=np.int64)
    for t in range(min(q, f.degree() + 1)):
        col[t] = f.coefficient(t).coords[0] % m
    M = np.empty((q, q), dtype=np.int64)
    M[:, 0] = col
    for k in range(1, q):
        top = int(col[q - 1])
        col = np.concatenate(([0], col[:-1]))
        if top:
            col = (col + top * wrap) % m
        M[:, k] = col
    return M


def _as_coords(x, ring):
    if isinstance(x, tuple):
        return tuple(int(c) % ring.modulus for c in x)
    return ring.element(int(x)).coords


def _entry_add(a, b, ring):
    pn = ring.modulus
    if isinstance(a, tuple):
        return tuple((x + y) % pn for x, y in zip(a, b))
    return (int(a) + int(b)) % pn


def _entry_eq(a, b):
    return a == b


def expand_to_level(M: ModulePresentation, n: int) -> FinLevelModule:
    """Realize M_{Gamma_n} = M / omega_n M over the coefficient ring."""
    return FinLevelModule(M, n)


# ---------------------------------------------------------------------------
# coinvariant structure


@dataclass
class CoinvariantStructure:
    """Free rank and torsion of M_{Gamma_n} as a coefficient-ring module."""

    level: int
    free_rank: int
    torsion_exponents: list  # weakly decreasing, O-summand exponents
    certified: list  # per exponent
    smith: object = None
    fin_level: object = None
    rank_certified: bool = True  # False: deep summands may count as free rank

    @property
    def torsion_order(self) -> int:
        """Sum of exponents: the O-length of the torsion part."""
        return sum(self.torsion_exponents)

    @property
    def all_certified(self) -> bool:
        return self.rank_certified and all(self.certified)


def coinvariants(M: ModulePresentation, n: int, with_transforms: bool = False,
                 engine: str | None = None) -> CoinvariantStructure:
    """Smith-reduce the expanded relation matrix at level n."""
    from .snf import SmithResult, smith_normal_form  # local import to avoid cycle

    fin = FinLevelModule(M, n)
    smith = _level_smith(fin, with_transforms=with_transforms, engine=engine)
    return _structure_from_smith(fin, smith)


def _structure_from_smith(fin, smith) -> CoinvariantStructure:
    N = fin.ring.precision_exponent
    pairs = sorted(zip(smith.exponents, smith.certified_exponents(N)), reverse=True)
    torsion = [(e, c) for e, c in pairs if e > 0]
    return CoinvariantStructure(
        level=fin.level,
        free_rank=smith.free_rank,
        torsion_exponents=[e for e, _ in torsion],
        certified=[c for _, c in torsion],
        smith=smith,
        fin_level=fin,
        rank_certified=smith.certified,
    )


def _level_smith(fin: FinLevelModule, extra_columns=(), with_transforms=False,
                 engine=None, precision_cap=None):
    from .snf import PURE_SIZE_LIMIT, RETRY_SIZE_LIMIT, SmithResult, _run_python
    from ._kernels import snf_int64

    ring = fin.ring
    g, c, q = fin.presentation.generators, fin.presentation.num_relations, fin.q
    size = g * q * max(1, c * q + len(tuple(extra_columns)))
    target = ring.precision_exponent
    if precision_cap is not None:
        if precision_cap < 4:
            raise ValidationError(f"working precision {precision_cap} too low")
        target = min(target, precision_cap)
    track = 1 if with_transforms else 0
    if engine is None:
        engine = "python" if (ring.unramified_degree > 1 or size <= PURE_SIZE_LIMIT) else "int64"
    if engine == "int64":
        p = ring.prime
        W = min(target, int64_precision_cap(p))
        A = fin.matrix_int64(W, extra_columns=extra_columns)
        R, C = A.shape
        exps, U, Uinv, V, Vinv = snf_int64(A, p, p**W, track)
        transforms = (U, Uinv, V, Vinv) if with_transforms else None
        result = SmithResult(ring, "int64", W, R, C, exps, transforms)
        suspicious = (any(e >= W - 2 for e in result.exponents)
                      or fin.has_deep_entries(W - 2))
        if not (W < target and suspicious):
            return result
        if R * C > RETRY_SIZE_LIMIT:
            result.certified = False
            return result
    rows = fin.matrix_coords(extra_columns=extra_columns)
    R = len(rows)
    C = len(rows[0]) if rows and rows[0] else 0
    return _run_python(rows, R, C, ring, track,
                       precision=None if target == ring.precision_exponent else target)


def phi_component_ranks(M: ModulePresentation, n: int) -> list:
    """Ranks of the Phi_j-isotypic pieces of the rationalized coinvariants.

    c_j is the rank of ker(Phi_j(T)) on the free part of M_{Gamma_n}.  Since
    Phi_j divides omega_n, quotienting the level-n module by the Phi_j-action
    columns is the same as expanding the presentation modulo Phi_j, so c_j is
    the free rank of that smaller Smith reduction.  The components must sum
    to the free rank of the coinvariants; a mismatch signals a precision
    failure and raises.
    """
    base = _level_smith(FinLevelModule(M, n))
    ranks = component_ranks_against(M, n)
    check_component_sum(ranks, base.free_rank, n)
    return ranks


def check_component_sum(ranks, free_rank: int, n: int):
    """Component ranks must add up to the free rank; a mismatch is a precision failure."""
    if sum(ranks) != free_rank:
        raise ValidationError(
            f"component ranks {ranks} do not sum to free rank {free_rank} at level {n}")


def component_ranks_against(M: ModulePresentation, n: int, extra_columns=(),
                            precision_cap=None) -> list:
    """Component ranks c_0..c_n, optionally of a quotient by ambient columns."""
    ranks = []
    for j in range(n + 1):
        fin = FinLevelModule(M, n, component=j)
        smith = _level_smith(fin, extra_columns=tuple(extra_columns),
                             precision_cap=precision_cap)
        ranks.append(smith.free_rank)
    return ranks


def quotient_structure(M: ModulePresentation, n: int, extra_columns,
                       with_transforms: bool = False,
                       precision_cap: int | None = None) -> CoinvariantStructure:
    """Structure of M_{Gamma_n} / <extra columns> (columns in ambient coords).

    Columns obtained from tracked transforms are exact only above a junk
    threshold; pass ``precision_cap`` to run the reduction below it.
    """
    fin = FinLevelModule(M, n)
    smith = _level_smith(fin, extra_columns=tuple(extra_columns),
                         with_transforms=with_transforms, precision_cap=precision_cap)
    return _structure_from_smith(fin, smith)


def quotient_phi_component_ranks(M: ModulePresentation, n: int, extra_columns,
                                 precision_cap: int | None = None,
                                 base_free_rank: int | None = None) -> list:
    """Component ranks of M_{Gamma_n} modulo the span of the given columns.

    When ``base_free_rank`` is supplied (typically the unquotiented free
    rank), the sum rule doubles as a check that the columns did not move the
    rank, which is exactly the finite-submodule invariance being verified.
    """
    ranks = component_ranks_against(M, n, extra_columns=extra_columns,
                                    precision_cap=precision_cap)
    if base_free_rank is None:
        base = _level_smith(FinLevelModule(M, n), extra_columns=tuple(extra_columns),
                            precision_cap=precision_cap)
        base_free_rank = base.free_rank
    check_component_sum(ranks, base_free_rank, n)
    return ranks


# ---------------------------------------------------------------------------
# transition maps


def _projection_apply(fin_hi: FinLevelModule, fin_lo: FinLevelModule, vec):
    """Push a level-(n+1) ambient vector down to level n (reduce mod omega_n)."""
    ring = fin_hi.ring
    g = fin_hi.presentation.generators
    q_hi, q_lo = fin_hi.q, fin_lo.q
    pn = ring.modulus
    d = ring.unramified_degree
    zero = tuple(0 for _ in range(d))
    out = []
    for i in range(g):
        seg = [_as_coords(x, ring) for x in vec[i * q_hi:(i + 1) * q_hi]]
        acc = [zero] * q_lo
        basis = [zero] * q_lo  # T^k mod omega_lo, advanced iteratively
        basis[0] = ring.one().coords
        for k in range(q_hi):
            if any(seg[k]):
                for t in range(q_lo):
                    prod = ring._mul_coords(basis[t], seg[k])
                    acc[t] = tuple((a + b) % pn for a, b in zip(acc[t], prod))
            top = basis[q_lo - 1]
            basis = [zero] + basis[:-1]
            if any(top):
                basis = [tuple((a + w * b) % pn for a, b in zip(basis[t], top))
                         for t, w in enumerate(fin_lo._wrap)]
        out.extend(acc)
    if ring.unramified_degree == 1:
        return [c[0] for c in out]
    return out


def transition_check(M: ModulePresentation, n: int) -> dict:
    """Verify the natural surjection M_{Gamma_{n+1}} -> M_{Gamma_n}.

    Checks rank monotonicity and that torsion generators map to torsion, and
    reports the torsion-order sequence t_0..t_{n+1}.
    """
    structures = [coinvariants(M, k) for k in range(n)]
    lo = coinvariants(M, n, with_transforms=True)
    hi = coinvariants(M, n + 1, with_transforms=True)
    structures.extend([lo, hi])
    report = {
        "levels": list(range(n + 2)),
        "ranks": [s.free_rank for s in structures],
        "torsion_orders": [s.torsion_order for s in structures],
        "rank_monotone": hi.free_rank >= lo.free_rank,
        "torsion_maps_to_torsion": True,
        "verdict": "pass",
    }
    for k in hi.smith.torsion_positions:
        gen = hi.smith.generator_column(k)
        image = _projection_apply(hi.fin_level, lo.fin_level, gen)
        if not lo.smith.is_torsion_vector(image):
            report["torsion_maps_to_torsion"] = False
    if not (report["rank_monotone"] and report["torsion_maps_to_torsion"]):
        report["verdict"] = "fail"
    return report


# ---------------------------------------------------------------------------
# JSON serialization (base-10 integer strings for bit-exactness)


def presentation_to_json(M: ModulePresentation) -> dict:
    def poly_json(f):
        return [[str(c) for c in coeff.coords] for coeff in f.coefficients]

    doc = {
        "p": M.ring.prime,
        "unramified_degree": M.ring.unramified_degree,
        "precision": M.ring.precision_exponent,
        "generators": M.generators,
        "relations": [[poly_json(entry) for entry in row] for row in M.relations],
    }
    if M.level_cap is not None:
        doc["level_cap"] = M.level_cap
    return doc


def presentation_from_json(doc: dict) -> ModulePresentation:
    try:
        ring = CoefficientRing(prime=int(doc["p"]),
                               unramified_degree=int(doc.get("unramified_degree", 1)),
                               precision_exponent=int(doc.get("precision", 24)))
        generators = int(doc["generators"])
        rows = []
        for row in doc.get("relations", []):
            rows.append([IwasawaPoly(ring, [[int(s) for s in coeff] for coeff in entry])
                         for entry in row])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed presentation JSON: {exc}") from exc
    cap = doc.get("level_cap")
    return ModulePresentation(ring, generators, rows, None if cap is None else int(cap))
