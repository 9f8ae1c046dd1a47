"""Finitely presented Lambda-modules and their finite-level coinvariants.

A module is the cokernel of a matrix of polynomials acting on Lambda^g.  At
level n the quotient Lambda/omega_n is free over the coefficient ring with
basis 1, T, ..., T^(p^n - 1), so each polynomial relation expands into p^n
columns over the coefficient ring and the coinvariants M/omega_n M become the
cokernel of an ordinary matrix, which Smith reduction then diagonalizes.  The
omega_n multiples of the generators reduce to exact zero columns in this
basis, so they are kept implicit.

Every reduction modulo omega_n or Phi_j is one integer long division
(``_poly_rem``) by T^q = sum wrap_k T^k: both moduli have rational-integer
coefficients, so each coordinate of an O-polynomial divides on its own, in
the relation entries (``reduced_entry``) as in the ambient columns.  One
builder, ``FinLevelModule._expansion``, writes the expanded matrix mod m as
one preallocated array per coordinate; ``matrix_int64`` reads it at the
reduction's modulus and ``matrix_coords`` zips the coordinates into tuples
at p^N.  The T-action and the transition maps use the same division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import snf
from ._kernels import residue_dtype
from .errors import ResourceLimitError, ValidationError
from .padics import CoefficientRing
from .polynomials import IwasawaPoly, cyclotomic, hard_max_level, omega
from .polynomials import weierstrass_divide  # noqa: F401  perfbench's BINDINGS resolve it here

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

    Both omega_n and the cyclotomic factors are built from rational integers,
    so the wrap stays a scalar list for every coefficient ring.
    """
    pn = ring.modulus
    wrap = []
    for k in range(h.degree()):
        wrap.append((-h.coefficient(k).coords[0]) % pn)
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
        self._reduced = {}  # (i, j) -> reduced relation entry, one list per coordinate

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
        """Multiply an ambient coordinate vector (length g*q) by T.

        T v has degree <= q < p^(n+1): a column in the omega_(n+1) basis.
        """
        q, width = self.q, self.ring.prime ** (self.level + 1)
        shifted = []
        for i in range(self.presentation.generators):
            shifted += [0, *vec[i * q:(i + 1) * q]] + [0] * (width - q - 1)
        return snf.plain(self.reduce_ambient_column(shifted), self.ring)

    def omega_annihilates(self, vec) -> bool:
        """Check (1+T)^(p^n) - 1 kills the vector, exactly at precision."""
        if self.component is not None:
            raise ValidationError("omega check only applies to the omega expansion")
        cur = list(vec)
        for _ in range(self.q):
            tv = self.t_apply(cur)
            cur = [_entry_add(a, b, self.ring) for a, b in zip(cur, tv)]
        return all(a == b for a, b in zip(cur, vec))

    # -- expanded matrices --------------------------------------------------

    def reduced_entry(self, i, j) -> list:
        """Relation entry (i, j) modulo the expansion modulus, as integer coordinate planes.

        Plane s lists coordinate s of each coefficient, constant term first,
        without trailing zero coefficients.  An entry of degree >= q is
        divided once, each plane by ``_poly_rem``.
        """
        planes = self._reduced.get((i, j))
        if planes is None:
            coefficients = self.presentation.relations[i][j].coefficients
            planes = [[a.coords[s] for a in coefficients]
                      for s in range(self.ring.unramified_degree)]
            if len(coefficients) > self.q:
                planes = [_poly_rem(c, self.q, self._wrap, self.ring.modulus) for c in planes]
                while planes[0] and not any(c[-1] for c in planes):
                    for c in planes:
                        c.pop()
            self._reduced[i, j] = planes
        return planes

    def reduce_ambient_column(self, col):
        """Reduce an ambient column into this expansion's basis, as coordinate tuples.

        The column has q coefficients per generator (this basis) or p^k (the
        omega_k basis of a level k >= this level, which the modulus divides):
        quotient columns in omega_n coordinates, and the level-(n+1) vectors
        that ``transition_check`` pushes down to level n.
        """
        ring, g = self.ring, self.presentation.generators
        width = len(col) // g if g else self.q
        k = self.level
        while ring.prime**k < width:
            k += 1
        if len(col) != g * width or width not in (self.q, ring.prime**k):
            raise ValidationError("extra column has wrong length")
        pad = (0,) * (ring.unramified_degree - 1)
        out = []
        for i in range(g):
            seg = [x if isinstance(x, tuple) else (x,) + pad
                   for x in col[i * width:(i + 1) * width]]
            out.extend(zip(*(_poly_rem(c, self.q, self._wrap, ring.modulus)
                             for c in zip(*seg))))
        return out

    def matrix_int64(self, working_exponent, extra_columns=()):
        """Relation block plus optional columns as a Z_p-matrix mod p^W.

        Entries are ``residue_dtype`` residues: int64 while p^W <= 2^63,
        Python integers beyond.  Over the quadratic ring this is the regular
        representation of the O-matrix (``snf.regular_representation``): the
        two coordinate planes interleaved, twice as many rows and columns.
        """
        m = self.ring.prime**working_exponent
        return snf.regular_representation(self._expansion(m, extra_columns), self.ring, m)

    def matrix_coords(self, extra_columns=()):
        """Full-precision expansion as rows of coordinate tuples (either degree)."""
        planes = [plane.tolist() for plane in self._expansion(self.ring.modulus, extra_columns)]
        return [list(zip(*rows)) for rows in zip(*planes)]

    def _expansion(self, m, extra_columns):
        """The relation block and the extra columns mod m, one array per coordinate.

        The modulus has rational-integer coefficients, so each coordinate of
        an O-polynomial is multiplied and divided on its own: plane s holds
        coordinate s of every entry, as ``residue_dtype(m)``.
        """
        g, c, q = self.presentation.generators, self.presentation.num_relations, self.q
        columns = [self.reduce_ambient_column(col) for col in extra_columns]
        planes = [np.zeros((g * q, c * q + len(columns)), dtype=residue_dtype(m))
                  for _ in range(self.ring.unramified_degree)]
        wrap = [w % m for w in self._wrap]
        for i in range(g):
            for j in range(c):
                for plane, coeffs in zip(planes, self.reduced_entry(i, j)):
                    if any(coeffs):
                        plane[i * q:(i + 1) * q, j * q:(j + 1) * q] = _mult_matrix(
                            coeffs, q, wrap, m)
        for k, col in enumerate(columns):
            for s, plane in enumerate(planes):
                plane[:, c * q + k] = [x[s] % m for x in col]
        return planes


def _poly_rem(coeffs, q, wrap, m):
    """Remainder mod m of the integer polynomial ``coeffs`` by the monic modulus.

    The modulus has degree q and T^q = sum wrap_k T^k; long division from the
    top coefficient down, on Python integers.
    """
    c = [int(x) for x in coeffs] + [0] * (q - len(coeffs))
    for t in range(len(c) - 1, q - 1, -1):
        top = c[t] % m
        if top:
            for k, w in enumerate(wrap):
                c[t - q + k] += top * w
    return [x % m for x in c[:q]]


def _mult_matrix(coeffs, q, wrap, m):
    """q x q multiplication-by-f matrix on Z[T]/(modulus) mod m, f of integer ``coeffs``.

    Column k holds f T^k.  Each step adds top * wrap, a product of two
    residues: int64 while that cannot overflow, Python integers beyond
    (m >= 2^31.5).
    """
    dtype = np.int64 if (m - 1) ** 2 + m < 1 << 63 else object
    wrap = np.array(wrap, dtype=dtype)
    M = np.zeros((q, q), dtype=dtype)
    M[:len(coeffs), 0] = [x % m for x in coeffs]
    for k in range(1, q):
        M[1:, k] = M[:-1, k - 1]
        top = int(M[q - 1, k - 1])
        if top:
            M[:, k] = (M[:, k] + top * wrap) % m
    return M


def _entry_add(a, b, ring):
    pn = ring.modulus
    if isinstance(a, tuple):
        return tuple((x + y) % pn for x, y in zip(a, b))
    return (int(a) + int(b)) % pn


# ---------------------------------------------------------------------------
# coinvariant structure


@dataclass
class CoinvariantStructure:
    """Free rank and torsion of M_{Gamma_n} as a coefficient-ring module.

    A view over the Smith reduction of the level-n expansion: every number
    is read off ``smith``, and ``certified`` is its one certification flag.
    """

    smith: snf.SmithResult
    fin_level: FinLevelModule

    @property
    def level(self) -> int:
        return self.fin_level.level

    @property
    def free_rank(self) -> int:
        return self.smith.free_rank

    @property
    def torsion_exponents(self) -> list:
        """O-summand exponents, weakly decreasing."""
        return self.smith.torsion_exponents

    @property
    def torsion_order(self) -> int:
        """Sum of exponents: the O-length of the torsion part."""
        return self.smith.torsion_order

    @property
    def certified(self) -> bool:
        return self.smith.certified


def coinvariants(M: ModulePresentation, n: int, extra_columns=(),
                 with_transforms: bool = False,
                 precision_cap: int | None = None) -> CoinvariantStructure:
    """Smith-reduce the level-n expansion, quotiented by ambient ``extra_columns``.

    Columns obtained from tracked transforms are exact only above a junk
    threshold; pass ``precision_cap`` to run the reduction below it.
    """
    fin = FinLevelModule(M, n)
    smith = _level_smith(fin, extra_columns=tuple(extra_columns),
                         with_transforms=with_transforms, precision_cap=precision_cap)
    return CoinvariantStructure(smith, fin)


def _level_smith(fin: FinLevelModule, extra_columns=(), with_transforms=False,
                 precision_cap=None):
    """Smith reduction of a level expansion quotiented by ambient columns.

    Runs ``snf.reduce`` with U tracked when ``with_transforms`` is set, aiming
    at an answer exact at p^min(N, precision_cap).
    """
    target = None
    if precision_cap is not None:
        if precision_cap < 4:
            raise ValidationError(f"working precision {precision_cap} too low")
        target = min(fin.ring.precision_exponent, precision_cap)
    return snf.reduce(_LevelSource(fin, extra_columns), fin.ring,
                      with_transforms, target)


class _LevelSource:
    """A level expansion and its quotient columns as a Smith source.

    The columns are reduced into the expansion's basis once, here.  The
    deep-entry test scans the relation coefficients and every coordinate of
    the reduced columns.
    """

    def __init__(self, fin: FinLevelModule, extra_columns):
        self.fin = fin
        self.columns = [fin.reduce_ambient_column(col) for col in extra_columns]
        self.shape = (fin.nrows, fin.presentation.num_relations * fin.q + len(self.columns))

    def matrix_int64(self, working_exponent):
        return self.fin.matrix_int64(working_exponent, extra_columns=self.columns)

    def coordinate_rows(self):
        return self.fin.matrix_coords(extra_columns=self.columns)

    def coords(self):
        fin = self.fin
        for i in range(fin.presentation.generators):
            for j in range(fin.presentation.num_relations):
                for plane in fin.reduced_entry(i, j):
                    yield from plane
        for col in self.columns:
            for entry in col:
                yield from entry


def phi_component_ranks(M: ModulePresentation, n: int, extra_columns=(),
                        precision_cap: int | None = None,
                        base_free_rank: int | None = None) -> list:
    """Ranks of the Phi_j-isotypic pieces of the rationalized coinvariants.

    c_j is the rank of ker(Phi_j(T)) on the free part of M_{Gamma_n}, or of
    its quotient by ambient ``extra_columns``.  Since Phi_j divides omega_n,
    quotienting the level-n module by the Phi_j-action columns is the same
    as expanding the presentation modulo Phi_j, so c_j is the free rank of
    that smaller Smith reduction.  The components must sum to the free rank
    of the coinvariants, or to ``base_free_rank`` when given (the
    unquotiented free rank checks that the columns did not move the rank);
    a mismatch signals a precision failure and raises.
    """
    ranks = component_ranks_against(M, n, extra_columns=extra_columns,
                                    precision_cap=precision_cap)
    if base_free_rank is None:
        base_free_rank = coinvariants(M, n, extra_columns,
                                      precision_cap=precision_cap).free_rank
    check_component_sum(ranks, base_free_rank, n)
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


# ---------------------------------------------------------------------------
# transition maps


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
        image = snf.plain(lo.fin_level.reduce_ambient_column(gen), lo.fin_level.ring)
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
        ring = CoefficientRing(prime=_json_int(doc["p"], "p"),
                               unramified_degree=_json_int(doc.get("unramified_degree", 1),
                                                           "unramified_degree"),
                               precision_exponent=_json_int(doc.get("precision", 24), "precision"))
        generators = _json_int(doc["generators"], "generators")
        rows = []
        for row in doc.get("relations", []):
            rows.append([IwasawaPoly(ring, [[_json_int(s, "relation coefficient") for s in coeff]
                                            for coeff in entry])
                         for entry in row])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed presentation JSON: {exc}") from exc
    cap = doc.get("level_cap")
    return ModulePresentation(ring, generators, rows,
                              None if cap is None else _json_int(cap, "level_cap"))


def _json_int(value, name):
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed presentation JSON: {name} {value!r} is not an integer"
                              ) from exc
