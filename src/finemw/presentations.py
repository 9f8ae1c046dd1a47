"""Finitely presented Lambda-modules and their finite-level coinvariants.

A module is the cokernel of a matrix of polynomials acting on Lambda^g.  At
level n the quotient Lambda/omega_n is free over the coefficient ring with
basis 1, T, ..., T^(p^n - 1), so each polynomial relation expands into p^n
columns over the coefficient ring and the coinvariants M/omega_n M become the
cokernel of an ordinary matrix, which Smith reduction then diagonalizes.  The
omega_n multiples of the generators reduce to exact zero columns in this
basis, so they are kept implicit.

Every reduction modulo omega_n or Phi_j is one exact product with a power
table (``_remainders``): with T^(q+k) = sum_i R[k, i] T^i, the remainder of
y is y[:q] + y[q:] R.  A longer y is folded from the top, max(q, 64)
coefficients at a time, so no table passes that many rows.  Both moduli have
rational-integer coefficients, so each coordinate of an O-polynomial divides
on its own, and one product divides every relation entry of a level
(``FinLevelModule._entries``, one array mod p^N that the expansions read and
the deep-entry test scans), every generator segment of every ambient column
(``reduce_columns``), the wrapping columns of every multiplication matrix
(``_wrapped_columns``), or every T-shifted vector of a block (``t_apply``).
Ambient vectors are coordinate planes, an array of shape (d, K, L)
(``_kernels.to_planes``), which ``reduce_columns`` and ``t_apply`` take and
return, and which ``transition_check`` reduces and tests for torsion all at
once.  One builder, ``FinLevelModule._expansion``, writes the expanded
matrix mod m as one preallocated array per coordinate; ``matrix_int64``
reads it at the reduction's modulus and ``matrix_coords`` zips the
coordinates into tuples at p^N.

Block order puts each relation's q columns side by side.  An untracked
reduction instead takes relations with the same span over Z_p[T]/omega_n,
put in T-adic echelon form mod p, with rows ordered by power of T and
columns by their first nonzero row mod p (``_echelon_relations``): the
Smith form is the same, its layer-0 unit pivots and the rows each column
spans are known (``FinLevelModule.layer0``), and the kernel's updates stay
in a band.  Tracked reductions keep the block order, whose pivots fix the
torsion bases that reports draw from.

The Phi_j-component ranks take no expansion over Z_p.  Modulo Phi_j the
module is the cokernel of the g x (c + k) matrix of the relations and the k
quotient columns over O_j = Z_p[T]/Phi_j, a discrete valuation ring with
uniformizer T (p at j = 0), and ``component_ranks_against`` counts its
Smith invariants by elimination over O_j (``_dvr_pivots``), whose products
are the same split products with the table of Phi_j.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from . import snf
from ._kernels import PANEL, _exact_split, _single_blas_thread, residue_dtype, to_planes
from .errors import ResourceLimitError, ValidationError
from .padics import CoefficientRing
from .polynomials import IwasawaPoly, cyclotomic, degree_budget, hard_max_level, omega, phi_degree
from .polynomials import weierstrass_divide  # noqa: F401  perfbench's BINDINGS resolve it here


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
        if self.level_cap is not None and self.level_cap < 0:
            raise ValidationError(f"level_cap must be >= 0, got {self.level_cap}")
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
    budget = degree_budget(p)
    rows = pres.generators * p**n
    if rows > budget:
        raise ResourceLimitError(f"expansion needs {rows} rows > budget {budget}")
    # relation columns are unbounded in JSON input; bound the entries they expand to
    entries = rows * pres.num_relations * p**n
    if entries > budget**2:
        raise ResourceLimitError(
            f"expansion needs {entries} entries > budget {budget**2}")
    # an entry's degree sets the power table that divides it (``_remainders``)
    degree = max((f.degree() for row in pres.relations for f in row), default=-1)
    if degree > budget:
        raise ResourceLimitError(f"relation entry of degree {degree} > budget {budget}")


@functools.lru_cache(maxsize=None)
def _modulus(ring, level, component):
    """omega_level, or Phi_component when one is given, and its wrap.

    The wrap lists the coefficients of T^q modulo the monic modulus h of
    degree q, as integers -h_k mod p^N.  Both omega_n and the cyclotomic
    factors are built from rational integers, so the wrap stays a scalar
    tuple for every coefficient ring.
    """
    h = omega(ring, level) if component is None else cyclotomic(ring, component)
    return h, tuple(-h.coefficient(k).coords[0] % ring.modulus for k in range(h.degree()))


class FinLevelModule:
    """A presentation expanded at one tower level.

    With ``component=None`` the expansion is modulo omega_n: the documented
    matrix has shape (g*q) x ((cols+g)*q), where the omega block is
    identically zero in the reduced basis and stays implicit.  With
    ``component=j`` (j <= level) the modulus is Phi_j, which realizes
    M/Phi_j M, whose rank is the Phi_j-component rank of the rationalized
    level-n coinvariants because (omega_n, Phi_j) = (Phi_j).  The component
    ranks read its relation entries and its reduction of the level-n
    quotient columns as a matrix over Z_p[T]/Phi_j (``component_matrix``);
    its Z_p-expansion (``matrix_int64``, ``matrix_coords``) serves only as
    the tests' referee.

    The reduced relation entries are kept as given, one array mod p^N
    (``_entries``), which the expansions read and the deep-entry test scans;
    ``matrix_int64(..., echelon=True)`` expands the echelon relations
    instead, whose column operation mod p is found once per instance.
    """

    def __init__(self, pres: ModulePresentation, level: int, component: int | None = None):
        check_level_budget(pres, level)
        if component is not None and not (0 <= component <= level):
            raise ValidationError("component index must satisfy 0 <= j <= level")
        self.presentation = pres
        self.level = level
        self.component = component
        self.ring = pres.ring
        self.modulus_poly, self._wrap = _modulus(pres.ring, level, component)
        self.q = self.modulus_poly.degree()
        self._reduced = None  # the reduced relation entries (``_entries``)
        self._echelon = None  # the echelon column operation mod p and its keys
        self._echelon_at = {}  # modulus -> the echelon relations and their places

    @property
    def nrows(self) -> int:
        return self.presentation.generators * self.q

    # -- T-action ---------------------------------------------------------

    def t_apply(self, vectors):
        """T times ambient vectors in this basis: planes (d, K, g*q) mod p^N.

        ``vectors`` are such planes or a list of vectors (``_kernels.to_planes``).
        Each generator's T v has degree <= q, so its remainder takes one row
        of the power table: T^q mod the modulus.
        """
        m, q = self.ring.modulus, self.q
        planes = to_planes(vectors, self.ring.unramified_degree, m)
        shifted = np.zeros((planes.size // q, q + 1), dtype=planes.dtype)
        shifted[:, 1:] = planes.reshape(-1, q)
        return self._remainders(shifted, m).astype(residue_dtype(m)).reshape(planes.shape)

    # -- expanded matrices --------------------------------------------------

    def _entries(self):
        """Every reduced relation entry mod p^N: an array of shape (d, g, c, q).

        On first use the entries of degree >= q are divided, all in one ``_remainders``.
        """
        if self._reduced is not None:
            return self._reduced
        d, m, q = self.ring.unramified_degree, self.ring.modulus, self.q
        g, c = self.presentation.generators, self.presentation.num_relations
        entries = [f.coefficients for row in self.presentation.relations for f in row]
        Y = np.zeros((d * len(entries), max([q] + [len(f) for f in entries])),
                     dtype=residue_dtype(m))
        for k, f in enumerate(entries):
            for s in range(d):
                Y[d * k + s, :len(f)] = [a.coords[s] for a in f]
        self._reduced = self._remainders(Y, m).reshape(g, c, d, q).transpose(2, 0, 1, 3)
        return self._reduced

    def reduce_columns(self, columns, m=None):
        """Reduce ambient columns into this expansion's basis, all with one exact product.

        ``columns`` lists ambient columns, or holds their coordinate planes
        mod m as an array of shape (d, K, L), as this method returns them.
        A column has q coefficients per generator (this basis) or p^k (the
        omega_k basis of a level k >= this level, which the modulus
        divides): quotient columns in omega_n coordinates, and the
        level-(n+1) vectors that ``transition_check`` pushes down to level
        n.  Returns the planes (d, K, g*q) of the remainders mod m, by
        default the ring's p^N: every generator segment of every column is
        one row of ``_remainders``.
        """
        ring, g, q = self.ring, self.presentation.generators, self.q
        m = ring.modulus if m is None else m
        d = ring.unramified_degree
        if not len(columns):
            return np.zeros((d, 0, g * q), dtype=residue_dtype(m))
        planes = to_planes(columns, d, m)
        K, L = planes.shape[1:]
        width = L // g if g else q
        k = self.level
        while ring.prime**k < width:
            k += 1
        if L != g * width or width not in (q, ring.prime**k):
            raise ValidationError("extra column has wrong length")
        return self._remainders(planes.reshape(d * K * g, width), m).reshape(d, K, g * q)

    def _remainders(self, Y, m):
        """The rows of Y, polynomials mod m of at least q coefficients, reduced mod the modulus.

        With T^(q+k) = sum_i R[k, i] T^i, the coefficients [s, o) of a row y
        fold onto [s - q, s) as y[s-q:s] + y[s:o] R[:o-s], since
        T^(s+k) = T^(s-q) T^(q+k) for s >= q: one exact split product for
        all rows together.  They are folded from the top, at most
        b = max(q, PANEL) at a time, so no power table has more than b rows;
        a row of at most q + b coefficients takes one fold.
        """
        q, o = self.q, Y.shape[1]
        if o == q:
            return Y
        _single_blas_thread()  # thin products, as in the Smith kernel
        rows = min(max(q, PANEL), o - q)
        split, digits = _power_table(tuple(w % m for w in self._wrap), m, rows, self.ring.prime)
        if o - q > rows:
            Y = Y.copy()  # every fold but the last writes into it
        while o - q > rows:
            s = o - rows
            Y[:, s - q:s] = split.mul_sub(Y[:, s:o], digits, X0=Y[:, s - q:s])
            o = s
        return split.mul_sub(Y[:, q:o], [d[:o - q] for d in digits], X0=Y[:, :q])

    def matrix_int64(self, working_exponent, extra_columns=(), echelon=False):
        """Relation block plus optional columns as a Z_p-matrix mod p^W.

        Entries are ``residue_dtype`` residues: int32 while p^W <= 2^31 (the
        reduced working precision at p = 5, 7), int64 while p^W <= 2^63,
        Python integers beyond.  Over the quadratic ring this is the regular
        representation of the O-matrix (``snf.regular_representation``): the
        two coordinate planes interleaved, twice as many rows and columns.
        With ``echelon`` the relations and the order are those of
        ``_echelon_relations``: the same cokernel, so the same Smith form.
        """
        m = self.ring.prime**working_exponent
        return snf.regular_representation(self._expansion(m, extra_columns, echelon),
                                          self.ring, m)

    def matrix_coords(self, extra_columns=()):
        """Full-precision expansion as rows of coordinate tuples (either degree)."""
        planes = [plane.tolist() for plane in self._expansion(self.ring.modulus, extra_columns)]
        return [list(zip(*rows)) for rows in zip(*planes)]

    def _expansion(self, m, extra_columns, echelon=False):
        """The relation block and the extra columns mod m, one array per coordinate.

        The modulus has rational-integer coefficients, so each coordinate of
        an O-polynomial is multiplied and divided on its own: plane s holds
        coordinate s of every entry, as ``residue_dtype(m)``.  Block order
        puts generator i's q rows and relation j's q columns side by side.
        ``echelon`` writes the relations of ``_echelon_relations`` straight
        into the places it gives their columns, with rows power-major over
        the h generators that some relation meets (row k h + r for T^k at
        the r-th of them) and the rows of the others after them in block
        order; the extra columns take the same row order.
        """
        g, c, q = self.presentation.generators, self.presentation.num_relations, self.q
        columns = self.reduce_columns(extra_columns, m)
        planes = [np.zeros((g * q, c * q + columns.shape[1]), dtype=residue_dtype(m))
                  for _ in range(self.ring.unramified_degree)]
        if echelon:
            entries, place = self._echelon_relations(m)
            rows = _echelon_rows(entries)
        else:
            entries = (self._entries() % m).astype(residue_dtype(m))
            rows = np.arange(g * q).reshape(g, q)
            place = np.arange(c * q).reshape(c, q)
        for plane, coeffs in zip(planes, entries):
            wrapped = self._wrapped_columns(coeffs.reshape(g * c, q), m)
            for i in range(g):
                for j in range(c):
                    _put_mult_matrix(plane, coeffs[i, j], wrapped[i * c + j], rows[i], place[j])
        for plane, cols in zip(planes, columns):
            plane[rows.ravel(), c * q:] = cols.T
        return planes

    def _wrapped_columns(self, F, m):
        """The columns of each multiplication matrix that wrap, for the rows f of F mod m.

        Column k of the multiplication-by-f matrix is the remainder of f T^k,
        which differs from f shifted down by k only for the deg f values
        k >= q - deg f.  Those columns of every f are one ``_remainders`` of
        the shifted rows.  Returns one array per f, of shape (deg f, q), row
        w holding column q - deg f + w.
        """
        q = self.q
        nonzero = F != 0
        degrees = np.where(nonzero.any(axis=1), q - 1 - nonzero[:, ::-1].argmax(axis=1), 0)
        Y = np.zeros((int(degrees.sum()), q + int(degrees.max(initial=0))), dtype=F.dtype)
        row = 0
        for f, deg in zip(F, degrees.tolist()):
            if deg:
                shift = np.arange(deg)[:, None]
                Y[row + shift, q - deg + shift + np.arange(deg + 1)] = f[:deg + 1]
                row += deg
        return np.split(self._remainders(Y, m), np.cumsum(degrees)[:-1])

    def _echelon_relations(self, m):
        """Relations with the same span over R_n mod m, and where each expanded column goes.

        Modulo p, omega_n = T^q and R_n/p = F_p[T]/T^q (over O, with
        coefficients in O/p).  ``_echelon`` finds, on the entries mod p, a
        column operation E over it after which the key of each relation j
        (the least ord_T(a_ij mod p) g + i) names a generator no other key
        names, or j has none.  Any lift of E is invertible over R_n, so the
        relations A E mod omega_n, which this returns mod m as an array of
        shape (d, g, c, q), span the same R_n-module.

        With rows power-major, column (j, k), which is T^k times relation j,
        has its first nonzero row mod p at T^(k + key_j // g) of generator
        key_j mod g (zero mod p from k g + key_j >= q g on).  Keys on
        distinct generators make these rows distinct, and k g + key_j orders
        them, so the columns sorted by it (``place[j][k]``, its rank) have
        strictly increasing first nonzero rows: the unit pivots of the
        kernel's layer 0, which ``layer0`` names.  Columns of a relation
        without a key follow in block order.  The result is kept per modulus.
        """
        if m in self._echelon_at:
            return self._echelon_at[m]
        if self._echelon is None:
            self._echelon = _echelon(self._entries() % self.ring.prime, self.ring)
        E, keys = self._echelon
        g, c, q = self.presentation.generators, self.presentation.num_relations, self.q
        p, d, nu = self.ring.prime, self.ring.unramified_degree, self.ring.nu
        A = self._entries() % m
        step = E.copy()
        step[0, np.arange(c), np.arange(c), 0] -= 1  # A E = A + A (E - 1)
        step %= p
        terms = np.transpose(np.nonzero(step.any(axis=0))).tolist()
        if terms:
            dtype = np.int64 if p * (2 + abs(nu)) * m < 1 << 63 else object
            A = A.astype(dtype)
            out = np.zeros((d, g, c, 2 * q - 1), dtype=dtype)
            out[..., :q] = A
            for a, b, t in terms:
                out[:, :, b, t:t + q] = (out[:, :, b, t:t + q]
                                         + _o_scale(step[:, a, b, t].tolist(), A[:, :, a], nu)) % m
            # only the coefficients up to the top one are divided: below deg A
            # past T^q, so the power table stays that short
            out = out.reshape(-1, 2 * q - 1)
            top = np.flatnonzero(out.any(axis=0))
            A = self._remainders(out[:, :max(q, int(top[-1]) + 1 if top.size else 0)]
                                 .astype(residue_dtype(m)), m).reshape(d, g, c, q)
        # column (j, k) sorts by k g + key_j, a relation without a key after all of them
        lead = np.array([(2 + j) * q * g if key is None else key for j, key in enumerate(keys)],
                        dtype=np.int64)
        sort = lead[:, None] + np.arange(q) * g
        place = np.empty(c * q, dtype=np.int64)
        place[np.argsort(sort, axis=None, kind="stable")] = np.arange(c * q)
        self._echelon_at[m] = A.astype(residue_dtype(m)), place.reshape(c, q)
        return self._echelon_at[m]

    def layer0(self, working_exponent, width=0):
        """The known unit pivots and the column supports of the echelon expansion mod p^W.

        ``width`` is the number of extra columns after the relation block.
        Keyed column (j, k) with k + d_j < q, key_j = d_j g + i_j, pivots on
        the row of T^(k + d_j) at generator i_j, its first nonzero row mod p
        (``_echelon_relations``), and these columns are the first u of the
        expansion, in order.  Column (j, k) has its nonzero entries on the
        rows of the powers k + lo_j to k + deg_j, lo_j and deg_j the least
        and the largest power of a nonzero coefficient of relation j mod
        p^W: a band of whole powers, rows power-major.  A column that wraps
        (k + deg_j >= q) spans every power, and an extra column every row.
        Over O each is realified (``snf.regular_representation``): column 2c
        pivots on row 2r and 2c + 1 on 2r + 1, whose 2 x 2 block is the
        identity mod p, and both share the doubled rows of their support.

        Each power of T adds one pivot per keyed relation, d of them over O:
        the period, which keeps runs of pivots aligned on the powers so that
        they repeat their pivot block.

        Returns (pivots, top, bottom, period): pivots[c] is the pivot row of
        column c < u, and the nonzero rows of column c lie in
        [top[c], bottom[c]).
        """
        m = self.ring.prime**working_exponent
        entries, place = self._echelon_relations(m)
        rows = _echelon_rows(entries)
        g, c, q = self.presentation.generators, self.presentation.num_relations, self.q
        h = int(entries.any(axis=(0, 2, 3)).sum())
        powers = entries.any(axis=(0, 1))  # (c, q): the powers of each relation
        lo = powers.argmax(axis=1)
        deg = q - 1 - powers[:, ::-1].argmax(axis=1)
        k = np.arange(q)
        wraps = k + deg[:, None] >= q
        top = np.zeros(c * q + width, dtype=np.int64)
        bottom = np.full(c * q + width, g * q, dtype=np.int64)
        top[place] = np.where(wraps, 0, (k + lo[:, None]) * h)
        bottom[place] = np.where(wraps, q * h, (k + deg[:, None] + 1) * h)
        bottom[place[~powers.any(axis=1)]] = 0  # a zero relation meets no row
        pivots = np.full(c * q, -1, dtype=np.int64)
        u = 0
        for j, key in enumerate(self._echelon[1]):
            if key is not None:
                d, i = divmod(key, g)
                pivots[place[j, :q - d]] = rows[i, d:]
                u += q - d
        pivots = pivots[:u]
        d = self.ring.unramified_degree
        if d == 2:
            pivots = np.stack((2 * pivots, 2 * pivots + 1), axis=1).ravel()
            top, bottom = np.repeat(2 * top, 2), np.repeat(2 * bottom, 2)
        return pivots, top, bottom, d * sum(key is not None for key in self._echelon[1])

    def component_matrix(self, columns, m):
        """The relation block and the columns mod (Phi_j, m) as a matrix over O_j.

        An array of shape (g, c + K, q): entry (i, k) holds the q
        coefficients of an element of O_j = Z_p[T]/Phi_j.  ``columns`` are
        ambient columns, as ``reduce_columns`` takes them.  Over
        the quadratic ring it is the regular representation over O_j
        (``snf.regular_representation``), of shape (2g, 2(c + K), q).
        """
        g, c, q = self.presentation.generators, self.presentation.num_relations, self.q
        d = self.ring.unramified_degree
        cols = self.reduce_columns(columns, m)
        K = cols.shape[1]
        A = np.zeros((d, g, c + K, q), dtype=residue_dtype(m))
        A[:, :, :c] = self._entries() % m
        A[:, :, c:] = cols.reshape(d, K, g, q).transpose(0, 2, 1, 3)
        return snf.regular_representation(A, self.ring, m)


@functools.lru_cache(maxsize=None)
def _power_table(wrap, m, rows, p):
    """The exact product scheme mod m for ``rows`` terms, and the digits of -R mod m.

    ``wrap`` gives T^q = sum wrap_i T^i mod the monic modulus of degree q,
    and row k of R holds T^(q+k) mod the modulus: row k + 1 is row k times
    T, its top coefficient wrapped.  Each step adds top * wrap, a product
    of two residues: int64 while (m - 1)^2 + m fits in it, Python integers
    beyond.  ``_remainders`` and the products in O_j take the table, from
    which ``split.mul_sub(Y[:, q:], digits, X0=Y[:, :q])`` is
    y[:q] + y[q:] R.  The cached digits are shared by every caller and never
    written.
    """
    dtype = np.int64 if (m - 1) ** 2 + m < 1 << 63 else object
    wrap = np.array(wrap, dtype=dtype)
    R = np.empty((rows, wrap.size), dtype=dtype)
    row = wrap
    for k in range(rows):
        R[k] = row
        top = int(row[-1])
        row = np.concatenate(([0], row[:-1]))
        if top:
            row = (row + top * wrap) % m
    split = _exact_split(m, max(1, rows), p)
    return split, split.digits((-R % m).astype(residue_dtype(m)))


def _put_mult_matrix(plane, coeffs, wrapped, rows, cols):
    """Write the multiplication-by-f matrix into rows ``rows`` and columns ``cols`` of ``plane``.

    f has the q residues ``coeffs``, and entry (r, k) of the matrix, the T^r
    coefficient of f T^k modulo the modulus, goes to plane[rows[r], cols[k]].
    Up to column q - 1 - deg f, column k is f shifted down by k: the band,
    whose entries take one assignment into the flattened, C-contiguous
    plane.  The deg f later columns are ``wrapped`` (``_wrapped_columns``).
    A zero f writes nothing.
    """
    nonzero = np.flatnonzero(coeffs)
    if not nonzero.size:
        return
    q, deg = len(coeffs), len(wrapped)
    band = np.arange(q - deg)
    plane.reshape(-1)[rows[nonzero[:, None] + band] * plane.shape[1] + cols[band]] = \
        coeffs[nonzero][:, None]
    if deg:
        plane[rows[:, None], cols[q - deg:]] = wrapped.T


def _echelon_rows(entries):
    """The row of T^k at each generator in the echelon order, shape (g, q).

    Rows are power-major over the h generators that some relation meets, row
    k h + r for T^k at the r-th of them; the rows of the others follow in
    block order, whole rows of zeros that are never written (numpy backs
    large arrays by huge pages).
    """
    g, q = entries.shape[1], entries.shape[3]
    live = entries.any(axis=(0, 2, 3))
    h = int(live.sum())
    rank = np.empty(g, dtype=np.int64)
    rank[np.argsort(~live, kind="stable")] = np.arange(g)
    return np.where(live[:, None], np.arange(q) * h + rank[:, None],
                    rank[:, None] * q + np.arange(q))


def _o_scale(e, X, nu):
    """e X for e in O given by its coordinates and X of shape (d, ...), coordinate planes first."""
    if len(e) == 1:
        return e[0] * X
    return np.stack((e[0] * X[0] + nu * e[1] * X[1], e[0] * X[1] + e[1] * X[0]))


def _echelon(A, ring):
    """A column operation E mod p that puts relations mod p in T-adic echelon form.

    A holds the reduced relation entries mod p, shape (d, g, c, q), as
    elements of F_p[T]/T^q (O/p[T]/T^q over O).  Column j is read
    power-major, entry k g + i holding the T^k coefficient of generator i,
    and its key is its first nonzero entry.  Columns are taken in order;
    when column b's key names the same generator as the key of a column a
    already placed, with key_a <= key_b, column b loses the entry: b -= c
    T^s a with s = (key_b - key_a) / g and c the ratio of the two leading
    coefficients.  Each such step raises key_b, until it names a free
    generator or column b has no key (it is zero mod p, mod T^q).  A column
    with a smaller key than the placed one takes the generator and the
    placed one is taken again.  Over O a column is scaled to a leading
    coefficient 1 when it is placed, so that the 2 x 2 block of its
    leading entry in the regular representation is the identity mod p.

    Returns (E, keys): E of shape (d, c, c, q) with entries in [0, p), the
    relations A E having these keys, and keys[j] an int or None.
    """
    p, nu = ring.prime, ring.nu
    d, g, c, q = A.shape
    B = np.ascontiguousarray(A.transpose(0, 2, 3, 1).reshape(d, c, q * g), dtype=np.int64)
    E = np.zeros((d, c, c, q), dtype=np.int64)
    E[0, np.arange(c), np.arange(c), 0] = 1
    keys, inverse, owner = [None] * c, [None] * c, {}
    residue_field = CoefficientRing(p, d, 1)  # O/p
    todo = list(range(c))[::-1]
    while todo:
        b = todo.pop()
        while True:
            nonzero = B[:, b].any(axis=0)
            if not nonzero.any():
                keys[b] = None
                break
            key = int(nonzero.argmax())
            lead = B[:, b, key]
            a = owner.get(key % g)
            if a is None or keys[a] > key:
                inverse[b] = residue_field._inv_coords(lead.tolist())
                if d == 2:
                    B[:, b] = _o_scale(inverse[b], B[:, b], nu) % p
                    E[:, :, b] = _o_scale(inverse[b], E[:, :, b], nu) % p
                    inverse[b] = [1, 0]
                owner[key % g], keys[b] = b, key
                if a is not None:
                    todo.append(a)
                break
            ratio = (_o_scale(inverse[a], lead, nu) % p).tolist()
            s = (key - keys[a]) // g
            B[:, b, s * g:] = (B[:, b, s * g:] - _o_scale(ratio, B[:, a, :(q - s) * g], nu)) % p
            E[:, :, b, s:] = (E[:, :, b, s:] - _o_scale(ratio, E[:, :, a, :q - s], nu)) % p
    return E, keys


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

    The columns are a list of vectors or planes (``_kernels.to_planes``).
    Columns obtained from tracked transforms are exact only above a junk
    threshold; pass ``precision_cap`` to run the reduction below it.
    """
    fin = FinLevelModule(M, n)
    smith = _level_smith(fin, extra_columns=extra_columns,
                         with_transforms=with_transforms, precision_cap=precision_cap)
    return CoinvariantStructure(smith, fin)


def _level_smith(fin: FinLevelModule, extra_columns=(), with_transforms=False,
                 precision_cap=None):
    """Smith reduction of a level expansion quotiented by ambient columns.

    Runs ``snf.reduce`` with U tracked when ``with_transforms`` is set, aiming
    at an answer exact at p^min(N, precision_cap).  Untracked, the kernel
    reduces the expansion in echelon order; tracked, the block order.
    """
    return snf.reduce(_LevelSource(fin, extra_columns, echelon=not with_transforms), fin.ring,
                      with_transforms, _target_exponent(fin.ring, precision_cap))


def _target_exponent(ring, precision_cap):
    """The precision t of an answer exact at p^t: N, or min(N, precision_cap)."""
    if precision_cap is None:
        return ring.precision_exponent
    if precision_cap < 4:
        raise ValidationError(f"working precision {precision_cap} too low")
    return min(ring.precision_exponent, precision_cap)


class _LevelSource:
    """A level expansion and its quotient columns as a Smith source.

    The columns are reduced into the expansion's basis once, here, as the
    coordinate planes that ``reduce_columns`` returns.  With ``echelon`` the
    kernel's matrix is the echelon-ordered expansion, with the columns in
    its row order; ``coordinate_rows`` keeps the block order.  ``scan``
    hands the deep-entry test the reduced relation entries as given
    (``FinLevelModule._entries``), never the echelon ones, and the reduced
    columns.
    """

    def __init__(self, fin: FinLevelModule, extra_columns, echelon=False):
        self.fin = fin
        self.echelon = echelon
        self.columns = fin.reduce_columns(extra_columns)
        self.shape = (fin.nrows,
                      fin.presentation.num_relations * fin.q + self.columns.shape[1])

    def matrix_int64(self, working_exponent):
        return self.fin.matrix_int64(working_exponent, extra_columns=self.columns,
                                     echelon=self.echelon)

    def layer0(self, working_exponent):
        """The known pivots and column supports of ``matrix_int64``, in echelon order only."""
        if not self.echelon:
            return None
        return self.fin.layer0(working_exponent, self.columns.shape[1])

    def coordinate_rows(self):
        return self.fin.matrix_coords(extra_columns=self.columns)

    def scan(self):
        return self.fin._entries(), self.columns


def phi_component_ranks(M: ModulePresentation, n: int, extra_columns=(),
                        precision_cap: int | None = None,
                        base_free_rank: int | None = None) -> list:
    """Ranks of the Phi_j-isotypic pieces of the rationalized coinvariants.

    c_j is the rank of ker(Phi_j(T)) on the free part of M_{Gamma_n}, or of
    its quotient by ambient ``extra_columns``.  Since Phi_j divides omega_n,
    quotienting the level-n module by the Phi_j-action columns is the same
    as reducing the presentation modulo Phi_j, so c_j is the Z_p-free rank
    of M/Phi_j M: phi(p^j) times the free rank over O_j = Z_p[T]/Phi_j,
    from a g-row elimination over that discrete valuation ring
    (``component_ranks_against``).  The components must sum to the free rank
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
    """Component ranks c_0..c_n, optionally of a quotient by ambient columns.

    Modulo Phi_j the module is the cokernel of the g x (c + k) matrix of the
    relations and the k columns over O_j = Z_p[T]/Phi_j (``component_matrix``),
    a discrete valuation ring of rank q = phi(p^j) over Z_p.  With r its
    Smith invariants below the precision p^t = T^(q t) (``_dvr_pivots``),
    c_j = q (g - r); t is N, or ``precision_cap`` when given.  Over O the
    elimination runs on the regular representation over O_j, which has
    every invariant twice, so r is halved.
    """
    ring, g = M.ring, M.generators
    t = _target_exponent(ring, precision_cap)
    m = ring.prime**t
    _single_blas_thread()  # thin products, as in the Smith kernel
    columns = to_planes(extra_columns, ring.unramified_degree, m) if len(extra_columns) else ()
    ranks = []
    for j in range(n + 1):
        fin = FinLevelModule(M, n, component=j)
        r = _dvr_pivots(fin.component_matrix(columns, m), _component_ring(ring.prime, j, t))
        if ring.unramified_degree == 2:
            if r % 2:
                raise ArithmeticError(f"realified component rank {r} is odd")
            r //= 2
        ranks.append(fin.q * (g - r))
    return ranks


def _dvr_pivots(X, oj) -> int:
    """The number of Smith invariants of X over O_j below the valuation q t.

    X holds coefficient vectors mod p^t, shape (R, C, q), known mod p^t O_j
    = T^(q t).  Each step pivots on an entry of least valuation v and
    divides the active block exactly by p^a T^b, v = q a + b, which is T^v
    up to a unit (``_ComponentRing.divide``), and the precision drops by v;
    the ring is local, so the pivots' invariants come out sorted.  The
    pivot is then a unit u, and each other row with a nonzero entry f in
    its column becomes u row - f (pivot row): a unimodular row operation,
    since u is a unit, so no valuation compounds and no inverse is needed.
    An entry of valuation at or past the precision is zero.
    """
    precision = oj.q * oj.t
    count = 0
    while X.shape[0] and X.shape[1]:
        V = oj.valuations(X)
        i, c = divmod(int(V.argmin()), V.shape[1])
        v = int(V[i, c])
        if v >= precision:
            break
        live = np.flatnonzero(V[:, c] < precision)
        live = live[live != i]
        if v:
            X = oj.divide(X, v)
            precision -= v
        count += 1
        rest = np.delete(np.arange(X.shape[0]), i)
        keep = np.delete(np.arange(X.shape[1]), c)
        if live.size and keep.size:
            X[np.ix_(live, keep)] = oj.eliminate(X[i, c], X[live, c], X[i, keep],
                                                 X[np.ix_(live, keep)])
        X = X[np.ix_(rest, keep)]
    return count


@functools.lru_cache(maxsize=None)
def _component_ring(p, j, t):
    return _ComponentRing(p, j, t)


class _ComponentRing:
    """Arithmetic mod p^t in O_j = Z_p[T]/Phi_j on coefficient vectors (..., q).

    Phi_j is Eisenstein of degree q = phi(p^j), so O_j is a discrete
    valuation ring with uniformizer T and p = unit T^q; the valuation of
    sum a_i T^i is the least q v_p(a_i) + i.  At j = 0, Phi_0 = T, O_0 = Z_p
    and the uniformizer is p.  A product of x by f is one Toeplitz product
    of x with the shifts of f, which gives the 2q - 1 coefficients of the
    polynomial product, and one product with the power table of Phi_j
    (``_power_table``), which reduces them; both are exact split products
    mod p^t.  The digits of f are taken once and laid out as its Toeplitz
    matrix, and the table's digits are cached.
    """

    def __init__(self, p, j, t):
        q, m = phi_degree(p, j), p**t
        wrap = _modulus(CoefficientRing(p, 1, t), None, j)[1]
        self.p, self.q, self.t, self.m = p, q, t, m
        self.split = _exact_split(m, q, p)
        if q == 1:
            return
        self.tail, self.table = _power_table(wrap, m, q - 1, p)
        # e_k = p / T^k for k < q: e_1 from p = -T (T^(q-1) + c_(q-1) T^(q-2) + ... + c_1),
        # as c_0 = p; e_(k+1) = e_k / T = (e_k[0] / p) e_1 + (e_k shifted down).  Each
        # step divides the error of a residue mod p^t by T, so e_k is exact below
        # T^(q t - k + 1), past the precision that a division by T^b, b >= k, leaves.
        e1 = list(wrap[1:]) + [m - 1]
        rows = [e1]
        for _ in range(q - 2):
            z = rows[-1][0] // p
            rows.append([(x + z * y) % m for x, y in zip(rows[-1][1:] + [0], e1)])
        quotients = np.array(rows[::-1], dtype=object)  # e_(q-1), ..., e_1
        self.quotients = self.tail.digits((-quotients % m).astype(residue_dtype(m)))

    def valuations(self, X):
        """The valuation of every entry of X, an array of shape (..., q); q t for zero.

        An entry whose coefficients are divisible by p^e but not all by
        p^(e+1) has valuation q e + (the first index of a coefficient that
        p^(e+1) does not divide).
        """
        p, q = self.p, self.q
        Z = X.reshape(-1, q)
        V = np.full(Z.shape[0], q * self.t, dtype=np.int64)
        ids = np.flatnonzero((Z != 0).any(axis=1))
        Z = Z[ids]
        base = 0
        while ids.size:
            unit = Z % p != 0
            found = unit.any(axis=1)
            V[ids[found]] = base + unit[found].argmax(axis=1)
            ids, Z = ids[~found], Z[~found] // p
            base += q
        return V.reshape(X.shape[:-1])

    def divide(self, X, v):
        """X / (p^a T^b) for X of valuation >= v = q a + b, b < q.

        p^a T^b is T^v up to a unit, which leaves the Smith invariants
        below the precision as they are.  Every coefficient is divisible
        by p^a; then those below T^b are divisible by p, and x / T^b =
        sum over i >= b of x_i T^(i-b) + sum over i < b of (x_i / p)
        e_(b-i): one product with the table of the e_k = p / T^k.
        """
        a, b = divmod(v, self.q)
        if a:
            X = X // self.p**a
        if b:
            R, C, q = X.shape
            shifted = np.zeros_like(X)
            shifted[..., :q - b] = X[..., b:]
            low = (X[..., :b] // self.p).reshape(R * C, b)
            X = self.tail.mul_sub(low, [d[q - 1 - b:] for d in self.quotients],
                                  X0=shifted.reshape(R * C, q)).reshape(R, C, q)
        return X

    def eliminate(self, u, F, P, X):
        """u X[l] - F[l] P for every row l, over O_j: shape (L, C, q) like X."""
        L, C, q = X.shape
        split, w = self.split, 2 * q - 1
        Y = split.mul_sub(P, [_toeplitz(d) for d in split.digits(F)])  # -F[l] P
        Y = Y.reshape(C, L, w).transpose(1, 0, 2).reshape(L * C, w)
        Y = split.mul_sub(X.reshape(L * C, q),
                          [_toeplitz(d) for d in split.digits((-u % self.m)[None])], X0=Y)
        if q > 1:
            Y = self.tail.mul_sub(Y[:, q:], self.table, X0=Y[:, :q])
        return Y.reshape(L, C, q)


def _toeplitz(F):
    """The shifts of each row of F (L x q) side by side: a q x L(2q - 1) matrix.

    Block l has F[l] shifted right by b in row b, so x @ block l holds the
    2q - 1 coefficients of the polynomial product of x and F[l]: a strided
    view of the zero-padded rows, read from column q - 1 - b of the padding
    onwards, copied once.
    """
    L, q = F.shape
    G = np.zeros((L, 3 * q - 2), dtype=F.dtype)
    G[:, q - 1:2 * q - 1] = F
    row, step = G.strides
    shifts = np.lib.stride_tricks.as_strided(G[:, q - 1:], shape=(q, L, 2 * q - 1),
                                             strides=(-step, row, step), writeable=False)
    return shifts.reshape(q, L * (2 * q - 1))


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
    images = lo.fin_level.reduce_columns(hi.smith.generator_columns(hi.smith.torsion_positions))
    if images.shape[1] and not all(lo.smith.is_torsion_block(images)):
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
        rows = [[IwasawaPoly(ring, [[_json_int(s, "relation coefficient")
                                     for s in _json_list(coeff, "coefficient")]
                                    for coeff in _json_list(entry, "relation entry")])
                 for entry in _json_list(row, "relation row")]
                for row in _json_list(doc.get("relations", []), "relations")]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed presentation JSON: {exc}") from exc
    cap = doc.get("level_cap")
    return ModulePresentation(ring, generators, rows,
                              None if cap is None else _json_int(cap, "level_cap"))


def _json_list(value, name):
    """A field the schema gives as a JSON array: never a string, an object or a number."""
    if isinstance(value, list):
        return value
    raise ValidationError(f"malformed presentation JSON: {name} {value!r} is not an array")


def parse_integer(value, name):
    """An integer from outside the program: a JSON integer or a string of ASCII digits.

    The string may carry a sign.  Never a float or a bool, nor what ``int``
    takes besides: underscores (1_3), non-ASCII digits, surrounding spaces.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    raise ValidationError(f"{name} {value!r} is not an integer")


def _json_int(value, name):
    """An integer field of presentation JSON (``parse_integer``)."""
    return parse_integer(value, f"malformed presentation JSON: {name}")
