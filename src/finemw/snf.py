"""Smith normal form over the coefficient ring (a complete DVR with uniformizer p).

Because the ring is local, pivoting on a minimum-valuation entry always
succeeds and the divisor valuations come out sorted.  Two engines:

* ``python``: exact arithmetic at the ring's full precision p^N, any
  unramified degree, one pivot at a time (global minimum valuation, ties by
  lowest row then column).  Used for small matrices and as the
  certification fallback.
* ``int64``: numpy kernels for degree-1 rings at a reduced working
  precision p^W with W = min(N, int64 cap).  Divisor-only reductions run
  the valuation-layered kernel of ``_kernels``, whose unit pivots come from
  a left-looking panel factorisation; reductions with transforms run its
  per-pivot kernel.  The exponents are the Smith invariants mod p^W either
  way.  Exponents below W - 2 are identical to the full-precision answer.
  An exponent at or above that threshold, or an input entry that deep,
  triggers a full-precision rerun when the matrix is small enough, and
  otherwise marks the result uncertified (``SmithResult.certified``).
"""

from __future__ import annotations

import numpy as np

from ._kernels import _mulmod, int64_precision_cap, snf_int64
from .errors import ValidationError
from .padics import CoefficientRing, RingElem, _int_valuation

PURE_SIZE_LIMIT = 4096  # entries; at or below this always run full precision
RETRY_SIZE_LIMIT = 60000  # entries; below this an uncertified fast run is redone


def _normalize_rows(rows, ring):
    """Coerce a matrix of RingElem/int/coords into coordinate tuples."""
    out = []
    width = None
    for row in rows:
        r = []
        for entry in row:
            if isinstance(entry, RingElem):
                if entry.ring != ring:
                    raise ValidationError("matrix entry from a different ring")
                r.append(entry.coords)
            elif isinstance(entry, int):
                r.append(ring.element(entry).coords)
            else:
                r.append(ring.element(entry).coords)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValidationError("ragged matrix")
        out.append(r)
    return out, len(out), (width or 0)


class SmithResult:
    """Outcome of a Smith reduction: divisor exponents plus optional transforms.

    ``exponents`` lists the p-valuations of the nonzero diagonal divisors in
    nondecreasing order (units contribute exponent 0).  The cokernel of the
    input matrix is O^free_rank plus one O/p^e summand per positive exponent.
    """

    def __init__(self, ring, engine, precision_used, nrows, ncols, exponents,
                 transforms=None, certified=True):
        self.ring = ring
        self.engine = engine
        self.precision_used = precision_used
        self.nrows = nrows
        self.ncols = ncols
        self.exponents = list(exponents)
        self._transforms = transforms
        self.modulus = ring.prime**precision_used
        # False when a reduced-precision run met entries or exponents at its
        # certification threshold and no full-precision rerun was made: then
        # summands deeper than the working precision may count as free rank
        self.certified = certified

    # -- structure ------------------------------------------------------------

    @property
    def rank(self) -> int:
        """Number of nonzero divisors at working precision."""
        return len(self.exponents)

    @property
    def free_rank(self) -> int:
        return self.nrows - self.rank

    @property
    def torsion_exponents(self):
        """Positive exponents, weakly decreasing."""
        return sorted((e for e in self.exponents if e > 0), reverse=True)

    @property
    def torsion_order(self) -> int:
        return sum(e for e in self.exponents if e > 0)

    def certified_exponents(self, session_precision=None):
        cap = self.precision_used
        if session_precision is not None:
            cap = min(cap, session_precision)
        return [e < cap - 2 for e in self.exponents]

    @property
    def torsion_positions(self):
        return [k for k, e in enumerate(self.exponents) if e > 0]

    # -- transform access -----------------------------------------------------

    def _need_transforms(self):
        if self._transforms is None:
            raise ValidationError("run smith_normal_form with with_transforms=True")
        return self._transforms

    @property
    def transforms(self):
        """(U, Uinv, V, Vinv) with U*A*V diagonal; engine-native arrays."""
        return self._need_transforms()

    def generator_column(self, k):
        """Column of U^-1 giving the ambient vector of cokernel summand k."""
        U, Uinv, V, Vinv = self._need_transforms()
        if self.engine == "int64":
            return [int(x) for x in Uinv[:, k]]
        if self.ring.unramified_degree == 1:
            return [row[k][0] for row in Uinv]
        return [row[k] for row in Uinv]

    def reduce_vector(self, w):
        """U*w: coordinates of an ambient vector in the diagonalized basis."""
        U, Uinv, V, Vinv = self._need_transforms()
        if self.engine == "int64":
            # callers pass Python ints beyond int64 (p-power scalings, T-action
            # mod p^N); reduce before converting
            w = np.asarray([int(x) % self.modulus for x in w], dtype=np.int64)
            return [int(x) for x in _mulmod(U, w[:, None], self.modulus)[:, 0]]
        pn = self.modulus
        out = []
        for row in U:
            acc = tuple(0 for _ in range(self.ring.unramified_degree))
            for u, x in zip(row, w):
                acc = tuple((a + b) % pn
                            for a, b in zip(acc, self.ring._mul_coords(u, _coords_of(x, self.ring))))
            out.append(acc)
        return out

    def is_torsion_vector(self, w) -> bool:
        """True when w lies in the torsion part of the cokernel.

        Free coordinates of U*w must vanish.  Divisions by p^v during the
        reduction mean the tracked transform only agrees with an exact lift
        modulo p^(W - max exponent), so vanishing is tested at that certified
        threshold (minus the usual two-digit buffer) rather than at full
        working precision.
        """
        slack = max(self.exponents, default=0) + 2
        threshold = self.precision_used - slack
        if threshold <= 0:
            raise ValidationError(
                "torsion membership undecidable: exponents too close to precision")
        pt = self.ring.prime**threshold
        y = self.reduce_vector(w)
        for k in range(self.rank, self.nrows):
            if not _is_zero_mod(y[k], pt):
                return False
        return True

    def __repr__(self):
        return (f"SmithResult({self.nrows}x{self.ncols}, exps={self.exponents}, "
                f"free={self.free_rank}, engine={self.engine})")


def _coords_of(x, ring):
    if isinstance(x, tuple):
        return x
    if isinstance(x, RingElem):
        return x.coords
    return ring.element(int(x)).coords


def _is_zero_entry(x):
    if isinstance(x, tuple):
        return all(c == 0 for c in x)
    return int(x) == 0


def _has_deep_entries(mat, p, threshold) -> bool:
    """True if some nonzero full-precision entry vanishes to depth >= threshold."""
    if threshold <= 0:
        return True
    pt = p**threshold
    for row in mat:
        for entry in row:
            for c in entry:
                if c and c % pt == 0:
                    return True
    return False


def _is_zero_mod(x, modulus):
    if isinstance(x, tuple):
        return all(c % modulus == 0 for c in x)
    return int(x) % modulus == 0


def smith_normal_form(rows, ring: CoefficientRing, with_transforms: bool = False,
                      engine: str | None = None) -> SmithResult:
    """Diagonalize a matrix over the coefficient ring by unimodular transforms.

    ``rows`` is a sequence of rows of RingElem/int/coordinate entries.  The
    returned exponents are sorted ascending.  An int64 run whose exponents or
    input entries reach the certification threshold is redone at full
    precision when the matrix is small enough; otherwise the result has
    ``certified`` False.
    """
    mat, R, C = _normalize_rows(rows, ring)
    if engine is None:
        if ring.unramified_degree > 1 or R * C <= PURE_SIZE_LIMIT:
            engine = "python"
        else:
            engine = "int64"
    track = 2 if with_transforms else 0
    if engine == "int64":
        if ring.unramified_degree != 1:
            raise ValidationError("int64 engine requires unramified degree 1")
        result = _run_int64(mat, R, C, ring, track)
        wprec = result.precision_used
        suspicious = (any(e >= wprec - 2 for e in result.exponents)
                      or _has_deep_entries(mat, ring.prime, wprec - 2))
        if wprec < ring.precision_exponent and suspicious:
            if R * C <= RETRY_SIZE_LIMIT:
                return _run_python(mat, R, C, ring, track)
            result.certified = False
        return result
    if engine == "python":
        return _run_python(mat, R, C, ring, track)
    raise ValidationError(f"unknown engine {engine!r}")


def _run_int64(mat, R, C, ring, track):
    p = ring.prime
    W = min(ring.precision_exponent, int64_precision_cap(p))
    m = p**W
    A = np.zeros((R, C), dtype=np.int64)
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            A[i, j] = entry[0] % m
    exponents, U, Uinv, V, Vinv = snf_int64(A, p, m, track)
    transforms = (U, Uinv, V, Vinv) if track >= 1 else None
    return SmithResult(ring, "int64", W, R, C, exponents, transforms)


def _run_python(mat, R, C, ring, track, precision=None):
    p = ring.prime
    N = precision if precision is not None else ring.precision_exponent
    pn = p**N
    d = ring.unramified_degree
    if precision is not None:
        mat = [[tuple(c % pn for c in entry) for entry in row] for row in mat]
    zero = tuple(0 for _ in range(d))
    track = 2 if track is True else int(track)
    A = [list(row) for row in mat]
    U = Uinv = V = Vinv = None
    if track >= 1:
        one = ring.one().coords
        U = [[one if i == j else zero for j in range(R)] for i in range(R)]
        Uinv = [[one if i == j else zero for j in range(R)] for i in range(R)]
    if track >= 2:
        one = ring.one().coords
        V = [[one if i == j else zero for j in range(C)] for i in range(C)]
        Vinv = [[one if i == j else zero for j in range(C)] for i in range(C)]

    def mul(a, b):
        return tuple(c % pn for c in ring._mul_coords(a, b))

    def val(entry):
        vs = [_int_valuation(c, p) for c in entry if c]
        return min(vs) if vs else None

    def sub_scaled(row_dst, row_src, q, start=0):
        for c in range(start, len(row_dst)):
            prod = mul(q, row_src[c])
            row_dst[c] = tuple((a - b) % pn for a, b in zip(row_dst[c], prod))

    def add_scaled(row_dst, row_src, q, start=0):
        for c in range(start, len(row_dst)):
            prod = mul(q, row_src[c])
            row_dst[c] = tuple((a + b) % pn for a, b in zip(row_dst[c], prod))

    exponents = []
    for k in range(min(R, C)):
        best = None
        for i in range(k, R):
            for j in range(k, C):
                v = val(A[i][j])
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 0:
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, bi, bj = best
        if bi != k:
            A[k], A[bi] = A[bi], A[k]
            if track >= 1:
                U[k], U[bi] = U[bi], U[k]
                for r in range(R):
                    Uinv[r][k], Uinv[r][bi] = Uinv[r][bi], Uinv[r][k]
        if bj != k:
            for r in range(R):
                A[r][k], A[r][bj] = A[r][bj], A[r][k]
            if track >= 2:
                for r in range(C):
                    V[r][k], V[r][bj] = V[r][bj], V[r][k]
                Vinv[k], Vinv[bj] = Vinv[bj], Vinv[k]
        pv = p**v
        unit = tuple(c // pv for c in A[k][k])
        uinv = ring._inv_coords(unit)
        for c in range(k, C):
            A[k][c] = mul(A[k][c], uinv)
        if track >= 1:
            for c in range(R):
                U[k][c] = mul(U[k][c], uinv)
            for r in range(R):
                Uinv[r][k] = mul(Uinv[r][k], unit)
        for r in range(k + 1, R):
            if any(A[r][k]):
                q = tuple(c // pv for c in A[r][k])
                sub_scaled(A[r], A[k], q, start=k)
                if track >= 1:
                    sub_scaled(U[r], U[k], q)
                    for rr in range(R):
                        prod = mul(q, Uinv[rr][r])
                        Uinv[rr][k] = tuple((a + b) % pn for a, b in zip(Uinv[rr][k], prod))
        for c in range(k + 1, C):
            if any(A[k][c]):
                q = tuple(x // pv for x in A[k][c])
                A[k][c] = zero
                if track >= 2:
                    # V: col_c -= q * col_k ; Vinv: row_k += q * row_c
                    for r in range(C):
                        prod = mul(q, V[r][k])
                        V[r][c] = tuple((a - b) % pn for a, b in zip(V[r][c], prod))
                    add_scaled(Vinv[k], Vinv[c], q)
        exponents.append(v)
    transforms = (U, Uinv, V, Vinv) if track >= 1 else None
    return SmithResult(ring, "python", N, R, C, exponents, transforms)
