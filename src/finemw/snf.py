"""Smith normal form over the coefficient ring (a complete DVR with uniformizer p).

Because the ring is local, pivoting on a minimum-valuation entry always
succeeds and the divisor valuations come out sorted.

Every reduction takes one route, ``reduce(source, ring, track, target)``.  A
source hides the matrix format: it gives the shape, the matrix mod p^W
(``matrix_int64``), the full-precision coordinate rows and, from ``scan``,
the integer arrays mod p^N whose nonzero entries the deep-entry test reads.
``smith_normal_form`` wraps coordinate rows, which it scans as planes;
``presentations`` wraps a level expansion together with its quotient
columns.  Untracked, that source hands the kernel the expansion of
column-equivalent relations in T-adic echelon order, which has the same
Smith form, with its layer-0 unit pivots and the rows each column spans
(``layer0``), while its scan gives the relation entries as given and the
quotient columns.
Over the quadratic ring the kernel reduces the regular representation
(``regular_representation``): each entry a + b x becomes the 2 x 2 block
[[a, nu b], [b, a]], and its Smith exponents over Z_p are the O-exponents,
each twice, because O/p^e is (Z_p/p^e)^2 as a Z_p-module.  The route aims
at an answer exact at p^target, by default the ring's precision p^N:

* A tracked reduction over the quadratic ring, or of at most
  ``PURE_SIZE_LIMIT`` entries over Z_p, runs the Python engine
  (``_run_python``: exact coordinate arithmetic in either degree, one pivot
  at a time at the global minimum valuation, ties by lowest row then
  column).  Its pivot order fixes the torsion bases that verify draws from,
  and a Z_p-linear transform of the regular representation is not
  O-linear.
* Every other reduction runs the valuation-layered kernel of ``_kernels``,
  which is exact at every modulus: it stores residues as int32 while the
  modulus is at most 2^31 (the reduced working precision at p = 5, 7), as
  int64 up to 2^63 and as Python integers beyond (``residue_dtype``), and
  sums its products in int64 while they fit and as Python integers beyond
  (7^24).
* A larger matrix over Z_p first runs the kernel at the reduced working
  precision p^W, W = min(target, int64 cap), with or without the row
  transform.  Exponents below W - 2 equal the full-precision answer.  An
  exponent at or above that threshold, or a nonzero entry that deep in the
  source's scan (``has_deep_entries``), makes the result suspicious, and a
  suspicious result is redone by the kernel at p^target.  A deep invariant
  behind entries that all look shallow (a unit block with determinant p^k,
  k >= W) passes that test unnoticed and counts as free rank.

A tracked result applies its transform to blocks of vectors, coordinate
planes (d, K, R) (``_kernels.to_planes``): ``reduce_block`` gives U W,
``generator_columns`` columns of U^-1, ``is_torsion_block`` the torsion
membership of each vector; the one-vector calls convert lists.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._kernels import BlockTransform, int64_precision_cap, residues, to_planes
from ._kernels import snf_int64  # noqa: F401  perfbench's BINDINGS resolves snf.snf_int64
from .errors import ValidationError
from .padics import CoefficientRing, _int_valuation

PURE_SIZE_LIMIT = 4096  # entries; at or below this always run full precision


def _normalize_rows(rows, ring):
    """Coerce a matrix of RingElem/int/coords into coordinate tuples (``ring.element``)."""
    out = [[ring.element(entry).coords for entry in row] for row in rows]
    width = len(out[0]) if out else 0
    if any(len(row) != width for row in out):
        raise ValidationError("ragged matrix")
    return out, len(out), width


class SmithResult:
    """Outcome of a Smith reduction: divisor exponents plus an optional row transform.

    ``exponents`` lists the p-valuations of the nonzero diagonal divisors in
    nondecreasing order (units contribute exponent 0).  The cokernel of the
    input matrix is O^free_rank plus one O/p^e summand per positive exponent.
    ``certified``, the one certification flag, is False when summands deeper
    than the precision used may be missing from the torsion and counted as
    free rank: when a positive exponent reaches ``precision_used - 2``.
    """

    def __init__(self, ring, engine, precision_used, nrows, ncols, exponents,
                 transform=None):
        self.ring = ring
        self.engine = engine
        self.precision_used = precision_used
        self.nrows = nrows
        self.ncols = ncols
        self.exponents = list(exponents)
        self._transform = transform
        self.modulus = ring.prime**precision_used
        self.certified = all(e < precision_used - 2 for e in self.exponents if e > 0)

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

    @property
    def torsion_positions(self):
        return [k for k, e in enumerate(self.exponents) if e > 0]

    @property
    def junk_free_precision(self) -> int:
        """Exponent below which transform-derived vectors are exact.

        Divisions by p^v during the reduction mean the tracked transform
        only agrees with an exact lift modulo p^(W - max exponent); two more
        digits are kept as a buffer.  Torsion membership is tested, and
        quotients by generator columns are reduced, at this precision.
        """
        return self.precision_used - (max(self.exponents, default=0) + 2)

    # -- transform access -----------------------------------------------------

    def _need_transform(self):
        if self._transform is None:
            raise ValidationError("run smith_normal_form with with_transforms=True")
        return self._transform

    def generator_columns(self, ks):
        """Columns ``ks`` of U^-1, the ambient vectors of those summands, as planes (d, K, R)."""
        return self._need_transform().generator_columns(list(ks))

    def reduce_block(self, vectors):
        """U W: vectors (planes or a list, ``to_planes``) in the diagonalized basis, as planes."""
        return self._need_transform().reduce_block(
            to_planes(vectors, self.ring.unramified_degree, self.modulus))

    def is_torsion_block(self, vectors) -> list:
        """For each vector, True when it lies in the torsion part of the cokernel.

        Free coordinates of U w must vanish, tested modulo
        p^``junk_free_precision`` rather than at full working precision.
        """
        threshold = self.junk_free_precision
        if threshold <= 0:
            raise ValidationError(
                "torsion membership undecidable: exponents too close to precision")
        free = self.reduce_block(vectors)[:, :, self.rank:]
        return (residues(free, self.ring.prime**threshold) == 0).all(axis=(0, 2)).tolist()

    def generator_column(self, k):
        return self._need_transform().generator_column(k)

    def reduce_vector(self, w):
        return self._need_transform().reduce_vector(w)

    def is_torsion_vector(self, w) -> bool:
        return self.is_torsion_block([w])[0]

    def __repr__(self):
        return (f"SmithResult({self.nrows}x{self.ncols}, exps={self.exponents}, "
                f"free={self.free_rank}, engine={self.engine})")


class _PythonTransform(BlockTransform):
    """U and U^-1 of the Python engine, given as rows of coordinate tuples.

    U is kept as its regular representation over Z_p: U W is one exact
    product on the Z_p-coordinates of W, row d i + s holding coordinate s of
    entry i.  U^-1 is kept as coordinate planes, whose columns are read off.
    """

    def __init__(self, ring, modulus, U, Uinv):
        self.ring = ring
        self.modulus = modulus
        self.degree = ring.unramified_degree
        self.U = regular_representation(to_planes(U, self.degree, modulus), ring, modulus)
        self.Uinv = to_planes(Uinv, self.degree, modulus)  # plane s, row i, column k

    def reduce_block(self, planes):
        """U W for the planes (d, K, R) of K vectors mod the modulus."""
        d, K, R = planes.shape
        W = planes.transpose(2, 0, 1).reshape(R * d, K)
        Y = _kernels._mulmod(self.U, W, self.modulus, self.ring.prime)
        return residues(Y.reshape(R, d, K).transpose(1, 2, 0), self.modulus)

    def generator_columns(self, ks):
        """The columns ``ks`` of U^-1 as planes (d, K, R)."""
        return self.Uinv[:, :, ks].transpose(0, 2, 1)


def has_deep_entries(arrays, p, threshold) -> bool:
    """True if a nonzero entry of the ``arrays`` is divisible by p^threshold: one remainder each."""
    if threshold <= 0:
        return True
    pt = p**threshold
    return any(((A != 0) & (residues(A, pt) == 0)).any() for A in arrays)


def smith_normal_form(rows, ring: CoefficientRing,
                      with_transforms: bool = False) -> SmithResult:
    """Diagonalize a matrix over the coefficient ring by unimodular transforms.

    ``rows`` is a sequence of rows of RingElem/int/coordinate entries.  The
    returned exponents are sorted ascending; ``reduce`` chooses the engine
    and the working precision.
    """
    mat, R, C = _normalize_rows(rows, ring)
    return reduce(_RowSource(mat, R, C, ring), ring, with_transforms)


class _RowSource:
    """Coordinate rows, as ``_normalize_rows`` returns them, as a Smith source."""

    def __init__(self, rows, nrows, ncols, ring):
        self.rows = rows
        self.shape = (nrows, ncols)
        self.ring = ring

    def matrix_int64(self, working_exponent):
        """The matrix mod p^W as ``residue_dtype`` residues: Python integers past 2^63."""
        m = self.ring.prime**working_exponent
        return regular_representation(to_planes(self.rows, self.ring.unramified_degree, m),
                                      self.ring, m)

    def layer0(self, working_exponent):
        return None

    def coordinate_rows(self):
        return self.rows

    def scan(self):
        return (to_planes(self.rows, self.ring.unramified_degree, self.ring.modulus),)


def reduce(source, ring: CoefficientRing, track: bool, target: int | None = None) -> SmithResult:
    """Smith-reduce ``source`` over ``ring``, aiming at an answer exact at p^target.

    ``source`` has ``shape`` (R, C), ``matrix_int64(W)`` (the matrix mod
    p^W, the regular representation over the quadratic ring), ``layer0(W)``
    (None, or the known unit pivots and column supports of that matrix,
    which the kernel's layer 0 takes: ``_kernels._unit_layer``),
    ``coordinate_rows()`` (full-precision coordinate tuples) and ``scan()``
    (integer arrays mod p^N whose nonzero entries the deep-entry test reads).
    ``track`` asks for the row transform U (``reduce_block``) and U^-1
    (``generator_columns``).  ``target`` defaults to the ring's precision N.
    """
    p, N = ring.prime, ring.precision_exponent
    target = N if target is None else target
    R, C = source.shape
    # a matrix without columns still costs R entries (R^2 with transforms) in
    # the Python engine, so its size counts one column
    small = R * max(C, 1) <= PURE_SIZE_LIMIT
    if track and (small or ring.unramified_degree == 2):
        return _run_python(source.coordinate_rows(), R, C, ring, track,
                           precision=None if target == N else target)
    if ring.unramified_degree == 1 and not small:
        W = min(target, int64_precision_cap(p))
        exponents, transform = _kernels.snf_int64(source.matrix_int64(W), p, p**W, track,
                                                  layer0=source.layer0(W))
        suspicious = W < target and (any(e >= W - 2 for e in exponents)
                                     or has_deep_entries(source.scan(), p, W - 2))
        if not suspicious:
            return SmithResult(ring, "int64", W, R, C, exponents, transform)
    exponents, transform = _kernels.snf_int64(source.matrix_int64(target), p, p**target, track,
                                              layer0=source.layer0(target))
    if ring.unramified_degree == 2:
        if len(exponents) % 2 or exponents[0::2] != exponents[1::2]:
            raise ArithmeticError(f"realified Smith exponents {exponents} do not pair up")
        exponents = exponents[0::2]
    return SmithResult(ring, "int64", target, R, C, exponents, transform)


def regular_representation(planes, ring, m):
    """The Z_p-matrix mod m of an O-matrix given by its coordinate planes mod m.

    Plane s holds coordinate s of every entry, as ``residue_dtype(m)``.  Over Z_p that is
    plane 0.  Over the quadratic ring entry (i, j) = a + b x becomes rows
    2i, 2i + 1 and columns 2j, 2j + 1 of a 2R x 2C matrix: the block
    [[a, nu b], [b, a]] of multiplication by a + b x on the basis (1, x).
    An entry may be a vector along trailing axes, such as the coefficients
    of an element of Z_p[T]/Phi_j, on which nu b acts coefficientwise.
    """
    if ring.unramified_degree == 1:
        return planes[0]
    a, b = planes
    A = np.empty((2 * a.shape[0], 2 * a.shape[1], *a.shape[2:]), dtype=a.dtype)
    A[0::2, 0::2] = A[1::2, 1::2] = a
    A[1::2, 0::2] = b
    # nu b passes the residue dtype: int32 from m > 2^31 / |nu| on, int64 for
    # larger primes (p = 17 at 17^15 is admitted)
    wide = np.int64 if (m - 1) * -ring.nu < 1 << 63 else object
    A[0::2, 1::2] = b.astype(wide, copy=False) * ring.nu % m
    return A


def _run_python(mat, R, C, ring, track, precision=None):
    p = ring.prime
    N = precision if precision is not None else ring.precision_exponent
    pn = p**N
    d = ring.unramified_degree
    if precision is not None:
        mat = [[tuple(c % pn for c in entry) for entry in row] for row in mat]
    zero = tuple(0 for _ in range(d))
    A = [list(row) for row in mat]
    if track:
        one = ring.one().coords
        U = [[one if i == j else zero for j in range(R)] for i in range(R)]
        Uinv = [[one if i == j else zero for j in range(R)] for i in range(R)]

    def mul(a, b):
        return tuple(c % pn for c in ring._mul_coords(a, b))

    def val(entry):
        vs = [_int_valuation(c, p) for c in entry if c]
        return min(vs) if vs else None

    def sub_scaled(row_dst, row_src, q, start=0):
        for c in range(start, len(row_dst)):
            prod = mul(q, row_src[c])
            row_dst[c] = tuple((a - b) % pn for a, b in zip(row_dst[c], prod))

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
            if track:
                U[k], U[bi] = U[bi], U[k]
                for r in range(R):
                    Uinv[r][k], Uinv[r][bi] = Uinv[r][bi], Uinv[r][k]
        if bj != k:
            for r in range(R):
                A[r][k], A[r][bj] = A[r][bj], A[r][k]
        pv = p**v
        unit = tuple(c // pv for c in A[k][k])
        uinv = ring._inv_coords(unit)
        for c in range(k, C):
            A[k][c] = mul(A[k][c], uinv)
        if track:
            for c in range(R):
                U[k][c] = mul(U[k][c], uinv)
            for r in range(R):
                Uinv[r][k] = mul(Uinv[r][k], unit)
        for r in range(k + 1, R):
            if any(A[r][k]):
                q = tuple(c // pv for c in A[r][k])
                sub_scaled(A[r], A[k], q, start=k)
                if track:
                    sub_scaled(U[r], U[k], q)
                    for rr in range(R):
                        prod = mul(q, Uinv[rr][r])
                        Uinv[rr][k] = tuple((a + b) % pn for a, b in zip(Uinv[rr][k], prod))
        exponents.append(v)
    transform = _PythonTransform(ring, pn, U, Uinv) if track else None
    return SmithResult(ring, "python", N, R, C, exponents, transform)
