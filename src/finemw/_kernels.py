"""The layered Smith-form kernel over Z/p^w.

All arithmetic is exact in Z/m for every prime power m = p^w.  Residues are
stored in the narrowest type that holds them (``residue_dtype``): int32
while m <= 2^31, so the reduced working precision p^W of p = 5, 7 and every
layer below 2^31 take half the bytes, int64 while m <= 2^63 and Python
integers in numpy object arrays beyond.  Arithmetic widens before it could
pass the storage type (a sum of two residues passes 2^31 once m > 2^30):
the split products take int32 operands and return int64 or Python
integers, and a residue array is only written back once reduced.  A
matrix over the quadratic ring arrives as its regular representation over
Z_p (``snf.regular_representation``).  ``_snf_layered`` works one
valuation layer at a time.
``_panel_factor`` finds the unit pivots mod p of each 64-column panel that
no source names, its rank profile, by left-looking elimination one column
at a time.  It also gives the inverse mod p of the pivot block, which
``_inv_mod`` lifts by Newton steps in plain float64 while that is exact,
and the trailing block takes one exact product per panel.  A level expansion is
block-Toeplitz, so its panels present the same pivot blocks again and
again: each reduction keeps the inverses it has taken (``_Inverses``), keyed
by the exact content of the block mod p and at the layer's modulus, and
inverts and lifts each distinct block once.  Nothing is kept between
reductions.
``_unit_layer`` keeps the active rows and columns as sorted ids into the
matrix instead of compacting it after every panel, and a panel's update
touches only the rows where its multipliers are nonzero and the column
ranges where its pivot rows are.  An untracked level expansion arrives in
T-adic echelon order (``presentations.FinLevelModule._echelon_relations``),
and its source names the unit pivots of layer 0, one per keyed column, and
the rows every column spans (``FinLevelModule.layer0``): layer 0 pivots on
them a run at a time with nothing to search, reads each run's multipliers
on the rows its columns span and updates only the columns whose rows meet
its pivot rows, the next powers of the band and the wrapping ones.  The
search takes what is left.  Gathers copy row segments (a row index with a
column slice) in chunks, never whole rows.
Products run in float64 BLAS on schemes that ``_exact_split`` chooses for
every modulus, p itself included: one product reduced in float64 while
every partial sum stays below 2^52 (``_FloatSplit``), else one operand in
base-2^h digits and the other whole where that is exact (two products for
p = 5, 7 at the reduced working precision p^W), else both operands in
base-p^a digits, summed in int64 up to 5^26 and 7^21; beyond (7^24) the
scaled digit groups still sum in int64 and only their total is scaled and
subtracted on Python integers.  Only primes too large for exact float64
digit products multiply Python integers (``_ObjectSplit``).  A tracked
reduction also keeps each panel's row operation as thin factors
(``RowTransform``), which are replayed once per panel on a whole block of
vectors: forwards for U W, backwards for columns of U^-1; no R x R
transform is formed.  Vectors come and go as coordinate planes, an array of
shape (d, K, L) (``to_planes``); lists enter and leave only through
``to_planes`` and ``to_vectors``.  ``residues`` reduces any array mod m,
widening before the remainder.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import ValidationError

# There is no jitted kernel; the flag stays for callers that report which
# Smith kernel runs (the benchmark harness's machine fingerprint).
HAVE_NUMBA = False


def residue_dtype(m):
    """The dtype of residues mod m: int32 while m <= 2^31, int64 while m <= 2^63,
    Python integers beyond.

    It stores residues only: sums and products of two of them may pass it
    (2m - 2 >= 2^31 once m > 2^30), so arithmetic on them widens first.
    """
    if m <= 1 << 31:
        return np.int32
    return np.int64 if m <= 1 << 63 else object


def int64_precision_cap(p: int) -> int:
    """Largest W with p^(2W) < 2^63: the reduced working precision of ``snf.reduce``.

    The kernel is exact at every modulus; the cap only fixes W for the large
    degree-1 reductions that run below p^N first.
    """
    cap = 1
    limit = 3037000499  # floor(sqrt(2^63 - 1))
    while p ** (cap + 1) <= limit:
        cap += 1
    return cap


# -- valuation-layered kernel -------------------------------------------------

PANEL = 64  # columns per pivot panel; the inner dimension of every product
_CHUNK = 1 << 16  # entries per row chunk of the trailing update
_EXACT = 1 << 53  # float64 represents every integer below this exactly


@functools.lru_cache(maxsize=None)
def _single_blas_thread():
    """Put the OpenBLAS bundled with numpy on one thread, once per process.

    The panel products are thin (inner dimension <= PANEL), so a second
    thread gains nothing on an idle machine, while next to another busy
    process (the oracle's worker pool) its spinning made the kernel three
    times slower on a 2-core machine.  The count is not restored afterwards:
    OpenBLAS reallocates its thread buffers on every change, which raised
    the peak memory of ``finemw verify`` by about 4 MB.  Nothing happens
    when numpy links another BLAS.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: same handle
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            put = getattr(lib, name, None)
            if put is not None:
                put.argtypes = [ctypes.c_int]
                put.restype = None
                put(1)
                return


class _FloatSplit:
    """Exact products mod m in one float64 BLAS product, then ``_reduce``.

    Exact while inner (m - 1)^2 + m < 2^52: every partial sum of X0 - L K
    stays below 2^52 in magnitude, where ``_reduce`` is exact too (the
    delayed reduction of FFLAS-FFPACK).  Operands are residues, float64
    ones taken without a copy; the result is int64, as for the other splits.
    """

    products = 1

    def __init__(self, m, inner):
        if inner * (m - 1) ** 2 + m >= 1 << 52:
            raise OverflowError(f"no exact float64 product mod {m} with inner dimension {inner}")
        self.m = m

    def digits(self, K):
        """K itself, as float64: K when it is float64 already."""
        return [K.astype(np.float64, copy=False)]

    def mul_sub(self, L, digits, X0=None):
        """Exact (X0 - L @ K) % m, K given by its ``digits``; X0 defaults to 0."""
        Y = L.astype(np.float64, copy=False) @ digits[0]
        if X0 is None:
            np.negative(Y, out=Y)
        else:
            np.subtract(X0, Y, out=Y)
        _reduce(Y, self.m)
        return Y.astype(np.int64)


def _split_bits(m, inner):
    """Digit width h for exact products mod m with inner dimension <= inner.

    One operand (entries < m) stays whole and the other is split into
    base-2^h digits, so every partial sum of a float64 digit product is at
    most inner * (m - 1) * (2^h - 1), which must stay below 2^53.  The digit
    products are then combined in int64, which must not overflow either.
    """
    h = 1
    while inner * (m - 1) * ((1 << (h + 1)) - 1) < _EXACT:
        h += 1
    ndigits = -(-max(1, (m - 1).bit_length()) // h)
    if (inner * (m - 1) * ((1 << h) - 1) >= _EXACT
            or _EXACT + m + sum((m - 1) << (h * d) for d in range(1, ndigits)) >= 1 << 63):
        raise OverflowError(f"no exact split product mod {m} with inner dimension {inner}")
    return h


class _BitSplit:
    """Exact products mod m with one operand whole, the other in base-2^h digits.

    h comes from ``_split_bits``.  The low digit product is subtracted
    unreduced and the others after one reduction, so two digits take two
    int64 passes of ``%``.  Operands are int32 or int64 residues (m < 2^53
    here); the result is int64.
    """

    def __init__(self, m, inner):
        self.m = m
        self.h = _split_bits(m, inner)
        self.products = -(-max(1, (m - 1).bit_length()) // self.h)

    def digits(self, K):
        """Base-2^h digits of K (entries in [0, m)) as float64 arrays, low first.

        K is widened to int64 first: the mask 2^h - 1 passes int32 for h >= 31.
        """
        K = K.astype(np.int64, copy=False)
        mask = (1 << self.h) - 1
        return [((K >> (self.h * d)) & mask).astype(np.float64) for d in range(self.products)]

    def mul_sub(self, L, digits, X0=None):
        """Exact (X0 - L @ K) % m, K given by its ``digits``; X0 defaults to 0."""
        Lf = L.astype(np.float64)
        acc = (Lf @ digits[0]).astype(np.int64)
        if X0 is None:
            np.negative(acc, out=acc)
        else:
            np.subtract(X0, acc, out=acc)
        for d, D in enumerate(digits[1:], 1):
            t = (Lf @ D).astype(np.int64)
            t %= self.m
            t <<= self.h * d
            acc -= t
        acc %= self.m
        return acc


class _PadicSplit:
    """Exact products mod m = p^w with both operands in base-p^a digits.

    L K = sum over i, j of L_i K_j p^(a(i+j)), and mod p^w only the pairs
    with a(i+j) < w are left: 6 products for 3 digits.  Each digit product
    runs in float64 BLAS, exact while inner (p^a - 1)^2 < 2^53.  The
    products with one s = i + j are summed in int64 as t_s.  The groups
    s >= f (``fold``) are reduced mod p^(w - a s) and summed Horner-style
    from the top group down, in int64, as
    u = sum over s >= f of (t_s mod p^(w - a s)) p^(a(s - f)) <
    (ndigits - f) p^(w - a f); f is the least index >= 1 that keeps that
    below 2^63, which is 1 up to 7^24.  X0 - t_0 - p^(a f) u and the groups
    between 0 and f are summed in int64 while that stays below 2^63, else
    as Python integers (``wide``).
    """

    def __init__(self, p, m, inner):
        w = 0
        while p**w < m:
            w += 1
        a = 0
        while inner * (p ** (a + 1) - 1) ** 2 < _EXACT:
            a += 1
        if p**w != m or not a:
            raise OverflowError(f"no exact p-adic split product mod {m} "
                                f"with inner dimension {inner}")
        ndigits = -(-w // a)
        self.m = m
        self.base = p**a
        self.ndigits = ndigits
        self.wide = m + _EXACT + (ndigits - 1) * (m - 1) >= 1 << 63
        # t_s (the s-th group) is reduced mod p^(w - a s), then scaled by p^(a s)
        self.scales = [(p ** (w - a * s), p ** (a * s)) for s in range(ndigits)]
        self.fold = 1
        while (ndigits - self.fold) * p ** (w - a * self.fold) >= 1 << 63:
            self.fold += 1
        self.products = ndigits * (ndigits + 1) // 2

    def digits(self, K):
        """Base-p^a digits of K (entries in [0, m)) as float64 arrays, low first."""
        out = []
        for _ in range(self.ndigits - 1):
            K, r = K // self.base, K % self.base  # np.divmod takes no object arrays
            out.append(r.astype(np.float64))
        out.append(K.astype(np.float64))
        return out

    def mul_sub(self, L, digits, X0=None):
        """Exact (X0 - L @ K) % m, K given by its ``digits``; X0 defaults to 0."""
        Ld = self.digits(L)
        groups = []
        for s in range(self.ndigits):
            t = (Ld[0] @ digits[s]).astype(np.int64)
            for i in range(1, s + 1):
                t += (Ld[i] @ digits[s - i]).astype(np.int64)
            groups.append(t)
        acc = groups[0]
        u = None
        for s in range(self.ndigits - 1, self.fold - 1, -1):
            t = groups[s]
            t %= self.scales[s][0]
            if u is not None:
                u *= self.base
                t += u
            u = t
        if u is not None:
            if self.wide:
                u = u.astype(object)
            u *= self.scales[self.fold][1]
            u += acc
            acc = u
        for s in range(1, self.fold):
            acc = acc + groups[s].astype(object) * self.scales[s][1]
        acc = -acc if X0 is None else X0 - acc
        acc %= self.m
        return acc


class _ObjectSplit:
    """Exact products mod m on Python integers.

    For primes without exact float64 digit products, PANEL (p - 1)^2 >= 2^53,
    at moduli past the bit split.
    """

    def __init__(self, m):
        self.m = m

    def digits(self, K):
        """K itself, as Python integers."""
        return [K.astype(object)]

    def mul_sub(self, L, digits, X0=None):
        """Exact (X0 - L @ K) % m, K given by its ``digits``; X0 defaults to 0."""
        acc = L.astype(object) @ digits[0]
        acc = -acc if X0 is None else X0 - acc
        acc %= self.m
        return acc


@functools.lru_cache(maxsize=None)
def _exact_split(m, inner, p):
    """The exact product scheme mod m = p^w with the fewest BLAS products.

    Products have inner dimension <= inner and operands with entries in
    [0, m).  Every exact product of the kernel takes its scheme from here,
    the mod-p products of the panels and their inverses included.  Ties go
    to the plain float64 product, then to the one-sided bit split; when no
    split applies the products run on Python integers.
    """
    splits = []
    for make in (lambda: _FloatSplit(m, inner), lambda: _BitSplit(m, inner),
                 lambda: _PadicSplit(p, m, inner)):
        try:
            splits.append(make())
        except OverflowError:
            pass
    if not splits:
        return _ObjectSplit(m)
    return min(splits, key=lambda split: split.products)


def _mulmod(L, K, m, p):
    """Exact (L @ K) % m for operands with entries in [0, m), m = p^w."""
    split = _exact_split(m, max(1, L.shape[1]), p)
    return -split.mul_sub(L, split.digits(K)) % m


def _reduce(Y, p):
    """Y %= p in place, for float64 integers of magnitude below 2^52.

    x - p floor(x / p) is exact there (the quotient is rounded by less than
    half its distance to the next integer) and several times faster than
    the int64 remainder.
    """
    q = Y / p
    np.floor(q, out=q)
    q *= p
    Y -= q


def _unit_triangular_inverse(T, p):
    """Inverse mod p of a unit triangular T, upper or lower, as int64 residues.

    With A and B the diagonal halves of T and C its corner, T^-1 has the
    diagonal halves A^-1 and B^-1 and the corner -A^-1 C B^-1 (upper) or
    -B^-1 C A^-1 (lower).  A and B are inverted as one stack, B padded with
    a unit when s is odd, as (I + N)(I + N^2)(I + N^4)...: N = I - A is
    nilpotent, so A^-1 is the sum of N^k for k < span once N^span = 0, and
    each factor I + N^span doubles the number of terms.  A factor is applied
    as X - X Q with Q = -N^span, and the next Q is -Q Q.  The doubling stops
    at the first zero power and a zero corner takes no product, so a
    diagonal T costs one product.  Halving first takes a quarter of the
    multiplications of doubling on T itself.  Products are exact split
    products mod p (``_exact_split``).
    """
    T = T.astype(np.int64, copy=False)
    s = T.shape[0]
    h = s - s // 2
    split = _exact_split(p, h, p)
    eye = np.eye(h, dtype=np.int64)
    N = np.stack((T[:h, :h], eye))
    N[1, :s - h, :s - h] = T[h:, h:]
    N = (eye - N) % p
    X = eye + N
    Q = N
    span = 2  # X is the sum of N^k for k < span
    while span < h:
        Q = split.mul_sub(Q, split.digits(Q))  # -N^span
        if not Q.any():
            break
        X = split.mul_sub(X, split.digits(Q), X0=X)
        span *= 2
    Ainv, Binv = X[0], X[1, :s - h, :s - h]
    out = np.zeros((s, s), dtype=np.int64)
    out[:h, :h] = Ainv
    out[h:, h:] = Binv
    if T[:h, h:].any():
        out[:h, h:] = split.mul_sub(_mulmod(Ainv, T[:h, h:], p, p), split.digits(Binv))
    if T[h:, :h].any():
        out[h:, :h] = split.mul_sub(_mulmod(Binv, T[h:, :h], p, p), split.digits(Ainv))
    return out


class _Inverses:
    """The pivot-block inverses of one reduction, keyed by exact block content.

    A level expansion is block-Toeplitz, column (k, j) being T^k times
    relation j, so successive panels present the same pivot block again and
    again; each distinct block is inverted once.  A key holds the moduli,
    the dtype, the shape and the bytes of the block, and a lookup compares
    it in full; blocks mod p come as uint8 for p < 256 (``_mod_p_key``).
    Blocks of Python integers are never stored: their bytes are pointers.
    The store lives in one ``_snf_layered`` call and keeps at most about
    ``BUDGET`` bytes of keys and inverses, dropping the oldest first.
    """

    BUDGET = 1 << 20  # 28 blocks of 64 x 64 mod p: uint8 keys, int64 inverses

    def __init__(self):
        self.store = {}
        self.free = self.BUDGET

    def get(self, moduli, block, invert):
        """invert(), computed once per content of ``block`` under ``moduli``."""
        if block.dtype == object:
            return invert()
        key = (moduli, block.dtype.str, block.shape, block.tobytes())
        X = self.store.get(key)
        if X is None:
            X = invert()
            X.flags.writeable = False
            self.store[key] = X
            self.free -= len(key[-1]) + X.nbytes
            while self.free < 0 and len(self.store) > 1:
                old = next(iter(self.store))
                self.free += len(old[-1]) + self.store.pop(old).nbytes
        return X


def _panel_factor(P, p, inverses):
    """Rank profile mod p of the panel P and the inverse mod p of its pivot block.

    P is an integer panel; only its residues mod p matter.  Left-looking
    elimination, one column at a time: with t pivots found, one product
    forms the residual c = P[:, j] - L[:, :t] U[:t, j] of column j, and its
    lowest nonzero row i becomes pivot t.  L[:, t] is c, and U[t] is the
    residual P[i] - L[i, :t] U[:t] of row i scaled to 1 on the pivot, zero
    left of column j.  Products are exact split products mod p
    (``_exact_split``); L and U, their operands, hold float64 residues (int64
    for p > 2^53, where float64 drops digits), and the pivot row is scaled
    by ``_scale_mod``.

    Returns parallel lists (rows, cols) of the unit pivots, and Ginv, the
    inverse mod p of the pivot block G = P[rows][:, cols] (None without
    pivots).  They give the rank profile matrix of P mod p (the rank of
    P[:i, :j] counts the pivots inside it), which is unique.  Pivot rows
    have a zero residual after their pivot, so G = L[rows] V, L[rows] lower
    triangular with the pivots on its diagonal and V = U[:, cols] unit upper
    triangular, and Ginv = V^-1 L[rows]^-1 (``_lower_inverse``).  A block G
    mod p met before in the reduction takes its stored Ginv from
    ``inverses`` (an ``_Inverses``); the block is keyed as uint8 residues
    for p < 256 (``_mod_p_key``).
    """
    R, w = P.shape
    split = _exact_split(p, w, p)
    P = np.asfortranarray((P % p).astype(np.int64))
    operand = np.float64 if p <= _EXACT else np.int64  # L and U, the product operands
    L = np.empty((R, w), dtype=operand, order="F")
    U = np.zeros((w, w), dtype=operand)
    rows, cols = [], []
    for j in np.flatnonzero(P.any(axis=0)).tolist():  # a zero column has a zero residual
        t = len(rows)
        if t == R:  # every residual is zero
            break
        c = split.mul_sub(L[:, :t], split.digits(U[:t, j]), X0=P[:, j])
        i = int((c != 0).argmax())
        if not c[i]:
            continue
        L[:, t] = c
        x = split.mul_sub(L[i, :t], split.digits(U[:t, j:]), X0=P[i, j:])
        U[t, j:] = _scale_mod(x, pow(int(c[i]), -1, p), p)
        rows.append(i)
        cols.append(j)
    if not rows:
        return rows, cols, None

    def invert():
        t = len(rows)
        return _mulmod(_unit_triangular_inverse(U[:t, cols], p), _lower_inverse(L[rows, :t], p),
                       p, p)

    return rows, cols, inverses.get(p, _mod_p_key(P[np.ix_(rows, cols)], p), invert)


def _mod_p_key(G, p):
    """G mod p as ``_Inverses`` keys it: uint8 residues, an eighth of int64, for p < 256."""
    return G.astype(np.uint8) if p < 256 else G


def _inv_mod(G, Ginv, p, m):
    """Inverse mod m = p^w of G, given its inverse Ginv mod p, as residues mod m.

    Newton steps double the p-adic precision of X until it reaches m: from
    X = G^-1 mod k to mod k2 = min(k^2, m), with step = k2 / k,

        E = (I - G X) / k mod step,   X <- X + k (X E mod step).

    The steps run as plain float64 products while every intermediate stays
    below 2^52, where ``_reduce`` is exact (the rule of ``_FloatSplit``), up
    to the precision ``reach``; G is reduced mod reach once, as Gr.  When
    Gr X is exact, E is (I - Gr X) / k.  Otherwise Gr = G_lo + k G_hi with
    G_lo < k and G_hi < reach / k, and E = (I - G_lo X) / k - G_hi X, where
    k divides I - G_lo X because G_lo X = I mod k; no step takes an integer
    remainder or quotient.  With s the size of G and X < k: G_lo X <=
    s (k - 1)^2, |E| < s (k - 1) + s reach before its reduction, and
    X E <= s (k - 1)(step - 1); every step starts at k <= the last one's
    k_l, and reach <= k_l^2, so s k_l (k_l + 1) < 2^52 bounds them all.  The
    steps past it (at p = 5, 7 the last one, from p^16, at every modulus
    beyond p^16) form G X - I and X (G X - I) by exact split products mod
    k2.  A float64 X goes through int64: float64 to object gives Python
    floats.  G is reduced mod each precision by ``residues``, which widens
    it first: an int32 G to int64, and onto Python integers at 2^63, where
    the int64 remainder overflows.
    """
    s = G.shape[0]
    X = Ginv.astype(np.int64)
    k = reach = p
    while reach < m and s * reach * (reach + 1) < 1 << 52:
        reach = min(reach * reach, m)
    if reach > p:
        X = X.astype(np.float64)
        Gr = residues(G, reach).astype(np.float64)
        eye = np.eye(s)
        while k < reach:
            k2 = min(k * k, m)
            step = k2 // k
            lo, hi = Gr, None
            if s * (reach - 1) * (k - 1) >= 1 << 52:  # Gr X is not exact: split Gr
                lo = Gr.copy()
                _reduce(lo, k)
                hi = (Gr - lo) / k
            E = lo @ X
            np.subtract(eye, E, out=E)
            E /= k  # exact: k divides I - G_lo X
            if hi is not None:
                E -= hi @ X
            _reduce(E, step)
            Z = X @ E
            _reduce(Z, step)
            Z *= k
            X += Z
            k = k2
        X = X.astype(np.int64)
    eye = np.eye(s, dtype=np.int64)
    while k < m:
        k = min(k * k, m)
        split = _exact_split(k, s, p)
        excess = -split.mul_sub(residues(G, k), split.digits(X), X0=eye) % k  # G X - I
        X = split.mul_sub(X, split.digits(excess), X0=X)
    return X.astype(residue_dtype(m), copy=False)


def _ids(ix):
    """Sorted ids ``ix`` (an array or a list) as a slice when they form one contiguous range."""
    if len(ix) and ix[-1] - ix[0] + 1 == len(ix):
        return slice(int(ix[0]), int(ix[-1]) + 1)
    return ix


def _block(rows, cols):
    """The index of the block X[rows][:, cols] for sorted ids, without a full-width gather.

    A row index with a column slice reads or writes whole row segments; only
    when neither set is a contiguous range is it an ``np.ix_`` index.
    """
    r, c = _ids(rows), _ids(cols)
    if isinstance(r, slice) or isinstance(c, slice):
        return r, c
    return np.ix_(r, c)


def _take(X, rows, cols):
    """The block X[rows][:, cols] for sorted ids (``_block``): a view with two slices."""
    return X[_block(rows, cols)]


def _runs(cols, gap):
    """Sorted column ids as [start, stop) ranges, joining gaps of at most ``gap``."""
    if not cols.size:
        return []
    breaks = np.flatnonzero(np.diff(cols) > gap + 1)
    starts = np.concatenate(([cols[0]], cols[breaks + 1]))
    stops = np.concatenate((cols[breaks], [cols[-1]])) + 1
    return list(zip(starts.tolist(), stops.tolist()))


# Zero or eliminated columns between two nonzero ones that a trailing update
# computes rather than start a new range.  8 and 16 were fastest, within
# noise of each other, on the benchmark's expansions and on dense matrices.
_GAP = 16


def _unit_layer(X, p, m, split, inverses, transform=None, known=None):
    """Eliminate a maximal set of unit pivots of X over Z/m, panel by panel.

    X is updated in place and ``split`` forms its exact products mod m.  The
    rows and columns still active are kept as sorted ids into X, so a
    panel's pivots are found exactly as on the compacted matrix (the lowest
    eligible row first).  The panel's update X[F, keep] -= L K, with
    L = X[F, Q] and K = G^-1 X[P, keep], touches only the rows where L has a
    nonzero entry and the column ranges (``_runs``) where X[P, keep] has
    one: skipping an exactly zero row of L or column of K changes nothing.
    Eliminated rows and columns are never read again, so the columns inside
    a range that were eliminated may take garbage.  Columns left of ``done``
    have no unit on the remaining rows; they still take every later update.
    A ``transform`` records each panel's row operation.  ``inverses`` (an
    ``_Inverses`` of the reduction) hands back the inverse of a pivot block
    met before, mod p and lifted to the layer's modulus, or to the
    transform's, in place of ``_inv_mod``.  An untracked panel without an
    update (no row of L, or pivot rows zero on every active column) lifts
    nothing: only the update and the transform read the lift.

    ``known`` (pivots, top, bottom, period), from the source of an
    echelon-ordered expansion, names the first u = len(pivots) pivots:
    column c < u pivots on row pivots[c], and the nonzero rows of every
    column c lie in [top[c], bottom[c]).  Those columns go first, in runs of
    at most PANEL, a multiple of ``period`` when it fits (the runs of a
    block-Toeplitz expansion then repeat their pivot block), without a
    search.  The pivot block G = X[P, Q] must be lower triangular mod p with
    a unit diagonal, or the hint is wrong and ``ArithmeticError`` is raised;
    its inverse mod p is ``_lower_inverse``.  L is read only on the active
    rows of the run's window, the rows its columns' supports span, and the
    update takes the active columns whose supports meet the pivot rows, as
    one block.  The supports widen to the rows where an update writes a
    nonzero value (``_widen``).  The search takes over for the columns that
    are left.  The known pivots are those the search finds, the rank
    profile being unique, so the Schur complement is the same.

    Returns (S, count): S is a leading view of X's buffer, into which the
    active block, the Schur complement, is compacted at the end; every entry
    of it is divisible by p.  count is the number of pivots.
    """
    rows = np.arange(X.shape[0])
    cols = np.arange(X.shape[1])
    pivots, top, bottom, width = cols[:0], None, None, PANEL
    if known is not None:
        pivots, top, bottom, period = known
        top, bottom = top.copy(), bottom.copy()
        if 0 < period <= PANEL:
            width -= PANEL % period
    count = 0
    done = 0
    while done < cols.size and rows.size:
        if cols[0] < pivots.size:  # known pivots: columns c0..c1-1, all of them
            # every earlier panel pivoted a prefix of the columns: cols is c0..C-1
            c0 = int(cols[0])
            c1 = min(c0 + width, pivots.size)
            P = pivots[c0:c1]
            r0, r1 = np.searchsorted(rows, (top[c0:c1].min(), bottom[c0:c1].max()))
            at = np.searchsorted(rows, P)
            G = X[P, c0:c1]
            Gp = G % p
            if (at.min() < r0 or at.max() >= r1 or (rows[at] != P).any()
                    or np.triu(Gp, 1).any() or not np.diagonal(Gp).all()):
                raise ArithmeticError(f"known pivots of columns {c0}..{c1 - 1} "
                                      "are not unit lower triangular mod p")
            Ginv = inverses.get(p, _mod_p_key(Gp, p), functools.partial(_lower_inverse, Gp, p))
            window = np.ones(r1 - r0, dtype=bool)
            window[at - r0] = False
            F = rows[r0:r1][window]  # the other active rows that may meet the panel
            L = X[F, c0:c1]
            lsel = L.any(axis=1)
            L = L[lsel]
            lrows = F[lsel]
            live = np.ones(rows.size, dtype=bool)
            live[at] = False
            rows = rows[live]
            cols = cols[c1 - c0:]
            # the columns whose supports meet the pivot rows, updated as one block
            near = c1 + np.flatnonzero((top[c1:] <= P.max()) & (bottom[c1:] > P.min()))
            spans = [near] if lrows.size and near.size else []
        else:
            hi = min(done + PANEL, cols.size)
            panel = _take(X, rows, cols[done:hi])
            live = np.flatnonzero(panel.any(axis=1))  # a zero row is never a pivot
            panel = panel[live]
            prow, pcol, Ginv = _panel_factor(panel, p, inverses) if live.size else ([], [], None)
            if not prow:
                done = hi
                continue
            pivot = np.zeros(live.size, dtype=bool)
            pivot[prow] = True
            G = panel[np.ix_(prow, pcol)]
            L = panel[~pivot][:, pcol]
            lsel = L.any(axis=1)
            L = L[lsel]
            lrows = rows[live[~pivot][lsel]]  # the rows the update touches
            P = rows[live[prow]]
            rows = np.delete(rows, live[prow])
            cols = np.delete(cols, done + np.asarray(pcol))
            # K = G^-1 X[P, keep] vanishes exactly where X[P, keep] does; eliminated
            # columns inside a range take garbage
            hit = cols[_take(X, np.sort(P), cols).any(axis=0)] if lrows.size else cols[:0]
            spans = [np.arange(a, b) for a, b in _runs(hit, _GAP)]
            done = hi - len(prow)
        lift = m if transform is None else transform.modulus
        if transform is not None or spans:  # else nothing reads the lift
            Ginv = inverses.get((m, lift), G, functools.partial(_inv_mod, G, Ginv, p, lift))
        if transform is not None:
            transform.record(P, rows, lrows, L, G, Ginv)
            if lift > m:  # past layer 0
                Ginv = residues(Ginv, m)
        widen = cols.size and cols[0] < pivots.size  # known panels still read the supports
        for span in spans:
            c = _ids(span)  # P is in pivot order, not sorted
            K = split.digits(_mulmod(Ginv, X[P, c] if isinstance(c, slice) else X[np.ix_(P, c)],
                                     m, p))
            step = max(1, _CHUNK // span.size)
            for i in range(0, lrows.size, step):
                block = _block(lrows[i:i + step], span)
                X[block] = Y = split.mul_sub(L[i:i + step], K, X0=X[block])
                if widen:
                    _widen(top, bottom, span, lrows[i:i + step], Y)
        count += len(P)
    nr, nc = rows.size, cols.size
    if nr and nc and (rows[-1] != nr - 1 or cols[-1] != nc - 1):
        # row i comes from row rows[i] >= i, so compacting in increasing
        # chunks never overwrites a source row that is still to be read
        step = max(1, _CHUNK // nc)
        for i in range(0, nr, step):
            src = rows[i:i + step]
            X[i:i + src.size, :nc] = _take(X, src, cols)
    if transform is not None:
        transform.next_layer()
    return X[:nr, :nc], count


def _lower_inverse(G, p):
    """The inverse mod p of G, residues mod p lower triangular with a unit diagonal.

    One ``_unit_triangular_inverse`` of D^-1 G times D^-1, D the diagonal;
    int64 residues.
    """
    G = G.astype(np.int64)
    dinv = np.array([pow(d, -1, p) for d in np.diagonal(G).tolist()], dtype=np.int64)
    return _scale_mod(_unit_triangular_inverse(_scale_mod(G, dinv[:, None], p), p), dinv, p)


def _scale_mod(X, d, p):
    """X d mod p for residues X and d mod p, as int64: widened to Python integers
    first once (p - 1)^2 passes int64."""
    if (p - 1) ** 2 < 1 << 63:
        return X.astype(np.int64, copy=False) * d % p
    return (X.astype(object) * np.asarray(d, dtype=object) % p).astype(np.int64)


def _widen(top, bottom, cols, r, Y):
    """Widen the row supports of the columns ``cols`` to the rows r where Y, written there, is nonzero."""
    t, b = top[cols], bottom[cols]
    if not ((r[0] < t) | (r[-1] >= b)).any():
        return  # every row written lies inside every support already
    nonzero = Y != 0
    hit = nonzero.any(axis=0)
    first = r[nonzero.argmax(axis=0)]
    last = r[r.size - 1 - nonzero[::-1].argmax(axis=0)] + 1
    top[cols] = np.where(hit, np.minimum(t, first), t)
    bottom[cols] = np.where(hit, np.maximum(b, last), b)


def _snf_layered(A, p, m, transform=None, layer0=None):
    """Smith exponents of A over Z/m (m = p^W), one valuation layer at a time.

    At layer k the working matrix holds the current Schur complement divided
    by p^k, reduced mod p^(W-k).  A maximal set of unit pivots is found one
    column panel at a time, the trailing block takes one exact product per
    panel, and what remains is divisible by p: it is divided by p and the
    next layer works mod p^(W-k-1).  Each pivot of layer k contributes
    exponent k, so the exponents come out nondecreasing.  A is overwritten,
    and a ``transform`` records the row operations.  Each layer holds
    ``residue_dtype`` residues of its own modulus.  The pivot-block inverses
    of all layers share one ``_Inverses``, freed on return.  ``layer0``, the
    known pivots and column supports of A (``_unit_layer``), serves layer 0.
    """
    exps = []
    inverses = _Inverses()
    X = A.astype(residue_dtype(m), copy=False)
    k = 0
    _single_blas_thread()
    while m > 1 and X.size:
        X, count = _unit_layer(X, p, m, _exact_split(m, PANEL, p), inverses, transform,
                               layer0 if k == 0 else None)
        exps.extend([k] * count)
        if not X.any():
            break
        X //= p
        m //= p
        X = X.astype(residue_dtype(m), copy=False)
        k += 1
    return exps


def residues(A, m):
    """A mod m as ``residue_dtype(m)`` residues, for an array A of any dtype.

    A is widened first: to int64 below 2^63, to Python integers from 2^63 on,
    where the int64 remainder by m overflows.
    """
    if A.dtype != object:
        A = A.astype(np.int64 if m < 1 << 63 else object, copy=False)
    return (A % m).astype(residue_dtype(m), copy=False)


def to_planes(vectors, degree, m):
    """Vectors as coordinate planes mod m, an array (d, K, L) of ``residue_dtype(m)``.

    Plane s holds coordinate s of the K vectors of length L.  ``vectors`` are
    such planes or a list of K vectors of ints or coordinate tuples (an int a
    is (a, 0) over the quadratic ring), which may pass int64.
    """
    if isinstance(vectors, np.ndarray):
        return residues(vectors, m)
    if len({len(v) for v in vectors}) > 1:
        raise ValidationError("extra column has wrong length")
    pad = (0,) * (degree - 1)
    entries = [[x if isinstance(x, tuple) else (x,) + pad for x in v] for v in vectors]
    shape = (len(entries), len(entries[0]) if entries else 0, degree)
    return residues(np.moveaxis(np.array(entries, dtype=object).reshape(shape), 2, 0), m)


def to_vectors(planes):
    """The vectors of coordinate planes (d, K, L) as K lists: ints over Z_p, tuples over O."""
    if planes.shape[0] == 1:
        return planes[0].tolist()
    return [list(zip(*vector)) for vector in planes.transpose(1, 0, 2).tolist()]


class BlockTransform:
    """A row transform U applied to blocks of vectors given as planes (d, K, R).

    A subclass gives ``modulus``, ``reduce_block`` (U W, in summand order)
    and ``generator_columns`` (the columns of U^-1 for a list of summands);
    the one-vector calls convert through ``to_planes`` and ``to_vectors``.
    """

    degree = 1

    def reduce_vector(self, w):
        """U w for one vector of ints (tuples over O), which may pass int64."""
        return to_vectors(self.reduce_block(to_planes([w], self.degree, self.modulus)))[0]

    def generator_column(self, k):
        """Column k of U^-1, the ambient vector of summand k."""
        return to_vectors(self.generator_columns([k]))[0]


class RowTransform(BlockTransform):
    """The row transform U of a tracked layered reduction, as panel factors.

    A panel with pivot rows P, pivot columns Q and remaining rows F (original
    row ids) acts on a block W of column vectors by T = G^-1 W_P,
    W_F -= L T, W_P = T, where G = X[P, Q] and L = X[F, Q] are read off the
    working matrix of its layer k; only the rows of F where L is nonzero are
    kept.  Each panel is replayed once for the whole block, with two exact
    products.  U A then has the pivot rows in the order found, scaled to p^k
    on their pivot columns, followed by the rows left, which vanish mod p^W.
    G^-1 is kept exact mod p^W, not only mod p^(W-k), so U^-1 U = I mod p^W:
    the columns of U^-1, which replay the factors backwards as W_P = G T,
    W_F += L T, are mapped by U to unit vectors exactly.
    """

    def __init__(self, nrows, p, modulus):
        self.p = p
        self.modulus = modulus
        self.panels = []  # (P, F, L, G, Ginv)
        self.pivots = []
        self.rows = np.arange(nrows)  # original ids of the rows not yet pivots, in order
        self._layer = self.rows  # original ids of the rows of the current layer's matrix

    def record(self, prow, rest, lrows, L, G, Ginv):
        """One panel; the ids index the rows of the current layer's matrix.

        ``prow`` are its pivot rows, ``rest`` the rows left and ``lrows`` the
        rows of ``L``, those of ``rest`` where X[rest, Q] is nonzero.
        """
        P = self._layer[prow]
        self.rows = self._layer[rest]
        self.panels.append((P, self._layer[lrows], L, G, Ginv))
        self.pivots.extend(P.tolist())

    def next_layer(self):
        """The next layer's matrix holds the rows left, in order."""
        self._layer = self.rows

    def _order(self):
        """Original row ids in summand order: the pivots as found, then the rows left."""
        return np.concatenate((np.asarray(self.pivots, dtype=np.int64), self.rows))

    def reduce_block(self, planes):
        """U W for the planes (1, K, R) of K vectors, in summand order."""
        m, p = self.modulus, self.p
        Y = residues(planes[0].T, m)
        for P, F, L, G, Ginv in self.panels:
            T = _mulmod(Ginv, Y[P], m, p)
            Y[F] = (Y[F] - _mulmod(L, T, m, p)) % m
            Y[P] = T
        return Y[self._order()].T[None]

    def generator_columns(self, ks):
        """The columns ``ks`` of U^-1 as planes (1, K, R), rows in original order.

        Every panel is replayed backwards on the whole block: the panels after
        a pivot's own have it in neither P nor F, so they leave its column.
        """
        m, p = self.modulus, self.p
        Y = np.zeros((self.rows.size + len(self.pivots), len(ks)), dtype=residue_dtype(m))
        Y[self._order()[ks], np.arange(len(ks))] = 1
        for P, F, L, G, Ginv in reversed(self.panels):
            T = Y[P]
            Y[F] = (Y[F] + _mulmod(L, T, m, p)) % m
            Y[P] = _mulmod(G, T, m, p)
        return Y.T[None]


def snf_int64(A: np.ndarray, p: int, m: int, track: bool, layer0=None):
    """Run the layered kernel on A, in place if its dtype is ``residue_dtype(m)``.

    ``layer0`` is None or (pivots, top, bottom, period), the known unit
    pivots and column supports of A that ``_unit_layer`` takes.  Returns (exponents,
    transform); ``transform`` is the ``RowTransform`` of the reduction when
    ``track`` is set, else None.
    """
    R, C = A.shape
    transform = RowTransform(R, p, m) if track else None
    exponents = _snf_layered(A, p, m, transform, layer0) if R and C else []
    return exponents, transform
