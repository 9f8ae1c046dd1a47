"""Low-level int64 Smith-form kernels for degree-1 coefficient rings.

All arithmetic is exact in Z/p^W, where W is chosen so that products of two
reduced entries fit in int64.  Two numpy kernels share that working
precision:

* ``_snf_layered`` (divisor-only reductions) works one valuation layer at a
  time.  ``_panel_factor`` finds a maximal set of unit pivots mod p in each
  64-column panel by left-looking elimination, together with the inverse mod
  p of the pivot block, and the trailing block takes one exact float64 BLAS
  product per panel.
* ``_snf_i64_numpy`` (reductions with transforms) pivots one entry at a time
  on the globally minimal valuation, ties broken by lowest row index then
  lowest column index; that order fixes the transforms.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# There is no jitted kernel; the flag stays for callers that report which
# Smith kernel runs (the benchmark harness's machine fingerprint).
HAVE_NUMBA = False


def int64_precision_cap(p: int) -> int:
    """Largest W with p^(2W) < 2^63, so q*entry never overflows."""
    cap = 1
    limit = 3037000499  # floor(sqrt(2^63 - 1))
    while p ** (cap + 1) <= limit:
        cap += 1
    return cap


def _combine_mod(hi, lo, m):
    return (hi % m * (1 << 16) + lo % m) % m


def _matvec_cols_mod(M, q, m):
    """(M @ q) % m without overflow: q is split into 16-bit halves."""
    q = q % m
    lo = (M * (q & 0xFFFF)[None, :] % m).sum(axis=1)
    hi = (M * (q >> 16)[None, :] % m).sum(axis=1)
    return _combine_mod(hi, lo, m)


def _vecmat_rows_mod(q, M, m):
    q = q % m
    lo = ((q & 0xFFFF)[:, None] * M % m).sum(axis=0)
    hi = ((q >> 16)[:, None] * M % m).sum(axis=0)
    return _combine_mod(hi, lo, m)


def _snf_i64_numpy(A, p, m, exps, U, Uinv, V, Vinv, track):
    """Per-pivot kernel: minimal valuation first, ties by lowest row then column.

    Fills ``exps`` and returns the pivot count; U, Uinv (track >= 1) and V,
    Vinv (track >= 2) are updated in place so that U A V is diagonal.
    """
    R, C = A.shape
    npiv = 0
    for k in range(min(R, C)):
        act = A[k:, k:]
        if not (act != 0).any():
            break
        mask = act % p != 0  # a nonzero residue mod p is a nonzero entry
        v = 0
        if not mask.any():
            B = act.copy()
            while True:
                B //= p
                v += 1
                mask = (B % p != 0) & (B != 0)
                if mask.any():
                    break
            del B
        flat = int(np.argmax(mask))
        bi, bj = k + flat // (C - k), k + flat % (C - k)
        if bi != k:
            A[[k, bi], :] = A[[bi, k], :]
            if track >= 1:
                U[[k, bi], :] = U[[bi, k], :]
                Uinv[:, [k, bi]] = Uinv[:, [bi, k]]
        if bj != k:
            A[:, [k, bj]] = A[:, [bj, k]]
            if track >= 2:
                V[:, [k, bj]] = V[:, [bj, k]]
                Vinv[[k, bj], :] = Vinv[[bj, k], :]
        pv = p**v
        u = int(A[k, k]) // pv
        uinv = pow(u % m, -1, m)
        A[k, k:] = (A[k, k:] * uinv) % m
        if track >= 1:
            U[k, :] = (U[k, :] * uinv) % m
            Uinv[:, k] = (Uinv[:, k] * u) % m
        col = A[k + 1:, k]
        if col.size and (col != 0).any():
            q = col // pv
            blk = A[k + 1:, k:]
            blk -= q[:, None] * A[k, k:][None, :]
            blk %= m
            if track >= 1:
                blk = U[k + 1:, :]
                blk -= q[:, None] * U[k, :][None, :]
                blk %= m
                Uinv[:, k] = (Uinv[:, k] + _matvec_cols_mod(Uinv[:, k + 1:], q, m)) % m
        row = A[k, k + 1:]
        if row.size and (row != 0).any():
            q = row // pv
            A[k, k + 1:] = 0
            if track >= 2:
                V[:, k + 1:] = (V[:, k + 1:] - V[:, k][:, None] * q[None, :]) % m
                Vinv[k, :] = (Vinv[k, :] + _vecmat_rows_mod(q, Vinv[k + 1:, :], m)) % m
        exps[npiv] = v
        npiv += 1
    return npiv


# -- valuation-layered kernel (divisors only) ---------------------------------

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


def _digits(K, m, h):
    """Base-2^h digits of K (entries in [0, m)) as float64 arrays, low first."""
    mask = (1 << h) - 1
    out = []
    shift = 0
    while shift == 0 or (m - 1) >> shift:
        out.append(((K >> shift) & mask).astype(np.float64))
        shift += h
    return out


def _mul_sub(L, digits, m, h, X0=None):
    """Exact (X0 - L @ K) % m, K given by its ``_digits``; X0 defaults to 0.

    Entries of L, K and X0 lie in [0, m).  Each digit product runs in float64
    BLAS and is exact by ``_split_bits``; the low one is subtracted unreduced
    and the others after one reduction, so the result takes two int64 passes
    of ``%`` for two digits.
    """
    Lf = L.astype(np.float64)
    acc = (Lf @ digits[0]).astype(np.int64)
    if X0 is None:
        np.negative(acc, out=acc)
    else:
        np.subtract(X0, acc, out=acc)
    for d, D in enumerate(digits[1:], 1):
        t = (Lf @ D).astype(np.int64)
        t %= m
        t <<= h * d
        acc -= t
    acc %= m
    return acc


def _mulmod(L, K, m):
    """Exact (L @ K) % m for int64 operands with entries in [0, m)."""
    h = _split_bits(m, max(1, L.shape[1]))
    return -_mul_sub(L, _digits(K, m, h), m, h) % m


def _reduce(Y, p):
    """Y %= p in place, for integers of magnitude below 2^52.

    For float64 arrays x - p floor(x / p) is exact there (the quotient is
    rounded by less than half its distance to the next integer) and several
    times faster than the int64 remainder.
    """
    if Y.dtype == np.float64:
        Y -= p * np.floor(Y / p)
    else:
        Y %= p


def _residue_ops(p, inner):
    """(dtype, mul, submul) for exact residue arithmetic mod p, inner dimension <= inner.

    mul(A, B) is (A @ B) mod p and submul(X0, A, B) is (X0 - A @ B) mod p,
    for operands with entries in [0, p).  They run in float64 BLAS while
    every partial sum stays below 2^52, where ``_reduce`` is exact too, and
    otherwise in int64 through the split products of ``_mul_sub``: for
    p = 2^31 - 1 already two products of residues overflow int64.
    """
    if inner * (p - 1) ** 2 + p < 1 << 52:
        def submul(X0, A, B):
            Y = X0 - A @ B
            _reduce(Y, p)
            return Y

        def mul(A, B):
            Y = A @ B
            _reduce(Y, p)
            return Y

        return np.float64, mul, submul
    h = _split_bits(p, inner)

    def submul(X0, A, B):
        return _mul_sub(A, _digits(B, p, h), p, h, X0=X0)

    def mul(A, B):
        return -_mul_sub(A, _digits(B, p, h), p, h) % p

    return np.int64, mul, submul


def _unit_triangular_inverse(T, p, mul):
    """Inverse mod p of a unit triangular T, as (I + N)(I + N^2)(I + N^4)...

    N = I - T is nilpotent (N^s = 0 for s x s), so the inverse is the sum of
    N^k for k < s; each factor I + N^span doubles the number of terms, which
    takes O(log s) products.
    """
    s = T.shape[0]
    eye = np.eye(s, dtype=T.dtype)
    N = eye - T
    _reduce(N, p)
    X = eye + N
    span = 2  # X is the sum of N^k for k < span
    while span < s:
        N = mul(N, N)
        X += mul(X, N)
        _reduce(X, p)
        span *= 2
    return X


def _panel_factor(P, p):
    """Rank profile mod p of the panel P and the inverse mod p of its pivot block.

    P is an int64 panel; only its residues mod p matter.  Left-looking
    elimination: the residual P[:, j] - L[:, :t] U[:t, j] of column j is
    formed only when j is reached, by one mat-vec over the rows, and its
    lowest nonzero row i becomes pivot t.  L[:, t] is that residual scaled
    to L[i, t] = 1 and U[t] is the residual P[i] - L[i, :t] U[:t] of row i,
    zero left of column j.  Nothing else touches the panel.

    Returns parallel lists (rows, cols) of the unit pivots, found column by
    column with the lowest eligible row, and Ginv, the inverse mod p of the
    pivot block G = P[rows][:, cols] (None without pivots).  Pivot rows have
    a zero residual after their pivot, so G = L[rows] U[:, cols] is unit
    lower times upper triangular, and Ginv = U[:, cols]^-1 L[rows]^-1.
    """
    R, w = P.shape
    dtype, mul, submul = _residue_ops(p, w)
    P = np.asfortranarray((P % p).astype(dtype))
    L = np.empty((R, w), dtype=dtype, order="F")
    U = np.empty((w, w), dtype=dtype)
    rows, cols = [], []
    for j in range(w):
        t = len(rows)
        c = submul(P[:, j], L[:, :t], U[:t, j]) if t else P[:, j]
        i = int(np.argmax(c != 0))
        if not c[i]:
            continue
        np.multiply(c, pow(int(c[i]), -1, p), out=L[:, t])
        _reduce(L[:, t], p)
        U[t, :j] = 0
        U[t, j:] = submul(P[i, j:], L[i, :t], U[:t, j:]) if t else P[i, j:]
        rows.append(i)
        cols.append(j)
    if not rows:
        return rows, cols, None
    s = len(rows)
    Ubar = U[:s, cols]
    # Ubar = (Ubar D^-1) D with D its diagonal, and Ubar D^-1 is unit upper
    dinv = np.array([pow(int(d), -1, p) for d in np.diagonal(Ubar)], dtype=dtype)
    Ubar = Ubar * dinv[None, :]
    _reduce(Ubar, p)
    Uinv = dinv[:, None] * _unit_triangular_inverse(Ubar, p, mul)
    _reduce(Uinv, p)
    return rows, cols, mul(Uinv, _unit_triangular_inverse(L[rows, :s], p, mul))


def _inv_mod(G, Ginv, p, m):
    """Inverse mod m = p^w of G, given its inverse Ginv mod p.

    Newton steps X <- X - X (G X - I) double the p-adic precision of X until
    it reaches m.
    """
    s = G.shape[0]
    X = Ginv.astype(np.int64)
    h = _split_bits(m, s)
    eye = np.eye(s, dtype=np.int64)
    precision = p
    while precision < m:
        excess = -_mul_sub(G, _digits(X, m, h), m, h, X0=eye) % m  # G X - I
        X = _mul_sub(X, _digits(excess, m, h), m, h, X0=X)
        precision *= precision
    return X


def _unit_layer(X, p, m, h):
    """Eliminate a maximal set of unit pivots of X over Z/m, panel by panel.

    X is updated in place.  Returns (S, count): S is a leading view of X's
    buffer holding the Schur complement, every entry of which is divisible
    by p, and count is the number of pivots.  Columns left of ``done`` have
    no unit on the remaining rows; they still take every later update.
    """
    count = 0
    done = 0
    while done < X.shape[1] and X.shape[0]:
        hi = min(done + PANEL, X.shape[1])
        prow, pcol, Ginv = _panel_factor(X[:, done:hi], p)
        if not prow:
            done = hi
            continue
        prow = np.asarray(prow)
        pcol = np.asarray(pcol) + done
        rest = np.setdiff1d(np.arange(X.shape[0]), prow)
        keep = np.setdiff1d(np.arange(X.shape[1]), pcol)
        # K = G^-1 X[P, keep]; the Schur complement is X[rest, keep] - X[rest, Q] K
        Ginv = _inv_mod(X[np.ix_(prow, pcol)], Ginv, p, m)
        K = _digits(_mulmod(Ginv, X[np.ix_(prow, keep)], m), m, h)
        # Row i of the result comes from row rest[i] >= i, so compacting into
        # the leading rows in increasing chunks never overwrites a source row.
        step = max(1, _CHUNK // max(1, keep.size))
        for a in range(0, rest.size, step):
            src = rest[a:a + step]
            X[a:a + src.size, :keep.size] = _mul_sub(
                X[np.ix_(src, pcol)], K, m, h, X0=X[np.ix_(src, keep)])
        X = X[:rest.size, :keep.size]
        count += prow.size
        done = hi - prow.size
    return X, count


def _snf_layered(A, p, m):
    """Smith exponents of A over Z/m (m = p^W), one valuation layer at a time.

    At layer k the working matrix holds the current Schur complement divided
    by p^k, reduced mod p^(W-k).  A maximal set of unit pivots is found one
    column panel at a time, the trailing block takes one exact product per
    panel, and what remains is divisible by p: it is divided by p and the
    next layer works mod p^(W-k-1).  Each pivot of layer k contributes
    exponent k, so the exponents come out nondecreasing, as with the per-pivot
    kernel.  A is overwritten.
    """
    if m * m >= 1 << 63:
        raise OverflowError(f"modulus {m} too large for int64 residues")
    exps = []
    X = A
    k = 0
    _single_blas_thread()
    while m > 1 and X.size:
        X, count = _unit_layer(X, p, m, _split_bits(m, PANEL))
        exps.extend([k] * count)
        if not X.any():
            break
        X //= p
        m //= p
        k += 1
    return exps


def snf_int64(A: np.ndarray, p: int, m: int, track: int):
    """Run the int64 Smith kernel in place; returns (exponents, U, Uinv, V, Vinv).

    track: 0 = divisors only, 1 = row transforms (U, U^-1), 2 = full.
    Divisor-only runs use the valuation-layered kernel; tracked runs keep the
    per-pivot kernel, whose pivot order fixes the transforms.
    """
    R, C = A.shape
    track = int(track)
    if track == 0:
        exponents = _snf_layered(A, p, m) if R and C else []
        return exponents, None, None, None, None
    exps = np.empty(min(R, C) if min(R, C) else 1, dtype=np.int64)
    U = np.eye(R, dtype=np.int64)
    Uinv = np.eye(R, dtype=np.int64)
    if track >= 2:
        V = np.eye(C, dtype=np.int64)
        Vinv = np.eye(C, dtype=np.int64)
    else:
        V = Vinv = np.zeros((1, 1), dtype=np.int64)
    if R and C:
        npiv = _snf_i64_numpy(A, p, m, exps, U, Uinv, V, Vinv, track)
    else:
        npiv = 0
    exponents = [int(e) for e in exps[:npiv]]
    return (exponents, U, Uinv,
            V if track >= 2 else None,
            Vinv if track >= 2 else None)
