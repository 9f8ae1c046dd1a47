"""Independent brute-force oracles used by the test suite.

Everything here takes exact integers and avoids the package's own reduction
machinery: Smith form over Z by textbook gcd-chasing, ranks over Q by
fraction Gaussian elimination, polynomial division over Z.  Keep inputs tiny.
"""

from fractions import Fraction
import math


def poly_mul_z(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_divmod_z(f, g):
    """Division over Z for monic g; raises if a division is inexact."""
    assert g and g[-1] == 1, "oracle division needs a monic divisor"
    rem = list(f)
    quo = [0] * max(0, len(rem) - len(g) + 1)
    for i in range(len(rem) - 1, len(g) - 2, -1):
        c = rem[i]
        if c == 0:
            continue
        quo[i - len(g) + 1] = c
        for j, gj in enumerate(g):
            rem[i - len(g) + 1 + j] -= c * gj
    while rem and rem[-1] == 0:
        rem.pop()
    while quo and quo[-1] == 0:
        quo.pop()
    return quo, rem


def mulmod_monic(a, b, h, m):
    """Schoolbook product of coefficient lists a and b mod the monic h, then mod m.

    The remainder is padded to deg(h) coefficients, low degree first.
    """
    _, rem = poly_divmod_z(poly_mul_z(a, b), h)
    rem = [x % m for x in rem]
    return rem + [0] * (len(h) - 1 - len(rem))


def omega_int(p, n):
    q = p**n
    return [0] + [math.comb(q, k) for k in range(1, q + 1)]


def cyclotomic_int(p, n):
    if n == 0:
        return [0, 1]
    quo, rem = poly_divmod_z(omega_int(p, n), omega_int(p, n - 1))
    assert rem == []
    return quo


def rank_q(rows):
    """Rank over Q by fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def column_rank_profile_mod_p(rows, p):
    """Indices of the columns independent of all earlier ones, over Z/p.

    Textbook Gauss-Jordan elimination on Python ints, column by column; the
    length of the result is the rank mod p.
    """
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    profile = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        profile.append(c)
        r += 1
    return profile


def rank_profile_mod_p(rows, p):
    """Pivots (row, column) of left-looking elimination over Z/p, in column order.

    Each column is reduced by the pivots found so far, in the order found: a
    pivot in row i with vector l takes col[i] * l off it.  The lowest
    row left nonzero becomes the next pivot, and its column, scaled to 1 in
    that row, its vector.  Textbook elimination on Python ints; the pairs
    form the rank profile matrix.
    """
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots, profile = [], []
    for c in range(ncols):
        col = [row[c] for row in mat]
        for i, vec in pivots:
            u = col[i]
            if u:
                col = [(x - u * y) % p for x, y in zip(col, vec)]
        i = next((r for r, x in enumerate(col) if x), None)
        if i is None:
            continue
        inv = pow(col[i], -1, p)
        pivots.append((i, [x * inv % p for x in col]))
        profile.append((i, c))
    return profile


def inverse_mod_p(rows, p):
    """Inverse over Z/p of an invertible square matrix, by Gauss-Jordan on Python ints."""
    return inverse_mod_prime_power(rows, p, 1)


def inverse_mod_prime_power(rows, p, w):
    """Inverse over Z/p^w of a matrix invertible mod p, by Gauss-Jordan on Python ints.

    Each pivot is the first entry of its column not divisible by p, a unit.
    """
    n, m = len(rows), p**w
    mat = [[int(x) % m for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        r = next(r for r in range(c, n) if mat[r][c] % p)
        mat[c], mat[r] = mat[r], mat[c]
        inv = pow(mat[c][c], -1, m)
        mat[c] = [x * inv % m for x in mat[c]]
        for r in range(n):
            if r != c and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % m for a, b in zip(mat[r], mat[c])]
    return [row[n:] for row in mat]


def integer_smith_p_exponents(rows, p):
    """p-valuations of the nonzero invariant factors of an exact integer matrix.

    Uses sympy's Smith normal form over ZZ; only for tiny matrices.  Returns
    a sorted list including zero exponents for factors prime to p.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    R = len(rows)
    C = len(rows[0]) if rows else 0
    if R == 0 or C == 0:
        return []
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    exps = []
    for k in range(min(R, C)):
        d = int(snf[k, k])
        if d == 0:
            continue
        v, m = 0, abs(d)
        while m % p == 0:
            m //= p
            v += 1
        exps.append(v)
    return sorted(exps)


def expand_exact(relations_int, g, p, n):
    """Exact integer expansion of a presentation at level n.

    relations_int: g rows of polynomial coefficient lists (ints).  Returns the
    (g p^n) x (c p^n) matrix of exact integers whose cokernel over Z_p is the
    level-n coinvariant module.
    """
    q = p**n
    w = omega_int(p, n)
    c = len(relations_int[0]) if relations_int else 0
    cols = []
    for j in range(c):
        for k in range(q):
            col = []
            for i in range(g):
                f = poly_mul_z(relations_int[i][j], [0] * k + [1])
                _, rem = poly_divmod_z(f, w)
                col.extend([rem[t] if t < len(rem) else 0 for t in range(q)])
            cols.append(col)
    return [[cols[cc][r] for cc in range(len(cols))] for r in range(g * q)] if cols else \
        [[] for _ in range(g * q)]


def mult_matrix_by_columns(coeffs, q, wrap, m):
    """q x q matrix mod m of multiplication by f (integer ``coeffs``) on Z[T]/(h).

    ``wrap`` lists T^q = sum wrap_i T^i mod the monic h of degree q.  One
    column at a time: column k is column k - 1 times T, shifted down with its
    top coefficient times ``wrap`` added.  Rows of Python integers.
    """
    col = [x % m for x in coeffs] + [0] * (q - len(coeffs))
    cols = [col]
    for _ in range(1, q):
        top = col[-1]
        col = [(x + top * w) % m for x, w in zip([0] + col[:-1], wrap)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def t_action_matrix_exact(g, p, n):
    """Exact multiplication-by-T matrix on (Z[T]/omega_n)^g."""
    q = p**n
    w = omega_int(p, n)
    wrap = [-w[k] for k in range(q)]
    size = g * q
    M = [[0] * size for _ in range(size)]
    for i in range(g):
        for k in range(q):
            src = i * q + k
            if k + 1 < q:
                M[i * q + k + 1][src] += 1
            else:
                for t in range(q):
                    M[i * q + t][src] += wrap[t]
    return M


def poly_of_matrix(coeffs, M):
    """Evaluate an integer polynomial at an integer matrix."""
    size = len(M)
    out = [[0] * size for _ in range(size)]
    power = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for c in coeffs:
        if c:
            for i in range(size):
                for j in range(size):
                    out[i][j] += c * power[i][j]
        power = mat_mul(power, M)
    return out


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                Oi = out[i]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def component_rank_oracle(relations_int, g, p, n, j):
    """Brute-force Phi_j-kernel rank on the rationalized level-n module.

    dim ker(Phi_j | V) with V = Q^(gq) / colspan equals gq minus the rank of
    the relation block augmented with the columns of Phi_j(T-action).
    """
    base = expand_exact(relations_int, g, p, n)
    tmat = t_action_matrix_exact(g, p, n)
    phi = poly_of_matrix(cyclotomic_int(p, j), tmat)
    q = p**n
    rows = [list(base[r]) + [phi[r][cc] for cc in range(g * q)] for r in range(g * q)]
    return g * q - rank_q(rows)


def poly_matrix_det(mat, mul, add, sub, zero, one):
    """Leibniz determinant for tiny matrices over any ring (callables)."""
    size = len(mat)
    if size == 0:
        return one
    if size == 1:
        return mat[0][0]
    det = zero
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mul(mat[0][j], poly_matrix_det(minor, mul, add, sub, zero, one))
        det = add(det, term) if j % 2 == 0 else sub(det, term)
    return det


def smith_exponents_mod_prime_power(rows, p, w):
    """Exponents of the nonzero Smith divisors over Z/p^w, sorted.

    Python integers, any prime: pivot on an entry of minimal valuation, clear
    its column by row operations, then drop its row and column (the rest of
    the pivot row is divisible by the pivot, so column operations clear it
    without touching other rows).
    """
    m = p**w
    A = [[x % m for x in row] for row in rows]

    def valuation(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    exps = []
    while A and A[0]:
        best = None
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                if x:
                    v = valuation(x)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        pivot_row = A.pop(i)
        unit_inv = pow(pivot_row.pop(j) // p**v, -1, m)
        for row in A:
            x = row.pop(j)
            if x:
                f = x // p**v * unit_inv % m
                row[:] = [(a - f * b) % m for a, b in zip(row, pivot_row)]
        exps.append(v)
    return sorted(exps)


def component_ranks_zp(M, n, extra_columns=(), precision=None):
    """Referee for the Phi_j-component ranks c_0..c_n: Smith forms over Z_p.

    c_j is the free rank of M/Phi_j M, quotiented by the ambient columns, as
    a module over the coefficient ring at precision p^t (t = N, or
    ``precision``).  The package expands it over Z_p
    (``FinLevelModule(M, n, component=j).matrix_coords``); here the
    quadratic ring is realified by the blocks [[a, nu b], [b, a]] and the
    divisors mod p^t are counted by ``smith_exponents_mod_prime_power``.
    Exponents at or past t count as free rank, so this route and the one
    over Z_p[T]/Phi_j agree unless an invariant over Z_p[T]/Phi_j lies
    strictly between phi(p^j)(t - 1) and phi(p^j) t.  Keep inputs small.
    """
    from finemw.presentations import FinLevelModule

    ring = M.ring
    t = ring.precision_exponent if precision is None else min(precision,
                                                               ring.precision_exponent)
    ranks = []
    for j in range(n + 1):
        coords = FinLevelModule(M, n, component=j).matrix_coords(list(extra_columns))
        if ring.unramified_degree == 1:
            rows = [[x[0] for x in row] for row in coords]
        else:
            rows = []
            for row in coords:
                rows.append([c for a, b in row for c in (a, ring.nu * b)])
                rows.append([c for a, b in row for c in (b, a)])
        divisors = smith_exponents_mod_prime_power(rows, ring.prime, t)
        ranks.append((len(rows) - len(divisors)) // ring.unramified_degree)
    return ranks
