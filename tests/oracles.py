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
