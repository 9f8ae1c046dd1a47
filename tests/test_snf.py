import random

import numpy as np
import pytest

from finemw.padics import CoefficientRing
from finemw.snf import smith_normal_form
from finemw._kernels import (PANEL, _inv_mod, _mulmod, _panel_factor, _snf_i64_numpy,
                             _split_bits, int64_precision_cap, snf_int64)
from oracles import column_rank_profile_mod_p, integer_smith_p_exponents

RING = CoefficientRing(5, 1, 24)
RING10 = CoefficientRing(5, 1, 10)
RINGQ = CoefficientRing(5, 2, 8)


def test_identity_two_by_two():
    res = smith_normal_form([[1, 0], [0, 1]], RING)
    assert res.exponents == [0, 0]
    assert res.free_rank == 0
    assert res.torsion_exponents == []


def test_diag_p_p2():
    res = smith_normal_form([[5, 0], [0, 25]], RING10)
    assert res.exponents == [1, 2]
    assert res.torsion_order == 3


def test_upper_triangular_unit_pivot():
    # [[p,1],[0,p]]: the unit entry makes the cokernel cyclic of order p^2
    res = smith_normal_form([[5, 1], [0, 5]], RING)
    assert res.exponents == [0, 2]
    assert res.torsion_exponents == [2]


def test_empty_shapes():
    assert smith_normal_form([], RING).free_rank == 0
    res = smith_normal_form([[], []], RING)
    assert res.free_rank == 2 and res.exponents == []


def test_matches_integer_smith_oracle():
    rng = random.Random(7)
    for _ in range(40):
        R, C = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(-200, 200) for _ in range(C)] for _ in range(R)]
        ours = smith_normal_form([[x % RING.modulus for x in row] for row in mat], RING)
        oracle = integer_smith_p_exponents(mat, 5)
        assert sorted(ours.exponents) == oracle


def test_engine_agreement_on_random_matrices():
    rng = random.Random(11)
    for _ in range(30):
        R, C = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = [[rng.randrange(0, 5**9) * 5 ** rng.choice((0, 0, 0, 1, 2))
                for _ in range(C)] for _ in range(R)]
        pure = smith_normal_form(mat, RING10, engine="python")
        fast = smith_normal_form(mat, RING10, engine="int64")
        assert pure.exponents == fast.exponents
    # Widths around the panel width of the layered kernel, with rank
    # deficiency, rows scaled by p^k (several valuation layers), a leading
    # panel without units and entries at depth >= W - 2; both engines run
    # at p^10 here.
    b = PANEL
    for R, C in ((9, b - 1), (12, b), (12, b + 1), (8, 2 * b + 1), (b + 1, 10), (b + 1, b + 1)):
        mat = _layered_case(rng, R, C, 5, 10)
        pure = smith_normal_form(mat, RING10, engine="python")
        fast = smith_normal_form(mat, RING10, engine="int64")
        assert pure.exponents == fast.exponents
    # Shapes too large for the Python engine: the per-pivot kernel and the
    # exact integer Smith form of a disguised block-diagonal matrix.
    for R, C in ((b - 1, 2 * b + 1), (2 * b + 1, 2 * b + 1), (2 * b + 1, b), (3 * b + 5, 3 * b + 2)):
        mat, expected = _disguised_blocks(rng, R, C, 5, 10)
        fast = smith_normal_form(mat, RING10, engine="int64")
        assert fast.exponents == _per_pivot_exponents(np.array(mat, dtype=np.int64), 5, 5**10)
        assert fast.exponents == expected
    # A prime whose square passes 2^53 takes the int64 residue path.
    big = 2**31 - 1
    A = np.array([[rng.randrange(big) * rng.randrange(2) for _ in range(b + 6)]
                  for _ in range(b + 3)], dtype=np.int64)
    A[-4:] = A[:4] * 3 % big
    assert snf_int64(A.copy(), big, big, 0)[0] == _per_pivot_exponents(A, big, big)


def _layered_case(rng, R, C, p, W):
    m = p**W
    mat = [[rng.randrange(m) for _ in range(C)] for _ in range(R)]
    for row in mat[: R // 3]:  # rank deficiency: copies of combinations of other rows
        i, j = rng.sample(range(R // 3, R), 2)
        lam = rng.randrange(m)
        row[:] = [(x + lam * y) % m for x, y in zip(mat[i], mat[j])]
    for j in range(min(C, PANEL)):  # no unit in the leading panel
        for row in mat:
            row[j] = row[j] * p % m
    for row in mat:
        k = rng.choice((0, 0, 1, 2, 3))
        row[:] = [x * p**k % m for x in row]
    for _ in range(max(R, C) // 4):  # deep entries
        i, j = rng.randrange(R), rng.randrange(C)
        mat[i][j] = p ** rng.choice((W - 2, W - 1)) * rng.randrange(1, p)
    return mat


def _disguised_blocks(rng, R, C, p, W):
    """L D U mod p^W for block-diagonal integer D and unit-triangular L, U.

    Returns the matrix and its Smith exponents mod p^W, read off the blocks
    of D with the integer Smith oracle.
    """
    D = np.zeros((R, C), dtype=np.int64)
    expected = []
    pos = 0
    while pos < min(R, C):
        size = min(rng.randrange(1, 7), min(R, C) - pos)
        block = [[rng.randrange(-9, 10) * p ** rng.choice((0, 0, 1, 2)) for _ in range(size)]
                 for _ in range(size)]
        if rng.random() < 0.3:  # depth >= W - 2
            block[0] = [x * p ** (W - 2) for x in block[0]]
        if rng.random() < 0.2:  # rank deficiency
            block[-1] = [0] * size
        D[pos:pos + size, pos:pos + size] = block
        expected.extend(e for e in integer_smith_p_exponents(block, p) if e < W)
        pos += size

    def unit_triangular(n, lower):
        T = np.tril(np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)]), -1)
        return (T if lower else T.T) + np.eye(n, dtype=np.int64)

    A = unit_triangular(R, True) @ D @ unit_triangular(C, False)
    A = A[rng.sample(range(R), R)][:, rng.sample(range(C), C)] % p**W
    return A.tolist(), sorted(expected)


def _per_pivot_exponents(A, p, m):
    R, C = A.shape
    exps = np.empty(min(R, C), dtype=np.int64)
    z = np.zeros((1, 1), dtype=np.int64)
    n = _snf_i64_numpy(A, p, m, exps, z, z, z, z, 0)
    return [int(e) for e in exps[:n]]


@pytest.mark.parametrize("p, W", [(5, 13), (7, 11)])
def test_exact_split_product_worst_case(p, W):
    """Every residue p^W - 1 at the panel width: the largest partial sums."""
    assert W == int64_precision_cap(p)
    m = p**W
    L = np.full((3, PANEL), m - 1, dtype=np.int64)
    K = np.full((PANEL, 5), m - 1, dtype=np.int64)
    exact = (L.astype(object) @ K.astype(object)) % m
    assert (_mulmod(L, K, m) == exact).all()
    rng = np.random.default_rng(p)
    L = rng.integers(m - 2**20, m, size=(4, PANEL))
    K = rng.integers(m - 2**20, m, size=(PANEL, 6))
    assert (_mulmod(L, K, m) == (L.astype(object) @ K.astype(object)) % m).all()
    with pytest.raises(OverflowError):  # no digit width keeps this inner dimension exact
        _split_bits(m, 2**23)


def _panel_cases(p, rng):
    """Panels with R < w, R > w, all zeros, leading zero columns and rank deficiency."""
    def panel(R, w):
        return rng.integers(0, p, size=(R, w), dtype=np.int64) * rng.integers(1, 4)

    yield panel(5, PANEL)
    yield panel(3 * PANEL // 2, PANEL)
    yield panel(PANEL, PANEL)
    yield np.zeros((9, 7), dtype=np.int64)
    A = panel(40, 20)
    A[:, :6] = 0
    yield A
    A = panel(50, PANEL)  # rank <= 20: combinations of 20 rows, and dependent columns
    A[20:] = rng.integers(0, 3, size=(30, 20)) @ (A[:20] % p) % p
    A[:, 40:] = A[:, :24] * 3 % p
    yield A
    yield p * rng.integers(0, 3, size=(8, 8)) + np.eye(8, dtype=np.int64)  # only residues count


@pytest.mark.parametrize("p", [2, 5, 7, 2**31 - 1])
def test_panel_factor_rank_profile_and_pivot_block_inverse(p):
    rng = np.random.default_rng(p % 1000)
    for P in _panel_cases(p, rng):
        rows, cols, Ginv = _panel_factor(P.copy(), p)
        assert cols == column_rank_profile_mod_p(P.tolist(), p)
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        if not rows:
            assert Ginv is None
            continue
        G = P[np.ix_(rows, cols)].astype(object)
        assert ((G @ Ginv.astype(np.int64).astype(object)) % p
                == np.eye(len(rows), dtype=object)).all()


def test_pivot_block_inverse_lifts_to_the_working_precision():
    rng = np.random.default_rng(3)
    p, m = 7, 7**11
    P = rng.integers(0, m, size=(80, PANEL))
    rows, cols, Ginv = _panel_factor(P, p)
    G = P[np.ix_(rows, cols)]
    X = _inv_mod(G, Ginv, p, m)
    assert ((G.astype(object) @ X.astype(object)) % m == np.eye(len(rows), dtype=object)).all()


def _check_uav(matrix, ring, engine):
    res = smith_normal_form(matrix, ring, with_transforms=True, engine=engine)
    U, Uinv, V, Vinv = res.transforms
    m = res.modulus
    R, C = res.nrows, res.ncols
    if engine == "int64":
        Ui = U.astype(object)
        Vi = V.astype(object)
        A = np.array(matrix, dtype=object) % m
        D = (Ui @ A @ Vi) % m
        get = lambda i, j: int(D[i, j])
        UU = (Ui @ Uinv.astype(object)) % m
        uget = lambda i, j: int(UU[i, j])
    else:
        Ui = [[x[0] for x in row] for row in U]
        Vi = [[x[0] for x in row] for row in V]
        Uii = [[x[0] for x in row] for row in Uinv]

        def matmul(X, Y):
            return [[sum(X[i][t] * Y[t][j] for t in range(len(Y))) % m
                     for j in range(len(Y[0]))] for i in range(len(X))]

        D = matmul(matmul(Ui, [list(r) for r in matrix]), Vi)
        get = lambda i, j: D[i][j]
        UU = matmul(Ui, Uii)
        uget = lambda i, j: UU[i][j]
    for i in range(R):
        for j in range(C):
            expect = pow(5, res.exponents[i], m) if (i == j and i < res.rank) else 0
            assert get(i, j) == expect
    for i in range(R):
        for j in range(R):
            assert uget(i, j) == (1 if i == j else 0)


def test_transforms_diagonalize_pure():
    rng = random.Random(3)
    for _ in range(25):
        R, C = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(RING10.modulus) for _ in range(C)] for _ in range(R)]
        _check_uav(mat, RING10, "python")


def test_transforms_diagonalize_int64():
    rng = random.Random(5)
    for _ in range(25):
        R, C = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = [[rng.randrange(RING10.modulus) for _ in range(C)] for _ in range(R)]
        _check_uav(mat, RING10, "int64")


def test_unimodular_invariance_100_conjugations():
    rng = random.Random(99)
    base = [[25, 5, 0], [0, 5, 1], [0, 0, 125]]
    reference = smith_normal_form(base, RING10).exponents
    m = RING10.modulus
    for _ in range(100):
        L = _random_unimodular(rng, 3, m)
        Rm = _random_unimodular(rng, 3, m)
        conj = [[sum(L[i][t] * base[t][j] for t in range(3)) % m for j in range(3)]
                for i in range(3)]
        conj = [[sum(conj[i][t] * Rm[t][j] for t in range(3)) % m for j in range(3)]
                for i in range(3)]
        assert smith_normal_form(conj, RING10).exponents == reference


def _random_unimodular(rng, size, modulus):
    M = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(8):
        i, k = rng.sample(range(size), 2)
        lam = rng.randrange(modulus)
        M[i] = [(a + lam * b) % modulus for a, b in zip(M[i], M[k])]
        if rng.random() < 0.3:
            i, k = rng.sample(range(size), 2)
            M[i], M[k] = M[k], M[i]
    return M


def test_quadratic_ring_snf():
    # diag over O = Z_5[x]/(x^2-2): exponents use the uniformizer p
    res = smith_normal_form([[(5, 0), (0, 0)], [(0, 0), (0, 25)]], RINGQ)
    assert res.exponents == [1, 2]
    # a unit with nontrivial second coordinate pivots at valuation 0
    res = smith_normal_form([[(0, 1)]], RINGQ)
    assert res.exponents == [0]


def test_certification_flags():
    shallow = CoefficientRing(5, 1, 4)
    res = smith_normal_form([[125]], shallow)
    assert res.exponents == [3]
    assert res.certified_exponents() == [False]  # 3 >= N - 2 = 2
    deep = smith_normal_form([[125]], RING)
    assert deep.certified_exponents() == [True]


def test_deep_exponent_triggers_full_precision_retry():
    # p^15 is invisible at the int64 working precision (5^13) but the small
    # size forces the full-precision rerun
    res = smith_normal_form([[5**15]], RING, engine="int64")
    assert res.engine == "python"
    assert res.exponents == [15]


def test_int64_cap_values():
    assert int64_precision_cap(5) == 13
    assert int64_precision_cap(7) == 11
    assert 5 ** (2 * 13) < 2**63
    assert 7 ** (2 * 11) < 2**63


def test_is_torsion_vector():
    res = smith_normal_form([[5, 0], [0, 0]], RING10, with_transforms=True)
    assert res.exponents == [1]
    assert res.free_rank == 1
    assert res.is_torsion_vector([1, 0])
    assert not res.is_torsion_vector([0, 1])
    assert res.is_torsion_vector([3, 0])


def test_reduce_vector_accepts_ints_beyond_int64():
    # the random-subgroup selector scales generators by p-powers and the T-action
    # reduces mod p^N, both past int64; only the residue mod p^W matters
    ring = CoefficientRing(7, 1, 24)
    rng = random.Random(11)
    mat = [[rng.randrange(ring.modulus) for _ in range(6)] for _ in range(6)]
    res = smith_normal_form(mat, ring, with_transforms=True, engine="int64")
    w = [rng.randrange(res.modulus) for _ in range(6)]
    big = [x * 7**13 + x + 5 * res.modulus for x in w]
    scaled = [(x * 7**13 + x) % res.modulus for x in w]
    assert max(big) > 2**63
    assert res.reduce_vector(big) == res.reduce_vector(scaled)


def test_reduce_vector_matches_python_int_product():
    ring = CoefficientRing(7, 1, 24)
    rng = random.Random(12)
    R = 70
    mat = [[rng.randrange(ring.modulus) * 7 ** rng.choice((0, 0, 1)) for _ in range(R + 3)]
           for _ in range(R)]
    res = smith_normal_form(mat, ring, with_transforms=True, engine="int64")
    U = res.transforms[0]
    for _ in range(3):
        w = [rng.randrange(-2**80, 2**80) for _ in range(R)]
        expect = [sum(int(U[i, j]) * x for j, x in enumerate(w)) % res.modulus
                  for i in range(R)]
        assert res.reduce_vector(w) == expect


def test_oversized_suspicious_reduction_is_uncertified():
    # a 5^15 entry vanishes at the int64 working precision 5^13; too large to
    # redo at full precision, so the result must not claim to be certified
    ring = CoefficientRing(5, 1, 24)
    n = 250
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    mat[0][0] = 5**15
    res = smith_normal_form(mat, ring, engine="int64")
    assert res.precision_used == 13 and res.rank == n - 1
    assert not res.certified
    assert smith_normal_form([[5**15]], ring, engine="int64").certified
