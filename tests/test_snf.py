import random
import tracemalloc

import numpy as np
import pytest

from finemw.errors import ValidationError
from finemw.oracle import build_elementary, obfuscate, sample_recipe
from finemw.padics import CoefficientRing, _int_valuation
from finemw.polynomials import IwasawaPoly
from finemw.presentations import FinLevelModule, ModulePresentation, _LevelSource
from finemw import _kernels, snf
from finemw.snf import _normalize_rows, _run_python, smith_normal_form
from finemw._kernels import (PANEL, _BitSplit, _FloatSplit, _Inverses, _ObjectSplit, _PadicSplit,
                             _exact_split, _inv_mod, _mulmod, _panel_factor, _split_bits,
                             _unit_triangular_inverse, int64_precision_cap, residue_dtype,
                             snf_int64)
from oracles import (column_rank_profile_mod_p, integer_smith_p_exponents, inverse_mod_p,
                     inverse_mod_prime_power, omega_int, rank_profile_mod_p,
                     smith_exponents_mod_prime_power)

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


def test_matrix_entries_are_coerced_by_the_ring():
    rows, R, C = _normalize_rows([[1, RING10.element(3)], [(2,), -1]], RING10)
    assert (rows, R, C) == ([[(1,), (3,)], [(2,), (RING10.modulus - 1,)]], 2, 2)
    with pytest.raises(ValidationError, match="ragged"):
        smith_normal_form([[1, 2], [3]], RING10)
    with pytest.raises(ValidationError, match="different ring"):
        smith_normal_form([[RINGQ.one()]], RING10)


def test_matches_integer_smith_oracle():
    rng = random.Random(7)
    for _ in range(40):
        R, C = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(-200, 200) for _ in range(C)] for _ in range(R)]
        ours = smith_normal_form([[x % RING.modulus for x in row] for row in mat], RING)
        oracle = integer_smith_p_exponents(mat, 5)
        assert sorted(ours.exponents) == oracle


def _large_route(monkeypatch):
    """Send every matrix, however small, down the reduced-precision int64 route."""
    monkeypatch.setattr(snf, "PURE_SIZE_LIMIT", 0)


def _python_engine(mat, ring, track=False):
    return _run_python(*_normalize_rows(mat, ring), ring, track)


def test_engine_agreement_on_random_matrices(monkeypatch):
    _large_route(monkeypatch)
    rng = random.Random(11)
    for _ in range(30):
        R, C = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = [[rng.randrange(0, 5**9) * 5 ** rng.choice((0, 0, 0, 1, 2))
                for _ in range(C)] for _ in range(R)]
        pure = _python_engine(mat, RING10)
        fast = smith_normal_form(mat, RING10)
        assert pure.exponents == fast.exponents
    # Widths around the panel width of the layered kernel, with rank
    # deficiency, rows scaled by p^k (several valuation layers), a leading
    # panel without units and entries at depth >= W - 2; both engines run
    # at p^10 here.
    b = PANEL
    for R, C in ((9, b - 1), (12, b), (12, b + 1), (8, 2 * b + 1), (b + 1, 10), (b + 1, b + 1)):
        mat = _layered_case(rng, R, C, 5, 10)
        pure = _python_engine(mat, RING10)
        fast = smith_normal_form(mat, RING10)
        assert pure.exponents == fast.exponents
    # Shapes too large for the Python engine: the Python-int oracle and the
    # exact integer Smith form of a disguised block-diagonal matrix.
    for R, C in ((b - 1, 2 * b + 1), (2 * b + 1, 2 * b + 1), (2 * b + 1, b), (3 * b + 5, 3 * b + 2)):
        mat, expected = _disguised_blocks(rng, R, C, 5, 10)
        fast = smith_normal_form(mat, RING10)
        assert fast.exponents == smith_exponents_mod_prime_power(mat, 5, 10)
        assert fast.exponents == expected
    # A prime whose square passes 2^53 takes the int64 residue path.
    big = 2**31 - 1
    A = np.array([[rng.randrange(big) * rng.randrange(2) for _ in range(b + 6)]
                  for _ in range(b + 3)], dtype=np.int64)
    A[-4:] = A[:4] * 3 % big
    assert snf_int64(A.copy(), big, big, False)[0] == smith_exponents_mod_prime_power(
        A.tolist(), big, 1)


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


def _disguised_blocks(rng, R, C, p, W, max_exponent=None):
    """L D U mod p^W for block-diagonal integer D and unit-triangular L, U.

    Returns the matrix and its Smith exponents mod p^W, read off the blocks
    of D with the integer Smith oracle.  With ``max_exponent`` no block is
    made deep on purpose, and blocks with a deeper invariant are redrawn.
    """
    D = np.zeros((R, C), dtype=np.int64)
    expected = []
    pos = 0
    while pos < min(R, C):
        size = min(rng.randrange(1, 7), min(R, C) - pos)
        block = [[rng.randrange(-9, 10) * p ** rng.choice((0, 0, 1, 2)) for _ in range(size)]
                 for _ in range(size)]
        if max_exponent is None and rng.random() < 0.3:  # depth >= W - 2
            block[0] = [x * p ** (W - 2) for x in block[0]]
        if rng.random() < 0.2:  # rank deficiency
            block[-1] = [0] * size
        block_exponents = integer_smith_p_exponents(block, p)
        if max_exponent is not None and max(block_exponents, default=0) > max_exponent:
            continue
        D[pos:pos + size, pos:pos + size] = block
        expected.extend(e for e in block_exponents if e < W)
        pos += size

    def unit_triangular(n, lower):
        T = np.tril(np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)]), -1)
        return (T if lower else T.T) + np.eye(n, dtype=np.int64)

    A = unit_triangular(R, True) @ D @ unit_triangular(C, False)
    A = A[rng.sample(range(R), R)][:, rng.sample(range(C), C)].astype(object) % p**W
    return A.tolist(), sorted(expected)


@pytest.mark.parametrize("p, W", [(5, 13), (7, 11)])
def test_exact_split_product_worst_case(p, W):
    """Every residue p^W - 1 at the panel width: the largest partial sums."""
    assert W == int64_precision_cap(p)
    m = p**W
    L = np.full((3, PANEL), m - 1, dtype=np.int64)
    K = np.full((PANEL, 5), m - 1, dtype=np.int64)
    exact = (L.astype(object) @ K.astype(object)) % m
    assert (_mulmod(L, K, m, p) == exact).all()
    rng = np.random.default_rng(p)
    L = rng.integers(m - 2**20, m, size=(4, PANEL))
    K = rng.integers(m - 2**20, m, size=(PANEL, 6))
    assert (_mulmod(L, K, m, p) == (L.astype(object) @ K.astype(object)) % m).all()
    with pytest.raises(OverflowError):  # no digit width keeps this inner dimension exact
        _split_bits(m, 2**23)


@pytest.mark.parametrize("p, w, scheme", [
    (5, 1, _FloatSplit), (7, 1, _FloatSplit), (2**31 - 1, 1, _BitSplit),  # the panels mod p
    (5, 9, _FloatSplit), (7, 8, _FloatSplit),  # PANEL (m - 1)^2 + m < 2^52
    (5, 10, _PadicSplit), (7, 9, _BitSplit),  # one and two products past it
])
def test_one_chooser_takes_every_product_scheme(p, w, scheme):
    """``_exact_split`` chooses the mod-p products of the panels as every
    other; operands m - 1 at the panel width give the largest partial sums."""
    m = p**w
    split = _exact_split(m, PANEL, p)
    assert type(split) is scheme
    dtype = residue_dtype(m)
    L = np.full((3, PANEL), m - 1, dtype=dtype)
    K = np.full((PANEL, 5), m - 1, dtype=dtype)
    X0 = np.full((3, 5), m - 1, dtype=dtype)
    exact = (L.astype(object) @ K.astype(object)) % m
    assert (split.mul_sub(L, split.digits(K)) == -exact % m).all()
    assert (split.mul_sub(L, split.digits(K), X0=X0) == (X0.astype(object) - exact) % m).all()
    assert (_mulmod(L, K, m, p) == exact).all()


# (p, largest w with exact int64 products mod p^w at the panel width)
LARGEST_ADMITTED = [(2, 61), (3, 38), (5, 26), (7, 21)]


# past int64 sums: one power beyond, 7^24, and moduli where u needs a later fold
WIDE = [(p, w + 1) for p, w in LARGEST_ADMITTED] + [(7, 24), (5, 40), (7, 40)]


@pytest.mark.parametrize("p, w", [(5, 24)] + LARGEST_ADMITTED + WIDE)
def test_exact_padic_product_worst_case(p, w):
    """Moduli too large for a whole float64 operand: both operands split.

    Past int64 (``wide``) the groups s >= fold still sum in int64, Horner-style.
    """
    m = p**w
    dtype = residue_dtype(m)
    split = _exact_split(m, PANEL, p)
    assert isinstance(split, _PadicSplit) and split.wide == ((p, w) in WIDE)
    assert split.fold == {(5, 40): 2, (7, 40): 3}.get((p, w), 1)
    L = np.full((3, PANEL), m - 1, dtype=dtype)
    K = np.full((PANEL, 5), m - 1, dtype=dtype)
    exact = (L.astype(object) @ K.astype(object)) % m
    assert (_mulmod(L, K, m, p) == exact).all()
    X0 = np.full((3, 5), m - 1, dtype=dtype)
    assert (split.mul_sub(L, split.digits(K), X0=X0) == (X0.astype(object) - exact) % m).all()
    rng = np.random.default_rng(w)
    L = np.array([[m - 1 - int(x) * (m // 7) // 2**62 for x in row]
                  for row in rng.integers(0, 2**62, size=(4, PANEL))], dtype=dtype)
    K = np.array([[int(x) * m // 2**62 for x in row]
                  for row in rng.integers(0, 2**62, size=(PANEL, 6))], dtype=dtype)
    assert (_mulmod(L, K, m, p) == (L.astype(object) @ K.astype(object)) % m).all()


@pytest.mark.parametrize("p, w", [(p, w + 1) for p, w in LARGEST_ADMITTED] + [(7, 24)])
def test_exact_products_beyond_the_largest_int64_modulus(p, w):
    """Past int64 the p-adic split, and the kernel, sum on Python integers."""
    m = p**w
    dtype = residue_dtype(m)
    split = _exact_split(m, PANEL, p)
    assert isinstance(split, _PadicSplit) and split.wide
    rng = np.random.default_rng(w)
    worst = m - 1
    cases = [(np.full((3, PANEL), worst, dtype=dtype), np.full((PANEL, 5), worst, dtype=dtype),
              np.full((3, 5), worst, dtype=dtype))]
    cases.append(tuple(np.array([[int(x) * m // 2**62 for x in row]
                                 for row in rng.integers(0, 2**62, size=shape)], dtype=dtype)
                       for shape in ((4, PANEL), (PANEL, 6), (4, 6))))
    for L, K, X0 in cases:
        exact = (L.astype(object) @ K.astype(object)) % m
        assert (_mulmod(L, K, m, p) == exact).all()
        assert (split.mul_sub(L, split.digits(K), X0=X0) == (X0.astype(object) - exact) % m).all()
    # several valuation layers, whose moduli cross back into the int64 splits
    prng = random.Random(p * 100 + w)
    for R, C in ((70, 73), (40, 2 * PANEL + 3)):
        mat, expected = _disguised_blocks(prng, R, C, p, w, max_exponent=3)
        assert expected == smith_exponents_mod_prime_power(mat, p, w) and max(expected) >= 2
        A = np.array(mat, dtype=dtype)
        assert snf_int64(A.copy(), p, m, False) == (expected, None)
        exponents, transform = snf_int64(A, p, m, True)
        assert exponents == expected
        _check_transform(mat, p, exponents, transform.reduce_vector, transform.generator_column)


def test_object_products_for_primes_without_float64_digits():
    # 64 (p - 1)^2 >= 2^53: no digit product is exact in float64, so past the
    # bit split the products multiply Python integers; p^3 > 2^63, p^2 < 2^63
    p, w = 2**31 - 1, 3
    m = p**w
    assert isinstance(_exact_split(m, PANEL, p), _ObjectSplit)
    assert isinstance(_exact_split(p**2, PANEL, p), _ObjectSplit)
    L = np.full((3, PANEL), m - 1, dtype=object)
    K = np.full((PANEL, 5), m - 1, dtype=object)
    assert (_mulmod(L, K, m, p) == (L @ K) % m).all()
    rng = random.Random(p)
    for R, C in ((40, 70), (70, 40)):
        mat = _layered_case(rng, R, C, p, w)
        expected = smith_exponents_mod_prime_power(mat, p, w)
        assert max(expected) >= 2
        A = np.array(mat, dtype=object)
        assert snf_int64(A.copy(), p, m, False) == (expected, None)
        exponents, transform = snf_int64(A, p, m, True)
        assert exponents == expected
        _check_transform(mat, p, exponents, transform.reduce_vector, transform.generator_column)


@pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
def test_primes_past_the_int64_square(p):
    # (p - 1)^2 passes 2^63, so the pivot-row and diagonal scalings mod p
    # widen before they multiply; past 2^53 the panel operands are int64,
    # float64 having dropped their low digits
    ring = CoefficientRing(p, 1, 3)
    rng = random.Random(p)
    for _ in range(10):
        A = [[rng.randrange(p**3) for _ in range(4)] for _ in range(6)]
        B = [[rng.randrange(p**3) for _ in range(6)] for _ in range(4)]
        mat = [[sum(a * b for a, b in zip(row, col)) % p**3 for col in zip(*B)] for row in A]
        mat[0] = [x * p % p**3 for x in mat[0]]
        expected = smith_exponents_mod_prime_power(mat, p, 3)
        res = smith_normal_form(mat, ring)
        assert (res.exponents, res.free_rank) == (expected, 6 - len(expected))


def _full_precision_cases(rng, p, w):
    b = PANEL
    for R, C in ((9, b - 1), (12, b + 1), (8, 2 * b + 1), (b + 1, 10), (b + 1, b + 1)):
        yield _layered_case(rng, R, C, p, w)
    mat = _layered_case(rng, 10, 2 * b + 3, p, w)  # an all-zero middle panel
    for row in mat:
        row[b:2 * b] = [0] * b
    yield mat
    yield [[0] * 5 for _ in range(4)]
    # a hidden deep invariant: the block has determinant p^(w - 4)
    n = 6
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    mat[2][3] = mat[3][2] = 1
    mat[3][3] = 1 + p ** (w - 4)
    yield mat


@pytest.mark.parametrize("p, w", [(2, 24), (3, 24), (5, 24), (7, 21)])
def test_layered_kernel_at_full_precision_matches_python_engine(p, w):
    # coefficient rings need p >= 5; for p = 2, 3 a Python-int oracle stands in
    rng = random.Random(p * 100 + w)
    for mat in _full_precision_cases(rng, p, w):
        R, C = len(mat), len(mat[0])
        exps = snf_int64(np.array(mat, dtype=np.int64), p, p**w, False)[0]
        if p >= 5:
            ring = CoefficientRing(p, 1, w)
            pure = _run_python([[(x,) for x in row] for row in mat], R, C, ring, False)
            assert exps == pure.exponents
        assert exps == smith_exponents_mod_prime_power(mat, p, w)


def test_hidden_deep_invariant_found_at_full_precision():
    res = smith_normal_form([[1, 1], [1, 1 + 5**20]], RING)
    assert res.exponents == [0, 20] and res.free_rank == 0
    assert res.engine == "int64" and res.precision_used == 24 and res.certified


def _staircase(rng, p, tops, R):
    """An R x len(tops) panel whose column c is zero above row tops[c], a unit
    there and random below; a column with top None is zero."""
    A = np.zeros((R, len(tops)), dtype=np.int64)
    for c, top in enumerate(tops):
        if top is not None:
            A[top, c] = rng.integers(1, p)
            A[top + 1:, c] = rng.integers(0, p, size=R - top - 1)
    return A


def _panel_cases(p, rng):
    """Panels with R < w, R > w, all zeros, leading zero columns and rank
    deficiency, and panels shaped for the column runs of ``_panel_factor``."""
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
    # one column-echelon run over the whole panel, pivots down to row 126
    yield _staircase(rng, p, [2 * c for c in range(PANEL)], 2 * PANEL + 3)
    # zero columns inside a run
    yield _staircase(rng, p, [None if c % 5 == 2 else 2 * c for c in range(PANEL)], 2 * PANEL)
    # strictly decreasing first rows: every run is one column
    yield _staircase(rng, p, [PANEL - c for c in range(PANEL)], PANEL + 4)
    # P's first rows 5, 10, 11 increase, but after the pivot (10, 0) the
    # residuals of columns 2 and 3 both start at row 11: fill-in cuts the run
    A = np.zeros((16, 5), dtype=np.int64)
    A[[10, 12], 0] = 1
    A[5, 1] = 1
    A[[10, 11], 2] = 1
    A[[11, 13], 3] = 1
    A[14, 4] = 1
    yield np.hstack([A, panel(16, PANEL - 5)])
    A = panel(160, PANEL)  # every pivot below row 100
    A[:100] = p * rng.integers(0, 3, size=(100, PANEL))
    yield A
    yield panel(1, PANEL)
    yield panel(90, 1)


@pytest.mark.parametrize("p", [2, 5, 7, 2**31 - 1])
def test_panel_factor_rank_profile_and_pivot_block_inverse(p):
    """The pivots are those of column-by-column elimination with the lowest
    eligible row: the rank profile matrix, whose pivots inside P[:i, :j]
    count its rank."""
    rng = np.random.default_rng(p % 1000)
    for P in _panel_cases(p, rng):
        rows, cols, Ginv = _panel_factor(P.copy(), p, _Inverses())
        assert list(zip(rows, cols)) == rank_profile_mod_p(P.tolist(), p)
        assert cols == column_rank_profile_mod_p(P.tolist(), p)
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        R, w = P.shape
        for i, j in ((R // 2, w // 2), (R // 3, w), (R, w // 3)):
            inside = sum(r < i and c < j for r, c in zip(rows, cols))
            assert inside == len(column_rank_profile_mod_p(P[:i, :j].tolist(), p))
        if not rows:
            assert Ginv is None
            continue
        G = P[np.ix_(rows, cols)].tolist()
        assert Ginv.astype(np.int64).tolist() == inverse_mod_p(G, p)


@pytest.mark.parametrize("p", [5, 7, 2**31 - 1])
def test_unit_triangular_inverse_matches_python_ints(p, monkeypatch):
    """Against Gauss-Jordan on Python ints, on one float64 product per step
    (p = 5, 7) and on int64 split products (2^31 - 1); every product goes
    through the split, and a diagonal T costs one product."""
    products = []
    exact_split = _kernels._exact_split

    class Counted:
        def __init__(self, split):
            self.split = split

        def digits(self, K):
            return self.split.digits(K)

        def mul_sub(self, *args, **kwargs):
            products.append(type(self.split))
            return self.split.mul_sub(*args, **kwargs)

    monkeypatch.setattr(_kernels, "_exact_split",
                        lambda m, inner, prime: Counted(exact_split(m, inner, prime)))
    rng = random.Random(p)
    s = PANEL
    chain = [[int(i == j) + (j == i + 1) * rng.randrange(1, p) for j in range(s)]
             for i in range(s)]
    full = [[int(i == j) if j <= i else rng.randrange(p) for j in range(s)] for i in range(s)]
    odd = [row[:45] for row in full[:45]]
    cases = [[[1]], np.eye(s, dtype=np.int64).tolist(), np.eye(37, dtype=np.int64).tolist(),
             chain, full, odd]
    for T in cases + [[list(c) for c in zip(*T)] for T in cases[3:]]:
        products.clear()
        X = _unit_triangular_inverse(np.array(T, dtype=np.int64), p)
        assert X.dtype == np.int64 and X.tolist() == inverse_mod_p(T, p)
        assert set(products) <= {_FloatSplit if p < 2**31 - 1 else _BitSplit}
        if T == cases[1]:
            assert len(products) == 1


def test_pivot_block_inverse_lifts_to_the_working_precision():
    # past int64 the inverse mod p must reach Python integers through
    # int64, not as Python floats
    rng = np.random.default_rng(3)
    for p, w in ((7, 11), (7, 24), (5, 27)):
        m = p**w
        P = np.array([[int(x) * m // 2**62 for x in row]
                      for row in rng.integers(0, 2**62, size=(80, PANEL))],
                     dtype=residue_dtype(m))
        rows, cols, Ginv = _panel_factor(P, p, _Inverses())
        G = P[np.ix_(rows, cols)]
        X = _inv_mod(G, Ginv, p, m)
        assert X.dtype == residue_dtype(m) and all(type(x) is int for x in X.ravel().tolist())
        assert ((G.astype(object) @ X.astype(object)) % m
                == np.eye(len(rows), dtype=object)).all()


def _unit_block(rng, p, w, s):
    """A random s x s matrix mod p^w, invertible mod p, with entries near p^w."""
    m = p**w
    while True:
        G = [[m - 1 - int(x) * (m // 7) // 2**62 for x in row]
             for row in rng.integers(0, 2**62, size=(s, s))]
        try:
            inverse_mod_p(G, p)
        except StopIteration:  # no unit pivot left: singular mod p
            continue
        return G


@pytest.fixture
def split_moduli(monkeypatch):
    """The moduli of the Newton steps that take split products, as ``_inv_mod`` runs."""
    moduli = []
    exact_split = _kernels._exact_split
    monkeypatch.setattr(_kernels, "_exact_split",
                        lambda k, inner, p: moduli.append(k) or exact_split(k, inner, p))
    return moduli


@pytest.mark.parametrize("s", [1, 2, 63, 64])
@pytest.mark.parametrize("p, w, split", [
    (5, 13, False), (7, 11, False),  # every Newton step in float64
    (5, 24, True), (7, 21, True),  # the last step by split products
    (7, 24, True),  # Python-integer residues
])
def test_pivot_block_inverse_matches_python_integers(p, w, split, s, split_moduli):
    m = p**w
    rng = np.random.default_rng(100 * w + s)
    blocks = [_unit_block(rng, p, w, s)]
    if (s + 1) % p:  # m - 1 off the diagonal, m - 2 on it: -(J + I) mod p
        blocks.append([[m - 1 - int(i == j) for j in range(s)] for i in range(s)])
    for G in blocks:
        split_moduli.clear()
        X = _inv_mod(np.array(G, dtype=residue_dtype(m)),
                     np.array(inverse_mod_p(G, p), dtype=np.float64), p, m)
        assert X.dtype == residue_dtype(m)
        assert X.tolist() == inverse_mod_prime_power(G, p, w)
        assert split_moduli == ([m] if split else [])


@pytest.mark.parametrize("p, after, s", [(8191, 8209, 1), (2887, 2897, 64)])
def test_pivot_block_inverse_at_the_float64_edge(p, after, s, split_moduli):
    # at p^4 every Newton step runs in float64, and the last one starts at
    # k = p^2 with s k (k + 1) just below 2^52; at the next prime that step
    # takes split products
    k = p * p
    assert s * k * (k + 1) < 1 << 52 <= s * after**2 * (after**2 + 1)
    rng = np.random.default_rng(p)
    for q in (p, after):
        m = q**4
        for G in ([[m - 1 - int(i == j) for j in range(s)] for i in range(s)],
                  _unit_block(rng, q, 4, s)):
            split_moduli.clear()
            X = _inv_mod(np.array(G, dtype=np.int64),
                         np.array(inverse_mod_p(G, q), dtype=np.float64), q, m)
            assert X.tolist() == inverse_mod_prime_power(G, q, 4)
            assert split_moduli == ([] if q == p else [m])


def _dense_u(res):
    """U as a list of rows, built column by column from ``reduce_vector``."""
    R = res.nrows
    columns = [res.reduce_vector([int(i == j) for i in range(R)]) for j in range(R)]
    return [list(row) for row in zip(*columns)]


def _check_transform(matrix, p, exponents, reduce_vector, generator_column):
    """U A = D V^-1 for some unimodular V, checked on U alone.

    U A comes from ``reduce_vector`` of each column of A.  Its rows past the
    rank vanish, row i is divisible by p^(e_i), and the rows divided by
    p^(e_i) are independent mod p.  U^-1 comes from ``generator_column``,
    and U maps its column k to e_k.
    """
    R, rank = len(matrix), len(exponents)
    columns = [reduce_vector([int(x) for x in column]) for column in zip(*matrix)]
    UA = [list(row) for row in zip(*columns)] if columns else [[] for _ in range(R)]
    for row in UA[rank:]:
        assert not any(row)
    scaled = []
    for row, e in zip(UA, exponents):
        assert all(x % p**e == 0 for x in row)
        scaled.append([x // p**e % p for x in row])
    if scaled:
        assert len(column_rank_profile_mod_p([list(c) for c in zip(*scaled)], p)) == rank
    for k in range(R):
        assert reduce_vector(generator_column(k)) == [int(i == k) for i in range(R)]


def test_transforms_diagonalize_pure():
    rng = random.Random(3)
    for _ in range(25):
        R, C = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(RING10.modulus) for _ in range(C)] for _ in range(R)]
        res = _python_engine(mat, RING10, track=True)
        _check_transform(mat, RING10.prime, res.exponents, res.reduce_vector,
                         res.generator_column)


def test_transforms_diagonalize_int64(monkeypatch):
    _large_route(monkeypatch)
    rng = random.Random(5)
    for _ in range(25):
        R, C = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = [[rng.randrange(RING10.modulus) for _ in range(C)] for _ in range(R)]
        res = smith_normal_form(mat, RING10, with_transforms=True)
        assert res.engine == "int64"
        _check_transform(mat, RING10.prime, res.exponents, res.reduce_vector,
                         res.generator_column)


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


def _quadratic_case(rng, R, C, ring):
    """A random O-matrix with rank deficiency and rows scaled by p^0..p^3."""
    p, m = ring.prime, ring.modulus

    def entry():
        return ring.element((rng.randrange(m), rng.randrange(m)))

    mat = [[entry() for _ in range(C)] for _ in range(R)]
    for row in mat[: R // 3]:  # O-combinations of two other rows
        i, j = rng.sample(range(R // 3, R), 2)
        lam = entry()
        row[:] = [x + lam * y for x, y in zip(mat[i], mat[j])]
    for row in mat:
        k = rng.choice((0, 0, 1, 2, 3))
        row[:] = [x * p**k for x in row]
    return mat


def _quadratic_hidden_invariant(ring):
    """6 x 6 with the block [[1, 1], [1, 1 + p^(N-4) x]]: determinant p^(N-4) x."""
    n, N = 6, ring.precision_exponent
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    mat[2][3] = mat[3][2] = 1
    mat[3][3] = (1, ring.prime ** (N - 4))
    return mat


@pytest.mark.parametrize("p, N", [(5, 24), (5, 9), (7, 10), (17, 15)])
def test_realified_kernel_matches_python_engine_over_quadratic_ring(p, N):
    # at 17^15 the products of the kernel are exact, but nu times a residue leaves int64
    ring = CoefficientRing(p, 2, N)
    rng = random.Random(p * 100 + N)
    cases = [_quadratic_case(rng, R, C, ring) for R, C in ((9, 63), (12, 64), (10, 65), (7, 5))]
    cases.append(_quadratic_hidden_invariant(ring))
    for mat in cases:
        res = smith_normal_form(mat, ring)
        assert (res.engine, res.precision_used) == ("int64", N)
        assert res.exponents == _python_engine(mat, ring).exponents
    assert res.exponents == [0] * 5 + [N - 4] and res.free_rank == 0


def test_regular_representation_blocks():
    ring = CoefficientRing(7, 2, 3)  # nu = -4
    a = np.array([[2, 0]], dtype=np.int64)
    b = np.array([[5, 1]], dtype=np.int64)
    A = snf.regular_representation([a, b], ring, ring.modulus)
    m = ring.modulus
    assert A.tolist() == [[2, -4 * 5 % m, 0, -4 % m], [5, 2, 1, 0]]


def test_certification_flags():
    shallow = CoefficientRing(5, 1, 4)
    res = smith_normal_form([[125]], shallow)
    assert res.exponents == [3]
    assert not res.certified  # 3 >= N - 2 = 2
    deep = smith_normal_form([[125]], RING)
    assert deep.certified


def test_deep_exponent_triggers_full_precision_retry(monkeypatch):
    # p^15 is invisible at the int64 working precision (5^13); the suspicious
    # result is redone at the ring's precision 5^24
    _large_route(monkeypatch)
    res = smith_normal_form([[5**15]], RING)
    assert res.exponents == [15]
    assert res.precision_used == 24 and res.certified


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


def test_reduce_vector_has_one_format_across_engines(monkeypatch):
    # a monomial matrix with distinct valuations: both engines pivot in the
    # same order and find the same U, so U w must compare equal as given
    _large_route(monkeypatch)
    rng = random.Random(8)
    mat = [[0] * 4 for _ in range(4)]
    for row, (col, e) in enumerate([(2, 2), (0, 0), (3, 3), (1, 1)]):
        mat[row][col] = rng.randrange(1, 5) * 5**e
    res = smith_normal_form(mat, RING10, with_transforms=True)
    pure = _python_engine(mat, RING10, track=True)
    assert (res.engine, pure.engine) == ("int64", "python")
    for _ in range(3):
        w = [rng.randrange(RING10.modulus) for _ in range(4)]
        assert res.reduce_vector(w) == pure.reduce_vector(w)
        assert all(type(x) is int for x in pure.reduce_vector(w))
    quadratic = smith_normal_form([[(2, 1)], [(5, 0)]], RINGQ, with_transforms=True)
    assert all(isinstance(x, tuple) for x in quadratic.reduce_vector([1, (0, 1)]))


def test_reduce_vector_accepts_ints_beyond_int64(monkeypatch):
    # the random-subgroup selector scales generators by p-powers and the T-action
    # reduces mod p^N, both past int64; only the residue mod p^W matters
    _large_route(monkeypatch)
    ring = CoefficientRing(7, 1, 24)
    rng = random.Random(11)
    mat = [[rng.randrange(ring.modulus) for _ in range(6)] for _ in range(6)]
    res = smith_normal_form(mat, ring, with_transforms=True)
    w = [rng.randrange(res.modulus) for _ in range(6)]
    big = [x * 7**13 + x + 5 * res.modulus for x in w]
    scaled = [(x * 7**13 + x) % res.modulus for x in w]
    assert max(big) > 2**63
    assert res.reduce_vector(big) == res.reduce_vector(scaled)


def test_reduce_vector_matches_python_int_product(monkeypatch):
    _large_route(monkeypatch)
    ring = CoefficientRing(7, 1, 24)
    rng = random.Random(12)
    R = 70
    mat = [[rng.randrange(ring.modulus) * 7 ** rng.choice((0, 0, 1)) for _ in range(R + 3)]
           for _ in range(R)]
    res = smith_normal_form(mat, ring, with_transforms=True)
    assert res.engine == "int64"
    U = _dense_u(res)
    for _ in range(3):
        w = [rng.randrange(-2**80, 2**80) for _ in range(R)]
        expect = [sum(U[i][j] * x for j, x in enumerate(w)) % res.modulus
                  for i in range(R)]
        assert res.reduce_vector(w) == expect


@pytest.mark.parametrize("p, W", [(5, 13), (7, 11)])
def test_tracked_layered_transforms(p, W, monkeypatch):
    """Tracked reductions spanning several panels and valuation layers."""
    _large_route(monkeypatch)
    ring = CoefficientRing(p, 1, W)
    rng = random.Random(p * W)
    for R, C in ((70, 73), (140, 100), (100, 150)):
        mat, expected = _disguised_blocks(rng, R, C, p, W, max_exponent=3)
        res = smith_normal_form(mat, ring, with_transforms=True)
        assert res.engine == "int64" and res.precision_used == W
        assert res.exponents == expected == smith_exponents_mod_prime_power(mat, p, W)
        assert res.rank < R and max(res.exponents) >= 2
        _check_transform(mat, p, res.exponents, res.reduce_vector, res.generator_column)
        pure = _python_engine(mat, ring, track=True)
        assert pure.exponents == res.exponents
        # the Python engine's U w costs R^2 ring products: a sample of the
        # summands, with the deepest torsion ones and some free ones
        ks = rng.sample(range(R), 12) + res.torsion_positions[-4:] + list(range(res.rank, R))[:4]
        vectors = []
        for r in (res, pure):
            for k in ks:
                unit = rng.randrange(1, p) * rng.choice((1, p + 1))
                vectors.append([x * unit for x in r.generator_column(k)])
        vectors += [[rng.randrange(p**W) for _ in range(R)] for _ in range(20)]
        vectors += [[x * p ** (W - 2) for x in v] for v in vectors[-5:]]
        verdicts = [res.is_torsion_vector(v) for v in vectors]
        assert verdicts == [pure.is_torsion_vector(v) for v in vectors]
        assert True in verdicts and False in verdicts


def _hidden_deep_invariant(rng, n, p, W, deep):
    """A dense n x n matrix mod p^W: one p^deep invariant and disguised shallow blocks.

    The deep pivot stays visible as an entry p^deep, so the reduced-precision
    run is suspicious.  Returns the matrix and its exponents.
    """
    block, expected = _disguised_blocks(rng, n - 1, n - 1, p, W, max_exponent=3)
    m = p**W
    A = [[p**deep] + [0] * (n - 1)] + [[0] + row for row in block]
    c = [rng.randrange(m) for _ in range(n)]
    for i in range(1, n):  # row i += c_i row 0, then column j += c_j column 0
        A[i][0] = c[i] * A[0][0] % m
    for j in range(1, n):
        for row in A:
            row[j] = (row[j] + c[j] * row[0]) % m
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[A[i][j] for j in cols] for i in rows], sorted(expected + [deep])


def _check_suspicious_tracked_rerun(ring, deep, seed):
    """A large tracked reduction whose p^deep invariant is invisible at p^W is
    redone at p^N by the layered kernel, transform included."""
    p, N = ring.prime, ring.precision_exponent
    rng = random.Random(seed)
    n = 72  # above PURE_SIZE_LIMIT entries
    mat, expected = _hidden_deep_invariant(rng, n, p, N, deep)
    assert n * n > snf.PURE_SIZE_LIMIT and deep >= int64_precision_cap(p)
    res = smith_normal_form(mat, ring, with_transforms=True)
    assert res.engine == "int64" and res.precision_used == N and res.certified
    assert res.exponents == expected == smith_exponents_mod_prime_power(mat, p, N)
    _check_transform(mat, p, res.exponents, res.reduce_vector, res.generator_column)
    pure = _python_engine(mat, ring, track=True)
    assert pure.exponents == res.exponents
    vectors = [r.generator_column(k) for r in (res, pure) for k in range(n)]
    verdicts = [res.is_torsion_vector(v) for v in vectors]
    assert verdicts == [pure.is_torsion_vector(v) for v in vectors]
    assert True in verdicts and False in verdicts


def test_suspicious_tracked_reduction_reruns_on_the_layered_kernel():
    _check_suspicious_tracked_rerun(RING, 15, 15)


def test_suspicious_tracked_reduction_reruns_on_the_layered_kernel_at_7_24():
    # 7^24 residues pass int64: the rerun and its transform run on Python integers
    _check_suspicious_tracked_rerun(CoefficientRing(7, 1, 24), 13, 13)


def test_oversized_suspicious_reduction_is_redone_exactly():
    # a 7^13 entry vanishes at the int64 working precision 7^11; the
    # suspicious result is redone exactly at 7^24 whatever its size, as the
    # same case is at 5^24
    n = 250
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for ring, deep in ((CoefficientRing(7, 1, 24), 7**13), (RING, 5**15)):
        mat[0][0] = deep
        res = smith_normal_form(mat, ring)
        assert res.engine == "int64" and res.precision_used == 24 and res.certified
        assert res.exponents == [0] * (n - 1) + [_int_valuation(deep, ring.prime)]
        small = smith_normal_form([[deep]], ring)
        assert small.engine == "int64" and small.precision_used == 24 and small.certified
        assert small.exponents == res.exponents[-1:]


@pytest.mark.parametrize("p", [5, 7])
def test_python_engine_runs_only_for_small_or_quadratic_tracked_reductions(p, monkeypatch):
    calls = []
    snf_int64, run_python = _kernels.snf_int64, snf._run_python

    def counted_snf_int64(*args, **kwargs):
        calls.append("kernel")
        return snf_int64(*args, **kwargs)

    def counted_run_python(*args, **kwargs):
        calls.append("python")
        return run_python(*args, **kwargs)

    monkeypatch.setattr(_kernels, "snf_int64", counted_snf_int64)
    monkeypatch.setattr(snf, "_run_python", counted_run_python)
    rng = random.Random(p)
    for degree in (1, 2):
        ring = CoefficientRing(p, degree, 24)
        for R, C in ((6, 7), (66, 64)):  # 42 and 4224 entries
            if degree == 1:
                mat = [[rng.randrange(ring.modulus) for _ in range(C)] for _ in range(R)]
            else:
                mat = _quadratic_case(rng, R, C, ring)
            small = R * C <= snf.PURE_SIZE_LIMIT
            for track in (False, True):
                calls.clear()
                res = smith_normal_form(mat, ring, with_transforms=track)
                python = track and (degree == 2 or small)
                assert calls == (["python"] if python else ["kernel"]), (degree, R, track)
                assert res.engine == ("python" if python else "int64")
                assert res.certified


def _multiplication_matrix(f, p, n, m):
    """Multiplication by f on Z[T]/omega_n mod m, basis 1, T, ..., T^(q-1): column k is T^k f.

    A column whose product passes degree q - 1 wraps through
    T^q = -(omega_n - T^q); those last deg f columns are dense, and their
    entries off the band are divisible by p, mostly not by p^W.
    """
    q = p**n
    wrap = np.array([-c % m for c in omega_int(p, n)[:q]], dtype=np.int64)
    M = np.zeros((q, q), dtype=np.int64)
    v = np.zeros(q, dtype=np.int64)
    v[:len(f)] = np.asarray(f, dtype=np.int64) % m
    for k in range(q):
        M[:, k] = v
        v = (np.concatenate(([0], v[:-1])) + v[-1] * wrap) % m
    return M


def _expansion_shaped(rng, p, n, W, g, c, degree):
    """A g p^n x c p^n block matrix mod p^W like a level-n expansion.

    Block (i, j) multiplies by a random polynomial of degree <= ``degree``,
    some blocks are zero, and a polynomial with its constant term divisible
    by p (a non-unit of Lambda) or all of it divisible by p makes torsion.
    """
    q, m = p**n, p**W
    A = np.zeros((g * q, c * q), dtype=np.int64)
    for i in range(g):
        for j in range(c):
            if rng.random() < 0.2:
                continue
            f = [rng.randrange(p**2) for _ in range(rng.randrange(1, degree + 2))]
            f[0] *= p
            if rng.random() < 0.2:
                f = [x * p for x in f]
            A[i * q:(i + 1) * q, j * q:(j + 1) * q] = _multiplication_matrix(f, p, n, m)
    return A


def _with_zero_lines_and_deep_entries(rng, A, p, W):
    """A with zero rows and columns inserted and entries p^k u, 1 <= k < W, scattered in."""
    m = p**W
    R, C = A.shape
    zero_rows = sorted(rng.sample(range(R + 1), 5))
    zero_cols = sorted(rng.sample(range(C + 1), 5))
    A = np.insert(A, zero_rows, 0, axis=0)
    A = np.insert(A, zero_cols, 0, axis=1)
    zero_rows = [r + k for k, r in enumerate(zero_rows)]
    zero_cols = [c + k for k, c in enumerate(zero_cols)]
    for _ in range(A.shape[0] // 4):
        i, j = rng.randrange(A.shape[0]), rng.randrange(A.shape[1])
        if i not in zero_rows and j not in zero_cols:
            A[i, j] = p ** rng.randrange(1, W) * rng.randrange(1, p) % m
    return A


@pytest.mark.parametrize("p, W, n, g, c", [(5, 13, 2, 4, 5), (7, 11, 2, 2, 3)])
def test_layered_kernel_on_expansion_shaped_matrices(p, W, n, g, c):
    """Banded blocks with dense wrap columns: the rows and columns the trailing updates skip."""
    assert W == int64_precision_cap(p)
    rng = random.Random(p * 1000 + W)
    m = p**W
    for degree in (1, 3):
        A = _with_zero_lines_and_deep_entries(
            rng, _expansion_shaped(rng, p, n, W, g, c, degree), p, W)
        assert A.shape[1] > 2 * PANEL
        expected = smith_exponents_mod_prime_power(A.tolist(), p, W)
        assert max(expected) > 0
        exponents, transform = snf_int64(A.copy(), p, m, False)
        assert transform is None and exponents == expected
        exponents, transform = snf_int64(A.copy(), p, m, True)
        assert exponents == expected
        _check_transform(A, p, exponents, transform.reduce_vector, transform.generator_column)


def test_layered_kernel_memory_stays_within_chunks():
    """Temporaries of a sparse 686 x 686 reduction stay well below the matrix.

    Every gathered block is bounded by a panel or by a chunk of the trailing
    update, and the peak is about a third of A.nbytes; a gather of
    full-width row blocks copies most of the matrix and passes the bound.
    """
    p, n, W = 7, 3, 11
    # in the kernel's residue dtype (int32 at 7^11), which it reduces in place
    A = _expansion_shaped(random.Random(686), p, n, W, 2, 2, 14).astype(residue_dtype(p**W))
    assert A.shape == (686, 686) and (A != 0).mean() < 0.1
    snf_int64(A.copy(), p, p**W, False)  # caches and BLAS buffers
    X = A.copy()
    tracemalloc.start()
    try:
        snf_int64(X, p, p**W, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * A.nbytes


@pytest.fixture
def lifts(monkeypatch):
    """Counts of ``_panel_factor`` and ``_inv_mod`` calls, as the kernel runs."""
    calls = {"panels": 0, "lifts": 0}

    def counted(key, f):
        def run(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return run

    monkeypatch.setattr(_kernels, "_panel_factor", counted("panels", _kernels._panel_factor))
    monkeypatch.setattr(_kernels, "_inv_mod", counted("lifts", _kernels._inv_mod))
    return calls


def _reuse_case(ring, seed):
    """Two generators and three relations: a distinguished polynomial of
    degree 2 to 4 with a p^2-multiple beside it, T - p^3 with a p^3-multiple
    beside it, and a mu column of p^2 and p^4 multiples."""
    p, m = ring.prime, ring.modulus
    rng = random.Random(seed)

    def poly(top, scale=1):
        return IwasawaPoly.from_ints(ring, [rng.randrange(m) * scale % m for _ in range(top + 1)])

    top = rng.randrange(2, 5)
    first = [IwasawaPoly.from_ints(ring, [rng.randrange(m) * p for _ in range(top)] + [1]),
             poly(3, p**2)]
    second = [poly(2, p**3), IwasawaPoly.from_ints(ring, [-p**3, 1])]
    mu = [poly(3, p**2), poly(2, p**4)]
    return ModulePresentation(ring, 2, [[first[i], second[i], mu[i]] for i in range(2)])


@pytest.mark.parametrize("p, level, seed", [(5, 2, 0), (5, 2, 1), (7, 1, 2)])
def test_repeated_pivot_blocks_keep_the_smith_form(p, level, seed, lifts, monkeypatch):
    """With 8-column panels a level expansion spans several panels whose
    pivot blocks repeat, so blocks inverted once are met again; exponents
    against the referee, untracked (echelon order) and tracked (block order,
    with the transform checks)."""
    _large_route(monkeypatch)
    monkeypatch.setattr(_kernels, "PANEL", 8)
    ring = CoefficientRing(p, 1, 24)
    M = _reuse_case(ring, seed)
    fin = FinLevelModule(M, level)
    rng = random.Random(seed)
    quotients = [[(rng.randrange(ring.modulus) * p ** (k % 3),) for _ in range(fin.nrows)]
                 for k in range(2)]
    for columns in ((), quotients):
        for track in (False, True):
            lifts.update(panels=0, lifts=0)
            source = _LevelSource(fin, columns, echelon=not track)
            res = snf.reduce(source, ring, track)
            assert res.engine == "int64" and lifts["lifts"] < lifts["panels"]
            rows = [[x[0] for x in row] for row in source.coordinate_rows()]
            assert res.exponents == smith_exponents_mod_prime_power(rows, p, res.precision_used)
            assert max(res.exponents) >= 2
            if track:
                _check_transform(rows, p, res.exponents, res.reduce_vector,
                                 res.generator_column)


@pytest.mark.parametrize("draw, shape, panels, most", [(0, (686, 686), 11, 3),
                                                       (1, (1372, 1029), 16, 8)])
def test_each_distinct_pivot_block_is_lifted_once_per_reduction(draw, shape, panels, most,
                                                                lifts):
    # level-3 expansions of the corpus draws behind the classify_p7 benchmark
    # at p^W: the panels repeat a few pivot blocks, and a second reduction of
    # the same matrix lifts as often as the first, so nothing is kept between
    # reductions
    p = 7
    recipe = sample_recipe(2024 * 1000003 + draw, p)
    M = obfuscate(build_elementary(recipe, CoefficientRing(p, 1, 24)),
                  seed=recipe.seed ^ 0x5EED, steps=24)
    W = int64_precision_cap(p)
    A = FinLevelModule(M, 3).matrix_int64(W, echelon=True)
    assert W == 11 and A.shape == shape
    counts, results = [], []
    for _ in range(2):
        lifts.update(panels=0, lifts=0)
        results.append(snf_int64(A.copy(), p, p**W, False)[0])
        counts.append(dict(lifts))
    assert counts[0] == counts[1] and results[0] == results[1]
    assert counts[0]["panels"] == panels and counts[0]["lifts"] <= most


@pytest.mark.parametrize("shape, untracked", [("diagonal", 0), ("lower", 0), ("corner", 2)])
def test_untracked_panels_without_an_update_lift_nothing(shape, untracked, lifts):
    """Only the trailing update and the transform read a lifted pivot block.

    On a unit diagonal no other row meets a panel's pivot columns, and on a
    unit lower triangle the pivot rows vanish on every later column, so
    untracked no panel lifts; one entry in the top right corner gives the
    first two panels an update.  Tracked, every distinct block is lifted.
    """
    p, W = 7, 11
    m = p**W
    n = 2 * PANEL + 9
    rng = np.random.default_rng(n)
    A = rng.integers(0, m, size=(n, n))
    A = np.diag(np.diag(A)) if shape == "diagonal" else np.tril(A)
    A[np.diag_indices(n)] = rng.integers(1, p, n) + p * rng.integers(0, m // p, n)
    if shape == "corner":
        A[0, -1] = 1
    A = A.astype(residue_dtype(m))
    assert smith_exponents_mod_prime_power(A.tolist(), p, W) == [0] * n
    lifts.update(panels=0, lifts=0)
    assert snf_int64(A.copy(), p, m, False) == ([0] * n, None)
    assert lifts == {"panels": 3, "lifts": untracked}
    lifts.update(panels=0, lifts=0)
    exponents, transform = snf_int64(A.copy(), p, m, True)
    assert exponents == [0] * n and lifts == {"panels": 3, "lifts": 3}
    _check_transform(A.tolist(), p, exponents, transform.reduce_vector,
                     transform.generator_column)


def test_inverse_store_keys_on_content_and_drops_the_oldest(monkeypatch):
    # room for two 8 x 8 float64 blocks with their inverses; the same bytes
    # under another modulus or dtype are another block, and Python-integer
    # blocks are never kept
    monkeypatch.setattr(_kernels._Inverses, "BUDGET", 4 * 8 * 8 * 8)
    store = _kernels._Inverses()
    calls = []

    def inverse(block):
        def invert():
            calls.append(block)
            return np.linalg.inv(block)
        return invert

    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(0, 5, size=(8, 8)).astype(np.float64) + 8 * np.eye(8)
               for _ in range(3))
    for block in (a, b, a.copy(), b):
        X = store.get(5, block, inverse(block))
        assert np.allclose(X @ block, np.eye(8)) and not X.flags.writeable
    assert len(calls) == 2
    store.get(7, a, inverse(a))
    store.get(5, a.astype(np.int64), inverse(a))
    assert len(calls) == 4 and len(store.store) == 2
    store.get(5, b, inverse(b))  # dropped
    assert len(calls) == 5
    store.get(5, c.astype(object), inverse(c))
    store.get(5, c.astype(object), inverse(c))
    assert len(calls) == 7 and len(store.store) == 2


# -- residues at the int32 boundary -------------------------------------------

# (p, w, dtype): the largest p^w below 2^31, whose residues are int32, and the
# smallest p^w past it, the int64 control
BOUNDARY = [(5, 13, np.int32), (5, 14, np.int64), (7, 11, np.int32), (7, 12, np.int64)]


def test_residue_dtype_is_the_narrowest_that_holds_the_residues():
    moduli = (2, 2**31, 2**31 + 1, 2**63, 2**63 + 1)
    assert [residue_dtype(m) for m in moduli] == [np.int32, np.int32, np.int64, np.int64, object]
    assert [residue_dtype(p**w) for p, w, _ in BOUNDARY] == [dtype for _, _, dtype in BOUNDARY]


@pytest.mark.parametrize("p, w, dtype", BOUNDARY)
def test_split_products_of_the_largest_residues_at_the_int32_boundary(p, w, dtype):
    """Operands m - 1, whose sums and products pass int32 once m > 2^30.

    Every split scheme, at inner dimension 1 (the widest bit digits) and at
    the panel width, against Python integers.
    """
    m = p**w
    assert residue_dtype(m) is dtype
    for inner in (1, PANEL):
        L = np.full((3, inner), m - 1, dtype=dtype)
        K = np.full((inner, 5), m - 1, dtype=dtype)
        X0 = np.full((3, 5), m - 1, dtype=dtype)
        exact = (L.astype(object) @ K.astype(object)) % m
        for split in (_BitSplit(m, inner), _PadicSplit(p, m, inner), _ObjectSplit(m)):
            assert (split.mul_sub(L, split.digits(K)) == -exact % m).all()
            assert (split.mul_sub(L, split.digits(K), X0=X0)
                    == (X0.astype(object) - exact) % m).all()
        assert (_mulmod(L, K, m, p) == exact).all()


def test_bit_digits_wider_than_int32():
    # the deep layers of a reduction work mod small powers, where the bit
    # split's digits are 31 bits or wider: their mask passes int32
    p, m = 5, 5**5
    split = _BitSplit(m, PANEL)
    assert split.h >= 31
    L = np.full((3, PANEL), m - 1, dtype=residue_dtype(m))
    K = np.full((PANEL, 5), m - 1, dtype=residue_dtype(m))
    assert (_mulmod(L, K, m, p) == (L.astype(object) @ K.astype(object)) % m).all()


@pytest.mark.parametrize("p, w, dtype", BOUNDARY)
def test_regular_representation_of_the_largest_residues(p, w, dtype):
    """nu b for b = m - 1 passes int32 (nu = -3 at p = 5, -4 at p = 7)."""
    m = p**w
    ring = CoefficientRing(p, 2, 24)
    planes = np.full((2, 3, 4, 2), m - 1, dtype=dtype)  # entries in O_j, as components take them
    planes[1, 0, 0] = [1, 0]
    A = snf.regular_representation(planes, ring, m)
    a, b = planes.astype(object)
    expected = np.empty((6, 8, 2), dtype=object)
    expected[0::2, 0::2] = expected[1::2, 1::2] = a
    expected[1::2, 0::2] = b
    expected[0::2, 1::2] = ring.nu * b % m
    assert A.dtype == dtype and (A == expected).all()


@pytest.mark.parametrize("p, w, dtype", BOUNDARY)
def test_pivot_block_inverse_at_the_int32_boundary(p, w, dtype):
    # lifted to the block's own modulus, and from a block of int32 residues
    # to the transform's p^24, as a tracked layer below 2^31 lifts it
    m = p**w
    rng = np.random.default_rng(p * w)
    for s in (1, 17):
        G = _unit_block(rng, p, w, s)
        Ginv = np.array(inverse_mod_p(G, p), dtype=np.float64)
        for lift in (m, p**24):
            X = _inv_mod(np.array(G, dtype=dtype), Ginv, p, lift)
            assert X.dtype == residue_dtype(lift)
            assert X.tolist() == inverse_mod_prime_power(G, p, 24 if lift > m else w)


def _replay(transform, y, backwards=False):
    """U y, or U^-1 y with ``backwards``, from the recorded panels on Python ints."""
    m = transform.modulus
    y = [int(x) % m for x in y]

    def apply(M, v):
        return [sum(int(a) * b for a, b in zip(row, v)) for row in M.tolist()]

    for P, F, L, G, Ginv in (reversed(transform.panels) if backwards else transform.panels):
        P, F = P.tolist(), F.tolist()
        t = [y[i] for i in P]
        if backwards:
            y_P, sign = apply(G, t), 1
        else:
            t = y_P = [x % m for x in apply(Ginv, t)]
            sign = -1
        for i, x in zip(F, apply(L, t)):
            y[i] = (y[i] + sign * x) % m
        for i, x in zip(P, y_P):
            y[i] = x % m
    return y


@pytest.mark.parametrize("p, w, dtype", BOUNDARY + [(2, 31, np.int32)])
def test_kernel_and_transform_at_the_int32_boundary(p, w, dtype):
    """Exponents against the referee, and U w and the columns of U^-1 against
    a replay of the recorded panels on Python ints, for w filled with m - 1.
    Deep blocks take the reduction through layers mod small powers.  At
    m = 2^31 itself the residues still fit int32, while m does not."""
    m = p**w
    rng = random.Random(p * 100 + w)
    full = [[m - 1] * 9 for _ in range(7)]
    for mat in (full, _disguised_blocks(rng, 70, 2 * PANEL + 3, p, w)[0]):
        R = len(mat)
        expected = smith_exponents_mod_prime_power(mat, p, w)
        A = np.array(mat, dtype=dtype)
        assert snf_int64(A.copy(), p, m, False) == (expected, None)
        exponents, transform = snf_int64(A, p, m, True)
        assert exponents == expected
        for vector in ([m - 1] * R, [rng.randrange(m) for _ in range(R)]):
            U_w = transform.reduce_vector(vector)
            order = transform.pivots + transform.rows.tolist()
            replayed = _replay(transform, vector)
            assert U_w == [replayed[i] for i in order]
        for k in (0, len(exponents) - 1, R - 1):
            e_k = [0] * R
            e_k[order[k]] = 1
            assert transform.generator_column(k) == _replay(transform, e_k, backwards=True)
        _check_transform(mat, p, exponents, transform.reduce_vector, transform.generator_column)


def test_mod_p_blocks_key_on_uint8_residues_below_256(monkeypatch):
    """A 64 x 64 block mod p < 256 keys on 4 KB of uint8 residues, an eighth
    of its int64 bytes, and the budget counts the smaller key: room for
    two such blocks with their int64 inverses keeps two, where int64 keys
    would keep one.  Both ways of factoring a panel key alike."""
    block = PANEL * PANEL
    monkeypatch.setattr(_kernels._Inverses, "BUDGET", 2 * (block + 8 * block))
    p, m = 7, 7**11
    rng = np.random.default_rng(3)
    lower = [np.tril(rng.integers(0, m, (PANEL, PANEL)), -1) + np.diag(rng.integers(1, p, PANEL))
             for _ in range(3)]  # one run
    dense = rng.integers(0, m, (PANEL + 9, PANEL))  # left-looking elimination
    panels = [P.astype(residue_dtype(m)) for P in lower + [dense]]
    store = _kernels._Inverses()
    first = [_panel_factor(P, p, store) for P in panels]
    assert [len(rows) for rows, _, _ in first] == [PANEL] * 4
    assert len(store.store) == 2 and store.free == 0
    assert all(key[1] == "|u1" and len(key[-1]) == block for key in store.store)
    assert _panel_factor(panels[3], p, store)[2] is first[3][2]
    again = _panel_factor(panels[0], p, store)[2]  # dropped: inverted anew
    assert again is not first[0][2] and (again == first[0][2]).all()
    wide = _kernels._Inverses()
    _panel_factor(panels[0], 257, wide)
    assert [(key[1], len(key[-1])) for key in wide.store] == [("<i8", 8 * block)]


@pytest.mark.parametrize("p, w", [(7, 11), (5, 24), (7, 24), (2**31 - 1, 2)])
def test_block_replays_match_the_panel_replay_on_python_ints(p, w):
    """U W for a block of vectors and the columns of U^-1 for a list of
    summands, each panel replayed once for the whole block, against a replay
    of the recorded panels on Python ints, vector by vector.  The moduli take
    each storage and product class: int32 residues with bit-split products
    (7^11), int64 with p-adic ones (5^24), Python integers with wide sums
    (7^24), and int64 residues whose products run on Python integers."""
    m = p**w
    rng = random.Random(p + w)
    mat = _layered_case(rng, 70, 2 * PANEL + 3, p, w)
    R = len(mat)
    exponents, transform = snf_int64(np.array(mat, dtype=residue_dtype(m)), p, m, True)
    assert exponents == smith_exponents_mod_prime_power(mat, p, w)
    order = transform.pivots + transform.rows.tolist()
    vectors = [[rng.randrange(m) for _ in range(R)] for _ in range(5)] + [[m - 1] * R]
    block = transform.reduce_block(_kernels.to_planes(vectors, 1, m))
    assert block.shape == (1, len(vectors), R)
    for y, vector in zip(block[0].tolist(), vectors):
        replayed = _replay(transform, vector)
        assert y == [replayed[i] for i in order] == transform.reduce_vector(vector)
    ks = [R - 1, 0, len(exponents) // 2, len(exponents) - 1]
    columns = transform.generator_columns(ks)
    assert columns.shape == (1, len(ks), R)
    for k, column in zip(ks, columns[0].tolist()):
        e_k = [0] * R
        e_k[order[k]] = 1
        assert column == _replay(transform, e_k, backwards=True) == transform.generator_column(k)
    assert (transform.reduce_block(transform.generator_columns(list(range(R))))[0]
            == np.eye(R, dtype=np.int64)).all()


def test_kernel_and_transform_at_two_to_the_63():
    """m = 2^63 is the largest modulus of int64 residues, and the int64
    remainder by m itself overflows: the Newton lift of a pivot block and
    the transform reduce on Python integers there."""
    p, w = 2, 63
    m = p**w
    rng = random.Random(63)
    for mat in ([[rng.randrange(m) for _ in range(25)] for _ in range(30)],
                _layered_case(rng, 70, 2 * PANEL + 3, p, w)):
        expected = smith_exponents_mod_prime_power(mat, p, w)
        A = np.array(mat, dtype=np.int64)
        assert snf_int64(A.copy(), p, m, False) == (expected, None)
        exponents, transform = snf_int64(A, p, m, True)
        assert exponents == expected
        _check_transform(mat, p, exponents, transform.reduce_vector, transform.generator_column)


@pytest.mark.parametrize("ring", [RING10, RINGQ, CoefficientRing(7, 2, 24)])
def test_python_transform_applies_blocks_by_its_regular_representation(ring):
    """The Python engine's U W is one product with U's regular representation
    over Z_p.  Over O it must be O-linear: U w equals the sum of the columns
    U e_j times w_j in ring arithmetic, for w with both coordinates set."""
    rng = random.Random(ring.prime * ring.unramified_degree)
    d, m, p = ring.unramified_degree, ring.modulus, ring.prime
    R, C = 7, 5
    mat = [[tuple(rng.randrange(m) * p ** rng.choice((0, 0, 1)) % m for _ in range(d))
            for _ in range(C)] for _ in range(R)]
    res = _python_engine(mat, ring, track=True)
    assert res.engine == "python"
    one, zero = ring.one().coords, ring.zero().coords
    units = res.reduce_block([[one if i == j else zero for i in range(R)] for j in range(R)])
    vectors = [[tuple(rng.randrange(m) for _ in range(d)) for _ in range(R)] for _ in range(4)]
    block = res.reduce_block(vectors)
    assert block.shape == (d, len(vectors), R)
    for k, vector in enumerate(vectors):
        expect = []
        for i in range(R):
            terms = [(ring.element(tuple(units[:, j, i].tolist())) * ring.element(x)).coords
                     for j, x in enumerate(vector)]
            expect.append(tuple(sum(c) % m for c in zip(*terms)))
        assert list(zip(*block[:, k].tolist())) == expect
        assert res.reduce_vector(vector) == _kernels.to_vectors(block[:, [k]])[0]
    identity = np.zeros((d, R, R), dtype=np.int64)
    identity[0] = np.eye(R, dtype=np.int64)
    assert (res.reduce_block(res.generator_columns(range(R))) == identity).all()
    UA = res.reduce_block([[row[j] for row in mat] for j in range(C)])  # (d, C, R)
    assert not UA[:, :, res.rank:].any()
    for i, e in enumerate(res.exponents):
        assert not (UA[:, :, i] % p**e).any()
    vectors += [_kernels.to_vectors(res.generator_columns([k]))[0] for k in range(R)]
    assert res.is_torsion_block(vectors) == [res.is_torsion_vector(v) for v in vectors]
