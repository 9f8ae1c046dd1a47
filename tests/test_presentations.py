import hashlib
import json
import random

import numpy as np
import pytest

from finemw import _kernels, snf
from finemw._kernels import int64_precision_cap, residue_dtype, to_vectors
from finemw.errors import ResourceLimitError, ValidationError
from finemw.oracle import build_elementary, obfuscate, sample_recipe
from finemw.padics import CoefficientRing
from finemw.polynomials import IwasawaPoly, cyclotomic, phi_degree, weierstrass_divide
from finemw.presentations import (
    FinLevelModule,
    ModulePresentation,
    _LevelSource,
    _component_ring,
    _echelon,
    _level_smith,
    check_level_budget,
    coinvariants,
    component_ranks_against,
    cyclic_module,
    direct_sum,
    free_module,
    phi_component_ranks,
    presentation_from_json,
    presentation_to_json,
    transition_check,
)
from finemw.snf import has_deep_entries, smith_normal_form
from finemw.structure import _selector_columns, analyze
from oracles import (
    component_rank_oracle,
    component_ranks_zp,
    cyclotomic_int,
    expand_exact,
    integer_smith_p_exponents,
    mult_matrix_by_columns,
    mulmod_monic,
    omega_int,
    poly_divmod_z,
    smith_exponents_mod_prime_power,
)

RING = CoefficientRing(5, 1, 24)
RINGQ = CoefficientRing(5, 2, 10)
T = IwasawaPoly.variable(RING)
FIVE = IwasawaPoly.constant(RING, 5)


def rel_ints(M):
    return [[[c.coords[0] for c in entry.coefficients] for entry in row]
            for row in M.relations]


def test_free_module_expansion_shape_and_rank():
    L = free_module(RING, 1)
    fin = FinLevelModule(L, 1)
    assert fin.nrows == 5 and fin.matrix_int64(13).shape == (5, 0)  # the omega block is implicit
    s = coinvariants(L, 1)
    assert s.free_rank == 5 and s.torsion_exponents == []
    assert coinvariants(L, 2).free_rank == 25


def test_quotient_by_T_is_one_copy_of_ring():
    M = cyclic_module(RING, T)
    for n in range(3):
        s = coinvariants(M, n)
        assert s.free_rank == 1 and s.torsion_exponents == []


def test_phi1_at_level_zero_is_cyclic_of_order_p():
    M = cyclic_module(RING, cyclotomic(RING, 1))
    s = coinvariants(M, 0)
    assert s.free_rank == 0 and s.torsion_exponents == [1]


def test_t_minus_p_valuation_oracle():
    # oracle: v_p((1+p)^(p^n) - 1) = n + 1 for odd p, computed on exact integers
    M = cyclic_module(RING, T - FIVE)
    for n in range(4):
        value = (1 + 5) ** (5**n) - 1
        v = 0
        while value % 5 == 0:
            value //= 5
            v += 1
        assert v == n + 1
        s = coinvariants(M, n)
        assert s.free_rank == 0 and s.torsion_exponents == [n + 1]


def test_coinvariants_match_exact_integer_smith_oracle():
    rng = random.Random(41)
    for _ in range(8):
        g = rng.randrange(1, 3)
        c = rng.randrange(1, 3)
        rows = [[IwasawaPoly.from_ints(RING, [rng.randrange(0, 50)
                                              for _ in range(rng.randrange(1, 4))])
                 for _ in range(c)] for _ in range(g)]
        M = ModulePresentation(RING, g, rows)
        n = rng.randrange(0, 2)
        s = coinvariants(M, n)
        exact = expand_exact(rel_ints(M), g, 5, n)
        oracle = [e for e in integer_smith_p_exponents(exact, 5) if e > 0]
        assert sorted(s.torsion_exponents) == oracle
        rank_oracle = g * 5**n - len(integer_smith_p_exponents(exact, 5))
        assert s.free_rank == rank_oracle


def test_phi_component_ranks_examples():
    assert phi_component_ranks(free_module(RING, 1), 1) == [1, 4]
    assert phi_component_ranks(cyclic_module(RING, cyclotomic(RING, 1)), 2) == [0, 4, 0]
    assert phi_component_ranks(cyclic_module(RING, T - FIVE), 2) == [0, 0, 0]


def test_phi_component_ranks_match_brute_force_kernel_oracle():
    rng = random.Random(17)
    for _ in range(6):
        g = rng.randrange(1, 3)
        rows = [[rng.choice([T, cyclotomic(RING, 1), FIVE, T - FIVE,
                             IwasawaPoly.from_ints(RING, [0, 0, 1])])
                 for _ in range(g)] for _ in range(g)]
        M = ModulePresentation(RING, g, rows)
        n = 1
        computed = phi_component_ranks(M, n)
        for j in range(n + 1):
            assert computed[j] == component_rank_oracle(rel_ints(M), g, 5, n, j)


def test_phi_component_ranks_sum_to_free_rank():
    M = direct_sum(free_module(RING, 1), cyclic_module(RING, cyclotomic(RING, 2)))
    for n in range(3):
        comp = phi_component_ranks(M, n)
        assert sum(comp) == coinvariants(M, n).free_rank


def test_rank_additivity_under_direct_sum():
    rng = random.Random(23)
    pieces = [free_module(RING, 1), cyclic_module(RING, cyclotomic(RING, 1)),
              cyclic_module(RING, FIVE), cyclic_module(RING, T - FIVE)]
    for _ in range(6):
        A, B = rng.sample(pieces, 2)
        n = rng.randrange(0, 3)
        assert (coinvariants(direct_sum(A, B), n).free_rank
                == coinvariants(A, n).free_rank + coinvariants(B, n).free_rank)


def test_elementary_rank_formula():
    # E(r, {s_j}): rank = r p^n + sum_{j<=n} s_j phi(p^j)
    E = direct_sum(free_module(RING, 1),
                   cyclic_module(RING, cyclotomic(RING, 0)),
                   cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, cyclotomic(RING, 1)))
    s = {0: 1, 1: 2}
    for n in range(3):
        expected = 5**n + sum(sj * phi_degree(5, j) for j, sj in s.items() if j <= n)
        assert coinvariants(E, n).free_rank == expected


def test_transition_check_reports():
    rep = transition_check(cyclic_module(RING, T - FIVE), 2)
    assert rep["verdict"] == "pass"
    assert rep["torsion_orders"] == [1, 2, 3, 4]

    rep = transition_check(cyclic_module(RING, cyclotomic(RING, 1)), 2)
    assert rep["verdict"] == "pass"
    assert rep["torsion_orders"] == [1, 0, 0, 0]

    rep = transition_check(cyclic_module(RING, FIVE), 1)
    assert rep["torsion_orders"] == [1, 5, 25]


def test_omega_annihilates_generators():
    # (1 + T)^q v = v at level 1 (q = 5), by q steps v <- v + T v
    M = cyclic_module(RING, cyclotomic(RING, 1))
    fin = FinLevelModule(M, 1)
    basis = np.array([[[1, 0, 0, 0, 0]]])
    cur = basis
    for _ in range(fin.q):
        cur = (cur + fin.t_apply(cur)) % RING.modulus
    assert (cur == basis).all()


def test_t_apply_matches_exact_action():
    from oracles import t_action_matrix_exact

    fin = FinLevelModule(free_module(RING, 2), 1)
    tmat = t_action_matrix_exact(2, 5, 1)
    rng = random.Random(5)
    vec = [rng.randrange(100) for _ in range(10)]
    ours = fin.t_apply([vec])
    exact = [sum(tmat[i][j] * vec[j] for j in range(10)) % RING.modulus
             for i in range(10)]
    assert ours.shape == (1, 1, 10) and ours[0, 0].tolist() == exact
    assert (fin.t_apply(ours) == fin.t_apply([exact])).all()  # planes in, as they come out
    # over a degree-2 ring T acts on each coordinate by the same integer matrix
    fin = FinLevelModule(free_module(RINGQ, 2), 1)
    vec = [(rng.randrange(3 * RINGQ.modulus), rng.randrange(RINGQ.modulus)) for _ in range(10)]
    exact = [[sum(tmat[i][j] * vec[j][s] for j in range(10)) % RINGQ.modulus
              for s in range(2)] for i in range(10)]
    assert fin.t_apply([vec])[:, 0].T.tolist() == exact


def test_reduce_columns_matches_weierstrass_remainder():
    rng = random.Random(21)
    for ring in (RING, RINGQ):
        var = IwasawaPoly.variable(ring)
        M = ModulePresentation(ring, 2, [[var], [var * var]])
        d = ring.unramified_degree
        for j in (0, 1, 2, None):
            fin = FinLevelModule(M, 2, component=j)
            # quotient columns come in the omega_2 basis, transition_check's
            # level-3 vectors in the omega_3 basis
            for width in (25, 125):
                if d == 1:  # unreduced ints, as the T-action and p-power scalings give
                    col = [rng.randrange(3 * ring.modulus) for _ in range(2 * width)]
                else:
                    col = [tuple(rng.randrange(ring.modulus) for _ in range(d))
                           for _ in range(2 * width)]
                expect = []
                for i in range(2):
                    seg = IwasawaPoly(ring, [ring.element(x).coords
                                             for x in col[width * i:width * (i + 1)]])
                    rem = weierstrass_divide(seg, fin.modulus_poly)[1]
                    expect.extend(rem.coefficient(t).coords for t in range(fin.q))
                assert list(zip(*fin.reduce_columns([col])[:, 0].tolist())) == expect
            # neither this basis nor the omega_k basis of a level k >= 2
            for width in (5, 30):
                with pytest.raises(ValidationError):
                    fin.reduce_columns([[0] * (2 * width)])


@pytest.mark.parametrize("p", [5, 7])
def test_reduce_columns_reduces_many_columns_at_once(p):
    # every generator segment of every column is one row of one exact product
    # at p^24 (past int64 at p = 7); the referee divides each segment on exact
    # integers by the integer modulus
    rng = random.Random(100 + p)
    for degree in (1, 2):
        ring = CoefficientRing(p, degree, 24)
        M = free_module(ring, 2)
        cases = ([(1, j, (p, p**2)) for j in (None, 0, 1)]
                 + [(2, j, (p**2,)) for j in (0, 1, 2)])
        for level, component, widths in cases:
            fin = FinLevelModule(M, level, component)
            modulus = omega_int(p, level) if component is None else cyclotomic_int(p, component)
            q = fin.q
            for width in (q,) + widths:
                cols = [[tuple(rng.randrange(3 * ring.modulus) for _ in range(degree))
                         for _ in range(2 * width)] for _ in range(9)]
                if degree == 1:
                    cols = [[x[0] for x in col] for col in cols]
                planes = fin.reduce_columns(cols)
                assert planes.shape == (degree, 9, 2 * q)
                for k, col in enumerate(cols):
                    coords = [x if isinstance(x, tuple) else (x,) for x in col]
                    for s in range(degree):
                        for i in range(2):
                            seg = [x[s] for x in coords[i * width:(i + 1) * width]]
                            rem = [x % ring.modulus for x in poly_divmod_z(seg, modulus)[1]]
                            assert planes[s, k, i * q:(i + 1) * q].tolist() == \
                                rem + [0] * (q - len(rem))
                    assert fin.reduce_columns([col])[:, 0].tolist() == planes[:, k].tolist()


def test_matrix_int64_at_full_precision_matches_coords():
    # at p^24 > 2^31 the products top * wrap of two residues leave int64
    rng = random.Random(23)

    def poly(degree):
        return IwasawaPoly(RING, [[rng.randrange(RING.modulus)] for _ in range(degree + 1)])

    M = ModulePresentation(RING, 2, [[poly(3), poly(30), poly(0)],
                                     [poly(1), IwasawaPoly(RING, []), poly(27)]])
    for level in range(3):
        for component in [None] + list(range(level + 1)):
            fin = FinLevelModule(M, level, component=component)
            width = 2 * 5**level
            extra = [[rng.randrange(3 * RING.modulus) for _ in range(width)] for _ in range(2)]
            for columns in ((), extra):
                coords = [[x[0] for x in row] for row in fin.matrix_coords(extra_columns=columns)]
                assert fin.matrix_int64(24, extra_columns=columns).tolist() == coords


def test_matrix_int64_over_quadratic_ring_is_the_regular_representation():
    # entry a + b x of the O-matrix becomes the block [[a, nu b], [b, a]]
    ring = CoefficientRing(5, 2, 24)
    m, nu = ring.modulus, ring.nu
    rng = random.Random(31)

    def poly(degree):
        return IwasawaPoly(ring, [[rng.randrange(m), rng.randrange(m)]
                                  for _ in range(degree + 1)])

    M = ModulePresentation(ring, 2, [[poly(3), poly(30)], [poly(1), poly(27)]])
    for level in range(3):
        for component in (None, level):
            fin = FinLevelModule(M, level, component=component)
            extra = [[(rng.randrange(m), rng.randrange(m)) for _ in range(2 * 5**level)]]
            coords = fin.matrix_coords(extra_columns=extra)
            real = fin.matrix_int64(24, extra_columns=extra).tolist()
            assert (len(real), len(real[0])) == (2 * len(coords), 2 * len(coords[0]))
            for i, row in enumerate(coords):
                for j, (a, b) in enumerate(row):
                    block = [real[2 * i][2 * j:2 * j + 2], real[2 * i + 1][2 * j:2 * j + 2]]
                    assert block == [[a, nu * b % m], [b, a]]


def test_matrix_coords_matches_exact_expansion():
    # the oracle multiplies by T^k and divides by omega_n on exact integers;
    # over a degree-2 ring each coordinate plane is the expansion of that
    # coordinate's integer polynomials
    rng = random.Random(29)
    for ring in (RING, RINGQ):
        d, pn = ring.unramified_degree, ring.modulus

        def poly(degree):
            return IwasawaPoly(ring, [[rng.randrange(pn) for _ in range(d)]
                                      for _ in range(degree + 1)])

        M = ModulePresentation(ring, 2, [[poly(3), poly(30), poly(0)],
                                         [poly(1), IwasawaPoly(ring, []), poly(27)]])
        for level in range(3):
            coords = FinLevelModule(M, level).matrix_coords()
            for s in range(d):
                rels = [[[c.coords[s] for c in entry.coefficients] for entry in row]
                        for row in M.relations]
                exact = expand_exact(rels, 2, 5, level)
                assert [[x[s] for x in row] for row in coords] == \
                    [[x % pn for x in row] for row in exact]


def test_budget_errors():
    with pytest.raises(ResourceLimitError):
        FinLevelModule(free_module(RING, 1), 5)
    big = free_module(RING, 30)
    with pytest.raises(ResourceLimitError):
        FinLevelModule(big, 4)
    capped = ModulePresentation(RING, 1, [[T]], level_cap=1)
    with pytest.raises(ResourceLimitError):
        FinLevelModule(capped, 2)


def test_budget_bounds_relation_entries():
    # rows alone are within budget; 1000 relation columns would expand to
    # 1372 x 343000 int64 entries (3.8 GB) at level 3
    ring7 = CoefficientRing(7, 1, 24)
    one = IwasawaPoly.constant(ring7, 1)
    wide = ModulePresentation(ring7, 4, [[one] * 1000 for _ in range(4)])
    with pytest.raises(ResourceLimitError, match="entries"):
        check_level_budget(wide, 3)
    check_level_budget(wide, 2)
    # the largest corpus shape: 4 generators, 4 relations at the hard cap
    square = ModulePresentation(RING, 4, [[T] * 4 for _ in range(4)])
    check_level_budget(square, 4)


def test_presentation_validation():
    with pytest.raises(ValidationError):
        ModulePresentation(RING, 2, [[T]])  # wrong row count
    with pytest.raises(ValidationError):
        ModulePresentation(RING, 2, [[T], [T, T]])  # ragged
    other = CoefficientRing(7, 1, 8)
    with pytest.raises(ValidationError):
        ModulePresentation(RING, 1, [[IwasawaPoly.variable(other)]])


def test_json_roundtrip_bit_exact():
    M = direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, T - FIVE))
    doc = presentation_to_json(M)
    # coefficients serialize as base-10 strings
    assert all(isinstance(s, str) for entry in doc["relations"][0] for coeff in entry
               for s in coeff)
    M2 = presentation_from_json(json.loads(json.dumps(doc)))
    assert M2.generators == M.generators
    assert M2.relations == M.relations
    assert M2.ring == M.ring


def test_json_malformed_raises_validation():
    with pytest.raises(ValidationError):
        presentation_from_json({"p": 5})


def test_quadratic_ring_coinvariants():
    # Lambda_O / (T - p) over the unramified quadratic extension:
    # single torsion summand of O-length n+1
    Tq = IwasawaPoly.variable(RINGQ)
    M = cyclic_module(RINGQ, Tq - IwasawaPoly.constant(RINGQ, 5))
    for n in range(2):
        s = coinvariants(M, n)
        assert s.free_rank == 0
        assert s.torsion_exponents == [n + 1]
    # free module over the quadratic ring
    assert coinvariants(free_module(RINGQ, 1), 1).free_rank == 5


def test_quotient_structure_kills_torsion():
    M = cyclic_module(RING, cyclotomic(RING, 1))
    s = coinvariants(M, 0, with_transforms=True)
    assert s.torsion_exponents == [1]
    gen = s.smith.generator_column(s.smith.torsion_positions[0])
    q = coinvariants(M, 0, [gen], precision_cap=20)
    assert q.torsion_exponents == []
    assert q.free_rank == 0


def test_quotient_columns_as_planes_or_lists():
    # generator columns come as planes (d, K, L); every entry point that takes
    # quotient columns reads them as it reads the same columns as lists
    M = direct_sum(cyclic_module(RING, cyclotomic(RING, 1)),
                   cyclic_module(RING, IwasawaPoly.constant(RING, 25)))
    for n in (1, 2):
        smith = coinvariants(M, n, with_transforms=True).smith
        planes = smith.generator_columns(smith.torsion_positions[::2])
        lists = to_vectors(planes)
        assert planes.shape[1] == len(lists) > 1
        cap = smith.junk_free_precision
        by_planes = coinvariants(M, n, planes, precision_cap=cap)
        by_lists = coinvariants(M, n, lists, precision_cap=cap)
        assert (by_planes.free_rank, by_planes.torsion_exponents) == \
            (by_lists.free_rank, by_lists.torsion_exponents)
        assert phi_component_ranks(M, n, planes, cap) == phi_component_ranks(M, n, lists, cap)
        assert smith.is_torsion_block(planes) == smith.is_torsion_block(lists) == \
            [True] * len(lists)


def test_deep_quotient_columns_are_not_counted_as_free_rank():
    # 7^15 vanishes at the int64 working precision 7^11, so the 98 x 98
    # reduction must see that its quotient columns are deep and rerun at 7^24
    ring7 = CoefficientRing(7, 1, 24)
    cols = [[7**15 * int(i == k) for i in range(98)] for k in range(98)]
    q = coinvariants(free_module(ring7, 2), 2, cols)
    assert q.free_rank == 0
    assert q.torsion_exponents == [15] * 98
    assert q.certified


def _route_case(p, level, generators, relations, deep, seed):
    """A random level expansion with two quotient columns; ``deep`` scales
    the second column by p^15, below the int64 working precision."""
    ring = CoefficientRing(p, 1, 24)
    rng = random.Random(seed)

    def poly():
        return IwasawaPoly(ring, [[rng.randrange(ring.modulus)] for _ in range(p + 2)])

    M = ModulePresentation(ring, generators,
                           [[poly() for _ in range(relations)] for _ in range(generators)])
    fin = FinLevelModule(M, level)
    cols = [[rng.randrange(ring.modulus) for _ in range(fin.nrows)] for _ in range(2)]
    if deep:
        cols[1] = [x * p**15 for x in cols[1]]
    return fin, cols


@pytest.mark.parametrize("p, level, generators, relations, deep, precision", [
    (5, 1, 2, 1, False, 24),  # small: full precision
    (7, 1, 2, 1, False, 24),
    (5, 3, 2, 1, False, 13),  # large, not suspicious: the int64 working precision
    (7, 2, 2, 1, False, 11),
    (5, 3, 2, 1, True, 24),  # large and suspicious: rerun at full precision
    (7, 2, 2, 1, True, 24),
])
def test_level_and_row_reductions_take_the_same_route(p, level, generators, relations,
                                                      deep, precision):
    fin, cols = _route_case(p, level, generators, relations, deep, seed=p * 10 + level)
    ours = _level_smith(fin, cols)
    rows = smith_normal_form(fin.matrix_coords(cols), fin.ring)
    assert ours.precision_used == precision
    assert ours.exponents == rows.exponents
    assert ours.free_rank == rows.free_rank
    assert ours.precision_used == rows.precision_used
    assert ours.certified == rows.certified


def test_quadratic_phi_component_ranks():
    Tq = IwasawaPoly.variable(RINGQ)
    assert phi_component_ranks(cyclic_module(RINGQ, cyclotomic(RINGQ, 1)), 1) == [0, 4]
    assert phi_component_ranks(free_module(RINGQ, 1), 1) == [1, 4]
    assert phi_component_ranks(cyclic_module(RINGQ, Tq), 2) == [1, 0, 0]


@pytest.mark.parametrize("p", [5, 7])
def test_component_ranks_are_exact_at_the_full_precision(p):
    # Lambda/(p^20) + Lambda/T.  The Z_p-expansions mod Phi_3 (and Phi_2 at
    # p = 7) ran at the reduced working precision p^W and counted the hidden
    # p^20 as free rank; over Z_p[T]/Phi_j the elimination runs at p^24
    ring = CoefficientRing(p, 1, 24)
    one, zero = IwasawaPoly.constant(ring, 1), IwasawaPoly(ring, [])
    M = ModulePresentation(ring, 3, [[one, one, zero],
                                     [one, IwasawaPoly.constant(ring, 1 + p**20), zero],
                                     [zero, zero, IwasawaPoly.variable(ring)]])
    assert component_ranks_against(M, 3) == [1, 0, 0, 0]


@pytest.mark.parametrize("p, j, t", [(5, 0, 24), (5, 1, 24), (5, 2, 24), (7, 1, 9),
                                     (7, 2, 24)])
def test_component_ring_arithmetic_matches_polynomial_products(p, j, t):
    # O_j = Z[T]/Phi_j mod p^t against schoolbook products mod the integer
    # Phi_j (at 7^24 past int64)
    oj = _component_ring(p, j, t)
    q, m = oj.q, oj.m
    h = cyclotomic_int(p, j)
    rng = random.Random(10 * p + j)

    def elements(*shape):
        size = int(np.prod(shape))
        return np.array([rng.randrange(m) for _ in range(size * q)],
                        dtype=residue_dtype(m)).reshape(*shape, q)

    def times(x, f):
        return mulmod_monic([int(a) for a in x], [int(a) for a in f], h, m)

    def power(v):  # p^a T^b, v = q a + b: the uniformizer's v-th power up to a unit
        a, b = divmod(v, q)
        return [0] * b + [p**a]

    # valuations: a unit times p^a T^b has valuation q a + b, zero has q t
    units = elements(4)
    units[:, 0] = [rng.randrange(1, p) + p * rng.randrange(m // p) for _ in range(4)]
    for v in (0, 1, q - 1, q, 2 * q + 1, q * t - 1):
        X = np.array([times(x, power(v)) for x in units], dtype=residue_dtype(m))
        X = X.reshape(2, 2, q)
        assert oj.valuations(X).tolist() == [[v, v], [v, v]]
    assert oj.valuations(np.zeros((1, 1, q), dtype=residue_dtype(m))).tolist() == [[q * t]]
    # the division by p^a T^b is exact below the precision q t - v that is left
    X = elements(2, 3)
    for v in (1, q - 1, q, q + 1, 3 * q - 1):
        Y = np.array([[times(x, power(v)) for x in row] for row in X], dtype=residue_dtype(m))
        assert oj.valuations((oj.divide(Y, v) - X) % m).min() >= q * t - v
    # elimination: u X[l] - F[l] P, exactly mod m
    u, F, P, X = elements(1)[0], elements(3), elements(4), elements(3, 4)
    expect = [[[(a - b) % m for a, b in zip(times(u, X[l, c]), times(F[l], P[c]))]
               for c in range(4)] for l in range(3)]
    assert oj.eliminate(u, F, P, X).tolist() == expect


# (p, w, dtype): the largest p^w below 2^31, whose residues are int32, and the
# smallest p^w past it, the int64 control
BOUNDARY = [(5, 13, np.int32), (5, 14, np.int64), (7, 11, np.int32), (7, 12, np.int64)]


@pytest.mark.parametrize("p, w, dtype", BOUNDARY)
def test_remainders_of_the_largest_residues_at_the_int32_boundary(p, w, dtype):
    # rows of m - 1 divided by omega_2 and Phi_2 mod m, against exact
    # integer division; one power-table row is the widest bit digits
    m = p**w
    M = free_module(CoefficientRing(p, 1, 24), 1)
    for component, modulus in ((None, omega_int(p, 2)), (2, cyclotomic_int(p, 2))):
        fin = FinLevelModule(M, 2, component)
        q = fin.q
        for extra in (1, 2 * q + 3):
            Y = np.full((3, q + extra), m - 1, dtype=dtype)
            rem = [x % m for x in poly_divmod_z([m - 1] * (q + extra), modulus)[1]]
            assert fin._remainders(Y, m).tolist() == [rem + [0] * (q - len(rem))] * 3


@pytest.mark.parametrize("p, w, dtype", BOUNDARY)
def test_component_ring_at_the_int32_boundary(p, w, dtype):
    """Division and elimination in O_j at a capped precision p^t = m, on entries
    near m, against schoolbook products mod the integer Phi_j."""
    m = p**w
    for j in (0, 1, 2):
        oj = _component_ring(p, j, w)
        q = oj.q
        h = cyclotomic_int(p, j)

        def times(x, f):
            return mulmod_monic([int(a) for a in x], [int(a) for a in f], h, m)

        # X / (p^a T^b) for X of valuation q a + b: the coefficients below T^b
        # are divisible by p^(a + 1), the others by p^a, and p^a T^b Y = X
        for a, b in ((0, 0), (0, 1), (0, q - 1), (1, 0), (2, q - 1)):
            if b >= q:
                continue
            X = np.full((2, 3, q), m - p**a, dtype=dtype)
            X[..., :b] = m - p ** (a + 1)
            Y = oj.divide(X, q * a + b)
            power = [0] * b + [p**a]
            assert [[times(y, power) for y in row] for row in Y] == X.tolist()
        # u X[l] - F[l] P with every operand m - 1
        u, F, P, X = (np.full(shape + (q,), m - 1, dtype=dtype)
                      for shape in ((), (3,), (4,), (3, 4)))
        expect = [[[(x - y) % m for x, y in zip(times(u, X[l, c]), times(F[l], P[c]))]
                   for c in range(4)] for l in range(3)]
        assert oj.eliminate(u, F, P, X).tolist() == expect


def _small_modules(ring):
    """Small modules with Phi_1, Phi_2, finite, p-power and free parts."""
    p = ring.prime
    var = IwasawaPoly.variable(ring)
    const = IwasawaPoly.constant
    phi1, phi2 = cyclotomic(ring, 1), cyclotomic(ring, 2)
    modules = [
        direct_sum(cyclic_module(ring, phi1), cyclic_module(ring, var - const(ring, p))),
        ModulePresentation(ring, 2, [[phi1 * var, const(ring, p)],
                                     [const(ring, p**2), phi2 + const(ring, p)]]),
        direct_sum(cyclic_module(ring, phi1 * phi1), cyclic_module(ring, const(ring, p**3)),
                   free_module(ring, 1)),
        # invariants 1 and p^7 behind three unit rows: at a cap of 6 the p^7
        # counts as free rank only once every row is eliminated
        ModulePresentation(ring, 3, [[const(ring, 1), const(ring, 1)],
                                     [const(ring, 1), const(ring, 1 + p**7)],
                                     [const(ring, 1), const(ring, 1)]]),
    ]
    if ring.unramified_degree == 1:
        recipe = sample_recipe(11, p, 2)
        modules.append(obfuscate(build_elementary(recipe, ring), seed=5, steps=4))
    return modules


@pytest.mark.parametrize("degree", [1, 2])
def test_component_ranks_match_the_zp_referee(degree):
    # the O_j elimination against Smith forms of the Z_p-expansions mod Phi_j,
    # without and with the quotient columns verify draws, at p^N and at the
    # junk-free caps of those columns
    ring = CoefficientRing(5, degree, 24)
    quotients = 0
    for M in _small_modules(ring):
        analysis = analyze(M, 2)
        for n in range(3):
            assert component_ranks_against(M, n) == component_ranks_zp(M, n)
            assert component_ranks_against(M, n, precision_cap=6) == \
                component_ranks_zp(M, n, precision=6)
            structure = analysis.tracked(n)
            for selector in ("full-torsion", "random-subgroup"):
                cols = _selector_columns(structure, selector, 3, n)  # planes (d, K, L)
                if not cols.shape[1]:
                    continue
                cap = structure.smith.junk_free_precision
                assert component_ranks_against(M, n, cols, cap) == \
                    component_ranks_zp(M, n, to_vectors(cols), cap)
                quotients += 1
    assert quotients >= 6


@pytest.mark.parametrize("p", [5, 7])
def test_reduced_entry_matches_weierstrass_remainder(p):
    # relation entries of degree q to 4q are divided by the integer long
    # division (at 7^24 past int64); weierstrass_divide on ring elements
    # stays the referee.  It divides over the quadratic ring, and coordinate
    # plane 0 of its remainder is the remainder over Z_p of plane 0.  At
    # p = 7 the level-3 moduli (q = 343 and 294) take entries up to 2q only:
    # the referee costs about q^2 ring operations per q of degree.
    rings = [CoefficientRing(p, 1, 24), CoefficientRing(p, 2, 24)]
    rng = random.Random(p)
    for level, component in [(n, None) for n in range(4)] + [(3, j) for j in range(4)]:
        modulus = FinLevelModule(free_module(rings[1], 1), level, component).modulus_poly
        q = modulus.degree()
        tops = (q, q + 1, 2 * q) + ((4 * q,) if p == 5 or level < 3 else ())
        polys = [IwasawaPoly(rings[1], [[rng.randrange(rings[1].modulus) for _ in range(2)]
                                        for _ in range(top + 1)])
                 for top in tops]
        # remainders with trailing zero coefficients, and none at all; a top
        # coefficient x, whose plane 0 is zero: over Z_p its entry is shorter
        unit = IwasawaPoly.constant(rings[1], [3, 1])
        polys += [modulus * unit + unit, modulus * unit,
                  IwasawaPoly(rings[1], [[2, 1]] * (q - 1) + [[0, 1]])]
        coords = [[a.coords for a in f.coefficients] for f in polys]
        remainders = [weierstrass_divide(f, modulus)[1] for f in polys]
        for ring in rings:
            d = ring.unramified_degree
            entries = [IwasawaPoly(ring, [c[:d] for c in f]) for f in coords]
            fin = FinLevelModule(ModulePresentation(ring, 1, [entries]), level, component)
            reduced = fin._entries()
            assert reduced.shape == (d, 1, len(polys), q)
            assert reduced.dtype == residue_dtype(ring.modulus)
            for j, rem in enumerate(remainders):
                expect = IwasawaPoly(ring, [a.coords[:d] for a in rem.coefficients])
                # every coefficient in full, zeros included: the remainder padded to q
                coeffs = [a.coords for a in expect.coefficients]
                assert reduced[:, 0, j].tolist() == [
                    [a[s] for a in coeffs] + [0] * (q - len(coeffs)) for s in range(d)]


def _nonzero_coordinates(arrays):
    return sorted(x for A in arrays for x in A.ravel().tolist() if x)


def _generator_verdict(coords, p, threshold):
    """The deep-entry test as a scan of single coordinates, the referee of the array scan."""
    pt = p**threshold
    return threshold <= 0 or any(c and c % pt == 0 for c in coords)


@pytest.mark.parametrize("degree", [1, 2])
def test_level_source_scans_the_reduced_entry_coordinates(degree):
    # the deep-entry test scans the reduced relation entries as given, in
    # either order of the kernel's matrix, and the quotient columns: the
    # nonzero coordinates of the weierstrass remainders and of the reduced
    # columns.  It never counts a zero, so that multiset is its whole input.
    ring = CoefficientRing(5, degree, 24)
    rng = random.Random(37 + degree)

    def poly(top, scale=1):
        return IwasawaPoly(ring, [[rng.randrange(ring.modulus) * scale for _ in range(degree)]
                                  for _ in range(top + 1)])

    M = ModulePresentation(ring, 2, [[poly(3), poly(60, 5**15), poly(25)],
                                     [poly(30), IwasawaPoly(ring, []), poly(99, 5**12)]])
    fin = FinLevelModule(M, 2)
    cols = [[tuple(rng.randrange(ring.modulus) for _ in range(degree)) for _ in range(fin.nrows)]]
    expect = []
    for row in M.relations:
        for f in row:
            if f.degree() >= fin.q:
                f = weierstrass_divide(f, fin.modulus_poly)[1]
            expect += [c for a in f.coefficients for c in a.coords]
    expect += fin.reduce_columns(cols).ravel().tolist()
    expect = sorted(c for c in expect if c)
    assert _generator_verdict(expect, 5, 11)
    for echelon in (False, True):
        scan = _LevelSource(fin, cols, echelon=echelon).scan()
        assert scan[0] is fin._entries()
        assert _nonzero_coordinates(scan) == expect
        assert has_deep_entries(scan, 5, 11)


@pytest.mark.parametrize("p", [5, 7])
def test_deep_entry_scan_decides_as_the_coordinate_scan(p):
    # a deep coordinate only in a quotient column, only in the remainder of an
    # entry of degree >= q (its coefficients as given look shallow), or in a
    # smith_normal_form matrix; and a source without one.  At 7^24 the
    # scanned arrays hold Python integers.
    ring = CoefficientRing(p, 1, 24)
    assert (residue_dtype(ring.modulus) == object) == (p == 7)
    t = int64_precision_cap(p) - 2
    deep = 3 * p**t
    T_ = IwasawaPoly.variable(ring)
    unit = IwasawaPoly.constant(ring, 2) + T_
    for level in (1, 2):
        modulus = FinLevelModule(free_module(ring, 1), level).modulus_poly
        shallow = ModulePresentation(ring, 2, [[unit, T_ * 3], [T_, unit]])
        hidden = IwasawaPoly.constant(ring, deep) * T_ + unit * modulus
        assert not _generator_verdict([c for a in hidden.coefficients for c in a.coords], p, t)
        wrapped = ModulePresentation(ring, 2, [[unit, hidden], [T_, unit]])
        for M, column_entry, verdict in ((shallow, 1, False), (shallow, deep, True),
                                         (wrapped, 1, True)):
            fin = FinLevelModule(M, level)
            column = [column_entry] + [0] * (fin.nrows - 1)
            source = _LevelSource(fin, [column])
            coords = []
            for row in M.relations:
                for f in row:
                    f = weierstrass_divide(f, fin.modulus_poly)[1] if f.degree() >= fin.q else f
                    coords += [a.coords[0] for a in f.coefficients]
            coords += column
            assert _generator_verdict(coords, p, t) == verdict
            assert has_deep_entries(source.scan(), p, t) == verdict
    # a raw matrix: only its one deep entry, among units and zeros, flags it
    rng = random.Random(p)
    for entry, verdict in ((deep, True), (p**(t - 1), False), (p**24, False)):
        mat = [[rng.randrange(1, ring.modulus) * rng.choice((0, 1)) for _ in range(5)]
               for _ in range(4)]
        mat = [[x + 1 if x and x % p == 0 else x for x in row] for row in mat]
        mat[2][3] = entry  # p^24 is zero in the ring
        rows, R, C = snf._normalize_rows(mat, ring)
        source = snf._RowSource(rows, R, C, ring)
        coords = [c for row in rows for e in row for c in e]
        assert _generator_verdict(coords, p, t) == verdict
        assert has_deep_entries(source.scan(), p, t) == verdict
        assert (source.scan()[0].dtype == object) == (p == 7)
    assert has_deep_entries((), p, 0)


@pytest.mark.parametrize("p", [5, 7])
def test_multiplication_blocks_match_the_column_loop(p):
    # each block's band is written by diagonals and only its deg f wrapping
    # columns are divided; the referee steps through every column.  At p^24
    # the products leave int64 (object arrays), at p^W they stay in it.
    # Entries of degree 0, 4 and q - 1, one with inner zeros, and zero.
    ring = CoefficientRing(p, 1, 24)
    rng = random.Random(41 + p)
    for level in (1, 2):
        q = p**level
        h = omega_int(p, level)

        def coeffs(count):
            return [rng.randrange(ring.modulus) for _ in range(count - 1)] + \
                [rng.randrange(1, ring.modulus)]

        sparse = [0] * q
        sparse[1] = sparse[q - 2] = 1 + ring.modulus // 2
        entries = [coeffs(1), coeffs(5), coeffs(q), sparse, []]
        M = ModulePresentation(ring, 1, [[IwasawaPoly(ring, [[x] for x in f]) for f in entries]])
        fin = FinLevelModule(M, level)
        for W in (24, int64_precision_cap(p)):
            m = p**W
            wrap = [-h[k] % m for k in range(q)]
            blocks = [mult_matrix_by_columns(f, q, wrap, m) for f in entries]
            assert fin.matrix_int64(W).tolist() == [sum((b[r] for b in blocks), [])
                                                    for r in range(q)]


def test_echelon_clears_a_dependent_column_and_skips_a_mu_column():
    # mod p the second relation is (1 + T) times the first, so it climbs by
    # T-shifts of the first until it is zero mod T^q; the third is p times a
    # unit, zero mod p from the start
    ring = CoefficientRing(5, 1, 24)
    f = IwasawaPoly(ring, [5, 0, 1])
    M = ModulePresentation(ring, 1, [[f, IwasawaPoly(ring, [1, 1]) * f + IwasawaPoly(ring, [10]),
                                      IwasawaPoly(ring, [5, 5])]])
    for level in range(4):
        fin = FinLevelModule(M, level)
        E, keys = _echelon(fin._entries() % 5, ring)
        if level == 0:  # q = 1: T^2 + 5 is zero mod (5, T)
            assert keys == [None, None, None]
            continue
        assert keys == [2, None, None]
        assert E[0, :, 1, :3].tolist() == [[4, 4, 0], [1, 0, 0], [0, 0, 0]]  # - (1 + T), 1


def _echelon_case(ring, seed, deep):
    """Two generators and four relations, valid mod omega_3.

    The first relation is random, coefficient k divisible by p^(o - k) below
    a T-order o of 0 to 2; the second is T - p^8 at generator 1, p^4 times a
    random entry at generator 0, so the level-n invariants reach p^(n + 8)
    or so; the third is a multiple of the first mod p^6; the fourth, a mu
    column, has p^6 times and p^deep times random entries.
    """
    p, d, m = ring.prime, ring.unramified_degree, ring.modulus
    rng = random.Random(seed)

    def poly(top, order=0, scale=1):
        return IwasawaPoly(ring, [[rng.randrange(m) * p**max(order - k, 0) * scale % m
                                   for _ in range(d)] for k in range(top + 1)])

    first = [poly(rng.randrange(2, 7), rng.randrange(3)) for _ in range(2)]
    second = [poly(3, scale=p**4), IwasawaPoly(ring, [-p**8, 1])]
    unit = poly(3)
    dependent = [unit * f + poly(4, scale=p**6) for f in first]
    mu = [poly(4, scale=p**6), poly(2, scale=p**deep)]
    return ModulePresentation(ring, 2, [[first[i], second[i], dependent[i], mu[i]]
                                        for i in range(2)], level_cap=3)


def _realified(coords, ring):
    if ring.unramified_degree == 1:
        return [[x[0] for x in row] for row in coords]
    rows = []
    for row in coords:
        rows.append([c for a, b in row for c in (a, ring.nu * b)])
        rows.append([c for a, b in row for c in (b, a)])
    return rows


@pytest.mark.parametrize("p, degree", [(5, 1), (7, 1), (5, 2)])
def test_echelon_order_keeps_the_smith_form(p, degree):
    # untracked reductions take the echelon-ordered expansion; its exponents,
    # certification and working precision must be those of the block order,
    # with and without quotient columns and below a precision cap (where
    # exponent 6 is uncertified), and up to level 2 the block-ordered
    # coordinates, Smith-reduced by the referee, give the same exponents
    ring = CoefficientRing(p, degree, 24)
    for seed, deep in enumerate((10, 3)):
        M = _echelon_case(ring, 100 * p + 10 * degree + seed, deep)
        rng = random.Random(seed)
        for level in range(4):
            fin = FinLevelModule(M, level)
            quotients = [[tuple(rng.randrange(ring.modulus) * p**(k % 3)
                                for _ in range(degree)) for _ in range(fin.nrows)]
                         for k in range(2)]
            for columns in ((), quotients):
                for cap in (None, 8):
                    echelon = _level_smith(fin, columns, precision_cap=cap)
                    block = snf.reduce(_LevelSource(fin, columns), ring, False,
                                       min(24, cap or 24))
                    assert (echelon.exponents, echelon.certified, echelon.precision_used) == \
                        (block.exponents, block.certified, block.precision_used)
            if level < 3:  # the last reduction above; at level 3 the referee takes seconds
                rows = _realified(fin.matrix_coords(quotients), ring)
                expect = smith_exponents_mod_prime_power(rows, p, echelon.precision_used)
                assert expect[::degree] == echelon.exponents


@pytest.mark.parametrize("p, degree, draw, level", [(7, 1, 1, 3), (5, 1, 10, 3), (7, 1, 4, 3),
                                                  (5, 2, 1, 2)])
def test_echelon_expansion_is_one_run_of_leading_rows(p, degree, draw, level):
    # corpus draws of classify_p7 and verify_p5, one with a mu summand, whose
    # column has no key, and one over O: mod p the columns that are nonzero
    # come first and their first nonzero rows strictly increase, so each
    # panel of the unit layer pivots in one run; they are as many as the
    # unit pivots
    recipe = sample_recipe(2024 * 1000003 + draw, p)
    M = obfuscate(build_elementary(recipe, CoefficientRing(p, degree, 24)),
                  seed=recipe.seed ^ 0x5EED, steps=24)
    fin = FinLevelModule(M, level)
    units = fin.matrix_int64(int64_precision_cap(p), echelon=True) % p != 0
    live = units.any(axis=0)
    count = int(live.sum())
    assert count and live[:count].all() and count < live.size
    assert (np.diff(units[:, :count].argmax(axis=0)) > 0).all()
    assert coinvariants(M, level).smith.exponents.count(0) * degree == count


def _layer0_cases(ring, seed):
    """Echelon expansions at levels 1-3: the echelon case (a dependent and a
    keyless mu relation) and a disguised corpus draw, each without and with
    two quotient columns."""
    p, d = ring.prime, ring.unramified_degree
    rng = random.Random(seed)
    recipe = sample_recipe(2024 * 1000003 + seed, p)
    corpus = obfuscate(build_elementary(recipe, ring), seed=recipe.seed ^ 0x5EED, steps=24)
    for M in (_echelon_case(ring, seed, 9), corpus):
        for level in (1, 2, 3):
            fin = FinLevelModule(M, level)
            if d * fin.nrows > 700:  # the unhinted reductions below take long past that
                continue
            quotients = [[tuple(rng.randrange(ring.modulus) * p**(k % 3) for _ in range(d))
                          for _ in range(fin.nrows)] for k in range(2)]
            for columns in ((), quotients):
                yield _LevelSource(fin, columns, echelon=True)


@pytest.mark.parametrize("panel", [8, 64])
@pytest.mark.parametrize("p, degree", [(5, 1), (7, 1), (5, 2), (7, 2)])
def test_known_layer0_pivots_keep_the_schur_complement(p, degree, panel, monkeypatch):
    # the echelon source names the unit pivots of layer 0 and the rows each
    # column spans; pivoting on them inside those rows leaves exactly the
    # Schur complement that the search finds, with the same pivot count and
    # exponents, and a hint whose pivot block is not unit lower triangular
    # mod p raises
    monkeypatch.setattr(_kernels, "PANEL", panel)
    ring = CoefficientRing(p, degree, 24)
    W = int64_precision_cap(p)
    m = p**W
    split = _kernels._exact_split(m, panel, p)
    for source in _layer0_cases(ring, p + degree):
        A = source.matrix_int64(W)
        pivots, top, bottom, period = hint = source.layer0(W)
        u = pivots.size
        nonzero = A != 0
        spanned = np.arange(A.shape[0])[:, None]
        assert not (nonzero & ((spanned < top) | (spanned >= bottom))).any()
        units = A[:, :u] % p != 0
        assert u and (units.argmax(axis=0) == pivots).all() and units[pivots, np.arange(u)].all()
        known = _kernels._unit_layer(A.copy(), p, m, split, _kernels._Inverses(), known=hint)
        searched = _kernels._unit_layer(A.copy(), p, m, split, _kernels._Inverses())
        assert known[1] == searched[1] >= u
        assert np.array_equal(known[0], searched[0])
        assert _kernels.snf_int64(A.copy(), p, m, False, layer0=hint) == \
            _kernels.snf_int64(A.copy(), p, m, False)
        swapped = pivots.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        with pytest.raises(ArithmeticError):
            _kernels.snf_int64(A.copy(), p, m, False, layer0=(swapped, top, bottom, period))


def test_two_disguises_of_one_module_classify_alike(tmp_path, capsys):
    # corpus recipe 2 at p = 7 (Phi_0 + Phi_1 + Lambda/p + Lambda/p^2) under
    # the corpus disguise and under another one, whose echelon entries reach
    # degree q - 1 and leave both mu relations without a key: about half the
    # columns span every row, and so do the windows of the known runs.  The
    # reports are identical, and layer 0 on the known pivots gives the
    # searched exponents
    from finemw.cli import main

    p, W = 7, int64_precision_cap(7)
    recipe = sample_recipe(2024 * 1000003 + 2, p)
    reports = []
    for seed in (recipe.seed ^ 0x5EED, recipe.seed):
        M = obfuscate(build_elementary(recipe, CoefficientRing(p, 1, 24)), seed=seed, steps=24)
        path = tmp_path / f"disguise-{seed}.json"
        path.write_text(json.dumps(presentation_to_json(M)))
        assert main(["classify", "--file", str(path), "--n-max", "3"]) == 0
        reports.append(capsys.readouterr().out)
        for level in (2, 3):
            source = _LevelSource(FinLevelModule(M, level), (), echelon=True)
            A, hint = source.matrix_int64(W), source.layer0(W)
            assert _kernels.snf_int64(A.copy(), p, p**W, False, layer0=hint)[0] == \
                _kernels.snf_int64(A.copy(), p, p**W, False)[0]
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0].encode()).hexdigest().startswith("898646e3a4e355e4")


@pytest.mark.parametrize("degree", [1, 2])
def test_echelon_relations_are_the_relations_times_the_column_operation(degree):
    # the relations that the echelon order expands are A E mod omega_n, with
    # the keys that _echelon reports: checked against products of ring
    # polynomials and their weierstrass remainders, at p^24 and at p^W.
    # Over O the leading coefficients are units outside Z_p, which the
    # scaling to 1 turns into leading 2 x 2 blocks = 1 mod p: the expansion
    # is one run of first nonzero rows
    ring = CoefficientRing(5, degree, 24)
    M = _echelon_case(ring, 7 + degree, 10)
    g, c = M.generators, M.num_relations
    for level in (1, 2):
        fin = FinLevelModule(M, level)
        q = fin.q
        for W in (24, int64_precision_cap(5)):
            m = 5**W
            units = fin.matrix_int64(W, echelon=True) % 5 != 0
            live = units.any(axis=0)
            assert live[:int(live.sum())].all()
            assert (np.diff(units[:, live].argmax(axis=0)) > 0).all()
            entries, place = fin._echelon_relations(m)
            E, keys = fin._echelon
            ops = [[IwasawaPoly(ring, [E[:, a, b, t].tolist() for t in range(q)])
                    for b in range(c)] for a in range(c)]
            for i in range(g):
                for b in range(c):
                    f = IwasawaPoly(ring, [])
                    for a in range(c):
                        f = f + M.relations[i][a] * ops[a][b]
                    rem = weierstrass_divide(f, fin.modulus_poly)[1]
                    expect = [[0] * q for _ in range(degree)]
                    for k, coeff in enumerate(rem.coefficients):
                        for s in range(degree):
                            expect[s][k] = coeff.coords[s] % m
                    assert entries[:, i, b].tolist() == expect
            residues = (entries % 5 != 0).any(axis=0).transpose(1, 2, 0).reshape(c, q * g)
            for b, key in enumerate(keys):
                assert key == (int(residues[b].argmax()) if residues[b].any() else None)
            assert len({key % g for key in keys if key is not None}) == \
                sum(key is not None for key in keys)
            assert sorted(place.ravel().tolist()) == list(range(c * q))
