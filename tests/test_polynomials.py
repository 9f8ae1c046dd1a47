import random

import pytest

from finemw.errors import BadDivisorError, ResourceLimitError, ValidationError
from finemw.padics import CoefficientRing
from finemw.polynomials import (
    IwasawaPoly,
    char_ideal_render,
    cyclotomic,
    degree_budget,
    omega,
    phi_degree,
    weierstrass_divide,
)
from oracles import cyclotomic_int, omega_int

RING = CoefficientRing(5, 1, 24)
RING7 = CoefficientRing(7, 1, 24)


def as_ints(f):
    assert f.ring.unramified_degree == 1
    return [c.coords[0] for c in f.coefficients]


def test_omega_level_zero_is_T():
    assert as_ints(omega(RING, 0)) == [0, 1]


def test_omega_matches_binomial_oracle():
    for ring, n in [(RING, 1), (RING, 2), (RING7, 1)]:
        expect = [c % ring.modulus for c in omega_int(ring.prime, n)]
        assert as_ints(omega(ring, n)) == expect


def test_omega_explicit_p5_level1():
    assert as_ints(omega(RING, 1)) == [0, 5, 10, 10, 5, 1]


def test_omega_constant_term_zero():
    for n in range(4):
        assert omega(RING, n).coefficient(0).is_zero()


def test_cyclotomic_level0_convention():
    assert as_ints(cyclotomic(RING, 0)) == [0, 1]


def test_cyclotomic_matches_long_division_oracle():
    for ring, n in [(RING, 1), (RING, 2), (RING7, 1), (RING7, 2)]:
        expect = [c % ring.modulus for c in cyclotomic_int(ring.prime, n)]
        assert as_ints(cyclotomic(ring, n)) == expect


def test_cyclotomic_explicit_p5_level1():
    assert as_ints(cyclotomic(RING, 1)) == [5, 10, 10, 5, 1]


def test_cyclotomic_at_zero_is_p():
    for n in range(1, 4):
        assert cyclotomic(RING, n).coefficient(0) == RING.element(5)
    assert cyclotomic(RING7, 2).coefficient(0) == RING7.element(7)


def test_degrees():
    for n in range(4):
        assert omega(RING, n).degree() == 5**n
        assert cyclotomic(RING, n).degree() == phi_degree(5, n)


def test_product_identity_cyclotomic_omega():
    for ring in (RING, RING7):
        for n in range(1, 3):
            assert cyclotomic(ring, n) * omega(ring, n - 1) == omega(ring, n)
        prod = IwasawaPoly.constant(ring, 1)
        for j in range(3):
            prod = prod * cyclotomic(ring, j)
        assert prod == omega(ring, 2)


def test_everything_is_distinguished():
    for n in range(4):
        assert omega(RING, n).is_distinguished()
        assert cyclotomic(RING, n).is_distinguished()


def test_weierstrass_defining_identity():
    q, r = weierstrass_divide(omega(RING, 1), cyclotomic(RING, 1))
    assert as_ints(q) == [0, 1] and r.is_zero()


def test_weierstrass_t_by_t():
    T = IwasawaPoly.variable(RING)
    q, r = weierstrass_divide(T, T)
    assert as_ints(q) == [1] and r.is_zero()


def test_weierstrass_t4_by_phi1():
    T = IwasawaPoly.variable(RING)
    f = T * T * T * T
    q, r = weierstrass_divide(f, cyclotomic(RING, 1))
    pn = RING.modulus
    assert as_ints(q) == [1]
    assert as_ints(r) == [(-5) % pn, (-10) % pn, (-10) % pn, (-5) % pn]


def test_weierstrass_rejects_non_distinguished():
    g = IwasawaPoly.from_ints(RING, [1, 1])  # unit constant term
    with pytest.raises(BadDivisorError):
        weierstrass_divide(IwasawaPoly.variable(RING), g)
    with pytest.raises(BadDivisorError):
        weierstrass_divide(IwasawaPoly.variable(RING), IwasawaPoly.constant(RING, 5))


def test_weierstrass_roundtrip_1000_random_pairs():
    rng = random.Random(20240819)
    pn = RING.modulus
    distinguished = [omega(RING, 1), cyclotomic(RING, 1), cyclotomic(RING, 2),
                     IwasawaPoly.from_ints(RING, [5, 10, 1]),
                     IwasawaPoly.from_ints(RING, [20, 5, 0, 1])]
    for _ in range(1000):
        f = IwasawaPoly.from_ints(RING, [rng.randrange(pn) for _ in range(rng.randrange(0, 30))])
        g = rng.choice(distinguished)
        q, r = weierstrass_divide(f, g)
        assert r.degree() < g.degree()
        assert q * g + r == f


def test_resource_limit_on_omega():
    with pytest.raises(ResourceLimitError):
        omega(RING, 7)
    assert degree_budget(5) == 4 * 5**4
    # the budget stops growing with p past p = 7; p <= 13 keeps its own
    assert [degree_budget(p) for p in (7, 11, 13, 17, 1000003)] == [
        9604, 4 * 11**3, 4 * 13**3, 9604, 9604]
    with pytest.raises(ResourceLimitError):
        omega(CoefficientRing(1000003, 1, 4), 1)


def test_char_ideal_render_examples():
    r = char_ideal_render([(0, 1)], RING)
    assert r.text == "Φ_0^1"
    assert as_ints(r.polynomial) == [0, 1]

    r = char_ideal_render([], RING)
    assert r.text == "1"
    assert as_ints(r.polynomial) == [1]

    r = char_ideal_render([(0, 1), (1, 2)], RING)
    assert r.polynomial.degree() == 1 + 2 * 4
    assert r.text == "Φ_0^1·Φ_1^2"


def test_char_ideal_render_drops_zero_multiplicities():
    r = char_ideal_render([(0, 0), (2, 1), (1, 0)], RING, expand=False)
    assert r.text == "Φ_2^1"
    assert r.polynomial is None


def test_char_ideal_render_negative_multiplicity():
    with pytest.raises(ValidationError):
        char_ideal_render([(0, -1)])


def test_substitute_is_exact_composition():
    T = IwasawaPoly.variable(RING)
    f = cyclotomic(RING, 1)
    sub = IwasawaPoly.from_ints(RING, [0, 2, 1])  # 2T + T^2 = (1+T)^2 - 1
    comp = f.substitute(sub)
    # phi_1((1+T)^2 - 1) should vanish wherever (1+T)^2 has exact order 5
    assert comp.degree() == f.degree() * 2
    q, r = weierstrass_divide(comp, f)
    # phi_1 | phi_1((1+T)^2-1) since squaring permutes the order-5 roots
    assert r.is_zero()


def test_render_canonical_text():
    f = IwasawaPoly.from_ints(RING, [3, 0, 1])
    assert f.render() == "3 + T^2"
    assert IwasawaPoly(RING, []).render() == "0"
