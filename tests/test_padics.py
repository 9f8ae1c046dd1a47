import math
import signal

import pytest
from hypothesis import given, settings, strategies as st

from finemw.errors import NonUnitError, ValidationError
from finemw.padics import PRIME_LIMIT, CoefficientRing, ZERO_AT_PRECISION, _is_prime, ring_arith
from oracles import mulmod_monic

R5 = CoefficientRing(5, 1, 3)
R5_DEEP = CoefficientRing(5, 1, 24)
R5_QUAD = CoefficientRing(5, 2, 8)
R7_QUAD = CoefficientRing(7, 2, 8)


def test_add_reduces_mod_precision():
    assert (R5.element(117) + R5.element(13)).coords == (5,)


def test_invert_identity():
    assert R5.element(1).invert() == R5.element(1)


def test_invert_two_matches_extended_euclid():
    # oracle: modular inverse via pow
    assert R5.element(2).invert().coords == (pow(2, -1, 125),)
    assert R5.element(2).invert().coords == (63,)


def test_invert_requires_unit():
    with pytest.raises(NonUnitError):
        R5.element(5).invert()
    with pytest.raises(NonUnitError):
        R5.element(0).invert()


def test_valuation_examples():
    assert R5.element(25).valuation() == 2
    assert R5.element(1).valuation() == 0
    assert R5.element(0).valuation() is ZERO_AT_PRECISION


def test_valuation_is_never_a_plain_integer_for_zero():
    v = R5.element(0).valuation()
    assert v == math.inf and not isinstance(v, int)


def test_ring_arith_dispatch():
    a, b = R5.element(7), R5.element(9)
    assert ring_arith(a, b, "add") == a + b
    assert ring_arith(a, b, "sub") == a - b
    assert ring_arith(a, b, "mul") == a * b
    assert ring_arith(a, b, "invert") == a.invert()
    with pytest.raises(ValidationError):
        ring_arith(a, b, "frobnicate")


def test_prime_validation():
    with pytest.raises(ValidationError):
        CoefficientRing(3, 1, 4)
    with pytest.raises(ValidationError):
        CoefficientRing(9, 1, 4)


def _raise_timeout(signum, frame):
    raise TimeoutError("took over a second")


def test_large_prime_ring_builds_within_a_second():
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        ring = CoefficientRing(2**61 - 1, 2, 24)
        assert _is_prime(10**18 + 3) and not _is_prime(10**18 + 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # 2^61 - 1 = 1 mod 3 and 3 mod 4, so 3 is its smallest non-residue
    assert ring.nu == 3 - (2**61 - 1)


def test_primality_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to every prime base up to 13, 23 and 37 respectively
    for n in (3474749660383, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)


def test_primes_beyond_the_primality_bound_are_refused():
    with pytest.raises(ValidationError, match="below"):
        CoefficientRing(PRIME_LIMIT + 2, 1, 4)


def test_default_quadratic_nonresidue_modulus():
    # squares mod 5 are {1,4}: smallest non-residue is 2
    assert R5_QUAD.residue_modulus == ((-2) % 5, 0, 1)
    # squares mod 7 are {1,2,4}: smallest non-residue is 3
    assert R7_QUAD.residue_modulus == ((-3) % 7, 0, 1)


def test_only_degrees_one_and_two_and_no_modulus_argument():
    for degree in (0, 3, 4):
        with pytest.raises(ValidationError):
            CoefficientRing(5, degree, 4)
    with pytest.raises(TypeError):
        CoefficientRing(5, 2, 4, residue_modulus=(4, 0, 1))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_quadratic_nu_is_the_smallest_nonresidue_minus_p(p):
    # Euler's criterion: c^((p-1)/2) = -1 mod p exactly for non-residues
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    ring = CoefficientRing(p, 2, 6)
    assert ring.nu == c - p
    assert ring.residue_modulus == (p - c, 0, 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([R5_QUAD, R7_QUAD, CoefficientRing(5, 2, 24), CoefficientRing(7, 2, 24),
                        CoefficientRing(11, 2, 3)]),
       st.data())
def test_quadratic_product_and_inverse_match_schoolbook(ring, data):
    m, h = ring.modulus, [-ring.nu, 0, 1]  # x^2 - nu, low degree first
    a, b = ([data.draw(st.integers(0, m - 1)) for _ in range(2)] for _ in range(2))
    assert list((ring.element(a) * ring.element(b)).coords) == mulmod_monic(a, b, h, m)
    if a[0] % ring.prime or a[1] % ring.prime:
        inverse = list(ring.element(a).invert().coords)
        assert mulmod_monic(a, inverse, h, m) == [1, 0]


def test_quadratic_inverse_roundtrip():
    x = R5_QUAD.element((3, 4))
    assert x * x.invert() == R5_QUAD.one()
    y = R7_QUAD.element((5, 1))
    assert y.invert() * y == R7_QUAD.one()


def test_quadratic_valuation_is_min_of_coordinates():
    assert R5_QUAD.element((25, 5)).valuation() == 1
    assert R5_QUAD.element((0, 125)).valuation() == 3
    assert R5_QUAD.element((0, 0)).valuation() is ZERO_AT_PRECISION


@st.composite
def ring_and_elements(draw, count=3):
    ring = draw(st.sampled_from([R5, R5_DEEP, R5_QUAD, R7_QUAD]))
    elems = [ring.element(tuple(draw(st.integers(0, ring.modulus - 1))
                                for _ in range(ring.unramified_degree)))
             for _ in range(count)]
    return ring, elems


@settings(max_examples=150, deadline=None)
@given(ring_and_elements())
def test_ring_axioms(data):
    ring, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ring.one() == a
    assert a + ring.zero() == a
    assert a - a == ring.zero()


@settings(max_examples=150, deadline=None)
@given(ring_and_elements(count=1))
def test_unit_inverse_roundtrip(data):
    ring, (a,) = data
    if a.valuation() == 0:
        assert a * a.invert() == ring.one()
    else:
        with pytest.raises(NonUnitError):
            a.invert()


def test_valuation_splits_off_a_unit():
    x = R5_DEEP.element(50)
    assert x.valuation() == 2
    assert x == R5_DEEP.element(25) * R5_DEEP.element(2) and R5_DEEP.element(2).valuation() == 0
