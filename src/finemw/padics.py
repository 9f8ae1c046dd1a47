"""Exact coefficient arithmetic: Z_p and its unramified quadratic extension at precision p^N.

The coefficient ring O is one of two rings, computed exactly in Z/p^N:

* degree 1: O = Z_p, an element is one coordinate;
* degree 2: O = Z_p[x]/(x^2 - nu), the unramified quadratic extension, an
  element a + b x is the coordinate pair (a, b).  nu = c - p for the
  smallest quadratic non-residue c mod p (nu = -3 at p = 5, -4 at p = 7),
  so x^2 - nu is irreducible mod p.

Products are (a0 b0 + nu a1 b1, a0 b1 + a1 b0) and the inverse of a unit is
its conjugate (a0, -a1) times the inverse of its norm a0^2 - nu a1^2.  The
uniformizer is always p, and the valuation of an element is the minimum
p-valuation of its coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonUnitError, ValidationError

#: Valuation reported for an element that is zero at working precision.
#: It means ">= N", never an exact integer.
ZERO_AT_PRECISION = math.inf


#: Miller-Rabin on the prime bases up to 41 decides primality for every n
#: below this bound (Sorenson and Webster, 2015); larger primes are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Deterministic Miller-Rabin for n < PRIME_LIMIT."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def smallest_quadratic_nonresidue(p: int) -> int:
    """Smallest c with c^((p - 1)/2) = -1 mod p (Euler's criterion)."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValidationError(f"no quadratic non-residue mod {p}")


@dataclass(frozen=True)
class CoefficientRing:
    """O = Z_p (degree 1) or Z_p[x]/(x^2 - nu) (degree 2) at precision p^N, p >= 5.

    ``nu`` is 0 in degree 1.  ``residue_modulus`` is the monic modulus, low
    degree first, mod p: (0, 1) or (-nu, 0, 1).
    """

    prime: int
    unramified_degree: int = 1
    precision_exponent: int = 24

    def __post_init__(self):
        p, d, n = self.prime, self.unramified_degree, self.precision_exponent
        if p >= PRIME_LIMIT:
            raise ValidationError(f"prime must be below {PRIME_LIMIT}, got {p}")
        if p < 5 or not _is_prime(p):
            raise ValidationError(f"prime must be a prime >= 5, got {p}")
        if d not in (1, 2):
            raise ValidationError(f"unramified_degree must be 1 or 2, got {d}")
        if n < 1:
            raise ValidationError("precision_exponent must be >= 1")
        nu = smallest_quadratic_nonresidue(p) - p if d == 2 else 0
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "residue_modulus", (0, 1) if d == 1 else (-nu, 0, 1))
        object.__setattr__(self, "_pn", p**n)

    @property
    def modulus(self) -> int:
        """p^N, the working modulus."""
        return self._pn

    # -- element constructors -------------------------------------------------

    def element(self, value) -> "RingElem":
        """Coerce an int or coordinate sequence into this ring."""
        if isinstance(value, RingElem):
            if value.ring != self:
                raise ValidationError("element belongs to a different ring")
            return value
        pn = self.modulus
        if isinstance(value, int):
            coords = (value % pn,) + (0,) * (self.unramified_degree - 1)
        else:
            coords = tuple(int(v) % pn for v in value)
            if len(coords) != self.unramified_degree:
                raise ValidationError("coordinate list has wrong length")
        return RingElem(self, coords)

    def zero(self) -> "RingElem":
        return self.element(0)

    def one(self) -> "RingElem":
        return self.element(1)

    # -- raw coordinate arithmetic (used by the element class and the matrix
    #    kernels; keeps RingElem itself thin) --------------------------------

    def _mul_coords(self, a, b):
        pn = self.modulus
        if self.unramified_degree == 1:
            return ((a[0] * b[0]) % pn,)
        return ((a[0] * b[0] + self.nu * a[1] * b[1]) % pn,
                (a[0] * b[1] + a[1] * b[0]) % pn)

    def _inv_coords(self, a):
        pn = self.modulus
        if self.unramified_degree == 1:
            return (pow(a[0], -1, pn),)
        # x^2 - nu is irreducible mod p, so the norm of a unit is a unit
        norm_inv = pow((a[0] * a[0] - self.nu * a[1] * a[1]) % pn, -1, pn)
        return ((a[0] * norm_inv) % pn, (-a[1] * norm_inv) % pn)


class RingElem:
    """Element of a CoefficientRing, stored as reduced coordinates."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: CoefficientRing, coords):
        self.ring = ring
        self.coords = tuple(c % ring.modulus for c in coords)

    def __eq__(self, other):
        return isinstance(other, RingElem) and self.ring == other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring.prime, self.ring.unramified_degree, self.coords))

    def __repr__(self):
        if self.ring.unramified_degree == 1:
            return f"RingElem({self.coords[0]})"
        return f"RingElem({list(self.coords)})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        if not isinstance(other, RingElem):
            other = self.ring.element(other)
        if other.ring != self.ring:
            raise ValidationError("mixed-ring arithmetic")
        return other

    def __add__(self, other):
        other = self._check(other)
        return RingElem(self.ring, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return RingElem(self.ring, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self.ring.element(other) - self

    def __neg__(self):
        return RingElem(self.ring, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._check(other)
        return RingElem(self.ring, self.ring._mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def invert(self) -> "RingElem":
        """Multiplicative inverse; requires valuation 0."""
        if self.valuation() != 0:
            raise NonUnitError(f"cannot invert element of valuation {self.valuation()}")
        return RingElem(self.ring, self.ring._inv_coords(self.coords))

    def valuation(self):
        """Largest v with p^v dividing this element, or ZERO_AT_PRECISION."""
        if self.is_zero():
            return ZERO_AT_PRECISION
        p = self.ring.prime
        v = min(_int_valuation(c, p) for c in self.coords if c)
        return v


def _int_valuation(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def ring_arith(a: RingElem, b: RingElem, op: str) -> RingElem:
    """Dispatch helper mirroring the four basic ring operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "invert":
        return a.invert()
    raise ValidationError(f"unknown op {op!r}")


def valuation(a: RingElem):
    return a.valuation()
