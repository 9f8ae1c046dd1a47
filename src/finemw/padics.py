"""Exact coefficient arithmetic: Z_p and its unramified extensions at precision p^N.

Elements live in O = Z_p[x]/(h(x)) with h monic of degree d and irreducible
mod p, all computations carried out exactly in Z/p^N.  For d = 1 this is just
Z/p^N; the inert quadratic case uses d = 2 with h = x^2 - c for the smallest
positive quadratic non-residue c mod p.  The uniformizer is always p, and the
valuation of an element is the minimum p-valuation of its coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonUnitError, ValidationError

#: Valuation reported for an element that is zero at working precision.
#: It means ">= N", never an exact integer.
ZERO_AT_PRECISION = math.inf


def _poly_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mulmod_fp(a, b, h, p):
    """Product of two F_p[x] polynomials reduced mod the monic polynomial h."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    d = len(h) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            for j in range(d + 1):
                prod[i - d + j] = (prod[i - d + j] - c * h[j]) % p
    return _poly_trim(prod[:d] + [0] * max(0, d - len(prod)))


def _poly_powmod_fp(a, e, h, p):
    result, base = [1], list(a)
    while e:
        if e & 1:
            result = _poly_mulmod_fp(result, base, h, p)
        base = _poly_mulmod_fp(base, base, h, p)
        e >>= 1
    return result


def _poly_gcd_fp(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic first
        inv = pow(b[-1], -1, p)
        b = [(c * inv) % p for c in b]
        while len(a) >= len(b):
            c = a[-1]
            if c:
                for j in range(len(b)):
                    a[len(a) - len(b) + j] = (a[len(a) - len(b) + j] - c * b[j]) % p
            a.pop()
            _poly_trim(a)
            if not a:
                break
        a, b = b, a
    return a


def _poly_sub_fp(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _poly_trim(out)


def _is_irreducible_fp(h, p):
    """Rabin test for a monic polynomial over F_p."""
    d = len(h) - 1
    if d == 1:
        return True
    x = [0, 1]
    xp = x
    for _ in range(d):
        xp = _poly_powmod_fp(xp, p, h, p)
    if _poly_sub_fp(xp, x, p):
        return False
    for ell in {q for q in range(2, d + 1) if d % q == 0 and _is_prime(q)}:
        xq = x
        for _ in range(d // ell):
            xq = _poly_powmod_fp(xq, p, h, p)
        diff = _poly_sub_fp(xq, x, p)
        if not diff:  # x^(p^(d/ell)) == x, so h splits over a proper subfield
            return False
        if len(_poly_gcd_fp(diff, h, p)) > 1:
            return False
    return True


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(n**0.5) + 1):
        if n % q == 0:
            return False
    return True


def smallest_quadratic_nonresidue(p: int) -> int:
    squares = {(x * x) % p for x in range(1, p)}
    for c in range(2, p):
        if c not in squares:
            return c
    raise ValidationError(f"no quadratic non-residue mod {p}")


@dataclass(frozen=True)
class CoefficientRing:
    """O = Z_p[x]/(h) at precision p^N, with p >= 5 and h irreducible mod p."""

    prime: int
    unramified_degree: int = 1
    precision_exponent: int = 24
    residue_modulus: tuple = None  # monic, low degree first, length degree+1

    def __post_init__(self):
        p, d, n = self.prime, self.unramified_degree, self.precision_exponent
        if p < 5 or not _is_prime(p):
            raise ValidationError(f"prime must be a prime >= 5, got {p}")
        if d < 1:
            raise ValidationError("unramified_degree must be >= 1")
        if n < 1:
            raise ValidationError("precision_exponent must be >= 1")
        if self.residue_modulus is None:
            if d == 1:
                h = (0, 1)
            else:
                h = tuple([(-smallest_quadratic_nonresidue(p)) % p] + [0] * (d - 1) + [1]) \
                    if d == 2 else None
            if h is None:
                raise ValidationError(
                    "no default residue modulus for degree > 2; supply one explicitly")
            object.__setattr__(self, "residue_modulus", h)
        h = tuple(c % p for c in self.residue_modulus)
        if len(h) != d + 1 or h[-1] != 1:
            raise ValidationError("residue_modulus must be monic of degree unramified_degree")
        if d > 1 and not _is_irreducible_fp(list(h), p):
            raise ValidationError("residue_modulus is reducible mod p")
        object.__setattr__(self, "residue_modulus", h)
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
        d, pn = self.unramified_degree, self.modulus
        if d == 1:
            return ((a[0] * b[0]) % pn,)
        prod = [0] * (2 * d - 1)
        for i in range(d):
            if a[i]:
                for j in range(d):
                    prod[i + j] += a[i] * b[j]
        h = self.residue_modulus
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i] % pn
            if c:
                for j in range(d):
                    prod[i - d + j] -= c * h[j]
            prod[i] = 0
        return tuple(prod[i] % pn for i in range(d))

    def _inv_coords(self, a):
        p, d, pn = self.prime, self.unramified_degree, self.modulus
        if d == 1:
            return (pow(a[0], -1, pn),)
        # invert in the residue field, then Hensel-lift x -> x(2 - ax)
        h = list(self.residue_modulus)
        g, s = _poly_trim([c % p for c in a]), None
        s = _poly_extgcd_fp(g, h, p)
        x = tuple((c if i < len(s) else 0) for i, c in enumerate(list(s) + [0] * d))[:d]
        prec = 1
        while prec < self.precision_exponent:
            prec *= 2
            two = (2,) + (0,) * (d - 1)
            ax = self._mul_coords(a, x)
            corr = tuple((two[i] - ax[i]) % pn for i in range(d))
            x = self._mul_coords(x, corr)
        return x


def _poly_extgcd_fp(a, h, p):
    """s with s*a == 1 mod (h, p); assumes gcd(a, h) = 1 over F_p."""
    r0, r1 = list(h), list(a)
    s0, s1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q = []
        r = list(r0)
        while len(r) >= len(r1) and r:
            c = (r[-1] * inv) % p
            deg = len(r) - len(r1)
            q = _poly_trim([(q[i] if i < len(q) else 0) + (c if i == deg else 0) for i in range(max(len(q), deg + 1))])
            for j in range(len(r1)):
                r[deg + j] = (r[deg + j] - c * r1[j]) % p
            r.pop()
            _poly_trim(r)
        # s = s0 - q*s1
        qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs1[i + j] = (qs1[i + j] + qi * sj) % p
        s = [( (s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)) % p
             for i in range(max(len(s0), len(qs1), 1))]
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(s)
    # r0 is now the gcd (a unit); normalize s0 by its inverse
    inv = pow(r0[0], -1, p)
    return _poly_trim([(c * inv) % p for c in s0])


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

    def unit_part(self) -> "RingElem":
        """Self divided by p^valuation; identity on units."""
        v = self.valuation()
        if v is ZERO_AT_PRECISION:
            raise NonUnitError("zero at precision has no unit part")
        pv = self.ring.prime**v
        return RingElem(self.ring, tuple(c // pv for c in self.coords))


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
