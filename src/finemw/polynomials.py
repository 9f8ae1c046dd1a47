"""Polynomial algebra of the Iwasawa algebra Lambda = O[[T]], truncated to polynomials.

Provides omega_n = (1+T)^(p^n) - 1, the p-power cyclotomic polynomials in the
shifted variable (Phi_0 := T by convention, so that prod_{j<=n} Phi_j = omega_n),
division with remainder against distinguished polynomials, and rendering of
characteristic ideals as products of cyclotomic powers.
"""

from __future__ import annotations

import math

from .errors import BadDivisorError, ResourceLimitError, ValidationError
from .padics import CoefficientRing, RingElem


def default_max_level(p: int) -> int:
    """Deepest tower level computations request by default for this prime."""
    return 3 if p <= 7 else 2


def hard_max_level(p: int) -> int:
    """Absolute level cap: one regression-window level beyond the default."""
    return default_max_level(p) + 1


def degree_budget(p: int) -> int:
    """Largest degree and expansion row count: 4 p^(hard max level), at most p = 7's."""
    return min(4 * p**hard_max_level(p), 4 * 7**4)


def phi_degree(p: int, n: int) -> int:
    """Degree of the n-th cyclotomic factor; phi(p^0) is taken to be 1."""
    return 1 if n == 0 else p**n - p ** (n - 1)


class IwasawaPoly:
    """Polynomial in T over a CoefficientRing, constant term first, trimmed."""

    __slots__ = ("ring", "coefficients")

    def __init__(self, ring: CoefficientRing, coefficients):
        coeffs = [ring.element(c) for c in coefficients]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.ring = ring
        self.coefficients = tuple(coeffs)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, list(ints))

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, [value])

    @classmethod
    def variable(cls, ring):
        return cls(ring, [0, 1])

    # -- basics ---------------------------------------------------------------

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, k: int) -> RingElem:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return self.ring.zero()

    def leading_coefficient(self) -> RingElem:
        if self.is_zero():
            return self.ring.zero()
        return self.coefficients[-1]

    def is_distinguished(self) -> bool:
        """Monic with every lower coefficient of valuation >= 1."""
        if self.is_zero() or self.degree() < 0:
            return False
        if self.leading_coefficient() != self.ring.one():
            return False
        return all(c.is_zero() or c.valuation() >= 1 for c in self.coefficients[:-1])

    def __eq__(self, other):
        return (isinstance(other, IwasawaPoly) and self.ring == other.ring
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.ring, self.coefficients))

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IwasawaPoly):
            if other.ring != self.ring:
                raise ValidationError("mixed-ring polynomial arithmetic")
            return other
        return IwasawaPoly(self.ring, [other])

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return IwasawaPoly(self.ring, [self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return IwasawaPoly(self.ring, [self.coefficient(k) - other.coefficient(k) for k in range(n)])

    def __neg__(self):
        return IwasawaPoly(self.ring, [-c for c in self.coefficients])

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return IwasawaPoly(self.ring, [])
        out = [self.ring.zero()] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] = out[i + j] + a * b
        return IwasawaPoly(self.ring, out)

    __rmul__ = __mul__

    def substitute(self, g: "IwasawaPoly") -> "IwasawaPoly":
        """Composition self(g(T)), exact; degree multiplies."""
        acc = IwasawaPoly(self.ring, [])
        for c in reversed(self.coefficients):
            acc = acc * g + IwasawaPoly(self.ring, [c])
        return acc

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form 'c0 + c1*T + ...' with base-10 coordinates."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c.is_zero():
                continue
            if self.ring.unramified_degree == 1:
                cs = str(c.coords[0])
            else:
                cs = "[" + ",".join(str(x) for x in c.coords) + "]"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*T" if cs != "1" else "T")
            else:
                parts.append(f"{cs}*T^{k}" if cs != "1" else f"T^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"IwasawaPoly({self.render()})"


def omega(ring: CoefficientRing, n: int) -> IwasawaPoly:
    """(1+T)^(p^n) - 1, distinguished of degree p^n."""
    if n < 0:
        raise ValidationError("level must be >= 0")
    p = ring.prime
    q = p**n
    budget = degree_budget(p)
    if q > budget:
        raise ResourceLimitError(f"omega level {n} needs degree {q} > budget {budget}")
    return IwasawaPoly(ring, [0] + [math.comb(q, k) for k in range(1, q + 1)])


def cyclotomic(ring: CoefficientRing, n: int) -> IwasawaPoly:
    """n-th cyclotomic factor: omega(n)/omega(n-1) for n >= 1, T for n = 0.

    Computed from the closed form 1 + X^m + X^(2m) + ... + X^((p-1)m) at
    X = 1+T, m = p^(n-1); the quotient identity is kept for the test suite.
    """
    if n < 0:
        raise ValidationError("level must be >= 0")
    if n == 0:
        return IwasawaPoly.variable(ring)
    p = ring.prime
    deg = phi_degree(p, n)
    budget = degree_budget(p)
    if deg > budget:
        raise ResourceLimitError(f"cyclotomic level {n} needs degree {deg} > budget {budget}")
    m = p ** (n - 1)
    # sum of binomial rows for (1+T)^(k*m), k = 0..p-1
    coeffs = [0] * (deg + 1)
    for k in range(p):
        e = k * m
        for i in range(e + 1):
            coeffs[i] += math.comb(e, i)
    return IwasawaPoly(ring, coeffs)


def weierstrass_divide(f: IwasawaPoly, g: IwasawaPoly):
    """f = q*g + r with deg r < deg g, for g distinguished of degree >= 1.

    Plain long division; exact because g is monic.  Deterministic.
    """
    if f.ring != g.ring:
        raise ValidationError("mixed-ring division")
    if not g.is_distinguished() or g.degree() < 1:
        raise BadDivisorError("divisor must be distinguished of degree >= 1")
    ring = f.ring
    dg = g.degree()
    rem = list(f.coefficients)
    quo = [ring.zero()] * max(0, len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c.is_zero():
            continue
        quo[i - dg] = c
        for j in range(dg + 1):
            rem[i - dg + j] = rem[i - dg + j] - c * g.coefficient(j)
    return IwasawaPoly(ring, quo), IwasawaPoly(ring, rem[:dg])


class CharIdealRendering:
    """A product of cyclotomic powers: canonical text plus optional expansion."""

    __slots__ = ("factors", "text", "polynomial")

    def __init__(self, factors, text, polynomial):
        self.factors = factors
        self.text = text
        self.polynomial = polynomial

    def __repr__(self):
        return f"CharIdealRendering({self.text})"


def char_ideal_render(factors, ring: CoefficientRing | None = None,
                      expand: bool = True) -> CharIdealRendering:
    """Render a list of (level, multiplicity) pairs as 'Phi_0^a·Phi_1^b·...'.

    Zero multiplicities are omitted; the empty product renders as '1'.  When
    `expand` is set and a ring is supplied, the expanded polynomial is computed
    up to the degree budget.
    """
    cleaned = []
    for level, mult in sorted(factors):
        if mult < 0:
            raise ValidationError("multiplicities must be >= 0")
        if mult > 0:
            cleaned.append((int(level), int(mult)))
    if not cleaned:
        text = "1"
    else:
        text = "·".join(f"Φ_{n}^{m}" for n, m in cleaned)
    poly = None
    if expand and ring is not None:
        budget = degree_budget(ring.prime)
        total = sum(m * phi_degree(ring.prime, n) for n, m in cleaned)
        if total > budget:
            raise ResourceLimitError(
                f"expanded ideal has degree {total} > budget {budget}")
        poly = IwasawaPoly.constant(ring, 1)
        for n, m in cleaned:
            base = cyclotomic(ring, n)
            for _ in range(m):
                poly = poly * base
    return CharIdealRendering(tuple(cleaned), text, poly)
