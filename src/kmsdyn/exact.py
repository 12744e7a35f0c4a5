"""Exact Gaussian-rational arithmetic and polynomial algebra over Q(i).

Map expressions are evaluated here with exact coefficients so that degree,
coprimality and the Wronskian's root multiplicities are decided without
floating-point guesswork.  Everything downstream of these decisions runs in
ordinary double precision.

Polynomials are coefficient lists in ascending degree with a nonzero leading
entry; the zero polynomial is the empty list.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConstantOutOfRange


class QG:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, QG):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return QG(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QG(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QG(-self.re, -self.im)

    def __mul__(self, other):
        return QG(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QG(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __pow__(self, n: int):
        if n < 0:
            return QG(1) / self.__pow__(-n)
        out = QG(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def to_complex(self) -> complex:
        """The nearest complex double; ConstantOutOfRange if a part is past the double range."""
        try:
            return complex(self.re) + 1j * complex(self.im)
        except OverflowError:
            part = max(abs(self.re), abs(self.im))
            digits = math.floor(math.log10(part.numerator) - math.log10(part.denominator))
            raise ConstantOutOfRange(f"constant of about 10^{digits} is past the double range") from None

    def __repr__(self):
        return f"QG({self.re!r}, {self.im!r})"


QG_ZERO = QG(0)
QG_ONE = QG(1)
QG_I = QG(0, 1)

# A polynomial over Q(i): list[QG], ascending, trimmed.
ExactPoly = list


def xp_trim(p: ExactPoly) -> ExactPoly:
    while p and not p[-1]:
        p = p[:-1]
    return p


def xp_degree(p: ExactPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def xp_add(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else QG_ZERO
        b = q[k] if k < len(q) else QG_ZERO
        out.append(a + b)
    return xp_trim(out)


def xp_sub(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    return xp_add(p, [-c for c in q])


def xp_mul(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    if not p or not q:
        return []
    out = [QG_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return xp_trim(out)


def xp_pow(p: ExactPoly, n: int) -> ExactPoly:
    out = [QG_ONE]
    base = p
    while n:
        if n & 1:
            out = xp_mul(out, base)
        base = xp_mul(base, base)
        n >>= 1
    return out


def xp_derivative(p: ExactPoly) -> ExactPoly:
    return xp_trim([p[k] * QG(k) for k in range(1, len(p))])


def xp_divmod(p: ExactPoly, q: ExactPoly):
    """Euclidean division over the field Q(i); returns (quotient, remainder)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [QG_ZERO] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    while len(r) >= len(q) and xp_trim(r):
        r = xp_trim(r)
        if len(r) < len(q):
            break
        c = r[-1] / lead
        k = len(r) - len(q)
        quot[k] = c
        for j, b in enumerate(q):
            r[k + j] = r[k + j] - c * b
        r = r[:-1]
    return xp_trim(quot), xp_trim(r)


def xp_monic(p: ExactPoly) -> ExactPoly:
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def xp_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd via the Euclidean algorithm."""
    a, b = xp_trim(list(p)), xp_trim(list(q))
    while b:
        _, r = xp_divmod(a, b)
        a, b = b, r
    return xp_monic(a)


def xp_squarefree_decomposition(p: ExactPoly):
    """Yun's algorithm: p = lc * prod g_k^k with each g_k monic square-free.

    Returns a list of (g_k, k) with deg g_k >= 1.  Exact multiplicities make
    branch indices integers by construction rather than by thresholding.
    """
    p = xp_monic(xp_trim(list(p)))
    if xp_degree(p) < 1:
        return []
    dp = xp_derivative(p)
    a = xp_gcd(p, dp)
    b, _ = xp_divmod(p, a)
    c, _ = xp_divmod(dp, a)
    d = xp_sub(c, xp_derivative(b))
    out = []
    k = 1
    while xp_degree(b) >= 1:
        g = xp_gcd(b, d)
        if xp_degree(g) >= 1:
            out.append((g, k))
        b, _ = xp_divmod(b, g)
        c, _ = xp_divmod(d, g)
        d = xp_sub(c, xp_derivative(b))
        k += 1
    return out


def xp_to_complex(p: ExactPoly):
    return [c.to_complex() for c in p]
