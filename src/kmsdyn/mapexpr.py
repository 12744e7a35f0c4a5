"""Recursive-descent parser for rational-map expressions.

Grammar over {z, i, exact decimal/integer literals, + - * / ^, parentheses},
with integer exponents.  Expressions evaluate to a pair of coprime
polynomials over the Gaussian rationals, so degree and coprimality are exact
decisions; floats enter only when the resulting map does numeric work.
An expression whose degree, bounded from its parse tree, could pass
MAX_DEGREE is refused before it is expanded, and so is one whose integers,
bounded the same way, could pass MAX_CONSTANT_BITS.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' signed_int)?
    atom   := NUMBER | 'i' | 'z' | '(' expr ')'
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import exact as xq
from .errors import ConstantOutOfRange, DegreeTooHigh, DivisionByZeroPolynomial, MapSyntaxError
from .ratmap import RationalMap

# the float work passes beyond it, translated index-N points included; the
# ceiling bounds the exact work, Yun's algorithm on the Wronskian, which takes
# about 4 s on a dense map of degree 20 and 24 s at degree 26 (2-core VM)
MAX_DEGREE = 64
# a bound on the bits of the expanded integers: two of 2^16 bits multiply in
# about 2 ms and take a gcd in about 8 ms (2-core VM), and the exact value of
# a complex double needs at most about 2,300 bits
MAX_CONSTANT_BITS = 2**16


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: xq.QG


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # '-'
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class MapExpression:
    source: str
    ast: object


# ---------------------------------------------------------------------------
# tokenizer


_OPS = set("+-*/^()")


def _tokenize(source: str):
    tokens = []  # (kind, value, position)
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and source[pos + 1].isdigit()):
            start = pos
            seen_dot = False
            while pos < n and (source[pos].isdigit() or (source[pos] == "." and not seen_dot)):
                seen_dot = seen_dot or source[pos] == "."
                pos += 1
            tokens.append(("num", source[start:pos], start))
            continue
        if ch == "z":
            tokens.append(("z", ch, pos))
            pos += 1
            continue
        if ch == "i":
            tokens.append(("i", ch, pos))
            pos += 1
            continue
        raise MapSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise MapSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise MapSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        signs = 0
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                signs += 1
        node = self.power()
        if signs % 2:
            node = Unary("-", node)
        return node

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = Power(node, self.signed_int())
        return node

    def signed_int(self):
        sign = 1
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        tok = self.expect("num")
        if "." in tok[1]:
            raise MapSyntaxError("exponent must be an integer", tok[2])
        return sign * int(tok[1])

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Num(xq.QG(Fraction(text)))
        if kind == "i":
            return Num(xq.QG_I)
        if kind == "z":
            return Var()
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise MapSyntaxError(f"unexpected token {text!r}", pos)


def parse_expression(source: str) -> MapExpression:
    return MapExpression(source=source, ast=_Parser(source).parse())


# ---------------------------------------------------------------------------
# evaluation to a rational map


def _bounds(node):
    """Bounds on the numerator and denominator degrees and on the integer bits of _eval_ratfunc(node).

    From the tree alone.  Over one common integer denominator c the
    numerator and denominator are A/c and B/c with Gaussian-integer A, B;
    the bit bound covers c and the parts of A and B, so every reduced
    Fraction too.  Two nodes combine over c1 c2, each part of a coefficient
    a sum of t integer products, t two per Gaussian product times the
    shorter factor's term count, read off the degree bounds, and twice that
    for a sum of fractions; it carries ceil(log2 t) = (t - 1).bit_length()
    bits past the products.  A power of e is e - 1 such products.
    """
    if isinstance(node, Num):
        re, im = node.value.re, node.value.im
        c = math.lcm(re.denominator, im.denominator)
        return 0, 0, max(abs(k).bit_length() for k in (c, re.numerator * c // re.denominator,
                                                       im.numerator * c // im.denominator))
    if isinstance(node, Var):
        return 1, 0, 1
    if isinstance(node, Unary):
        return _bounds(node.operand)
    if isinstance(node, Power):
        n, d, bits = _bounds(node.base)
        e = max(abs(node.exponent), 1)  # a zeroth power still expands its base
        bits = e * bits + (e - 1) * (2 * max(n, d) + 1).bit_length()
        return (n * e, d * e, bits) if node.exponent >= 0 else (d * e, n * e, bits)
    (an, ad, abits), (bn, bd, bbits) = _bounds(node.left), _bounds(node.right)
    if node.op in "+-":
        n, d = max(an + bd, bn + ad), ad + bd
        terms = max(2 * (min(an, bd) + min(bn, ad) + 2), 2 * (min(ad, bd) + 1))
    elif node.op == "*":
        n, d = an + bn, ad + bd
        terms = 2 * (max(min(an, bn), min(ad, bd)) + 1)
    else:
        n, d = an + bd, ad + bn
        terms = 2 * (max(min(an, bd), min(ad, bn)) + 1)
    return n, d, abits + bbits + (terms - 1).bit_length()


def _eval_ratfunc(node):
    """Evaluate to (numerator, denominator) over Q(i)[z]."""
    if isinstance(node, Num):
        return [node.value], [xq.QG_ONE]
    if isinstance(node, Var):
        return [xq.QG_ZERO, xq.QG_ONE], [xq.QG_ONE]
    if isinstance(node, Unary):
        n, d = _eval_ratfunc(node.operand)
        return [-c for c in n], d
    if isinstance(node, Power):
        n, d = _eval_ratfunc(node.base)
        e = node.exponent
        if e >= 0:
            return xq.xp_pow(n, e), xq.xp_pow(d, e)
        if not xq.xp_trim(list(n)):
            raise DivisionByZeroPolynomial("zero raised to a negative power")
        return xq.xp_pow(d, -e), xq.xp_pow(n, -e)
    if isinstance(node, Binary):
        an, ad = _eval_ratfunc(node.left)
        bn, bd = _eval_ratfunc(node.right)
        if node.op == "+":
            return xq.xp_add(xq.xp_mul(an, bd), xq.xp_mul(bn, ad)), xq.xp_mul(ad, bd)
        if node.op == "-":
            return xq.xp_sub(xq.xp_mul(an, bd), xq.xp_mul(bn, ad)), xq.xp_mul(ad, bd)
        if node.op == "*":
            return xq.xp_mul(an, bn), xq.xp_mul(ad, bd)
        if node.op == "/":
            if not xq.xp_trim(list(bn)):
                raise DivisionByZeroPolynomial("division by the zero polynomial")
            return xq.xp_mul(an, bd), xq.xp_mul(ad, bn)
    raise TypeError(f"not an AST node: {node!r}")


def reduce_ratfunc(num, den):
    """Cancel the gcd and make the denominator's leading coefficient one."""
    num, den = xq.xp_trim(list(num)), xq.xp_trim(list(den))
    if not den:
        raise DivisionByZeroPolynomial("denominator is the zero polynomial")
    if not num:
        return [], [xq.QG_ONE]
    g = xq.xp_gcd(num, den)
    if xq.xp_degree(g) >= 1:
        num, _ = xq.xp_divmod(num, g)
        den, _ = xq.xp_divmod(den, g)
    lead = den[-1]
    num = [c / lead for c in num]
    den = [c / lead for c in den]
    return num, den


def _reduced(source: str):
    """The reduced (numerator, denominator) of an expression.

    DegreeTooHigh before expanding past MAX_DEGREE, and ConstantOutOfRange
    before expanding integers past MAX_CONSTANT_BITS.
    """
    ast = parse_expression(source).ast
    *degrees, bits = _bounds(ast)
    if max(degrees) > MAX_DEGREE:
        raise DegreeTooHigh(f"expression degree could reach {max(degrees)}, more than the ceiling of {MAX_DEGREE}")
    if bits > MAX_CONSTANT_BITS:
        raise ConstantOutOfRange(
            f"expression constants could reach {bits} bits, more than the ceiling of {MAX_CONSTANT_BITS}")
    return reduce_ratfunc(*_eval_ratfunc(ast))


def parse_map(source: str) -> RationalMap:
    """Parse an expression into a degree >= 2 rational map with exact coefficients."""
    return RationalMap(*_reduced(source))


def parse_constant(source: str) -> complex:
    """Evaluate a z-free expression to an exact constant (as a complex)."""
    num, den = _reduced(source)
    if xq.xp_degree(num) > 0 or xq.xp_degree(den) > 0:
        raise MapSyntaxError("expected a constant expression without z", 0)
    if not num:
        return 0j
    return (num[0] / den[0]).to_complex()
