"""Expression parsing: exact coefficients, precedence, errors."""

import math
import random
import time
from fractions import Fraction

import pytest

from kmsdyn import mapexpr
from kmsdyn.errors import ConstantOutOfRange, DegreeTooHigh, DegreeTooLow, DivisionByZeroPolynomial, MapSyntaxError
from kmsdyn.exact import QG, QG_I, xp_degree
from kmsdyn.mapexpr import (MAX_CONSTANT_BITS, MAX_DEGREE, Binary, Num, Power, Unary, Var, parse_constant,
                            parse_expression, parse_map)
from kmsdyn.ratmap import analysis_report


def exact_coeffs(poly):
    return [(c.re, c.im) for c in poly]


def test_parse_z2_plus_1():
    R = parse_map("z^2+1")
    assert R.n == 2
    assert exact_coeffs(R.exact[0]) == [(1, 0), (0, 0), (1, 0)]
    assert exact_coeffs(R.exact[1]) == [(1, 0)]


def test_parse_reciprocal_square():
    R = parse_map("1/z^2")
    assert R.n == 2
    assert exact_coeffs(R.exact[0]) == [(1, 0)]
    assert exact_coeffs(R.exact[1]) == [(0, 0), (0, 0), (1, 0)]


def test_parse_gasket_map():
    R = parse_map("(z^3-16/27)/z")
    assert R.n == 3
    assert exact_coeffs(R.exact[0]) == [(Fraction(-16, 27), 0), (0, 0), (0, 0), (1, 0)]
    assert exact_coeffs(R.exact[1]) == [(0, 0), (1, 0)]


def test_gcd_reduction_is_exact():
    # (z^3 + z) / (z^2 + 1) reduces exactly to z / 1
    R = parse_map("(z^3+z)/(z^2+1)*z")
    assert R.n == 2
    assert exact_coeffs(R.exact[0]) == [(0, 0), (0, 0), (1, 0)]
    assert exact_coeffs(R.exact[1]) == [(1, 0)]


def test_precedence_golden():
    a = parse_expression("z^2+1/z")
    b = parse_expression("(z^2+1)/z")
    assert a.ast != b.ast
    Ra = parse_map("z^2+1/z")  # z^2 + (1/z) = (z^3 + 1)/z
    assert exact_coeffs(Ra.exact[0]) == [(1, 0), (0, 0), (0, 0), (1, 0)]
    Rb = parse_map("(z^2+1)/z")
    assert exact_coeffs(Rb.exact[0]) == [(1, 0), (0, 0), (1, 0)]
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for src, num, den in [
        ("-z^3+2*z-1/2", [(-half, 0), (2, 0), (0, 0), (-1, 0)], [(1, 0)]),
        ("(1+i)*z^2-(3/4)*z", [(0, 0), (Fraction(-3, 4), 0), (1, 1)], [(1, 0)]),
        ("z^2-z*1.5+0.25", [(quarter, 0), (-3 * half, 0), (1, 0)], [(1, 0)]),
        ("((z))^4/(z-1)", [(0, 0), (0, 0), (0, 0), (0, 0), (1, 0)], [(-1, 0), (1, 0)]),
    ]:
        R = parse_map(src)
        assert (exact_coeffs(R.exact[0]), exact_coeffs(R.exact[1])) == (num, den), src


def test_unary_minus_binds_below_power():
    # -z^2 is -(z^2); as a map offset it differs from (-z)^2
    Ra = parse_map("1-z^2")
    Rb = parse_map("1+(-z)^2")
    assert exact_coeffs(Ra.exact[0]) == [(1, 0), (0, 0), (-1, 0)]
    assert exact_coeffs(Rb.exact[0]) == [(1, 0), (0, 0), (1, 0)]


def test_gaussian_rational_literals():
    R = parse_map("z^2 + 1/2 + 3*i")
    c0 = R.exact[0][0]
    assert c0.re == Fraction(1, 2) and c0.im == 3


def test_decimal_literals_are_exact():
    R = parse_map("z^2 + 0.125")
    assert R.exact[0][0].re == Fraction(1, 8)


def test_negative_exponent():
    R = parse_map("z^-2")
    assert R.n == 2
    assert exact_coeffs(R.exact[1]) == [(0, 0), (0, 0), (1, 0)]


def test_syntax_error_positions():
    with pytest.raises(MapSyntaxError) as err:
        parse_expression("z^2+")
    assert err.value.position == 4
    with pytest.raises(MapSyntaxError) as err:
        parse_expression("z?1")
    assert err.value.position == 1
    with pytest.raises(MapSyntaxError) as err:
        parse_expression("(z+1")
    assert err.value.position == 4
    with pytest.raises(MapSyntaxError):
        parse_expression("z^2.5")


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        parse_map("z+1")
    with pytest.raises(DegreeTooLow):
        parse_map("3/4")
    with pytest.raises(DegreeTooLow):
        parse_map("(z^2+z)/(z+1)")  # reduces to z


def test_the_degree_ceiling_analyzes_and_one_more_is_refused():
    assert analysis_report(parse_map(f"z^{MAX_DEGREE}+1"))["degree"] == MAX_DEGREE
    with pytest.raises(DegreeTooHigh, match=f"could reach {MAX_DEGREE + 1}, more than the ceiling of {MAX_DEGREE}$"):
        parse_map(f"z^{MAX_DEGREE + 1}+1")


@pytest.mark.parametrize("source, bound", [
    ("z^100000", 100000),
    ("((z^2)^40)^1000", 80000),
    ("z^100/z^98", 100),  # bounded before the gcd cancels it to z^2
    ("(z^-70+1)*z^2", 72),
    # a sum of fractions multiplies the denominators: degree 65, though each term has degree 1
    ("+".join(f"1/(z-{k})" for k in range(1, 66)), 65),
    ("z^2+(z^100000)^0", 100000),  # a zeroth power still expands its base
])
def test_a_degree_past_the_ceiling_is_refused_before_expansion(source, bound):
    start = time.perf_counter()
    with pytest.raises(DegreeTooHigh, match=f"could reach {bound}, "):
        parse_map(source)
    with pytest.raises(DegreeTooHigh):
        parse_constant(source)
    assert time.perf_counter() - start < 1.0


def test_the_bit_ceiling_expands_and_one_more_power_is_refused():
    # (3/5+4/5i)^n has modulus 1 and parts of about 4.6 n bits; the tree bounds them by 18 n - 1
    assert abs(abs(parse_constant("(3/5+4/5*i)^979")) - 1.0) <= 1e-12
    assert abs(abs(parse_constant("(3/5+4/5*i)^3640")) - 1.0) <= 1e-12
    start = time.perf_counter()
    with pytest.raises(ConstantOutOfRange, match=f"reach 65537 bits, more than the ceiling of {MAX_CONSTANT_BITS}$"):
        parse_constant("(3/5+4/5*i)^3641")
    with pytest.raises(ConstantOutOfRange, match="bits"):
        parse_map("z^2+3^3000000*z")
    assert time.perf_counter() - start < 1.0


def _random_tree(rng, depth):
    """A random expression tree of constants, i, z, + - * / and small integer powers."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Var()
        if leaf == 1:
            return Num(QG_I)
        if leaf == 2:  # all-ones parts make products and sums carry as far as they can
            ones = Fraction(2 ** rng.randint(1, 40) - 1, rng.choice([1, 2 ** rng.randint(1, 20) - 1]))
            return Num(QG(ones, ones))
        return Num(QG(*(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**8)) for _ in range(2))))
    kind = rng.randrange(6)
    if kind == 0:
        return Unary("-", _random_tree(rng, depth - 1))
    if kind == 1:
        return Power(_random_tree(rng, depth - 1), rng.randint(-3, 4))
    return Binary(rng.choice("+-*/"), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _subtrees(node):
    yield node
    for child in (getattr(node, name, None) for name in ("operand", "base", "left", "right")):
        if child is not None:
            yield from _subtrees(child)


def _common_denominator_bits(num, den):
    """The largest bit length of c and of the parts of A and B, where num = A/c and den = B/c over the least c."""
    parts = [x for coeff in num + den for x in (coeff.re, coeff.im)]
    c = math.lcm(*(x.denominator for x in parts))
    return max(abs(k).bit_length() for k in [c] + [x.numerator * (c // x.denominator) for x in parts])


def test_the_tree_bounds_hold_at_every_node_of_random_expressions():
    rng = random.Random(29)
    checked = 0
    for _ in range(400):
        tree = _random_tree(rng, rng.randint(1, 5))
        for node in _subtrees(tree):
            try:
                num, den = mapexpr._eval_ratfunc(node)
            except DivisionByZeroPolynomial:
                continue
            num_degree, den_degree, bits = mapexpr._bounds(node)
            assert xp_degree(num) <= num_degree and xp_degree(den) <= den_degree, node
            assert _common_denominator_bits(num, den) <= bits, node
            checked += 1
    assert checked > 1000


def test_division_by_zero_polynomial():
    with pytest.raises(DivisionByZeroPolynomial):
        parse_map("z^2/(z-z)")
    with pytest.raises(DivisionByZeroPolynomial):
        parse_map("(z-z)^-1 + z^2")


def test_parse_constant():
    assert parse_constant("3/4") == 0.75
    assert parse_constant("1+2*i") == 1 + 2j
    assert parse_constant("-(1/2)*i") == -0.5j
    with pytest.raises(MapSyntaxError):
        parse_constant("z+1")


def test_whitespace_tolerated():
    R = parse_map("  z ^ 2  +  1 ")
    assert R.n == 2


def test_sign_chains_collapse_at_parse_time():
    a = parse_expression("--z^2").ast
    b = parse_expression("z^2").ast
    assert a == b
    c = parse_expression("---z^2").ast
    d = parse_expression("-z^2").ast
    assert c == d
    # a parenthesized negative literal is its own factor, not part of a sign chain
    assert exact_coeffs(parse_map("-(-18)*z^2").exact[0]) == [(0, 0), (0, 0), (18, 0)]
