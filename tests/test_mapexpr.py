"""Expression parsing: exact coefficients, precedence, errors."""

import time
from fractions import Fraction

import pytest

from kmsdyn.errors import DegreeTooHigh, DegreeTooLow, DivisionByZeroPolynomial, MapSyntaxError
from kmsdyn.mapexpr import MAX_DEGREE, parse_constant, parse_expression, parse_map
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
])
def test_a_degree_past_the_ceiling_is_refused_before_expansion(source, bound):
    start = time.perf_counter()
    with pytest.raises(DegreeTooHigh, match=f"could reach {bound}, "):
        parse_map(source)
    with pytest.raises(DegreeTooHigh):
        parse_constant(source)
    assert time.perf_counter() - start < 1.0


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
