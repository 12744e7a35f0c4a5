"""Gaussian-rational arithmetic and exact polynomial algebra."""

from fractions import Fraction

from kmsdyn import exact as xq


def qg(re, im=0):
    return xq.QG(Fraction(re), Fraction(im))


def xp_eval(p: xq.ExactPoly, x: xq.QG) -> xq.QG:
    out = xq.QG_ZERO
    for c in reversed(p):
        out = out * x + c
    return out


def xp_resultant(p: xq.ExactPoly, q: xq.ExactPoly) -> xq.QG:
    """Resultant via the Sylvester matrix, exact Gaussian elimination.

    Nonzero iff p and q are coprime: an independent cross-check of the
    gcd-based coprimality test.
    """
    m, n = xq.xp_degree(p), xq.xp_degree(q)
    if m < 0 or n < 0:
        return xq.QG_ZERO
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p))  # descending
    qc = list(reversed(q))
    for i in range(n):
        rows.append([xq.QG_ZERO] * i + pc + [xq.QG_ZERO] * (size - m - 1 - i))
    for i in range(m):
        rows.append([xq.QG_ZERO] * i + qc + [xq.QG_ZERO] * (size - n - 1 - i))
    det = xq.QG_ONE
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return xq.QG_ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pval = rows[col][col]
        det = det * pval
        for r in range(col + 1, size):
            if rows[r][col]:
                f = rows[r][col] / pval
                rows[r] = [rows[r][k] - f * rows[col][k] for k in range(size)]
    return det


def test_field_arithmetic():
    a = qg("3/4", "1/2")
    b = qg(2, -1)
    assert a + b == qg("11/4", "-1/2")
    assert a * b == (b * a)
    assert (a / b) * b == a
    assert a**3 == a * a * a
    assert qg(2) ** -2 == qg("1/4")


def test_polynomial_divmod_identity():
    p = [qg(1), qg(0), qg(-3), qg(2, 1)]
    q = [qg(-1), qg(1)]
    quo, rem = xq.xp_divmod(p, q)
    rebuilt = xq.xp_add(xq.xp_mul(quo, q), rem)
    assert rebuilt == xq.xp_trim(p)


def test_gcd_of_shared_factor():
    shared = [qg(-2), qg(1)]          # z - 2
    p = xq.xp_mul(shared, [qg(1), qg(1)])
    q = xq.xp_mul(shared, [qg(3), qg(0), qg(1)])
    g = xq.xp_gcd(p, q)
    assert xq.xp_degree(g) == 1
    assert g[-1] == qg(1)             # monic
    assert xp_eval(g, qg(2)) == qg(0)


def test_gcd_coprime_is_constant():
    p = [qg(1), qg(0), qg(1)]         # z^2 + 1
    q = [qg(0), qg(1)]                # z
    assert xq.xp_degree(xq.xp_gcd(p, q)) == 0


def test_resultant_agrees_with_gcd():
    # resultant nonzero iff gcd is constant; cross-check both tools
    cases = [
        ([qg(1), qg(0), qg(1)], [qg(0), qg(1)], True),
        (xq.xp_mul([qg(-2), qg(1)], [qg(1), qg(1)]),
         xq.xp_mul([qg(-2), qg(1)], [qg(5), qg(1)]), False),
        ([qg(-1), qg(0), qg(0), qg(1)], [qg(0), qg(0), qg(1)], True),
    ]
    for p, q, coprime in cases:
        res = xp_resultant(p, q)
        assert bool(res) == coprime
        assert (xq.xp_degree(xq.xp_gcd(p, q)) == 0) == coprime


def test_squarefree_decomposition_multiplicities():
    # (z-1)^1 (z+2)^3
    f1 = [qg(-1), qg(1)]
    f2 = [qg(2), qg(1)]
    p = xq.xp_mul(f1, xq.xp_pow(f2, 3))
    decomp = xq.xp_squarefree_decomposition(p)
    as_dict = {m: g for g, m in decomp}
    assert sorted(as_dict) == [1, 3]
    assert xp_eval(as_dict[1], qg(1)) == qg(0)
    assert xp_eval(as_dict[3], qg(-2)) == qg(0)


def test_squarefree_recovers_total_degree():
    p = xq.xp_pow([qg(0), qg(1)], 4)  # z^4
    decomp = xq.xp_squarefree_decomposition(p)
    assert sum(m * xq.xp_degree(g) for g, m in decomp) == 4


def test_derivative_and_eval():
    p = [qg(1), qg(2), qg(3)]  # 1 + 2z + 3z^2
    dp = xq.xp_derivative(p)
    assert dp == [qg(2), qg(6)]
    assert xp_eval(p, qg(2)) == qg(1 + 4 + 12)
