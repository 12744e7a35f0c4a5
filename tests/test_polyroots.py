"""Root finder: known factorizations, multiplicity detection, reconstruction.

numpy.roots (companion-matrix eigenvalues) serves as the independent oracle
for simple-root positions.  roots itself must equal, bit for bit, the same
steps run on numpy complex128 scalars with Python's complex quotients
(merge_oracles.numpy_scalar_roots).
"""

import math

import numpy as np
import pytest

from kmsdyn import ratmap
from kmsdyn.errors import NonConvergence
from kmsdyn.kms import kms_measure, lyubich
from kmsdyn.mapexpr import parse_map
from kmsdyn.polyroots import (
    DEFAULT_ROOT_TOL,
    Poly,
    derivative,
    roots,
    roots_batch,
)
from kmsdyn.projective import SpherePoint

from merge_oracles import numpy_scalar_roots


def _sorted_roots(p, tol=1e-9):
    return sorted(roots(p, tol), key=lambda rm: (rm[0].real, rm[0].imag))


def test_factored_quadratic():
    out = _sorted_roots(Poly([-1, 0, 1]))
    assert len(out) == 2
    assert out[0][0] == pytest.approx(-1) and out[0][1] == 1
    assert out[1][0] == pytest.approx(1) and out[1][1] == 1


def test_triple_root():
    out = roots(Poly([-8, 12, -6, 1]))
    assert len(out) == 1
    r, m = out[0]
    assert m == 3
    assert r == pytest.approx(2, abs=1e-8)


def test_shifted_quadratic_analytic():
    # z^2 + 1 - w at w = 5: analytic roots +/- sqrt(w - 1) = +/- 2
    out = _sorted_roots(Poly([1 - 5, 0, 1]))
    assert out[0][0] == pytest.approx(-2, abs=1e-12)
    assert out[1][0] == pytest.approx(2, abs=1e-12)


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        roots(Poly([5.0]))


def test_derivative_examples():
    assert list(derivative(Poly([0, 0, 0, 1])).coeffs) == [0, 0, 3]
    assert derivative(Poly([5.0])).degree == -1
    assert list(derivative(Poly([1, 0, 1])).coeffs) == [0, 2]


def test_root_count_always_degree():
    rng = np.random.default_rng(2)
    for _ in range(40):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] += 3.0  # keep the leading coefficient away from zero
        out = roots(Poly(coeffs))
        assert sum(m for _r, m in out) == deg


def test_reconstruction_random_monic():
    rng = np.random.default_rng(8)
    for _ in range(30):
        deg = int(rng.integers(2, 9))
        # well-separated roots on a jittered grid
        true = (rng.normal(size=deg) * 2 + 1j * rng.normal(size=deg) * 2)
        if np.min([abs(a - b) for i, a in enumerate(true) for b in true[i + 1:]] or [1]) < 0.3:
            continue
        coeffs = np.poly(true)[::-1]  # ascending
        out = roots(Poly(coeffs))
        rebuilt = np.array([1.0 + 0j])
        for r, m in out:
            for _ in range(m):
                rebuilt = np.convolve(rebuilt, np.array([1.0, -r]))
        got = rebuilt[::-1]
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(got - coeffs)) <= 1e-8 * scale


def test_conjugate_closure_for_real_coefficients():
    rng = np.random.default_rng(12)
    for _ in range(20):
        deg = int(rng.integers(2, 8))
        coeffs = rng.normal(size=deg + 1)
        coeffs[-1] += 2.0
        out = roots(Poly(coeffs))
        pts = [r for r, m in out for _ in range(m)]
        for r in pts:
            assert min(abs(r.conjugate() - s) for s in pts) < 1e-7


def test_against_companion_matrix_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        deg = int(rng.integers(2, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] += 2.0
        mine = [r for r, m in roots(Poly(coeffs)) for _ in range(m)]
        oracle = np.roots(coeffs[::-1])
        mine = sorted(mine, key=lambda z: (z.real, z.imag))
        oracle = sorted(oracle, key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, oracle):
            assert abs(a - b) < 1e-7 * max(1.0, abs(b))


def test_residual_contract():
    rng = np.random.default_rng(77)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] += 1.5
        p = Poly(coeffs)
        for r, _m in roots(p, 1e-9):
            assert abs(p(r)) <= 1e-9 * p.eval_scale(r)


def test_high_multiplicity_monomial():
    # z^7: one root of multiplicity 7 despite the wide double-precision cloud
    out = roots(Poly([0, 0, 0, 0, 0, 0, 0, 1.0]))
    assert len(out) == 1 and out[0][1] == 7
    assert abs(out[0][0]) < 1e-8


def test_nonconvergence_error_type():
    assert issubclass(NonConvergence, Exception)


# ---------------------------------------------------------------------------
# batch solver against the scalar one


def _batch_rows(rng, deg, count):
    """Random rows, then rows with a planted double root (the cluster path)."""
    C = rng.normal(size=(count, deg + 1)) + 1j * rng.normal(size=(count, deg + 1))
    C[:, -1] += 2.0
    double = []
    for _ in range(count // 4 if deg >= 2 else 0):
        true = rng.normal(size=deg - 1) + 1j * rng.normal(size=deg - 1)
        double.append(np.poly(np.concatenate([true[:1], true]))[::-1])
    return np.vstack([C] + double) if double else C, len(C)


@pytest.mark.parametrize("deg", [1, 2, 3, 4, 5, 6])
def test_roots_batch_matches_scalar_roots(deg):
    rng = np.random.default_rng(100 + deg)
    C, n_random = _batch_rows(rng, deg, 60)
    X, fallback = roots_batch(C, 1e-8)
    assert X.shape == (len(C), deg)
    assert not fallback[:n_random].any()
    assert fallback[n_random:].all()  # every planted double root is sent back
    for row, x, fb in zip(C, X, fallback):
        ref = roots(Poly(row), 1e-8)
        if fb:
            assert any(m > 1 for _r, m in ref)
            continue
        # same order and values: roots sorts by (real, imag) too
        assert [m for _r, m in ref] == [1] * deg
        r = np.array([r for r, _m in ref])
        assert np.all(np.abs(x - r) <= 1e-12 * np.maximum(1.0, np.abs(r)))


def test_roots_batch_gate_and_degree():
    with pytest.raises(ValueError):
        roots_batch(np.ones((3, 1)))
    X, fallback = roots_batch(np.zeros((0, 4)))
    assert X.shape == (0, 3) and fallback.shape == (0,)
    # a non-finite coefficient is never trusted
    C = np.array([[1.0, 0.0, 1.0], [np.nan, 0.0, 1.0]], dtype=complex)
    X, fallback = roots_batch(C, 1e-8)
    assert fallback.tolist() == [False, True]
    assert np.allclose(X[0], [-1j, 1j])


def test_roots_batch_rows_are_independent():
    # a long batch is solved in blocks of rows; no row depends on the others,
    # up to the last-bit rounding of numpy's vector loops
    rng = np.random.default_rng(6)
    C = rng.normal(size=(20_000, 4)) + 1j * rng.normal(size=(20_000, 4))
    C[:, -1] += 2.0
    X, fallback = roots_batch(C, 1e-8)
    for rows in (slice(0, 7), slice(8190, 8195), slice(19_990, 20_000)):
        Xs, fs = roots_batch(C[rows], 1e-8)
        assert np.array_equal(fallback[rows], fs)
        np.testing.assert_allclose(X[rows], Xs, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# Python complex arithmetic against the numpy complex128 scalars it replaced


def _solve_both(p, tol):
    """(roots, the numpy-scalar oracle) on p, each a list of (re, im, multiplicity) bits or the error type."""
    out = []
    for solve in (roots, numpy_scalar_roots):
        try:
            with np.errstate(all="ignore"):
                out.append([(float(r.real).hex(), float(r.imag).hex(), m) for r, m in solve(p, tol)])
        except NonConvergence:
            out.append(NonConvergence)
    return out


def _triple_rows(rng, deg, count):
    rows = []
    for _ in range(count):
        true = rng.normal(size=deg - 2) + 1j * rng.normal(size=deg - 2)
        rows.append(np.poly(np.concatenate([true[:1], true[:1], true]))[::-1])
    return rows


def test_roots_equal_numpy_scalar_oracle_on_rows():
    rng = np.random.default_rng(2027)
    polys = []
    for deg in range(1, 7):
        C, _n_random = _batch_rows(rng, deg, 40)
        polys += [Poly(row) for row in C]
        if deg >= 3:
            polys += [Poly(row) for row in _triple_rows(rng, deg, 10)]
    for n in range(2, 7):  # z^n + c, the symmetric start the circle perturbation breaks
        for c in (0.0, 1e-12, -1.0, 0.3 - 0.7j, 1e6j):
            polys.append(Poly([c] + [0.0] * (n - 1) + [1.0]))
    for p in polys:
        for tol in (1e-8, 1e-10):
            got, ref = _solve_both(p, tol)
            assert got == ref, p


@pytest.mark.parametrize("coeffs, expected", [
    ([0, 0, 0, 0, 0, 1], [(0j, 5)]),
    ([0, 0, 1, 1], [(-1 + 0j, 1), (0j, 2)]),
    ([0, -1, 0, 1], [(-1 + 0j, 1), (0j, 1), (1 + 0j, 1)]),
    ([0, 0, 0, 2], [(0j, 3)]),
])
def test_exact_zero_roots_come_off_before_the_solve(coeffs, expected):
    p = Poly(coeffs)
    out = roots(p)
    assert out == expected
    got, ref = _solve_both(p, DEFAULT_ROOT_TOL)
    assert got == ref


@pytest.fixture
def recorded_solves(monkeypatch):
    """Every (polynomial, tol) that ratmap hands to roots while the test runs."""
    calls = []

    def recording(p, tol=DEFAULT_ROOT_TOL):
        calls.append((p, tol))
        return roots(p, tol)

    monkeypatch.setattr(ratmap, "roots", recording)
    return calls


def test_roots_equal_numpy_scalar_oracle_on_preimage_forms(recorded_solves):
    from test_ratmap import _fibre_targets, _random_maps

    for R, rng in _random_maps(12):
        for y in _fibre_targets(R, rng):
            R.preimages(y)
    lyubich(parse_map("z^3-z"), SpherePoint.from_affine(0.3 + 0.1j), 6)
    kms_measure(parse_map("z^2+1"), SpherePoint.zero(), 1.0, depth=8)
    assert len(recorded_solves) > 900
    for p, tol in recorded_solves:
        got, ref = _solve_both(p, tol)
        assert got == ref, p


@pytest.mark.parametrize("coeffs", [[1e200, 0, 0, 1], [1, 0, 0, 1e-200], [math.nan, 0, 1],
                                    [1, 0, complex(1.5e308, 1.5e308)], [1, 1e-320]])
def test_non_finite_roots_raise_nonconvergence(coeffs):
    # roots that come out NaN used to pass the residual gate, whose > is false
    # for NaN; an abs() past the double range raises OverflowError in Python;
    # the linear root -1 / 1e-320 overflows to -inf+nanj
    with pytest.raises(NonConvergence):
        roots(Poly(coeffs))
