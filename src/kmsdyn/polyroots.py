"""Complex polynomial roots with multiplicity detection.

The solver runs Aberth-Ehrlich simultaneous iteration from a perturbed-circle
start, groups the degree-many approximations into root clusters via
overlapping Weierstrass inclusion discs, and polishes each cluster center
with multiplicity-aware Newton steps (z -= m p/p', quadratic even at an
m-fold root).  Cluster sizes are the multiplicities, so they always sum to
the degree.

roots solves one polynomial; it is the one-point API and the oracle of
roots_batch, which runs the same steps on an (M, n+1) array of coefficient
rows at once (closed forms at degrees 1-2, Aberth-Ehrlich above, the same
inclusion radii, one multiplicity-1 polish step and the same residual gate;
Aberth 1973, Bini & Fiorentino 2000).  A batch row whose discs come
together, or that misses the gate, is flagged for roots, whose cluster path
finds its multiple roots.

roots runs on Python complex numbers, not numpy complex128 scalars: it is
called once per atom of a backward orbit, and a Python complex operation
costs a fraction of a numpy scalar one.  Python's + - * abs and sqrt round
as numpy's do, but its complex division does not (it divides where numpy
multiplies by a reciprocal), so every quotient goes through _div or
_recip_sum, which round as numpy's complex128 division.  That keeps the
roots, and every orbit and printed digit built on them, bit for bit what
they were on numpy scalars.

Degrees here stay small (<= ~10); high-degree or adversarially
ill-conditioned inputs are out of scope and surface as NonConvergence.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergence

DEFAULT_ROOT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
BLOCK_ROWS = 8192  # rows per block of a vectorised pass; caps its temporaries


class Poly:
    """Univariate complex polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs), dtype=np.complex128)
        n = len(arr)
        while n > 0 and arr[n - 1] == 0:
            n -= 1
        self.coeffs = arr[:n]

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        out = 0j
        for c in self.coeffs[::-1]:
            out = out * x + c
        return out

    def eval_scale(self, x: complex) -> float:
        """sum |c_j| |x|^j, the natural magnitude of p near x."""
        ax = abs(x)
        out = 0.0
        for c in self.coeffs[::-1]:
            out = out * ax + abs(c)
        return out

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def derivative(p: Poly) -> Poly:
    c = p.coeffs
    if len(c) <= 1:
        return Poly([])
    return Poly([c[k] * k for k in range(1, len(c))])


def _div(a, b) -> complex:
    """a / b for Python complex a, b, rounded as numpy's complex128 scalar division.

    Python's own complex division divides by the scaled squared modulus
    (Smith's method); numpy multiplies by its reciprocal, so the two differ
    in the last bit of about 40% of quotients.  Like numpy, a zero divisor
    gives inf or nan and a NaN in b gives nan+nanj; nothing raises.
    """
    br = b.real
    bi = b.imag
    if abs(br) >= abs(bi):
        if br == 0.0:  # b == 0, which roots never divides by
            with np.errstate(all="ignore"):
                return complex(np.complex128(a) / np.complex128(b))
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        ar = a.real
        ai = a.imag
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    if abs(bi) > abs(br):
        rat = br / bi
        scl = 1.0 / (bi + br * rat)
        ar = a.real
        ai = a.imag
        return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)
    return complex(math.nan, math.nan)


def _recip_sum(xs, i):
    """The Aberth sum over j != i of 1 / (xs[i] - xs[j]), each term rounded as _div(1, d).

    The terms of _div that are exact for a numerator of 1 are left out, and
    the sum runs on the two parts, as complex addition does.  A zero
    difference counts as 1e-300.
    """
    x = xs[i]
    sr = si = 0.0
    for j in range(len(xs)):
        if j == i:
            continue
        d = x - xs[j]
        if d == 0:
            d = 1e-300
        dr = d.real
        di = d.imag
        if abs(dr) >= abs(di):
            rat = di / dr
            scl = 1.0 / (dr + di * rat)
            sr += scl
            si += (0.0 - rat) * scl
        elif abs(di) > abs(dr):
            rat = dr / di
            scl = 1.0 / (di + dr * rat)
            sr += (rat + 0.0) * scl
            si -= scl
        else:
            sr += math.nan
            si += math.nan
    return complex(sr, si)


def _initial_circle(acoeffs) -> list:
    n = len(acoeffs) - 1
    radius = 1.0 + max(acoeffs[1:]) / acoeffs[0]
    # deterministic angular perturbation breaks the symmetry of z^n + c
    return [
        radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4 + 0.01 * k))
        for k in range(n)
    ]


def _aberth_iterate(coeffs, acoeffs, dcoeffs):
    xs = _initial_circle(acoeffs)
    n = len(xs)
    for _ in range(DEFAULT_MAX_ITER):
        max_step = 0.0
        for i in range(n):
            xi = xs[i]
            pv = 0j
            for c in coeffs:
                pv = pv * xi + c
            if pv == 0:
                continue
            dv = 0j
            for c in dcoeffs:
                dv = dv * xi + c
            if dv == 0:
                xs[i] = xi * (1.0 + 1e-8) + 1e-8
                max_step = math.inf
                continue
            newton = _div(pv, dv)
            denom = 1.0 - newton * _recip_sum(xs, i)
            step = newton if denom == 0 else _div(newton, denom)
            xs[i] = xi - step
            rel = abs(step) / (1.0 + abs(xs[i]))
            if rel > max_step:
                max_step = rel
        if max_step <= 1e-14:
            return xs
    # multiple roots plateau at the attainable cloud radius; the cluster
    # analysis and the final residual gate decide what to make of that
    return xs


def _weierstrass_radii(coeffs, acoeffs, xs):
    """Inclusion-disc radii n |p(x_i) / (lead prod (x_i - x_j))|.

    The residual is floored at the double-precision evaluation noise so that
    points where p underflows to exactly zero (common inside a multiple-root
    cloud) still carry the radius their uncertainty implies.
    """
    n = len(xs)
    radii = []
    for i in range(n):
        x = xs[i]
        pv = 0j
        scale = 0.0
        ax = abs(x)
        for c, a in zip(coeffs, acoeffs):
            pv = pv * x + c
            scale = scale * ax + a
        noise = 2.0**-52 * scale
        prod = coeffs[0]
        for j in range(n):
            if j != i:
                prod *= x - xs[j]
        if prod == 0:
            radii.append(math.inf)
        else:
            radii.append(n * max(abs(pv), noise) / abs(prod))
    return radii


def _polish(coeffs, dcoeffs, center, mult):
    """Multiplicity-aware Newton refinement of a cluster center: (point, |p(point)|)."""
    x = center
    best = x
    best_res = math.inf
    for _ in range(60):
        pv = 0j
        for c in coeffs:
            pv = pv * x + c
        res = abs(pv)
        if res < best_res:
            best, best_res = x, res
        if pv == 0:
            return x, res
        dv = 0j
        for c in dcoeffs:
            dv = dv * x + c
        if dv == 0:
            break
        step = _div(mult * pv, dv)
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            pv = 0j
            for c in coeffs:
                pv = pv * x + c
            res = abs(pv)
            return (x, res) if res <= best_res else (best, best_res)
    return best, best_res


def roots(p: Poly, tol: float = DEFAULT_ROOT_TOL):
    """All roots of p with multiplicities, as [(root, multiplicity)].

    Multiplicities sum to the degree.  Each returned root r is finite, and
    above degree 1 it satisfies |p(r)| <= tol * (magnitude of p near r);
    otherwise NonConvergence is raised.

    The arithmetic runs on Python complex numbers, which cost less per
    operation than numpy scalars.  Their + - * abs sqrt round as numpy's do;
    their division does not, so every quotient goes through _div or
    _recip_sum, which round as numpy's complex128 division.  The results are
    bit for bit those of the same steps on numpy scalars, which
    tests/merge_oracles.py keeps.
    """
    coeffs = p.coeffs[::-1].tolist()  # descending: the leading coefficient first
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    if n == 1:
        r = _div(-coeffs[1], coeffs[0])
        if not cmath.isfinite(r):
            raise NonConvergence(f"linear root {r} is not finite")
        return [(r, 1)]
    try:
        out = _clusters(coeffs, n, tol)
    except OverflowError as exc:  # abs() of a complex whose modulus passes the double range
        raise NonConvergence(f"root finding overflowed: {exc}") from exc
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _clusters(coeffs, n, tol):
    """roots' steps at degree n >= 2 on descending coefficients, up to the gated clusters."""
    acoeffs = [abs(c) for c in coeffs]
    dcoeffs = [c * k for c, k in zip(coeffs, range(n, 0, -1))]
    if n == 2:
        c2, c1, c0 = coeffs
        disc = c1 * c1 - 4.0 * c2 * c0
        s = cmath.sqrt(disc)
        if (c1.conjugate() * s).real < 0.0:
            s = -s
        q = -0.5 * (c1 + s)
        if q != 0:
            approx = [_div(q, c2), _div(c0, q)]
        else:
            approx = [_div(-c1, 2.0 * c2)] * 2
    else:
        approx = _aberth_iterate(coeffs, acoeffs, dcoeffs)

    radii = _weierstrass_radii(coeffs, acoeffs, approx)

    # connected components of overlapping inclusion discs (plus the caller
    # tolerance), in the order of their lowest index
    label = list(range(n))
    for i in range(n - 1):
        xi = approx[i]
        for j in range(i + 1, n):
            xj = approx[j]
            thresh = max(tol * max(1.0, abs(xi), abs(xj)), radii[i] + radii[j])
            if abs(xi - xj) <= thresh and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if lab == old else lab for lab in label]
    groups = {}
    for lab, x in zip(label, approx):
        groups.setdefault(lab, []).append(x)

    out = []
    for members in groups.values():
        center = 0j
        for x in members:  # a loop, not sum(): newer Pythons sum complex numbers compensated
            center += x
        m = len(members)
        if m > 1 or not cmath.isfinite(center):  # x / 1 is x for a finite x
            center = _div(center, m)
        refined, res = _polish(coeffs, dcoeffs, center, m)
        scale = 0.0
        ax = abs(refined)
        for a in acoeffs:
            scale = scale * ax + a
        if not (res <= tol * max(scale, 1e-300) and cmath.isfinite(refined)):  # a NaN fails too
            raise NonConvergence(
                f"root residual {res:.3e} exceeds {tol:.1e} * scale "
                f"{scale:.3e}; input is ill-conditioned"
            )
        out.append((refined, m))
    return out


def _horner_rows(C, x):
    """p_m(x[m, i]) for ascending coefficient rows C (M, n+1), n >= 1, and points x (M, k)."""
    out = C[:, -1:]
    for k in range(C.shape[1] - 2, -1, -1):
        out = out * x + C[:, k : k + 1]
    return out


def _aberth_rows(C, D):
    """_aberth_iterate on every row at once; a row stops when its steps stop."""
    M, n = C.shape[0], C.shape[1] - 1
    radius = 1.0 + np.max(np.abs(C[:, :-1]), axis=1) / np.abs(C[:, -1])
    k = np.arange(n)
    X = radius[:, None] * np.exp(1j * (2.0 * math.pi * k / n + 0.4 + 0.01 * k))
    live = np.arange(M)
    for _ in range(DEFAULT_MAX_ITER):
        x, c, d = X[live], C[live], D[live]
        pv = _horner_rows(c, x)
        dv = _horner_rows(d, x)
        diff = x[:, :, None] - x[:, None, :]
        diff[diff == 0] = 1e-300
        inv = 1.0 / diff
        inv[:, k, k] = 0.0
        newton = pv / dv
        denom = 1.0 - newton * inv.sum(axis=2)
        step = np.where(denom == 0, newton, newton / denom)
        step[pv == 0] = 0.0
        flat = (dv == 0) & (pv != 0)  # a critical point: nudge off it and keep going
        new = np.where(flat, x * (1.0 + 1e-8) + 1e-8, x - step)
        rel = np.where(flat, math.inf, np.abs(step) / (1.0 + np.abs(new)))
        X[live] = new
        live = live[rel.max(axis=1) > 1e-14]
        if not len(live):
            break
    return X


def _polish_rows(C, D, X):
    """One multiplicity-1 Newton step at every point, kept where the residual does not grow."""
    pv = _horner_rows(C, X)
    dv = _horner_rows(D, X)
    step = pv / np.where(dv == 0, 1.0, dv)
    step[(pv == 0) | (dv == 0)] = 0.0
    new = X - step
    return np.where(np.abs(_horner_rows(C, new)) <= np.abs(pv), new, X)


def roots_batch(C, tol: float = DEFAULT_ROOT_TOL):
    """The simple roots of many polynomials at once: roots, vectorised over rows.

    C is an (M, n+1) array of ascending coefficient rows of true degree n.
    Returns (X, fallback): X is (M, n), each row's roots sorted by (real,
    imag) as roots sorts them.  Each row takes roots' path: the closed form
    at degrees 1 and 2, Aberth-Ehrlich above, then Weierstrass inclusion
    radii, one multiplicity-1 polish and the residual gate.  fallback marks
    the rows whose X is not to be trusted: inclusion discs that overlap or
    lie within the tol gap (where roots would form a cluster), a missed
    residual gate, or a non-finite value.  Solve those with roots.
    """
    C = np.asarray(C, dtype=np.complex128)
    M, n = C.shape[0], C.shape[1] - 1
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    if M > BLOCK_ROWS:  # the pairwise (rows, n, n) arrays stay a few MB
        parts = [roots_batch(C[i : i + BLOCK_ROWS], tol) for i in range(0, M, BLOCK_ROWS)]
        return np.concatenate([X for X, _f in parts]), np.concatenate([f for _X, f in parts])
    with np.errstate(all="ignore"):
        if n == 1:
            X = -C[:, :1] / C[:, 1:]
            return X, ~np.isfinite(X[:, 0])
        D = C[:, 1:] * np.arange(1, n + 1)
        if n == 2:
            c0, c1, c2 = C.T
            s = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
            s = np.where((np.conj(c1) * s).real < 0.0, -s, s)
            q = -0.5 * (c1 + s)
            X = np.stack([q / c2, c0 / q], axis=1)
            X[q == 0] = (-c1 / (2.0 * c2))[q == 0, None]
        else:
            X = _aberth_rows(C, D)

        # Weierstrass inclusion radii, floored at the evaluation noise
        A = np.abs(C)
        ax = np.abs(X)
        noise = 2.0**-52 * _horner_rows(A, ax)
        diff = X[:, :, None] - X[:, None, :]
        k = np.arange(n)
        diff[:, k, k] = 1.0
        prod = np.abs(C[:, -1:] * np.prod(diff, axis=2))
        radii = np.where(prod == 0, math.inf, n * np.maximum(np.abs(_horner_rows(C, X)), noise) / prod)
        gap = np.abs(diff)
        thresh = np.maximum(tol * np.maximum(1.0, np.maximum(ax[:, :, None], ax[:, None, :])),
                            radii[:, :, None] + radii[:, None, :])
        merged = gap <= thresh
        merged[:, k, k] = False

        X = _polish_rows(C, D, X)
        scale = _horner_rows(A, np.abs(X))
        missed = np.abs(_horner_rows(C, X)) > tol * np.maximum(scale, 1e-300)
        fallback = merged.any(axis=(1, 2)) | missed.any(axis=1) | ~np.all(np.isfinite(X), axis=1)
    order = np.lexsort((X.imag, X.real))
    return np.take_along_axis(X, order, axis=1), fallback


def multiplicity_of_root(p: Poly, r: complex, tol: float = 1e-6) -> int:
    """Smallest k with p^(k)(r) above the noise floor 1e-7 * derivative scale.

    The input must already be a root: |p(r)| <= tol * scale, else ValueError.
    """
    scale = p.eval_scale(r)
    if abs(p(r)) > tol * max(scale, 1e-300):
        raise ValueError(f"{r} is not a root of the polynomial (residual {abs(p(r)):.3e})")
    q = p
    for k in range(1, p.degree + 1):
        q = derivative(q)
        val = abs(q(r))
        noise = 1e-7 * max(q.eval_scale(r), 1e-300)
        if val > noise:
            return k
    raise ValueError("polynomial vanishes to all orders; zero polynomial?")
