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
        arr = np.asarray(list(coeffs), dtype=np.complex128)
        n = len(arr)
        while n > 0 and arr[n - 1] == 0:
            n -= 1
        self.coeffs = arr[:n].copy()

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


def _initial_circle(coeffs) -> list:
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / lead if n > 0 else 1.0
    # deterministic angular perturbation breaks the symmetry of z^n + c
    return [
        radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4 + 0.01 * k))
        for k in range(n)
    ]


def _aberth_iterate(coeffs, dcoeffs, max_iter):
    xs = _initial_circle(coeffs)
    n = len(xs)

    def pval(x):
        out = 0j
        for c in reversed(coeffs):
            out = out * x + c
        return out

    def dval(x):
        out = 0j
        for c in reversed(dcoeffs):
            out = out * x + c
        return out

    for _ in range(max_iter):
        max_step = 0.0
        for i in range(n):
            xi = xs[i]
            pv = pval(xi)
            if pv == 0:
                continue
            dv = dval(xi)
            if dv == 0:
                xs[i] = xi * (1.0 + 1e-8) + 1e-8
                max_step = math.inf
                continue
            newton = pv / dv
            s = 0j
            for j in range(n):
                if j != i:
                    d = xi - xs[j]
                    if d == 0:
                        d = 1e-300
                    s += 1.0 / d
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            xs[i] = xi - step
            rel = abs(step) / (1.0 + abs(xs[i]))
            if rel > max_step:
                max_step = rel
        if max_step <= 1e-14:
            return xs
    # multiple roots plateau at the attainable cloud radius; the cluster
    # analysis and the final residual gate decide what to make of that
    return xs


def _weierstrass_radii(coeffs, xs):
    """Inclusion-disc radii n |p(x_i) / (lead prod (x_i - x_j))|.

    The residual is floored at the double-precision evaluation noise so that
    points where p underflows to exactly zero (common inside a multiple-root
    cloud) still carry the radius their uncertainty implies.
    """
    n = len(xs)
    lead = coeffs[-1]
    radii = []
    for i in range(n):
        pv = 0j
        scale = 0.0
        ax = abs(xs[i])
        for c in reversed(coeffs):
            pv = pv * xs[i] + c
            scale = scale * ax + abs(c)
        noise = 2.0**-52 * scale
        prod = lead
        for j in range(n):
            if j != i:
                prod *= xs[i] - xs[j]
        if prod == 0:
            radii.append(math.inf)
        else:
            radii.append(n * max(abs(pv), noise) / abs(prod))
    return radii


def _polish(coeffs, dcoeffs, center, mult):
    """Multiplicity-aware Newton refinement of a cluster center."""
    x = center
    best = x
    best_res = math.inf
    for _ in range(60):
        pv = 0j
        for c in reversed(coeffs):
            pv = pv * x + c
        res = abs(pv)
        if res < best_res:
            best, best_res = x, res
        if pv == 0:
            return x
        dv = 0j
        for c in reversed(dcoeffs):
            dv = dv * x + c
        if dv == 0:
            break
        step = mult * pv / dv
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            pv = 0j
            for c in reversed(coeffs):
                pv = pv * x + c
            return x if abs(pv) <= best_res else best
    return best


def roots(p: Poly, tol: float = DEFAULT_ROOT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """All roots of p with multiplicities, as [(root, multiplicity)].

    Multiplicities sum to the degree.  Each returned root r satisfies
    |p(r)| <= tol * (magnitude of p near r); otherwise NonConvergence is
    raised.
    """
    coeffs = list(p.coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    if n == 1:
        return [(-coeffs[0] / coeffs[1], 1)]
    dcoeffs = [coeffs[k] * k for k in range(1, len(coeffs))]
    if n == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4.0 * c2 * c0
        s = cmath.sqrt(disc)
        if (c1.conjugate() * s).real < 0.0:
            s = -s
        q = -0.5 * (c1 + s)
        if q != 0:
            approx = [q / c2, c0 / q]
        else:
            approx = [-c1 / (2.0 * c2)] * 2
    else:
        approx = _aberth_iterate(coeffs, dcoeffs, max_iter)

    radii = _weierstrass_radii(coeffs, approx)

    # union-find over overlapping inclusion discs (plus the caller tolerance)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(approx[i] - approx[j])
            thresh = max(
                tol * max(1.0, abs(approx[i]), abs(approx[j])),
                radii[i] + radii[j],
            )
            if gap <= thresh:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    clusters: dict = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(approx[i])

    out = []
    for members in clusters.values():
        m = len(members)
        center = sum(members) / m
        refined = _polish(coeffs, dcoeffs, center, m)
        out.append((refined, m))

    for r, _m in out:
        scale = p.eval_scale(r)
        if abs(p(r)) > tol * max(scale, 1e-300):
            raise NonConvergence(
                f"root residual {abs(p(r)):.3e} exceeds {tol:.1e} * scale "
                f"{scale:.3e}; input is ill-conditioned"
            )
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
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
