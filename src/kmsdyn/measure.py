"""Atomic measures, test-function libraries, and the transfer operators.

Every measure handled here is a finite weighted sum of Dirac atoms, either on
the Riemann sphere or on the plane/line.  Diffuse limits (invariant measures
of maximal entropy, self-similar measures) exist only as sequences of atomic
approximants compared in a finite test-function library, which acts as a
fixed proxy for the weak-* topology.

One FibreTable holds the fibres of a whole measure: the distinct preimages
under R, or the distinct images under an IFS, each with its owner atom and
local degree.  fibre_table builds it on the sphere in one batch solve,
RationalMap.fibres, and keeps it on the measure as arrays; the scalar
RationalMap.preimages stays the one-point API and the oracle.  ifs.py
writes it into preallocated arrays from one distinct_images call per atom,
each call one block of the stacked affine kernel.  The bench trace
self-check counts exactly one such call per atom, so a table stacked over
all atoms at once waits until that count is re-pinned as work units.  Its
readers are pullback_F, pullback_G, kms.check_K1, kms.check_K2,
ifs.apply_F_beta_ifs and ifs.check_K1_ifs.  The three checks share one
trace-condition kernel: quintic_cutoff near the branch set, and
trace_conditions, which reduces the library to the (K1) residuals and the
(K2) shifted-library sweep.

The operators:
    pullback_F   F(delta_y) = sum over distinct preimages x of delta_x
    pullback_G   adds the branch index: atoms (x, e(x) w); mass scales by N
    apply_F_beta e^{-beta} F
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import AtomBudgetExceeded, NotSubinvariant
from .projective import (
    DEFAULT_CLUSTER_TOL,
    CellIndex,
    SpherePoint,
    embedding_array,
    first_within,
    homogeneous,
    merge_weighted,
)
from .polyroots import BLOCK_ROWS
from .ratmap import DEFAULT_ATOM_BUDGET, RationalMap

PLANAR_MERGE_TOL = 1e-9
DEFAULT_CUTOFF_RADIUS = 1e-3

SPHERE = "sphere"
PLANE = "plane"


# ---------------------------------------------------------------------------
# planar merging


def merge_planar(coords, weights, tol: float = PLANAR_MERGE_TOL):
    """Merge planar atoms closer than tol; weights add, centroids average.

    The rule is the sphere's, CellIndex.founders: atoms are put in
    lexicographic order of their cells round(x / tol), and each joins the
    first earlier founder within tol (Euclidean), otherwise it founds a
    cluster.  A cluster is thus at most 2 tol wide.  Clusters come out as
    the weighted centroids of their atoms, in lexicographic cell order of
    their founders.  Coordinates must be finite with |x| < 2^62 tol.

    Only atoms next to a sorted neighbour whose first key is within 1 of
    theirs enter the cell index; the others found their own clusters.  That
    is exact: two atoms in the same or adjacent cells have first keys at
    most 1 apart, and so have the atoms sorted between them, so both are
    marked.  The marked atoms keep their order, so the founders do not
    change.  Keys lie inside +-(2^62 - 512), so no diff wraps; an extra
    marked atom would only be an extra candidate, which CellIndex.pairs drops.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if coords.shape[0] == 0:
        return coords, weights
    if not np.all(np.abs(coords) < 2.0**62 * tol):  # false for nan too
        raise ValueError(f"planar coordinates must be finite and below {2.0**62 * tol:.6g} in modulus")
    cells = np.round(coords / tol).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    x, w, cells = coords[order], weights[order], cells[order]
    gap = np.diff(cells[:, 0]) <= 1
    at = np.flatnonzero(np.r_[False, gap] | np.r_[gap, False])  # both ends of each gap
    sub = CellIndex(cells[at]).founders(lambda i, j: np.linalg.norm(x[at[i]] - x[at[j]], axis=1) <= tol)
    label = np.arange(len(x))
    label[at] = at[sub]
    root = label == np.arange(len(label))
    group = (np.cumsum(root) - 1)[label]
    wsum = np.bincount(group, weights=w)
    out = np.empty((len(wsum), x.shape[1]))
    for d in range(x.shape[1]):
        out[:, d] = np.bincount(group, weights=w * x[:, d]) / wsum
    return out, wsum


# ---------------------------------------------------------------------------
# atomic measures


class AtomicMeasure:
    """A finite positive weighted sum of Dirac atoms.

    tol is the length atoms count as one point at, the default of
    point_mass and measure_sum: DEFAULT_CLUSTER_TOL on the sphere, and on
    the plane the tolerance the atoms were merged with (PLANAR_MERGE_TOL
    if none is given), so planar answers scale with the system.
    """

    def __init__(self, space, points=None, coords=None, weights=None, info=None, tol=None):
        self.space = space
        self.info = info
        self.tol = tol if tol is not None else (PLANAR_MERGE_TOL if space == PLANE else DEFAULT_CLUSTER_TOL)
        if space == SPHERE:
            self.points = list(points or [])
            self.coords = None
            self.weights = np.array(
                weights if weights is not None else [], dtype=np.float64
            )
            if len(self.points) != len(self.weights):
                raise ValueError("points and weights length mismatch")
        elif space == PLANE:
            arr = np.atleast_2d(np.asarray(coords if coords is not None else np.zeros((0, 1))))
            self.points = None
            self.coords = arr.astype(np.float64, copy=True)
            self.weights = np.array(
                weights if weights is not None else [], dtype=np.float64
            )
            if self.coords.shape[0] != len(self.weights):
                raise ValueError("coords and weights length mismatch")
        else:
            raise ValueError(f"unknown space {space!r}")
        if np.any(self.weights <= 0):
            raise ValueError("atom weights must be positive")
        self._embedding = None
        self._fibres = None  # (R, tol, FibreTable) of the last fibre_table call

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_sphere_atoms(pairs, tol: float = DEFAULT_CLUSTER_TOL, info=None):
        pairs = merge_weighted(pairs, tol)
        pts = [p for p, _w in pairs]
        ws = [w for _p, w in pairs]
        return AtomicMeasure(SPHERE, points=pts, weights=ws, info=info)

    @staticmethod
    def delta(point: SpherePoint) -> "AtomicMeasure":
        return AtomicMeasure(SPHERE, points=[point], weights=[1.0])

    @staticmethod
    def from_planar_atoms(coords, weights, tol: float = PLANAR_MERGE_TOL, info=None):
        coords, weights = merge_planar(coords, weights, tol)
        return AtomicMeasure(PLANE, coords=coords, weights=weights, info=info, tol=tol)

    @staticmethod
    def delta_plane(coord) -> "AtomicMeasure":
        arr = np.atleast_1d(np.asarray(coord, dtype=np.float64))
        return AtomicMeasure(PLANE, coords=arr[None, :], weights=[1.0])

    # -- basics -------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def total_mass(self) -> float:
        return float(self.weights.sum()) if len(self.weights) else 0.0

    def iter_atoms(self):
        if self.space == SPHERE:
            yield from zip(self.points, self.weights)
        else:
            yield from zip(self.coords, self.weights)

    def scaled(self, c: float) -> "AtomicMeasure":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        if self.space == SPHERE:
            return AtomicMeasure(SPHERE, points=self.points, weights=self.weights * c)
        return AtomicMeasure(PLANE, coords=self.coords, weights=self.weights * c, tol=self.tol)

    def normalized(self) -> "AtomicMeasure":
        return self.scaled(1.0 / self.total_mass())

    def embedding(self):
        """Coordinate matrix: sphere embedding (n, 3) or plane coords (n, d)."""
        if self.space == PLANE:
            return self.coords
        if self._embedding is None:
            self._embedding = sphere_embedding(self.points)
        return self._embedding

    def point_mass(self, point, tol=None) -> float:
        """Total weight within tol (default self.tol) of the given point."""
        tol = self.tol if tol is None else tol
        if self.space == SPHERE:
            point = point.embedding()
        d = nearest_distance(self.embedding(), [np.atleast_1d(np.asarray(point, dtype=np.float64))])
        return float(self.weights[d <= tol].sum())

    def to_jsonable(self):
        if self.space == SPHERE:
            atoms = [
                {"point": p.to_jsonable(), "weight": float(w)}
                for p, w in zip(self.points, self.weights)
            ]
        else:
            atoms = [
                {"point": [float(v) for v in c], "weight": float(w)}
                for c, w in zip(self.coords, self.weights)
            ]
        return {"atoms": atoms, "total_mass": self.total_mass()}

    def __repr__(self):
        return f"AtomicMeasure({self.space}, {self.n_atoms} atoms, mass={self.total_mass():.6g})"


def sphere_embedding(points):
    """Unit-sphere embeddings of SpherePoints, one row each."""
    return embedding_array(*homogeneous(points))


def measure_sum(measures, tol=None) -> AtomicMeasure:
    """Sum of measures on a common space, atoms merged at tol (default the largest of their tols)."""
    measures = [m for m in measures if m.n_atoms > 0]
    if not measures:
        raise ValueError("empty sum; build an explicit empty measure instead")
    space = measures[0].space
    if any(m.space != space for m in measures):
        raise ValueError("cannot sum measures on different spaces")
    tol = tol or max(m.tol for m in measures)
    if space == SPHERE:
        pairs = [(p, w) for m in measures for p, w in m.iter_atoms()]
        return AtomicMeasure.from_sphere_atoms(pairs, tol)
    coords = np.concatenate([m.coords for m in measures])
    weights = np.concatenate([m.weights for m in measures])
    return AtomicMeasure.from_planar_atoms(coords, weights, tol)


def empty_measure(space: str, dim: int = 1) -> AtomicMeasure:
    if space == SPHERE:
        return AtomicMeasure(SPHERE, points=[], weights=[])
    return AtomicMeasure(PLANE, coords=np.zeros((0, dim)), weights=[])


# ---------------------------------------------------------------------------
# test-function library


@dataclass(frozen=True)
class TestFunction:
    """A monomial in the embedding coordinates with its recorded sup norm."""

    exponents: tuple
    sup_norm: float

    def evaluate_matrix(self, X):
        out = np.ones(X.shape[0])
        for d, e in enumerate(self.exponents):
            if e:
                out = out * X[:, d] ** e
        return out

    def __call__(self, point):
        if isinstance(point, SpherePoint):
            x = np.array(point.embedding())
        else:
            x = np.atleast_1d(np.asarray(point, dtype=np.float64))
        out = 1.0
        for d, e in enumerate(self.exponents):
            if e:
                out *= x[d] ** e
        return out


class TestFunctionLibrary:
    """Monomials of total degree <= d separating the measures at desk scale.

    On the sphere the variables are the three unit-sphere embedding
    coordinates; on the plane they are the raw coordinates, with sup norms
    taken over a stated bounding box.
    """

    __test__ = False  # not a pytest class despite the name

    def __init__(self, space, functions, degree, box=None):
        self.space = space
        self.functions = functions
        self.degree = degree
        self.box = box
        # each monomial as an earlier one times one axis: (parent index, axis),
        # or None for the constant and for a monomial with no earlier parent
        index = {}
        self._steps = []
        for k, f in enumerate(functions):
            axis = next((d for d, e in enumerate(f.exponents) if e), None)
            parent = None
            if axis is not None:
                e = f.exponents
                parent = index.get(e[:axis] + (e[axis] - 1,) + e[axis + 1 :])
            self._steps.append(None if parent is None else (parent, axis))
            index.setdefault(f.exponents, k)

    @staticmethod
    def sphere(degree: int = 4) -> "TestFunctionLibrary":
        funcs = []
        for total in range(degree + 1):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b
                    funcs.append(TestFunction((a, b, c), _sphere_monomial_sup(a, b, c)))
        return TestFunctionLibrary(SPHERE, funcs, degree)

    @staticmethod
    def plane(degree: int = 4, box=((0.0, 1.0), (0.0, 1.0))) -> "TestFunctionLibrary":
        box = tuple(tuple(map(float, b)) for b in box)
        dim = len(box)
        funcs = []
        for total in range(degree + 1):
            for combo in combinations_with_replacement(range(dim), total):
                exps = [0] * dim
                for d in combo:
                    exps[d] += 1
                sup = 1.0
                for d, e in enumerate(exps):
                    sup *= max(abs(box[d][0]), abs(box[d][1])) ** e
                funcs.append(TestFunction(tuple(exps), sup))
        return TestFunctionLibrary(PLANE, funcs, degree, box=box)

    def __len__(self):
        return len(self.functions)

    def values_matrix(self, X):
        """(n_funcs, n_points) matrix of function values at rows of X.

        One pass: each monomial's row is its parent monomial's row times one
        coordinate, written in place.
        """
        cols = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        out = np.empty((len(self.functions), cols.shape[1]))
        for k, (f, step) in enumerate(zip(self.functions, self._steps)):
            if step is None:
                out[k] = f.evaluate_matrix(X)
            else:
                np.multiply(out[step[0]], cols[step[1]], out=out[k])
        return out

    def sums(self, X, V):
        """values_matrix(X) @ V, a block of rows of X at a time.

        The whole (n_funcs, n_points) matrix never exists, which keeps the
        peak memory of the trace checks down.
        """
        out = np.zeros((len(self.functions), V.shape[1]))
        for i in range(0, len(X), BLOCK_ROWS):
            out += self.values_matrix(X[i : i + BLOCK_ROWS]) @ V[i : i + BLOCK_ROWS]
        return out

    def integrate_all(self, mu: AtomicMeasure):
        """int f dmu for every function, summed a block of atoms at a time."""
        return self.sums(mu.embedding(), mu.weights[:, None])[:, 0]


def _sphere_monomial_sup(a, b, c):
    """max of |x^a y^b z^c| on the unit sphere (AM-GM optimum)."""
    s = a + b + c
    if s == 0:
        return 1.0
    val = 1.0
    for e in (a, b, c):
        if e:
            val *= (e / s) ** e
    return math.sqrt(val)


# ---------------------------------------------------------------------------
# integration


def _as_callable(f):
    if isinstance(f, TestFunction):
        return f
    if callable(f):
        return f
    const = float(f)
    return lambda _p: const


def integrate(mu: AtomicMeasure, f) -> float:
    """sum w_i f(x_i)."""
    if mu.n_atoms == 0:
        return 0.0
    if isinstance(f, TestFunction):
        return float(f.evaluate_matrix(mu.embedding()) @ mu.weights)
    g = _as_callable(f)
    return float(sum(w * g(p) for p, w in mu.iter_atoms()))


def tilde(R: RationalMap, f, y: SpherePoint, tol: float = DEFAULT_CLUSTER_TOL) -> float:
    """Set-sum of f over the distinct preimages of y (no index weights).

    This is the generally discontinuous integrand dual to pullback_F.
    """
    g = _as_callable(f)
    return float(sum(g(x) for x, _e in R.preimages(y, tol)))


# ---------------------------------------------------------------------------
# fibre tables and the trace-condition kernel


@dataclass(frozen=True)
class FibreTable:
    """The fibres of every atom of a measure, flattened.

    Fibre k lies over atom owner[k] with local degree degree[k]; coords[k]
    is its row in the library's coordinates (the R^3 embedding on the
    sphere, the point itself on the plane).  On the sphere, z and w hold
    the fibres' normalized homogeneous pairs.
    """

    owner: np.ndarray
    degree: np.ndarray
    coords: np.ndarray
    z: np.ndarray | None = None
    w: np.ndarray | None = None

    def sphere_points(self):
        """The fibres as SpherePoints, for the merge boundary."""
        return [SpherePoint(a, b) for a, b in zip(self.z.tolist(), self.w.tolist())]


def fibre_table(R: RationalMap, mu: AtomicMeasure, tol: float = DEFAULT_CLUSTER_TOL) -> FibreTable:
    """Distinct preimages of every atom of a sphere measure, with local degrees.

    One batch solve, RationalMap.fibres, over all the atoms.  Kept on mu for
    the last (R, tol) asked for, R compared by identity, so the checks and
    pullbacks that follow one another solve each atom once.
    """
    _require_sphere(mu)
    memo = mu._fibres
    if memo is not None and memo[0] is R and memo[1] == tol:
        return memo[2]
    xz, xw, owner, degree = R.fibres(*homogeneous(mu.points), tol)
    table = FibreTable(owner, degree, embedding_array(xz, xw), xz, xw)
    mu._fibres = (R, tol, table)
    return table


def nearest_distance(X, centers):
    """Euclidean distance from each row of X to the nearest center (inf if none).

    Sphere callers pass unit-sphere embeddings, whose Euclidean distance is
    the chordal metric.
    """
    d = np.full(X.shape[0], np.inf)
    for c in centers:
        d = np.minimum(d, np.linalg.norm(X - c, axis=1))
    return d


def quintic_cutoff(X, centers, rho: float):
    """Smooth factor per row of X: 0 within rho of the nearest center, 1 beyond 2 rho."""
    t = np.clip((nearest_distance(X, centers) - rho) / rho, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def trace_conditions(lib: TestFunctionLibrary, mu: AtomicMeasure, fibres: FibreTable, beta: float,
                     branch=(), rho: float = DEFAULT_CUTOFF_RADIUS):
    """Both trace conditions of mu, read through its fibre table.

    Returns (k1, k2, masked).  With c the quintic_cutoff at radius rho around
    the branch points (library coordinates; c = 1 without them), k1[j] is
    |e^{-beta} int (c f_j)~ dmu - int c f_j dmu| for each library function
    f_j, and masked is the weight of the atoms where c < 1.  k2 is the worst
    e^{-beta} int a~ dmu - int a dmu over the shifted library
    a = sup|f| +/- f >= 0, floored at 0.
    """
    ebeta = math.exp(-beta)
    w = mu.weights
    w_pre = w[fibres.owner]
    cut = quintic_cutoff(mu.embedding(), branch, rho)
    cut_pre = quintic_cutoff(fibres.coords, branch, rho)
    on_atoms = lib.sums(mu.embedding(), np.stack([cut * w, w], axis=1))
    on_fibres = lib.sums(fibres.coords, np.stack([cut_pre * w_pre, w_pre], axis=1))
    k1 = np.abs(ebeta * on_fibres[:, 0] - on_atoms[:, 0])
    T = on_fibres[:, 1]  # int f~ dmu per function
    I = on_atoms[:, 1]  # int f dmu per function
    sups = np.array([f.sup_norm for f in lib.functions])
    C = float(w_pre.sum())  # int 1~ dmu
    M = mu.total_mass()
    viol = np.maximum(ebeta * (sups * C + T) - (sups * M + I), ebeta * (sups * C - T) - (sups * M - I))
    return k1, float(viol.max(initial=0.0)), float(w[cut < 1.0].sum())


# ---------------------------------------------------------------------------
# transfer operators


def pullback_F(
    R: RationalMap,
    mu: AtomicMeasure,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """Transfer-operator pullback: each atom spreads over its distinct preimages."""
    fib = _pullback_fibres(R, mu, tol, atom_budget)
    return AtomicMeasure.from_sphere_atoms(zip(fib.sphere_points(), mu.weights[fib.owner]), tol)


def pullback_G(
    R: RationalMap,
    mu: AtomicMeasure,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """Index-weighted pullback; total mass multiplies by exactly N."""
    fib = _pullback_fibres(R, mu, tol, atom_budget)
    return AtomicMeasure.from_sphere_atoms(zip(fib.sphere_points(), mu.weights[fib.owner] * fib.degree), tol)


def _pullback_fibres(R, mu, tol, atom_budget):
    _require_sphere(mu)
    if mu.n_atoms * R.n > atom_budget:
        raise AtomBudgetExceeded(
            f"pullback would create up to {mu.n_atoms * R.n} atoms (budget {atom_budget})"
        )
    return fibre_table(R, mu, tol)


def apply_F_beta(
    R: RationalMap,
    mu: AtomicMeasure,
    beta: float,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """F_beta = e^{-beta} F."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return pullback_F(R, mu, tol, atom_budget).scaled(math.exp(-beta))


def weak_star_distance(mu: AtomicMeasure, nu: AtomicMeasure, lib: TestFunctionLibrary) -> float:
    """max over the library of |int f dmu - int f dnu| / sup-norm(f)."""
    if mu.space != nu.space:
        raise ValueError("measures live on different spaces")
    gaps = np.abs(lib.integrate_all(mu) - lib.integrate_all(nu))
    sups = np.array([f.sup_norm for f in lib.functions])
    return float(np.max(gaps / sups)) if len(gaps) else 0.0


# ---------------------------------------------------------------------------
# finite/infinite decomposition


@dataclass
class TraceDecomposition:
    finite_part: AtomicMeasure
    infinite_part: AtomicMeasure
    residual: float
    clipped_mass: float


def decompose_trace(
    R: RationalMap,
    mu: AtomicMeasure,
    beta: float,
    n_max: int,
    lib: TestFunctionLibrary | None = None,
    tol: float = DEFAULT_CLUSTER_TOL,
    neg_tol: float = 1e-6,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> TraceDecomposition:
    """Split a (K2-subinvariant) measure into finite and infinite parts.

    mu0 = mu - F_beta(mu) must be nonnegative up to tolerance; the finite
    part is the partial geometric series over mu0 and the infinite part is
    F_beta^{n_max}(mu).  The reported residual is the library distance
    between mu and finite + infinite, which vanishes as n_max grows for
    genuine trace-condition measures.
    """
    _require_sphere(mu)
    fmu = apply_F_beta(R, mu, beta, tol, atom_budget)

    # signed subtraction mu - fmu, clipping small negative atoms
    hits = first_within(*homogeneous(mu.points), *homogeneous(fmu.points), tol)
    miss = hits < 0
    deficit = np.flatnonzero(miss & (fmu.weights > neg_tol))
    if len(deficit):
        i = deficit[0]
        raise NotSubinvariant(
            f"mu - F_beta(mu) has an atom of weight {-fmu.weights[i]:.3e} at {fmu.points[i]}"
        )
    clipped = sum(fmu.weights[miss], 0.0)
    wts = mu.weights.copy()
    np.subtract.at(wts, hits[~miss], fmu.weights[~miss])
    mu0_pairs = []
    for p, w in zip(mu.points, wts):
        if w < -neg_tol:
            raise NotSubinvariant(f"mu - F_beta(mu) has an atom of weight {w:.3e} at {p}")
        if w <= 0.0:
            clipped += -w if w < 0 else 0.0
            continue
        mu0_pairs.append((p, w))

    if mu0_pairs:
        mu0 = AtomicMeasure.from_sphere_atoms(mu0_pairs, tol)
        terms = [mu0]
        current = mu0
        for _ in range(n_max):
            current = apply_F_beta(R, current, beta, tol, atom_budget)
            terms.append(current)
        finite = measure_sum(terms, tol)
    else:
        finite = empty_measure(SPHERE)

    infinite = mu
    for _ in range(n_max):
        infinite = apply_F_beta(R, infinite, beta, tol, atom_budget)

    lib = lib or TestFunctionLibrary.sphere()
    if finite.n_atoms or infinite.n_atoms:
        recon = measure_sum([m for m in (finite, infinite) if m.n_atoms], tol)
        residual = weak_star_distance(mu, recon, lib)
    else:
        residual = weak_star_distance(mu, empty_measure(SPHERE), lib)
    return TraceDecomposition(finite, infinite, residual, clipped_mass=clipped)


def _require_sphere(mu: AtomicMeasure):
    if mu.space != SPHERE:
        raise ValueError("operation requires a sphere measure")
