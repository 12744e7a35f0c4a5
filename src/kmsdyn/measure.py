"""Atomic measures, test-function libraries, and the transfer operators.

Every measure handled here is a finite weighted sum of Dirac atoms, either on
the Riemann sphere or on the plane/line, kept as arrays: a weight and a row
of coords per atom, the homogeneous pair [z, w] on the sphere and the
coordinates on the plane.  Both engines merge atoms with one kernel and one
sum, projective.merge_atoms and cluster_sums: sphere rows through
projective.merge_sphere, planar ones through merge_planar, which forms the
moments w x on gathered rows only.  planar_clusters is the same partition
of planar rows scanned in index order, without the sums, and unseen keeps
the rows that found clusters past an already deduplicated set: the IFS
branch values, inverse closure and forward orbits.  SpherePoints exist only
at the boundary (AtomicMeasure.points: JSON, CSV, the CLI and the one-point
APIs).  Both finite-type KMS builders sum the levels of states.level_series.
Diffuse limits (invariant measures of maximal entropy, self-similar
measures) exist only as sequences of atomic approximants compared in a
finite test-function library, which acts as a fixed proxy for the weak-*
topology.

One FibreTable holds the fibres of a whole measure: the distinct preimages
under R, or the distinct images under an IFS, each with its owner atom and
local degree.  fibre_table builds it on the sphere in one batch solve,
RationalMap.fibres (the scalar preimages is the one-point API and oracle);
ifs.py from one distinct_images call per atom, the count the bench trace
self-check pins.  Its readers are the pullbacks, kms.check_K1, kms.check_K2,
ifs.apply_F_beta_ifs and ifs.check_K1_ifs.  The three checks share one
trace-condition kernel: quintic_cutoff near the branch set, and
trace_conditions, which reduces the library to the (K1) residuals and the
(K2) shifted-library sweep, a block of atoms or fibres at a time.

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

from .projective import (
    DEFAULT_CLUSTER_TOL,
    SpherePoint,
    cluster_sums,
    embedding_array,
    homogeneous,
    merge_atoms,
    merge_sphere,
    merge_weighted,
    normalize_rows,
)
from .polyroots import BLOCK_ROWS
from .ratmap import RationalMap
from .states import DEFAULT_ATOM_BUDGET, phase, require_budget

PLANAR_MERGE_TOL = 1e-9
DEFAULT_CUTOFF_RADIUS = 1e-3

SPHERE = "sphere"
PLANE = "plane"


# ---------------------------------------------------------------------------
# planar merging


def _lexicographic_order(cells):
    """np.lexsort(cells.T[::-1]) and the sorted first keys, from one sort of the first key.

    The first key is argsorted alone, which places every atom whose first
    key is unique where the full lexicographic order puts it.  Only the
    order within a run of tied first keys is left open; those atoms, taken
    in index order, are lexsorted on their whole cells and written back
    over the run positions, which they fill exactly, since the runs are
    sorted by the same first key.  Index order breaks full-cell ties, as
    the stable lexsort does.
    """
    order = np.argsort(cells[:, 0])
    first = cells[order, 0]
    tie = first[1:] == first[:-1]
    if tie.any():
        pos = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])  # every atom of a tied run
        tied = np.sort(order[pos])
        order[pos] = tied[np.lexsort(cells[tied].T[::-1])]
    return order, first


def _planar_cells(coords, tol):
    """The cells round(x / tol) of finite rows with |x| < 2^62 tol, refused otherwise."""
    if not (-2.0**62 * tol < coords.min() and coords.max() < 2.0**62 * tol):  # false for nan too
        raise ValueError(f"planar coordinates must be finite and below {2.0**62 * tol:.6g} in modulus")
    cells = coords / tol
    return np.round(cells, out=cells).astype(np.int64)


def _euclidean(coords, tol):
    return lambda i, j: np.linalg.norm(coords[i] - coords[j], axis=1) <= tol


def merge_planar(coords, weights, tol: float = PLANAR_MERGE_TOL):
    """Merge planar atoms closer than tol; weights add, centroids average.

    The rule is the sphere's, projective.merge_atoms, on the cells
    round(x / tol) in lexicographic order (_lexicographic_order, whose
    sorted first keys feed the first-key filter) with the Euclidean metric;
    a cluster is thus at most 2 tol wide.  Clusters come out as the
    weighted centroids of their atoms, (w x) / w for an atom alone, in
    lexicographic cell order of their founders, summed once the cells and
    the sort are freed.  Coordinates must be finite with |x| < 2^62 tol,
    and weights one number per coordinate row.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != coords.shape[:1]:
        raise ValueError("coords and weights length mismatch")
    if coords.shape[0] == 0:
        return coords, weights
    cells = _planar_cells(coords, tol)
    keep, member, to = merge_atoms(cells, *_lexicographic_order(cells), _euclidean(coords, tol))
    del cells  # the order and first keys went with merge_atoms' frame
    wsum = cluster_sums(keep, member, to, weights)
    moment = cluster_sums(keep, member, to, coords, weights)  # w x, formed on the gathered rows
    return np.divide(moment, wsum[:, None], out=moment), wsum


def planar_clusters(coords, tol: float = PLANAR_MERGE_TOL):
    """merge_atoms' partition of planar rows (n, d) scanned in index order.

    merge_planar's cells and Euclidean metric: each row joins a founder
    before it within tol, or founds a cluster.  Returns merge_atoms' keep,
    member and to.
    """
    cells = _planar_cells(coords, tol)
    return merge_atoms(cells, np.arange(len(coords)), None, _euclidean(coords, tol))


def unseen(seen, coords, tol: float = PLANAR_MERGE_TOL):
    """Indices of the rows of coords farther than tol from every row of seen and every earlier kept row.

    The founders among coords of planar_clusters on seen stacked over
    coords.  The rows of seen must lie pairwise farther than tol apart, so
    that each founds its own cluster; this is then the sequential rule.
    """
    if not len(coords):
        return np.empty(0, dtype=np.intp)
    keep, _member, _to = planar_clusters(np.concatenate([seen, coords]), tol)
    return keep[keep >= len(seen)] - len(seen)


# ---------------------------------------------------------------------------
# atomic measures


class AtomicMeasure:
    """A finite positive weighted sum of Dirac atoms, one row of coords per atom.

    A sphere row is the complex pair [z, w] as SpherePoint stores it, a
    planar row the point's float coordinates.  tol is the length atoms
    count as one point at, the default of point_mass and measure_sum:
    DEFAULT_CLUSTER_TOL on the sphere, and on the plane the tolerance the
    atoms were merged with (PLANAR_MERGE_TOL if none is given), so planar
    answers scale with the system.
    """

    def __init__(self, space, coords, weights, info=None, tol=None):
        if space not in (SPHERE, PLANE):
            raise ValueError(f"unknown space {space!r}")
        self.space = space
        self.info = info
        self.tol = tol if tol is not None else (PLANAR_MERGE_TOL if space == PLANE else DEFAULT_CLUSTER_TOL)
        self.coords = np.array(coords, dtype=np.complex128 if space == SPHERE else np.float64, ndmin=2)
        self.weights = np.array(weights, dtype=np.float64)
        if self.coords.shape[0] != len(self.weights):
            raise ValueError("coords and weights length mismatch")
        if not np.all(self.weights > 0):
            raise ValueError("atom weights must be positive")
        self._embedding = None
        self._fibres = None  # (R, tol, FibreTable) of the last fibre_table call

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_sphere_atoms(pairs, tol: float = DEFAULT_CLUSTER_TOL):
        pairs = merge_weighted(pairs, tol)
        rows = np.stack(homogeneous([p for p, _w in pairs]), axis=1)
        return AtomicMeasure(SPHERE, rows, [w for _p, w in pairs])

    @staticmethod
    def from_sphere_rows(coords, weights, tol: float = DEFAULT_CLUSTER_TOL):
        """Merge homogeneous rows [z, w] with merge_sphere."""
        coords, weights, _src = merge_sphere(coords, weights, tol)
        return AtomicMeasure(SPHERE, coords, weights)

    @staticmethod
    def delta(point: SpherePoint) -> "AtomicMeasure":
        return AtomicMeasure(SPHERE, [(point.z, point.w)], [1.0])

    @staticmethod
    def from_planar_atoms(coords, weights, tol: float = PLANAR_MERGE_TOL, info=None):
        coords, weights = merge_planar(coords, weights, tol)
        return AtomicMeasure(PLANE, coords, weights, info=info, tol=tol)

    # -- basics -------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def total_mass(self) -> float:
        return float(self.weights.sum()) if len(self.weights) else 0.0

    @property
    def points(self):
        """The sphere atoms as SpherePoints, built on each call."""
        _require_sphere(self)
        return [SpherePoint.from_row(z, w) for z, w in self.coords.tolist()]

    def iter_atoms(self):
        yield from zip(self.points if self.space == SPHERE else self.coords, self.weights)

    def scaled(self, c: float) -> "AtomicMeasure":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure(self.space, self.coords, self.weights * c, tol=self.tol)

    def embedding(self):
        """Coordinate matrix: sphere embedding (n, 3) or plane coords (n, d)."""
        if self.space == PLANE:
            return self.coords
        if self._embedding is None:
            self._embedding = embedding_array(*self.coords.T)
        return self._embedding

    def point_mass(self, point, tol=None) -> float:
        """Total weight within tol (default self.tol) of the given point."""
        tol = self.tol if tol is None else tol
        if self.space == SPHERE:
            point = point.embedding()
        d = nearest_distance(self.embedding(), [np.atleast_1d(np.asarray(point, dtype=np.float64))])
        return float(self.weights[d <= tol].sum())

    def to_jsonable(self):
        atoms = [
            {"point": p.to_jsonable() if self.space == SPHERE else [float(v) for v in p], "weight": float(w)}
            for p, w in self.iter_atoms()
        ]
        return {"atoms": atoms, "total_mass": self.total_mass()}

    def __repr__(self):
        return f"AtomicMeasure({self.space}, {self.n_atoms} atoms, mass={self.total_mass():.6g})"


def measure_sum(measures, tol=None) -> AtomicMeasure:
    """Sum of measures on a common space, atoms merged at tol (default the largest of their tols)."""
    measures = [m for m in measures if m.n_atoms > 0]
    if not measures:
        raise ValueError("empty sum; build an explicit empty measure instead")
    space = measures[0].space
    if any(m.space != space for m in measures):
        raise ValueError("cannot sum measures on different spaces")
    tol = tol or max(m.tol for m in measures)
    coords = np.concatenate([m.coords for m in measures])
    weights = np.concatenate([m.weights for m in measures])
    if space == SPHERE:
        return AtomicMeasure.from_sphere_rows(coords, weights, tol)
    return AtomicMeasure.from_planar_atoms(coords, weights, tol)


# ---------------------------------------------------------------------------
# test-function library


def _blocks(n: int):
    """The slices of BLOCK_ROWS rows that cover range(n), in order: the blocks of every library sum."""
    return (slice(i, i + BLOCK_ROWS) for i in range(0, n, BLOCK_ROWS))


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
        for rows in _blocks(len(X)):
            out += self.values_matrix(X[rows]) @ V[rows]
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
    the fibres' homogeneous pairs.
    """

    owner: np.ndarray
    degree: np.ndarray
    coords: np.ndarray
    z: np.ndarray | None = None
    w: np.ndarray | None = None


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
    xz, xw, owner, degree = R.fibres(*mu.coords.T, tol)
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


def _cutoff_sums(lib: TestFunctionLibrary, X, w, branch, rho):
    """lib.sums(X, [c w, w]), c the quintic_cutoff of each row, and the indices of the rows where c < 1.

    The cutoff, the weights and the product are formed one block of rows at
    a time, on lib.sums' blocks, so every product and addition happens as
    there and no array as long as X is formed.
    """
    out = np.zeros((len(lib), 2))
    near = [np.empty(0, dtype=np.intp)]
    for rows in _blocks(len(X)):
        cut = quintic_cutoff(X[rows], branch, rho)
        out += lib.values_matrix(X[rows]) @ np.stack([cut * w[rows], w[rows]], axis=1)
        near.append(rows.start + np.flatnonzero(cut < 1.0))
    return out, np.concatenate(near)


def trace_conditions(lib: TestFunctionLibrary, mu: AtomicMeasure, fibres: FibreTable, beta: float,
                     branch=(), rho: float = DEFAULT_CUTOFF_RADIUS):
    """Both trace conditions of mu, read through its fibre table.

    Returns (k1, k2, masked).  With c the quintic_cutoff at radius rho around
    the branch points (library coordinates; c = 1 without them), k1[j] is
    |e^{-beta} int (c f_j)~ dmu - int c f_j dmu| for each library function
    f_j, and masked is the weight of the atoms where c < 1.  k2 is the worst
    e^{-beta} int a~ dmu - int a dmu over the shifted library
    a = sup|f| +/- f >= 0, floored at 0.  Atoms and fibres are read a block
    at a time (_cutoff_sums); the one array as long as the fibre table is
    the owners' weights, whose pairwise sum is int 1~ dmu.
    """
    ebeta = math.exp(-beta)
    w = mu.weights
    w_pre = w[fibres.owner]
    on_atoms, near = _cutoff_sums(lib, mu.embedding(), w, branch, rho)
    on_fibres, _near = _cutoff_sums(lib, fibres.coords, w_pre, branch, rho)
    k1 = np.abs(ebeta * on_fibres[:, 0] - on_atoms[:, 0])
    T = on_fibres[:, 1]  # int f~ dmu per function
    I = on_atoms[:, 1]  # int f dmu per function
    sups = np.array([f.sup_norm for f in lib.functions])
    C = float(w_pre.sum())  # int 1~ dmu
    M = mu.total_mass()
    viol = np.maximum(ebeta * (sups * C + T) - (sups * M + I), ebeta * (sups * C - T) - (sups * M - I))
    return k1, float(viol.max(initial=0.0)), float(w[near].sum())


# ---------------------------------------------------------------------------
# transfer operators


def pullback_F(
    R: RationalMap,
    mu: AtomicMeasure,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """Transfer-operator pullback: each atom spreads over its distinct preimages."""
    return _pullback(R, mu, tol, atom_budget, index_weighted=False)


def pullback_G(
    R: RationalMap,
    mu: AtomicMeasure,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """Index-weighted pullback; total mass multiplies by exactly N."""
    return _pullback(R, mu, tol, atom_budget, index_weighted=True)


def _pullback(R, mu, tol, atom_budget, index_weighted):
    """Merge the fibre table's pairs, normalized as SpherePoint stores them, with their owners' weights."""
    _require_sphere(mu)
    require_budget(mu.n_atoms * R.n, atom_budget, "pullback")
    fib = fibre_table(R, mu, tol)
    weights = mu.weights[fib.owner] * fib.degree if index_weighted else mu.weights[fib.owner]
    return AtomicMeasure.from_sphere_rows(normalize_rows(np.stack([fib.z, fib.w], axis=1)), weights, tol)


def apply_F_beta(
    R: RationalMap,
    mu: AtomicMeasure,
    beta: float,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """F_beta = e^{-beta} F; beta as phase takes it."""
    beta = phase(beta, False, math.log(R.n))[0]
    return pullback_F(R, mu, tol, atom_budget).scaled(math.exp(-beta))


def weak_star_distance(mu: AtomicMeasure, nu: AtomicMeasure, lib: TestFunctionLibrary) -> float:
    """max over the library of |int f dmu - int f dnu| / sup-norm(f)."""
    if mu.space != nu.space:
        raise ValueError("measures live on different spaces")
    gaps = np.abs(lib.integrate_all(mu) - lib.integrate_all(nu))
    sups = np.array([f.sup_norm for f in lib.functions])
    return float(np.max(gaps / sups)) if len(gaps) else 0.0


def _require_sphere(mu: AtomicMeasure):
    if mu.space != SPHERE:
        raise ValueError("operation requires a sphere measure")
