"""Self-similar iterated function systems of affine proper contractions.

Covers the measure-level KMS analysis for the algebra attached to a system
gamma = (gamma_1, ..., gamma_N) on its attractor K: branch structure (points
where two branches collide), the transfer operator F_beta(delta_y) =
e^{-beta} sum over the distinct images, Hutchinson-measure approximants, the
word-sum KMS measures above log N, and the orbit condition that the
classification theorem assumes.

Only affine maps are supported: branch values solve the linear systems
gamma_j(y) = gamma_j'(y), which is what makes the analysis finite.
Every length threshold is relative to IFSSystem.radius, the radius of the
invariant ball, so a rescaled system gives rescaled answers.  The word sum
runs on states.level_series, the loop of the rational backward orbit too.

Every dedup of points is projective.merge_atoms' greedy founder rule at
IFSSystem.tol (merge_planar, measure.planar_clusters, measure.unseen), on
whole levels stepped at once by IFSSystem.images and inverse_images.  The
exception is distinct_images, a loop over one atom's M images: the bench
trace self-check counts one call per atom of the image tables, so it stays
a one-point call until that count is re-pinned as work units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisUncertified, NotABranchPoint, OutOfRegime
from .measure import (
    DEFAULT_CUTOFF_RADIUS,
    PLANAR_MERGE_TOL,
    PLANE,
    AtomicMeasure,
    FibreTable,
    TestFunctionLibrary,
    merge_planar,
    planar_clusters,
    trace_conditions,
    unseen,
)
from .states import (
    CRITICAL,
    DEFAULT_ATOM_BUDGET,
    FINITE_TYPE,
    INFINITE_TYPE,
    SUBCRITICAL,
    SUPERCRITICAL,
    ZERO,
    ExtremeState,
    KMSMeasure,
    PhaseReport,
    level_series,
    phase,
    plan_depth,
    require_budget,
    require_count,
)

SQRT3 = math.sqrt(3.0)


def affine(offset, columns, x):
    """offset + sum_k x[..., k:k+1] * columns[k], the one affine kernel.

    columns[k] is column k of the linear part, broadcast against x's batch
    shape.  Each output entry is the same sequence of elementwise products
    and sums, in k order, whatever the batch shape, so a point's image is
    bit-identical alone, in a batch, among the stacked images of all maps,
    and in the chaos step.  A single point (1-D x) enters as Python floats,
    numpy's fast scalar path, which forms the same products.
    """
    factors = x.tolist() if x.ndim == 1 else [x[..., k:k + 1] for k in range(x.shape[-1])]
    out = offset + factors[0] * columns[0]
    for k in range(1, len(factors)):
        out = out + factors[k] * columns[k]
    return out


class AffineMap:
    """x -> A x + b with singular values strictly inside (0, 1)."""

    def __init__(self, linear, offset):
        self.linear = np.atleast_2d(np.asarray(linear, dtype=np.float64))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=np.float64))
        if self.linear.shape[0] != self.linear.shape[1]:
            raise ValueError("linear part must be square")
        if self.linear.shape[0] != self.offset.shape[0]:
            raise ValueError("linear part and offset dimension mismatch")
        sv = np.linalg.svd(self.linear, compute_uv=False)
        self.sv_min = float(sv.min())
        self.sv_max = float(sv.max())
        if not 0.0 < self.sv_min <= self.sv_max < 1.0:
            raise ValueError(
                f"not a proper contraction: singular values in [{self.sv_min:.4g}, "
                f"{self.sv_max:.4g}] must lie strictly inside (0, 1)"
            )

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def __call__(self, x):
        return affine(self.offset, self.linear.T, np.asarray(x, dtype=np.float64))

    def fixed_point(self):
        return np.linalg.solve(np.eye(self.dim) - self.linear, self.offset)

    def to_jsonable(self):
        return {
            "linear": [[float(v) for v in row] for row in self.linear],
            "offset": [float(v) for v in self.offset],
        }


class IFSSystem:
    """A finite system of affine proper contractions with a self-similar attractor."""

    def __init__(self, maps, name: str = ""):
        maps = list(maps)
        if len(maps) < 2:
            raise ValueError("need at least two contractions")
        dim = maps[0].dim
        if any(m.dim != dim for m in maps):
            raise ValueError("all maps must share one dimension")
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                if np.allclose(maps[i].linear, maps[j].linear, rtol=0.0, atol=1e-14) and np.allclose(
                    maps[i].offset, maps[j].offset, rtol=1e-14, atol=0.0
                ):
                    raise ValueError(f"maps {i} and {j} coincide; system is degenerate")
        self.maps = maps
        self.dim = dim
        self.name = name
        self.n = len(maps)
        # stacked coefficients: offsets[j], linears[j] and columns[k, j] = column k of map j
        self.offsets = np.array([m.offset for m in maps])
        self.linears = np.array([m.linear for m in maps])
        self.columns = self.linears.transpose(2, 0, 1).copy()
        self.c1 = min(m.sv_min for m in maps)
        self.c2 = max(m.sv_max for m in maps)
        # invariant ball: gamma_i(B(center, radius)) subset B(center, radius)
        with np.errstate(over="ignore", invalid="ignore"):
            fixed = np.array([m.fixed_point() for m in maps])
            self.center = fixed.mean(axis=0)
            drift = max(np.linalg.norm(m(self.center) - self.center) for m in maps)
            # a drift within the rounding of the terms it is computed from is
            # zero: every map fixes the one attractor point
            rounding = 8 * dim * np.finfo(np.float64).eps * (
                np.abs(self.center).max() + np.abs(self.offsets).max()
            )
            self.radius = drift / (1.0 - self.c2) if drift > rounding else 1.0
        if not (math.isfinite(rounding) and math.isfinite(self.radius)):  # rounding: center and offsets
            raise ValueError("the invariant ball of the system overflows double precision")
        self.tol = PLANAR_MERGE_TOL * self.radius  # the one merge and dedup length
        self.seed = maps[0].fixed_point()
        self._branch_cache = None

    def images(self, x):
        """All maps applied to a point, (d,) -> (M, d), or a batch, (n, d) -> (M, n, d)."""
        if x.ndim == 1:
            return affine(self.offsets, self.columns, x)
        return affine(self.offsets[:, None, :], self.columns[:, :, None, :], x)

    def inverse_images(self, x):
        """Every inverse branch of every row, (n, d) -> (n M, d), point-major.

        One batched solve over the stacked linear parts, each system with a
        single right-hand side, as one point through one map is solved.
        """
        rhs = (x[:, None, :] - self.offsets)[..., None]
        return np.linalg.solve(self.linears, rhs)[..., 0].reshape(-1, self.dim)

    def step(self, x, picks):
        """Row i of x through map picks[i]: the chaos-game step, (n, d) -> (n, d)."""
        return affine(np.take(self.offsets, picks, axis=0), np.take(self.columns, picks, axis=1), x)

    def bounding_box(self):
        lo = self.center - self.radius
        hi = self.center + self.radius
        return tuple((float(a), float(b)) for a, b in zip(lo, hi))

    def in_ball(self, x, slack: float):
        """Mask of the rows of x, (n, d), within radius + slack of the center."""
        return np.linalg.norm(x - self.center, axis=1) <= self.radius + slack

    def membership_depth(self) -> int:
        """Depth at which attractor cover cells have diameter < 1e-6 radius.

        Capped where inverse iteration amplifies double-precision error
        (by 1/c1 per step) beyond that resolution itself.
        """
        diam = 2.0 * self.radius
        d = 1
        while diam * self.c2**d >= 1e-6 * self.radius:
            d += 1
        cap = int(math.log(1e-6 * self.radius / (2.3e-16 * diam)) / math.log(1.0 / self.c1))
        return min(d, max(cap, 1))

    def in_attractor(self, y, depth: int | None = None, width_cap: int = 512) -> bool:
        """Backward-pruned membership test at cover resolution c2^depth * diam.

        y is in the attractor iff some chain of inverse branches keeps it
        inside the invariant ball for `depth` steps.  The ball slack grows
        with the error amplification 1/c1 per inverse step, so chains of
        genuine attractor points are never pruned by rounding.  A y of
        another dimension is refused with ValueError.
        """
        frontier = _as_point(self, y, "y")[None, :]
        if depth is None:
            depth = self.membership_depth()
        require_count("depth", depth)
        require_count("width_cap", width_cap)
        base_slack = 2e-7 * self.radius
        if not self.in_ball(frontier, base_slack)[0]:
            return False
        for k in range(depth):
            slack = base_slack + 4.6e-16 * self.radius / self.c1 ** (k + 1)
            nxt = self.inverse_images(frontier)
            nxt = nxt[self.in_ball(nxt, slack)]
            if not len(nxt):
                return False
            if len(nxt) > 1:
                nxt, _w = merge_planar(nxt, np.ones(len(nxt)), self.tol)
            frontier = nxt[:width_cap]
        return True

    def branch_structure(self) -> "IFSBranchData":
        if self._branch_cache is None:
            self._branch_cache = branch_structure(self)
        return self._branch_cache

    def to_jsonable(self):
        return {
            "dim": self.dim,
            "name": self.name,
            "maps": [m.to_jsonable() for m in self.maps],
            "contraction_bounds": [self.c1, self.c2],
        }

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"IFSSystem({self.n} maps, dim={self.dim}{label})"


@dataclass
class IFSBranchData:
    """Branch values y with their colliding branch pairs, and the branch points.

    branch_values lists (y, [(j, j'), ...]) with gamma_j(y) == gamma_j'(y);
    branch_points are the collision images.  singular_pairs records branch
    pairs whose difference is singular with no solution (parallel branches,
    e.g. pure translations) -- harmless, just no collision.
    """

    branch_values: list
    branch_points: list
    singular_pairs: list = field(default_factory=list)

    def to_jsonable(self):
        return {
            "branch_values": [
                {"point": [float(v) for v in y], "pairs": [[j, jp] for j, jp in prs]}
                for y, prs in self.branch_values
            ],
            "branch_points": [[float(v) for v in x] for x in self.branch_points],
            "singular_pairs": [[j, jp] for j, jp in self.singular_pairs],
        }


def _as_point(gamma: IFSSystem, y, name: str):
    """y as a float point of the system's dimension, refused with ValueError otherwise."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (gamma.dim,):
        raise ValueError(f"{name} must be a point of shape ({gamma.dim},), not {y.shape}")
    return y


def branch_structure(gamma: IFSSystem) -> IFSBranchData:
    """Solve gamma_j(y) = gamma_j'(y) for all pairs; keep attractor solutions.

    Each pair is a linear system; a singular pair with no solution is
    recorded and skipped, while a singular pair agreeing on an affine
    subspace would make the branch set infinite and is rejected.  Coincident
    solutions cluster by planar_clusters in pair order, each keeping its
    founder's value and its pairs in pair order.
    """
    values, pairs = [], []
    singular = []
    tol = gamma.tol
    for j in range(gamma.n):
        for jp in range(j + 1, gamma.n):
            mdiff = gamma.maps[j].linear - gamma.maps[jp].linear
            bdiff = gamma.maps[jp].offset - gamma.maps[j].offset
            scale = float(np.abs(mdiff).max())
            cond = np.linalg.cond(mdiff) if scale > 0.0 else math.inf
            if not np.isfinite(cond) or cond > 1e12:
                # singular difference: either no collision or a whole subspace
                sol, _res, rank, _sv = np.linalg.lstsq(mdiff, bdiff, rcond=None)
                if rank < gamma.dim and np.linalg.norm(mdiff @ sol - bdiff) <= tol * max(
                    1.0, np.linalg.norm(bdiff) / gamma.radius
                ):
                    raise ValueError(
                        f"branches {j} and {jp} agree on an affine subspace; "
                        "the branch set would be infinite"
                    )
                singular.append((j, jp))
                continue
            y = np.linalg.solve(mdiff, bdiff)
            if gamma.in_attractor(y):
                values.append(y)
                pairs.append((j, jp))
    branch_values = []
    if values:
        keep, member, to = planar_clusters(np.array(values), tol)
        grouped = [[pairs[i]] for i in keep]
        for i, c in zip(member.tolist(), to.tolist()):
            grouped[c].append(pairs[i])
        branch_values = [(values[i], prs) for i, prs in zip(keep, grouped)]
    points = []
    for y, prs in branch_values:
        for j, jp in prs:
            points.append(gamma.maps[j](y))
    if points:
        coords, _w = merge_planar(np.array(points), np.ones(len(points)), tol)
        branch_points = [c for c in coords]
    else:
        branch_points = []
    return IFSBranchData(branch_values=branch_values, branch_points=branch_points,
                         singular_pairs=singular)


def _distance(p, q) -> float:
    """Euclidean distance of two coordinate lists, the squares summed in axis order."""
    sq = 0.0
    for a, b in zip(p, q):
        sq += (a - b) * (a - b)
    return math.sqrt(sq)


def distinct_images(gamma: IFSSystem, y):
    """The set gamma(y) with multiplicities: [(x, e(x, y))].

    The M images, one block of IFSSystem.images, are taken in map order;
    each joins the first distinct image before it within gamma.tol
    (_distance), or is a new one.  Two images whose first coordinates are
    more than 2 tol apart are farther than tol whatever the rounding, so
    their distance is not summed.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    images = gamma.images(y)
    rows = images.tolist()
    tol = gamma.tol
    firsts, counts = [], []
    for i, row in enumerate(rows):
        for slot, f in enumerate(firsts):
            if abs(rows[f][0] - row[0]) <= 2.0 * tol and _distance(rows[f], row) <= tol:
                counts[slot] += 1
                break
        else:
            firsts.append(i)
            counts.append(1)
    return [(images[f], e) for f, e in zip(firsts, counts)]


def tilde_ifs(gamma: IFSSystem, f, y) -> float:
    """Set-sum of f over the distinct branch images of y."""
    g = f if callable(f) else (lambda _p, _c=float(f): _c)
    return float(sum(g(x) for x, _e in distinct_images(gamma, y)))


def apply_F_beta_ifs(
    gamma: IFSSystem,
    mu: AtomicMeasure,
    beta: float,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """F_beta(delta_y) = e^{-beta} sum over distinct images, extended linearly; beta as phase takes it."""
    beta = phase(beta, False, math.log(gamma.n))[0]
    if mu.space != "plane":
        raise ValueError("IFS transfer operator needs a planar measure")
    require_budget(mu.n_atoms * gamma.n, atom_budget, "pullback")
    images = _image_table(gamma, mu)
    return AtomicMeasure.from_planar_atoms(
        images.coords, math.exp(-beta) * mu.weights[images.owner], gamma.tol
    )


def _image_table(gamma: IFSSystem, mu: AtomicMeasure) -> FibreTable:
    """Distinct images of every atom of a planar measure, one distinct_images call each.

    The results go straight into preallocated (n M) owner, degree and coords
    arrays.  The table keeps one call per atom because the bench trace
    self-check (perfbench/layers.py) counts exactly mu.n_atoms
    distinct_images calls; a stacked table over all atoms at once waits for
    that count to be re-pinned as work units (ROADMAP).
    """
    n, d = mu.coords.shape
    owner = np.empty(n * gamma.n, dtype=np.intp)
    degree = np.empty(n * gamma.n, dtype=np.int64)
    coords = np.empty((n * gamma.n, d))
    k = 0
    for i, y in enumerate(mu.coords):
        for x, e in distinct_images(gamma, y):
            owner[k] = i
            degree[k] = e
            coords[k] = x
            k += 1
    return FibreTable(owner[:k], degree[:k], coords[:k])


# ---------------------------------------------------------------------------
# Hutchinson measure


def _pushforward(gamma: IFSSystem, coords, weights):
    """Every atom's image under every map, each carrying its atom's weight, merged."""
    return merge_planar(gamma.images(coords).reshape(-1, gamma.dim), np.tile(weights, gamma.n), gamma.tol)


def hutchinson(
    gamma: IFSSystem,
    n: int,
    chaos_samples: int | None = None,
    seed: int = 0,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """Approximant of the self-similar invariant probability measure.

    Deterministic mode pushes delta at the system seed point through n
    rounds of the averaged pushforward (1/N) sum gamma_i*, merging collided
    atoms; its budget counts the next level alone, as it keeps no other.
    Chaos-game mode runs counter-based random orbits (Philox; burn-in 100)
    across independent chains and returns the empirical measure; the mode
    and parameters are recorded on the result.  All chains step at once,
    each keeping its own pick's image m(x) of the step.
    """
    require_count("n", n)
    if chaos_samples is None:
        coords = gamma.seed[None, :].copy()
        weights = np.array([1.0])
        for _ in range(n):
            require_budget(gamma.n * len(weights), atom_budget, "deterministic pushforward")
            coords, weights = _pushforward(gamma, coords, weights / gamma.n)
        info = {"mode": "deterministic", "iterations": n}
        return AtomicMeasure(PLANE, coords=coords, weights=weights, info=info, tol=gamma.tol)

    require_count("chaos_samples", chaos_samples, 1)
    require_budget(chaos_samples, atom_budget, "chaos game")
    burn_in = 100
    rng = np.random.Generator(np.random.Philox(seed))
    chains = min(1024, chaos_samples)
    steps = burn_in + -(-chaos_samples // chains)  # ceil division
    x = np.tile(gamma.seed, (chains, 1)).astype(np.float64)
    picks = rng.integers(0, gamma.n, size=(steps, chains))
    samples = np.empty((steps - burn_in, chains, x.shape[1]))
    for t in range(steps):
        x = gamma.step(x, picks[t])
        if t >= burn_in:
            samples[t - burn_in] = x
    del picks  # (steps, chains) int64, freed before the merge
    samples = samples.reshape(-1, x.shape[1])[:chaos_samples]
    weights = np.full(len(samples), 1.0 / len(samples))
    info = {"mode": "chaos", "samples": int(chaos_samples), "seed": int(seed),
            "burn_in": burn_in, "chains": int(chains)}
    return AtomicMeasure.from_planar_atoms(samples, weights, gamma.tol, info=info)


# ---------------------------------------------------------------------------
# KMS measures above log N


def kms_measure_ifs(
    gamma: IFSSystem,
    b,
    beta: float,
    depth: int | None = None,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> KMSMeasure:
    """Word-sum KMS measure anchored at a branch point b, for beta > log N.

    (1 - N e^{-beta}) sum_n e^{-n beta} sum_{words w of length n}
    delta_{gamma_w(b)}; colliding words merge.  Word counts are exactly N^n
    per level, so the truncated mass deficit is exactly the geometric tail
    (N e^{-beta})^{depth+1}, recorded as the tail bound.  An explicit depth
    wins; otherwise states.plan_depth picks one, as for kms.kms_measure.
    beta must be supercritical (states.phase); a beta that is None,
    negative or not finite is refused with ValueError.
    """
    if depth is not None:
        require_count("depth", depth)
    log_n = math.log(gamma.n)
    regime = phase(beta, False, log_n)[1]
    b = _as_point(gamma, b, "branch point")
    data = gamma.branch_structure()
    if not any(np.linalg.norm(b - x) <= 1e-7 * gamma.radius for x in data.branch_points):
        raise NotABranchPoint(f"{b} is not a branch point of the system")
    if regime != SUPERCRITICAL:
        raise OutOfRegime(
            f"no finite-type state at beta={beta:.6g} <= log N={log_n:.6g}"
        )
    if depth is None:
        depth = plan_depth(gamma.n, beta, atom_budget)
    q = gamma.n * math.exp(-beta)
    prefactor = 1.0 - q
    ebeta = math.exp(-beta)
    levels = level_series((b[None, :], np.array([prefactor])), lambda c, w: _pushforward(gamma, c, w * ebeta),
                          depth, gamma.n, atom_budget, "word sum")
    all_coords, all_weights = merge_planar(*map(np.concatenate, zip(*levels)), gamma.tol)
    measure = AtomicMeasure(PLANE, coords=all_coords, weights=all_weights, tol=gamma.tol)
    tail = q ** (depth + 1)
    return KMSMeasure(
        measure=measure,
        anchor=b,
        beta=beta,
        kind=FINITE_TYPE,
        normalization=prefactor,
        truncation_depth=depth,
        tail_bound=tail,
    )


def check_K1_ifs(
    gamma: IFSSystem,
    mu: AtomicMeasure,
    beta: float,
    lib: TestFunctionLibrary | None = None,
):
    """K1/K2 analogues against the planar library with a branch-set cutoff.

    Cutoff radius DEFAULT_CUTOFF_RADIUS * gamma.radius.  Returns (max equality
    residual over cutoff functions, max positivity violation over shifted functions).
    """
    lib = lib or TestFunctionLibrary.plane(box=gamma.bounding_box())
    k1, k2, _masked = trace_conditions(
        lib, mu, _image_table(gamma, mu), beta, gamma.branch_structure().branch_points,
        DEFAULT_CUTOFF_RADIUS * gamma.radius,
    )
    return (float(k1.max()) if len(k1) else 0.0), k2


# ---------------------------------------------------------------------------
# orbit condition


@dataclass
class OrbitConditionEntry:
    branch_value: np.ndarray
    status: str  # "certified" | "inconclusive" | "vacuous"
    witness: np.ndarray | None = None
    witness_depth: int = -1

    def to_jsonable(self):
        out = {
            "branch_value": [float(v) for v in np.atleast_1d(self.branch_value)],
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = [float(v) for v in np.atleast_1d(self.witness)]
            out["witness_depth"] = self.witness_depth
        return out


@dataclass
class OrbitConditionReport:
    entries: list
    certified: bool
    inverse_closure_size: int
    inverse_closure_stable: bool

    def to_jsonable(self):
        return {
            "certified": self.certified,
            "entries": [e.to_jsonable() for e in self.entries],
            "inverse_closure_size": self.inverse_closure_size,
            "inverse_closure_stable": self.inverse_closure_stable,
        }


def orbit_condition(
    gamma: IFSSystem,
    depth: int = 12,
    width_cap: int = 4096,
) -> OrbitConditionReport:
    """Certify: every branch value y has x in O(y) whose orbit avoids C(gamma).

    A forward orbit O(x) meets the branch-value set C exactly when x lies in
    the closure of C under the inverse branches (restricted to the invariant
    ball).  When that inverse closure stabilizes at a finite set within the
    depth budget, membership is decidable and the certificate is exact; the
    witness search then walks O(y) breadth-first for a point outside the
    closure.
    """
    require_count("depth", depth)
    require_count("width_cap", width_cap)
    data = gamma.branch_structure()
    if not data.branch_values:
        return OrbitConditionReport(
            entries=[], certified=True, inverse_closure_size=0, inverse_closure_stable=True
        )
    tol = gamma.tol
    cvalues = np.array([y for y, _prs in data.branch_values])

    # inverse closure of C(gamma) inside the invariant ball, a level at a
    # time; its rows, like the branch values, lie pairwise farther than tol
    closure = frontier = cvalues
    stable = False
    for _ in range(depth):
        q = gamma.inverse_images(frontier)
        q = q[gamma.in_ball(q, 2e-7 * gamma.radius)]
        frontier = q[unseen(closure, q, tol)]
        if not len(frontier):
            stable = True
            break
        closure = np.concatenate([closure, frontier])
        if len(closure) > width_cap:
            break

    entries = []
    for y in cvalues:
        if not stable:
            entries.append(OrbitConditionEntry(y, "inconclusive"))
            continue
        found = None
        frontier = seen = y[None, :]
        for level in range(depth + 1):
            outside = unseen(closure, frontier, tol)
            if len(outside):
                found = (frontier[outside[0]], level)
                break
            images = gamma.images(frontier).swapaxes(0, 1).reshape(-1, gamma.dim)
            new = images[unseen(seen, images, tol)]
            seen = np.concatenate([seen, new])
            frontier = new[:width_cap]
            if not len(frontier):
                break
        if found:
            entries.append(
                OrbitConditionEntry(y, "certified", witness=found[0], witness_depth=found[1])
            )
        else:
            entries.append(OrbitConditionEntry(y, "inconclusive"))
    certified = all(e.status == "certified" for e in entries)
    return OrbitConditionReport(
        entries=entries,
        certified=certified,
        inverse_closure_size=len(closure),
        inverse_closure_stable=stable,
    )


# ---------------------------------------------------------------------------
# classification


def classify_ifs(
    gamma: IFSSystem,
    beta: float | None = None,
    critical: bool = False,
    orbit_depth: int = 12,
) -> PhaseReport:
    """Extreme KMS states for the system at inverse temperature beta.

    Below log N none exist; at log N the unique state is the Hutchinson
    measure; above log N there is one finite-type state per branch point (so
    none at all when the branch set is empty).  Once states.phase has
    accepted beta, runs the orbit-condition certificate and warns if it is
    inconclusive.
    """
    require_count("orbit_depth", orbit_depth)
    beta_val, regime = phase(beta, critical, math.log(gamma.n))
    if not orbit_condition(gamma, orbit_depth).certified:
        warnings.warn(
            "orbit condition not certified at this depth; classification assumes it",
            HypothesisUncertified,
            stacklevel=2,
        )
    if regime == ZERO:
        regime = SUBCRITICAL  # no exceptional points, so beta = 0 anchors nothing either
    anchors = gamma.branch_structure().branch_points if regime == SUPERCRITICAL else []
    points = [tuple(np.atleast_1d(x)) for x in anchors]
    labels = ["(" + ", ".join(f"{v:.12g}" for v in x) + ")" for x in points]
    states = [ExtremeState(FINITE_TYPE, (x,), label) for x, label in zip(points, labels)]
    if regime == CRITICAL:
        states.append(ExtremeState(INFINITE_TYPE, (), "hutchinson"))
    return PhaseReport(beta_val, regime, states)


# ---------------------------------------------------------------------------
# presets


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation_about(theta: float, center) -> tuple:
    """(linear, offset) of the rotation by theta about the given center."""
    rot = _rotation(theta)
    center = np.asarray(center, dtype=np.float64)
    return rot, center - rot @ center


def preset(name: str) -> IFSSystem:
    """Built-in systems: tent, binary, sierpinski, sierpinski-twisted."""
    if name == "tent":
        return IFSSystem(
            [AffineMap([[0.5]], [0.0]), AffineMap([[-0.5]], [1.0])], name="tent"
        )
    if name == "binary":
        return IFSSystem(
            [AffineMap([[0.5]], [0.0]), AffineMap([[0.5]], [0.5])], name="binary"
        )
    half = np.eye(2) * 0.5
    g1 = AffineMap(half, [0.25, SQRT3 / 4.0])
    g2 = AffineMap(half, [0.0, 0.0])
    g3 = AffineMap(half, [0.5, 0.0])
    if name == "sierpinski":
        return IFSSystem([g1, g2, g3], name="sierpinski")
    if name == "sierpinski-twisted":
        # rotations about the centroids of the lower-left / lower-right cells
        # keep the gasket invariant and create the three midpoint collisions
        r2, t2 = _rotation_about(-2.0 * math.pi / 3.0, [0.25, SQRT3 / 12.0])
        r3, t3 = _rotation_about(2.0 * math.pi / 3.0, [0.75, SQRT3 / 12.0])
        g2t = AffineMap(r2 @ g2.linear, r2 @ g2.offset + t2)
        g3t = AffineMap(r3 @ g3.linear, r3 @ g3.offset + t3)
        return IFSSystem([g1, g2t, g3t], name="sierpinski-twisted")
    raise ValueError(f"unknown preset {name!r}; presets: tent, binary, sierpinski, sierpinski-twisted")


def system_from_jsonable(obj) -> IFSSystem:
    """Custom systems: {"dim": d, "maps": [{"linear": [[...]], "offset": [...]}]}; ValueError otherwise."""
    maps = obj.get("maps") if isinstance(obj, dict) else None
    if not isinstance(maps, list) or not all(isinstance(m, dict) and {"linear", "offset"} <= m.keys()
                                             for m in maps):
        raise ValueError('a system is {"maps": [{"linear": [[...]], "offset": [...]}, ...]}')
    maps = [AffineMap(_json_numbers("linear", m["linear"], 2), _json_numbers("offset", m["offset"], 1)) for m in maps]
    if not isinstance(obj.get("name", ""), str):
        raise ValueError(f"name must be a string, not {obj['name']!r}")
    system = IFSSystem(maps, name=obj.get("name", "custom"))
    if "dim" in obj:
        require_count("dim", obj["dim"], 1)
        if system.dim != obj["dim"]:
            raise ValueError("declared dim does not match the maps")
    return system


def _json_numbers(field, value, nesting):
    """value when it is a finite JSON number or lists of them nested at most nesting deep.

    The lists at one depth must have one length.  ValueError naming field otherwise.
    """
    flat = [value]
    for _level in range(nesting):
        if len({len(x) if isinstance(x, list) else -1 for x in flat}) > 1:  # numpy's refusal names no field
            raise ValueError(f"{field} must nest lists of equal length, not {value!r}")
        flat = [v for x in flat for v in (x if isinstance(x, list) else [x])]
    if any(type(v) not in (int, float) for v in flat):
        raise ValueError(f"{field} must be numbers or lists of numbers nested at most {nesting} deep, not {value!r}")
    if not all(map(math.isfinite, flat)):  # JSON's NaN and Infinity, and 1e400
        raise ValueError(f"{field} must be finite, not {value!r}")
    return value
