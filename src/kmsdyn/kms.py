"""KMS-state classification for the gauge action over a rational map.

At the level of measures the extreme states are controlled by two trace
conditions on a probability measure mu (with F the transfer pullback and
beta the inverse temperature):

    (K1)  e^{-beta} int a~ dmu  =  int a dmu   for a vanishing near the
                                               branched points
    (K2)  e^{-beta} int a~ dmu  <= int a dmu   for all nonnegative a

The resulting portrait has a phase transition at beta = log N: above it one
extreme state per branched point (geometric series over the backward orbit),
at it a unique additional invariant state given by the balanced-weight
backward-orbit limit (the Lyubich measure), below it states only at
exceptional points, and at beta = 0 invariant traces determined by the
exceptional orbit structure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomBudgetExceeded,
    ExceptionalSeed,
    NotABranchPoint,
    OutOfRegime,
    WitnessNotFoundAtDepth,
)
from .measure import (
    DEFAULT_CUTOFF_RADIUS,
    AtomicMeasure,
    TestFunctionLibrary,
    fibre_table,
    nearest_distance,
    sphere_embedding,
    trace_conditions,
)
from .projective import (
    DEFAULT_CLUSTER_TOL,
    SpherePoint,
    chordal_distance,
    embedding_array,
    first_within,
    founders,
    homogeneous,
)
from .ratmap import DEFAULT_ATOM_BUDGET, INDEX_WEIGHTED, SET_COUNT, RationalMap
from .states import (
    CRITICAL,
    CRITICAL_BETA_TOL,
    FINITE_TYPE,
    INFINITE_TYPE,
    SUBCRITICAL,
    SUPERCRITICAL,
    ZERO,
    ZERO_TYPE,
    ExtremeState,
    KMSMeasure,
    PhaseReport,
    ResidualReport,
    ViolationReport,
    phase,
)


# ---------------------------------------------------------------------------
# KMS measures


def _exceptional_closed_form(R: RationalMap, w: SpherePoint, beta: float, tol: float):
    """Closed-form geometric sum over the finite backward orbit of w.

    Fixed point: delta_w.  Two-cycle {w, u}: weights e^beta/(e^beta+1) at w
    and 1/(e^beta+1) at u.  Valid for every beta >= 0.
    """
    image = R.evaluate(w)
    if chordal_distance(image, w) <= tol:
        measure = AtomicMeasure.delta(w)
    else:
        eb = math.exp(beta)
        measure = AtomicMeasure.from_sphere_atoms(
            [(w, eb / (eb + 1.0)), (image, 1.0 / (eb + 1.0))], tol
        )
    return measure, 1.0 - math.exp(-beta)


def min_depth_for_tail(R_degree: int, beta: float, tail_target: float = 1e-6) -> int:
    """Smallest depth with (N e^{-beta})^{depth+1}/(1 - N e^{-beta}) <= target."""
    q = R_degree * math.exp(-beta)
    if q >= 1.0:
        raise OutOfRegime("tail bound requires beta > log N")
    d = 0
    while q ** (d + 1) / (1.0 - q) > tail_target:
        d += 1
    return d


def _budget_depth(degree: int, atom_budget: int) -> int:
    """Deepest full backward tree (levels of size N^k) within the budget."""
    total = 1
    d = 0
    while total + degree ** (d + 1) <= atom_budget:
        total += degree ** (d + 1)
        d += 1
    return d


def kms_measure(
    R: RationalMap,
    w: SpherePoint,
    beta: float,
    depth: int | None = None,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> KMSMeasure:
    """The extreme finite-type KMS measure anchored at a branched point w.

    mu_{beta,w} is the normalized geometric series over the backward-orbit
    levels of w.  Exceptional anchors sum in closed form (any beta > 0);
    other anchors require beta > log N, where the truncated series carries an
    explicit geometric tail bound.  An explicit depth wins; otherwise the
    depth is chosen so the tail bound reaches 1e-6 where the atom budget
    permits, with a warning when it cannot.
    """
    data = R.branch_data(tol)
    if data.index_at(w) < 2:
        raise NotABranchPoint(f"{w} is not a branched point of the map")
    log_n = math.log(R.n)
    if R.is_exceptional(w, tol):
        if beta <= 0:
            raise OutOfRegime("exceptional anchors require beta > 0")
        measure, norm = _exceptional_closed_form(R, w, beta, tol)
        return KMSMeasure(
            measure=measure,
            anchor=w,
            beta=beta,
            kind=FINITE_TYPE,
            normalization=norm,
            truncation_depth=0,
            tail_bound=0.0,
        )
    if beta <= log_n + CRITICAL_BETA_TOL:
        raise OutOfRegime(
            f"no finite-type state at beta={beta:.6g} <= log N={log_n:.6g} for a "
            "non-exceptional anchor"
        )
    q = R.n * math.exp(-beta)
    if depth is None:
        # auto-selection spends at most ~131k atoms; pass depth explicitly to
        # spend up to the full atom budget
        cap = _budget_depth(R.n, min(atom_budget, 131072))
        if beta > log_n + 0.05:
            depth = min(min_depth_for_tail(R.n, beta), cap)
        else:
            depth = min(20, cap)
        residual_tail = q ** (depth + 1) / (1.0 - q)
        if residual_tail > 1e-6:
            warnings.warn(
                f"tail target 1e-6 not attainable at depth {depth}: bound is "
                f"{residual_tail:.3e} before normalization; pass an explicit "
                "depth to spend more atoms",
                stacklevel=2,
            )
    tree = R.backward_orbit(w, depth, SET_COUNT, tol, atom_budget)
    if tree.truncated or tree.depth < depth:
        raise AtomBudgetExceeded(
            f"backward orbit truncated at depth {tree.depth} (requested {depth})"
        )
    q = math.exp(-beta)
    denom = sum(q**k * tree.level_mass(k) for k in range(depth + 1))
    norm = 1.0 / denom
    pairs = []
    for k, level in enumerate(tree.levels):
        f = norm * q**k
        pairs.extend((p, f * wgt) for p, wgt in level)
    measure = AtomicMeasure.from_sphere_atoms(pairs, tol)
    qn = R.n * q
    tail = norm * qn ** (depth + 1) / (1.0 - qn)
    return KMSMeasure(
        measure=measure,
        anchor=w,
        beta=beta,
        kind=FINITE_TYPE,
        normalization=norm,
        truncation_depth=depth,
        tail_bound=tail,
    )


# ---------------------------------------------------------------------------
# trace-condition checks


def _branch_embedding(R: RationalMap, tol: float):
    return sphere_embedding([p for p, _e in R.branch_data(tol).branch_points])


def check_K1(
    R: RationalMap,
    mu: AtomicMeasure,
    beta: float,
    lib: TestFunctionLibrary | None = None,
    rho: float = DEFAULT_CUTOFF_RADIUS,
    tol: float = DEFAULT_CLUSTER_TOL,
) -> ResidualReport:
    """Residuals of the equality condition on functions vanishing near B(R).

    Each library function is multiplied by a quintic cutoff that vanishes on
    a chordal rho-neighborhood of the branched points, giving an admissible
    test function; the report returns max |e^{-beta} int a~ dmu - int a dmu|.
    """
    lib = lib or TestFunctionLibrary.sphere()
    residuals, _k2, masked = trace_conditions(
        lib, mu, fibre_table(R, mu, tol), beta, _branch_embedding(R, tol), rho
    )
    worst = int(np.argmax(residuals)) if len(residuals) else 0
    return ResidualReport(
        max_residual=float(residuals.max()) if len(residuals) else 0.0,
        worst_function=lib.functions[worst].exponents,
        per_function=[float(r) for r in residuals],
        cutoff_radius=rho,
        masked_mass=masked,
    )


def check_K2(
    R: RationalMap,
    mu: AtomicMeasure,
    beta: float,
    lib: TestFunctionLibrary | None = None,
    tol: float = DEFAULT_CLUSTER_TOL,
) -> ViolationReport:
    """Max violation of the domination condition over nonnegative functions.

    Sweeps the shifted library (sup-norm +/- f >= 0) and additionally checks
    the atomwise point-mass forms: e^{-beta} mu{R(x)} <= mu{x} for every atom
    and equality off the branch set.
    """
    lib = lib or TestFunctionLibrary.sphere()
    _k1, func_violation, _masked = trace_conditions(lib, mu, fibre_table(R, mu, tol), beta)

    z, w = homogeneous(mu.points)
    hits = first_within(z, w, *R.evaluate_array(z, w), tol)
    img_mass = np.where(hits >= 0, mu.weights[hits], 0.0)
    gaps = math.exp(-beta) * img_mass - mu.weights
    off_branch = nearest_distance(mu.embedding(), _branch_embedding(R, tol)) > tol
    pm_violation = float(gaps.max(initial=0.0))
    return ViolationReport(
        max_violation=max(func_violation, pm_violation),
        function_violation=func_violation,
        point_mass_violation=pm_violation,
        point_mass_equality_residual=float(np.abs(gaps[off_branch]).max(initial=0.0)),
    )


# ---------------------------------------------------------------------------
# Lyubich measure approximants


def lyubich(
    R: RationalMap,
    y: SpherePoint,
    n: int,
    tol: float = DEFAULT_CLUSTER_TOL,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> AtomicMeasure:
    """The n-th balanced backward-orbit approximant mu_n^y, total mass 1.

    Atom weights are N^{-n} times the product of branch indices along the
    forward path back to y; the sequence converges weakly to the measure of
    maximal entropy for any non-exceptional seed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    tree = R.backward_orbit(y, n, INDEX_WEIGHTED, tol, atom_budget)
    if tree.truncated or tree.depth < n:
        raise AtomBudgetExceeded(f"orbit truncated at depth {tree.depth} (requested {n})")
    level = tree.levels[n]
    total = sum(w for _p, w in level)
    return AtomicMeasure.from_sphere_atoms([(p, w / total) for p, w in level], tol)


def lyubich_invariance_residual(
    R: RationalMap, mu: AtomicMeasure, lib: TestFunctionLibrary | None = None
) -> float:
    """max over the library of |int f(R(x)) dmu - int f dmu|."""
    lib = lib or TestFunctionLibrary.sphere()
    if mu.n_atoms == 0:
        return 0.0
    emb = embedding_array(*R.evaluate_array(*homogeneous(mu.points)))
    lhs = lib.values_matrix(emb) @ mu.weights
    rhs = lib.values_matrix(mu.embedding()) @ mu.weights
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# divergence below log N


@dataclass
class WitnessReport:
    """Certificate that no trace-condition measure charges the seed point.

    The witness w has a backward tree (to the stated depth) avoiding the
    branch values with pairwise-disjoint levels, so any measure satisfying
    the point-mass inequalities and charging the seed must carry total mass
    at least partial_sum times the seed's mass, which exceeds 1 once
    (N e^{-beta})^n accumulates.
    """

    seed: SpherePoint
    witness: SpherePoint
    generation: int
    depth: int
    beta: float
    partial_sums: list = field(default_factory=list)
    candidates_rejected: int = 0

    @property
    def partial_sum(self) -> float:
        return self.partial_sums[-1]

    def to_jsonable(self):
        return {
            "seed": self.seed.to_jsonable(),
            "witness": self.witness.to_jsonable(),
            "generation": self.generation,
            "depth": self.depth,
            "beta": self.beta,
            "partial_sum": self.partial_sum,
            "partial_sums": list(self.partial_sums),
            "candidates_rejected": self.candidates_rejected,
        }


def divergence_witness(
    R: RationalMap,
    z: SpherePoint,
    beta: float,
    depth: int = 10,
    tol: float = DEFAULT_CLUSTER_TOL,
    avoid_tol: float = 1e-6,
    max_candidates: int = 64,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> WitnessReport:
    """Search the backward orbit of z for a mass-divergence witness.

    A witness w must have a depth-limited backward tree that stays clear of
    the branch values and has pairwise-disjoint levels; its full preimage
    levels then have exactly N^n points, each forced to carry e^{-n beta}
    times mu{w}, so the partial sums sum((N e^{-beta})^n) bound the total
    mass from below.  Failure to find one within the depth budget is
    inconclusive, not a refutation.
    """
    log_n = math.log(R.n)
    if not 0.0 < beta < log_n:
        raise OutOfRegime(f"divergence argument applies for 0 < beta < log N = {log_n:.6g}")
    if R.is_exceptional(z, tol):
        raise ExceptionalSeed(f"seed {z} is exceptional; its backward orbit is finite")
    branch_values = R.branch_data(tol).branch_values

    levels = R.backward_orbit(z, depth, SET_COUNT, tol, atom_budget).levels
    points = [p for level in levels for p, _w in level]
    gens = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    new = np.flatnonzero(founders(points, tol) == np.arange(len(points)))
    # candidates are the new points of each level, up to the first level
    # that brings their count to max_candidates
    count = np.cumsum(np.bincount(gens[new], minlength=len(levels)))
    last = np.argmax(count >= max_candidates) if count[-1] >= max_candidates else len(levels) - 1
    candidates = [(points[i], int(gens[i])) for i in new if gens[i] <= last]
    q = R.n * math.exp(-beta)
    sums = list(np.cumsum([q**n for n in range(depth + 1)]))

    rejected = 0
    for w, gen in candidates[:max_candidates]:
        tree = R.backward_orbit(w, depth, SET_COUNT, tol, atom_budget)
        if tree.truncated or tree.depth < depth:
            rejected += 1
            continue
        if not _avoids(tree, branch_values, avoid_tol):
            rejected += 1
            continue
        if not _levels_disjoint(tree, tol):
            rejected += 1
            continue
        return WitnessReport(
            seed=z,
            witness=w,
            generation=gen,
            depth=depth,
            beta=beta,
            partial_sums=[float(s) for s in sums],
            candidates_rejected=rejected,
        )
    raise WitnessNotFoundAtDepth(
        f"no witness among {len(candidates)} backward-orbit points at depth {depth}; "
        "inconclusive"
    )


def _avoids(tree, branch_values, avoid_tol):
    points = sphere_embedding([p for level in tree.levels for p, _w in level])
    return bool(np.all(nearest_distance(points, sphere_embedding(branch_values)) > avoid_tol))


def _levels_disjoint(tree, tol):
    points = [p for level in tree.levels for p, _w in level]
    return bool(np.all(founders(points, tol) == np.arange(len(points))))


# ---------------------------------------------------------------------------
# the phase portrait


def classify(
    R: RationalMap,
    beta: float | None = None,
    critical: bool = False,
    tol: float = DEFAULT_CLUSTER_TOL,
) -> PhaseReport:
    """Extreme KMS states at inverse temperature beta.

    Supercritical (beta > log N): one finite-type state per branched point.
    Critical (beta = log N): those at exceptional anchors, plus the unique
    infinite-type state given by the Lyubich measure.  Subcritical: only
    exceptional anchors.  beta = 0: invariant traces determined by the
    exceptional orbit classes (a swapped pair yields one symmetric state).
    """
    beta_val, regime = phase(beta, critical, math.log(R.n))

    exc = R.exceptional_points(tol)
    states: list[ExtremeState] = []

    if regime == ZERO:
        for orbit in exc.orbit_classes:
            if len(orbit) == 1:
                states.append(
                    ExtremeState(
                        kind=ZERO_TYPE,
                        anchors=(orbit[0],),
                        label=_point_label(orbit[0]),
                        restriction=AtomicMeasure.delta(orbit[0]),
                    )
                )
            else:
                mixture = AtomicMeasure.from_sphere_atoms(
                    [(orbit[0], 0.5), (orbit[1], 0.5)], tol
                )
                states.append(
                    ExtremeState(
                        kind=ZERO_TYPE,
                        anchors=tuple(orbit),
                        label="cycle " + "+".join(_point_label(p) for p in orbit),
                        restriction=mixture,
                    )
                )
        return PhaseReport(beta_val, regime, states, counts=(len(states), 0))

    if regime in (SUBCRITICAL, CRITICAL):
        anchors = list(exc.points)
    else:
        anchors = [p for p, _e in R.branch_data(tol).branch_points]

    finite_count = 0
    for w in anchors:
        restriction = None
        if R.is_exceptional(w, tol):
            restriction, _norm = _exceptional_closed_form(R, w, beta_val, tol)
        states.append(
            ExtremeState(
                kind=FINITE_TYPE,
                anchors=(w,),
                label=_point_label(w),
                restriction=restriction,
            )
        )
        finite_count += 1

    infinite_count = 0
    if regime == CRITICAL:
        states.append(ExtremeState(kind=INFINITE_TYPE, anchors=(), label="lyubich"))
        infinite_count = 1
    return PhaseReport(beta_val, regime, states, counts=(finite_count, infinite_count))


def classify_julia(
    R: RationalMap,
    beta: float | None = None,
    critical: bool = False,
    julia_branch_points=(),
    tol: float = DEFAULT_CLUSTER_TOL,
) -> PhaseReport:
    """Phase portrait for the restriction to the Julia set.

    Whether a branched point lies in the Julia set is not numerically
    decidable, so membership is asserted by the caller: only the listed
    branched points anchor supercritical states.  The Julia set carries no
    exceptional points, so nothing survives below log N and the critical
    state is the unique invariant one.
    """
    beta_val, regime = phase(beta, critical, math.log(R.n))
    data = R.branch_data(tol)
    asserted = []
    for p in julia_branch_points:
        if data.index_at(p) < 2:
            raise NotABranchPoint(f"{p} asserted in the Julia set is not a branched point")
        asserted.append(p)
    if regime == CRITICAL:
        states = [ExtremeState(kind=INFINITE_TYPE, anchors=(), label="lyubich")]
        return PhaseReport(beta_val, CRITICAL, states, counts=(0, 1))
    if regime != SUPERCRITICAL:
        return PhaseReport(beta_val, regime, [], counts=(0, 0))
    states = [
        ExtremeState(kind=FINITE_TYPE, anchors=(w,), label=_point_label(w)) for w in asserted
    ]
    return PhaseReport(beta_val, SUPERCRITICAL, states, counts=(len(states), 0))


def _point_label(p: SpherePoint) -> str:
    if p.is_infinity():
        return "inf"
    a = p.to_affine()
    return f"{a.real:.12g}{a.imag:+.12g}i"
