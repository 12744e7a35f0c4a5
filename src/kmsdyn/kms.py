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
from .ratmap import INDEX_WEIGHTED, SET_COUNT, RationalMap
from .states import (
    CRITICAL,
    DEFAULT_ATOM_BUDGET,
    FINITE_TYPE,
    INFINITE_TYPE,
    SUPERCRITICAL,
    ZERO,
    ZERO_TYPE,
    ExtremeState,
    KMSMeasure,
    PhaseReport,
    ResidualReport,
    ViolationReport,
    phase,
    plan_depth,
    require_count,
)


# ---------------------------------------------------------------------------
# KMS measures


def _exceptional_closed_form(R: RationalMap, w: SpherePoint, beta: float, tol: float):
    """Closed-form geometric sum over the finite backward orbit of w.

    Fixed point: delta_w.  Two-cycle {w, u}, u the partner in w's orbit class
    of R.exceptional_points: weights e^beta/(e^beta+1) at w and 1/(e^beta+1)
    at u.  Valid for every beta >= 0.
    """
    classes = R.exceptional_points(tol).orbit_classes
    (orbit,) = [c for c in classes if any(chordal_distance(p, w) <= tol for p in c)]
    partners = [p for p in orbit if chordal_distance(p, w) > tol]
    if not partners:
        measure = AtomicMeasure.delta(w)
    else:
        eb = math.exp(beta)
        measure = AtomicMeasure.from_sphere_atoms(
            [(w, eb / (eb + 1.0)), (partners[0], 1.0 / (eb + 1.0))], tol
        )
    return measure, 1.0 - math.exp(-beta)


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
    other anchors require a supercritical beta (states.phase), where the
    truncated series carries an explicit geometric tail bound.  An explicit
    depth wins; otherwise states.plan_depth picks one whose tail bound
    reaches 1e-6 within at most 131,072 atoms, with a warning when it
    cannot.  A beta that is None, negative or not finite is refused with
    ValueError.
    """
    if depth is not None:
        require_count("depth", depth)
    log_n = math.log(R.n)
    regime = phase(beta, False, log_n)[1]
    if R.branch_data(tol).index_at(w) < 2:
        raise NotABranchPoint(f"{w} is not a branched point of the map")
    if R.is_exceptional(w, tol):
        if regime == ZERO:
            raise OutOfRegime("exceptional anchors require beta > 0")
        measure, norm = _exceptional_closed_form(R, w, beta, tol)
        return KMSMeasure(measure=measure, anchor=w, beta=beta, kind=FINITE_TYPE,
                          normalization=norm, truncation_depth=0, tail_bound=0.0)
    if regime != SUPERCRITICAL:
        raise OutOfRegime(
            f"no finite-type state at beta={beta:.6g} <= log N={log_n:.6g} for a "
            "non-exceptional anchor"
        )
    if depth is None:
        depth = plan_depth(R.n, beta, atom_budget)
    tree = R.backward_orbit(w, depth, SET_COUNT, tol, atom_budget)
    q = math.exp(-beta)
    norm = 1.0 / sum(q**k * tree.level_mass(k) for k in range(depth + 1))
    weights = np.concatenate([(norm * q**k) * wgt for k, (_c, wgt) in enumerate(tree.levels)])
    measure = AtomicMeasure.from_sphere_rows(tree.rows(), weights, tol)
    qn = R.n * q
    return KMSMeasure(measure=measure, anchor=w, beta=beta, kind=FINITE_TYPE, normalization=norm,
                      truncation_depth=depth, tail_bound=norm * qn ** (depth + 1) / (1.0 - qn))


# ---------------------------------------------------------------------------
# trace-condition checks


def _branch_embedding(R: RationalMap, tol: float):
    return embedding_array(*homogeneous([p for p, _e in R.branch_data(tol).branch_points]))


def check_K1(
    R: RationalMap,
    mu: AtomicMeasure,
    beta: float,
    lib: TestFunctionLibrary | None = None,
    tol: float = DEFAULT_CLUSTER_TOL,
) -> ResidualReport:
    """Residuals of the equality condition on functions vanishing near B(R).

    Each library function is multiplied by a quintic cutoff that vanishes on
    the chordal DEFAULT_CUTOFF_RADIUS-neighborhood of the branched points, an
    admissible test function; the report returns max |e^{-beta} int a~ dmu - int a dmu|.
    """
    lib = lib or TestFunctionLibrary.sphere()
    residuals, _k2, masked = trace_conditions(
        lib, mu, fibre_table(R, mu, tol), beta, _branch_embedding(R, tol), DEFAULT_CUTOFF_RADIUS
    )
    worst = int(np.argmax(residuals)) if len(residuals) else 0
    return ResidualReport(
        max_residual=float(residuals.max()) if len(residuals) else 0.0,
        worst_function=lib.functions[worst].exponents,
        per_function=[float(r) for r in residuals],
        cutoff_radius=DEFAULT_CUTOFF_RADIUS,
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

    z, w = mu.coords.T
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
    require_count("n", n)
    tree = R.backward_orbit(y, n, INDEX_WEIGHTED, tol, atom_budget)
    coords, weights = tree.levels[n]
    pairs = zip(map(SpherePoint.from_row, *coords.T.tolist()), (weights / tree.level_mass(n)).tolist())
    return AtomicMeasure.from_sphere_atoms(list(pairs), tol)


def lyubich_invariance_residual(
    R: RationalMap, mu: AtomicMeasure, lib: TestFunctionLibrary | None = None
) -> float:
    """max over the library of |int f(R(x)) dmu - int f dmu|, summed a block of atoms at a time."""
    lib = lib or TestFunctionLibrary.sphere()
    if mu.n_atoms == 0:
        return 0.0
    lhs = lib.sums(embedding_array(*R.evaluate_array(*mu.coords.T)), mu.weights[:, None])[:, 0]
    return float(np.max(np.abs(lhs - lib.integrate_all(mu))))


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
    max_candidates: int = 64,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> WitnessReport:
    """Search the backward orbit of z for a mass-divergence witness.

    A witness w must have a depth-limited backward tree that stays clear of
    the branch values and has pairwise-disjoint levels; its full preimage
    levels then have exactly N^n points, each forced to carry e^{-n beta}
    times mu{w}, so the partial sums sum((N e^{-beta})^n) bound the total
    mass from below.  Failure to find one within the depth budget is
    inconclusive, not a refutation; a candidate whose tree passes
    atom_budget is rejected, a seed whose orbit does is refused.
    """
    log_n = math.log(R.n)
    if not 0.0 < beta < log_n:
        raise OutOfRegime(f"divergence argument applies for 0 < beta < log N = {log_n:.6g}")
    if R.is_exceptional(z, tol):
        raise ExceptionalSeed(f"seed {z} is exceptional; its backward orbit is finite")
    branch_values = R.branch_data(tol).branch_values

    orbit = R.backward_orbit(z, depth, SET_COUNT, tol, atom_budget)
    rows, levels = orbit.rows(), orbit.levels
    gens = np.repeat(np.arange(len(levels)), [len(wgt) for _c, wgt in levels])
    new, _size = founders(*rows.T, tol)
    # candidates are the new points of each level, up to the first level
    # that brings their count to max_candidates
    count = np.cumsum(np.bincount(gens[new], minlength=len(levels)))
    last = np.argmax(count >= max_candidates) if count[-1] >= max_candidates else len(levels) - 1
    candidates = [(i, int(gens[i])) for i in new.tolist() if gens[i] <= last]
    q = R.n * math.exp(-beta)
    sums = list(np.cumsum([q**n for n in range(depth + 1)]))

    rejected = 0
    for i, gen in candidates[:max_candidates]:
        w = SpherePoint.from_row(*rows[i].tolist())
        try:
            clear = _clear(R.backward_orbit(w, depth, SET_COUNT, tol, atom_budget), branch_values, tol)
        except AtomBudgetExceeded:
            clear = False
        if not clear:
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


def _clear(tree, branch_values, tol):
    """Whether the tree avoids the branch values and its levels are pairwise disjoint."""
    rows = tree.rows()
    gaps = nearest_distance(embedding_array(*rows.T), embedding_array(*homogeneous(branch_values)))
    return bool(np.all(gaps > 1e-6)) and len(founders(*rows.T, tol)[0]) == len(rows)


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
    if regime == ZERO:
        states = [_zero_state(R, orbit, tol) for orbit in exc.orbit_classes]
    else:
        branched = regime == SUPERCRITICAL
        anchors = [p for p, _e in R.branch_data(tol).branch_points] if branched else exc.points
        states = [
            ExtremeState(
                FINITE_TYPE, (w,), _point_label(w),
                _exceptional_closed_form(R, w, beta_val, tol)[0] if R.is_exceptional(w, tol) else None,
            )
            for w in anchors
        ]
    if regime == CRITICAL:
        states.append(ExtremeState(INFINITE_TYPE, (), "lyubich"))
    return PhaseReport(beta_val, regime, states)


def _zero_state(R: RationalMap, orbit, tol: float) -> ExtremeState:
    """The invariant trace on one exceptional orbit class: the closed form at beta = 0."""
    label = "+".join(map(_point_label, orbit))
    return ExtremeState(ZERO_TYPE, tuple(orbit), label if len(orbit) == 1 else "cycle " + label,
                        _exceptional_closed_form(R, orbit[0], 0.0, tol)[0])


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
    asserted = list(julia_branch_points)
    for p in asserted:
        if data.index_at(p) < 2:
            raise NotABranchPoint(f"{p} asserted in the Julia set is not a branched point")
    anchors = asserted if regime == SUPERCRITICAL else []
    states = [ExtremeState(FINITE_TYPE, (w,), _point_label(w)) for w in anchors]
    if regime == CRITICAL:
        states.append(ExtremeState(INFINITE_TYPE, (), "lyubich"))
    return PhaseReport(beta_val, regime, states)


def _point_label(p: SpherePoint) -> str:
    if p.is_infinity():
        return "inf"
    a = p.to_affine()
    return f"{a.real:.12g}{a.imag:+.12g}i"
