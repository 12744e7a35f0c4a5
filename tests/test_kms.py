"""KMS classification engine: explicit measures, trace checks, phase reports."""

import math
import warnings

import numpy as np
import pytest

from kmsdyn.errors import (
    AtomBudgetExceeded,
    ExceptionalSeed,
    NotABranchPoint,
    OutOfRegime,
    WitnessNotFoundAtDepth,
)
from kmsdyn.kms import (
    check_K1,
    check_K2,
    classify,
    classify_julia,
    divergence_witness,
    kms_measure,
    lyubich,
    lyubich_invariance_residual,
)
from kmsdyn.ifs import check_K1_ifs, kms_measure_ifs, preset, tilde_ifs
from kmsdyn.mapexpr import parse_map
from kmsdyn.measure import DEFAULT_CUTOFF_RADIUS, AtomicMeasure, TestFunctionLibrary, integrate, tilde
from kmsdyn.polyroots import BLOCK_ROWS
from kmsdyn.projective import SpherePoint, chordal_distance, embedding_array
from kmsdyn.ratmap import RationalMap

from merge_oracles import _SphereHash

LIB = TestFunctionLibrary.sphere()
INF = SpherePoint.infinity()


def aff(c):
    return SpherePoint.from_affine(c)


# ---------------------------------------------------------------------------
# explicit KMS measures


def test_power_map_anchors_are_dirac():
    for n in (2, 3, 4):
        R = parse_map(f"z^{n}")
        for beta in (0.1, 1.0, 10.0):
            km0 = kms_measure(R, aff(0), beta)
            assert km0.measure.n_atoms == 1
            assert chordal_distance(km0.measure.points[0], aff(0)) == 0.0
            assert km0.measure.weights[0] == 1.0
            kminf = kms_measure(R, INF, beta)
            assert kminf.measure.n_atoms == 1
            assert kminf.measure.points[0].is_infinity()
            assert km0.tail_bound == 0.0 and kminf.tail_bound == 0.0


def test_reciprocal_square_two_cycle_weights():
    R = parse_map("1/z^2")
    for beta in (0.1, 0.5, 1.0, 2.0, 5.0):
        km = kms_measure(R, aff(0), beta)
        eb = math.exp(beta)
        got = {("inf" if p.is_infinity() else "0"): w for p, w in km.measure.iter_atoms()}
        assert got["0"] == pytest.approx(eb / (eb + 1), abs=1e-12)
        assert got["inf"] == pytest.approx(1 / (eb + 1), abs=1e-12)
        km_inf = kms_measure(R, INF, beta)
        got = {("inf" if p.is_infinity() else "0"): w for p, w in km_inf.measure.iter_atoms()}
        assert got["inf"] == pytest.approx(eb / (eb + 1), abs=1e-12)
        assert got["0"] == pytest.approx(1 / (eb + 1), abs=1e-12)


def test_truncated_series_normalization_and_tail():
    R = parse_map("z^2+1")
    beta = 1.0
    km = kms_measure(R, aff(0), beta, depth=14)
    # every level of the backward tree of 0 is full, so the truncated
    # normalization is the inverse partial geometric sum
    expected_norm = 1.0 / sum((2 / math.e) ** k for k in range(15))
    assert km.normalization == pytest.approx(expected_norm, rel=1e-12)
    assert km.normalization == pytest.approx(1 - 2 / math.e, rel=2e-2)
    assert km.measure.total_mass() == pytest.approx(1.0, abs=1e-12)
    expected_tail = km.normalization * (2 / math.e) ** 15 / (1 - 2 / math.e)
    assert km.tail_bound == pytest.approx(expected_tail, rel=1e-12)
    assert km.measure.n_atoms == 2**15 - 1


def test_kms_measure_point_mass_chain():
    R = parse_map("z^2+1")
    km = kms_measure(R, aff(0), 1.0, depth=8)
    mu = km.measure
    branch = [p for p, _e in R.branch_data().branch_points]
    ebeta = math.exp(-1.0)
    for p, w in mu.iter_atoms():
        if any(chordal_distance(p, b) <= 1e-8 for b in branch):
            continue
        img = mu.point_mass(R.evaluate(p))
        assert abs(ebeta * img - w) <= 1e-9 * km.normalization


def test_kms_measure_merges_across_levels():
    # 0 -> -1 -> 0 under z^2 - 1, so 0 recurs in the even levels of its own orbit
    R = parse_map("z^2-1")
    assert R.backward_orbit(aff(0), 6).atom_count() == 88
    km = kms_measure(R, aff(0), 1.0, depth=6)
    assert km.measure.n_atoms == 65
    assert km.measure.point_mass(aff(0)) == pytest.approx(0.3991085051563811, rel=0.0, abs=1e-12)


def test_kms_measure_regime_errors():
    R = parse_map("z^2+1")
    with pytest.raises(OutOfRegime):
        kms_measure(R, aff(0), 0.5)  # 0 is not exceptional; 0.5 < log 2
    with pytest.raises(OutOfRegime):
        kms_measure(R, aff(0), math.log(2.0))
    with pytest.raises(NotABranchPoint):
        kms_measure(R, aff(3), 2.0)
    with pytest.raises(OutOfRegime):
        kms_measure(R, INF, 0.0)  # exceptional anchors need beta > 0
    # near-critical warning advertises the attainable tail
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kms_measure(parse_map("z^2"), aff(0), math.log(2.0) + 0.01)
        # exceptional anchor: closed form, no warning expected
        assert not caught


@pytest.mark.parametrize("depth", [2.0, True, -1, "3"])
def test_kms_measure_rejects_depths_that_are_not_integers(monkeypatch, depth):
    # refused before the branch data is read, not left to fail in range()
    monkeypatch.setattr(RationalMap, "branch_data", lambda *a, **k: pytest.fail("work before the check"))
    with pytest.raises(ValueError, match="must be an integer"):
        kms_measure(parse_map("z^2+1"), aff(0), 1.0, depth=depth)


def test_exceptional_measures_pass_K1_K2_exactly():
    R = parse_map("1/z^2")
    for beta in (0.3, 1.0):
        km = kms_measure(R, aff(0), beta)
        assert check_K1(R, km.measure, beta, LIB).max_residual <= 1e-10
        assert check_K2(R, km.measure, beta, LIB).max_violation <= 1e-12


@pytest.mark.parametrize("expr", ["1/z^2", "1/(z-1/3)^2+1/3", "1/(z-2)^3+2",
                                  "1/(z-(3/7-2*i/9))^4+(3/7-2*i/9)"])
def test_exceptional_states_sit_on_the_exceptional_points_bit_for_bit(expr):
    # every state anchored on the swapped pair, the beta = 0 trace included,
    # has the two points of exceptional_points as its atoms, signed zeros too
    R = parse_map(expr)
    exc = R.exceptional_points()
    assert exc.case_tag == "TwoSwapped"
    want = sorted(np.array([p.z, p.w]).tobytes() for p in exc.points)
    for beta in (0.0, 0.5, math.log(R.n), 2.0):
        measures = []
        for state in classify(R, beta=beta).extreme_states:
            if state.anchors and R.is_exceptional(state.anchors[0]):
                measures.append(state.restriction)
                if beta > 0:
                    measures.append(kms_measure(R, state.anchors[0], beta).measure)
        assert len(measures) == (1 if beta == 0 else 4)
        for mu in measures:
            assert sorted(row.tobytes() for row in mu.coords) == want


def test_k1_vanishes_on_branch_supported_measure():
    R = parse_map("z^2")
    mu = AtomicMeasure.delta(aff(0))
    for beta in (0.2, 1.0, 3.0):
        assert check_K1(R, mu, beta, LIB).max_residual == 0.0


def test_truncated_measure_residuals_within_tail():
    R = parse_map("z^2+1")
    beta = 1.0
    km = kms_measure(R, aff(0), beta, depth=10)
    lib_norm = max(f.sup_norm for f in LIB.functions)
    k1 = check_K1(R, km.measure, beta, LIB)
    assert k1.max_residual <= km.tail_bound * lib_norm
    k2 = check_K2(R, km.measure, beta, LIB)
    assert k2.max_violation <= 2.0 * km.tail_bound * lib_norm
    assert k2.point_mass_equality_residual <= 1e-12


def test_k2_detects_subcritical_point_mass():
    # a non-exceptional point mass below log N violates the domination
    R = parse_map("z^2")
    mu = AtomicMeasure.delta(aff(1))
    rep = check_K2(R, mu, 0.5, LIB)
    assert rep.max_violation > 0.1


def _scalar_trace_conditions(mu, beta, lib, tilde_at, branch, dist, rho=1e-3):
    """Per-function K1 residuals and the worst K2 violation, point by point.

    tilde_at(a, y) sums a over the fibre of y; dist is the metric of the
    branch cutoff.
    """

    def cutoff(x):
        d = min((dist(x, b) for b in branch), default=math.inf)
        t = min(max((d - rho) / rho, 0.0), 1.0)
        return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    eb = math.exp(-beta)
    k1, k2 = [], 0.0
    for f in lib.functions:
        a = lambda x, f=f: f(x) * cutoff(x)
        k1.append(abs(eb * integrate(mu, lambda y: tilde_at(a, y)) - integrate(mu, a)))
        for sign in (1.0, -1.0):
            a = lambda x, f=f, sign=sign: f.sup_norm + sign * f(x)
            k2 = max(k2, eb * integrate(mu, lambda y: tilde_at(a, y)) - integrate(mu, a))
    return k1, k2


def test_rational_trace_checks_match_scalar_oracle():
    R = parse_map("z^2+1")
    mu = kms_measure(R, aff(0), 1.0, depth=6).measure
    k1, k2 = _scalar_trace_conditions(
        mu, 1.0, LIB, lambda a, y: tilde(R, a, y),
        [p for p, _e in R.branch_data().branch_points], chordal_distance,
    )
    rep1 = check_K1(R, mu, 1.0, LIB)
    assert rep1.per_function == pytest.approx(k1, rel=0.0, abs=1e-12)
    assert rep1.max_residual == pytest.approx(max(k1), rel=0.0, abs=1e-12)
    assert check_K2(R, mu, 1.0, LIB).function_violation == pytest.approx(k2, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name, anchor, beta, depth", [
    ("tent", [0.5], math.log(4.0), 8),
    ("sierpinski-twisted", None, 1.5, 3),
])
def test_ifs_trace_checks_match_scalar_oracle(name, anchor, beta, depth):
    gamma = preset(name)
    branch = gamma.branch_structure().branch_points
    mu = kms_measure_ifs(gamma, branch[0] if anchor is None else anchor, beta, depth=depth).measure
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box())
    k1, k2 = _scalar_trace_conditions(
        mu, beta, lib, lambda a, y: tilde_ifs(gamma, a, y),
        branch, lambda x, b: float(np.linalg.norm(x - b)), rho=DEFAULT_CUTOFF_RADIUS * gamma.radius,
    )
    got_k1, got_k2 = check_K1_ifs(gamma, mu, beta, lib)
    assert got_k1 == pytest.approx(max(k1), rel=0.0, abs=1e-12)
    assert got_k2 == pytest.approx(k2, rel=0.0, abs=1e-12)


def test_ifs_trace_cutoff_radius_is_relative_to_the_system():
    # an atom 0.9e-3 from a branch point of the twisted gasket (radius about
    # 0.79) lies inside the unscaled radius 1e-3 but outside 1e-3 * radius,
    # so only the relative cutoff weighs it
    gamma = preset("sierpinski-twisted")
    branch = gamma.branch_structure().branch_points
    km = kms_measure_ifs(gamma, branch[0], 1.5, depth=3).measure
    planted = branch[0] + np.array([0.9e-3, 0.0])
    mu = AtomicMeasure(km.space, coords=np.vstack([km.coords, planted]),
                       weights=np.append(km.weights, 0.05))
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box())

    def oracle_k1(rho):
        k1, _k2 = _scalar_trace_conditions(
            mu, 1.5, lib, lambda a, y: tilde_ifs(gamma, a, y),
            branch, lambda x, b: float(np.linalg.norm(x - b)), rho=rho,
        )
        return max(k1)

    relative = oracle_k1(DEFAULT_CUTOFF_RADIUS * gamma.radius)
    assert abs(relative - oracle_k1(DEFAULT_CUTOFF_RADIUS)) > 1e-6
    got_k1, _got_k2 = check_K1_ifs(gamma, mu, 1.5, lib)
    assert got_k1 == pytest.approx(relative, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("source", ["z^2+1", "z^2-1"])
def test_k2_point_masses_match_sphere_hash_oracle(source):
    R = parse_map(source)
    mu = kms_measure(R, aff(0), 1.0, depth=6).measure
    grid = _SphereHash(1e-8)
    for i, p in enumerate(mu.points):
        grid.insert(p, i)
    hits = [grid.find(R.evaluate(p)) for p in mu.points]
    img_mass = np.array([0.0 if hit is None else mu.weights[hit] for hit in hits])
    gaps = math.exp(-1.0) * img_mass - mu.weights
    branch = [p for p, _e in R.branch_data().branch_points]
    off_branch = [min(chordal_distance(p, b) for b in branch) > 1e-8 for p in mu.points]
    rep = check_K2(R, mu, 1.0, LIB)
    assert rep.point_mass_violation == max(gaps.max(), 0.0)
    assert rep.point_mass_equality_residual == np.abs(gaps[off_branch]).max(initial=0.0)
    assert any(hit is not None for hit in hits)


def test_k1_then_k2_solve_each_fibre_once(monkeypatch):
    R = parse_map("z^2+1")
    mu = kms_measure(R, aff(0), 1.0, depth=6).measure
    # a target counts once per solve, batch (fibres) or scalar (preimages
    # called from outside fibres, whose fallback rows it solves itself)
    solved = []
    inside = []
    fibres, preimages = RationalMap.fibres, RationalMap.preimages

    def counting_fibres(self, z, w, *args, **kwargs):
        solved.extend(z)
        inside.append(True)
        try:
            return fibres(self, z, w, *args, **kwargs)
        finally:
            inside.pop()

    def counting_preimages(self, y, *args, **kwargs):
        if not inside:
            solved.append(y)
        return preimages(self, y, *args, **kwargs)

    monkeypatch.setattr(RationalMap, "fibres", counting_fibres)
    monkeypatch.setattr(RationalMap, "preimages", counting_preimages)
    check_K1(R, mu, 1.0, LIB)
    check_K2(R, mu, 1.0, LIB)
    assert len(solved) == mu.n_atoms


def test_delta_infinity_satisfies_K2_for_all_beta():
    R = parse_map("z^2+1")
    mu = AtomicMeasure.delta(INF)
    for beta in (0.0, 0.3, math.log(2.0), 2.0):
        rep = check_K2(R, mu, beta, LIB)
        assert rep.max_violation <= 1e-12


# ---------------------------------------------------------------------------
# Lyubich approximants


def test_lyubich_small_cases():
    R = parse_map("z^2")
    mu = lyubich(R, aff(1), 3)
    assert mu.n_atoms == 8
    for p, w in mu.iter_atoms():
        assert w == pytest.approx(1 / 8)
        assert abs(p.to_affine() ** 8 - 1) < 1e-9
    mu0 = lyubich(R, aff(1), 0)
    assert mu0.n_atoms == 1 and mu0.weights[0] == 1.0


def test_lyubich_mass_exact_through_16():
    R = parse_map("z^2")
    for n in (5, 10, 16):
        mu = lyubich(R, aff(1), n)
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_lyubich_rejects_exceptional_seed():
    with pytest.raises(ExceptionalSeed):
        lyubich(parse_map("z^2"), aff(0), 4)


@pytest.mark.parametrize("n", [2.0, True, -1, "3", None])
def test_lyubich_rejects_counts_that_are_not_integers(monkeypatch, n):
    # refused before the orbit is built, not left to fail in range() or to
    # run True as one level
    monkeypatch.setattr(RationalMap, "backward_orbit", lambda *a, **k: pytest.fail("orbit built"))
    with pytest.raises(ValueError, match="must be an integer"):
        lyubich(parse_map("z^2"), aff(1), n)


def test_invariance_residual_blocks_match_the_full_matrix():
    # 2^14 atoms, two blocks of the library sums; the full-matrix formula
    # adds the same terms in another order
    R = parse_map("z^2")
    mu = lyubich(R, aff(0.5 + 0.2j), 14)
    assert mu.n_atoms == 2**14 > BLOCK_ROWS
    lhs = LIB.values_matrix(embedding_array(*R.evaluate_array(*mu.coords.T))) @ mu.weights
    full = float(np.max(np.abs(lhs - LIB.values_matrix(mu.embedding()) @ mu.weights)))
    assert full > 1e-6
    assert abs(lyubich_invariance_residual(R, mu, LIB) - full) <= 1e-15


def test_invariance_residual_decreases():
    R = parse_map("z^2")
    residuals = [lyubich_invariance_residual(R, lyubich(R, aff(2), n), LIB)
                 for n in (2, 6, 12)]
    assert residuals[2] < residuals[0]
    assert residuals[2] <= 1e-3


def test_invariance_residual_trivial_cases():
    R = parse_map("z^3")
    assert lyubich_invariance_residual(R, AtomicMeasure.delta(aff(0)), LIB) == 0.0
    Rp = parse_map("z^2+1")
    res = lyubich_invariance_residual(Rp, AtomicMeasure.delta(aff(1)), LIB)
    assert res > 0.1  # delta_1 pushes to delta_2


# ---------------------------------------------------------------------------
# divergence witness


def test_witness_for_square_map():
    R = parse_map("z^2")
    rep = divergence_witness(R, aff(1), 0.5, depth=10)
    q = 2 * math.exp(-0.5)
    assert rep.partial_sum == pytest.approx(sum(q**n for n in range(11)))
    assert rep.partial_sum >= q**10
    # the seed itself recurs in its own backward orbit, so the witness is deeper
    assert rep.generation >= 1


def test_witness_for_z2_plus_1():
    R = parse_map("z^2+1")
    rep = divergence_witness(R, aff(0), 0.6, depth=8)
    assert rep.partial_sum == pytest.approx(sum((2 * math.exp(-0.6)) ** n for n in range(9)))


def test_witness_refuses_an_over_budget_seed_and_rejects_over_budget_candidates():
    # from the branch value 1 of z^2+1 the depth-6 orbit holds 64 atoms, and
    # each candidate's own tree 127: at a budget of 64 the seed's orbit fits
    # and every candidate is rejected, at 63 the seed's orbit is refused
    R = parse_map("z^2+1")
    assert divergence_witness(R, aff(1), 0.5, depth=6).generation == 1
    with pytest.raises(WitnessNotFoundAtDepth):
        divergence_witness(R, aff(1), 0.5, depth=6, atom_budget=64)
    with pytest.raises(AtomBudgetExceeded, match="^backward orbit could create 64 atoms, more than the budget of 63$"):
        divergence_witness(R, aff(1), 0.5, depth=6, atom_budget=63)


def test_witness_precondition_errors():
    R = parse_map("z^2")
    with pytest.raises(ExceptionalSeed):
        divergence_witness(R, aff(0), 0.5)
    with pytest.raises(OutOfRegime):
        divergence_witness(R, aff(1), 0.8)  # above log 2
    with pytest.raises(WitnessNotFoundAtDepth):
        divergence_witness(R, aff(1), 0.5, depth=3, max_candidates=1)


# ---------------------------------------------------------------------------
# classification


def test_classify_z2_plus_1_regimes():
    R = parse_map("z^2+1")
    rep = classify(R, 0.5)
    assert rep.regime == "Subcritical" and rep.counts == (1, 0)
    assert rep.extreme_states[0].anchors[0].is_infinity()
    rep = classify(R, critical=True)
    assert rep.regime == "Critical" and rep.counts == (1, 1)
    kinds = sorted(s.kind for s in rep.extreme_states)
    assert kinds == ["finite", "infinite"]
    rep = classify(R, 1.2)
    assert rep.regime == "Supercritical" and rep.counts == (2, 0)


def test_classify_critical_detection_tolerance():
    R = parse_map("z^2")
    assert classify(R, math.log(2.0)).regime == "Critical"
    assert classify(R, math.log(2.0) + 1e-9).regime == "Supercritical"
    assert classify(R, math.log(2.0) - 1e-9).regime == "Subcritical"


def test_classify_zero_kms():
    rep = classify(parse_map("1/z^2"), 0.0)
    assert rep.regime == "Zero"
    assert len(rep.extreme_states) == 1
    mix = rep.extreme_states[0].restriction
    weights = {("inf" if p.is_infinity() else "0"): w for p, w in mix.iter_atoms()}
    assert weights == {"0": 0.5, "inf": 0.5}

    rep = classify(parse_map("z^2"), 0.0)
    assert len(rep.extreme_states) == 2
    for s in rep.extreme_states:
        assert s.restriction.n_atoms == 1 and s.restriction.weights[0] == 1.0

    rep = classify(parse_map("z^2+1"), 0.0)
    assert len(rep.extreme_states) == 1
    assert rep.extreme_states[0].restriction.points[0].is_infinity()

    rep = classify(parse_map("(z^3-16/27)/z"), 0.0)
    assert rep.extreme_states == []


def test_classify_grid_switches_exactly_at_log_two():
    R = parse_map("z^2+1")
    counts = []
    for beta in (0.3, 0.6, None, 0.8, 1.5):
        rep = classify(R, beta=beta, critical=beta is None)
        counts.append(len(rep.extreme_states))
    assert counts == [1, 1, 2, 2, 2]


def test_classify_julia_variant():
    R = parse_map("z^2")
    # neither branched point of z^2 lies on the unit circle: no states above
    rep = classify_julia(R, 2.0, julia_branch_points=[])
    assert rep.counts == (0, 0)
    rep = classify_julia(R, critical=True)
    assert rep.counts == (0, 1)
    rep = classify_julia(R, 0.3)
    assert rep.extreme_states == []
    # an asserted membership produces the corresponding state
    rep = classify_julia(parse_map("(z^3-16/27)/z"), 2.0,
                         julia_branch_points=[p for p, _e in
                                              parse_map("(z^3-16/27)/z").branch_data().branch_points][:2])
    assert rep.counts == (2, 0)
    with pytest.raises(NotABranchPoint):
        classify_julia(R, 2.0, julia_branch_points=[aff(0.5)])
    # the same typed errors as classify, not a raw TypeError or a silent report
    with pytest.raises(ValueError, match="beta required unless critical=True"):
        classify_julia(R)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        classify_julia(R, -0.5)


def test_supercritical_states_carry_exceptional_restrictions():
    rep = classify(parse_map("1/z^2"), 3.0)
    assert rep.counts == (2, 0)
    for s in rep.extreme_states:
        assert s.restriction is not None
        assert s.restriction.total_mass() == pytest.approx(1.0)


def test_classify_critical_without_exceptional_points():
    # the gasket map has no exceptional points: the invariant state stands alone
    R = parse_map("(z^3-16/27)/z")
    rep = classify(R, critical=True)
    assert rep.counts == (0, 1)
    assert rep.extreme_states[0].label == "lyubich"
    assert classify(R, 0.5).extreme_states == []
    assert classify(R, 2.0).counts == (len(R.branch_data().branch_points), 0)


def test_witness_skips_branch_value_seeds():
    # 1 is a branch value of z^2+1, so the seed's own tree touches C(R);
    # the search must advance to its preimage 0
    R = parse_map("z^2+1")
    rep = divergence_witness(R, aff(1), 0.5, depth=8)
    assert rep.candidates_rejected >= 1
    assert chordal_distance(rep.witness, aff(0)) <= 1e-9
    assert rep.generation == 1


def test_kms_measure_warns_near_critical_auto_depth():
    R = parse_map("z^2+1")
    beta = math.log(2.0) + 0.01
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        km = kms_measure(R, aff(0), beta, atom_budget=2000)
    assert any("tail" in str(w.message) for w in caught)
    assert km.measure.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_k1_reports_masked_mass():
    # the anchor atom of mu_{beta,0} sits on a branched point, so the cutoff
    # masks exactly its weight (= the normalization)
    R = parse_map("z^2+1")
    km = kms_measure(R, aff(0), 1.0, depth=6)
    rep = check_K1(R, km.measure, 1.0, LIB)
    assert rep.masked_mass == pytest.approx(km.normalization, rel=1e-9)
    assert rep.cutoff_radius == 1e-3
