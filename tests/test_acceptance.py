"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Expected values marked as derived below are computed from the
stated independent oracle (direct geometric sums, closed-form weights,
multiplicity bookkeeping) inside the test itself.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kmsdyn import exact as xq
from kmsdyn.ifs import check_K1_ifs, hutchinson, kms_measure_ifs, orbit_condition, preset
from kmsdyn.kms import (
    check_K1,
    check_K2,
    classify,
    divergence_witness,
    kms_measure,
    lyubich,
    lyubich_invariance_residual,
)
from kmsdyn.ifs import classify_ifs
from kmsdyn.mapexpr import parse_map
from kmsdyn.measure import TestFunctionLibrary, integrate
from kmsdyn.projective import SpherePoint, chordal_distance
from kmsdyn.ratmap import RationalMap

LIB = TestFunctionLibrary.sphere()
LIB_NORM = max(f.sup_norm for f in LIB.functions)
INF = SpherePoint.infinity()


def aff(c):
    return SpherePoint.from_affine(c)


def report(n, text):
    print(f"[acceptance] criterion {n:2d} PASS - {text}", flush=True)


def test_criterion_01_reciprocal_square_exact_weights():
    t0 = time.perf_counter()
    R = parse_map("1/z^2")
    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        eb = math.exp(beta)
        for anchor, big, small in ((aff(0), "0", "inf"), (INF, "inf", "0")):
            km = kms_measure(R, anchor, beta)
            got = {("inf" if p.is_infinity() else "0"): w for p, w in km.measure.iter_atoms()}
            assert abs(got[big] - eb / (eb + 1)) <= 1e-12
            assert abs(got[small] - 1 / (eb + 1)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"1/z^2 two-cycle weights e^b/(e^b+1), 1/(e^b+1) to 1e-12 ({elapsed:.2f}s)")


def test_criterion_02_power_maps_dirac_anchors():
    for n in (2, 3, 4):
        R = parse_map(f"z^{n}")
        assert R.exceptional_points().case_tag == "TwoFixed"
        for beta in (0.1, 1.0, 10.0):
            km0 = kms_measure(R, aff(0), beta)
            assert km0.measure.n_atoms == 1
            assert chordal_distance(km0.measure.points[0], aff(0)) == 0.0
            assert km0.measure.weights[0] == 1.0
            kmi = kms_measure(R, INF, beta)
            assert kmi.measure.n_atoms == 1
            assert kmi.measure.points[0].is_infinity()
            assert kmi.measure.weights[0] == 1.0
    report(2, "z^N anchors give exact Dirac measures; case TwoFixed")


def test_criterion_03_phase_structure_z2_plus_1():
    t0 = time.perf_counter()
    R = parse_map("z^2+1")
    expected = [1, 1, 2, 2, 2]
    got = []
    lyubich_seen = False
    for beta in (0.3, 0.6, None, 0.8, 1.5):
        rep = classify(R, beta=beta, critical=beta is None)
        got.append(len(rep.extreme_states))
        if beta is None:
            kinds = [s.kind for s in rep.extreme_states]
            lyubich_seen = "infinite" in kinds
    elapsed = time.perf_counter() - t0
    assert got == expected
    assert lyubich_seen
    assert elapsed < 5.0
    report(3, f"state counts {got} over the beta grid, critical includes the "
              f"invariant state ({elapsed:.2f}s)")


def test_criterion_04_trace_residuals_within_tail_bound():
    R = parse_map("z^2+1")
    beta = 1.0
    km = kms_measure(R, aff(0), beta, depth=14)
    # stated bound: (2/e)^15 / (1 - 2/e) * normalization
    tail = (2 / math.e) ** 15 / (1 - 2 / math.e) * km.normalization
    assert km.tail_bound == pytest.approx(tail, rel=1e-12)
    k1 = check_K1(R, km.measure, beta, LIB)
    k2 = check_K2(R, km.measure, beta, LIB)
    allowed = 10.0 * tail * LIB_NORM
    assert k1.max_residual <= allowed
    assert k2.max_violation <= allowed
    report(4, f"depth-14 residuals K1={k1.max_residual:.2e}, "
              f"K2={k2.max_violation:.2e} within 10x tail bound {allowed:.2e}")


def test_criterion_05_lyubich_invariance_and_symmetry():
    t0 = time.perf_counter()
    R = parse_map("z^2")
    mu = lyubich(R, aff(1), 16)
    assert mu.n_atoms == 65536
    residual = lyubich_invariance_residual(R, mu, LIB)
    first = [f for f in LIB.functions if sum(f.exponents) == 1]
    moments = [abs(integrate(mu, f)) for f in first]
    elapsed = time.perf_counter() - t0
    assert residual <= 1e-3
    assert max(moments) <= 1e-10
    assert elapsed < 10.0
    report(5, f"mu_16^1: 65536 atoms, invariance residual {residual:.1e}, "
              f"first moment {max(moments):.1e} ({elapsed:.1f}s)")


def test_criterion_06_divergence_witness_partial_sums():
    R = parse_map("z^2")
    rep = divergence_witness(R, aff(1), 0.5, depth=12)
    # independent oracle: direct geometric sum
    q = 2.0 * math.exp(-0.5)
    oracle = sum(q**n for n in range(13))
    assert rep.partial_sum == pytest.approx(oracle, rel=1e-12)
    assert rep.partial_sum >= 45.0
    report(6, f"witness {rep.witness} certifies mass >= {rep.partial_sum:.2f} "
              f"(geometric oracle {oracle:.2f})")


def _random_exact_poly(rng, deg, lead_nonzero):
    coeffs = []
    for _ in range(deg + 1):
        coeffs.append(
            xq.QG(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
            )
        )
    if lead_nonzero:
        while not coeffs[-1]:
            coeffs[-1] = xq.QG(Fraction(int(rng.integers(1, 10))), 0)
    return xq.xp_trim(coeffs)


def test_criterion_07_riemann_hurwitz_property_suite():
    rng = np.random.default_rng(20260809)
    maps_checked = 0
    while maps_checked < 50:
        deg = int(rng.integers(2, 6))
        p = _random_exact_poly(rng, deg, True)
        q = _random_exact_poly(rng, int(rng.integers(0, deg + 1)), False)
        if not xq.xp_trim(q):
            continue
        if max(xq.xp_degree(p), xq.xp_degree(q)) < 2:
            continue
        if xq.xp_degree(xq.xp_gcd(p, q)) != 0:
            continue
        R = RationalMap(p, q)
        total = sum(e - 1 for _pt, e in R.branch_data().branch_points)
        assert total == 2 * R.n - 2
        for _ in range(20):
            y = aff(complex(rng.normal(), rng.normal()))
            assert sum(e for _x, e in R.preimages(y)) == R.n
        maps_checked += 1
    report(7, "50 random degree-2..5 maps: sum(e-1)=2N-2 and sum e(x)=N on 20 points each")


def test_criterion_08_tent_map():
    tent = preset("tent")
    mu = hutchinson(tent, 20)
    box = ((0.0, 1.0),)
    lib = TestFunctionLibrary.plane(degree=2, box=box)
    m1 = integrate(mu, [f for f in lib.functions if f.exponents == (1,)][0])
    m2 = integrate(mu, [f for f in lib.functions if f.exponents == (2,)][0])
    assert abs(m1 - 0.5) <= 1e-6
    assert abs(m2 - 1.0 / 3.0) <= 1e-5
    beta = math.log(4.0)
    km = kms_measure_ifs(tent, [0.5], beta, depth=12)
    assert km.normalization == 0.5  # exactly 1 - 2/e^beta at e^beta = 4
    k1, k2 = check_K1_ifs(tent, km.measure, beta)
    assert k1 <= km.tail_bound
    assert k2 <= km.tail_bound
    report(8, f"tent: Lebesgue moments ({m1:.7f}, {m2:.7f}), prefactor exactly 1/2, "
              f"trace analogues within {km.tail_bound:.1e}")


def test_criterion_09_twisted_sierpinski():
    tw = preset("sierpinski-twisted")
    s3 = math.sqrt(3.0)
    expected = sorted([(0.25, s3 / 4), (0.75, s3 / 4), (0.5, 0.0)])
    got = sorted(tuple(x) for x in tw.branch_structure().branch_points)
    for g, e in zip(got, expected):
        assert abs(g[0] - e[0]) <= 1e-9 and abs(g[1] - e[1]) <= 1e-9
    counts = [
        len(classify_ifs(tw, 1.0).extreme_states),
        len(classify_ifs(tw, critical=True).extreme_states),
        len(classify_ifs(tw, 1.5).extreme_states),
    ]
    assert counts == [0, 1, 3]
    oc = orbit_condition(tw, depth=10)
    assert oc.certified
    assert all(e.witness_depth <= 10 for e in oc.entries)
    report(9, f"twisted gasket: midpoint branch points to 1e-9, counts {counts}, "
              "orbit condition certified")


def test_criterion_10_zero_kms_states():
    rep = classify(parse_map("1/z^2"), 0.0)
    assert len(rep.extreme_states) == 1
    weights = {
        ("inf" if p.is_infinity() else "0"): w
        for p, w in rep.extreme_states[0].restriction.iter_atoms()
    }
    assert weights["0"] == 0.5 and weights["inf"] == 0.5

    rep = classify(parse_map("z^2"), 0.0)
    assert len(rep.extreme_states) == 2
    anchors = set()
    for s in rep.extreme_states:
        assert s.restriction.n_atoms == 1 and s.restriction.weights[0] == 1.0
        anchors.add("inf" if s.restriction.points[0].is_infinity() else "0")
    assert anchors == {"0", "inf"}

    rep = classify(parse_map("z^2+1"), 0.0)
    assert len(rep.extreme_states) == 1
    st = rep.extreme_states[0].restriction
    assert st.n_atoms == 1 and st.points[0].is_infinity() and st.weights[0] == 1.0
    report(10, "zero-temperature states: (d_0+d_inf)/2 for 1/z^2, {d_0, d_inf} for z^2, "
               "d_inf for z^2+1")
