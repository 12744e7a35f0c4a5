"""Rational-map structure: evaluation, preimages, branch data, orbits.

The backward-orbit oracle below recurses through numpy.roots with naive
O(n^2) clustering, fully independent of the production preimage engine.
"""

import numpy as np
import pytest

from kmsdyn import ratmap
from kmsdyn.errors import AtomBudgetExceeded, DegreeTooLow, ExceptionalSeed
from kmsdyn.kms import lyubich
from kmsdyn.mapexpr import parse_map
from kmsdyn import exact as xq
from kmsdyn.polyroots import Poly, derivative
from kmsdyn.projective import SpherePoint, chordal_distance, embedding_array, homogeneous
from kmsdyn.ratmap import INDEX_WEIGHTED, SET_COUNT, RationalMap

from merge_oracles import pairs_backward_orbit
from test_acceptance import _random_exact_poly


def aff(c):
    return SpherePoint.from_affine(c)


INF = SpherePoint.infinity()


def pairs(level):
    """An OrbitTree level (coords, weights) as (SpherePoint, weight) pairs."""
    coords, weights = level
    return [(SpherePoint.from_row(*row), w) for row, w in zip(coords.tolist(), weights.tolist())]


# ---------------------------------------------------------------------------
# oracle


def oracle_preimage_set(R, y, tol=1e-7):
    """Distinct preimages via numpy.roots on the homogeneous combination."""
    n = R.n
    hp = np.zeros(n + 1, dtype=complex)
    hq = np.zeros(n + 1, dtype=complex)
    hp[: len(R.p.coeffs)] = R.p.coeffs
    hq[: len(R.q.coeffs)] = R.q.coeffs
    c = (y.w * hp - y.z * hq)[::-1]  # descending for numpy
    scale = np.max(np.abs(c))
    out = []
    deg_drop = 0
    while abs(c[deg_drop]) <= 1e-12 * scale:
        deg_drop += 1
    if deg_drop:
        out.append(INF)
    cc = c[deg_drop:]
    if len(cc) > 1:
        for r in np.roots(cc):
            out.append(aff(r))
    # naive clustering
    reps = []
    for p in out:
        if all(chordal_distance(p, q) > tol for q in reps):
            reps.append(p)
    return reps


def oracle_level_sets(R, z, depth, tol=1e-6):
    """Brute-force recursion: distinct points of R^{-k}(z) for k <= depth."""
    levels = [[z]]
    for _ in range(depth):
        nxt = []
        for p in levels[-1]:
            for x in oracle_preimage_set(R, p):
                if all(chordal_distance(x, q) > tol for q in nxt):
                    nxt.append(x)
        levels.append(nxt)
    return levels


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_examples():
    Rsq = parse_map("z^2")
    assert Rsq.evaluate(INF).is_infinity()
    Rinv = parse_map("1/z^2")
    assert Rinv.evaluate(SpherePoint.zero()).is_infinity()
    assert chordal_distance(Rinv.evaluate(INF), SpherePoint.zero()) < 1e-15
    Rp = parse_map("z^2+1")
    assert Rp.evaluate(aff(2)).to_affine() == pytest.approx(5)


@pytest.mark.parametrize("source, poles", [
    ("z^2", []),
    ("z^3-z", []),
    ("z^5-z+3/10", []),
    ("(z^2+1)/(z^2-1)", [1, -1]),
    ("1/z^2", [0]),
])
def test_evaluate_array_matches_evaluate(source, poles):
    R = parse_map(source)
    rng = np.random.default_rng(len(source))
    moduli = 10.0 ** rng.uniform(-4, 4, 400)
    pts = [aff(c) for c in moduli * np.exp(2j * np.pi * rng.random(400))]
    pts += [SpherePoint.zero(), INF] + [aff(c) for c in poles]
    got = embedding_array(*R.evaluate_array(*homogeneous(pts)))
    want = np.array([R.evaluate(p).embedding() for p in pts])
    assert np.linalg.norm(got - want, axis=1).max() <= 1e-15


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        RationalMap([1, 1], [1])


def test_common_factor_rejected():
    # (z^2 - 1) / (z - 1) shares the factor z - 1
    with pytest.raises(ValueError):
        RationalMap([-1, 0, 1], [-1, 1])


def _forward_orbit(R, z, n):
    """[z, R(z), ..., R^n(z)]."""
    out = [z]
    for _ in range(n):
        out.append(R.evaluate(out[-1]))
    return out


def test_forward_orbit_examples():
    Rsq = parse_map("z^2")
    orbit = _forward_orbit(Rsq, aff(2), 3)
    assert [p.to_affine() for p in orbit] == pytest.approx([2, 4, 16, 256])
    Rinv = parse_map("1/z^2")
    orbit = _forward_orbit(Rinv, SpherePoint.zero(), 2)
    assert not orbit[0].is_infinity() and orbit[1].is_infinity() and not orbit[2].is_infinity()
    Rp = parse_map("z^2+1")
    assert [p.to_affine() for p in _forward_orbit(Rp, SpherePoint.zero(), 3)] == pytest.approx(
        [0, 1, 2, 5]
    )


# ---------------------------------------------------------------------------
# preimages


def test_preimages_examples():
    Rsq = parse_map("z^2")
    out = sorted(Rsq.preimages(aff(1)), key=lambda xe: xe[0].sort_key())
    assert [(p.to_affine(), e) for p, e in out] == [(pytest.approx(-1), 1), (pytest.approx(1), 1)]
    out = Rsq.preimages(SpherePoint.zero())
    assert len(out) == 1 and out[0][1] == 2
    Rp = parse_map("z^2+1")
    out = Rp.preimages(aff(1))
    assert len(out) == 1 and out[0][1] == 2
    assert abs(out[0][0].to_affine()) < 1e-8


def test_preimage_of_infinity_is_pole_set():
    Rp = parse_map("z^2+1")
    out = Rp.preimages(INF)
    assert len(out) == 1 and out[0][0].is_infinity() and out[0][1] == 2


def test_preimage_multiplicities_sum_random_points():
    rng = np.random.default_rng(9)
    for expr in ("z^2", "z^2+1", "1/z^2", "(z^3-16/27)/z"):
        R = parse_map(expr)
        for _ in range(25):
            y = aff(complex(rng.normal(), rng.normal()))
            pre = R.preimages(y)
            assert sum(e for _x, e in pre) == R.n
            for x, _e in pre:
                assert chordal_distance(R.evaluate(x), y) <= 1e-7


def test_preimages_match_oracle():
    rng = np.random.default_rng(17)
    for expr in ("z^2+1", "(z^3-16/27)/z"):
        R = parse_map(expr)
        for _ in range(10):
            y = aff(complex(rng.normal(), rng.normal()))
            mine = [x for x, _e in R.preimages(y)]
            ref = oracle_preimage_set(R, y)
            assert len(mine) == len(ref)
            for x in mine:
                assert min(chordal_distance(x, r) for r in ref) < 1e-7


def _fibre_targets(R, rng):
    """Random targets plus the hard ones: branch values, infinity (the poles),
    R(infinity) (a degree drop) and 0."""
    targets = [aff(complex(rng.normal(), rng.normal())) for _ in range(20)]
    targets += [R.evaluate(pt) for pt, _e in R.branch_data().branch_points]
    targets += R.branch_data().branch_values
    targets += [INF, R.evaluate(INF), SpherePoint.zero()]
    return targets


def _preimage_form(R, y):
    """The polynomial whose roots are the finite preimages of y, as preimages builds it."""
    hp = np.zeros(R.n + 1, dtype=complex)
    hq = np.zeros(R.n + 1, dtype=complex)
    hp[: len(R.p.coeffs)] = R.p.coeffs
    hq[: len(R.q.coeffs)] = R.q.coeffs
    return Poly(y.w * hp - y.z * hq)


def _inclusion_radius(p, r):
    """n eps |p|(|r|) / |p'(r)|: how closely double precision can place a simple root r.

    Tiny away from the branch values; near one, where two roots almost
    meet, two sound solvers may differ by this much.
    """
    return p.degree * 2.0**-52 * p.eval_scale(r) / abs(derivative(p)(r))


def _random_maps(count):
    """Random reduced maps of degree 2..6 with exact coefficients, as in criterion 07."""
    rng = np.random.default_rng(20261018)
    maps = []
    while len(maps) < count:
        deg = int(rng.integers(2, 7))
        p = _random_exact_poly(rng, deg, True)
        q = _random_exact_poly(rng, int(rng.integers(0, deg + 1)), False)
        if not xq.xp_trim(q) or max(xq.xp_degree(p), xq.xp_degree(q)) < 2:
            continue
        if xq.xp_degree(xq.xp_gcd(p, q)) != 0:
            continue
        R = RationalMap.from_exact(p, q) if len(maps) % 2 else RationalMap.from_exact(q, p)
        maps.append((R, rng))
    return maps


@pytest.mark.parametrize("k", range(12))
def test_fibres_match_scalar_preimages(k):
    R, rng = _random_maps(12)[k]
    targets = _fibre_targets(R, rng)
    xz, xw, owner, degree = R.fibres(*homogeneous(targets))
    assert np.array_equal(owner, np.sort(owner))
    for i, y in enumerate(targets):
        ref = R.preimages(y)
        mine = owner == i
        assert degree[mine].sum() == R.n
        # preimages' order: infinity first, then the roots by (real, imag)
        assert degree[mine].tolist() == [e for _x, e in ref]
        form = _preimage_form(R, y)
        for (x, e), a, b in zip(ref, xz[mine], xw[mine]):
            if x.is_infinity() or e > 1:  # solved by preimages itself
                assert (a, b) == (x.z, x.w)
                continue
            r = x.to_affine()
            assert abs(a / b - r) <= 1e-12 * max(1.0, abs(r)) + _inclusion_radius(form, r), (R, y)


def test_fibres_of_no_targets():
    xz, xw, owner, degree = parse_map("z^2+1").fibres(np.zeros(0, complex), np.zeros(0, complex))
    assert len(xz) == len(xw) == len(owner) == len(degree) == 0


def test_fibres_fallback_reads_stored_pairs_as_they_are(monkeypatch):
    # on the unit circle SpherePoint can store (1, w) with |w| an ulp above 1;
    # normalizing such a pair again moves it, so the fallback must take the
    # pair as stored.  Every row is sent to the fallback here.
    R = parse_map("z^2")
    c = lyubich(R, aff(1), 12).coords
    z, w = c[(c[:, 0] == 1.0) & (np.abs(c[:, 1]) > 1.0)].T
    assert len(z) == 234
    batch = ratmap.roots_batch
    monkeypatch.setattr(ratmap, "roots_batch", lambda C, tol: (batch(C, tol)[0], np.ones(len(C), dtype=bool)))
    xz, xw, owner, degree = R.fibres(z, w)
    got = list(zip(xz.tolist(), xw.tolist(), owner.tolist(), degree.tolist()))
    want = [(x.z, x.w, i, e) for i in range(len(z)) for x, e in R.preimages(SpherePoint.from_row(z[i], w[i]))]
    assert got == want


def test_fibres_and_evaluate_array_pivot_as_abs_does_near_modulus_one(monkeypatch):
    # np.abs and abs() round differently in the last bit; within a few ulps
    # of |x| = 1 the coordinate divided by must be the one abs() finds larger
    rng = np.random.default_rng(5)
    r = np.exp(2j * np.pi * rng.random(20000)) * (1.0 + 2.0**-52 * rng.integers(-3, 4, 20000))
    R = parse_map("z^2")
    monkeypatch.setattr(ratmap, "roots_batch", lambda C, tol: (r.reshape(-1, 2), np.zeros(len(C), dtype=bool)))
    xz, xw, _owner, _degree = R.fibres(np.full(len(r) // 2, 0.5 + 0j), np.ones(len(r) // 2, dtype=complex))
    by_abs = np.array([abs(x) >= 1.0 for x in r.tolist()])
    assert np.any(by_abs != (np.abs(r) >= 1.0))  # np.abs would pivot some of these the other way
    assert np.array_equal(xz == 1.0, by_abs) and np.all(xw[~by_abs] == 1.0)

    x = r[np.hypot(r.real, r.imag) < 1.0]  # pairs (x, 1) pivot on w; z^2 is then x * x over 1
    by_abs = np.array([abs(y) >= 1.0 for y in (x * x).tolist()])
    assert np.any(by_abs != (np.abs(x * x) >= 1.0))
    iz, iw = R.evaluate_array(x, np.ones_like(x))
    assert np.array_equal(iz == 1.0, by_abs) and np.all(iw[~by_abs] == 1.0)


# ---------------------------------------------------------------------------
# branch data


def test_branch_data_power_map():
    for n in (2, 3, 4):
        R = parse_map(f"z^{n}")
        bd = R.branch_data()
        pts = {("inf" if p.is_infinity() else round(abs(p.to_affine()), 9)): e
               for p, e in bd.branch_points}
        assert pts == {0.0: n, "inf": n}


def test_branch_data_z2_plus_1():
    R = parse_map("z^2+1")
    bd = R.branch_data()
    assert len(bd.branch_points) == 2
    assert bd.index_at(SpherePoint.zero()) == 2
    assert bd.index_at(INF) == 2
    values = {("inf" if v.is_infinity() else complex(round(v.to_affine().real, 9),
                                                     round(v.to_affine().imag, 9)))
              for v in bd.branch_values}
    assert values == {(1 + 0j), "inf"}


def test_branch_data_reciprocal_square():
    R = parse_map("1/z^2")
    bd = R.branch_data()
    assert bd.index_at(SpherePoint.zero()) == 2
    assert bd.index_at(INF) == 2


def test_branch_data_is_cached_per_tol():
    # the finite branch values -+2e-9 are 8e-9 apart chordally: one cluster
    # at the default tol 1e-8 and two at 1e-10, whichever tol comes first
    expr = "z^3-3/1000000*z"
    R = parse_map(expr)
    assert len(R.branch_data().branch_values) == 2
    assert len(R.branch_data(1e-10).branch_values) == len(parse_map(expr).branch_data(1e-10).branch_values) == 3
    assert R.branch_data() is R.branch_data() and len(R.branch_data().branch_values) == 2
    assert R.exceptional_points(1e-10) is not R.exceptional_points()


def test_riemann_hurwitz_on_presets():
    for expr in ("z^2", "z^3", "z^4", "z^2+1", "1/z^2", "(z^3-16/27)/z"):
        R = parse_map(expr)
        total = sum(e - 1 for _p, e in R.branch_data().branch_points)
        assert total == 2 * R.n - 2


@pytest.mark.parametrize("expr, zero_fibre", [("z^5", [(0j, 5)]), ("z^5+1/3", [(0j, 5)]),
                                               ("z^3+z^2", [(-1 + 0j, 1), (0j, 2)])])
def test_analysis_of_maps_with_a_multiple_root_at_exactly_zero(expr, zero_fibre):
    # the preimage form of R(0) has the multiple root 0 exactly; it used to
    # reach the residual gate as a tiny Aberth root and exit NonConvergence
    R = parse_map(expr)
    report = ratmap.analysis_report(R)
    assert sum(p["index"] - 1 for p in report["branch_points"]) == 2 * R.n - 2
    assert sum(e - 1 for _p, e in R.branch_data().branch_points) == 2 * R.n - 2
    fibre = R.preimages(R.evaluate(SpherePoint.zero()))
    assert [(x.to_affine(), e) for x, e in fibre] == zero_fibre
    rng = np.random.default_rng(5)
    targets = list(R.branch_data().branch_values)
    targets += [SpherePoint.from_affine(complex(*rng.normal(size=2))) for _ in range(10)]
    for y in targets:
        assert sum(e for _x, e in R.preimages(y)) == R.n
    z, w = homogeneous(targets)
    _xz, _xw, owner, degree = R.fibres(z, w)
    assert np.array_equal(np.bincount(owner, weights=degree), np.full(len(targets), R.n))


# ---------------------------------------------------------------------------
# backward orbits


def test_backward_orbit_set_count_totally_ramified():
    R = parse_map("z^2")
    tree = R.backward_orbit(SpherePoint.zero(), 2, SET_COUNT)
    assert [len(pairs(level)) for level in tree.levels] == [1, 1, 1]
    for level in map(pairs, tree.levels):
        assert chordal_distance(level[0][0], SpherePoint.zero()) < 1e-12
        assert level[0][1] == 1.0


def test_backward_orbit_set_count_z2p1():
    R = parse_map("z^2+1")
    tree = R.backward_orbit(SpherePoint.zero(), 1, SET_COUNT)
    pts = sorted(p.to_affine().imag for p, _w in pairs(tree.levels[1]))
    assert pts == pytest.approx([-1, 1])
    assert [w for _p, w in pairs(tree.levels[1])] == [1.0, 1.0]


def test_backward_orbit_index_weighted_roots_of_unity():
    R = parse_map("z^2")
    tree = R.backward_orbit(aff(1), 2, INDEX_WEIGHTED)
    level = pairs(tree.levels[2])
    assert len(level) == 4
    for p, w in level:
        assert w == pytest.approx(0.25)
        assert abs(p.to_affine() ** 4 - 1) < 1e-10
    assert tree.level_mass(1) == pytest.approx(1.0)


def test_backward_orbit_index_weighted_rejects_exceptional_seed():
    R = parse_map("z^2")
    with pytest.raises(ExceptionalSeed):
        R.backward_orbit(SpherePoint.zero(), 3, INDEX_WEIGHTED)


def test_backward_orbit_levels_match_oracle():
    R = parse_map("z^2+1")
    tree = R.backward_orbit(SpherePoint.zero(), 4, SET_COUNT)
    ref = oracle_level_sets(R, SpherePoint.zero(), 4)
    for k in range(5):
        mine = [p for p, _w in pairs(tree.levels[k])]
        assert len(mine) == len(ref[k])
        for p in mine:
            assert min(chordal_distance(p, q) for q in ref[k]) < 1e-6


def test_backward_orbit_children_map_to_parents():
    R = parse_map("(z^3-16/27)/z")
    tree = R.backward_orbit(aff(0.5 + 0.3j), 3, SET_COUNT)
    for k in range(1, len(tree.levels)):
        parents = [p for p, _w in pairs(tree.levels[k - 1])]
        for p, _w in pairs(tree.levels[k]):
            image = R.evaluate(p)
            assert min(chordal_distance(image, q) for q in parents) <= 1e-6


def test_backward_orbit_over_budget_is_refused():
    R = parse_map("z^2")
    with pytest.raises(AtomBudgetExceeded, match="^backward orbit could create 63 atoms, more than the budget of 40$"):
        R.backward_orbit(aff(1), 10, SET_COUNT, atom_budget=40)


def test_backward_orbit_refuses_a_level_before_solving_it(monkeypatch):
    # z^2 from 1 holds 1 + 2 + 4 + 8 = 15 atoms through level 3; level 4 could
    # add 2 * 8 more, past a budget of 20, so its 8 parents are never solved
    R = parse_map("z^2")
    solved = []
    original = RationalMap.preimages
    monkeypatch.setattr(RationalMap, "preimages", lambda self, y, tol: solved.append(y) or original(self, y, tol))
    with pytest.raises(AtomBudgetExceeded, match="could create 31 atoms"):
        R.backward_orbit(aff(1), 10, SET_COUNT, atom_budget=20)
    assert len(solved) == 1 + 2 + 4


@pytest.mark.parametrize("weighting", [SET_COUNT, INDEX_WEIGHTED])
@pytest.mark.parametrize("expr, seed, depth", [
    ("z^2", 0.6 + 0.8j, 10), ("z^3-z", 0.3, 6), ("z^5-z+3/10", 0.3 + 0.2j, 4),
    ("z^2+1", 1, 8),  # a branch value: its sole preimage 0 has index 2
])
def test_array_levels_match_pair_levels_bit_for_bit(expr, seed, depth, weighting):
    R = parse_map(expr)
    tree = R.backward_orbit(aff(seed), depth, weighting)
    want = pairs_backward_orbit(R, aff(seed), depth, weighting)
    assert len(tree.levels) == len(want) == depth + 1
    for (coords, weights), level in zip(tree.levels, want):
        assert coords.dtype == np.complex128 and coords.shape == (len(level), 2)
        assert weights.dtype == np.float64 and weights.shape == (len(level),)
        assert coords.tobytes() == np.array([(p.z, p.w) for p, _w in level], dtype=np.complex128).tobytes()
        assert weights.tobytes() == np.array([w for _p, w in level]).tobytes()


# ---------------------------------------------------------------------------
# exceptional points


def test_exceptional_cases():
    for n in (2, 3):
        rep = parse_map(f"z^{n}").exceptional_points()
        assert rep.case_tag == "TwoFixed"
        assert len(rep.points) == 2 and len(rep.orbit_classes) == 2
    rep = parse_map("1/z^2").exceptional_points()
    assert rep.case_tag == "TwoSwapped"
    assert len(rep.orbit_classes) == 1 and len(rep.orbit_classes[0]) == 2
    rep = parse_map("z^2+1").exceptional_points()
    assert rep.case_tag == "OneFixed"
    assert len(rep.points) == 1 and rep.points[0].is_infinity()


def test_exceptional_empty_for_generic_map():
    rep = parse_map("(z^3-16/27)/z").exceptional_points()
    assert rep.case_tag == "Empty"
    assert rep.points == []


def test_exceptional_subset_of_branch_points():
    for expr in ("z^2", "1/z^2", "z^2+1", "z^3"):
        R = parse_map(expr)
        bd = R.branch_data()
        for p in R.exceptional_points().points:
            assert bd.index_at(p) == R.n


def test_index_weighted_level_mass_through_branch_values():
    # seed 1 is a branch value of z^2+1: its sole preimage 0 has index 2, and
    # the index weighting keeps every level at total mass one regardless
    R = parse_map("z^2+1")
    tree = R.backward_orbit(aff(1), 4, INDEX_WEIGHTED)
    assert len(pairs(tree.levels[1])) == 1  # the double point 0, weight 2/2
    for k in range(5):
        assert tree.level_mass(k) == pytest.approx(1.0, abs=1e-12)


def test_degree_ten_top_of_range():
    R = parse_map("(z^10+z^3+1)/(z^5-2)")
    assert R.n == 10
    assert sum(e - 1 for _p, e in R.branch_data().branch_points) == 18
    y = aff(0.37 + 0.11j)
    assert sum(e for _x, e in R.preimages(y)) == 10
    bd = parse_map("z^10").branch_data()
    assert bd.index_at(aff(0)) == 10 and bd.index_at(INF) == 10
