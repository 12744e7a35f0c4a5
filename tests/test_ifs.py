"""IFS engine: presets, branch structure, Hutchinson, word-sum KMS measures."""

import math
import re
import warnings

import numpy as np
import pytest

from kmsdyn import ifs as ifs_module
from kmsdyn import measure as measure_module
from kmsdyn.errors import AtomBudgetExceeded, HypothesisUncertified, NotABranchPoint, OutOfRegime
from kmsdyn.ifs import (
    AffineMap,
    IFSSystem,
    apply_F_beta_ifs,
    check_K1_ifs,
    _image_table,
    distinct_images,
    hutchinson,
    kms_measure_ifs,
    orbit_condition,
    preset,
    system_from_jsonable,
    classify_ifs,
)
from kmsdyn.measure import PLANE, AtomicMeasure, TestFunctionLibrary, integrate, measure_sum, merge_planar, weak_star_distance
from kmsdyn.serialize import stable_dumps

from merge_oracles import (
    _greedy_planar_oracle,
    collect_fibres,
    lexsort_merge_planar,
    list_branch_structure,
    list_in_attractor,
    list_orbit_condition,
    loop_hutchinson,
    loop_word_sum,
    masked_chaos_samples,
    scalar_distinct_images,
)

SQRT3 = math.sqrt(3.0)
B_POINTS = [(0.25, SQRT3 / 4), (0.5, 0.0), (0.75, SQRT3 / 4)]
C_POINTS = [(0.0, 0.0), (0.5, SQRT3 / 2), (1.0, 0.0)]


def moment(mu, exponents, box):
    lib = TestFunctionLibrary.plane(degree=sum(exponents), box=box)
    f = [g for g in lib.functions if g.exponents == exponents][0]
    return integrate(mu, f)


# ---------------------------------------------------------------------------
# construction and validation


def test_affine_map_contraction_validation():
    with pytest.raises(ValueError):
        AffineMap([[1.0]], [0.0])  # not a contraction
    with pytest.raises(ValueError):
        AffineMap([[0.0]], [0.5])  # singular linear part
    m = AffineMap([[0.5]], [0.25])
    assert m.fixed_point() == pytest.approx([0.5])


def _random_system(rng, dim, n_maps=4):
    maps = []
    for _ in range(n_maps):
        linear = rng.normal(size=(dim, dim))
        linear *= rng.uniform(0.2, 0.9) / np.linalg.norm(linear, 2)
        maps.append(AffineMap(linear, rng.normal(size=dim)))
    return IFSSystem(maps)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_affine_kernel_rows_do_not_depend_on_batch_shape(dim):
    # a point alone, as a one-row batch, in an n-row batch, among the stacked
    # images of all maps and in the gathered chaos step: the same bits
    rng = np.random.default_rng(40 + dim)
    gamma = _random_system(rng, dim)
    x = rng.normal(size=(9, dim)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
    stacked = gamma.images(x)
    picks = rng.integers(0, gamma.n, size=len(x))
    stepped = gamma.step(x, picks)
    assert stacked.shape == (gamma.n, len(x), dim) and stepped.shape == x.shape
    for j, m in enumerate(gamma.maps):
        batch = m(x)
        np.testing.assert_allclose(batch, x @ m.linear.T + m.offset, rtol=1e-14, atol=1e-14)
        for i, point in enumerate(x):
            alone = m(point)
            assert alone.shape == (dim,)
            assert np.array_equal(alone, m(x[i:i + 1])[0])
            assert np.array_equal(alone, batch[i])
            assert np.array_equal(alone, stacked[j, i])
            assert np.array_equal(alone, gamma.images(point)[j])
            if picks[i] == j:
                assert np.array_equal(alone, stepped[i])


def test_duplicate_maps_rejected():
    with pytest.raises(ValueError):
        IFSSystem([AffineMap([[0.5]], [0.0]), AffineMap([[0.5]], [0.0])])


def test_close_offsets_far_from_origin_are_distinct_maps():
    # 4e-3 apart at 1e3 is within numpy's default rtol, but not a coincidence
    gamma = IFSSystem([AffineMap([[0.5]], [1000.0]), AffineMap([[0.5]], [1000.004])])
    assert gamma.n == 2


def test_system_json_round_trip():
    gamma = preset("sierpinski-twisted")
    clone = system_from_jsonable(gamma.to_jsonable())
    assert clone.n == 3 and clone.dim == 2
    for m1, m2 in zip(gamma.maps, clone.maps):
        assert np.allclose(m1.linear, m2.linear) and np.allclose(m1.offset, m2.offset)


@pytest.mark.parametrize("field, linear, offset", [
    ("linear", [[[0.5]]], [0]), ("linear", [[[0.5]]], [[0]]), ("offset", [[0.5]], [[0]]), ("offset", 0.5, [[[0]]]),
])
def test_system_fields_nested_too_deep_are_refused_by_name(field, linear, offset):
    # numpy's own shape errors name no field, and a nested offset would pass
    # numpy and fail later in to_jsonable with a raw TypeError
    maps = [{"linear": linear, "offset": offset}, {"linear": [[0.5]], "offset": [1]}]
    with pytest.raises(ValueError, match=f"^{field} must be numbers or lists of numbers nested at most"):
        system_from_jsonable({"maps": maps})


@pytest.mark.parametrize("linear, offset", [([[0.5], [0.5, 0.1]], [0, 0]), ([[0.5, 0], 0.5], [0, 0]), ([0.5, [0.5]], [0])])
def test_a_ragged_linear_part_is_refused_by_name(linear, offset):
    # numpy refuses these as an "inhomogeneous shape", naming no field
    maps = [{"linear": linear, "offset": offset}, {"linear": [[0.5, 0], [0, 0.5]], "offset": [1, 0]}]
    with pytest.raises(ValueError, match="^linear must nest lists of equal length"):
        system_from_jsonable({"maps": maps})


@pytest.mark.parametrize("linear, offset", [(0.5, 0), ([0.5], 0), ([[0.5]], [0]), (0.5, [0])])
def test_system_fields_nested_as_before_are_accepted(linear, offset):
    gamma = system_from_jsonable({"maps": [{"linear": linear, "offset": offset}, {"linear": 0.5, "offset": 1}]})
    assert gamma.dim == 1 and gamma.maps[0].linear.tolist() == [[0.5]] and gamma.maps[0].offset.tolist() == [0.0]


# ---------------------------------------------------------------------------
# branch structure


def test_tent_branch_structure():
    data = preset("tent").branch_structure()
    assert len(data.branch_values) == 1
    y, pairs = data.branch_values[0]
    assert y == pytest.approx([1.0])
    assert pairs == [(0, 1)]
    assert [list(x) for x in data.branch_points] == [pytest.approx([0.5])]


def test_binary_branch_structure_empty_with_singular_pair():
    data = preset("binary").branch_structure()
    assert data.branch_values == [] and data.branch_points == []
    assert data.singular_pairs == [(0, 1)]


def test_sierpinski_untwisted_no_branching():
    data = preset("sierpinski").branch_structure()
    assert data.branch_points == []
    assert sorted(data.singular_pairs) == [(0, 1), (0, 2), (1, 2)]


def test_twisted_sierpinski_branch_structure():
    data = preset("sierpinski-twisted").branch_structure()
    got_b = sorted(tuple(x) for x in data.branch_points)
    for got, expect in zip(got_b, sorted(B_POINTS)):
        assert got == pytest.approx(expect, abs=1e-9)
    got_c = sorted(tuple(y) for y, _p in data.branch_values)
    for got, expect in zip(got_c, sorted(C_POINTS)):
        assert got == pytest.approx(expect, abs=1e-9)


def test_subspace_coincidence_rejected():
    # two maps agreeing exactly on a line: branch set would be infinite
    a = AffineMap([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
    b = AffineMap([[0.5, 0.0], [0.0, 0.25]], [0.0, 0.0])
    gamma = IFSSystem([a, b])
    with pytest.raises(ValueError):
        gamma.branch_structure()


def test_attractor_membership_tent():
    tent = preset("tent")
    assert tent.in_attractor([0.5])
    assert tent.in_attractor([1.0])
    assert not tent.in_attractor([1.4])
    assert not tent.in_attractor([-0.2])


# ---------------------------------------------------------------------------
# transfer operator


def test_tilde_examples():
    tent = preset("tent")
    images = distinct_images(tent, [1.0])
    assert len(images) == 1 and images[0][1] == 2  # both branches collide at 1/2
    from kmsdyn.ifs import tilde_ifs

    assert tilde_ifs(tent, 1, [1.0]) == 1.0
    assert tilde_ifs(tent, 1, [0.0]) == 2.0
    binary = preset("binary")
    assert tilde_ifs(binary, lambda x: float(x[0]), [0.0]) == pytest.approx(0.5)


def _three_branch_line():
    # three maps of the line that all send 1 to 1/2
    return IFSSystem([AffineMap([[0.5]], [0.0]), AffineMap([[-0.5]], [1.0]), AffineMap([[0.25]], [0.25])],
                     name="three-branch")


def _near_coincidences(gamma, rng):
    """Points whose colliding images are 0.5 to 2 tol apart, never at tol itself."""
    points = []
    for y0, pairs in gamma.branch_structure().branch_values:
        for j, jp in pairs:
            diff = gamma.maps[j].linear - gamma.maps[jp].linear
            for s in (0.5, 0.7, 0.9, 0.97, 1.03, 1.2, 1.6, 2.0):
                u = rng.normal(size=gamma.dim)
                u /= np.linalg.norm(u)
                points.append(y0 + s * gamma.tol / np.linalg.norm(diff @ u) * u)
    return points


@pytest.mark.parametrize("name", ["tent", "binary", "sierpinski", "sierpinski-twisted", "three-branch"])
def test_distinct_images_matches_scalar_loop(name):
    # same images in the same order with the same multiplicities as the
    # per-map loop, each bit-identical to its map's own image of y
    gamma = _three_branch_line() if name == "three-branch" else preset(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    lo, hi = np.array(gamma.bounding_box()).T
    branch = [y for y, _prs in gamma.branch_structure().branch_values]
    near = _near_coincidences(gamma, rng)
    points = list(rng.uniform(lo, hi, size=(200, gamma.dim))) + branch + near
    degrees = []
    for y in points:
        got = distinct_images(gamma, y)
        want = scalar_distinct_images(gamma, y)
        assert [e for _x, e in got] == [e for _x, e in want]
        for (x, _e), (x0, _e0) in zip(got, want):
            assert x.shape == (gamma.dim,) and np.array_equal(x, x0)
        degrees.append(max(e for _x, e in got))
    assert all(e >= 2 for e in degrees[200:200 + len(branch)])
    if near:
        # both sides of the tolerance are reached
        assert min(degrees[-len(near):]) == 1 and max(degrees[-len(near):]) >= 2
    if name == "three-branch":
        assert distinct_images(gamma, [1.0])[0][1] == 3


@pytest.mark.parametrize("name, depth", [("sierpinski-twisted", 7), ("tent", 10)])
def test_image_table_matches_scalar_collect(name, depth):
    # the KMS states, and the same atoms with the branch values added, where
    # images collide
    gamma = preset(name)
    branch = np.array([y for y, _prs in gamma.branch_structure().branch_values])
    for b in gamma.branch_structure().branch_points:
        mu = kms_measure_ifs(gamma, b, 1.5, depth=depth).measure
        with_branch = AtomicMeasure.from_planar_atoms(
            np.vstack([mu.coords, branch]), np.r_[mu.weights, np.full(len(branch), 0.1)], gamma.tol)
        for nu in (mu, with_branch):
            table = _image_table(gamma, nu)
            ref = collect_fibres(nu.coords, lambda y: scalar_distinct_images(gamma, y),
                                 lambda xs: np.array(xs).reshape(-1, gamma.dim))
            assert np.array_equal(table.owner, ref.owner) and table.owner.dtype == ref.owner.dtype
            assert np.array_equal(table.degree, ref.degree) and table.degree.dtype == ref.degree.dtype
            assert np.array_equal(table.coords, ref.coords)
        assert table.degree.max() >= 2


def delta_plane(coord):
    return AtomicMeasure(PLANE, coord, [1.0])


def test_apply_F_beta_collision():
    tent = preset("tent")
    out = apply_F_beta_ifs(tent, delta_plane([1.0]), math.log(2))
    assert out.n_atoms == 1
    assert out.coords[0] == pytest.approx([0.5])
    assert out.total_mass() == pytest.approx(0.5)
    out = apply_F_beta_ifs(tent, delta_plane([0.0]), math.log(2))
    assert out.n_atoms == 2 and out.total_mass() == pytest.approx(1.0)
    binary = preset("binary")
    out = apply_F_beta_ifs(binary, delta_plane([0.3]), math.log(2))
    assert out.total_mass() == pytest.approx(1.0)


def test_mass_at_critical_beta():
    # at beta = log N the operator preserves mass off the branch values and
    # strictly shrinks measures charging them
    tent = preset("tent")
    log2 = math.log(2.0)
    off = delta_plane([0.3])
    assert apply_F_beta_ifs(tent, off, log2).total_mass() == pytest.approx(1.0)
    on = delta_plane([1.0])
    assert apply_F_beta_ifs(tent, on, log2).total_mass() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Hutchinson measure


def test_hutchinson_seed_is_delta():
    tent = preset("tent")
    mu = hutchinson(tent, 0)
    assert mu.n_atoms == 1
    assert mu.coords[0] == pytest.approx(tent.seed)


def test_tent_hutchinson_moments():
    mu = hutchinson(preset("tent"), 20)
    box = ((0.0, 1.0),)
    assert moment(mu, (1,), box) == pytest.approx(0.5, abs=1e-6)
    assert moment(mu, (2,), box) == pytest.approx(1 / 3, abs=1e-5)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_hutchinson_iterates_contract_in_library_distance():
    for name in ("tent", "binary", "sierpinski"):
        gamma = preset(name)
        lib = TestFunctionLibrary.plane(box=gamma.bounding_box())
        mus = [hutchinson(gamma, n) for n in (4, 5, 8, 9)]
        d1 = weak_star_distance(mus[0], mus[1], lib)
        d2 = weak_star_distance(mus[2], mus[3], lib)
        assert d2 <= d1 * gamma.c2**3 + 1e-12


def test_hutchinson_seed_independence():
    gamma = preset("sierpinski")
    n = 12
    mu1 = hutchinson(gamma, n)
    # same averaged pushforward from a different starting point
    other = IFSSystem(list(reversed(gamma.maps)))
    mu2 = hutchinson(other, n)
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box())
    bound = 2 * gamma.c2**n * 2 * gamma.radius
    assert weak_star_distance(mu1, mu2, lib) <= bound


def test_chaos_game_matches_deterministic():
    gamma = preset("sierpinski")
    mu_det = hutchinson(gamma, 10)
    mu_cg = hutchinson(gamma, 0, chaos_samples=10**6, seed=20260809)
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box())
    assert weak_star_distance(mu_det, mu_cg, lib) <= 5e-3
    assert mu_cg.info["mode"] == "chaos"
    assert mu_cg.info["seed"] == 20260809


def test_chaos_game_reproducible():
    gamma = preset("tent")
    a = hutchinson(gamma, 0, chaos_samples=2000, seed=5)
    b = hutchinson(gamma, 0, chaos_samples=2000, seed=5)
    assert np.array_equal(a.coords, b.coords)


def _tetra_twisted():
    """A 3-D system of four maps, two of them rotating, to exercise full linear parts."""
    c, s = math.cos(0.7), math.sin(0.7)
    turn = 0.45 * np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    tilt = 0.4 * np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return IFSSystem([AffineMap(0.5 * np.eye(3), [0.0, 0.0, 0.0]), AffineMap(turn, [0.5, 0.1, 0.0]),
                      AffineMap(tilt, [0.2, 0.5, 0.0]), AffineMap(0.5 * np.eye(3), [0.25, 0.25, 0.5])],
                     name="tetra-twisted")


@pytest.mark.parametrize("name", ["tent", "binary", "sierpinski", "sierpinski-twisted", "tetra"])
def test_chaos_game_matches_masked_loop(name):
    # every chain stepping at once gives the samples of the per-map masked
    # loop bit for bit; fewer samples than chains, and a part-filled last step
    gamma = _tetra_twisted() if name == "tetra" else preset(name)
    for n, seed in [(700, 11), (2500, 12)]:
        mu = hutchinson(gamma, 0, chaos_samples=n, seed=seed)
        want = _greedy_planar_oracle(masked_chaos_samples(gamma, n, seed), np.full(n, 1.0 / n), gamma.tol)
        assert np.array_equal(mu.coords, want[0])
        assert np.array_equal(mu.weights, want[1])


def _merges_checked_against_lexsort(monkeypatch):
    """Route every merge of the engine through merge_planar and the lexsort oracle; list their sizes."""
    sizes = []

    def checked(coords, weights, tol):
        got = merge_planar(coords, weights, tol)
        want = lexsort_merge_planar(coords, weights, tol)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        sizes.append(len(weights))
        return got

    monkeypatch.setattr(measure_module, "merge_planar", checked)
    monkeypatch.setattr(ifs_module, "merge_planar", checked)
    return sizes


@pytest.mark.parametrize("name", ["tent", "binary", "sierpinski", "sierpinski-twisted"])
def test_merge_planar_matches_lexsort_oracle_on_hutchinson(monkeypatch, name):
    # 10^5 chaos samples, and the deterministic levels 1-10 (1-14 on the line)
    gamma = preset(name)
    sizes = _merges_checked_against_lexsort(monkeypatch)
    hutchinson(gamma, 0, chaos_samples=10**5, seed=9)
    hutchinson(gamma, 10 if gamma.dim == 2 else 14)
    assert sizes[0] == 10**5 and len(sizes) == 1 + (10 if gamma.dim == 2 else 14)


def test_merge_planar_matches_lexsort_oracle_on_twisted_kms_states(monkeypatch):
    # every level merge and the final merge of each depth-8 state
    gamma = preset("sierpinski-twisted")
    anchors = gamma.branch_structure().branch_points
    sizes = _merges_checked_against_lexsort(monkeypatch)
    for b in anchors:
        kms_measure_ifs(gamma, b, 1.5, depth=8)
    assert len(sizes) == 9 * len(anchors)


@pytest.mark.parametrize("name, beta, depth", [
    ("sierpinski-twisted", 1.5, 6), ("sierpinski-twisted", 1.5, 8), ("tent", 1.0, 16),
])
def test_word_sum_matches_the_loop_oracle_bit_for_bit(name, beta, depth):
    gamma = preset(name)
    for b in gamma.branch_structure().branch_points:
        mu = kms_measure_ifs(gamma, b, beta, depth=depth).measure
        coords, weights = loop_word_sum(gamma, b, beta, depth)
        assert mu.coords.tobytes() == coords.tobytes() and mu.weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("name, n", [("sierpinski", 8), ("sierpinski-twisted", 10)])
def test_deterministic_hutchinson_matches_the_loop_oracle_bit_for_bit(name, n):
    mu = hutchinson(preset(name), n)
    coords, weights = loop_hutchinson(preset(name), n)
    assert mu.coords.tobytes() == coords.tobytes() and mu.weights.tobytes() == weights.tobytes()


def test_hutchinson_budget():
    with pytest.raises(AtomBudgetExceeded):
        hutchinson(preset("sierpinski"), 10, atom_budget=1000)


@pytest.mark.parametrize("kwargs", [
    {"n": 2.0}, {"n": True}, {"n": -1}, {"n": "3"}, {"n": None},
    {"n": 0, "chaos_samples": 500.0}, {"n": 0, "chaos_samples": True}, {"n": 0, "chaos_samples": 0},
    {"n": 0.0, "chaos_samples": 500},
])
def test_hutchinson_rejects_counts_that_are_not_integers(kwargs):
    # a float, a bool, a string, None or a count below its least is refused
    # before any work, not left to fail in numpy or to run as 0 or 1
    with pytest.raises(ValueError, match="must be an integer"):
        hutchinson(preset("tent"), **kwargs)


def test_hutchinson_takes_numpy_integer_counts():
    gamma = preset("tent")
    assert hutchinson(gamma, np.int64(4)).n_atoms == hutchinson(gamma, 4).n_atoms
    assert hutchinson(gamma, 0, chaos_samples=np.int32(300)).n_atoms == 300


@pytest.mark.parametrize("build", [
    lambda budget: hutchinson(preset("sierpinski"), 10, atom_budget=budget),
    lambda budget: kms_measure_ifs(
        preset("sierpinski-twisted"), B_POINTS[1], 1.5, depth=10, atom_budget=budget
    ),
], ids=["hutchinson", "kms_measure_ifs"])
def test_budget_is_checked_before_the_push(monkeypatch, build):
    # a level is refused before it is built, so no merge ever sees more
    # atoms than the budget
    budget = 500
    sizes = []
    original = ifs_module.merge_planar

    def counting(coords, weights, tol):
        sizes.append(len(weights))
        return original(coords, weights, tol)

    monkeypatch.setattr(ifs_module, "merge_planar", counting)
    with pytest.raises(AtomBudgetExceeded):
        build(budget)
    assert sizes and max(sizes) <= budget


# ---------------------------------------------------------------------------
# KMS word sums


def test_tent_kms_measure_prefactor_and_anchor_weight():
    tent = preset("tent")
    km = kms_measure_ifs(tent, [0.5], math.log(4.0), depth=12)
    assert km.normalization == 0.5  # 1 - 2/e^beta with e^beta = 4 exactly
    assert km.measure.point_mass([0.5]) >= 0.5
    assert km.measure.total_mass() == pytest.approx(1.0, abs=km.tail_bound)
    assert km.tail_bound == pytest.approx(0.5**13, rel=1e-12)


def test_tent_point_mass_is_scale_free():
    # a planar measure keeps the tol it was merged at, so point_mass and
    # measure_sum default to the system's length, not an absolute one
    for s in (1.0, 2.0**-40):
        tent = _scaled(preset("tent"), s)
        b = tent.branch_structure().branch_points[0]
        mu = kms_measure_ifs(tent, b, math.log(4.0), depth=12).measure
        assert mu.tol == tent.tol
        assert mu.point_mass(b) == 0.5
        assert mu.scaled(2.0).point_mass(b) == 1.0
        assert measure_sum([mu, mu]).n_atoms == mu.n_atoms


@pytest.mark.parametrize("depth", [2.0, True, -1, "3", None])
def test_kms_measure_ifs_rejects_depths_that_are_not_integers(monkeypatch, depth):
    # refused before the branch structure is read, not left to fail in range()
    tent = preset("tent")
    monkeypatch.setattr(type(tent), "branch_structure", lambda *a, **k: pytest.fail("work before the check"))
    with pytest.raises(ValueError, match="must be an integer"):
        kms_measure_ifs(tent, [0.5], math.log(4.0), depth=depth)


def test_tent_kms_passes_trace_analogues():
    tent = preset("tent")
    beta = math.log(4.0)
    km = kms_measure_ifs(tent, [0.5], beta, depth=12)
    k1, k2 = check_K1_ifs(tent, km.measure, beta)
    assert k1 <= km.tail_bound
    assert k2 <= km.tail_bound


def test_twisted_kms_prefactor():
    tw = preset("sierpinski-twisted")
    b1 = tw.branch_structure().branch_points[0]
    km = kms_measure_ifs(tw, b1, math.log(9.0), depth=8)
    assert km.normalization == pytest.approx(2 / 3, abs=1e-15)
    assert km.measure.total_mass() == pytest.approx(1.0, abs=km.tail_bound)


@pytest.mark.parametrize("name, point", [
    ("tent", [0.5, 0.5]), ("sierpinski-twisted", [0.5, 0.0, 0.0]), ("sierpinski", [0.5]),
    ("sierpinski-twisted", [[0.5, 0.0]]),
])
def test_points_of_the_wrong_dimension_are_refused(monkeypatch, name, point):
    # refused with ValueError before any work, not left to broadcast or to
    # fail inside the affine kernel
    gamma = preset(name)
    monkeypatch.setattr(type(gamma), "branch_structure", lambda *a, **k: pytest.fail("work before the check"))
    monkeypatch.setattr(type(gamma), "inverse_images", lambda *a, **k: pytest.fail("work before the check"))
    message = re.escape(f"must be a point of shape ({gamma.dim},), not {np.shape(point)}")
    with pytest.raises(ValueError, match=message):
        kms_measure_ifs(gamma, point, 3.0, depth=4)
    with pytest.raises(ValueError, match=message):
        gamma.in_attractor(point)


@pytest.mark.parametrize("call", [
    lambda g: orbit_condition(g, 2.0),
    lambda g: orbit_condition(g, True),
    lambda g: orbit_condition(g, -1),
    lambda g: orbit_condition(g, width_cap=10.0),
    lambda g: orbit_condition(g, width_cap=None),
    lambda g: g.in_attractor(g.seed, depth=2.0),
    lambda g: g.in_attractor(g.seed, depth=False),
    lambda g: g.in_attractor(g.seed, width_cap="8"),
    lambda g: classify_ifs(g, 2.0, orbit_depth=3.0),
    lambda g: classify_ifs(g, 2.0, orbit_depth=True),
], ids=["depth-float", "depth-bool", "depth-negative", "width_cap-float", "width_cap-none",
        "in_attractor-depth-float", "in_attractor-depth-bool", "in_attractor-width_cap-str",
        "classify-orbit_depth-float", "classify-orbit_depth-bool"])
def test_orbit_analysis_refuses_counts_that_are_not_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(preset("tent"))


def test_kms_ifs_errors():
    tent = preset("tent")
    with pytest.raises(OutOfRegime):
        kms_measure_ifs(tent, [0.5], math.log(2.0))
    with pytest.raises(NotABranchPoint):
        kms_measure_ifs(tent, [0.25], math.log(4.0))


# ---------------------------------------------------------------------------
# orbit condition and classification


def _line(*coefficients):
    """The system of the line maps a x + b, one (a, b) each."""
    return IFSSystem([AffineMap([[a]], [b]) for a, b in coefficients], name="line")


def _seeded_system(seed):
    """A seeded random system: 2 or 3 maps of the line, or 3 or 4 of the plane.

    Every singular value lies in [0.25, 0.7].  For half the seeds, map 1 is
    made to fix map 0's fixed point, so the system has a branch value on its
    attractor (with 2 maps the attractor would be that one point, so only
    systems of 3 or more).
    """
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 2
    linears = []
    for _ in range(1 + dim + seed // 2 % 2):
        if dim == 1:
            linears.append(np.array([[rng.uniform(0.25, 0.7) * rng.choice([-1.0, 1.0])]]))
        else:
            t = rng.uniform(0.0, 2.0 * math.pi)
            rotation = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            linears.append(rotation @ np.diag(rng.uniform(0.25, 0.7, 2)))
    offsets = [rng.uniform(0.0, 1.0, dim) for _ in linears]
    if len(linears) > 2 and seed // 4 % 2 == 0:
        y0 = np.linalg.solve(np.eye(dim) - linears[0], offsets[0])
        offsets[1] = y0 - linears[1] @ y0
    return IFSSystem([AffineMap(a, b) for a, b in zip(linears, offsets)], name=f"random{seed}")


def _membership_points(gamma, count):
    """count seeded points of the invariant box, the branch values, the branch points and the seed."""
    data = gamma.branch_structure()
    rng = np.random.default_rng(1)
    box = gamma.center - gamma.radius + 2.0 * gamma.radius * rng.random((count, gamma.dim))
    return list(box) + [y for y, _prs in data.branch_values] + list(data.branch_points) + [gamma.seed]


ORACLE_SYSTEMS = {
    **{name: (lambda name=name: preset(name)) for name in ["tent", "binary", "sierpinski", "sierpinski-twisted"]},
    "three-branch": _three_branch_line,
    # a stable 318-point inverse closure
    "closure318": lambda: _line((0.5, 0.0), (-0.4, 1.0), (0.3, 0.35), (-0.25, 0.6)),
    # witnesses two levels down, the first of several forward images outside the closure
    "witness-depth2": lambda: _line((0.5, 0.5), (-1 / 3, 0.5), (-1 / 3, 1.0)),
    "witness-depth21": lambda: _line((-0.5, 2 / 3), (0.5, 2 / 3), (0.5, 1 / 3)),
    **{f"random{seed}": (lambda seed=seed: _seeded_system(seed)) for seed in range(20)},
    "one-point": lambda: _one_point_system()[1],
}


@pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
def test_orbit_analysis_matches_list_scan_oracle(name):
    # branch values, orbit reports and membership answers byte for byte as
    # the list scans give them.  The random systems run at smaller width
    # caps (an unstable closure stops past 200 points, a membership frontier
    # keeps 64) and test fewer points, so the oracle's quadratic scans stay
    # short.
    gamma = ORACLE_SYSTEMS[name]()
    small = name.startswith("random")
    cap = {"width_cap": 200} if small else {}
    assert stable_dumps(gamma.branch_structure().to_jsonable()) == stable_dumps(
        list_branch_structure(gamma).to_jsonable())
    for depth in (0, 3, 12):
        assert stable_dumps(orbit_condition(gamma, depth, **cap).to_jsonable()) == stable_dumps(
            list_orbit_condition(gamma, depth, **cap).to_jsonable()), depth
    points = _membership_points(gamma, 10 if small else 30)
    width = {"width_cap": 64} if small else {}
    assert [gamma.in_attractor(y, **width) for y in points] == [
        list_in_attractor(gamma, y, **width) for y in points]
    report = orbit_condition(gamma)
    if name == "closure318":
        assert report.inverse_closure_size == 318
    if name == "witness-depth2":
        assert [e.witness_depth for e in report.entries] == [2]
    if name == "witness-depth21":
        assert [e.witness_depth for e in report.entries] == [2, 1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inverse_images_match_one_solve_per_point_and_map(dim):
    # point-major rows, each bit-identical to its own one-right-hand-side solve
    rng = np.random.default_rng(60 + dim)
    gamma = _random_system(rng, dim)
    x = rng.normal(size=(7, dim))
    want = [np.linalg.solve(m.linear, p - m.offset) for p in x for m in gamma.maps]
    assert np.array_equal(gamma.inverse_images(x), np.array(want))
    assert gamma.inverse_images(x[:0]).shape == (0, dim)


def test_orbit_condition_tent():
    rep = orbit_condition(preset("tent"), depth=8)
    assert rep.certified
    entry = rep.entries[0]
    assert entry.branch_value == pytest.approx([1.0])
    assert entry.witness == pytest.approx([0.5])


def test_orbit_condition_vacuous_for_binary():
    rep = orbit_condition(preset("binary"))
    assert rep.certified and rep.entries == []


def test_orbit_condition_twisted():
    rep = orbit_condition(preset("sierpinski-twisted"), depth=10)
    assert rep.certified
    assert all(e.status == "certified" for e in rep.entries)
    assert len(rep.entries) == 3


def test_classify_tent():
    tent = preset("tent")
    rep = classify_ifs(tent, critical=True)
    assert rep.regime == "Critical" and rep.counts == (0, 1)
    assert rep.extreme_states[0].label == "hutchinson"
    rep = classify_ifs(tent, 0.3)
    assert rep.extreme_states == []
    rep = classify_ifs(tent, 2.0)
    assert rep.counts == (1, 0)


def test_classify_twisted_counts():
    tw = preset("sierpinski-twisted")
    assert len(classify_ifs(tw, 1.0).extreme_states) == 0
    assert len(classify_ifs(tw, critical=True).extreme_states) == 1
    assert len(classify_ifs(tw, 1.5).extreme_states) == 3


def test_classify_untwisted_only_critical():
    sg = preset("sierpinski")
    assert classify_ifs(sg, 1.0).extreme_states == []
    assert classify_ifs(sg, 1.5).extreme_states == []
    rep = classify_ifs(sg, critical=True)
    assert len(rep.extreme_states) == 1 and rep.extreme_states[0].kind == "infinite"


def test_classify_warns_when_uncertified():
    tw = preset("sierpinski-twisted")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        classify_ifs(tw, 1.5, orbit_depth=0)
        assert any(issubclass(w.category, HypothesisUncertified) for w in caught)


def test_twisted_self_similarity():
    # sampled points of the union of twisted images lie on the gasket cover
    tw = preset("sierpinski-twisted")
    sg = preset("sierpinski")
    rng = np.random.default_rng(3)
    # random gasket points via untwisted words
    pts = np.tile(sg.seed, (200, 1))
    for _ in range(30):
        idx = rng.integers(0, 3, size=200)
        for i, m in enumerate(sg.maps):
            mask = idx == i
            pts[mask] = m(pts[mask])
    for m in tw.maps:
        images = m(pts)
        for q in images[:50]:
            assert sg.in_attractor(q), q


def test_branch_pairs_actually_collide():
    for name in ("tent", "sierpinski-twisted"):
        gamma = preset(name)
        for y, pairs in gamma.branch_structure().branch_values:
            for j, jp in pairs:
                gap = np.linalg.norm(gamma.maps[j](y) - gamma.maps[jp](y))
                assert gap <= 1e-9


def test_chaos_game_respects_budget():
    with pytest.raises(AtomBudgetExceeded):
        hutchinson(preset("tent"), 0, chaos_samples=5000, atom_budget=100)


# ---------------------------------------------------------------------------
# units


def _scaled(gamma, s):
    """The conjugate x -> s gamma(x / s): the same system in other units."""
    return IFSSystem([AffineMap(m.linear, s * m.offset) for m in gamma.maps], name=gamma.name)


def _scale_free_results(gamma, s=1.0):
    """Results of the system, with every length divided by s."""
    data = gamma.branch_structure()
    out = {
        "radius": gamma.radius / s,
        "branch_values": [(y / s, prs) for y, prs in data.branch_values],
        "branch_points": [x / s for x in data.branch_points],
        "orbit": orbit_condition(gamma, depth=10).to_jsonable(),
    }
    for entry in out["orbit"]["entries"]:
        for key in ("branch_value", "witness"):
            if key in entry:
                entry[key] = [v / s for v in entry[key]]
    measures = {
        "deterministic": hutchinson(gamma, 10),
        "chaos": hutchinson(gamma, 0, chaos_samples=20_000, seed=3),
    }
    for k, b in enumerate(data.branch_points):
        measures[f"kms{k}"] = kms_measure_ifs(gamma, b, 1.5, depth=7).measure
    out["measures"] = {k: (mu.coords / s, mu.weights) for k, mu in measures.items()}
    return out


@pytest.mark.parametrize("name", ["tent", "binary", "sierpinski", "sierpinski-twisted"])
@pytest.mark.parametrize("exponent", [-40, -20, 20, 30])
def test_rescaled_system_gives_rescaled_results(name, exponent):
    # by a power of two every float operation scales exactly, so the
    # rescaled system must reproduce the unit results bit for bit
    gamma = preset(name)
    unit = _scale_free_results(gamma)
    s = 2.0**exponent
    got = _scale_free_results(_scaled(gamma, s), s)
    assert got["radius"] == unit["radius"]
    assert got["orbit"] == unit["orbit"]
    assert len(got["branch_values"]) == len(unit["branch_values"])
    for (y, prs), (y0, prs0) in zip(got["branch_values"], unit["branch_values"]):
        assert np.array_equal(y, y0) and prs == prs0
    assert len(got["branch_points"]) == len(unit["branch_points"])
    for x, x0 in zip(got["branch_points"], unit["branch_points"]):
        assert np.array_equal(x, x0)
    assert got["measures"].keys() == unit["measures"].keys()
    for key, (coords, weights) in got["measures"].items():
        coords0, weights0 = unit["measures"][key]
        assert np.array_equal(coords, coords0), key
        assert np.array_equal(weights, weights0), key


def _one_point_system():
    # both maps fix p = (0.125, 1.1875): the attractor is that one point
    p = np.array([0.125, 1.1875])
    a2 = np.array([[-0.3, 0.1], [0.2, 0.35]])
    return p, IFSSystem([AffineMap([[0.5, -0.2], [0.1, 0.4]], [0.3, 0.7]), AffineMap(a2, p - a2 @ p)])


def test_one_point_attractor_gets_the_unit_ball():
    p, gamma = _one_point_system()
    assert gamma.radius == 1.0
    points = gamma.branch_structure().branch_points
    assert len(points) == 1 and np.linalg.norm(points[0] - p) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisUncertified)
        assert classify_ifs(gamma, beta=1.5).counts == (1, 0)


def test_preset_radii_are_unchanged_by_the_rounding_floor():
    radii = {"tent": "0x1.0000000000000p+0", "binary": "0x1.0000000000000p-1",
             "sierpinski": "0x1.279a74590331cp-1", "sierpinski-twisted": "0x1.92d6e5ea92c54p-1"}
    for name, radius in radii.items():
        assert float(preset(name).radius).hex() == radius, name
