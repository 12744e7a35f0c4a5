"""Atomic-measure algebra: integration, transfer operators, decomposition.

The semigroup oracle re-enumerates backward paths recursively through
numpy.roots, independent of the production pullback.
"""

import itertools
import math

import numpy as np
import pytest

from kmsdyn import projective
from kmsdyn.errors import NotSubinvariant
from kmsdyn.mapexpr import parse_map
from kmsdyn.measure import (
    AtomicMeasure,
    TestFunctionLibrary,
    apply_F_beta,
    decompose_trace,
    integrate,
    measure_sum,
    merge_planar,
    pullback_F,
    pullback_G,
    tilde,
    weak_star_distance,
)
from kmsdyn.projective import SpherePoint, chordal_distance

from merge_oracles import merge_planar as merge_planar_union_find
from test_ratmap import oracle_level_sets


def aff(c):
    return SpherePoint.from_affine(c)


INF = SpherePoint.infinity()
LIB = TestFunctionLibrary.sphere()


def two_point(a, wa, b, wb):
    return AtomicMeasure.from_sphere_atoms([(a, wa), (b, wb)])


# ---------------------------------------------------------------------------
# integration and the test library


def test_integrate_examples():
    assert integrate(AtomicMeasure.delta(aff(0)), 1) == 1.0
    mu = two_point(aff(1), 0.5, aff(-1), 0.5)
    first_coord = LIB.functions[1]  # embedding monomial of degree 1
    assert sum(first_coord.exponents) == 1
    assert integrate(mu, first_coord) == pytest.approx(0.0, abs=1e-15)
    mu2 = two_point(aff(0), 0.3, INF, 0.7)
    assert integrate(mu2, 1) == pytest.approx(1.0)


def test_library_contains_constant_and_sups():
    assert LIB.functions[0].exponents == (0, 0, 0)
    assert LIB.functions[0].sup_norm == 1.0
    assert len(LIB) == 35  # monomials of total degree <= 4 in three variables
    rng = np.random.default_rng(4)
    pts = [SpherePoint(complex(a, b), complex(c, d)) for a, b, c, d in rng.normal(size=(200, 4))]
    X = np.array([p.embedding() for p in pts])
    for f in LIB.functions:
        vals = np.abs(f.evaluate_matrix(X))
        assert np.all(vals <= f.sup_norm + 1e-12)


def test_tilde_examples():
    Rsq = parse_map("z^2")
    assert tilde(Rsq, 1, aff(1)) == 2.0
    assert tilde(Rsq, 1, aff(0)) == 1.0  # single double preimage: the set sum drops
    Rp = parse_map("z^2+1")
    assert tilde(Rp, 1, aff(1)) == 1.0


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_F_examples():
    Rsq = parse_map("z^2")
    out = pullback_F(Rsq, AtomicMeasure.delta(aff(1)))
    assert out.total_mass() == pytest.approx(2.0)
    assert out.n_atoms == 2
    out = pullback_F(Rsq, AtomicMeasure.delta(aff(0)))
    assert out.n_atoms == 1 and out.total_mass() == pytest.approx(1.0)
    Rinv = parse_map("1/z^2")
    out = pullback_F(Rinv, AtomicMeasure.delta(aff(0)))
    assert out.n_atoms == 1 and out.points[0].is_infinity()
    assert out.total_mass() == pytest.approx(1.0)


def test_pullback_G_examples():
    Rsq = parse_map("z^2")
    out = pullback_G(Rsq, AtomicMeasure.delta(aff(0)))
    assert out.n_atoms == 1 and out.total_mass() == pytest.approx(2.0)
    out = pullback_G(Rsq, AtomicMeasure.delta(aff(1)))
    assert sorted(w for _p, w in out.iter_atoms()) == pytest.approx([1.0, 1.0])
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = aff(complex(rng.normal(), rng.normal()))
        out = pullback_G(Rsq, AtomicMeasure.delta(y))
        assert out.total_mass() == pytest.approx(2.0, abs=1e-12)


def test_apply_F_beta_examples():
    Rsq = parse_map("z^2")
    out = apply_F_beta(Rsq, AtomicMeasure.delta(aff(0)), math.log(2))
    assert out.n_atoms == 1 and out.total_mass() == pytest.approx(0.5)
    out = apply_F_beta(Rsq, AtomicMeasure.delta(aff(1)), math.log(2))
    assert out.total_mass() == pytest.approx(1.0)
    Rp = parse_map("z^2+1")
    for beta in (0.0, 0.7, 3.0):
        out = apply_F_beta(Rp, AtomicMeasure.delta(INF), beta)
        assert out.n_atoms == 1 and out.points[0].is_infinity()
        assert out.total_mass() == pytest.approx(math.exp(-beta))


def test_apply_F_beta_rejects_negative_beta():
    with pytest.raises(ValueError):
        apply_F_beta(parse_map("z^2"), AtomicMeasure.delta(aff(1)), -0.5)


def test_pullback_linearity_and_positivity():
    R = parse_map("z^2+1")
    rng = np.random.default_rng(6)
    pts = [aff(complex(a, b)) for a, b in rng.normal(size=(12, 2))]
    w1 = rng.uniform(0.1, 1, size=12)
    w2 = rng.uniform(0.1, 1, size=12)
    t = 0.37
    mu1 = AtomicMeasure.from_sphere_atoms(list(zip(pts, w1)))
    mu2 = AtomicMeasure.from_sphere_atoms(list(zip(pts, w2)))
    mix = AtomicMeasure.from_sphere_atoms(list(zip(pts, t * w1 + (1 - t) * w2)))
    lhs = pullback_F(R, mix)
    rhs = measure_sum([pullback_F(R, mu1).scaled(t), pullback_F(R, mu2).scaled(1 - t)])
    assert weak_star_distance(lhs, rhs, LIB) < 1e-12
    assert np.all(lhs.weights > 0)


def test_duality_of_pullback_and_tilde():
    R = parse_map("z^2+1")
    rng = np.random.default_rng(13)
    pts = [aff(complex(a, b)) for a, b in rng.normal(size=(50, 2))]
    mu = AtomicMeasure.from_sphere_atoms([(p, w) for p, w in zip(pts, rng.uniform(0.1, 1, 50))])
    fmu = pullback_F(R, mu)
    for f in LIB.functions:
        lhs = integrate(fmu, f)
        rhs = sum(w * tilde(R, f, y) for y, w in mu.iter_atoms())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_mass_law():
    R = parse_map("z^2+1")
    rng = np.random.default_rng(23)
    pts = [aff(complex(a, b)) for a, b in rng.normal(size=(20, 2))]
    weights = rng.uniform(0.1, 1, size=20)
    mu = AtomicMeasure.from_sphere_atoms(list(zip(pts, weights)))
    # G multiplies mass by exactly N
    assert pullback_G(R, mu).total_mass() == pytest.approx(2 * mu.total_mass(), rel=1e-12)
    # F multiplies by at most N, exactly N off the branch values
    fm = pullback_F(R, mu).total_mass()
    assert fm <= 2 * mu.total_mass() + 1e-12
    branch_values = R.branch_data().branch_values
    off_branch = all(
        chordal_distance(p, v) > 1e-6 for p in pts for v in branch_values
    )
    assert off_branch and fm == pytest.approx(2 * mu.total_mass(), rel=1e-12)
    # an atom on a branch value loses mass
    nu = AtomicMeasure.delta(aff(1))  # 1 = image of the double point 0
    assert pullback_F(R, nu).total_mass() == pytest.approx(1.0)


def test_pullback_semigroup_against_path_oracle():
    R = parse_map("z^2+1")
    y = aff(0.25 + 0.1j)
    mu = AtomicMeasure.delta(y)
    for _ in range(6):
        mu = pullback_F(R, mu)
    levels = oracle_level_sets(R, y, 6)
    assert mu.n_atoms == len(levels[6])
    for p, w in mu.iter_atoms():
        assert w == pytest.approx(1.0)  # one backward path per point
        assert min(chordal_distance(p, q) for q in levels[6]) < 1e-6
    # F^{m+n} = F^m after F^n, merged, for m + n = 6
    mu2 = AtomicMeasure.delta(y)
    for _ in range(2):
        mu2 = pullback_F(R, mu2)
    for _ in range(4):
        mu2 = pullback_F(R, mu2)
    assert weak_star_distance(mu, mu2, LIB) < 1e-12


# ---------------------------------------------------------------------------
# weak-* distance


def test_weak_star_examples():
    mu = two_point(aff(1), 0.5, aff(-1), 0.5)
    assert weak_star_distance(mu, mu, LIB) == 0.0
    d = weak_star_distance(AtomicMeasure.delta(aff(0)), AtomicMeasure.delta(INF), LIB)
    assert d > 0.5  # the third embedding coordinate separates the poles by 2
    four = AtomicMeasure.from_sphere_atoms(
        [(aff(1), 0.25), (aff(-1), 0.25), (aff(1j), 0.25), (aff(-1j), 0.25)]
    )
    # oracle: evaluate the library gap directly
    expected = max(
        abs(integrate(mu, f) - integrate(four, f)) / f.sup_norm for f in LIB.functions
    )
    assert weak_star_distance(mu, four, LIB) == pytest.approx(expected)
    assert expected > 0.1


def test_weak_star_space_mismatch():
    mu = AtomicMeasure.delta(aff(0))
    nu = AtomicMeasure.delta_plane([0.5])
    with pytest.raises(ValueError):
        weak_star_distance(mu, nu, LIB)


# ---------------------------------------------------------------------------
# finite/infinite decomposition


def test_decompose_geometric_fixed_atom():
    # delta_inf for z^2+1: F_beta(delta_inf) = e^-beta delta_inf, so the
    # finite part reconstructs delta_inf and the infinite part dies
    R = parse_map("z^2+1")
    beta = 0.9
    mu = AtomicMeasure.delta(INF)
    out = decompose_trace(R, mu, beta, n_max=40)
    assert out.finite_part.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert out.infinite_part.total_mass() == pytest.approx(math.exp(-40 * beta), rel=1e-9)
    assert out.residual < 1e-12
    assert out.clipped_mass == 0.0


def test_decompose_power_map_fixed_atom_is_finite_type():
    # delta_0 for z^N is the finite-type geometric series over its own orbit
    for n, beta in ((2, 0.5), (3, 1.0)):
        R = parse_map(f"z^{n}")
        out = decompose_trace(R, AtomicMeasure.delta(aff(0)), beta, n_max=60)
        assert out.finite_part.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert out.infinite_part.total_mass() == pytest.approx(math.exp(-60 * beta), abs=1e-12)


def test_decompose_invariant_two_cycle_at_beta_zero():
    # (delta_0 + delta_inf)/2 for 1/z^2 at beta = 0 is exactly invariant:
    # the finite part vanishes and the infinite part is the measure itself
    R = parse_map("1/z^2")
    mu = two_point(aff(0), 0.5, INF, 0.5)
    out = decompose_trace(R, mu, 0.0, n_max=10)
    assert out.finite_part.n_atoms == 0
    assert weak_star_distance(out.infinite_part, mu, LIB) < 1e-12
    assert out.residual < 1e-12


def test_decompose_rejects_far_from_subinvariant():
    # delta_1 under z^2 at beta=0: F(delta_1) charges -1, which mu does not
    R = parse_map("z^2")
    with pytest.raises(NotSubinvariant):
        decompose_trace(R, AtomicMeasure.delta(aff(1)), 0.0, n_max=3)


# ---------------------------------------------------------------------------
# planar measures


def test_planar_measure_merge_and_moments():
    coords = np.array([[0.0], [0.0], [1.0]])
    mu = AtomicMeasure.from_planar_atoms(coords, np.array([0.25, 0.25, 0.5]))
    assert mu.n_atoms == 2
    assert mu.total_mass() == pytest.approx(1.0)
    lib = TestFunctionLibrary.plane(degree=2, box=((0.0, 1.0),))
    x1 = [f for f in lib.functions if f.exponents == (1,)][0]
    assert integrate(mu, x1) == pytest.approx(0.5)


def _planted_planar(rng, dim, scale, tol):
    """Random atoms at one scale with near-duplicates, chains and exact repeats."""
    base = rng.uniform(-1.0, 1.0, size=(40, dim)) * scale
    parts = [base, base[30:40]]
    for p in base[:15]:
        u = rng.normal(size=dim)
        parts.append(p + rng.uniform(0.1, 2.0) * tol * u / np.linalg.norm(u))
    for p in base[15:20]:
        # 5-8 atoms 0.6 tol apart span at least 2.4 tol, at least 1.2 tol
        # along the longest axis, so every chain crosses a cell boundary
        u = rng.normal(size=dim)
        steps = np.arange(rng.integers(5, 9))[:, None]
        parts.append(p + 0.6 * tol * steps * u / np.linalg.norm(u))
    x = np.vstack(parts)
    return x[rng.permutation(len(x))]


def _cluster_weights_by_first_cell(x, w, tol):
    """Cluster weights of merge_planar's rule, by brute force, in first-cell order.

    Cells round(x / tol) hold their atoms' weighted centroid; grid
    neighbours whose centroids lie within tol link up; a cluster is a
    component, weighed over its cells in lexicographic order.
    """
    cells = [tuple(c) for c in np.round(x / tol).astype(np.int64).tolist()]
    uniq = sorted(set(cells))
    at = {c: k for k, c in enumerate(uniq)}
    mass, moment = np.zeros(len(uniq)), np.zeros((len(uniq), x.shape[1]))
    for c, xi, wi in zip(cells, x, w):
        mass[at[c]] += wi
        moment[at[c]] += wi * xi
    rep = moment / mass[:, None]
    comp = [-1] * len(uniq)
    for k in range(len(uniq)):  # components in order of their first cell
        if comp[k] < 0:
            comp[k], stack = k, [k]
            while stack:
                a = stack.pop()
                for off in itertools.product((-1, 0, 1), repeat=x.shape[1]):
                    b = at.get(tuple(u + o for u, o in zip(uniq[a], off)), -1)
                    if b >= 0 and comp[b] < 0 and np.linalg.norm(rep[a] - rep[b]) <= tol:
                        comp[b] = k
                        stack.append(b)
    out = {}
    for k in range(len(uniq)):
        out[comp[k]] = out.get(comp[k], 0.0) + mass[k]
    return [out[k] for k in sorted(out)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("hash_base", [None, 0, 1], ids=["hash", "hash0", "hash1"])
def test_merge_planar_matches_union_find_oracle(monkeypatch, dim, hash_base):
    # hash bases 0 and 1 make distinct cells share hashes (0: all of them,
    # 1: cells with one coordinate sum); the result must not change
    if hash_base is not None:
        monkeypatch.setattr(projective, "_HASH", hash_base)
    rng = np.random.default_rng(dim)
    tol = 1e-9
    merged = 0
    for trial in range(25 if hash_base is None else 5):
        for scale in (1.0, 1e6, 1e9):
            x = _planted_planar(rng, dim, scale, tol)
            w = rng.uniform(0.1, 1.0, len(x))
            got = merge_planar(x, w, tol)
            want = merge_planar_union_find(x, w, tol)
            # the oracle orders clusters by their union-find root cell, which
            # is not always their first cell; the atoms agree bit for bit
            rows = [np.lexsort(np.column_stack(out).T) for out in (got, want)]
            assert np.array_equal(got[0][rows[0]], want[0][rows[1]])
            assert np.array_equal(got[1][rows[0]], want[1][rows[1]])
            assert got[1].tolist() == _cluster_weights_by_first_cell(x, w, tol)
            merged += len(x) - len(got[1])
    assert merged > 0


def test_merge_planar_orders_clusters_by_first_cell():
    # cells (0,2) (1,0) (1,1) (1,2) (2,2); (0,2)-(1,2)-(2,2)-(1,1) link up
    x = np.array([[0.4, 2.0], [1.0, -0.4], [1.4, 0.7], [1.0, 2.0], [1.6, 1.6]])
    got = merge_planar(x, np.ones(5), 1.0)
    assert got[1].tolist() == [4.0, 1.0]
    np.testing.assert_allclose(got[0], [[1.1, 1.575], [1.0, -0.4]], rtol=0, atol=1e-15)
    want = merge_planar_union_find(x, np.ones(5), 1.0)  # root at the (1,1) cell
    assert np.array_equal(got[0], want[0][::-1]) and np.array_equal(got[1], want[1][::-1])


@pytest.mark.parametrize("coords", [
    [[1e10], [2e10], [-3e10]],
    [[0.0, 0.0], [np.nan, 1.0]],
    [[np.inf]],
    [[-(2.0**62) * 1e-9]],
])
def test_merge_planar_rejects_coordinates_past_the_cell_range(coords):
    with pytest.raises(ValueError, match="finite"):
        merge_planar(coords, np.ones(len(coords)))


def test_planar_library_sup_norms():
    lib = TestFunctionLibrary.plane(degree=3, box=((-2.0, 1.0), (0.0, 0.5)))
    for f in lib.functions:
        expect = (2.0 ** f.exponents[0]) * (0.5 ** f.exponents[1])
        assert f.sup_norm == pytest.approx(expect)


def test_pullback_G_linearity():
    R = parse_map("z^2+1")
    rng = np.random.default_rng(41)
    pts = [aff(complex(a, b)) for a, b in rng.normal(size=(10, 2))]
    w1 = rng.uniform(0.1, 1, size=10)
    w2 = rng.uniform(0.1, 1, size=10)
    t = 0.61
    mix = AtomicMeasure.from_sphere_atoms(list(zip(pts, t * w1 + (1 - t) * w2)))
    lhs = pullback_G(R, mix)
    rhs = measure_sum([
        pullback_G(R, AtomicMeasure.from_sphere_atoms(list(zip(pts, w1)))).scaled(t),
        pullback_G(R, AtomicMeasure.from_sphere_atoms(list(zip(pts, w2)))).scaled(1 - t),
    ])
    assert weak_star_distance(lhs, rhs, LIB) < 1e-12
