"""Atomic-measure algebra: integration, transfer operators, merging.

The semigroup oracle re-enumerates backward paths recursively through
numpy.roots, independent of the production pullback.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kmsdyn import projective
from kmsdyn.mapexpr import parse_map
from kmsdyn.kms import _branch_embedding, kms_measure, lyubich
from kmsdyn.ifs import _image_table, hutchinson, kms_measure_ifs, preset as ifs_preset
from kmsdyn.measure import (
    DEFAULT_CUTOFF_RADIUS,
    PLANE,
    SPHERE,
    AtomicMeasure,
    FibreTable,
    TestFunctionLibrary,
    _lexicographic_order,
    apply_F_beta,
    fibre_table,
    integrate,
    measure_sum,
    merge_planar,
    planar_clusters,
    pullback_F,
    pullback_G,
    tilde,
    trace_conditions,
    unseen,
    weak_star_distance,
)
from kmsdyn.polyroots import BLOCK_ROWS
from kmsdyn.projective import (
    SpherePoint,
    chordal_distance,
    embedding_array,
    homogeneous,
    merge_weighted,
    normalize_rows,
)

from merge_oracles import (
    _greedy_planar_oracle,
    collect_fibres,
    lexsort_merge_planar,
    list_merge_weighted,
    masked_chaos_samples,
    one_shot_trace_conditions,
)
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


@pytest.mark.parametrize("lib", [LIB, TestFunctionLibrary.plane(4, ((-2.0, 3.0), (0.0, 1.0))),
                                 TestFunctionLibrary.plane(5, ((0.0, 1.0),))])
def test_values_matrix_matches_evaluate_matrix(lib):
    X = np.random.default_rng(5).normal(size=(500, len(lib.functions[0].exponents)))
    oracle = np.array([f.evaluate_matrix(X) for f in lib.functions])
    np.testing.assert_allclose(lib.values_matrix(X), oracle, rtol=1e-15, atol=0)
    # any order works: a monomial whose parent comes later is evaluated afresh
    shuffled = TestFunctionLibrary(lib.space, lib.functions[::-1], lib.degree, lib.box)
    np.testing.assert_allclose(shuffled.values_matrix(X), oracle[::-1], rtol=1e-15, atol=0)


def test_library_sums_match_the_whole_matrix():
    # sums works a block of rows at a time; 20,000 rows span three blocks
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20_000, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    V = rng.random(size=(20_000, 2))
    full = LIB.values_matrix(X)
    assert np.all(np.abs(LIB.sums(X, V) - full @ V) <= 1e-13 * (np.abs(full) @ V))


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
    # z^3 totally ramifies over 0: F_beta delta_0 = e^-beta delta_0
    out = apply_F_beta(parse_map("z^3"), AtomicMeasure.delta(aff(0)), 1.0)
    assert out.n_atoms == 1 and out.points[0].to_affine() == 0
    assert out.total_mass() == pytest.approx(math.exp(-1.0))
    # 1/z^2 swaps 0 and infinity, so F_0 fixes (delta_0 + delta_inf)/2
    mu = two_point(aff(0), 0.5, INF, 0.5)
    assert weak_star_distance(apply_F_beta(parse_map("1/z^2"), mu, 0.0), mu, LIB) < 1e-12


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
    nu = AtomicMeasure(PLANE, [0.5], [1.0])
    with pytest.raises(ValueError):
        weak_star_distance(mu, nu, LIB)


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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("hash_base", [None, 0, 1], ids=["hash", "hash0", "hash1"])
def test_merge_planar_matches_union_find_oracle(monkeypatch, dim, hash_base):
    # the oracle is the greedy founder loop, not the union-find merge the
    # name recalls; hash bases 0 and 1 make distinct cells share hashes
    # (0: all of them, 1: cells with one coordinate sum); the result must
    # not change
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
            want = _greedy_planar_oracle(x, w, tol)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            merged += len(x) - len(got[1])
    assert merged > 0


def _sequential_unseen(seen, x, tol):
    """The rows of x farther than tol from every row of seen and every earlier kept row, by a list scan."""
    kept, out = list(seen), []
    for k, q in enumerate(x):
        if all(np.linalg.norm(q - r) > tol for r in kept):
            kept.append(q)
            out.append(k)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unseen_matches_the_sequential_rule(dim):
    # seen is the list scan's own kept set of one half of the planted atoms,
    # so its rows lie pairwise farther than tol apart; planar_clusters keeps
    # the same founders in index order
    rng = np.random.default_rng(100 + dim)
    tol = 1e-9
    dropped = 0
    for scale in (1.0, 1e6, 1e9):
        x = _planted_planar(rng, dim, scale, tol)
        half = len(x) // 2
        seen = x[:half][_sequential_unseen([], x[:half], tol)]
        got = unseen(seen, x[half:], tol)
        assert got.tolist() == _sequential_unseen(seen, x[half:], tol)
        keep, _member, _to = planar_clusters(x, tol)
        assert keep.tolist() == _sequential_unseen([], x, tol)
        dropped += len(x) - half - len(got)
    assert dropped > 0
    assert unseen(seen, np.empty((0, dim)), tol).tolist() == []


def test_merge_planar_matches_greedy_oracle_in_crowded_cells():
    # atoms are paired with the first few atoms of each cell, and more when
    # a founder lies past them: 3,000 atoms in one cell, and a founder late
    # in its cell (x = 1.45, after ten members of the x = 0 founder)
    rng = np.random.default_rng(41)
    for x, tol in [
        (rng.uniform(0.0, 0.4e-9, size=(3000, 1)), 1e-9),
        (rng.uniform(0.0, 0.4e-9, size=(3000, 2)), 1e-9),
        (np.array([[0.0]] + [[0.9 + 0.01 * k] for k in range(10)] + [[1.45], [2.0]]), 1.0),
    ]:
        w = rng.uniform(0.1, 1.0, len(x))
        got = merge_planar(x, w, tol)
        want = _greedy_planar_oracle(x, w, tol)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(got[1]) == 2 and np.array_equal(got[0][1], [(1.45 * w[-2] + 2.0 * w[-1]) / (w[-2] + w[-1])])


def test_merge_planar_orders_clusters_by_first_cell():
    # cells (0,2) (1,0) (1,1) (1,2) (2,2); (1,2) joins the (0,2) founder,
    # (2,2) the (1,1) founder, which is too far from (1,0) to join it
    x = np.array([[0.4, 2.0], [1.0, -0.4], [1.4, 0.7], [1.0, 2.0], [1.6, 1.6]])
    got = merge_planar(x, np.ones(5), 1.0)
    assert got[1].tolist() == [2.0, 1.0, 2.0]
    np.testing.assert_allclose(got[0], [[0.7, 2.0], [1.0, -0.4], [1.5, 1.15]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_merge_rule_is_one_across_engines(dim):
    # a chain of 8 atoms 0.6 tol apart: each founder takes the next atom
    # and the one after founds a cluster, so both engines give 4 clusters
    tol = 1e-9
    u = np.array([1.0, 0.0] if dim == 1 else [0.6, 0.8])[:dim]
    x = 0.123 + 0.6 * tol * np.arange(8)[:, None] * u
    assert len(merge_planar(x, np.ones(8), tol)[1]) == 4
    # near 0 the chordal metric is about twice the affine one
    chain = [SpherePoint.from_affine(1e-3 + 0.3e-8 * k) for k in range(8)]
    assert len(merge_weighted([(p, 1.0) for p in chain], 1e-8)) == 4


@pytest.mark.parametrize("coords", [
    [[1e10], [2e10], [-3e10]],
    [[0.0, 0.0], [np.nan, 1.0]],
    [[np.inf]],
    [[-(2.0**62) * 1e-9]],
])
def test_merge_planar_rejects_coordinates_past_the_cell_range(coords):
    with pytest.raises(ValueError, match="finite"):
        merge_planar(coords, np.ones(len(coords)))


def _planar_case(first, rest, dim):
    """Atoms with the given first coordinates; the other axes take rest, row by row."""
    x = np.zeros((len(first), dim))
    x[:, 0] = first
    x[:, 1:] = np.asarray(rest, dtype=np.float64).reshape(len(first), -1)[:, : dim - 1]
    return x


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_merge_planar_first_key_filter_matches_greedy_oracle(dim):
    # only atoms whose sorted first cell key lies within 1 of a neighbour's
    # reach the cell index; each case is checked against the brute-force rule
    tol = 1.0
    far = [[0.0, 0.0], [40.0, -40.0], [0.0, 0.0], [80.0, 80.0], [0.0, 0.0], [-80.0, 40.0]]
    edge = np.nextafter(2.0**62 * tol, 0.0)
    cases = [
        # first keys 1 apart within tol (0.4 -> 0 and 1.3 -> 1; 6.4 and 7.4
        # exactly tol apart), 2 apart (3.1 -> 3, 4.6 -> 5), and 1 apart but
        # 1.8 tol away (4.6 -> 5, 6.4 -> 6)
        _planar_case([0.4, 1.3, 3.1, 4.6, 6.4, 7.4], [[0.0, 0.0]] * 6, dim),
        # first keys 1 and 2 apart with far other keys: never one cluster
        # off the first axis
        _planar_case([0.4, 1.3, 3.1, 4.0, 6.2, 7.1], far, dim),
        # one first key, spread along the other axes: all marked, none crowded
        _planar_case(np.full(6, 2.2), [[5.0 * k, -3.0 * k] for k in range(6)], dim),
        # the widest first-key gaps there are, with repeats at both range edges
        _planar_case([-edge, edge, -edge, edge, 0.0, edge], [[0.0, edge], [edge, 0.0], [0.0, edge],
                                                             [-edge, 0.0], [0.0, 0.0], [edge, 0.0]], dim),
        # clusters of 3 and 4 atoms whose moment sums round differently in
        # another scan order, which index order decides within a cell
        _planar_case([0.1, 0.2, 0.3, 3.1, 3.2, 3.3, 3.05], [[0.1, -0.1], [0.2, -0.2], [0.3, -0.3], [0.7, -0.7],
                                                           [0.4, -0.4], [0.1, -0.1], [0.35, -0.35]], dim),
    ]
    rng = np.random.default_rng(dim)
    for x in cases:
        for perm in (np.arange(len(x)), np.arange(len(x))[::-1], rng.permutation(len(x))):
            w = rng.uniform(0.1, 1.0, len(x))
            got = merge_planar(x[perm], w, tol)
            want = _greedy_planar_oracle(x[perm], w, tol)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(merge_planar(cases[0], np.ones(6), tol)[1]) == 4
    assert len(merge_planar(cases[3], np.ones(6), tol)[1]) == (3 if dim == 1 else 4)
    forward, backward = merge_planar(cases[4], np.ones(7), tol), merge_planar(cases[4][::-1], np.ones(7), tol)
    assert forward[1].tolist() == backward[1].tolist() == [3.0, 4.0]
    assert not np.array_equal(forward[0], backward[0])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_merge_planar_tie_runs_match_lexsort_and_greedy_oracle(dim):
    # 20,000 atoms on 2,000 first keys, about ten atoms a key: numpy's
    # default argsort can leave keys that repeat this often out of index
    # order, so the order and the merge rest on the tie-run lexsort.  The other keys are
    # mixed, 2,000 rows repeat exactly, and keys sit at both ends of the
    # range, +-(2^62 - 512)
    rng = np.random.default_rng(60 + dim)
    tol = 1.0
    edge = np.nextafter(2.0**62 * tol, 0.0)
    firsts = np.r_[rng.choice(np.arange(-3000.0, 3000.0), 1998, replace=False), -edge, edge]
    x = rng.integers(-3, 4, size=(18_000, dim)) + rng.uniform(-0.45, 0.45, size=(18_000, dim))
    x[:, 0] += firsts[rng.integers(0, len(firsts), 18_000)]
    x[:, 1:][rng.random((18_000, dim - 1)) < 0.05] = edge
    x[:, 1:][rng.random((18_000, dim - 1)) < 0.05] = -edge
    x = np.vstack([x, x[rng.integers(0, 18_000, 2_000)]])
    x = x[rng.permutation(len(x))]
    w = rng.uniform(0.1, 1.0, len(x))
    cells = np.round(x / tol).astype(np.int64)
    want = np.lexsort(cells.T[::-1])
    order, first = _lexicographic_order(cells)
    assert np.array_equal(order, want) and np.array_equal(first, cells[want, 0])
    assert np.abs(cells).max() == 2**62 - 512
    got = merge_planar(x, w, tol)
    ref = _greedy_planar_oracle(x, w, tol)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert len(got[1]) < len(x)


def _no_argsort(*args, **kwargs):
    raise AssertionError("np.argsort called")


def test_lexicographic_order_of_chaos_cells_is_one_sort_of_packed_words(monkeypatch):
    # 10^5 gasket chaos samples at the system's tol: the first key spans about
    # 10^9 cells, which fits in 63 bits with 17 index bits, so no argsort runs
    gamma = ifs_preset("sierpinski")
    cells = np.round(masked_chaos_samples(gamma, 10**5, 7) / gamma.tol).astype(np.int64)
    want = np.lexsort(cells.T[::-1])
    monkeypatch.setattr(np, "argsort", _no_argsort)
    order, first = _lexicographic_order(cells)
    assert np.array_equal(order, want) and np.array_equal(first, cells[want, 0])
    assert order.dtype == want.dtype and first.dtype == cells.dtype
    assert (first[1:] == first[:-1]).any()  # tied first keys reach the tie-run lexsort


@pytest.mark.parametrize("case", ["one-row", "negative", "at-limit", "past-limit"])
def test_lexicographic_order_packs_words_up_to_the_63_bit_limit(monkeypatch, case):
    # four rows take b = 2 index bits, so a first-key span of 2^61 - 1 is the
    # widest that packs; one more cell falls back to np.argsort
    rng = np.random.default_rng(80)
    if case == "one-row":
        cells = np.array([[-5, 7]])
    elif case == "negative":
        cells = np.c_[rng.integers(-40, -30, 60), rng.integers(-3, 3, 60)]
    else:
        top = 2**60 - 1 if case == "at-limit" else 2**60
        cells = np.array([[top, 1], [-(2**60), 0], [top, 0], [-(2**60), -1]])
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    order, first = _lexicographic_order(cells)
    want = np.lexsort(cells.T[::-1])
    assert np.array_equal(order, want) and np.array_equal(first, cells[want, 0])
    assert len(calls) == (case == "past-limit")


def test_lexicographic_order_past_63_bits_keeps_tied_first_keys_in_row_order(monkeypatch):
    # 2,000 rows whose first keys span 2^63 cells take the argsort path; 40
    # first keys and 3 second keys leave about 17 rows a whole cell, so the
    # order is np.lexsort's only if that argsort keeps tied keys in row order
    rng = np.random.default_rng(90)
    firsts = np.r_[rng.choice(np.arange(-1000, 1000), 38, replace=False), -(2**62), 2**62 - 1]
    cells = np.c_[firsts[rng.integers(0, 40, 2000)], rng.integers(0, 3, 2000)]
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    order, first = _lexicographic_order(cells)
    want = np.lexsort(cells.T[::-1])
    assert np.array_equal(order, want) and np.array_equal(first, cells[want, 0])
    assert len(calls) == 1


@pytest.mark.parametrize("build, coords, weights", [
    (merge_planar, [[0.1], [0.2]], [1.0, 1.0, 1.0]),  # a weight without a row
    (merge_planar, [[0.1], [0.2], [0.3]], [1.0, 1.0]),  # a row without a weight
    (merge_planar, [[0.1], [0.2]], [[1.0], [1.0]]),  # weights not one number a row
    # three numbers are one 3-D point, so three weights do not fit it
    (AtomicMeasure.from_planar_atoms, [0.1, 0.2, 0.3], [1.0, 1.0, 1.0]),
], ids=["extra-weight", "missing-weight", "2d-weights", "flat-list"])
def test_merge_planar_rejects_weights_that_do_not_match_the_rows(build, coords, weights):
    with pytest.raises(ValueError, match="coords and weights length mismatch"):
        build(coords, weights)


@pytest.mark.parametrize("dim", [1, 2])
def test_merge_planar_signed_zeros_match_the_lexsort_oracle_byte_for_byte(dim):
    # np.array_equal takes -0.0 for 0.0, so the bytes are compared: the
    # oracle's bincount sums start at 0.0, which turns a moment of -0.0 into
    # 0.0, for an atom alone and for a cluster alike
    rng = np.random.default_rng(70 + dim)
    zeros = np.array([[0.0], [-0.0]])
    alone = [np.array([[-0.0]]), np.array([[-0.0], [5.0], [-10.0]])]
    together = [np.array([[-0.0], [-0.0]]), np.array([[-0.0], [0.0], [-0.0]]), np.array([[0.0], [-0.0], [5.0]])]
    if dim == 2:
        # -0.0 on both axes: atoms on a line 5 apart, and clusters of all four signed zero pairs
        alone = [np.c_[zeros[[1, 1, 0, 1]], [[-0.0], [5.0], [-5.0], [10.0]]], np.array([[-0.0, -0.0]])]
        pairs = np.array([[a, b] for a in (0.0, -0.0) for b in (0.0, -0.0)])
        together = [pairs, pairs[::-1], np.vstack([pairs[[3, 3]], pairs[[3, 1]] + [5.0, 0.0]])]
    for x in alone + together:
        for perm in (np.arange(len(x)), np.arange(len(x))[::-1], rng.permutation(len(x))):
            w = rng.uniform(0.1, 1.0, len(x))
            got = merge_planar(x[perm], w, 1.0)
            want = lexsort_merge_planar(x[perm], w, 1.0)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert not np.signbit(got[0][got[0] == 0.0]).any()  # every zero comes out as 0.0
    assert [len(merge_planar(x, np.ones(len(x)), 1.0)[1]) for x in alone] == [len(x) for x in alone]


def _traced_peak(build):
    """Bytes build() allocates at its peak beyond what was allocated before, under tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_merge_planar_peak_memory_stays_within_three_coordinate_arrays():
    # 200,000 2-D atoms, nearly all alone: no (n, d) array of moments w x is
    # made, and the cells and the sort are freed before the cluster sums
    rng = np.random.default_rng(0)
    coords = rng.random((200_000, 2))
    weights = np.full(len(coords), 1.0 / len(coords))
    assert _traced_peak(lambda: merge_planar(coords, weights)) <= 3.0 * coords.nbytes


def test_chaos_game_peak_memory_stays_within_five_and_a_half_sample_arrays():
    # the samples, the merge, and not the step picks, which go before it
    gamma = ifs_preset("sierpinski")
    peak = _traced_peak(lambda: hutchinson(gamma, 0, chaos_samples=200_000, seed=3))
    assert peak <= 5.5 * 200_000 * gamma.dim * 8


def test_integrate_all_matches_integrate():
    # one blocked pass over more atoms than a block, against one integrate
    # call per function, on the plane and on the sphere
    gamma = ifs_preset("sierpinski-twisted")
    plane = hutchinson(gamma, 0, chaos_samples=20_000, seed=3)
    rng = np.random.default_rng(5)
    parts = rng.normal(size=(20_000, 4))  # rows [z, w] = [a + bi, c + di]
    sphere = AtomicMeasure(SPHERE, normalize_rows(parts[:, 0::2] + 1j * parts[:, 1::2]), rng.uniform(0.1, 1.0, 20_000))
    for mu, lib in [(plane, TestFunctionLibrary.plane(box=gamma.bounding_box(), degree=3)),
                    (sphere, TestFunctionLibrary.sphere(4))]:
        want = np.array([integrate(mu, f) for f in lib.functions])
        np.testing.assert_allclose(lib.integrate_all(mu), want, rtol=1e-12, atol=0)


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


# ---------------------------------------------------------------------------
# fibre tables


@pytest.mark.parametrize("expr, beta, depth", [("z^2+1", 1.0, 8), ("z^2-1", 1.0, 8), ("z^3-z", 1.5, 6)])
def test_fibre_table_matches_scalar_collect(expr, beta, depth):
    R = parse_map(expr)
    anchor = next(p for p, _e in R.branch_data().branch_points if not p.is_infinity())
    mu = kms_measure(R, anchor, beta, depth=depth).measure
    table = fibre_table(R, mu)
    ref = collect_fibres(mu.points, R.preimages, lambda pts: embedding_array(*homogeneous(pts)))
    assert np.array_equal(table.owner, ref.owner)
    assert np.array_equal(table.degree, ref.degree)
    assert np.all(np.bincount(table.owner, weights=table.degree) == R.n)
    assert np.max(np.abs(table.coords - ref.coords)) <= 1e-12


def _sphere_trace_table():
    R = parse_map("z^2+1")
    mu = kms_measure(R, aff(0), 1.0, depth=13).measure  # 16,383 atoms, 32,766 fibres
    return LIB, mu, fibre_table(R, mu), _branch_embedding(R, 1e-8), DEFAULT_CUTOFF_RADIUS


def _planar_trace_table():
    gamma = ifs_preset("sierpinski-twisted")
    branch = gamma.branch_structure().branch_points
    mu = kms_measure_ifs(gamma, branch[0], 1.5, depth=8).measure  # 9,841 atoms, 29,523 fibres
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box())
    return lib, mu, _image_table(gamma, mu), branch, DEFAULT_CUTOFF_RADIUS * gamma.radius


@pytest.mark.parametrize("build", [_sphere_trace_table, _planar_trace_table])
def test_trace_conditions_equal_the_one_shot_kernel_bit_for_bit(build):
    # fibre tables longer than three blocks whose anchor is a branch point,
    # so the cutoff masks atoms and fibres in more than one block
    lib, mu, table, branch, rho = build()
    assert len(table.owner) > 3 * BLOCK_ROWS
    for centers in (branch, ()):
        k1, k2, masked = trace_conditions(lib, mu, table, 1.5, centers, rho)
        ref_k1, ref_k2, ref_masked = one_shot_trace_conditions(lib, mu, table, 1.5, centers, rho)
        assert k1.tobytes() == ref_k1.tobytes()
        assert (k2.hex(), masked.hex()) == (ref_k2.hex(), ref_masked.hex())
        assert (0.0 < masked < mu.total_mass()) if len(centers) else masked == 0.0


@pytest.mark.parametrize("space", [PLANE, SPHERE])
def test_trace_conditions_peak_memory_stays_within_24_bytes_per_fibre(space):
    # 90,000 atoms with three fibres each: besides the owners' weights (8
    # bytes a fibre), the kernel forms only block-sized arrays; the one-shot
    # kernel took 67 bytes a fibre on the plane and 83 on the sphere
    rng = np.random.default_rng(4)
    n, per = 90_000, 3
    if space == PLANE:
        rows, fibres, lib = rng.random((n, 2)), rng.random((n * per, 2)), TestFunctionLibrary.plane()
        branch = [np.array([0.5, 0.5]), np.array([0.25, 0.0])]
    else:
        parts = rng.normal(size=(n * (per + 1), 2)) + 1j * rng.normal(size=(n * (per + 1), 2))
        rows, fibres, lib = parts[:n], embedding_array(*parts[n:].T), LIB
        branch = embedding_array(np.array([0j, 1 + 0j]), np.array([1 + 0j, 0j]))
    mu = AtomicMeasure(space, rows, np.full(n, 1.0 / n))
    mu.embedding()  # cached on mu before the kernel runs
    table = FibreTable(np.repeat(np.arange(n), per), np.ones(n * per, dtype=np.int64), fibres)
    peak = _traced_peak(lambda: trace_conditions(lib, mu, table, 1.5, branch, 0.05))
    assert peak < 24 * n * per


# ---------------------------------------------------------------------------
# the array atom store


def _row_bits(rows, weights):
    """Each atom's z, w and weight as bytes, signed zeros included."""
    rows = np.asarray(rows, dtype=np.complex128)
    return [r.tobytes() + np.float64(w).tobytes() for r, w in zip(rows, weights)]


def _old_pullback(R, mu, index_weighted):
    """A pullback as it ran on SpherePoints: one per fibre, then the list merge."""
    fib = fibre_table(R, mu)
    weights = mu.weights[fib.owner] * (fib.degree if index_weighted else 1)
    points = [SpherePoint(a, b) for a, b in zip(fib.z.tolist(), fib.w.tolist())]
    return list_merge_weighted(zip(points, weights))


def _z2_minus_1():
    R = parse_map("z^2-1")
    return R, kms_measure(R, SpherePoint.zero(), 1.5, depth=8).measure


def _z3_minus_z():
    R = parse_map("z^3-z")
    return R, kms_measure(R, aff(1 / math.sqrt(3)), 1.5, depth=5).measure


def _z2_circle():
    # on the unit circle the stored pairs sit at |z| = |w|, where SpherePoint
    # can leave the smaller modulus an ulp above 1 and normalize it again
    R = parse_map("z^2")
    return R, lyubich(R, aff(1), 8)


@pytest.mark.parametrize("build", [_z2_minus_1, _z3_minus_z, _z2_circle])
def test_pullbacks_equal_the_point_path_bit_for_bit(build):
    R, mu = build()
    for pull, index_weighted in ((pullback_F, False), (pullback_G, True)):
        got = pull(R, mu)
        want = _old_pullback(R, mu, index_weighted)
        assert _row_bits(got.coords, got.weights) == _row_bits([(p.z, p.w) for p, _w in want], [w for _p, w in want])


@pytest.mark.parametrize("build", [_z2_minus_1, _z3_minus_z, _z2_circle])
def test_sphere_rows_read_back_exactly(build):
    R, mu = build()
    moved = 0
    for nu in (mu, pullback_F(R, mu), measure_sum([mu, pullback_G(R, mu)])):
        assert [(p.z, p.w) for p in nu.points] == [tuple(row) for row in nu.coords.tolist()]
        # SpherePoint(*row) reproduces each row off |z| = |w|; on it, it can
        # leave the other modulus an ulp above 1 and pivot again
        again = [(p.z, p.w) for p in (SpherePoint(*row) for row in nu.coords.tolist())]
        same = np.array([a == b for a, b in zip(_row_bits(again, nu.weights), _row_bits(nu.coords, nu.weights))])
        assert np.all(same | (np.hypot(nu.coords.real, nu.coords.imag).min(axis=1) == 1.0))
        moved += int(np.sum(~same))
    assert (moved > 0) == (build is _z2_circle)


@pytest.mark.parametrize("weight", [math.nan, 0.0, -1.0], ids=repr)
def test_atomic_measure_refuses_a_weight_that_is_not_positive(weight):
    with pytest.raises(ValueError, match="atom weights must be positive"):
        AtomicMeasure(SPHERE, [[0j, 1]], [weight])
