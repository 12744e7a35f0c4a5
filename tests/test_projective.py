"""Sphere-point arithmetic: normalization, the chordal metric, clustering."""

import math

import numpy as np
import pytest

from kmsdyn import measure, projective
from kmsdyn.kms import kms_measure
from kmsdyn.mapexpr import parse_map
from kmsdyn.projective import (
    CellIndex,
    SpherePoint,
    chordal_distance,
    cluster,
    first_within,
    founders,
    homogeneous,
    merge_sphere,
    merge_weighted,
    sphere_cells,
)

from merge_oracles import _SphereHash, index_founders, list_merge_weighted


def test_from_affine_examples():
    p = SpherePoint.from_affine(0)
    assert p.z == 0 and p.w == 1
    q = SpherePoint.infinity()
    assert q.z == 1 and q.w == 0
    r = SpherePoint.from_affine(3 + 4j)
    assert max(abs(r.z), abs(r.w)) == 1.0
    assert abs(r.to_affine() - (3 + 4j)) < 1e-15


def test_zero_pair_rejected():
    with pytest.raises(ValueError):
        SpherePoint(0.0, 0.0)


def test_normalization_idempotent_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        if z == 0 and w == 0:
            continue
        p = SpherePoint(z, w)
        q = SpherePoint(p.z, p.w)
        assert q.z == p.z and q.w == p.w


def test_chordal_examples():
    assert chordal_distance(SpherePoint.zero(), SpherePoint.infinity()) == 2.0
    p = SpherePoint.from_affine(0.3 - 0.7j)
    assert chordal_distance(p, p) == 0.0
    # direct evaluation: 2|0*1 - 1*1| / (1 * sqrt(2))
    d = chordal_distance(SpherePoint.zero(), SpherePoint.from_affine(1))
    assert d == pytest.approx(math.sqrt(2), abs=1e-15)


def test_chordal_metric_properties_random_triples():
    rng = np.random.default_rng(42)
    pts = [SpherePoint(complex(a, b), complex(c, d))
           for a, b, c, d in rng.normal(size=(60, 4))]
    for k in range(0, 60, 3):
        p, q, r = pts[k], pts[k + 1], pts[k + 2]
        assert chordal_distance(p, q) >= 0
        assert chordal_distance(p, q) == pytest.approx(chordal_distance(q, p), rel=1e-14)
        assert chordal_distance(p, q) <= 2.0 + 1e-15
        assert chordal_distance(p, r) <= chordal_distance(p, q) + chordal_distance(q, r) + 1e-12


def test_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        lam = 10.0 ** rng.uniform(-6, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d = chordal_distance(SpherePoint(z, w), SpherePoint(lam * z, lam * w))
        assert d < 1e-12


def test_cluster_near_duplicates():
    pts = [SpherePoint.from_affine(1), SpherePoint.from_affine(1 + 1e-14),
           SpherePoint.from_affine(-1)]
    out = cluster(pts, 1e-9)
    assert [(p.to_affine(), m) for p, m in out] == [(1 + 0j, 2), (-1 + 0j, 1)]


def test_cluster_empty():
    assert cluster([], 1e-9) == []


def test_cluster_circle_points_stay_distinct():
    pts = [SpherePoint.from_affine(np.exp(2j * np.pi * k / 8)) for k in range(8)]
    out = cluster(pts, 1e-9)
    assert len(out) == 8
    assert all(m == 1 for _p, m in out)


def test_cluster_multiplicities_sum():
    rng = np.random.default_rng(11)
    pts = [SpherePoint.from_affine(complex(a, b)) for a, b in rng.normal(size=(40, 2))]
    pts += pts[:13]  # force duplicates
    out = cluster(pts, 1e-9)
    assert sum(m for _p, m in out) == len(pts)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert chordal_distance(out[i][0], out[j][0]) > 1e-9


def test_merge_weighted_sums_weights():
    pairs = [(SpherePoint.from_affine(2), 0.25),
             (SpherePoint.from_affine(2 + 1e-12), 0.5),
             (SpherePoint.infinity(), 1.0)]
    out = merge_weighted(pairs, 1e-9)
    out.sort(key=lambda pw: pw[0].sort_key())
    assert len(out) == 2
    assert out[0][1] == pytest.approx(0.75)
    assert out[1][0].is_infinity() and out[1][1] == 1.0


def _greedy_merge_oracle(pairs, tol, sort_first=False):
    """merge_weighted as one greedy founder loop over every atom."""
    pairs = list(pairs)
    if sort_first:
        pairs.sort(key=lambda pw: pw[0].sort_key())
    grid = _SphereHash(tol)
    reps, zs, ws, wt = [], [], [], []
    for p, weight in pairs:
        emb = p.embedding()
        idx = grid.find(p, emb)
        if idx is None:
            grid.insert(p, len(reps), emb)
            reps.append(p)
            zs.append(p.z * weight)
            ws.append(p.w * weight)
            wt.append(weight)
        else:
            ref = reps[idx]
            inner = p.z * ref.z.conjugate() + p.w * ref.w.conjugate()
            phase = inner / abs(inner) if inner != 0 else 1.0
            zs[idx] += (p.z / phase) * weight
            ws[idx] += (p.w / phase) * weight
            wt[idx] += weight
    return [(SpherePoint(zs[k], ws[k]), wt[k]) for k in range(len(reps))]


def _planted_points(rng, scale, tol):
    """Random points at one scale, near-duplicates at 0.2-3 tol, repeats, infinity."""
    base = [SpherePoint.from_affine(complex(a, b) * scale) for a, b in rng.normal(size=(60, 2))]
    pts = list(base)
    for p in base[:20]:
        a = p.to_affine()
        # chordal distance is about 2 |da| / (1 + |a|^2)
        step = rng.uniform(0.2, 3.0) * tol * (1.0 + abs(a) ** 2) / 2.0
        pts.append(SpherePoint.from_affine(a + step * np.exp(2j * np.pi * rng.random())))
    pts += base[20:30] + [SpherePoint.infinity()] * 3 + [SpherePoint(1.0, tol * 0.5)]
    pts += [SpherePoint.from_affine(p.to_affine().conjugate()) for p in pts[:15] if not p.is_infinity()]
    return [pts[i] for i in rng.permutation(len(pts))]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_merge_weighted_matches_greedy_oracle(scale):
    rng = np.random.default_rng(int(scale * 1e3))
    tol = 1e-8
    for trial in range(20):
        pts = _planted_points(rng, scale, tol)
        pairs = [(p, float(w)) for p, w in zip(pts, rng.uniform(0.1, 1.0, len(pts)))]
        got = merge_weighted(pairs, tol)
        want = _greedy_merge_oracle(pairs, tol, sort_first=True)
        assert len(got) == len(want) < len(pairs)
        assert [w for _p, w in got] == [w for _p, w in want]
        assert all(chordal_distance(p, q) <= 1e-15 for (p, _), (q, _) in zip(got, want))
        counts = [m for _p, m in cluster(pts, tol)]
        assert counts == [w for _p, w in _greedy_merge_oracle([(p, 1) for p in pts], tol)]


def test_merge_weighted_conjugate_pairs_stay_apart():
    # a real map with a real anchor makes conjugate pairs with one x key
    rng = np.random.default_rng(17)
    a = rng.normal(size=200) + 1j * rng.uniform(1e-6, 1.0, size=200)
    pts = [SpherePoint.from_affine(c) for c in np.concatenate([a, a.conj()])]
    assert not CellIndex(sphere_cells(*homogeneous(pts), 1e-8)).crowded().any()
    got = merge_weighted([(p, 1.0) for p in pts], 1e-8)
    assert [(p.z, p.w) for p, _w in got] == [
        (p.z, p.w) for p in sorted(pts, key=SpherePoint.sort_key)
    ]


def test_merge_weighted_matches_greedy_oracle_in_a_crowded_cell():
    # 2,000 points in one or two cells, paired with the first few of each
    rng = np.random.default_rng(31)
    tol = 1e-8
    pts = [SpherePoint.from_affine(0.5 + complex(a, b)) for a, b in rng.uniform(0, 2e-9, size=(2000, 2))]
    pairs = [(p, float(w)) for p, w in zip(pts, rng.uniform(0.1, 1.0, len(pts)))]
    got = merge_weighted(pairs, tol)
    want = _greedy_merge_oracle(pairs, tol, sort_first=True)
    assert [w for _p, w in got] == [w for _p, w in want]
    assert all(chordal_distance(p, q) <= 1e-15 for (p, _), (q, _) in zip(got, want))
    counts = [m for _p, m in cluster(pts, tol)]
    assert counts == [w for _p, w in _greedy_merge_oracle([(p, 1) for p in pts], tol)]


def _pair_bits(pairs):
    """Each pair's z, w and weight as bytes, signed zeros included."""
    return [np.array([p.z, p.w]).tobytes() + np.float64(w).tobytes() for p, w in pairs]


def _duplicates_and_infinity(rng):
    pts = _planted_points(rng, 1.0, 1e-8)
    return pts + pts[:10] + [SpherePoint.infinity()] * 4 + [SpherePoint(1.0, -3e-9j)]


def _crowded_cell(rng):
    return [SpherePoint.from_affine(0.5 + complex(a, b)) for a, b in rng.uniform(0, 2e-9, size=(500, 2))]


def _conjugate_pairs(rng):
    a = rng.normal(size=100) + 1j * rng.uniform(1e-9, 1.0, size=100)
    return [SpherePoint.from_affine(c) for c in np.concatenate([a, a.conj(), [0.7 + 4e-9j, 0.7 - 4e-9j]])]


def _tied_real_parts(rng):
    # affine values sharing a real part: the order falls to the imaginary part
    im = np.concatenate([rng.normal(size=40), [0.0, -0.0, 1e-9, -1e-9, 2e-9]])
    pts = [SpherePoint.from_affine(complex(re, v)) for re in (-2.0, 0.0, 0.25, 3.0) for v in im]
    return pts + [SpherePoint(1.0, 1.0 / complex(3.0, v)) for v in im[:10]]  # |z| > |w| pivots on z


def _state_merge(expr, beta, depth):
    """The atoms kms_measure(expr, 0, beta, depth) merges across its levels, as pairs."""
    calls = []

    def recording(coords, weights, tol):
        calls.append((coords, weights))
        return merge_sphere(coords, weights, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "merge_sphere", recording)
        kms_measure(parse_map(expr), SpherePoint.zero(), beta, depth=depth)
    ((coords, weights),) = calls
    return [(SpherePoint.from_row(*row), w) for row, w in zip(coords.tolist(), weights.tolist())]


def _z2_minus_1_remerge(rng):
    return _state_merge("z^2-1", 1.5, 8)


def _z2_plus_1_state(rng):
    # conjugate-symmetric: every atom shares its first cell key with its conjugate
    return _state_merge("z^2+1", 1.0, 14)


@pytest.mark.parametrize("points", [_duplicates_and_infinity, _crowded_cell, _conjugate_pairs,
                                    _tied_real_parts, _z2_minus_1_remerge, _z2_plus_1_state])
def test_array_merge_matches_list_merge_bit_for_bit(monkeypatch, points):
    indexed = []

    class Recorded(CellIndex):
        def __init__(self, keys):
            indexed.append(len(keys))
            super().__init__(keys)

    monkeypatch.setattr(projective, "CellIndex", Recorded)
    rng = np.random.default_rng(2026)
    pts = points(rng)
    if points is _z2_minus_1_remerge:
        pairs = pts
        assert len(pairs) == 345 and len(list_merge_weighted(pairs, 1e-8)) == 257
    elif points is _z2_plus_1_state:
        pairs = pts
        assert len(pairs) == 32_767
    else:
        pts = [pts[i] for i in rng.permutation(len(pts))]
        pairs = [(p, float(w)) for p, w in zip(pts, rng.uniform(0.1, 1.0, len(pts)))]
    indexed.clear()
    want = list_merge_weighted(pairs, 1e-8)
    got = merge_weighted(pairs, 1e-8)
    assert _pair_bits(got) == _pair_bits(want)
    # only the atoms whose first cell key is tied or next to another's reach
    # the cell index: all of them in one crowded cell and in conjugate pairs
    assert (indexed[0] == len(pairs)) == (points in (_crowded_cell, _conjugate_pairs, _z2_plus_1_state))
    # an atom alone in its cluster comes back as its input pair
    inputs = {id(pair) for pair in pairs}
    assert [id(g) in inputs for g in got] == [id(w) in inputs for w in want]
    coords, weights, src = merge_sphere(np.array([(p.z, p.w) for p, _w in pairs]), [w for _p, w in pairs], 1e-8)
    assert _pair_bits(zip([SpherePoint.from_row(*row) for row in coords], weights)) == _pair_bits(want)
    assert [pairs[i] if i >= 0 else None for i in src.tolist()] == [w if id(w) in inputs else None for w in want]
    # every input has clusters to average but the conjugates, which stay apart
    assert (points in (_conjugate_pairs, _z2_plus_1_state)) == np.all(src >= 0)
    z, w = homogeneous([p for p, _w in pairs])
    label = index_founders(z, w, 1e-8)
    keep, size = founders(z, w, 1e-8)
    assert np.array_equal(keep, np.flatnonzero(label == np.arange(len(label))))
    assert np.array_equal(size, np.bincount(label)[keep])


def test_cell_index_find_matches_sphere_hash():
    rng = np.random.default_rng(23)
    tol = 1e-8
    for scale in (1e-3, 1.0, 1e3):
        pts = _planted_points(rng, scale, tol)
        stored, queries = pts[::2], pts[1::2]
        grid = _SphereHash(tol)
        for i, p in enumerate(stored):
            grid.insert(p, i)
        want = [-1 if (hit := grid.find(q)) is None else hit for q in queries]
        got = first_within(*homogeneous(stored), *homogeneous(queries), tol)
        assert got.tolist() == want
        assert any(h >= 0 for h in want)


def _straddled_points(rng, scale, tol):
    """Per random point a: two points 1.6 tol apart, then a, within tol of both.

    a joins whichever of the two comes first in CellIndex.pairs order.
    """
    pts = []
    for a in rng.normal(size=20) * scale + 1j * rng.normal(size=20) * scale:
        step = 0.8 * tol * (1.0 + abs(a) ** 2) / 2.0 * np.exp(2j * np.pi * rng.random())
        pts += [SpherePoint.from_affine(a + step), SpherePoint.from_affine(a - step)]
        pts.append(SpherePoint.from_affine(a))
    return pts


@pytest.mark.parametrize("hash_base", [None, 0, 1], ids=["hash", "hash0", "hash1"])
def test_sphere_results_survive_hash_collisions(monkeypatch, hash_base):
    # hash bases 0 and 1 make distinct cells share hashes (0: all of them,
    # 1: cells with one coordinate sum); a collision only adds a candidate
    if hash_base is not None:
        monkeypatch.setattr(projective, "_HASH", hash_base)
    rng = np.random.default_rng(29)
    tol = 1e-8
    for scale in (1e-3, 1.0, 1e3):
        pts = _planted_points(rng, scale, tol) + _straddled_points(rng, scale, tol)
        keys = sphere_cells(*homogeneous(pts), tol)
        if hash_base is not None:
            assert len(np.unique(projective._cell_hash(keys))) < len(np.unique(keys, axis=0))
        pairs = [(p, float(w)) for p, w in zip(pts, rng.uniform(0.1, 1.0, len(pts)))]
        got = merge_weighted(pairs, tol)
        want = _greedy_merge_oracle(pairs, tol, sort_first=True)
        assert [w for _p, w in got] == [w for _p, w in want]
        assert all(chordal_distance(p, q) <= 1e-15 for (p, _), (q, _) in zip(got, want))
        counts = [m for _p, m in cluster(pts, tol)]
        assert counts == [w for _p, w in _greedy_merge_oracle([(p, 1) for p in pts], tol)]
        stored, queries = pts[::2], pts[1::2]
        grid = _SphereHash(tol)
        for i, p in enumerate(stored):
            grid.insert(p, i)
        want_hits = [-1 if (hit := grid.find(q)) is None else hit for q in queries]
        assert first_within(*homogeneous(stored), *homogeneous(queries), tol).tolist() == want_hits


def test_json_round_trip():
    for p in (SpherePoint.from_affine(1.5 - 2.25j), SpherePoint.infinity(), SpherePoint.zero()):
        obj = p.to_jsonable()  # read back as JSON readers of the CLI output do
        q = SpherePoint.infinity() if obj == "inf" else SpherePoint.from_affine(complex(*obj))
        assert chordal_distance(p, q) < 1e-15


def test_embedding_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = SpherePoint(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        x = np.array(p.embedding())
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert SpherePoint.infinity().embedding() == (0.0, 0.0, 1.0)
    assert SpherePoint.zero().embedding() == (0.0, 0.0, -1.0)
