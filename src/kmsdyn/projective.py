"""Geometry of the Riemann sphere in homogeneous coordinates.

A point is an equivalence class [z : w] with (z, w) != (0, 0); infinity is
[1 : 0].  Working projectively keeps evaluation, preimage solving and branch
analysis free of special cases at infinity.  Points are stored normalized by
the coordinate of larger modulus, which becomes exactly 1.0 (near |z| = |w|
the other modulus can round just above 1).  Arrays of atoms hold these pairs
as (n, 2) complex rows [z, w], made by normalize_rows, read by from_row;
pivot applies the same rule to arrays, moduli compared as abs() does.

Atoms are merged by one kernel for both engines, merge_atoms: a first-key
filter, then CellIndex, which sorts integer cell keys of any width by a
linear hash and carries the one greedy cluster rule (each atom joins the
first earlier founder within tol, otherwise it founds a cluster, so a
cluster is at most 2 tol wide).  The caller picks the cells, the scan order
and the metric, and gets the partition back, so it can free them before
cluster_sums adds weights or moments over it.  Here the cells are
floor(xi / tol) on the R^3 embedding and the metric is chordal: cluster and
merge_sphere (merge_weighted on (SpherePoint, weight) pairs) reduce over
merge_atoms, and first_within finds stored atoms near queries.
measure.merge_planar is merge_atoms on the plane.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DEFAULT_CLUSTER_TOL = 1e-8


class SpherePoint:
    """A point of the Riemann sphere as a normalized homogeneous pair."""

    __slots__ = ("z", "w")

    def __init__(self, z, w):
        z = complex(z)
        w = complex(w)
        az, aw = abs(z), abs(w)
        if az == 0.0 and aw == 0.0:
            raise ValueError("homogeneous pair (0, 0) is not a point")
        if not (math.isfinite(az) and math.isfinite(aw)):
            raise ValueError("non-finite homogeneous coordinates")
        # pivot on the larger coordinate, setting it to exactly 1.0; a near-tie
        # can round the other modulus just above 1, so iterate to a fixed point
        for _ in range(3):
            if az >= aw:
                if z == 1.0:
                    break
                w = w / z
                z = complex(1.0)
            else:
                if w == 1.0:
                    break
                z = z / w
                w = complex(1.0)
            az, aw = abs(z), abs(w)
        self.z = z
        self.w = w

    @classmethod
    def from_row(cls, z, w) -> "SpherePoint":
        """The point whose stored pair is (z, w), taken as it is, not normalized again."""
        p = cls.__new__(cls)
        p.z, p.w = complex(z), complex(w)
        return p

    @staticmethod
    def from_affine(c) -> "SpherePoint":
        return SpherePoint(complex(c), 1.0)

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(1.0, 0.0)

    @staticmethod
    def zero() -> "SpherePoint":
        return SpherePoint(0.0, 1.0)

    def is_infinity(self) -> bool:
        return self.w == 0.0

    def to_affine(self) -> complex:
        """Affine value z/w; raises at infinity."""
        if self.w == 0.0:
            raise ZeroDivisionError("point at infinity has no affine value")
        return self.z / self.w

    def embedding(self):
        """Unit-sphere embedding xi(p) in R^3 (stereographic chart).

        [z : w] maps to (2 Re(z conj(w)), 2 Im(z conj(w)), |z|^2 - |w|^2)
        divided by |z|^2 + |w|^2; infinity lands on (0, 0, 1).
        """
        s = self.z * self.w.conjugate()
        n2 = abs(self.z) ** 2 + abs(self.w) ** 2
        return (2.0 * s.real / n2, 2.0 * s.imag / n2, (abs(self.z) ** 2 - abs(self.w) ** 2) / n2)

    def to_jsonable(self):
        """JSON form: finite points as [re, im], infinity as "inf"."""
        if self.is_infinity():
            return "inf"
        a = self.to_affine()
        return [a.real, a.imag]

    def sort_key(self):
        if self.is_infinity():
            return (1, 0.0, 0.0)
        a = self.to_affine()
        return (0, a.real, a.imag)

    def __repr__(self):
        if self.is_infinity():
            return "SpherePoint(inf)"
        a = self.to_affine()
        return f"SpherePoint({a.real:.12g}{a.imag:+.12g}j)"


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal metric 2|z_p w_q - z_q w_p| / (|p| |q|); ranges over [0, 2]."""
    cross = p.z * q.w - q.z * p.w
    np_ = math.hypot(abs(p.z), abs(p.w))
    nq = math.hypot(abs(q.z), abs(q.w))
    return 2.0 * abs(cross) / (np_ * nq)


def homogeneous(points):
    """Homogeneous coordinate arrays (z, w) of a sequence of SpherePoints."""
    return (
        np.array([p.z for p in points], dtype=np.complex128),
        np.array([p.w for p in points], dtype=np.complex128),
    )


def embedding_array(z, w):
    """Unit-sphere embeddings of homogeneous arrays, one row per point.

    The array form of SpherePoint.embedding, equal to it up to rounding;
    the pairs must be normalized (max(|z|, |w|) == 1), as SpherePoints and
    RationalMap.evaluate_array return them.
    """
    s = z * np.conj(w)
    az = z.real**2 + z.imag**2
    aw = w.real**2 + w.imag**2
    n2 = az + aw
    return np.stack([2.0 * s.real / n2, 2.0 * s.imag / n2, (az - aw) / n2], axis=-1)


def chordal_array(z1, w1, z2, w2):
    """Elementwise chordal_distance between two arrays of homogeneous pairs."""
    cross = z1 * w2 - z2 * w1
    return 2.0 * np.abs(cross) / (np.hypot(np.abs(z1), np.abs(w1)) * np.hypot(np.abs(z2), np.abs(w2)))


# odd 64-bit multiplier of the linear cell hash; key axis k uses its (k+1)-th power
_HASH = 0x9E3779B97F4A7C15


def _cell_hash(keys):
    """Hash mod 2^64 of each row of an (n, d) int64 array of cell keys.

    The hash is linear, so a neighbour cell's hash is the cell's hash plus
    the hash of the offset.
    """
    h = np.zeros(len(keys), dtype=np.uint64)
    for k in range(keys.shape[1]):
        h += keys[:, k].view(np.uint64) * np.uint64(pow(_HASH, k + 1, 2**64))
    return h


def sphere_cells(z, w, tol: float):
    """Cell keys floor(xi / tol) of the R^3 embeddings of homogeneous arrays.

    A key triple does not fit one int64 at small tol (about 2e8 cells per
    axis at 1e-8), so keys go to CellIndex, which hashes them.
    """
    keys = np.clip(np.floor(embedding_array(z, w) / max(tol, 1e-300)), -(2.0**62), 2.0**62)
    return keys.astype(np.int64)


class CellIndex:
    """Stored atoms sorted by the hash of their integer cell keys.

    Keys are an (n, d) int64 array, one row per atom, for any d >= 1; callers
    choose the cells and apply their own metric.  Two atoms closer than one
    cell width sit in the same cell or in adjacent ones, so the candidates
    near a query are the stored atoms whose hash is the query's plus one of
    the 3^d offset hashes, found by searchsorted.  A hash collision only adds
    a candidate, which the key comparison in pairs drops.
    """

    def __init__(self, keys):
        self.keys = keys
        # lexicographic, so the zero offset sits in the middle
        self.offsets = np.array(list(itertools.product((-1, 0, 1), repeat=keys.shape[1])), dtype=np.int64)
        self.deltas = _cell_hash(self.offsets)
        h = _cell_hash(keys)
        self.order = np.argsort(h, kind="stable")
        self.sorted = h[self.order]

    def crowded(self):
        """Mask of the stored atoms that may share their 3^d cells with another one.

        Every atom that does is marked; a hash collision can mark more.
        """
        s = self.sorted
        hit = np.zeros(len(s), dtype=bool)
        if len(s) < 2:
            return hit
        same = s[1:] == s[:-1]
        hit[1:] |= same
        hit[:-1] |= same
        # adjacency is symmetric: a probe past the zero offset that hits marks both ends
        for delta in self.deltas[len(self.deltas) // 2 + 1 :]:
            probe = s + delta
            pos = np.minimum(np.searchsorted(s, probe), len(s) - 1)
            found = s[pos] == probe
            hit |= found
            hit[pos[found]] = True
        out = np.empty_like(hit)
        out[self.order] = hit
        return out

    def pairs(self, keys, cap=None):
        """(query, stored) index pairs of the stored atoms in each query's 3^d cells.

        Grouped by query in index order; within a query, neighbour cells in
        lexicographic offset order, and one cell's atoms in index order.
        With a cap, only the first cap stored atoms of each hash are paired.
        """
        h = _cell_hash(keys)
        qorder = np.argsort(h)  # sorted probes search faster
        h = h[qorder]
        qs, ss = [], []
        for off, delta in zip(self.offsets, self.deltas):
            probe = h + delta
            lo = np.searchsorted(self.sorted, probe, "left")
            count = np.searchsorted(self.sorted, probe, "right") - lo
            if cap is not None:
                count = np.minimum(count, cap)
            start = np.repeat(lo - (np.cumsum(count) - count), count)
            q = np.repeat(qorder, count)
            s = self.order[start + np.arange(len(start))]
            cell = np.all(self.keys[s] == keys[q] + off, axis=1)
            qs.append(q[cell])
            ss.append(s[cell])
        q = np.concatenate(qs)
        group = np.argsort(q, kind="stable")
        return q[group], np.concatenate(ss)[group]

    def founders(self, close):
        """Greedy cluster founder of each stored atom, as an index into them.

        Atoms are scanned in index order; each joins the first founder
        before it in pairs order for which close holds, otherwise it founds
        a cluster.  close(i, j) is the caller's metric: a mask over index
        arrays of later atoms i and earlier atoms j.  Only the crowded atoms
        can have a neighbour, so only they are paired.

        Pairing all the atoms of a cell costs the square of its occupancy,
        so atoms are paired with the first cap atoms of each hash only.  That
        is exact when every founder is among those, as no other atom can then
        be one; otherwise the cap grows and the loop runs again.
        """
        s = self.sorted
        at = np.empty_like(self.order)  # position in the hash order
        at[self.order] = np.arange(len(s))
        crowd = np.flatnonzero(self.crowded())
        cap = 4
        while True:
            label = np.arange(len(s))
            q, j = self.pairs(self.keys[crowd], cap)
            i = crowd[q]
            i, j = i[j < i], j[j < i]
            near = close(i, j)
            for a, b in zip(i[near].tolist(), j[near].tolist()):
                if label[a] == a and label[b] == b:
                    label[a] = b
            f = at[crowd[label[crowd] == crowd]]
            if np.all(f - np.searchsorted(s, s[f]) < cap):
                return label
            cap *= 4


def first_within(z, w, qz, qw, tol: float = DEFAULT_CLUSTER_TOL):
    """Per query pair (qz, qw), the first stored pair (z, w) within tol, else -1.

    "First" follows CellIndex.pairs: neighbour cells in offset order, atoms
    of one cell in index order.
    """
    q, s = CellIndex(sphere_cells(z, w, tol)).pairs(sphere_cells(qz, qw, tol))
    close = chordal_array(z[s], w[s], qz[q], qw[q]) <= tol
    hits = np.full(len(qz), -1, dtype=np.intp)
    uq, first = np.unique(q[close], return_index=True)
    hits[uq] = s[close][first]
    return hits


def merge_atoms(cells, order, first, close):
    """The one merge of both engines: greedy clusters of atoms.

    cells holds int64 cell keys, a row per atom, order is the scan order of
    the rows, first is cells[order, 0] if the order sorts it and None if
    not, and close(i, j) is the metric, a mask over rows i scanned after
    rows j.  Atoms in the same or adjacent cells have first keys at most 1
    apart, as have the atoms sorted between them, so only atoms whose sorted
    first key lies within 1 of a neighbour's go to CellIndex.founders, in
    scan order; the others found their own clusters.  A diff that wraps
    (keys past +-2^62) only adds a candidate.

    Returns the founders' rows, one per cluster in scan order; the rows of
    the atoms that joined a cluster, in scan order; and the cluster each
    joined: the partition that cluster_sums sums over.
    """
    by_key = None
    if first is None:
        by_key = np.argsort(cells[order, 0])
        first = cells[order[by_key], 0]
    gap = np.diff(first) <= 1
    at = np.flatnonzero(np.r_[False, gap] | np.r_[gap, False])  # both ends of each gap
    if by_key is not None:
        at = np.sort(by_key[at])
    rows = order[at]
    sub = CellIndex(cells[rows]).founders(lambda i, j: close(rows[i], rows[j]))
    joins = np.flatnonzero(sub != np.arange(len(sub)))
    joined, host = at[joins], at[sub[joins]]  # scan positions of the members and of their founders
    to = host - np.searchsorted(joined, host)  # the founders scanned before a founder
    return np.delete(order, joined), rows[joins], to


def cluster_sums(keep, member, to, values, scale=None):
    """Sums of values (times scale) over merge_atoms' clusters, an entry or row per atom.

    Each starts at its founder's term plus 0.0 (np.bincount's start, which
    turns -0.0 into 0.0) and adds its members' terms in scan order, as
    bincount adds.  Scaled terms are formed in place on the gathered rows.
    """
    total, terms = np.take(values, keep, axis=0), np.take(values, member, axis=0)
    if scale is not None:
        total *= scale[keep, None]
        terms *= scale[member, None]
    total += 0.0
    np.add.at(total, to, terms)
    return total


def _chordal_merge(z, w, order, tol):
    """merge_atoms on homogeneous arrays: sphere_cells and the chordal metric."""
    return merge_atoms(sphere_cells(z, w, tol), order, None,
                       lambda i, j: chordal_array(z[j], w[j], z[i], w[i]) <= tol)


def founders(z, w, tol: float = DEFAULT_CLUSTER_TOL):
    """The founders of the greedy chordal clusters of pairs scanned in index order, and the cluster sizes."""
    keep, member, to = _chordal_merge(z, w, np.arange(len(z)), tol)
    return keep, cluster_sums(keep, member, to, np.ones(len(z)))


def cluster(points, tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy clustering under the chordal metric.

    Points are scanned in input order; each joins the first existing cluster
    whose representative is within tol, otherwise it founds a new cluster.
    Returns [(representative, multiplicity)]; representatives end up pairwise
    farther apart than tol and multiplicities sum to len(points).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    points = list(points)
    keep, size = founders(*homogeneous(points), tol)
    return [(points[i], int(m)) for i, m in zip(keep.tolist(), size.tolist())]


def modulus_ge(a, b):
    """|a| >= |b| elementwise, the moduli rounded as abs() of a Python complex (np.abs rounds differently)."""
    return np.hypot(a.real, a.imag) >= np.hypot(b.real, b.imag)


def pivot(z, w):
    """Each homogeneous pair divided by its larger coordinate, as new arrays (z, w).

    A tie pivots on z and a pivot of 1.0 divides nothing, as in SpherePoint.
    """
    on_z = modulus_ge(z, w)
    big, small = np.where(on_z, z, w), np.where(on_z, w, z)
    ratio = np.where(big == 1.0, small, small / big)
    return np.where(on_z, 1.0, ratio), np.where(on_z, ratio, 1.0)


def normalize_rows(coords):
    """Each homogeneous row [z, w] as the pair SpherePoint(z, w) stores, in a new (n, 2) array.

    Rows whose larger coordinate is exactly 1 are kept, as SpherePoint keeps
    them; stored pairs near |z| = |w| can fail that test, so never come here.
    """
    coords = np.array(coords, dtype=np.complex128).reshape(-1, 2)
    z, w = coords.T
    kept = np.where(modulus_ge(z, w), z == 1.0, w == 1.0) & np.isfinite(coords).all(axis=1)
    for k in np.flatnonzero(~kept).tolist():
        p = SpherePoint(*coords[k])
        coords[k] = p.z, p.w
    return coords


def _affine(z, w):
    """(re, im) of z / w where w != 0, rounded as CPython's complex division (Smith's method)."""
    (ar, ai), (br, bi) = (z.real, z.imag), (w.real, w.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.abs(br) >= np.abs(bi)
        rat = np.where(big, bi / br, br / bi)
        den = np.where(big, br + bi * rat, br * rat + bi)
        return np.where(big, ar + ai * rat, ar * rat + ai) / den, np.where(big, ai - ar * rat, ai * rat - ar) / den


def merge_sphere(coords, weights, tol: float = DEFAULT_CLUSTER_TOL):
    """Merge sphere atoms, homogeneous rows [z, w], closer than tol; weights add.

    Rows must be pairs as SpherePoint stores them.  Atoms are scanned in the
    stable order of SpherePoint.sort_key, (inf, re, im) of z / w, and merged
    by merge_atoms.  An atom alone in its cluster keeps its row bit for bit.
    A larger cluster becomes the weight sum of its members' pairs, each
    phase-aligned to the founder's, renormalized, summed on Python complex
    numbers.

    Returns (coords, weights, src) in founder order: src[k] is the input row
    of atom k if it was alone in its cluster, and -1 otherwise.
    """
    coords = np.asarray(coords, dtype=np.complex128).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != coords.shape[:1]:
        raise ValueError("coords and weights length mismatch")
    z, w = coords.T
    re, im = _affine(z, w)
    order = np.lexsort((np.where(w == 0.0, 0.0, im), np.where(w == 0.0, 0.0, re), w == 0.0))
    keep, member, to = _chordal_merge(z, w, order, tol)
    wsum = cluster_sums(keep, member, to, weights)
    out, src, host = coords[keep], keep, keep[to]
    sums = {}
    for k, (rz, rw), (pz, pw), wf, wi in zip(to.tolist(), coords[host].tolist(), coords[member].tolist(),
                                             weights[host].tolist(), weights[member].tolist()):
        acc = sums.setdefault(k, [rz * wf, rw * wf])
        inner = pz * rz.conjugate() + pw * rw.conjugate()  # align the phase with the founder's
        phase = inner / abs(inner) if inner != 0 else 1.0
        acc[0] += (pz / phase) * wi
        acc[1] += (pw / phase) * wi
    out[list(sums)] = normalize_rows(list(sums.values()))
    src[list(sums)] = -1
    return out, wsum, src


def merge_weighted(pairs, tol: float = DEFAULT_CLUSTER_TOL):
    """merge_sphere on (SpherePoint, weight) pairs; each atom alone in its cluster comes back as its input pair."""
    pairs = list(pairs)
    rows = np.stack(homogeneous([p for p, _w in pairs]), axis=1)
    coords, weights, src = merge_sphere(rows, [w for _p, w in pairs], tol)
    out = [pairs[i] for i in src.tolist()]  # the merged clusters (src -1) are replaced below
    for k in np.flatnonzero(src < 0).tolist():
        out[k] = (SpherePoint.from_row(*coords[k]), float(weights[k]))
    return out
