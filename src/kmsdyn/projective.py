"""Geometry of the Riemann sphere in homogeneous coordinates.

A point is an equivalence class [z : w] with (z, w) != (0, 0); infinity is
[1 : 0].  Working projectively keeps evaluation, preimage solving and branch
analysis free of special cases at infinity.  Points are stored normalized by
the coordinate of larger modulus, so max(|z|, |w|) == 1 exactly and the pivot
coordinate is exactly 1.0.

Atoms are clustered by one array kernel, CellIndex, which takes integer
cell keys of any width: it sorts them by a linear hash, marks the crowded
atoms (those with another atom in their 3^d neighbour cells) and lists the
stored atoms in each query's neighbour cells.  The caller picks the cells
and the metric.  Here the cells are floor(xi / tol) on the R^3 embedding and
the metric is chordal: founders pairs the crowded atoms and runs the greedy
founder rule over the close pairs, cluster and merge_weighted reduce over
founders, and first_within finds stored atoms near queries.
measure.merge_planar uses the same kernel on the plane.
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
        if abs(z) == 0.0 and abs(w) == 0.0:
            raise ValueError("homogeneous pair (0, 0) is not a point")
        if not (math.isfinite(abs(z)) and math.isfinite(abs(w))):
            raise ValueError("non-finite homogeneous coordinates")
        # pivot on the larger coordinate, setting it to exactly 1.0; a near-tie
        # can round the other modulus just above 1, so iterate to a fixed point
        for _ in range(3):
            if abs(z) >= abs(w):
                if z == 1.0:
                    break
                w = w / z
                z = complex(1.0)
            else:
                if w == 1.0:
                    break
                z = z / w
                w = complex(1.0)
        self.z = z
        self.w = w

    @staticmethod
    def from_affine(c) -> "SpherePoint":
        return SpherePoint(complex(c), 1.0)

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(1.0, 0.0)

    @staticmethod
    def zero() -> "SpherePoint":
        return SpherePoint(0.0, 1.0)

    def is_infinity(self, tol: float = 0.0) -> bool:
        return abs(self.w) <= tol * abs(self.z) if tol else self.w == 0.0

    def to_affine(self) -> complex:
        """Affine value z/w; raises at infinity."""
        if self.w == 0.0:
            raise ZeroDivisionError("point at infinity has no affine value")
        return self.z / self.w

    def reciprocal(self) -> "SpherePoint":
        """The image under z -> 1/z, i.e. [w : z]."""
        return SpherePoint(self.w, self.z)

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


def sphere_point_from_json(obj) -> SpherePoint:
    if obj == "inf":
        return SpherePoint.infinity()
    re, im = obj
    return SpherePoint.from_affine(complex(re, im))


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

    def pairs(self, keys):
        """(query, stored) index pairs of the stored atoms in each query's 3^d cells.

        Grouped by query in index order; within a query, neighbour cells in
        lexicographic offset order, and one cell's atoms in index order.
        """
        h = _cell_hash(keys)
        qorder = np.argsort(h)  # sorted probes search faster
        h = h[qorder]
        qs, ss = [], []
        for off, delta in zip(self.offsets, self.deltas):
            probe = h + delta
            lo = np.searchsorted(self.sorted, probe, "left")
            count = np.searchsorted(self.sorted, probe, "right") - lo
            start = np.repeat(lo - (np.cumsum(count) - count), count)
            q = np.repeat(qorder, count)
            s = self.order[start + np.arange(len(start))]
            cell = np.all(self.keys[s] == keys[q] + off, axis=1)
            qs.append(q[cell])
            ss.append(s[cell])
        q = np.concatenate(qs)
        group = np.argsort(q, kind="stable")
        return q[group], np.concatenate(ss)[group]


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


def founders(points, tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy cluster founder of each point, as an index into points.

    Points are scanned in order; each joins the first founder within tol
    (in CellIndex.pairs order), otherwise it founds a cluster.  Only the
    crowded points can have a point within tol, so only they are paired.
    """
    label = np.arange(len(points))
    if len(points) < 2:
        return label
    z, w = homogeneous(points)
    keys = sphere_cells(z, w, tol)
    index = CellIndex(keys)
    crowd = np.flatnonzero(index.crowded())
    q, j = index.pairs(keys[crowd])
    i = crowd[q]
    close = (j < i) & (chordal_array(z[j], w[j], z[i], w[i]) <= tol)
    for a, b in zip(i[close].tolist(), j[close].tolist()):
        if label[a] == a and label[b] == b:
            label[a] = b
    return label


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
    label = founders(points, tol)
    counts = np.bincount(label, minlength=len(points))
    return [(points[i], int(counts[i])) for i in np.flatnonzero(label == np.arange(len(points)))]


def _sort_order(points):
    """The stable order of sorting points by SpherePoint.sort_key."""
    inf = np.array([p.w == 0.0 for p in points], dtype=bool)
    a = np.array([0j if p.w == 0.0 else p.z / p.w for p in points], dtype=np.complex128)
    return np.lexsort((a.imag, a.real, inf))


def merge_weighted(pairs, tol: float = DEFAULT_CLUSTER_TOL, sort_first: bool = False):
    """Merge (point, weight) atoms closer than tol; weights add.

    Clusters are those of founders.  A merged representative is the weight
    average of the members' homogeneous pairs (phase-aligned to the
    founder), renormalized; an atom alone in its cluster is kept as it is.
    With sort_first the input is ordered by (re, im, inf) beforehand so the
    result does not depend on the caller's atom order.
    """
    pairs = list(pairs)
    points = [p for p, _w in pairs]
    if sort_first:
        order = _sort_order(points).tolist()
        pairs = [pairs[i] for i in order]
        points = [points[i] for i in order]
    label = founders(points, tol)
    sums = {}
    for i in np.flatnonzero(label != np.arange(len(pairs))).tolist():
        f = int(label[i])
        ref, wf = pairs[f]
        acc = sums.setdefault(f, [ref.z * wf, ref.w * wf, wf])
        p, weight = pairs[i]
        # align the homogeneous phase with the cluster founder
        inner = p.z * ref.z.conjugate() + p.w * ref.w.conjugate()
        phase = inner / abs(inner) if inner != 0 else 1.0
        acc[0] += (p.z / phase) * weight
        acc[1] += (p.w / phase) * weight
        acc[2] += weight
    keep = np.flatnonzero(label == np.arange(len(pairs))).tolist()
    if not sums:
        return [tuple(pairs[i]) for i in keep]
    return [
        (SpherePoint(sums[i][0], sums[i][1]), sums[i][2]) if i in sums else tuple(pairs[i])
        for i in keep
    ]
