"""Geometry of the Riemann sphere in homogeneous coordinates.

A point is an equivalence class [z : w] with (z, w) != (0, 0); infinity is
[1 : 0].  Working projectively keeps evaluation, preimage solving and branch
analysis free of special cases at infinity.  Points are stored normalized by
the coordinate of larger modulus, so max(|z|, |w|) == 1 exactly and the pivot
coordinate is exactly 1.0.

Atoms are clustered under the chordal metric by one array kernel: CellIndex
hashes the R^3 embeddings of homogeneous (z, w) arrays into tol-sized cells
and finds, by sorted probes over the 27 neighbour cells, the stored atoms
near each query.  founders uses it to settle every atom with no other atom
in its 27 cells at once; only the crowded rest goes through the greedy
founder loop over _SphereHash.  cluster and merge_weighted reduce over
founders.
"""

from __future__ import annotations

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


class _SphereHash:
    """Spatial hash on the R^3 embedding, for the crowded points of founders.

    Cell size is the tolerance, so any two points within tol share a cell or
    sit in adjacent cells; lookups scan the 27-cell neighborhood.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = max(tol, 1e-300)
        self.buckets: dict = {}

    def _key(self, emb):
        c = self.cell
        return (int(math.floor(emb[0] / c)), int(math.floor(emb[1] / c)), int(math.floor(emb[2] / c)))

    def find(self, point: SpherePoint, emb=None):
        """Index of a stored point within tol of `point`, else None."""
        if emb is None:
            emb = point.embedding()
        i, j, k = self._key(emb)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    for idx, stored in self.buckets.get((i + di, j + dj, k + dk), ()):
                        if chordal_distance(stored, point) <= self.tol:
                            return idx
        return None

    def insert(self, point: SpherePoint, idx: int, emb=None):
        if emb is None:
            emb = point.embedding()
        self.buckets.setdefault(self._key(emb), []).append((idx, point))


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


# odd 64-bit multipliers of the linear cell hash
_HASH = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)


def _cell_hash(emb, tol):
    """Hash mod 2^64 of each row's cell key floor(xi / tol), per _SphereHash._key.

    A key triple does not fit one int64 at small tol (about 2e8 cells per
    axis at 1e-8).  The hash is linear, so a neighbour cell's hash is the
    cell's hash plus a fixed delta; a collision only adds a candidate.
    """
    keys = np.clip(np.floor(emb / max(tol, 1e-300)), -(2.0**62), 2.0**62)
    keys = keys.astype(np.int64).view(np.uint64)
    a, b, c = (np.uint64(m) for m in _HASH)
    return keys[:, 0] * a + keys[:, 1] * b + keys[:, 2] * c


def _offset_deltas(half=False):
    """Hash deltas of the 27 neighbour offsets in _SphereHash.find's scan order.

    With half, only the 13 offsets after (0, 0, 0), one of each mirror pair.
    """
    offsets = [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
    if half:
        offsets = [off for off in offsets if off > (0, 0, 0)]
    return [np.uint64(sum(o * m for o, m in zip(off, _HASH)) % 2**64) for off in offsets]


class CellIndex:
    """Stored sphere atoms sorted by the hash of their tol-sized cell.

    The array counterpart of _SphereHash, with the same cells.  Two atoms
    within tol sit in the same cell or in adjacent ones, so the candidates
    near a query are the stored atoms whose hash is the query's plus one of
    the 27 offset deltas, found by searchsorted.
    """

    def __init__(self, z, w, tol: float = DEFAULT_CLUSTER_TOL):
        self.z = z
        self.w = w
        self.tol = tol
        h = _cell_hash(embedding_array(z, w), tol)
        self.order = np.argsort(h, kind="stable")
        self.sorted = h[self.order]

    def crowded(self):
        """Mask of the stored atoms that share their 27 cells with another one."""
        s = self.sorted
        hit = np.zeros(len(s), dtype=bool)
        if len(s) < 2:
            return hit
        same = s[1:] == s[:-1]
        hit[1:] |= same
        hit[:-1] |= same
        # adjacency is symmetric: a probe that hits marks both ends
        for delta in _offset_deltas(half=True):
            probe = s + delta
            pos = np.minimum(np.searchsorted(s, probe), len(s) - 1)
            found = s[pos] == probe
            hit |= found
            hit[pos[found]] = True
        out = np.empty_like(hit)
        out[self.order] = hit
        return out

    def find(self, z, w):
        """Per query pair, the first stored atom within tol, else -1.

        "First" follows _SphereHash.find: neighbour cells in scan order,
        atoms of one cell in index order.
        """
        h = _cell_hash(embedding_array(z, w), self.tol)
        qorder = np.argsort(h)  # sorted probes search faster
        h = h[qorder]
        qs, ss = [], []
        for delta in _offset_deltas():
            probe = h + delta
            lo = np.searchsorted(self.sorted, probe, "left")
            count = np.searchsorted(self.sorted, probe, "right") - lo
            start = np.repeat(lo - (np.cumsum(count) - count), count)
            qs.append(np.repeat(qorder, count))
            ss.append(self.order[start + np.arange(len(start))])
        q = np.concatenate(qs)
        s = np.concatenate(ss)
        close = chordal_array(self.z[s], self.w[s], z[q], w[q]) <= self.tol
        q, s = q[close], s[close]
        hits = np.full(len(h), -1, dtype=np.intp)
        uq, first = np.unique(q, return_index=True)
        hits[uq] = s[first]
        return hits


def founders(points, tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy cluster founder of each point, as an index into points.

    Points are scanned in order; each joins the first founder within tol
    (in _SphereHash.find's scan order), otherwise it founds a cluster.  A
    point with no other point in its 27 cells is its own founder, so only
    the crowded points run the scalar loop.
    """
    label = np.arange(len(points))
    if len(points) < 2:
        return label
    grid = _SphereHash(tol)
    for i in np.flatnonzero(CellIndex(*homogeneous(points), tol).crowded()):
        p = points[i]
        emb = p.embedding()
        hit = grid.find(p, emb)
        if hit is None:
            grid.insert(p, int(i), emb)
        else:
            label[i] = hit
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
