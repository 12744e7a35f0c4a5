"""Reference implementations the merge kernels are tested against.

_SphereHash is the dict-of-cells spatial hash that the greedy sphere
founder loop ran over, and merge_planar with _adjacent_cell_pairs is the
planar merge with a mixed-radix cell key and a union-find.  Both are kept
as they were written, as differential oracles for projective.CellIndex.
"""

import math

import numpy as np

from kmsdyn.measure import PLANAR_MERGE_TOL
from kmsdyn.projective import SpherePoint, chordal_distance


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



def merge_planar(coords, weights, tol: float = PLANAR_MERGE_TOL):
    """Merge planar atoms closer than tol; weights add, centroids average.

    Cell-quantized so exact collisions merge in O(n); a second pass links
    occupied adjacent cells whose representatives actually sit within tol.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if coords.shape[0] == 0:
        return coords, weights
    cells = np.round(coords / tol).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = np.ravel(inverse)  # shape differs across numpy versions
    wsum = np.bincount(inverse, weights=weights)
    reps = np.empty((len(uniq), coords.shape[1]))
    for d in range(coords.shape[1]):
        reps[:, d] = np.bincount(inverse, weights=weights * coords[:, d]) / wsum

    pairs = _adjacent_cell_pairs(uniq)
    close = [(i, j) for i, j in pairs if np.linalg.norm(reps[i] - reps[j]) <= tol]
    if not close:
        return reps, wsum
    parent = np.arange(len(uniq))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in close:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    while True:
        compressed = parent[parent]
        if np.array_equal(compressed, parent):
            break
        parent = compressed
    wgrp = np.bincount(parent, weights=wsum, minlength=len(uniq))
    keep = wgrp > 0
    out = np.empty((int(keep.sum()), coords.shape[1]))
    for d in range(coords.shape[1]):
        out[:, d] = np.bincount(parent, weights=wsum * reps[:, d], minlength=len(uniq))[keep]
    out /= wgrp[keep, None]
    return out, wgrp[keep]


def _adjacent_cell_pairs(uniq):
    """Index pairs of occupied cells that are grid neighbors."""
    dim = uniq.shape[1]
    if dim == 1:
        order = np.argsort(uniq[:, 0])
        vals = uniq[order, 0]
        hits = np.nonzero(np.diff(vals) == 1)[0]
        return [(int(order[k]), int(order[k + 1])) for k in hits]
    # positive half of the 3^dim neighborhood; mirrors are covered symmetrically
    offsets = [tuple(v - 1 for v in off) for off in np.ndindex(*(3,) * dim)]
    offsets = [off for off in offsets if off > (0,) * dim]
    mins = uniq.min(axis=0)
    spans = uniq.max(axis=0) - mins + 3  # 2 slack cells prevent key wrap-around
    if float(np.prod(spans.astype(np.float64))) < 2.0**62:
        shifted = (uniq - mins).astype(np.int64)
        key = shifted[:, 0].copy()
        for d in range(1, dim):
            key = key * spans[d] + shifted[:, d]
        order = np.argsort(key)
        skey = key[order]
        pairs = []
        for off in offsets:
            delta = np.int64(off[0])
            for d in range(1, dim):
                delta = delta * spans[d] + off[d]
            probe = key + delta
            pos = np.searchsorted(skey, probe)
            pos_c = np.minimum(pos, len(skey) - 1)
            valid = skey[pos_c] == probe
            for i in np.nonzero(valid)[0]:
                pairs.append((int(i), int(order[pos_c[i]])))
        return pairs
    lookup = {tuple(c): i for i, c in enumerate(uniq)}
    pairs = []
    for i, c in enumerate(uniq):
        for off in offsets:
            j = lookup.get(tuple(c + np.array(off)))
            if j is not None:
                pairs.append((i, j))
    return pairs
