"""Reference implementations the array kernels are tested against.

_SphereHash is the dict-of-cells spatial hash that the greedy sphere
founder loop ran over, kept as it was written, as a differential oracle
for projective.CellIndex.  _greedy_planar_oracle is measure.merge_planar's
rule by brute force.  masked_chaos_samples is the chaos game of
ifs.hutchinson as a loop over the maps, each applied to the chains that
picked it, before every chain stepped at once.  scalar_distinct_images is
ifs.distinct_images as a loop over the maps with a norm per pair, and
collect_fibres flattens any one-atom fibre solver into a FibreTable, the
per-atom lists both fibre tables were built from before they were arrays.
"""

import itertools
import math

import numpy as np

from kmsdyn.measure import FibreTable
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


def _greedy_planar_oracle(x, w, tol):
    """merge_planar's rule by brute force: one greedy founder loop over every atom.

    Atoms go in lexicographic order of their cells round(x / tol); each
    joins the first earlier founder within tol, taken in neighbour-offset
    order and then index order, or founds a cluster.  Clusters come out in
    founder order, their centroids summed in atom order.
    """
    cells = [tuple(c) for c in np.round(x / tol).astype(np.int64).tolist()]
    order = sorted(range(len(x)), key=lambda k: cells[k])
    found, members = {}, {}
    for k in order:
        for off in itertools.product((-1, 0, 1), repeat=x.shape[1]):
            near = tuple(u + o for u, o in zip(cells[k], off))
            hit = next((f for f in found.get(near, ()) if np.linalg.norm(x[f] - x[k]) <= tol), None)
            if hit is not None:
                members[hit].append(k)
                break
        else:
            found.setdefault(cells[k], []).append(k)
            members[k] = [k]
    coords, weights = [], []
    for ks in members.values():
        mass, moment = 0.0, [0.0] * x.shape[1]
        for k in ks:
            mass += w[k]
            moment = [m + w[k] * v for m, v in zip(moment, x[k])]
        coords.append([m / mass for m in moment])
        weights.append(mass)
    return np.array(coords), np.array(weights)


def masked_chaos_samples(gamma, chaos_samples, seed):
    """The unmerged samples of hutchinson(gamma, 0, chaos_samples, seed), one map at a time."""
    burn_in = 100
    rng = np.random.Generator(np.random.Philox(seed))
    chains = min(1024, chaos_samples)
    steps = burn_in + -(-chaos_samples // chains)
    x = np.tile(gamma.seed, (chains, 1)).astype(np.float64)
    picks = rng.integers(0, gamma.n, size=(steps, chains))
    collected = []
    for t in range(steps):
        row = picks[t]
        new = np.empty_like(x)
        for i, m in enumerate(gamma.maps):
            mask = row == i
            if np.any(mask):
                new[mask] = m(x[mask])
        x = new
        if t >= burn_in:
            collected.append(x.copy())
    return np.concatenate(collected)[:chaos_samples]


def scalar_distinct_images(gamma, y):
    """gamma(y) with multiplicities: each map's image joins the first earlier distinct one within tol."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    images = np.array([m(y) for m in gamma.maps])
    out = []
    for img in images:
        for entry in out:
            if np.linalg.norm(entry[0] - img) <= gamma.tol:
                entry[1] += 1
                break
        else:
            out.append([img, 1])
    return [(x, e) for x, e in out]


def collect_fibres(atoms, solve, embed):
    """Flatten solve(atom) -> [(point, local degree)] over the atoms into a FibreTable."""
    points, owner, degree = [], [], []
    for i, atom in enumerate(atoms):
        for x, e in solve(atom):
            points.append(x)
            owner.append(i)
            degree.append(e)
    return FibreTable(np.array(owner, dtype=np.intp), np.array(degree, dtype=np.int64), embed(points))
