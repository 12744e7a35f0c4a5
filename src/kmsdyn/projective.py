"""Geometry of the Riemann sphere in homogeneous coordinates.

A point is an equivalence class [z : w] with (z, w) != (0, 0); infinity is
[1 : 0].  Working projectively keeps evaluation, preimage solving and branch
analysis free of special cases at infinity.  Points are stored normalized by
the coordinate of larger modulus, so max(|z|, |w|) == 1 exactly and the pivot
coordinate is exactly 1.0.
"""

from __future__ import annotations

import math

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
    """Spatial hash on the R^3 embedding for near-linear-time clustering.

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


def cluster(points, tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy clustering under the chordal metric.

    Points are scanned in input order; each joins the first existing cluster
    whose representative is within tol, otherwise it founds a new cluster.
    Returns [(representative, multiplicity)]; representatives end up pairwise
    farther apart than tol and multiplicities sum to len(points).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    reps = []
    counts = []
    grid = _SphereHash(tol)
    for p in points:
        emb = p.embedding()
        idx = grid.find(p, emb)
        if idx is None:
            grid.insert(p, len(reps), emb)
            reps.append(p)
            counts.append(1)
        else:
            counts[idx] += 1
    return list(zip(reps, counts))


def merge_weighted(pairs, tol: float = DEFAULT_CLUSTER_TOL, sort_first: bool = False):
    """Merge (point, weight) atoms closer than tol; weights add.

    The representative is the weight average of the merged homogeneous pairs
    (phase-aligned to the first member), renormalized.  With sort_first the
    input is ordered by (re, im, inf) beforehand so the result does not depend
    on the caller's atom order.
    """
    pairs = list(pairs)
    if sort_first:
        pairs.sort(key=lambda pw: pw[0].sort_key())
    grid = _SphereHash(tol)
    reps: list[SpherePoint] = []
    zs: list[complex] = []
    ws: list[complex] = []
    wt: list[float] = []
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
            # align the homogeneous phase with the cluster founder
            inner = p.z * ref.z.conjugate() + p.w * ref.w.conjugate()
            phase = inner / abs(inner) if inner != 0 else 1.0
            zs[idx] += (p.z / phase) * weight
            ws[idx] += (p.w / phase) * weight
            wt[idx] += weight
    out = []
    for k in range(len(reps)):
        out.append((SpherePoint(zs[k], ws[k]), wt[k]))
    return out


