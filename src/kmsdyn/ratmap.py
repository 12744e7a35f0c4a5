"""Structural analysis of rational maps on the Riemann sphere.

A map R = P/Q of degree N >= 2 acts as an N-fold branched self-cover of the
sphere.  This module computes everything the measure engine needs from the
map itself: evaluation in homogeneous coordinates, preimages with local
degrees, branched points and indices, backward-orbit trees, and the
exceptional set with its orbit structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exact as xq
from .errors import (
    DegreeTooLow,
    ExceptionalSeed,
    InternalConsistencyError,
)
from .polyroots import Poly, roots, roots_batch
from .projective import (
    DEFAULT_CLUSTER_TOL,
    SpherePoint,
    chordal_distance,
    cluster,
    homogeneous,
    merge_weighted,
    modulus_ge,
    pivot,
)
from .states import DEFAULT_ATOM_BUDGET, level_series, require_count

# relative threshold below which a leading coefficient counts as a true
# degree drop (a preimage at infinity)
_DEGREE_DROP_TOL = 1e-12

SET_COUNT = "set"
INDEX_WEIGHTED = "index"


class RationalMap:
    """A rational function P/Q with coprime P, Q and degree N >= 2.

    When exact Gaussian-rational coefficients are supplied, coprimality and
    the branch structure are decided exactly; the floating coefficients are
    used for all numeric work.
    """

    def __init__(self, p_coeffs, q_coeffs, exact=None):
        self.p = Poly(p_coeffs)
        self.q = Poly(q_coeffs)
        self.exact = exact  # (ExactPoly, ExactPoly) or None
        n = max(self.p.degree, self.q.degree)
        if n < 2:
            raise DegreeTooLow(
                f"degree {n} rational map; the construction assumes degree at least two"
            )
        self.n = n
        # homogeneous coefficient vectors of length n+1 (ascending in z)
        self._hp = np.zeros(n + 1, dtype=np.complex128)
        self._hq = np.zeros(n + 1, dtype=np.complex128)
        self._hp[: len(self.p.coeffs)] = self.p.coeffs
        self._hq[: len(self.q.coeffs)] = self.q.coeffs
        self._branch_cache = {}  # tol -> BranchData
        self._exceptional_cache = {}  # tol -> ExceptionalReport
        self._check_coprime()

    @classmethod
    def from_exact(cls, p_exact, q_exact) -> "RationalMap":
        return cls(xq.xp_to_complex(p_exact), xq.xp_to_complex(q_exact), exact=(p_exact, q_exact))

    def _check_coprime(self):
        if self.exact is not None:
            g = xq.xp_gcd(self.exact[0], self.exact[1])
            if xq.xp_degree(g) != 0:
                raise ValueError("P and Q share a common factor; map is not reduced")
            return
        # numeric fallback: no root of Q may be a root of P
        if self.q.degree >= 1:
            for r, _m in roots(self.q, 1e-9):
                scale = max(self.p.eval_scale(r), 1e-300)
                if abs(self.p(r)) <= 1e-7 * scale:
                    raise ValueError("P and Q appear to share a root; map is not reduced")

    # -- evaluation ------------------------------------------------------

    def _form(self, coeffs, z: complex, w: complex) -> complex:
        """The degree-n binary form with these coefficients, by Horner's rule in the smaller coordinate over the larger."""
        if modulus_ge(w, z):  # a tie pivots on w
            t, big, coeffs = z / w, w, coeffs[::-1]
        else:
            t, big = w / z, z
        out = 0j
        for c in coeffs:
            out = out * t + c
        return out * big**self.n

    def evaluate(self, p: SpherePoint) -> SpherePoint:
        """Image [P(z,w) : Q(z,w)]; well defined everywhere by coprimality."""
        num = self._form(self._hp, p.z, p.w)
        den = self._form(self._hq, p.z, p.w)
        return SpherePoint(num, den)

    def evaluate_array(self, z, w):
        """The array form of evaluate: R on homogeneous (z, w) arrays, normalized.

        Each binary form is evaluated by Horner's rule in the ratio of the
        smaller coordinate to the larger, the pivot rule of _form.
        """
        use_w = modulus_ge(w, z)
        t = np.where(use_w, z, w) / np.where(use_w, w, z)
        num = np.zeros_like(t)
        den = np.zeros_like(t)
        for k in range(self.n + 1):
            num = num * t + np.where(use_w, self._hp[self.n - k], self._hp[k])
            den = den * t + np.where(use_w, self._hq[self.n - k], self._hq[k])
        return pivot(num, den)  # the common factor pivot^n cancels here

    def __call__(self, p: SpherePoint) -> SpherePoint:
        return self.evaluate(p)

    # -- preimages -------------------------------------------------------

    def preimages(self, y: SpherePoint, tol: float = DEFAULT_CLUSTER_TOL):
        """Distinct solutions of R(x) = y with local degrees, sum e(x) = N.

        Solves the binary form w_y P(z,w) - z_y Q(z,w) = 0; trailing
        coefficient drops correspond to preimages at infinity.
        """
        c = y.w * self._hp - y.z * self._hq
        mods = [abs(v) for v in c.tolist()]
        scale = max(mods)
        if scale == 0.0:
            raise InternalConsistencyError("preimage form vanished identically")
        deg = self.n
        while deg > 0 and mods[deg] <= _DEGREE_DROP_TOL * scale:
            deg -= 1
        out = []
        total = inf_mult = self.n - deg
        if inf_mult > 0:
            out.append((SpherePoint.infinity(), inf_mult))
        if deg >= 1:
            for r, m in roots(Poly(c[: deg + 1]), tol):
                out.append((SpherePoint.from_affine(r), m))
                total += m
        if total != self.n:
            raise InternalConsistencyError(
                f"preimage multiplicities sum to {total}, expected {self.n}"
            )
        return out

    def fibres(self, z, w, tol: float = DEFAULT_CLUSTER_TOL):
        """preimages of every target of homogeneous arrays (z, w), in one batch solve.

        Returns flat arrays (x_z, x_w, owner, degree): preimage k is the
        normalized pair (x_z[k], x_w[k]) over target owner[k] with local
        degree degree[k], in preimages' order per target (infinity first,
        then the sorted roots).  Rows of full degree go to roots_batch; a
        row with a degree drop, or one the batch sends to fallback (the
        multiple roots near branch values), is solved by preimages.
        """
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        n = self.n
        C = w[:, None] * self._hp - z[:, None] * self._hq
        full = np.abs(C[:, n]) > _DEGREE_DROP_TOL * np.max(np.abs(C), axis=1)
        rows = np.flatnonzero(full)
        X, fallback = roots_batch(C[rows], tol)
        X, rows = X[~fallback], rows[~fallback]
        rest = np.setdiff1d(np.arange(len(z)), rows)
        solved = {i: self.preimages(SpherePoint.from_row(z[i], w[i]), tol) for i in rest.tolist()}

        count = np.full(len(z), n, dtype=np.intp)
        count[rest] = [len(pre) for pre in solved.values()]
        start = np.cumsum(count) - count
        xz = np.empty(count.sum(), dtype=np.complex128)
        xw = np.empty_like(xz)
        degree = np.ones(len(xz), dtype=np.int64)
        at = (start[rows][:, None] + np.arange(n)).ravel()
        xz[at], xw[at] = pivot(X.ravel(), np.ones(X.size))
        for i, pre in solved.items():
            for k, (x, e) in enumerate(pre, start[i]):
                xz[k], xw[k], degree[k] = x.z, x.w, e
        return xz, xw, np.repeat(np.arange(len(z)), count), degree

    # -- branch structure --------------------------------------------------

    def branch_data(self, tol: float = DEFAULT_CLUSTER_TOL):
        if tol not in self._branch_cache:
            self._branch_cache[tol] = self._compute_branch_data(tol)
        return self._branch_cache[tol]

    def _compute_branch_data(self, tol):
        if self.exact is not None:
            points = self._branch_points_exact()
        else:
            points = self._branch_points_numeric(tol)
        # Riemann-Hurwitz bookkeeping must close exactly
        total = sum(e - 1 for _p, e in points)
        if total != 2 * self.n - 2:
            raise InternalConsistencyError(
                f"sum of (index - 1) over branched points is {total}, "
                f"expected {2 * self.n - 2}"
            )
        for pt, e in points:
            # the float image sits ~1e-16 off the true branch value, which
            # can split the order-e root into a cluster of simple roots
            # within ~eps^(1/e); compare total local multiplicity instead
            image = self.evaluate(pt)
            local = sum(
                m for x, m in self.preimages(image, tol) if chordal_distance(x, pt) <= 1e-5
            )
            if local != e:
                raise InternalConsistencyError(
                    f"branch index at {pt} is {e} by the Wronskian but the local "
                    f"preimage multiplicity of its image is {local}"
                )
        values = [rep for rep, _m in cluster([self.evaluate(pt) for pt, _e in points], tol)]
        return BranchData(branch_points=points, branch_values=values)

    def _wronskian_exact(self):
        pe, qe = self.exact
        return xq.xp_sub(
            xq.xp_mul(xq.xp_derivative(pe), qe), xq.xp_mul(pe, xq.xp_derivative(qe))
        )

    def _branch_points_exact(self):
        w = self._wronskian_exact()
        degw = xq.xp_degree(w)
        points = []
        for factor, mult in xq.xp_squarefree_decomposition(w):
            fpoly = Poly(xq.xp_to_complex(factor))
            if fpoly.degree >= 1:
                for r, m in roots(fpoly, 1e-10):
                    if m != 1:
                        raise InternalConsistencyError("square-free factor produced a multiple root")
                    if mult + 1 >= 2:
                        points.append((SpherePoint.from_affine(r), mult + 1))
        inf_mult = (2 * self.n - 2) - degw
        if inf_mult > 0:
            points.append((SpherePoint.infinity(), inf_mult + 1))
        return points

    def _branch_points_numeric(self, tol):
        wp = np.polymul(np.polyder(self.p.coeffs[::-1]), self.q.coeffs[::-1])
        wq = np.polymul(self.p.coeffs[::-1], np.polyder(self.q.coeffs[::-1]))
        width = max(len(wp), len(wq))
        w = np.zeros(width, dtype=np.complex128)
        w[width - len(wp) :] += wp
        w[width - len(wq) :] -= wq
        w = w[::-1]  # ascending
        scale = float(np.max(np.abs(w))) if len(w) else 0.0
        if scale == 0.0:
            raise InternalConsistencyError("Wronskian vanished identically")
        deg = len(w) - 1
        while deg > 0 and abs(w[deg]) <= _DEGREE_DROP_TOL * scale:
            deg -= 1
        points = []
        if deg >= 1:
            for r, m in roots(Poly(w[: deg + 1]), tol):
                points.append((SpherePoint.from_affine(r), m + 1))
        inf_mult = (2 * self.n - 2) - deg
        if inf_mult > 0:
            points.append((SpherePoint.infinity(), inf_mult + 1))
        return points

    # -- orbits ----------------------------------------------------------

    def backward_orbit(
        self,
        z: SpherePoint,
        depth: int,
        weighting: str = SET_COUNT,
        tol: float = DEFAULT_CLUSTER_TOL,
        atom_budget: int = DEFAULT_ATOM_BUDGET,
    ) -> "OrbitTree":
        """Level sets of R^{-k}(z) for k = 0..depth with weights.

        SET_COUNT carries weight 1 per distinct preimage (the measure-level
        pullback of a Dirac mass); INDEX_WEIGHTED carries the normalized
        products of branch indices, so every level has total weight 1 (the
        invariant-measure approximants).  INDEX_WEIGHTED refuses exceptional
        seeds, whose orbit averages do not converge to the invariant measure.
        Each level is a pair of arrays, (n, 2) rows [z, w] and (n,) weights,
        as OrbitTree states, from states.level_series: one preimages call per
        parent, one merge_weighted call per level, and AtomBudgetExceeded
        before any solve of a level that could pass atom_budget.
        """
        require_count("depth", depth)
        if weighting not in (SET_COUNT, INDEX_WEIGHTED):
            raise ValueError(f"unknown weighting {weighting!r}")
        if weighting == INDEX_WEIGHTED and self.is_exceptional(z, tol):
            raise ExceptionalSeed(
                f"seed {z} is an exceptional point; index-weighted orbit averages require a non-exceptional seed"
            )

        def step(coords, weights):
            children = [(x, weight if weighting == SET_COUNT else weight * e / self.n)
                        for row, weight in zip(coords.tolist(), weights.tolist())
                        for x, e in self.preimages(SpherePoint.from_row(*row), tol)]
            pairs = merge_weighted(children, tol)
            return np.stack(homogeneous([p for p, _w in pairs]), axis=1), np.array([w for _p, w in pairs])

        seed = (np.array([[z.z, z.w]], dtype=np.complex128), np.ones(1))
        return OrbitTree(level_series(seed, step, depth, self.n, atom_budget, "backward orbit"))

    # -- exceptional points ------------------------------------------------

    def exceptional_points(self, tol: float = DEFAULT_CLUSTER_TOL) -> "ExceptionalReport":
        if tol not in self._exceptional_cache:
            self._exceptional_cache[tol] = self._compute_exceptional(tol)
        return self._exceptional_cache[tol]

    def _compute_exceptional(self, tol):
        """Finite certificate: z with index N is exceptional iff its unique
        preimage u has a unique preimage v lying back in {z, u}.

        Any longer chain of totally ramified points would break the
        Riemann-Hurwitz budget, so depth two decides membership.
        """
        data = self.branch_data(tol)
        candidates = [pt for pt, e in data.branch_points if e == self.n]
        points = []
        for z in candidates:
            pre_z = self.preimages(z, tol)
            if len(pre_z) != 1:
                continue
            u = pre_z[0][0]
            pre_u = self.preimages(u, tol)
            if len(pre_u) != 1:
                continue
            v = pre_u[0][0]
            if chordal_distance(v, z) <= tol or chordal_distance(v, u) <= tol:
                points.append(z)
        points = [rep for rep, _m in cluster(points, tol)] if points else []
        if len(points) > 2:
            raise InternalConsistencyError(
                f"{len(points)} exceptional candidates; at most two are possible"
            )
        if not points:
            return ExceptionalReport(points=[], case_tag="Empty", orbit_classes=[])
        if len(points) == 1:
            z0 = points[0]
            if chordal_distance(self.evaluate(z0), z0) > tol:
                raise InternalConsistencyError("single exceptional point is not fixed")
            return ExceptionalReport(points=points, case_tag="OneFixed", orbit_classes=[[z0]])
        z0, z1 = points
        fixed0 = chordal_distance(self.evaluate(z0), z0) <= tol
        fixed1 = chordal_distance(self.evaluate(z1), z1) <= tol
        if fixed0 and fixed1:
            return ExceptionalReport(
                points=points, case_tag="TwoFixed", orbit_classes=[[z0], [z1]]
            )
        swaps = (
            chordal_distance(self.evaluate(z0), z1) <= tol
            and chordal_distance(self.evaluate(z1), z0) <= tol
        )
        if not swaps:
            raise InternalConsistencyError("two exceptional points neither fixed nor swapped")
        return ExceptionalReport(points=points, case_tag="TwoSwapped", orbit_classes=[[z0, z1]])

    def is_exceptional(self, p: SpherePoint, tol: float = DEFAULT_CLUSTER_TOL) -> bool:
        return any(chordal_distance(e, p) <= tol for e in self.exceptional_points(tol).points)

    def __repr__(self):
        return f"RationalMap(degree={self.n})"


@dataclass
class BranchData:
    """Branched points with indices, and the clustered branch values."""

    branch_points: list
    branch_values: list

    def index_at(self, p: SpherePoint) -> int:
        for pt, e in self.branch_points:
            if chordal_distance(pt, p) <= 1e-6:
                return e
        return 1

    def to_jsonable(self):
        return {
            "branch_points": [
                {"point": pt.to_jsonable(), "index": e} for pt, e in self.branch_points
            ],
            "branch_values": [v.to_jsonable() for v in self.branch_values],
        }


@dataclass
class OrbitTree:
    """Backward-orbit levels; level k is the pair (coords, weights) for R^{-k}(root).

    coords holds (n, 2) complex128 rows [z, w] as SpherePoint stores them, weights (n,) float64.
    """

    levels: list

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level_mass(self, k: int) -> float:
        return sum(self.levels[k][1].tolist())  # in atom order: np.sum adds pairwise, in other last bits

    def atom_count(self) -> int:
        return sum(len(weights) for _coords, weights in self.levels)

    def rows(self):
        """The coords of every level, stacked in level order."""
        return np.concatenate([coords for coords, _weights in self.levels])


@dataclass
class ExceptionalReport:
    """The exceptional set (at most two points) and its orbit shape."""

    points: list
    case_tag: str  # Empty | OneFixed | TwoFixed | TwoSwapped
    orbit_classes: list = field(default_factory=list)

    def to_jsonable(self):
        return {
            "points": [p.to_jsonable() for p in self.points],
            "case": self.case_tag,
            "orbit_classes": [[p.to_jsonable() for p in cls] for cls in self.orbit_classes],
        }


def analysis_report(R: RationalMap, tol: float = DEFAULT_CLUSTER_TOL) -> dict:
    """JSON-ready structural report: degree, branch data, exceptional set."""
    data = R.branch_data(tol)
    exc = R.exceptional_points(tol)
    out = {"degree": R.n}
    out.update(data.to_jsonable())
    out["exceptional"] = exc.to_jsonable()
    return out
