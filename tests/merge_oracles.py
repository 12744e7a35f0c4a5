"""Reference implementations the array kernels are tested against.

_SphereHash is the dict-of-cells spatial hash that the greedy sphere
founder loop ran over, kept as it was written, as a differential oracle
for projective.CellIndex.  _greedy_planar_oracle is measure.merge_planar's
rule by brute force, and lexsort_merge_planar is merge_planar as it was
before it sorted by the first cell key alone: one full lexsort of the cells
and fancy-indexed gathers.  masked_chaos_samples is the chaos game of
ifs.hutchinson as a loop over the maps, each applied to the chains that
picked it, before every chain stepped at once.  scalar_distinct_images is
ifs.distinct_images as a loop over the maps with a norm per pair, and
collect_fibres flattens any one-atom fibre solver into a FibreTable, the
per-atom lists both fibre tables were built from before they were arrays.
list_in_attractor, list_branch_structure and list_orbit_condition are the
IFS membership test, branch-value clustering and orbit-condition
certificate as list scans, one inverse solve per point and map, before
they stepped whole levels and deduplicated with measure.unseen.
numpy_scalar_roots is polyroots.roots with its helpers as they ran on numpy
complex128 scalars, before they ran on Python complex numbers.
list_merge_weighted is projective.merge_weighted as a loop over
(SpherePoint, weight) pairs with Python complex sums, before sphere atoms
were merged as arrays by projective.merge_sphere; its founders are
index_founders, every atom sent to CellIndex, as before merge_atoms'
first-key filter.  pairs_backward_orbit is RationalMap.backward_orbit with
its levels kept as lists of (SpherePoint, weight) pairs, before they were
stored as arrays.  hand_counted_classify, hand_counted_classify_julia and
hand_counted_classify_ifs are the three classifiers as they were written
out one regime at a time, each keeping its (finite, infinite) counts by
hand, before states.phase decided every regime and PhaseReport derived the
counts from the states; two_branch_depth is kms_measure's automatic depth
as the two rules it was, the tail-target depth above log N + 0.05 and 20
below, each capped by the budget depth, before it was one loop.
"""

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from kmsdyn.errors import HypothesisUncertified, NonConvergence, NotABranchPoint, OutOfRegime
from kmsdyn.ifs import IFSBranchData, OrbitConditionEntry, OrbitConditionReport, orbit_condition
from kmsdyn.kms import _budget_depth, _exceptional_closed_form, _point_label
from kmsdyn.measure import PLANAR_MERGE_TOL, AtomicMeasure, FibreTable, merge_planar
from kmsdyn.polyroots import DEFAULT_MAX_ITER, DEFAULT_ROOT_TOL, Poly
from kmsdyn.projective import (
    DEFAULT_CLUSTER_TOL,
    CellIndex,
    SpherePoint,
    chordal_array,
    chordal_distance,
    homogeneous,
    merge_weighted,
    sphere_cells,
)
from kmsdyn.ratmap import SET_COUNT, require_count
from kmsdyn.states import (
    CRITICAL,
    FINITE_TYPE,
    INFINITE_TYPE,
    SUBCRITICAL,
    SUPERCRITICAL,
    ZERO,
    ZERO_TYPE,
    ExtremeState,
    phase,
)


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


def lexsort_merge_planar(coords, weights, tol: float = PLANAR_MERGE_TOL):
    """Merge planar atoms closer than tol; weights add, centroids average.

    The rule is the sphere's, CellIndex.founders: atoms are put in
    lexicographic order of their cells round(x / tol), and each joins the
    first earlier founder within tol (Euclidean), otherwise it founds a
    cluster.  A cluster is thus at most 2 tol wide.  Clusters come out as
    the weighted centroids of their atoms, in lexicographic cell order of
    their founders.  Coordinates must be finite with |x| < 2^62 tol.

    Only atoms next to a sorted neighbour whose first key is within 1 of
    theirs enter the cell index; the others found their own clusters.  That
    is exact: two atoms in the same or adjacent cells have first keys at
    most 1 apart, and so have the atoms sorted between them, so both are
    marked.  The marked atoms keep their order, so the founders do not
    change.  Keys lie inside +-(2^62 - 512), so no diff wraps; an extra
    marked atom would only be an extra candidate, which CellIndex.pairs drops.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if coords.shape[0] == 0:
        return coords, weights
    if not np.all(np.abs(coords) < 2.0**62 * tol):  # false for nan too
        raise ValueError(f"planar coordinates must be finite and below {2.0**62 * tol:.6g} in modulus")
    cells = np.round(coords / tol).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    x, w, cells = coords[order], weights[order], cells[order]
    gap = np.diff(cells[:, 0]) <= 1
    at = np.flatnonzero(np.r_[False, gap] | np.r_[gap, False])  # both ends of each gap
    sub = CellIndex(cells[at]).founders(lambda i, j: np.linalg.norm(x[at[i]] - x[at[j]], axis=1) <= tol)
    label = np.arange(len(x))
    label[at] = at[sub]
    root = label == np.arange(len(label))
    group = (np.cumsum(root) - 1)[label]
    wsum = np.bincount(group, weights=w)
    out = np.empty((len(wsum), x.shape[1]))
    for d in range(x.shape[1]):
        out[:, d] = np.bincount(group, weights=w * x[:, d]) / wsum
    return out, wsum


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


def _inverse(m, p):
    """The preimage of one point under one affine map, one linear solve."""
    return np.linalg.solve(m.linear, p - m.offset)


def _in_ball(gamma, x, slack):
    return float(np.linalg.norm(np.asarray(x) - gamma.center)) <= gamma.radius + slack


def list_in_attractor(gamma, y, depth=None, width_cap=512):
    """IFSSystem.in_attractor with the frontier as a list, one inverse solve per point and map."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    depth = depth if depth is not None else gamma.membership_depth()
    base_slack = 2e-7 * gamma.radius
    if not _in_ball(gamma, y, base_slack):
        return False
    frontier = [y]
    for k in range(depth):
        slack = base_slack + 4.6e-16 * gamma.radius / gamma.c1 ** (k + 1)
        nxt = []
        for p in frontier:
            for m in gamma.maps:
                q = _inverse(m, p)
                if _in_ball(gamma, q, slack):
                    nxt.append(q)
        if not nxt:
            return False
        if len(nxt) > 1:
            coords, _w = merge_planar(np.array(nxt), np.ones(len(nxt)), gamma.tol)
            nxt = list(coords)
        frontier = nxt[:width_cap]
    return True


def list_branch_structure(gamma):
    """ifs.branch_structure with list_in_attractor and the branch values clustered by a list scan."""
    values = []
    singular = []
    tol = gamma.tol
    for j in range(gamma.n):
        for jp in range(j + 1, gamma.n):
            mdiff = gamma.maps[j].linear - gamma.maps[jp].linear
            bdiff = gamma.maps[jp].offset - gamma.maps[j].offset
            scale = float(np.abs(mdiff).max())
            cond = np.linalg.cond(mdiff) if scale > 0.0 else math.inf
            if not np.isfinite(cond) or cond > 1e12:
                singular.append((j, jp))
                continue
            y = np.linalg.solve(mdiff, bdiff)
            if list_in_attractor(gamma, y):
                values.append((y, (j, jp)))
    merged = []
    for y, pair in values:
        for entry in merged:
            if np.linalg.norm(entry[0] - y) <= tol:
                entry[1].append(pair)
                break
        else:
            merged.append([y, [pair]])
    points = [gamma.maps[j](y) for y, prs in merged for j, _jp in prs]
    if points:
        coords, _w = merge_planar(np.array(points), np.ones(len(points)), tol)
        points = list(coords)
    return IFSBranchData(branch_values=[(y, prs) for y, prs in merged], branch_points=points,
                         singular_pairs=singular)


def list_orbit_condition(gamma, depth=12, width_cap=4096):
    """ifs.orbit_condition on list_branch_structure, with the closure, frontier and seen sets as list scans."""
    data = list_branch_structure(gamma)
    cvalues = [np.atleast_1d(y) for y, _prs in data.branch_values]
    if not cvalues:
        return OrbitConditionReport(
            entries=[], certified=True, inverse_closure_size=0, inverse_closure_stable=True
        )

    closure = [y.copy() for y in cvalues]
    frontier = list(closure)
    stable = False
    for _ in range(depth):
        new = []
        for p in frontier:
            for m in gamma.maps:
                q = _inverse(m, p)
                if not _in_ball(gamma, q, 2e-7 * gamma.radius):
                    continue
                if any(np.linalg.norm(q - r) <= gamma.tol for r in closure):
                    continue
                if any(np.linalg.norm(q - r) <= gamma.tol for r in new):
                    continue
                new.append(q)
        if not new:
            stable = True
            break
        closure.extend(new)
        frontier = new
        if len(closure) > width_cap:
            break

    def in_closure(x):
        return any(np.linalg.norm(x - r) <= gamma.tol for r in closure)

    entries = []
    for y in cvalues:
        if not stable:
            entries.append(OrbitConditionEntry(y, "inconclusive"))
            continue
        found = None
        frontier = [y]
        seen = [y]
        for level in range(depth + 1):
            for x in frontier:
                if not in_closure(x):
                    found = (x, level)
                    break
            if found:
                break
            nxt = []
            for x in frontier:
                for m in gamma.maps:
                    q = m(x)
                    if any(np.linalg.norm(q - r) <= gamma.tol for r in seen):
                        continue
                    seen.append(q)
                    nxt.append(q)
            frontier = nxt[:width_cap]
            if not frontier:
                break
        if found:
            entries.append(OrbitConditionEntry(y, "certified", witness=found[0], witness_depth=found[1]))
        else:
            entries.append(OrbitConditionEntry(y, "inconclusive"))
    return OrbitConditionReport(
        entries=entries,
        certified=all(e.status == "certified" for e in entries),
        inverse_closure_size=len(closure),
        inverse_closure_stable=stable,
    )


def collect_fibres(atoms, solve, embed):
    """Flatten solve(atom) -> [(point, local degree)] over the atoms into a FibreTable."""
    points, owner, degree = [], [], []
    for i, atom in enumerate(atoms):
        for x, e in solve(atom):
            points.append(x)
            owner.append(i)
            degree.append(e)
    return FibreTable(np.array(owner, dtype=np.intp), np.array(degree, dtype=np.int64), embed(points))


def index_founders(z, w, tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy cluster founder of each homogeneous pair under the chordal metric (CellIndex.founders)."""
    index = CellIndex(sphere_cells(z, w, tol))
    return index.founders(lambda i, j: chordal_array(z[j], w[j], z[i], w[i]) <= tol)


def _sort_order(points):
    """The stable order of sorting points by SpherePoint.sort_key."""
    inf = np.array([p.w == 0.0 for p in points], dtype=bool)
    a = np.array([0j if p.w == 0.0 else p.z / p.w for p in points], dtype=np.complex128)
    return np.lexsort((a.imag, a.real, inf))


def list_merge_weighted(pairs, tol: float = DEFAULT_CLUSTER_TOL):
    """Merge (point, weight) atoms closer than tol; weights add.

    The input is first ordered by (re, im, inf), so the result does not
    depend on the caller's atom order; clusters are then those of founders.
    A merged representative is the weight average of the members'
    homogeneous pairs (phase-aligned to the founder), renormalized; an atom
    alone in its cluster is kept as it is.
    """
    pairs = list(pairs)
    order = _sort_order([p for p, _w in pairs]).tolist()
    pairs = [pairs[i] for i in order]
    points = [p for p, _w in pairs]
    label = index_founders(*homogeneous(points), tol)
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


def pairs_backward_orbit(R, z, depth, weighting=SET_COUNT, tol: float = DEFAULT_CLUSTER_TOL):
    """The levels of R.backward_orbit(z, depth, weighting, tol) as lists of pairs, with no budget."""
    levels = [[(z, 1.0)]]
    for _k in range(depth):
        children = []
        for point, weight in levels[-1]:
            for x, e in R.preimages(point, tol):
                if weighting == SET_COUNT:
                    children.append((x, weight))
                else:
                    children.append((x, weight * e / R.n))
        levels.append(merge_weighted(children, tol))
    return levels


def _initial_circle(coeffs) -> list:
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / lead if n > 0 else 1.0
    # deterministic angular perturbation breaks the symmetry of z^n + c
    return [
        radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4 + 0.01 * k))
        for k in range(n)
    ]


def _aberth_iterate(coeffs, dcoeffs, max_iter):
    xs = _initial_circle(coeffs)
    n = len(xs)

    def pval(x):
        out = 0j
        for c in reversed(coeffs):
            out = out * x + c
        return out

    def dval(x):
        out = 0j
        for c in reversed(dcoeffs):
            out = out * x + c
        return out

    for _ in range(max_iter):
        max_step = 0.0
        for i in range(n):
            xi = xs[i]
            pv = pval(xi)
            if pv == 0:
                continue
            dv = dval(xi)
            if dv == 0:
                xs[i] = xi * (1.0 + 1e-8) + 1e-8
                max_step = math.inf
                continue
            newton = pv / dv
            s = 0j
            for j in range(n):
                if j != i:
                    d = xi - xs[j]
                    if d == 0:
                        d = 1e-300
                    s += 1.0 / d
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            xs[i] = xi - step
            rel = abs(step) / (1.0 + abs(xs[i]))
            if rel > max_step:
                max_step = rel
        if max_step <= 1e-14:
            return xs
    # multiple roots plateau at the attainable cloud radius; the cluster
    # analysis and the final residual gate decide what to make of that
    return xs


def _weierstrass_radii(coeffs, xs):
    """Inclusion-disc radii n |p(x_i) / (lead prod (x_i - x_j))|.

    The residual is floored at the double-precision evaluation noise so that
    points where p underflows to exactly zero (common inside a multiple-root
    cloud) still carry the radius their uncertainty implies.
    """
    n = len(xs)
    lead = coeffs[-1]
    radii = []
    for i in range(n):
        pv = 0j
        scale = 0.0
        ax = abs(xs[i])
        for c in reversed(coeffs):
            pv = pv * xs[i] + c
            scale = scale * ax + abs(c)
        noise = 2.0**-52 * scale
        prod = lead
        for j in range(n):
            if j != i:
                prod *= xs[i] - xs[j]
        if prod == 0:
            radii.append(math.inf)
        else:
            radii.append(n * max(abs(pv), noise) / abs(prod))
    return radii


def _polish(coeffs, dcoeffs, center, mult):
    """Multiplicity-aware Newton refinement of a cluster center."""
    x = center
    best = x
    best_res = math.inf
    for _ in range(60):
        pv = 0j
        for c in reversed(coeffs):
            pv = pv * x + c
        res = abs(pv)
        if res < best_res:
            best, best_res = x, res
        if pv == 0:
            return x
        dv = 0j
        for c in reversed(dcoeffs):
            dv = dv * x + c
        if dv == 0:
            break
        step = mult * pv / dv
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            pv = 0j
            for c in reversed(coeffs):
                pv = pv * x + c
            return x if abs(pv) <= best_res else best
    return best


def numpy_scalar_roots(p: Poly, tol: float = DEFAULT_ROOT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """All roots of p with multiplicities, as [(root, multiplicity)].

    Multiplicities sum to the degree.  Each returned root r satisfies
    |p(r)| <= tol * (magnitude of p near r); otherwise NonConvergence is
    raised.
    """
    coeffs = list(p.coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    if n == 1:
        return [(-coeffs[0] / coeffs[1], 1)]
    dcoeffs = [coeffs[k] * k for k in range(1, len(coeffs))]
    if n == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4.0 * c2 * c0
        s = cmath.sqrt(disc)
        if (c1.conjugate() * s).real < 0.0:
            s = -s
        q = -0.5 * (c1 + s)
        if q != 0:
            approx = [q / c2, c0 / q]
        else:
            approx = [-c1 / (2.0 * c2)] * 2
    else:
        approx = _aberth_iterate(coeffs, dcoeffs, max_iter)

    radii = _weierstrass_radii(coeffs, approx)

    # union-find over overlapping inclusion discs (plus the caller tolerance)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(approx[i] - approx[j])
            thresh = max(
                tol * max(1.0, abs(approx[i]), abs(approx[j])),
                radii[i] + radii[j],
            )
            if gap <= thresh:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    clusters: dict = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(approx[i])

    out = []
    for members in clusters.values():
        m = len(members)
        center = sum(members) / m
        refined = _polish(coeffs, dcoeffs, center, m)
        out.append((refined, m))

    for r, _m in out:
        scale = p.eval_scale(r)
        if abs(p(r)) > tol * max(scale, 1e-300):
            raise NonConvergence(
                f"root residual {abs(p(r)):.3e} exceeds {tol:.1e} * scale "
                f"{scale:.3e}; input is ill-conditioned"
            )
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


# ---------------------------------------------------------------------------
# the classifiers with hand-kept counts, and the two-branch automatic depth


@dataclass
class HandCountedReport:
    """states.PhaseReport with its (finite, infinite) counts stored, not derived."""

    beta: float
    regime: str
    extreme_states: list
    counts: tuple

    def to_jsonable(self):
        return {
            "beta": self.beta,
            "regime": self.regime,
            "states": [s.to_jsonable() for s in self.extreme_states],
            "counts": {"finite": self.counts[0], "infinite": self.counts[1]},
        }


def hand_counted_classify(R, beta=None, critical=False, tol: float = DEFAULT_CLUSTER_TOL):
    """kms.classify, one regime at a time."""
    beta_val, regime = phase(beta, critical, math.log(R.n))

    exc = R.exceptional_points(tol)
    states = []

    if regime == ZERO:
        for orbit in exc.orbit_classes:
            if len(orbit) == 1:
                states.append(
                    ExtremeState(
                        kind=ZERO_TYPE,
                        anchors=(orbit[0],),
                        label=_point_label(orbit[0]),
                        restriction=AtomicMeasure.delta(orbit[0]),
                    )
                )
            else:
                mixture = AtomicMeasure.from_sphere_atoms(
                    [(orbit[0], 0.5), (orbit[1], 0.5)], tol
                )
                states.append(
                    ExtremeState(
                        kind=ZERO_TYPE,
                        anchors=tuple(orbit),
                        label="cycle " + "+".join(_point_label(p) for p in orbit),
                        restriction=mixture,
                    )
                )
        return HandCountedReport(beta_val, regime, states, (len(states), 0))

    if regime in (SUBCRITICAL, CRITICAL):
        anchors = list(exc.points)
    else:
        anchors = [p for p, _e in R.branch_data(tol).branch_points]

    finite_count = 0
    for w in anchors:
        restriction = None
        if R.is_exceptional(w, tol):
            restriction, _norm = _exceptional_closed_form(R, w, beta_val, tol)
        states.append(
            ExtremeState(
                kind=FINITE_TYPE,
                anchors=(w,),
                label=_point_label(w),
                restriction=restriction,
            )
        )
        finite_count += 1

    infinite_count = 0
    if regime == CRITICAL:
        states.append(ExtremeState(kind=INFINITE_TYPE, anchors=(), label="lyubich"))
        infinite_count = 1
    return HandCountedReport(beta_val, regime, states, (finite_count, infinite_count))


def hand_counted_classify_julia(R, beta=None, critical=False, julia_branch_points=(),
                                tol: float = DEFAULT_CLUSTER_TOL):
    """kms.classify_julia, one regime at a time."""
    beta_val, regime = phase(beta, critical, math.log(R.n))
    data = R.branch_data(tol)
    asserted = []
    for p in julia_branch_points:
        if data.index_at(p) < 2:
            raise NotABranchPoint(f"{p} asserted in the Julia set is not a branched point")
        asserted.append(p)
    if regime == CRITICAL:
        states = [ExtremeState(kind=INFINITE_TYPE, anchors=(), label="lyubich")]
        return HandCountedReport(beta_val, CRITICAL, states, (0, 1))
    if regime != SUPERCRITICAL:
        return HandCountedReport(beta_val, regime, [], (0, 0))
    states = [
        ExtremeState(kind=FINITE_TYPE, anchors=(w,), label=_point_label(w)) for w in asserted
    ]
    return HandCountedReport(beta_val, SUPERCRITICAL, states, (len(states), 0))


def hand_counted_classify_ifs(gamma, beta=None, critical=False, orbit_depth=12):
    """ifs.classify_ifs, one regime at a time."""
    require_count("orbit_depth", orbit_depth)
    report = orbit_condition(gamma, orbit_depth)
    if not report.certified:
        warnings.warn(
            "orbit condition not certified at this depth; classification assumes it",
            HypothesisUncertified,
            stacklevel=2,
        )
    log_n = math.log(gamma.n)
    beta_val, regime = phase(beta, critical, log_n)
    if regime == CRITICAL:
        states = [ExtremeState(kind=INFINITE_TYPE, anchors=(), label="hutchinson")]
        return HandCountedReport(beta_val, CRITICAL, states, (0, 1))
    if beta_val < log_n:
        return HandCountedReport(beta_val, SUBCRITICAL, [], (0, 0))
    states = []
    for x in gamma.branch_structure().branch_points:
        label = "(" + ", ".join(f"{v:.12g}" for v in np.atleast_1d(x)) + ")"
        states.append(ExtremeState(kind=FINITE_TYPE, anchors=(tuple(np.atleast_1d(x)),), label=label))
    return HandCountedReport(beta_val, SUPERCRITICAL, states, (len(states), 0))


def _min_depth_for_tail(degree: int, beta: float) -> int:
    """Smallest depth with (N e^{-beta})^{depth+1}/(1 - N e^{-beta}) <= 1e-6."""
    q = degree * math.exp(-beta)
    if q >= 1.0:
        raise OutOfRegime("tail bound requires beta > log N")
    d = 0
    while q ** (d + 1) / (1.0 - q) > 1e-6:
        d += 1
    return d


def two_branch_depth(degree: int, beta: float, atom_budget: int) -> int:
    """kms_measure's automatic depth for beta > log N: the tail-target depth, or 20 near log N, capped."""
    cap = _budget_depth(degree, min(atom_budget, 131072))
    if beta > math.log(degree) + 0.05:
        return min(_min_depth_for_tail(degree, beta), cap)
    return min(20, cap)
