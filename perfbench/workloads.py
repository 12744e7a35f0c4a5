"""The four workloads of the kmsdyn benchmark.

Each workload turns the workload seed into inputs, sets the program up,
runs one pass (every job once, in a fixed order) and gates the pass on the
acceptance suite's pins.  The program is driven only through its public
functions and ``kmsdyn.cli.main(argv)``, looked up on their modules at call
time so that a traced run sees them.

The set-up time is measured by importing this module in a fresh
interpreter and running ``Workload.setup``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from kmsdyn import cli, ifs, kms, mapexpr
from kmsdyn.measure import TestFunctionLibrary, integrate
from kmsdyn.projective import SpherePoint
from spans import rebound

# Lyubich jobs: (map, degree, iterations, where the seed point is drawn).
ORBIT_JOBS = [("z^2", 2, 16, "circle"), ("z^3-z", 3, 9, "disc"), ("z^5-z+3/10", 5, 6, "disc")]
RAT_KMS_ARGV = ["rat", "kms", "--map", "z^2+1", "--beta", "1.0"]
IFS_KMS_ARGV = ["ifs", "kms", "--preset", "sierpinski-twisted", "--beta", "1.5", "--depth", "10"]
CHAOS_SAMPLES = 1_000_000
# Deterministic Hutchinson depth and moment tolerance for the chaos gate.  The
# tolerance is the weak-star pin of the chaos-game test in tests/test_ifs.py;
# with 10^6 correlated samples the gap to the depth-10 approximant is about
# 1e-3 at most (sampling error plus the approximant's 2^-10 bias).
CHAOS_REF_DEPTH = 10
CHAOS_MOMENT_TOL = 5e-3


@dataclass
class Outcome:
    atoms: int
    results: object
    stdout: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    # public functions predicted to carry most of a pass (inclusive time)
    stresses: tuple
    setup: Callable[[int], dict]
    run_pass: Callable[[dict], Outcome]
    check: Callable[[dict, Outcome], list]
    reference: Callable[[dict], None] = lambda state: None


def _cli_outcome(state):
    """One CLI run, counting the atoms of every KMS measure it builds."""
    atoms = 0

    def counting(original):
        def counted(*args, **kwargs):
            nonlocal atoms
            km = original(*args, **kwargs)
            atoms += km.measure.n_atoms
            return km
        return counted

    out, err = io.StringIO(), io.StringIO()
    with rebound({("kms", "kms_measure"): counting, ("ifs", "kms_measure_ifs"): counting}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(state["argv"]))
    return Outcome(atoms=atoms, results={"rc": rc, "stderr": err.getvalue()},
                   stdout=out.getvalue())


def _cli_payload(state, outcome, problems):
    """Parsed stdout, after the rc and byte-identity gates."""
    rc = outcome.results["rc"]
    if rc != 0:
        problems.append(f"rc {rc}: {outcome.results['stderr'].strip()[:300]}")
        return None
    first = state.setdefault("first_stdout", outcome.stdout)
    if outcome.stdout != first:
        problems.append("stdout differs from the first pass with the same arguments")
    return json.loads(outcome.stdout)


def _sphere_lib_norm():
    return max(f.sup_norm for f in TestFunctionLibrary.sphere().functions)


# ---------------------------------------------------------------------------
# rat-orbit: Lyubich approximants and their invariance residual


def _orbit_points(seed):
    rng = np.random.default_rng([seed, 0])
    points = []
    for _expr, _deg, _n, where in ORBIT_JOBS:
        if where == "circle":
            # on |z| = 1 the z^2 approximant is rotation-symmetric, so the
            # acceptance suite's first-moment pin applies
            points.append(cmath.exp(2j * math.pi * rng.random()))
        else:
            points.append(rng.uniform(0.1, 0.9) * cmath.exp(2j * math.pi * rng.random()))
    return points


def _orbit_setup(seed):
    maps = []
    for expr, *_ in ORBIT_JOBS:
        R = mapexpr.parse_map(expr)
        R.branch_data()
        R.exceptional_points()
        maps.append(R)
    return {"maps": maps, "points": _orbit_points(seed), "lib": TestFunctionLibrary.sphere()}


def _orbit_pass(state):
    results = []
    for R, pt, (_expr, _deg, n, _where) in zip(state["maps"], state["points"], ORBIT_JOBS):
        mu = kms.lyubich(R, SpherePoint.from_affine(pt), n)
        residual = kms.lyubich_invariance_residual(R, mu, state["lib"])
        results.append((mu, residual))
    return Outcome(atoms=sum(mu.n_atoms for mu, _r in results), results=results)


def _orbit_check(state, outcome):
    problems = []
    first_degree = [f for f in state["lib"].functions if sum(f.exponents) == 1]
    for (mu, residual), (expr, deg, n, where) in zip(outcome.results, ORBIT_JOBS):
        if mu.n_atoms != deg**n:
            problems.append(f"{expr}: {mu.n_atoms} atoms, expected {deg}^{n}")
        if abs(mu.total_mass() - 1.0) > 1e-12:
            problems.append(f"{expr}: mass {mu.total_mass()!r}")
        if not residual <= 1e-3:
            problems.append(f"{expr}: invariance residual {residual:.3e} > 1e-3")
        if where == "circle":
            moment = max(abs(integrate(mu, f)) for f in first_degree)
            if not moment <= 1e-10:
                problems.append(f"{expr}: first moment {moment:.3e} > 1e-10")
    return problems


# ---------------------------------------------------------------------------
# rat-kms: the CLI's KMS states with K1/K2 residuals


def _rat_kms_setup(seed):
    R = mapexpr.parse_map("z^2+1")
    R.branch_data()
    R.exceptional_points()
    return {"argv": RAT_KMS_ARGV, "lib_norm": _sphere_lib_norm()}


def _rat_kms_check(state, outcome):
    problems = []
    payload = _cli_payload(state, outcome, problems)
    if payload is None:
        return problems
    states = payload["states"]
    if len(states) != 2:
        problems.append(f"{len(states)} states, expected 2")
    for s in states:
        allowed = 10.0 * s["tail_bound"] * state["lib_norm"]
        k1, k2 = s["k1"]["max_residual"], s["k2"]["max_violation"]
        if not (k1 <= allowed and k2 <= allowed):
            problems.append(f"state {s['anchor']}: K1 {k1:.3e}, K2 {k2:.3e} > {allowed:.3e}")
    return problems


# ---------------------------------------------------------------------------
# ifs-kms: word-sum KMS states of the twisted gasket with K1/K2 analogues


def _ifs_kms_setup(seed):
    ifs.preset("sierpinski-twisted").branch_structure()
    return {"argv": IFS_KMS_ARGV}


def _ifs_kms_check(state, outcome):
    problems = []
    payload = _cli_payload(state, outcome, problems)
    if payload is None:
        return problems
    states = payload["states"]
    if len(states) != 3:
        problems.append(f"{len(states)} states, expected 3")
    for s in states:
        if not (s["k1_residual"] <= s["tail_bound"] and s["k2_violation"] <= s["tail_bound"]):
            problems.append(f"state {s['anchor']}: k1 {s['k1_residual']:.3e}, "
                            f"k2 {s['k2_violation']:.3e} > tail {s['tail_bound']:.3e}")
    return problems


# ---------------------------------------------------------------------------
# ifs-chaos: chaos-game Hutchinson measure of the gasket


def _chaos_setup(seed):
    ifs.preset("sierpinski").branch_structure()
    rng_seed = int(np.random.default_rng([seed, 3]).integers(0, 2**31))
    argv = ["ifs", "hutchinson", "--preset", "sierpinski",
            "--chaos", str(CHAOS_SAMPLES), "--rng-seed", str(rng_seed)]
    return {"argv": argv}


def _chaos_reference(state):
    gamma = ifs.preset("sierpinski")
    mu = ifs.hutchinson(gamma, CHAOS_REF_DEPTH)
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box(), degree=2)
    state["ref_moments"] = {"".join(map(str, f.exponents)): integrate(mu, f)
                            for f in lib.functions}


def _chaos_pass(state):
    outcome = _cli_outcome(state)
    if outcome.results["rc"] == 0:
        outcome.atoms = json.loads(outcome.stdout)["atoms"]
    return outcome


def _chaos_check(state, outcome):
    problems = []
    payload = _cli_payload(state, outcome, problems)
    if payload is None:
        return problems
    if abs(payload["total_mass"] - 1.0) > 1e-9:
        problems.append(f"mass {payload['total_mass']!r}")
    for key, ref in state["ref_moments"].items():
        gap = abs(payload["moments"][key] - ref)
        if not gap <= CHAOS_MOMENT_TOL:
            problems.append(f"moment {key}: gap {gap:.3e} to the depth-"
                            f"{CHAOS_REF_DEPTH} approximant > {CHAOS_MOMENT_TOL}")
    return problems


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="rat-orbit",
            size="Lyubich approximants: z^2 n=16 (65,536 atoms), z^3-z n=9 (19,683), "
                 "z^5-z+3/10 n=6 (15,625); seed points from the workload seed",
            stresses=("polyroots.roots", "ratmap.preimages", "projective.merge_weighted"),
            setup=_orbit_setup, run_pass=_orbit_pass, check=_orbit_check,
        ),
        Workload(
            name="rat-kms",
            size="kmsdyn " + " ".join(RAT_KMS_ARGV)
                 + " (CLI default --depth 14: 32,767 + 1 atoms)",
            stresses=("kms.check_K1", "kms.check_K2"),
            setup=_rat_kms_setup, run_pass=_cli_outcome, check=_rat_kms_check,
        ),
        Workload(
            name="ifs-kms",
            size="kmsdyn " + " ".join(IFS_KMS_ARGV) + " (3 states)",
            stresses=("ifs.check_K1_ifs",),
            setup=_ifs_kms_setup, run_pass=_cli_outcome, check=_ifs_kms_check,
        ),
        Workload(
            name="ifs-chaos",
            size=f"kmsdyn ifs hutchinson --preset sierpinski --chaos {CHAOS_SAMPLES} "
                 "--rng-seed <from the workload seed>",
            stresses=("measure.merge_planar",),
            setup=_chaos_setup, run_pass=_chaos_pass, check=_chaos_check,
            reference=_chaos_reference,
        ),
    ]
}
