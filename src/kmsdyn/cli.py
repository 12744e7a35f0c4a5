"""Command-line interface.

Two command groups mirror the two engines:

    kmsdyn rat analyze|kms|lyubich|phase|witness --map EXPR ...
    kmsdyn ifs analyze|kms|hutchinson|classify --preset NAME|--system FILE ...

All results are emitted as schema-versioned JSON (sorted keys, 17
significant digits) on stdout or --out; atom lists go to CSV.  Every error
class exits with its own code and a machine-readable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import ifs as ifsmod
from . import kms as kmsmod
from .errors import (
    AtomBudgetExceeded,
    DegreeTooLow,
    DivisionByZeroPolynomial,
    ExceptionalSeed,
    InternalConsistencyError,
    KmsdynError,
    MapSyntaxError,
    NonConvergence,
    NotABranchPoint,
    NotSubinvariant,
    OutOfRegime,
    WitnessNotFoundAtDepth,
)
from .mapexpr import parse_constant, parse_map
from .measure import TestFunctionLibrary, integrate
from .projective import SpherePoint
from .ratmap import DEFAULT_ATOM_BUDGET, analysis_report
from .serialize import stable_dumps, write_planar_atoms_csv, write_sphere_atoms_csv
from .states import SUPERCRITICAL

SCHEMA_VERSION = 1

EXIT_CODES = {
    MapSyntaxError: 3,
    DegreeTooLow: 4,
    DivisionByZeroPolynomial: 5,
    NonConvergence: 6,
    NotABranchPoint: 7,
    OutOfRegime: 8,
    ExceptionalSeed: 9,
    NotSubinvariant: 10,
    AtomBudgetExceeded: 11,
    WitnessNotFoundAtDepth: 12,
    InternalConsistencyError: 13,
}


def atom_budget() -> int:
    raw = os.environ.get("KMSDYN_ATOM_BUDGET")
    if raw is None:
        return DEFAULT_ATOM_BUDGET
    value = int(raw)
    if value <= 0:
        raise ValueError("KMSDYN_ATOM_BUDGET must be positive")
    return value


def _parse_point(text: str) -> SpherePoint:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return SpherePoint.infinity()
    return SpherePoint.from_affine(parse_constant(text))


def _parse_planar_point(text: str):
    return np.array([float(v) for v in text.split(",")], dtype=np.float64)


def _beta_args(args):
    if args.critical:
        return None, True
    if args.beta is None:
        raise OutOfRegime("provide --beta or --critical")
    return args.beta, False


def _load_system(args) -> ifsmod.IFSSystem:
    if args.preset:
        return ifsmod.preset(args.preset)
    if args.system:
        with open(args.system) as fh:
            return ifsmod.system_from_jsonable(json.load(fh))
    raise ValueError("provide --preset or --system")


# ---------------------------------------------------------------------------
# rat subcommands


def _cmd_rat_analyze(args) -> dict:
    R = parse_map(args.map)
    return {"map": args.map, "analysis": analysis_report(R, args.tol)}


def _cmd_rat_kms(args) -> dict:
    R = parse_map(args.map)
    beta, critical = _beta_args(args)
    report = kmsmod.classify(R, beta=beta, critical=critical, tol=args.tol)
    lib = TestFunctionLibrary.sphere()
    budget = atom_budget()
    states = []
    for k, state in enumerate(report.extreme_states):
        entry = state.to_jsonable()
        if state.kind == "finite" and state.anchors:
            km = kmsmod.kms_measure(
                R, state.anchors[0], report.beta, depth=args.depth,
                tol=args.tol, atom_budget=budget,
            )
            ref = None
            if args.atoms_csv:
                ref = f"{args.atoms_csv}-state{k}.csv"
                write_sphere_atoms_csv(km.measure, ref)
            entry.update(km.to_jsonable(atoms_ref=ref))
            if km.measure.n_atoms <= 16:
                entry["atoms"] = km.measure.to_jsonable()["atoms"]
            if not args.skip_residuals:
                entry["k1"] = kmsmod.check_K1(R, km.measure, report.beta, lib, tol=args.tol).to_jsonable()
                entry["k2"] = kmsmod.check_K2(R, km.measure, report.beta, lib, tol=args.tol).to_jsonable()
        elif state.restriction is not None:
            # zero-temperature states carry their closed-form restriction
            entry["atoms"] = state.restriction.to_jsonable()["atoms"]
        states.append(entry)
    out = {"map": args.map, "beta": report.beta, "regime": report.regime, "states": states}
    if args.julia_points:
        asserted = [_parse_point(t) for t in args.julia_points.split(";") if t.strip()]
        jr = kmsmod.classify_julia(R, beta=report.beta, julia_branch_points=asserted, tol=args.tol)
        out["julia"] = jr.to_jsonable()
    return out


def _cmd_rat_lyubich(args) -> dict:
    R = parse_map(args.map)
    seed = _parse_point(args.seed)
    mu = kmsmod.lyubich(R, seed, args.iters, tol=args.tol, atom_budget=atom_budget())
    lib = TestFunctionLibrary.sphere()
    residual = kmsmod.lyubich_invariance_residual(R, mu, lib)
    moments = [integrate(mu, f) for f in lib.functions[1:4]]
    if args.atoms_csv:
        write_sphere_atoms_csv(mu, args.atoms_csv)
    return {
        "map": args.map,
        "seed": seed.to_jsonable(),
        "iterations": args.iters,
        "atoms": mu.n_atoms,
        "total_mass": mu.total_mass(),
        "invariance_residual": residual,
        "first_moments": moments,
        "atoms_ref": args.atoms_csv,
    }


def _cmd_rat_phase(args) -> dict:
    R = parse_map(args.map)
    lo, hi, step = (float(v) for v in args.beta_grid.split(":"))
    if step <= 0:
        raise ValueError("grid step must be positive")
    grid = []
    beta = lo
    while beta <= hi + 1e-15:
        grid.append(round(beta, 15))
        beta += step
    reports = [kmsmod.classify(R, beta=b, tol=args.tol).to_jsonable() for b in grid]
    out = {"map": args.map, "grid": reports, "log_degree": math.log(R.n)}
    if args.julia_points:
        asserted = [_parse_point(t) for t in args.julia_points.split(";") if t.strip()]
        out["julia"] = [
            kmsmod.classify_julia(R, beta=b, julia_branch_points=asserted, tol=args.tol).to_jsonable()
            for b in grid
        ]
    return out


def _cmd_rat_witness(args) -> dict:
    R = parse_map(args.map)
    point = _parse_point(args.point)
    report = kmsmod.divergence_witness(
        R, point, args.beta, depth=args.depth, tol=args.tol, atom_budget=atom_budget()
    )
    return {"map": args.map, "witness_report": report.to_jsonable()}


# ---------------------------------------------------------------------------
# ifs subcommands


def _cmd_ifs_analyze(args) -> dict:
    gamma = _load_system(args)
    data = gamma.branch_structure()
    orbit = ifsmod.orbit_condition(gamma, depth=args.depth)
    return {
        "system": gamma.to_jsonable(),
        "branch_structure": data.to_jsonable(),
        "orbit_condition": orbit.to_jsonable(),
    }


def _cmd_ifs_kms(args) -> dict:
    gamma = _load_system(args)
    beta, critical = _beta_args(args)
    report = ifsmod.classify_ifs(gamma, beta=beta, critical=critical)
    if report.regime != SUPERCRITICAL:
        states = [s.to_jsonable() for s in report.extreme_states]
        return {"system": gamma.to_jsonable(), "beta": report.beta, "states": states}
    anchors = (
        [_parse_planar_point(args.branch_point)] if args.branch_point
        else list(gamma.branch_structure().branch_points)
    )
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box())
    states = []
    for k, b in enumerate(anchors):
        km = ifsmod.kms_measure_ifs(
            gamma, b, report.beta, depth=args.depth, atom_budget=atom_budget()
        )
        ref = None
        if args.atoms_csv:
            ref = f"{args.atoms_csv}-state{k}.csv"
            write_planar_atoms_csv(km.measure, ref)
        entry = km.to_jsonable(atoms_ref=ref)
        if not args.skip_residuals:
            k1, k2 = ifsmod.check_K1_ifs(gamma, km.measure, report.beta, lib)
            entry["k1_residual"] = k1
            entry["k2_violation"] = k2
        states.append(entry)
    return {"system": gamma.to_jsonable(), "beta": report.beta, "states": states}


def _cmd_ifs_hutchinson(args) -> dict:
    gamma = _load_system(args)
    mu = ifsmod.hutchinson(
        gamma,
        args.iters,
        chaos_samples=args.chaos,
        seed=args.rng_seed,
        atom_budget=atom_budget(),
    )
    lib = TestFunctionLibrary.plane(box=gamma.bounding_box(), degree=2)
    keys = ["".join(map(str, f.exponents)) for f in lib.functions]
    moments = dict(zip(keys, lib.integrate_all(mu).tolist()))
    if args.atoms_csv:
        write_planar_atoms_csv(mu, args.atoms_csv)
    return {
        "system": gamma.to_jsonable(),
        "mode": mu.info,
        "atoms": mu.n_atoms,
        "total_mass": mu.total_mass(),
        "moments": moments,
        "atoms_ref": args.atoms_csv,
    }


def _cmd_ifs_classify(args) -> dict:
    gamma = _load_system(args)
    beta, critical = _beta_args(args)
    report = ifsmod.classify_ifs(gamma, beta=beta, critical=critical, orbit_depth=args.depth)
    return {"system": gamma.to_jsonable(), "phase": report.to_jsonable()}


# ---------------------------------------------------------------------------
# wiring


def _add_rat_common(p):
    p.add_argument("--map", required=True, help="rational map expression, e.g. 'z^2+1'")
    p.add_argument("--tol", type=float, default=1e-8, help="chordal clustering tolerance")
    p.add_argument("--out", help="write JSON here instead of stdout")


def _add_ifs_common(p):
    p.add_argument("--preset", help="tent | binary | sierpinski | sierpinski-twisted")
    p.add_argument("--system", help="JSON file with a custom affine system")
    p.add_argument("--out", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kmsdyn")
    top = parser.add_subparsers(dest="group", required=True)

    rat = top.add_parser("rat", help="rational maps on the Riemann sphere")
    rsub = rat.add_subparsers(dest="command", required=True)

    p = rsub.add_parser("analyze", help="branch and exceptional structure")
    _add_rat_common(p)
    p.set_defaults(func=_cmd_rat_analyze)

    p = rsub.add_parser("kms", help="KMS measures with trace-condition residuals")
    _add_rat_common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--critical", action="store_true", help="beta = log(deg R) exactly")
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--atoms-csv", help="CSV path prefix for state atoms")
    p.add_argument("--skip-residuals", action="store_true")
    p.add_argument("--julia-points", help="';'-separated branched points asserted in the Julia set")
    p.set_defaults(func=_cmd_rat_kms)

    p = rsub.add_parser("lyubich", help="balanced backward-orbit approximant")
    _add_rat_common(p)
    p.add_argument("--seed", required=True, help="seed point, e.g. '1' or 'inf'")
    p.add_argument("--iters", type=int, default=12)
    p.add_argument("--atoms-csv")
    p.set_defaults(func=_cmd_rat_lyubich)

    p = rsub.add_parser("phase", help="phase portrait over a beta grid")
    _add_rat_common(p)
    p.add_argument("--beta-grid", required=True, help="LO:HI:STEP")
    p.add_argument("--julia-points")
    p.set_defaults(func=_cmd_rat_phase)

    p = rsub.add_parser("witness", help="mass-divergence witness below log N")
    _add_rat_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=_cmd_rat_witness)

    ifs = top.add_parser("ifs", help="self-similar affine contraction systems")
    isub = ifs.add_subparsers(dest="command", required=True)

    p = isub.add_parser("analyze", help="branch structure and orbit condition")
    _add_ifs_common(p)
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(func=_cmd_ifs_analyze)

    p = isub.add_parser("kms", help="word-sum KMS measures above log N")
    _add_ifs_common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--critical", action="store_true")
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--branch-point", help="anchor as 'x,y' (default: every branch point)")
    p.add_argument("--atoms-csv")
    p.add_argument("--skip-residuals", action="store_true")
    p.set_defaults(func=_cmd_ifs_kms)

    p = isub.add_parser("hutchinson", help="self-similar measure approximant")
    _add_ifs_common(p)
    p.add_argument("--iters", type=int, default=12)
    p.add_argument("--chaos", type=int, help="sample count; switches to the chaos game")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--atoms-csv")
    p.set_defaults(func=_cmd_ifs_hutchinson)

    p = isub.add_parser("classify", help="extreme states at one beta")
    _add_ifs_common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--critical", action="store_true")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(func=_cmd_ifs_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 1.0)
        if not 0.0 < tol < math.inf:
            raise ValueError(f"--tol must be finite and positive, got {tol!r}")
        payload = args.func(args)
    except KmsdynError as exc:
        kind = type(exc).__name__
        sys.stderr.write(stable_dumps({"error": {"kind": kind, "detail": str(exc)}}) + "\n")
        return EXIT_CODES.get(type(exc), 1)
    except (ValueError, OSError) as exc:
        sys.stderr.write(
            stable_dumps({"error": {"kind": type(exc).__name__, "detail": str(exc)}}) + "\n"
        )
        return 1
    payload = {"schema": SCHEMA_VERSION, **payload}
    text = stable_dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
