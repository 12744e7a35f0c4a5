"""kmsdyn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rat-kms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The untraced run (--trace 0) measures the
end-to-end metrics; the traced run (--trace 1) wraps kmsdyn's public
functions and reports per-layer metrics.  Every metric is printed by name
with its unit; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/USAGE.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("rat-orbit", "rat-kms", "ifs-kms", "ifs-chaos")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_state():
    def git(*cmd):
        done = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30, check=False)
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return {"sha": None, "dirty": None, "note": "not a git checkout"}
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(status)}
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": None, "dirty": None, "note": f"git unavailable: {exc}"}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, nproc, n_passes):
    import numpy as np

    return {
        "git": git_state(),
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": n_passes,
    }


def quartiles(values):
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(values)}


def measure_setup(name, seed):
    """Fresh interpreter to first pass ready, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), name, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            _out, err = child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise BenchError(f"set-up of {name} failed (rc {child.returncode}): {err[-2000:]}")
        samples.append(elapsed)
    return samples


def run_passes(workload, state, budget_s, tracer=None):
    """Passes until budget_s has elapsed (at least one), never retried."""
    from spans import PASS_SPAN

    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < budget_s:
        # start every pass from the same heap: no earlier outcome alive, no
        # garbage left for the collector
        outcome = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracer.span(PASS_SPAN) if tracer else nullcontext():
                outcome = workload.run_pass(state)
            elapsed = time.perf_counter() - t0
            problems = workload.check(state, outcome)
            atoms = outcome.atoms
        except Exception as exc:  # a raising pass is counted as failed, never retried
            elapsed = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
            atoms = 0
        passes.append({"seconds": elapsed, "atoms": atoms, "problems": problems})
    return passes


def end_to_end_metrics(passes, setup_samples):
    times = [p["seconds"] for p in passes]
    return {
        "pass_s": (statistics.median(times), "s"),
        "atoms_per_s": (sum(p["atoms"] for p in passes) / sum(times), "atoms/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, state, seconds):
    """Untraced then traced passes, half the time each, after the self-check."""
    from layers import layer_metrics, self_check
    from spans import Tracer

    problems = self_check()
    if problems:
        raise BenchError("trace-coverage self-check failed: " + "; ".join(problems))
    untraced = run_passes(workload, state, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = run_passes(workload, state, seconds / 2, tracer)
    metrics, verdict = layer_metrics(tracer, workload, len(traced),
                                     statistics.median(p["seconds"] for p in untraced))
    if verdict["nesting_problems"]:
        raise BenchError("malformed pass spans: " + "; ".join(verdict["nesting_problems"]))
    return untraced, traced, metrics, verdict, tracer


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kmsdyn" / "__init__.py").is_file():
        raise BenchError(f"no kmsdyn sources under {SRC}; run from a checkout")
    nproc = cap_threads()
    os.environ.pop("KMSDYN_ATOM_BUDGET", None)  # the program gets only generated inputs
    sys.path[:0] = [str(SRC), str(HERE)]
    import kmsdyn

    if Path(kmsdyn.__file__).resolve().parent != SRC / "kmsdyn":
        raise BenchError(f"imported kmsdyn from {kmsdyn.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_samples = measure_setup(workload.name, args.seed) if args.trace == 0 else []
    state = workload.setup(args.seed)
    workload.reference(state)

    record = {"workload": {"name": workload.name, "size": workload.size,
                           "stresses": list(workload.stresses)}}
    tracer = None
    if args.trace == 0:
        passes = run_passes(workload, state, args.seconds)
        metrics = end_to_end_metrics(passes, setup_samples)
        record["setup_s_samples"] = setup_samples
        record["pass_s"] = quartiles([p["seconds"] for p in passes])
    else:
        untraced, traced, metrics, verdict, tracer = traced_run(workload, state, args.seconds)
        passes = untraced + traced
        record["pass_s"] = quartiles([p["seconds"] for p in untraced])
        record["traced_pass_s"] = quartiles([p["seconds"] for p in traced])
        record["prediction"] = verdict
    failed = sum(1 for p in passes if p["problems"])
    record["passes"] = passes
    record["failed_frac"] = failed / len(passes)
    record["env"] = environment(args, nproc, len(passes))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(OUT / f"spans-{workload.name}.npz", record["env"])

    env = record["env"]
    print(f"kmsdyn benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"  input: {workload.size}")
    print(f"  env: git {env['git'].get('sha')} dirty={env['git'].get('dirty')}, "
          f"nproc {nproc}, {env['cpu']}, python {env['python']}, numpy {env['numpy']}, "
          f"threads {env['thread_caps']}, passes {len(passes)}")
    pq = record["pass_s"]
    print(f"  pass_s quartiles: q1 {pq['q1']:.6g} s, median {pq['median']:.6g} s, "
          f"q3 {pq['q3']:.6g} s, n {pq['n']} untraced; failed_frac "
          f"{record['failed_frac']:.6g} ({failed}/{len(passes)})")
    if tracer is not None:
        tq = record["traced_pass_s"]
        print(f"  traced pass_s: median {tq['median']:.6g} s, n {tq['n']}")
        print(f"  prediction: {record['prediction']['text']}")
    for p in passes:
        for problem in p["problems"]:
            print(f"  FAILED pass: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
