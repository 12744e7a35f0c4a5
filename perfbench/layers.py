"""Per-layer metrics of a traced run, and the trace-coverage self-check."""

from __future__ import annotations

import statistics

from spans import FUNCS, LAYERS, PASS_SPAN, SpanTable, Tracer

ROOT_DEGREES = (2, 3, 5)
# share of traced pass time the predicted functions must cover (inclusive)
PREDICTION_SHARE = 0.5


def self_check():
    """Trace tiny inputs with known call counts; return the problems found.

    A wrapped function bound somewhere the tracer missed shows up as a
    count below the expected one.
    """
    from kmsdyn import ifs, kms, mapexpr
    from kmsdyn.projective import SpherePoint

    R = mapexpr.parse_map("z^2")
    R.branch_data()
    R.exceptional_points()
    gamma = ifs.preset("sierpinski-twisted")
    b = gamma.branch_structure().branch_points[0]
    mu = ifs.kms_measure_ifs(gamma, b, 1.5, depth=2).measure

    tracer = Tracer()
    with tracer.installed():
        kms.lyubich(R, SpherePoint.from_affine(1), 4)
        ifs.check_K1_ifs(gamma, mu, 1.5)
    table = SpanTable(tracer)
    expected = {"ratmap.preimages": 15, "polyroots.roots": 15,
                "projective.merge_weighted": 5, "ifs.distinct_images": mu.n_atoms}
    problems = []
    for name, want in expected.items():
        got = int(table.mask(name).sum())
        if got != want:
            problems.append(f"{name}: {got} calls traced, expected {want}")
    return problems + table.check_nesting()


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, workload, n_passes: int, untraced_pass_s: float):
    """(metrics {name: (value, unit)}, prediction verdict) from traced passes.

    Call counts, times and atom counts are per traced pass.  A function that
    did not run in this workload reports 0.
    """
    t = SpanTable(tracer)

    def count(fname, key):
        return t.counts.get((fname, key), 0)

    per_pass = 1.0 / n_passes
    passes = t.mask(PASS_SPAN)
    pass_ns = float(t.dur[passes].sum())
    m = {}

    for fname in FUNCS:
        sel = t.mask(fname)
        m[f"{fname}.calls"] = (sel.sum() * per_pass, "calls/pass")
        m[f"{fname}.total_s"] = (t.dur[sel].sum() * 1e-9 * per_pass, "s/pass")
        m[f"{fname}.self_s"] = (t.self_ns[sel].sum() * 1e-9 * per_pass, "s/pass")

    roots = t.mask("polyroots.roots")
    for d in ROOT_DEGREES:
        sel = roots & (t.tag == d)
        m[f"polyroots.roots.us_per_call.d{d}"] = (_ratio(t.dur[sel].sum() * 1e-3, sel.sum()), "us")
    pre = t.mask("ratmap.preimages")
    m["ratmap.preimages.self_us_per_call"] = (_ratio(t.self_ns[pre].sum() * 1e-3, pre.sum()), "us")

    orbit = t.mask("ratmap.backward_orbit")
    m["ratmap.backward_orbit.s_per_level"] = (
        _ratio(t.dur[orbit].sum() * 1e-9, count("ratmap.backward_orbit", "levels")), "s/level")
    m["ratmap.backward_orbit.atoms_out"] = (
        count("ratmap.backward_orbit", "atoms_out") * per_pass, "atoms/pass")

    for fname in ("projective.merge_weighted", "measure.merge_planar"):
        n_in, n_out = count(fname, "atoms_in"), count(fname, "atoms_out")
        m[f"{fname}.atoms_in"] = (n_in * per_pass, "atoms/pass")
        m[f"{fname}.atoms_out"] = (n_out * per_pass, "atoms/pass")
        m[f"{fname}.ns_per_atom_in"] = (_ratio(t.dur[t.mask(fname)].sum(), n_in), "ns/atom")
    mw_in = count("projective.merge_weighted", "atoms_in")
    m["projective.merge_weighted.collapse_frac"] = (
        1.0 - _ratio(count("projective.merge_weighted", "atoms_out"), mw_in) if mw_in else 0.0,
        "ratio")

    for fname in ("kms.check_K1", "kms.check_K2", "kms.lyubich_invariance_residual",
                  "ifs.check_K1_ifs"):
        m[f"{fname}.us_per_atom"] = (
            _ratio(t.dur[t.mask(fname)].sum() * 1e-3, count(fname, "atoms")), "us/atom")
    checked = count("kms.check_K1", "atoms") + count("kms.check_K2", "atoms")
    m["kms.check.preimages_per_atom"] = (
        _ratio((pre & t.under("kms.check_K1", "kms.check_K2")).sum(), checked), "calls/atom")

    chaos = t.mask("ifs.hutchinson") & (t.tag > 0)
    m["ifs.hutchinson.chaos_ns_per_sample"] = (
        _ratio(t.self_ns[chaos].sum(), t.tag[chaos].sum()), "ns/sample")
    m["serialize.stable_dumps.us_per_kb"] = (
        _ratio(t.dur[t.mask("serialize.stable_dumps")].sum() * 1e-3,
               count("serialize.stable_dumps", "bytes") / 1024.0), "us/KB")

    traced_pass_s = statistics.median(t.dur[passes] * 1e-9)
    m["trace.overhead_frac"] = (traced_pass_s / untraced_pass_s - 1.0, "ratio")
    stressed = _ratio(t.covered_ns(*workload.stresses), pass_ns)
    m["trace.stressed_share"] = (stressed, "ratio")

    # self time of each layer's functions as a share of pass time; "bench"
    # is pass time outside every wrapped function
    for layer in LAYERS:
        sel = t.mask(*[f for f in FUNCS if f.startswith(layer + ".")])
        m[f"share.{layer}"] = (_ratio(t.self_ns[sel].sum(), pass_ns), "ratio")
    m["share.bench"] = (_ratio(t.self_ns[passes].sum(), pass_ns), "ratio")

    holds = stressed >= PREDICTION_SHARE
    ranked = sorted(((v, k) for k, (v, _u) in m.items() if k.startswith("share.")), reverse=True)
    top = ", ".join(f"{k} {v:.2f}" for v, k in ranked[:3])
    text = (f"{' + '.join(workload.stresses)} cover {stressed:.1%} of traced pass time "
            f"(predicted >= {PREDICTION_SHARE:.0%}): "
            f"{'agrees' if holds else 'DISAGREES with the prediction'}; top layers by self "
            f"time: {top}")
    return m, {"stresses": list(workload.stresses), "share": stressed,
               "threshold": PREDICTION_SHARE, "holds": holds, "text": text,
               "nesting_problems": t.check_nesting()}

