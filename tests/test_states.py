"""The shared rules: states.phase, the three classifiers on it, the measure builders' regime checks, and
the beta and budget refusals of every entry point."""

import math
import warnings

import numpy as np
import pytest

from kmsdyn import ifs, kms, measure, states
from kmsdyn.errors import AtomBudgetExceeded, OutOfRegime
from kmsdyn.mapexpr import parse_map
from kmsdyn.measure import PLANE, AtomicMeasure
from kmsdyn.projective import SpherePoint
from kmsdyn.ratmap import RationalMap
from kmsdyn.serialize import stable_dumps

from merge_oracles import (
    hand_counted_classify,
    hand_counted_classify_ifs,
    hand_counted_classify_julia,
    two_branch_depth,
)

MAPS = ["z^2", "z^2+1", "1/z^2", "z^2-1", "z^3-z", "z^3", "(z^3-16/27)/z", "z^2+1/z",
        "(z^2+1)/z", "z^2 + 0.125", "1-z^2", "z^4"]
PRESETS = ["tent", "binary", "sierpinski", "sierpinski-twisted"]


def _betas(log_n):
    """(beta, critical) pairs in every regime and on both sides of each boundary."""
    return [(0.0, False), (0.3, False), (log_n / 2, False), (log_n - 1e-13, False),
            (log_n, False), (log_n + 1e-13, False), (log_n + 0.05, False), (1.0, False),
            (2.0, False), (5.0, False), (None, True)]


def _record(report):
    """Everything a caller reads off a report, as bytes."""
    return (
        stable_dumps(report.to_jsonable()),
        tuple(report.counts),
        [s.label for s in report.extreme_states],
        [None if s.restriction is None else stable_dumps(s.restriction.to_jsonable())
         for s in report.extreme_states],
    )


@pytest.mark.parametrize("expr", MAPS)
def test_classifiers_match_the_hand_counted_oracle(expr):
    R = parse_map(expr)
    branched = [p for p, _e in R.branch_data().branch_points]
    for beta, critical in _betas(math.log(R.n)):
        assert _record(kms.classify(R, beta, critical)) == _record(hand_counted_classify(R, beta, critical))
        for asserted in ([], branched[:1], branched):
            got = kms.classify_julia(R, beta, critical, asserted)
            assert _record(got) == _record(hand_counted_classify_julia(R, beta, critical, asserted))


@pytest.mark.parametrize("name", PRESETS)
def test_classify_ifs_matches_the_hand_counted_oracle(name):
    gamma = ifs.preset(name)
    log_n = math.log(gamma.n)
    for beta, critical in [(0.0, False), (0.5, False), (log_n, False), (log_n + 1e-13, False),
                           (1.5, False), (None, True)]:
        records = []
        for classifier in (ifs.classify_ifs, hand_counted_classify_ifs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = classifier(gamma, beta, critical)
            records.append((_record(report), [str(w.message) for w in caught]))
        assert records[0] == records[1]


def test_counts_follow_the_states_and_zero_states_count_as_finite():
    R = parse_map("1/z^2")
    zero = kms.classify(R, 0.0)
    assert zero.regime == "Zero" and [s.kind for s in zero.extreme_states] == ["zero"]
    assert zero.counts == (1, 0)
    critical = kms.classify(R, critical=True)
    assert critical.counts == (2, 1)
    critical.extreme_states.pop()
    assert critical.counts == (2, 0)


def test_auto_depth_is_the_two_branch_rule():
    budgets = [1, 10, 100, 1_000, 10_000, 131_072, 200_000, 2_000_000]
    offsets = np.geomspace(1e-12, 30.0, 300)
    for n in range(2, 9):
        log_n = math.log(n)
        boundary = log_n + 0.05
        near = [boundary]
        for direction in (-np.inf, np.inf):
            b = boundary
            for _ in range(3):
                b = float(np.nextafter(b, direction))
                near.append(b)
        betas = [log_n + float(d) for d in offsets] + near
        for budget in budgets:
            for beta in betas:
                if beta - log_n < 1e-12:
                    continue  # critical to states.phase: no automatic depth there
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    depth = states.plan_depth(n, beta, budget)
                assert depth == two_branch_depth(n, beta, budget), (n, beta, budget)


def _twisted_branch_point():
    gamma = ifs.preset("sierpinski-twisted")
    return gamma, gamma.branch_structure().branch_points[0]


@pytest.mark.parametrize("name, beta, budget, depth", [
    ("sierpinski-twisted", 1.5, states.DEFAULT_ATOM_BUDGET, 10),  # 131,072 atoms hold the levels up to 3^10
    ("tent", 1.0, states.DEFAULT_ATOM_BUDGET, 16),  # and up to 2^16
    ("sierpinski-twisted", 1.5, 500, 5),  # 1 + 3 + ... + 3^5 = 364 <= 500 < 1,093
])
def test_kms_measure_ifs_plans_the_depth_within_the_budget(name, beta, budget, depth):
    gamma = ifs.preset(name)
    b = gamma.branch_structure().branch_points[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        km = ifs.kms_measure_ifs(gamma, b, beta, atom_budget=budget)
    # one warning, attributed to the builder's caller
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
    assert f"not attainable at depth {depth}:" in str(caught[0].message)
    assert km.truncation_depth == depth
    assert km.tail_bound == (gamma.n * math.exp(-beta)) ** (depth + 1)
    explicit = ifs.kms_measure_ifs(gamma, b, beta, depth=depth, atom_budget=budget).measure
    assert np.array_equal(km.measure.coords, explicit.coords) and np.array_equal(km.measure.weights, explicit.weights)


def test_kms_measure_ifs_refuses_beta_within_the_critical_tolerance():
    gamma, b = _twisted_branch_point()
    with pytest.raises(OutOfRegime):
        ifs.kms_measure_ifs(gamma, b, math.log(3) + 1e-13, depth=6)


@pytest.mark.parametrize("beta", [-0.5, None])
def test_measure_builders_refuse_negative_or_missing_beta(beta):
    gamma, b = _twisted_branch_point()
    with pytest.raises(ValueError):
        ifs.kms_measure_ifs(gamma, b, beta, depth=2)
    R = parse_map("z^2+1")
    for anchor in (SpherePoint.from_affine(0), SpherePoint.infinity()):  # ordinary, exceptional
        with pytest.raises(ValueError):
            kms.kms_measure(R, anchor, beta, depth=2)


def test_exceptional_anchor_needs_a_nonzero_beta_only():
    R = parse_map("z^2+1")
    with pytest.raises(OutOfRegime):
        kms.kms_measure(R, SpherePoint.infinity(), 0.0)
    km = kms.kms_measure(R, SpherePoint.infinity(), 0.3)
    assert km.truncation_depth == 0 and km.measure.n_atoms == 1


BAD_BETAS = [-1.0, math.nan, math.inf, -math.inf, None, 1j, "1.5", [1.5]]
BETA_ENTRY_POINTS = ["classify", "classify_julia", "classify_ifs", "kms_measure", "kms_measure_ifs",
                     "apply_F_beta", "apply_F_beta_ifs"]


def _refuse_work(*_args, **_kwargs):
    raise AssertionError("work started before beta was checked")


def _beta_entry_points(monkeypatch):
    """Each beta entry point as a call of beta, with its first expensive step patched to fail."""
    R = parse_map("z^2+1")
    tent = ifs.preset("tent")
    w = R.branch_data().branch_points[0][0]
    sphere_mu = AtomicMeasure.delta(SpherePoint.from_affine(0.5))
    plane_mu = AtomicMeasure(PLANE, [[0.5]], [1.0])
    monkeypatch.setattr(RationalMap, "exceptional_points", _refuse_work)
    monkeypatch.setattr(RationalMap, "branch_data", _refuse_work)
    monkeypatch.setattr(ifs.IFSSystem, "branch_structure", _refuse_work)
    monkeypatch.setattr(ifs, "orbit_condition", _refuse_work)
    monkeypatch.setattr(ifs, "_image_table", _refuse_work)
    monkeypatch.setattr(measure, "fibre_table", _refuse_work)
    return {
        "classify": lambda b: kms.classify(R, b),
        "classify_julia": lambda b: kms.classify_julia(R, b),
        "classify_ifs": lambda b: ifs.classify_ifs(tent, b),
        "kms_measure": lambda b: kms.kms_measure(R, w, b, depth=4),
        "kms_measure_ifs": lambda b: ifs.kms_measure_ifs(tent, [0.5], b, depth=4),
        "apply_F_beta": lambda b: measure.apply_F_beta(R, sphere_mu, b),
        "apply_F_beta_ifs": lambda b: ifs.apply_F_beta_ifs(tent, plane_mu, b),
    }


@pytest.mark.parametrize("beta", BAD_BETAS, ids=repr)
@pytest.mark.parametrize("entry", BETA_ENTRY_POINTS)
def test_every_beta_entry_point_refuses_a_beta_that_is_not_finite_and_nonnegative_before_any_work(
        monkeypatch, entry, beta):
    call = _beta_entry_points(monkeypatch)[entry]
    with pytest.raises(AssertionError, match="before beta was checked"):
        call(1.5)  # a valid beta reaches the patched step
    with pytest.raises(ValueError, match="beta"):
        call(beta)


def test_require_budget_refuses_only_past_the_budget():
    states.require_budget(5, 5, "step")
    with pytest.raises(AtomBudgetExceeded, match=r"^step could create 6 atoms, more than the budget of 5$"):
        states.require_budget(6, 5, "step")


@pytest.mark.parametrize("build, detail", [
    (lambda R, tent: measure.pullback_F(R, AtomicMeasure.delta(SpherePoint.from_affine(0.5)), atom_budget=1),
     "pullback could create 2 atoms, more than the budget of 1"),
    (lambda R, tent: ifs.apply_F_beta_ifs(tent, AtomicMeasure(PLANE, [[0.5]], [1.0]), 1.0, atom_budget=1),
     "pullback could create 2 atoms, more than the budget of 1"),
    (lambda R, tent: ifs.hutchinson(tent, 2, atom_budget=1),
     "deterministic pushforward could create 2 atoms, more than the budget of 1"),
    (lambda R, tent: ifs.hutchinson(tent, 0, chaos_samples=10, atom_budget=9),
     "chaos game could create 10 atoms, more than the budget of 9"),
    (lambda R, tent: ifs.kms_measure_ifs(tent, [0.5], 1.5, depth=3, atom_budget=2),
     "word sum could create 3 atoms, more than the budget of 2"),
    (lambda R, tent: R.backward_orbit(SpherePoint.from_affine(1), 3, atom_budget=2),
     "backward orbit could create 3 atoms, more than the budget of 2"),
    (lambda R, tent: kms.lyubich(R, SpherePoint.from_affine(1), 12, atom_budget=100),
     "backward orbit could create 127 atoms, more than the budget of 100"),
], ids=["pullback", "apply_F_beta_ifs", "hutchinson", "chaos", "word_sum", "backward_orbit", "lyubich"])
def test_every_budget_refusal_has_the_shared_wording(build, detail):
    with pytest.raises(AtomBudgetExceeded) as info:
        build(parse_map("z^2"), ifs.preset("tent"))
    assert str(info.value) == detail
