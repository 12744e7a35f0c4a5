"""The one regime rule: states.phase, the three classifiers on it, and the measure builders' regime checks."""

import math
import warnings

import numpy as np
import pytest

from kmsdyn import ifs, kms
from kmsdyn.errors import OutOfRegime
from kmsdyn.mapexpr import parse_map
from kmsdyn.projective import SpherePoint
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
                assert kms._auto_depth(n, beta, budget) == two_branch_depth(n, beta, budget), (n, beta, budget)


def _twisted_branch_point():
    gamma = ifs.preset("sierpinski-twisted")
    return gamma, gamma.branch_structure().branch_points[0]


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
