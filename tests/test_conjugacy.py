"""Conjugacy oracle: the paper's invariants of a rational map do not depend on coordinates.

A Moebius conjugate S^-1 o R o S has the degree of R, its branch indices, its
exceptional case and orbit-class shapes, and so its KMS phase portrait.  Each
conjugate is written as an exact map string, so its coefficients are exact
Gaussian rationals and only the float work can tell it from R.

The totally ramified points of z^N and 1/z^N sit at 0 and infinity, where
the N-fold roots are exact zeros; their translates put an N-fold root at a
centre that is not zero.

The IFS side: a rigid motion S moves a system gamma to S o gamma o S^-1, whose
branch points are the images under S of gamma's and whose KMS phase portrait
is gamma's.  A rotation is not exact in floats, so points match within a
tolerance relative to the invariant radius.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from kmsdyn.errors import HypothesisUncertified
from kmsdyn.ifs import AffineMap, IFSSystem, classify_ifs, preset
from kmsdyn.kms import classify
from kmsdyn.mapexpr import parse_map

MAPS = ["z^2+1", "z^3-z", "1/z^2", "(z^2+1)/(z^2-1)", "z^2", "z^3", "z^4+1/3", "z^5+2*i", "z^6+1",
        "z^7-1/4", "z^5-z+3/10", "(z^3-16/27)/z", "z^2-1"]
# S(z) = z + c, c z and 1/z
CONJUGACIES = ([("translate", c) for c in ("1/3", "-1/5", "i/5", "1/10", "2")]
               + [("scale", c) for c in ("2", "i", "1/3")] + [("invert", None)])
CENTRES = ("1/3", "-1/5", "i/5", "1/10", "2", "3/7-2*i/9")


def conjugate(expr: str, kind: str, c) -> str:
    """S^-1 o R o S as a map string, R given by expr."""
    if kind == "translate":
        return f"({expr.replace('z', f'(z+({c}))')})-({c})"
    if kind == "scale":
        return f"({expr.replace('z', f'(({c})*z)')})/({c})"
    return f"1/({expr.replace('z', '(1/z)')})"


@functools.cache
def invariants(expr: str):
    R = parse_map(expr)
    exc = R.exceptional_points()
    return (R.n, sorted(e for _p, e in R.branch_data().branch_points), exc.case_tag,
            sorted(map(len, exc.orbit_classes)), classify(R, beta=0.3).counts,
            classify(R, beta=2.5).counts, classify(R, critical=True).counts)


def _case(name, expr, base):
    return pytest.param(expr, base, id=name)


CASES = [_case(f"{m} {kind} {c}" if c else f"{m} {kind}", conjugate(m, kind, c), m)
         for m in MAPS for kind, c in CONJUGACIES]
CASES += [_case(t, t, base) for n in range(2, 8) for a in CENTRES
          for t, base in ((f"(z-({a}))^{n}+({a})", f"z^{n}"), (f"1/(z-({a}))^{n}+({a})", f"1/z^{n}"))]


@pytest.mark.parametrize("expr, base", CASES)
def test_conjugate_has_the_invariants_of_the_map(expr, base):
    assert invariants(expr) == invariants(base)


def test_translated_exceptional_points_sit_at_the_centre():
    # z^3 fixes 0 and infinity; its translate by 1/3 fixes 1/3 and infinity,
    # and 1/z^2's translate by 2 swaps 2 and infinity
    for expr, finite, tag in (("(z-(1/3))^3+(1/3)", 1 / 3, "TwoFixed"), ("1/(z-(2))^2+(2)", 2.0, "TwoSwapped")):
        rep = parse_map(expr).exceptional_points()
        assert rep.case_tag == tag
        assert sorted(p.is_infinity() for p in rep.points) == [False, True]
        (p,) = [p for p in rep.points if not p.is_infinity()]
        assert math.isclose(p.to_affine().real, finite, rel_tol=1e-12) and abs(p.to_affine().imag) < 1e-12


# S(x) = U x + t, U the rotation by theta
MOTIONS = [(math.pi / 6, (0.0, 0.0)), (2 * math.pi / 3, (100.0, -37.5)), (-1.1, (-3.25, 7 / 3)),
           (math.pi, (0.5, 100.0))]


def moved(gamma, theta, t):
    """(S o gamma o S^-1, S) for the motion S of rotation theta and offset t."""
    U = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    t = np.asarray(t)
    maps = [AffineMap(U @ m.linear @ U.T, U @ m.offset + t - U @ m.linear @ U.T @ t) for m in gamma.maps]
    return IFSSystem(maps, name=gamma.name), lambda x: U @ x + t


def phase_counts(gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisUncertified)
        return [classify_ifs(gamma, beta=0.5).counts, classify_ifs(gamma, critical=True).counts,
                classify_ifs(gamma, beta=1.5).counts]


@pytest.mark.parametrize("theta, t", MOTIONS)
@pytest.mark.parametrize("name", ["sierpinski", "sierpinski-twisted"])
def test_moved_system_has_the_moved_branch_points_and_phase_counts(name, theta, t):
    gamma = preset(name)
    other, S = moved(gamma, theta, t)
    want = [S(x) for x in gamma.branch_structure().branch_points]
    got = other.branch_structure().branch_points
    assert len(got) == len(want) == (3 if name == "sierpinski-twisted" else 0)
    tol = 1e-9 * gamma.radius
    for x in got:
        assert min(np.linalg.norm(x - y) for y in want) <= tol
    for y in want:
        assert min(np.linalg.norm(x - y) for x in got) <= tol
    assert phase_counts(other) == phase_counts(gamma)
