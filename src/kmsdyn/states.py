"""The rules and the result types shared by the rational-map and IFS engines.

phase decides beta and its regime, require_count a count and require_budget
a step against the atom budget, each before any work, also in level_series,
the level loop of the rational backward orbit and of the IFS word sum;
plan_depth picks the depth of a KMS state's level sum when none is given.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import asdict, dataclass, field

from .errors import AtomBudgetExceeded

FINITE_TYPE = "finite"
INFINITE_TYPE = "infinite"
ZERO_TYPE = "zero"

SUBCRITICAL = "Subcritical"
CRITICAL = "Critical"
SUPERCRITICAL = "Supercritical"
ZERO = "Zero"
CRITICAL_BETA_TOL = 1e-12
DEFAULT_ATOM_BUDGET = 2_000_000


def require_count(name: str, k, least: int = 0):
    """Refuse a bool, a non-integer or a count below least with ValueError, before any work."""
    if type(k) is bool or not hasattr(type(k), "__index__") or operator.index(k) < least:
        raise ValueError(f"{name} must be an integer of at least {least}, not {k!r}")


def require_budget(atoms: int, atom_budget: int, what: str):
    """Refuse a step that could create more than atom_budget atoms, before it runs."""
    if atoms > atom_budget:
        raise AtomBudgetExceeded(f"{what} could create {atoms} atoms, more than the budget of {atom_budget}")


def level_series(seed, step, depth: int, growth: int, atom_budget: int, what: str) -> list:
    """[seed, step(*seed), ...]: depth steps of (coords, weights) pairs, each at most growth times the last.

    A step that could bring all the levels past atom_budget atoms is refused before it runs.
    """
    levels = [seed]
    for _k in range(depth):
        require_budget(sum(len(w) for _c, w in levels) + growth * len(levels[-1][1]), atom_budget, what)
        levels.append(step(*levels[-1]))
    return levels


def plan_depth(degree: int, beta: float, atom_budget: int) -> int:
    """The depth of a KMS state's level sum when none is given, for beta > log N.

    The smallest depth whose tail (N e^{-beta})^{depth+1}/(1 - N e^{-beta})
    is at most 1e-6, capped at the deepest full tree (levels of N^k atoms)
    of at most min(atom_budget, 131,072) atoms, with a warning, attributed
    to the builder's caller, when the cap leaves the tail above 1e-6.
    """
    q = degree * math.exp(-beta)
    atoms, depth = 1, 0
    while q ** (depth + 1) / (1.0 - q) > 1e-6 and atoms + degree ** (depth + 1) <= min(atom_budget, 131072):
        atoms += degree ** (depth + 1)
        depth += 1
    tail = q ** (depth + 1) / (1.0 - q)
    if tail > 1e-6:
        warnings.warn(
            f"tail target 1e-6 not attainable at depth {depth}: bound is {tail:.3e} before "
            "normalization; pass an explicit depth to spend more atoms",
            stacklevel=3,
        )
    return depth


def phase(beta, critical: bool, log_n: float):
    """(beta, regime) at inverse temperature beta: the one regime rule of both engines.

    beta = log N when critical; otherwise beta must be a finite real number
    >= 0 (ValueError for None, a complex, a string, NaN or infinity), and it
    is critical within CRITICAL_BETA_TOL of log N, zero at 0, and
    subcritical or supercritical on either side of log N.
    """
    if critical:
        return log_n, CRITICAL
    if beta is None:
        raise ValueError("beta required unless critical=True")
    if not isinstance(beta, numbers.Real):
        raise ValueError(f"beta must be a real number, not {beta!r}")
    beta_val = float(beta)
    if not 0.0 <= beta_val < math.inf:
        raise ValueError("beta must be nonnegative and finite")
    if abs(beta_val - log_n) < CRITICAL_BETA_TOL:
        return beta_val, CRITICAL
    if beta_val == 0.0:
        return beta_val, ZERO
    return beta_val, SUBCRITICAL if beta_val < log_n else SUPERCRITICAL


def _anchor_jsonable(anchor):
    """A SpherePoint's JSON form, or a planar point's coordinates as floats."""
    if hasattr(anchor, "to_jsonable"):
        return anchor.to_jsonable()
    return [float(v) for v in anchor]


@dataclass
class KMSMeasure:
    """A constructed KMS-state restriction: a normalized atomic measure.

    normalization is the geometric-series prefactor; tail_bound controls the
    truncated mass, so total mass sits within tail_bound of 1.
    """

    measure: object
    anchor: object
    beta: float
    kind: str
    normalization: float
    truncation_depth: int
    tail_bound: float

    def to_jsonable(self, atoms_ref=None):
        out = {
            "kind": self.kind,
            "anchor": _anchor_jsonable(self.anchor),
            "beta": self.beta,
            "normalization": self.normalization,
            "truncation_depth": self.truncation_depth,
            "tail_bound": self.tail_bound,
            "total_mass": self.measure.total_mass(),
        }
        if atoms_ref is not None:
            out["atoms_ref"] = atoms_ref
        return out


@dataclass
class ExtremeState:
    """One extreme state in a phase report, identified by kind and anchor."""

    kind: str
    anchors: tuple = ()
    label: str = ""
    restriction: object = None  # AtomicMeasure when cheaply available

    def to_jsonable(self):
        if self.label and not self.anchors:
            anchor = self.label
        elif len(self.anchors) == 1:
            anchor = _anchor_jsonable(self.anchors[0])
        else:
            anchor = [_anchor_jsonable(a) for a in self.anchors]
        return {"kind": self.kind, "anchor": anchor}


@dataclass
class PhaseReport:
    """Extreme KMS states at one inverse temperature."""

    beta: float
    regime: str
    extreme_states: list = field(default_factory=list)

    @property
    def counts(self) -> tuple:
        """(finite, infinite) state counts; zero-temperature states count as finite."""
        infinite = sum(s.kind == INFINITE_TYPE for s in self.extreme_states)
        return len(self.extreme_states) - infinite, infinite

    def to_jsonable(self):
        return {
            "beta": self.beta,
            "regime": self.regime,
            "states": [s.to_jsonable() for s in self.extreme_states],
            "counts": {"finite": self.counts[0], "infinite": self.counts[1]},
        }


@dataclass
class ResidualReport:
    """Outcome of a K1-type equality check: max |residual| over the library.

    masked_mass is the measure's weight within the cutoff transition zone,
    the part of the measure the branch-set cutoff blinds the check to.
    """

    max_residual: float
    worst_function: tuple = ()
    per_function: list = field(default_factory=list)
    cutoff_radius: float = 0.0
    masked_mass: float = 0.0

    def to_jsonable(self):
        return {
            "max_residual": self.max_residual,
            "worst_function": list(self.worst_function),
            "cutoff_radius": self.cutoff_radius,
            "masked_mass": self.masked_mass,
        }


@dataclass
class ViolationReport:
    """Outcome of a K2-type positivity check.

    max_violation aggregates the library sweep and the atomwise point-mass
    inequalities; point_mass_equality_residual tracks the atomwise equality
    at non-branch atoms.
    """

    max_violation: float
    function_violation: float
    point_mass_violation: float
    point_mass_equality_residual: float

    def to_jsonable(self):
        return asdict(self)
