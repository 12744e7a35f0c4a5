"""The regime rule and the result types shared by the rational-map and IFS engines."""

from __future__ import annotations

from dataclasses import dataclass, field

FINITE_TYPE = "finite"
INFINITE_TYPE = "infinite"
ZERO_TYPE = "zero"

SUBCRITICAL = "Subcritical"
CRITICAL = "Critical"
SUPERCRITICAL = "Supercritical"
ZERO = "Zero"
CRITICAL_BETA_TOL = 1e-12


def phase(beta, critical: bool, log_n: float):
    """(beta, regime) at inverse temperature beta: the one regime rule of both engines.

    beta = log N when critical; otherwise beta must be a number >= 0, and
    it is critical within CRITICAL_BETA_TOL of log N, zero at 0, and
    subcritical or supercritical on either side of log N.
    """
    if critical:
        return log_n, CRITICAL
    if beta is None:
        raise ValueError("beta required unless critical=True")
    beta_val = float(beta)
    if beta_val < 0:
        raise ValueError("beta must be nonnegative")
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
        return {
            "max_violation": self.max_violation,
            "function_violation": self.function_violation,
            "point_mass_violation": self.point_mass_violation,
            "point_mass_equality_residual": self.point_mass_equality_residual,
        }
