"""KMS-state phase portraits for rational maps and self-similar systems.

The package computes, at the level of atomic measures, the complete
equilibrium-state structure of the gauge action for the operator algebras
attached to a rational map on the Riemann sphere or to an affine iterated
function system: transfer operators, branch and exceptional structure,
explicit KMS measures, Lyubich and Hutchinson approximants, and numerical
verification of the defining trace conditions.
"""

from .errors import (
    AtomBudgetExceeded,
    ConstantOutOfRange,
    DegreeTooHigh,
    DegreeTooLow,
    DivisionByZeroPolynomial,
    ExceptionalSeed,
    HypothesisUncertified,
    InternalConsistencyError,
    KmsdynError,
    MapSyntaxError,
    NonConvergence,
    NotABranchPoint,
    OutOfRegime,
    WitnessNotFoundAtDepth,
)
from .ifs import (
    AffineMap,
    IFSSystem,
    apply_F_beta_ifs,
    branch_structure,
    classify_ifs,
    hutchinson,
    kms_measure_ifs,
    orbit_condition,
    preset,
    tilde_ifs,
)
from .kms import (
    check_K1,
    check_K2,
    classify,
    classify_julia,
    divergence_witness,
    kms_measure,
    lyubich,
    lyubich_invariance_residual,
)
from .mapexpr import parse_constant, parse_expression, parse_map
from .measure import (
    AtomicMeasure,
    TestFunctionLibrary,
    apply_F_beta,
    integrate,
    measure_sum,
    pullback_F,
    pullback_G,
    tilde,
    weak_star_distance,
)
from .polyroots import Poly, derivative, roots
from .projective import SpherePoint, chordal_distance, cluster
from .ratmap import (
    INDEX_WEIGHTED,
    SET_COUNT,
    BranchData,
    ExceptionalReport,
    OrbitTree,
    RationalMap,
    analysis_report,
)
from .states import ExtremeState, KMSMeasure, PhaseReport

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AtomicMeasure",
    "AtomBudgetExceeded",
    "BranchData",
    "ConstantOutOfRange",
    "DegreeTooHigh",
    "DegreeTooLow",
    "DivisionByZeroPolynomial",
    "ExceptionalReport",
    "ExceptionalSeed",
    "ExtremeState",
    "HypothesisUncertified",
    "IFSSystem",
    "INDEX_WEIGHTED",
    "InternalConsistencyError",
    "KMSMeasure",
    "KmsdynError",
    "MapSyntaxError",
    "NonConvergence",
    "NotABranchPoint",
    "OrbitTree",
    "OutOfRegime",
    "PhaseReport",
    "Poly",
    "RationalMap",
    "SET_COUNT",
    "SpherePoint",
    "TestFunctionLibrary",
    "WitnessNotFoundAtDepth",
    "analysis_report",
    "apply_F_beta",
    "apply_F_beta_ifs",
    "branch_structure",
    "check_K1",
    "check_K2",
    "chordal_distance",
    "classify",
    "classify_ifs",
    "classify_julia",
    "cluster",
    "derivative",
    "divergence_witness",
    "hutchinson",
    "integrate",
    "kms_measure",
    "kms_measure_ifs",
    "lyubich",
    "lyubich_invariance_residual",
    "measure_sum",
    "orbit_condition",
    "parse_constant",
    "parse_expression",
    "parse_map",
    "preset",
    "pullback_F",
    "pullback_G",
    "roots",
    "tilde",
    "tilde_ifs",
    "weak_star_distance",
]
