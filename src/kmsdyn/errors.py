"""Exception taxonomy shared across the package.

Each class maps to a distinct CLI exit code (see ``kmsdyn.cli.EXIT_CODES``),
so error paths stay machine-distinguishable end to end.
"""


class KmsdynError(Exception):
    """Base class for all package errors."""


class MapSyntaxError(KmsdynError):
    """Expression failed to parse; carries the 0-based offset of the failure."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeTooLow(KmsdynError):
    """Rational map of degree < 2; the theory requires degree at least two."""


class DegreeTooHigh(KmsdynError):
    """Map expression whose degree could pass the ceiling mapexpr.MAX_DEGREE; refused before it is expanded."""


class ConstantOutOfRange(KmsdynError):
    """Exact constant whose real or imaginary part is past the double range; refused before float arithmetic."""


class DivisionByZeroPolynomial(KmsdynError):
    """Expression divides by the zero polynomial."""


class NonConvergence(KmsdynError):
    """Root finder exhausted its iteration budget on ill-conditioned input."""


class NotABranchPoint(KmsdynError):
    """KMS anchor is not a branched point of the map."""


class OutOfRegime(KmsdynError):
    """Requested (anchor, beta) lies where no KMS state of that kind exists."""


class ExceptionalSeed(KmsdynError):
    """Operation requires a seed outside the exceptional set."""


class AtomBudgetExceeded(KmsdynError):
    """A pullback or orbit expansion would exceed the configured atom budget."""


class WitnessNotFoundAtDepth(KmsdynError):
    """Divergence-witness search exhausted its depth budget (inconclusive)."""


class InternalConsistencyError(KmsdynError):
    """Two independent computations of the same quantity disagree."""


class HypothesisUncertified(UserWarning):
    """Classification ran although the orbit condition was not certified."""
