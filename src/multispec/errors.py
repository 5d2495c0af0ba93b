"""Exception hierarchy for the multispec package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError/OSError are reserved for misuse of the API and
for filesystem trouble respectively. The subclasses of NumericFailure
are the computations that could not deliver a trustworthy number; the
CLI exits 3 on them and 2 on every other error.
"""


class MultispecError(Exception):
    """Base class for all library-specific errors."""


class NumericFailure(MultispecError):
    """The computation could not deliver a trustworthy number."""


class MapSyntaxError(MultispecError):
    """Malformed expression text. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(MapSyntaxError):
    """An identifier other than the variable z or the literal i."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class DegenerateMap(MultispecError):
    """Numerator and denominator share a root at working precision."""


class PrecisionExhausted(NumericFailure, DegenerateMap):
    """Composition left the double exponent range or cancelled past double precision."""


class DegreeTooLow(MultispecError):
    """Effective degree after reduction is below 2."""


class DegenerateTransform(MultispecError):
    """Mobius transform with numerically vanishing determinant."""


class BudgetExceeded(NumericFailure):
    """An iteration or root-count cap was hit."""


class NoConvergence(NumericFailure):
    """Root finder ran out of iterations. Carries the worst residual."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(f"{message} (worst residual {worst_residual:.3e})")
        self.worst_residual = worst_residual


class IndeterminateDerivative(MultispecError):
    """Both chart evaluations of a derivative are 0/0."""


class SingularReduction(NumericFailure):
    """Derivative denominator is not invertible modulo the fixed-point polynomial."""


class ParabolicPresent(NumericFailure):
    """A multiplier too close to 1 invalidates the index identity."""


class ShapeMismatch(MultispecError):
    """Spectra with different degree or period range cannot be compared."""


class InconsistentZeroCounts(NumericFailure):
    """Zero-multiplier counts admit no nonnegative integer cycle solution."""

    def __init__(self, level: int, remainder: int):
        super().__init__(
            f"zero-multiplier count at level {level} leaves remainder {remainder}"
        )
        self.level = level
        self.remainder = remainder


class NonFiniteSpectrum(NumericFailure):
    """A spectrum entry is inf or nan, so it cannot be quantized or compared."""


class SpectraDiffer(NumericFailure):
    """Precondition failure: the two spectra are not equal at tolerance."""

    def __init__(self, distance: float):
        super().__init__(f"spectra differ (distance {distance:.3e})")
        self.distance = distance


class DegenerateParameters(MultispecError):
    """Family parameters at which the normal form breaks down."""


class NotRealizable(MultispecError):
    """No map in the family has the requested invariants."""


class SingularCurve(MultispecError):
    """Weierstrass coefficients with vanishing discriminant."""


class DuplicateId(MultispecError):
    """Catalog id already present with a different payload."""


class CorruptEntry(MultispecError):
    """Unreadable catalog line. Carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"corrupt catalog entry at line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason
