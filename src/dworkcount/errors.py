"""Exception types shared across the package."""


class CountingError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeError(CountingError):
    """The requested characteristic is not a prime number."""


class FieldTooLargeError(CountingError):
    """The requested field exceeds the table-based size cap."""


class ZeroArgumentError(CountingError):
    """Zero was passed where a nonzero field element is required."""


class MixedFieldsError(CountingError):
    """Operands belong to different field instances."""


class BadModulusError(CountingError):
    """q does not satisfy the congruence a formula needs (e.g. q = 1 mod 6)."""


class BadParamsError(CountingError):
    """Structural parameters (weights, exponents, list lengths) are invalid."""


class BadLambdaError(CountingError):
    """The deformation parameter is zero or lands on a singular fibre."""


class BadDegreeError(CountingError):
    """The degree does not divide q - 1 or is outside the supported range."""


class BadWeightError(CountingError):
    """A character-exponent vector is outside its valid range."""


class NotHomogeneousError(CountingError):
    """A projective count was requested for a non-homogeneous polynomial."""


class BudgetExceededError(CountingError):
    """An enumeration would scan more points than the hard budget allows."""


class PreconditionError(CountingError):
    """A transformation was applied to parameters that violate its hypotheses."""


class RoundingFailure(CountingError):
    """A value that must be an integer is too far from one."""
