"""Rational-point counts for Dwork and diagonal hypersurfaces over F_q.

The package computes the same projective point count along independent
routes (exhaustive enumeration, Gauss-sum formulas, and finite-field
hypergeometric closed forms) and verifies the character-sum identities
that connect them.
"""

from .errors import (
    BadDegreeError,
    BadLambdaError,
    BadModulusError,
    BadParamsError,
    BadWeightError,
    BudgetExceededError,
    CountingError,
    FieldTooLargeError,
    MixedFieldsError,
    NonPrimeError,
    NotHomogeneousError,
    PreconditionError,
    RoundingFailure,
    ZeroArgumentError,
)
from .field import FqElem, FqField, MAX_FIELD_SIZE

__all__ = [
    "FqElem",
    "FqField",
    "MAX_FIELD_SIZE",
    "BadDegreeError",
    "BadLambdaError",
    "BadModulusError",
    "BadParamsError",
    "BadWeightError",
    "BudgetExceededError",
    "CountingError",
    "FieldTooLargeError",
    "MixedFieldsError",
    "NonPrimeError",
    "NotHomogeneousError",
    "PreconditionError",
    "RoundingFailure",
    "ZeroArgumentError",
]

__version__ = "0.1.0"
