"""Exception hierarchy shared by all gfft modules.

ValidationError subclasses signal bad inputs or broken preconditions; the
CLI maps them to exit code 2.  MismatchError signals a numerical
disagreement in a selftest/reproduction run (exit code 3).
"""


class GFFTError(Exception):
    pass


class ValidationError(GFFTError):
    pass


class MismatchError(GFFTError):
    pass


class NonPrimeP(ValidationError):
    pass


class ReducibleModulus(ValidationError):
    pass


class ZeroInverse(ValidationError):
    pass


class MixedFields(ValidationError):
    pass


class DivisionByZeroPoly(ValidationError):
    pass


class NoMoebiusRelation(ValidationError):
    pass


class RadixNotDividingGroupOrder(ValidationError):
    pass


class RadixNotDividing(ValidationError):
    pass


class DependentBasis(ValidationError):
    pass


class SubspaceTooLarge(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class BasisMismatch(ValidationError):
    pass


class DegreeTooLarge(ValidationError):
    pass


class PrimitivityFailure(ValidationError):
    pass


class SplitValidationFailure(ValidationError):
    pass


class DuplicatePoint(ValidationError):
    pass


class SingularMatrix(ValidationError):
    pass


class SingularLocalSystem(ValidationError):
    pass


class PointMismatch(ValidationError):
    """Values keyed by points that are not the plan's evaluation points."""


class InvalidFieldValue(ValidationError):
    """A raw value that is not an int in [0, q)."""


class InputError(ValidationError):
    """Command-line input that cannot be read or parsed."""


class PlanFileError(ValidationError):
    """A plan file entry that does not have the shape its plan case needs."""
