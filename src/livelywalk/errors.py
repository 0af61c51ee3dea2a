"""Exception types shared across the library."""


class LivelyWalkError(Exception):
    """Base class for all domain errors raised by this package."""


class NotUnitary(LivelyWalkError):
    pass


class NotOrthogonal(LivelyWalkError):
    pass


class NumericalFailure(LivelyWalkError):
    pass


class DimensionMismatch(LivelyWalkError):
    pass


class ConstraintViolated(LivelyWalkError):
    pass


class RangeViolated(LivelyWalkError):
    pass


class OutOfRange(LivelyWalkError):
    pass


class NotPermutative(LivelyWalkError):
    pass


class InternalInconsistency(LivelyWalkError):
    pass


class NotNormalized(LivelyWalkError):
    pass


class GuardExceeded(LivelyWalkError):
    pass


class NotUnitModulus(LivelyWalkError):
    pass
