"""Exception hierarchy.

Every exception carries a stable ``code`` string so the CLI can report
machine-readable failures and map them to exit codes.
"""


class OrthokitError(Exception):
    code = "ERROR"


class NotPrime(OrthokitError):
    code = "NOT_PRIME"


class ReducibleModulus(OrthokitError):
    code = "REDUCIBLE_MODULUS"


class DivideByZero(OrthokitError):
    code = "DIVIDE_BY_ZERO"


class LogOfZero(OrthokitError):
    code = "LOG_OF_ZERO"


class GeometryMismatch(OrthokitError):
    code = "GEOMETRY_MISMATCH"


class EqualPoints(OrthokitError):
    code = "EQUAL_POINTS"


class EmptySet(OrthokitError):
    code = "EMPTY_SET"


class BadDimension(OrthokitError):
    code = "BAD_DIMENSION"


class OddDimension(OrthokitError):
    code = "ODD_DIMENSION"


class SizeMismatch(OrthokitError):
    code = "SIZE_MISMATCH"


class FieldMismatch(OrthokitError):
    code = "FIELD_MISMATCH"


class NotCoprime(OrthokitError):
    code = "NOT_COPRIME"


class UnknownName(OrthokitError):
    code = "UNKNOWN_NAME"


class KPlus1NotPrime(OrthokitError):
    code = "KPLUS1_NOT_PRIME"


class AffineQ2Undefined(OrthokitError):
    code = "AFFINE_Q2_UNDEFINED"


class UnverifiedCertificate(OrthokitError):
    code = "UNVERIFIED_CERTIFICATE"


class BudgetExceeded(OrthokitError):
    code = "BUDGET_EXCEEDED"

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class MalformedBundle(OrthokitError):
    code = "MALFORMED_BUNDLE"


class MalformedCheckpoint(MalformedBundle):
    """A search checkpoint that is unreadable, belongs to another task or
    search version, or names a state the search cannot reach."""
    code = "MALFORMED_CHECKPOINT"
