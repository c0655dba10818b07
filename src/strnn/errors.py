"""Exception types shared across the package.

Validation errors identify the offending location so callers can report
precisely; the CLI maps every StrnnError to exit code 2.
"""


class StrnnError(Exception):
    """Base class for all package-specific errors."""


class UsageError(StrnnError):
    """Invalid argument, config, or file content supplied by the caller."""


class InvalidDimError(UsageError):
    pass


class NonBinaryEntryError(UsageError):
    def __init__(self, i, j, value):
        super().__init__(f"non-binary entry {value!r} at ({i}, {j})")
        self.i, self.j, self.value = i, j, value


class UpperTriangleNonZeroError(UsageError):
    def __init__(self, i, j):
        super().__init__(f"nonzero entry at ({i}, {j}) on or above the diagonal")
        self.i, self.j = i, j


class InvalidThresholdError(UsageError):
    pass


class ParseError(UsageError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path, self.line_no = path, line_no


class ShapeMismatchError(UsageError):
    pass


class DimMismatchError(UsageError):
    pass


class NonBinaryInputError(UsageError):
    pass


class NonFiniteInputError(UsageError):
    pass


class InsufficientWidthError(UsageError):
    pass


class BudgetExceededError(UsageError):
    pass


class InfeasibleError(StrnnError):
    pass


class InvalidPairError(UsageError):
    pass


class ConfigError(UsageError):
    pass
