"""Exception types shared across the package.

Validation errors identify the offending location so callers can report
precisely; the CLI maps every StrnnError to exit code 2.
"""

import dataclasses
import numbers


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


def check_field_types(spec, where=""):
    """Raise ConfigError naming the first int or float field of the dataclass
    ``spec`` whose value has another type.  A bool is not a number here, and
    an integer is a valid float."""
    for f in dataclasses.fields(spec):
        kind = {int: numbers.Integral, float: numbers.Real}.get(f.type)
        value = getattr(spec, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ConfigError(f"{where}{f.name} must be of type {f.type.__name__}, "
                              f"got {value!r}")
