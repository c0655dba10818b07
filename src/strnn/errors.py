"""Exception types shared across the package, and ``decode``: the one path
from a JSON object to a config dataclass, whose fields declare its keys.

Validation errors name the offending key or location; the CLI maps every
StrnnError to exit code 2.
"""

import dataclasses
import numbers
import sys
import typing


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
    """Raise ConfigError naming the first field of the dataclass ``spec``
    whose value is not of its declared type (a class, or ``T | None``).  A
    bool is not a number here, an integer is a valid float, and a float must
    be finite.  The error calls a dataclass type an object, as in JSON.
    ``where`` prefixes the field name."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        allowed = typing.get_args(f.type) or (f.type,)
        kinds = tuple({int: numbers.Integral, float: numbers.Real}.get(t, t) for t in allowed)
        if (isinstance(value, bool) and bool not in allowed) or not isinstance(value, kinds):
            names = ("None" if t is type(None) else "object" if dataclasses.is_dataclass(t)
                     else t.__name__ for t in allowed)
            raise ConfigError(f"{where}{f.name} must be of type {' | '.join(names)}, "
                              f"got {value!r}")
        # abs() <= max also rejects an int too large for a float
        if float in allowed and value is not None and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where}{f.name} must be finite, got {value!r}")


def decode(cls, cfg, where=""):
    """Build the config dataclass ``cls`` from the JSON object ``cfg``: raise
    ConfigError, prefixed by ``where``, for a non-object, a key that is not a
    field of ``cls``, a missing field without a default, or a value that
    fails ``check_field_types``.  A JSON array for a tuple field becomes a
    tuple, and a JSON object for a dataclass field (or ``D | None``) is
    decoded in turn, its errors prefixed by ``where`` and the field name."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}must be an object, got {cfg!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(cfg) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where}keys {sorted(unknown)}")
    for name, f in fields.items():
        if name not in cfg and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}is missing the key {name!r}")

    def value(name, v):
        kind = fields[name].type
        nested = [t for t in typing.get_args(kind) or (kind,) if dataclasses.is_dataclass(t)]
        if nested and isinstance(v, dict):
            return decode(nested[0], v, f"{where}{name} ")
        return tuple(v) if kind is tuple and isinstance(v, list) else v

    spec = cls(**{k: value(k, v) for k, v in cfg.items()})
    check_field_types(spec, where)
    return spec
