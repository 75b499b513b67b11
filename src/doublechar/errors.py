"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: InputError -> 2,
InconsistencyError -> 3, OracleError -> 4.  `field` reads one member of
a JSON payload and turns a missing or mistyped member into InputError;
`is_int` tells a JSON integer from a boolean, which Python counts as an
int.  `Frozen` is the base of every immutable value class.
"""


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in __slots__ and sets them once, through
    `_set`, while an instance is built; any later assignment raises
    AttributeError."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class DoubleCharError(Exception):
    """Base class for all toolkit errors."""


class InputError(DoubleCharError):
    """Invalid or unvalidatable input data (files, labels, parameters)."""


class InconsistencyError(DoubleCharError):
    """An exact identity that must hold mathematically failed to hold."""


class SpanError(InconsistencyError):
    """A character is not a nonnegative Laurent combination of the simples.

    Carries the offending residual so bad tables can be diagnosed.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OracleError(DoubleCharError):
    """The independent oracle and the closed-form route disagree."""


_JSON_TYPES = {dict: "a JSON object", list: "a list", str: "a string", int: "an integer"}


def field(obj, key, kind, where):
    """obj[key], demanding that obj is a JSON object holding key with a
    value of type kind (dict, list, str or int)."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in obj:
        raise InputError(f"{where} has no {key!r} field")
    value = obj[key]
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise InputError(f"{where}: {key!r} must be {_JSON_TYPES[kind]}")
    return value


def is_int(value):
    """True for a JSON integer, False for a boolean or anything else."""
    return isinstance(value, int) and not isinstance(value, bool)
