"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: InputError -> 2,
InconsistencyError -> 3, OracleError -> 4.  `field` reads one member of
a JSON payload and turns a missing or mistyped member into InputError;
`is_int` tells a JSON integer from a boolean, which Python counts as an
int.  `Frozen` is the base of every immutable value class.  Every file
is read by `load_json` and written by `write_atomic`, which moves a
temporary file into place by one atomic rename; every file failure of
either becomes InputError naming the path.
"""

import json
import os


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


def write_atomic(path, fill):
    """fill(fh) writes the text of path into a temporary file beside it,
    which then replaces path in one rename.  On any failure the temporary
    file is removed and path is left as it was.  open() rather than
    mkstemp, so the file takes the mode the umask gives, not 0600."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fill(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename == tmp:
            # the message names the destination, never the temporary name
            exc = OSError(exc.errno, exc.strerror, path)
        raise InputError(f"cannot write {path}: {exc}") from None


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read") from None
    except ValueError as exc:
        # an integer literal longer than int() converts
        raise InputError(f"{path} holds a number too long to read: {exc}") from None
