"""Shared exception types, and the strict input checks that raise them."""
import numbers


class InputError(ValueError):
    """Bad user input: malformed files, out-of-range labels, wrong sizes."""


class InternalCheckError(RuntimeError):
    """A built-in consistency check failed.

    These checks guard identities that are supposed to hold for every
    valid input, so a failure indicates a bug in this package, not a
    problem with the data.
    """


def strict_int(x, what):
    """x as an int, for every parser: only a real integer passes.

    Floats, strings and bools are rejected rather than truncated or read
    as 0/1; text formats turn their tokens into ints first, and only
    tokens of decimal digits (``complexes.is_decimal``).
    """
    if type(x) is int:
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise InputError(f"{what} must be an integer, got {x!r}")


def listed(x, what):
    """The items of a list-like x (not a string, mapping or scalar)."""
    if type(x) is list or type(x) is tuple:
        return x
    if isinstance(x, (str, bytes, dict)) or not hasattr(x, "__iter__"):
        raise InputError(f"{what} must be a list, got {x!r}")
    return list(x)
