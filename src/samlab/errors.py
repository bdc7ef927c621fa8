"""Exception types shared across the package, and the one rule for a number in a config."""

import math


class SamlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SamlabError):
    """Invalid configuration, dimensions, or violated preconditions."""


def check_number(name, value, kind, minimum=None):
    """Raise ConfigurationError unless ``value`` is a number of ``kind``.

    An integer field (kind int) takes an int, a real field (kind float) a
    finite int or float; bool counts as neither.
    """
    if (isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float))
            or isinstance(value, float) and not math.isfinite(value)
            or minimum is not None and value < minimum):
        what = "an integer" if kind is int else "a finite number"
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{name} must be {what}{at_least}, not {value!r}")


def check_list(name, values, kind):
    """A list of numbers of one kind (see ``check_number``), or of values of type ``kind``."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{name} must be a list, not {values!r}")
    for value in values:
        if kind in (int, float):
            check_number(name, value, kind)
        elif not isinstance(value, kind):
            raise ConfigurationError(f"{name} must hold {kind.__name__} values, not {value!r}")


class NumericError(SamlabError):
    """Non-finite or non-convergent numerics, with optional iteration context."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class ContractViolationError(SamlabError):
    """An internal invariant that callers must uphold was broken."""
