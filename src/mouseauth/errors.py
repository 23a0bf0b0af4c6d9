"""Exception classes: one per way a caller handles an error.

The command line exits 2 on a ConfigError and 1 on any other
MouseAuthError. Every failure that no caller tells apart raises
MouseAuthError itself; its message says what went wrong. The value tests
below are shared by the stages that check their own settings and inputs.
"""

import numbers
import sys

import numpy as np


class MouseAuthError(Exception):
    """Base class for all package errors."""


class ConfigError(MouseAuthError):
    """Pipeline configuration violates a downstream precondition."""


def is_integer(value) -> bool:
    """An int or numpy integer, but not a bool: True is not a size."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_positive_finite(value) -> bool:
    """A real number, not a bool, in (0, inf); NaN and an int past any float fail."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def are_labels(values) -> bool:
    """Every value is 0 or 1; a 0.5 or a "1" fails, where int() would truncate
    or convert it."""
    values = np.asarray(values)
    return bool(((values == 0) | (values == 1)).all())
