"""Exception classes: one per way a caller handles an error.

The command line exits 2 on a ConfigError and 1 on any other MouseAuthError,
and ingest.load_user skips a file that raises EmptySession. Every failure
that no caller tells apart raises MouseAuthError itself; its message says
what went wrong.
"""


class MouseAuthError(Exception):
    """Base class for all package errors."""


class ConfigError(MouseAuthError):
    """Pipeline configuration violates a downstream precondition."""


class EmptySession(MouseAuthError):
    """No valid rows survived parsing."""
