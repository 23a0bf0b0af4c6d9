"""Exception hierarchy shared across the package."""


class MouseAuthError(Exception):
    """Base class for all package errors."""


# ingest
class SchemaError(MouseAuthError):
    """A column named in the schema is missing from the file."""


class EmptySession(MouseAuthError):
    """No valid rows survived parsing."""


class NoSessions(MouseAuthError):
    """Every file of a user failed to parse."""


# kinematics / mau / sufficiency
class TooShort(MouseAuthError):
    """Sequence too short for the requested computation."""


class InvalidDt(MouseAuthError):
    """Non-positive sampling interval."""


class TooFewSamples(MouseAuthError):
    """Bandwidth estimation needs at least two samples."""


class InvalidBandwidth(MouseAuthError):
    """Non-positive kernel bandwidth."""


class EmptyInput(MouseAuthError):
    """Empty sample set where at least one value is required."""


class GridMismatch(MouseAuthError):
    """Two density estimates do not share the same evaluation grid."""


class OutOfRange(MouseAuthError):
    """Window index or parameter outside its valid range."""


# model
class ShapeMismatch(MouseAuthError):
    """Array shapes inconsistent with the model configuration."""


class LabelOutOfRange(MouseAuthError):
    """Class label outside {0, 1}."""


class SingleClassDataset(MouseAuthError):
    """Training data contains only one class."""


# evaluation
class SingleClass(MouseAuthError):
    """Metric requires both legitimate and imposter samples."""


class EmptySet(MouseAuthError):
    """Metric called on an empty score set."""


class InsufficientUsers(MouseAuthError):
    """Not enough users to build the requested split."""


class InsufficientData(MouseAuthError):
    """Not enough samples to build the requested split."""


# synth
class InvalidSpec(MouseAuthError):
    """Malformed synthetic-data specification."""


# cli
class ConfigError(MouseAuthError):
    """Pipeline configuration violates a downstream precondition."""
