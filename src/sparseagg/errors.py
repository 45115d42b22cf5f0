"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for bad inputs that were rejected up front, and plain
``SparseAggError`` subclasses for failures that occur mid-run.
"""


class SparseAggError(Exception):
    """Base class for all package errors."""


class ValidationError(SparseAggError):
    """Invalid input: bad arguments, malformed specs, out-of-domain queries."""


class TopologyError(ValidationError):
    """Invalid topology parameters or out-of-range layer index."""


class NoPathError(ValidationError):
    """No forward path exists between the requested nodes."""


class SpecFormatError(ValidationError):
    """Malformed or inconsistent network spec."""


class PlanError(ValidationError):
    """Spec is well-formed but cannot be planned into a network."""


class DataFormatError(ValidationError):
    """Dataset files are missing, truncated, or malformed."""


class CheckpointError(ValidationError):
    """Checkpoint directory is malformed or does not match the network."""


class TrainConfigError(ValidationError):
    """Training or evaluation setting out of range (epochs, batch size)."""


class NonFiniteError(SparseAggError):
    """A non-finite value appeared during computation."""


class TrainingDivergedError(SparseAggError):
    """Training loss became non-finite."""
