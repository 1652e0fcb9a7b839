"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError``, ``KeyError`` from user code,
...) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "InvalidConfigurationError",
    "SimulationError",
    "BudgetExceededError",
    "AbsorptionError",
    "EstimationError",
    "ThresholdSearchError",
    "ExperimentError",
    "WorkerCrashError",
    "TaskTimeoutError",
    "PoisonChunkError",
    "StoreError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """A model definition is inconsistent (negative rates, bad species, ...)."""


class InvalidConfigurationError(ModelError):
    """A population configuration is invalid (negative counts, wrong shape)."""


class SimulationError(ReproError):
    """A stochastic simulation failed to make progress or hit an internal error."""


class BudgetExceededError(SimulationError):
    """A simulation exceeded its event or time budget before terminating."""


class AbsorptionError(ReproError):
    """An exact absorption computation could not be carried out.

    Typically raised when a truncated state space is too small to contain the
    relevant dynamics or a linear system is singular.
    """


class EstimationError(ReproError, ValueError):
    """A Monte-Carlo estimate could not be produced or its inputs are invalid.

    Also a :class:`ValueError`: degenerate statistical inputs (negative
    counts, ``successes > trials``, out-of-range confidence levels) are plain
    value errors, so callers outside the library can catch them with the
    built-in hierarchy while library code keeps the single
    :class:`ReproError` umbrella.
    """


class ThresholdSearchError(ReproError):
    """The empirical threshold search failed to bracket the target probability."""


class ExperimentError(ReproError):
    """An experiment definition or run is invalid (unknown id, bad config)."""


class WorkerCrashError(ExperimentError):
    """A worker process died while executing a chunk.

    Raised in place of the opaque ``concurrent.futures.process
    .BrokenProcessPool`` so the message can name the work being executed and
    suggest a recovery path (``--jobs 1`` to run inline, ``--max-retries`` /
    ``--task-timeout`` to ride out transient crashes).
    """


class TaskTimeoutError(ExperimentError):
    """A chunk exceeded the configured per-task wall-clock timeout."""


class PoisonChunkError(ExperimentError):
    """One or more chunks kept failing after exhausting their retry budget.

    Raised *after* every healthy chunk has completed and been journaled, so
    a poison chunk costs only its own work.  The offending chunks' content
    keys (or positional labels when no store is attached) are available as
    the ``chunk_keys`` attribute.
    """

    def __init__(self, message: str, chunk_keys=()):
        super().__init__(message)
        self.chunk_keys = tuple(chunk_keys)


class StoreError(ReproError):
    """The experiment result store hit a corrupt or incompatible entry."""
