"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value or combination was supplied."""


class DataError(ReproError):
    """Input data is malformed or violates a documented invariant."""


class TransientDataError(DataError):
    """Input data is unreadable *right now* but may become readable.

    Raised for states that a file legitimately passes through while an
    external writer is still producing it -- a zero-byte file, a CSV
    whose header row has not landed yet.  Callers that follow live
    feeds (:mod:`repro.ingest`) retry these with bounded backoff
    instead of quarantining the source; a plain :class:`DataError`
    means the file as a whole is not what the caller thinks it is and
    retrying the same bytes cannot help.
    """


class NotFittedError(ReproError):
    """A model was asked to predict before :meth:`fit` was called."""


class VocabularyError(ReproError):
    """A token or index is not present in an embedding vocabulary."""


class DimensionError(ReproError):
    """Arrays with incompatible shapes were combined."""


class NumericError(ReproError):
    """A numeric health guard tripped: NaN or Inf where finite values
    are required (feature matrices, similarity scores, losses)."""


class TrainingDivergedError(NumericError):
    """Model training produced a non-finite loss and cannot continue.

    Callers may retry with a smaller learning rate or fall back to a
    classical learner; see :class:`repro.core.classifier.ResilientClassifier`.
    """


class JournalError(ReproError):
    """A journal file is unreadable or from an unsupported version."""


class TenantQuarantinedError(ReproError):
    """A serving tenant's circuit breaker is open; requests are refused.

    Raised by the tenant registry when a request targets a tenant that
    was quarantined (poison bootstrap spec or ``breaker_threshold``
    consecutive request failures).  The HTTP layer maps it to 503 for
    that tenant only; healthy tenants keep serving.  ``reason`` carries
    the structured quarantine reason from the registry journal.
    """

    def __init__(self, message: str, reason: str | None = None) -> None:
        super().__init__(message)
        self.reason = reason


class GridInterrupted(ReproError):
    """A grid run was stopped by SIGINT/SIGTERM and shut down cleanly.

    Raised *after* the completed prefix has been drained into the run
    journal, so a rerun with ``resume=True`` continues from exactly the
    work that was durably recorded.  ``signum`` carries the delivering
    signal when known (``None`` for programmatic stops).
    """

    def __init__(self, message: str, signum: int | None = None) -> None:
        super().__init__(message)
        self.signum = signum


class IngestInterrupted(GridInterrupted):
    """A follow-mode ingestion loop was stopped by SIGINT/SIGTERM.

    Raised *after* the in-flight batch has been drained and journaled,
    so ``repro serve --follow ... --resume`` continues from exactly the
    sources that were durably fused.  Subclasses
    :class:`GridInterrupted` so the CLI's signal exit-code path
    (128 + signum) covers both loops.
    """
