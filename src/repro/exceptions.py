"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library-level failures with a
single ``except`` clause while letting programming errors (``TypeError``
from misuse of the Python API itself, etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised when user input (data or parameters) fails validation.

    Also inherits from :class:`ValueError` so generic callers that follow
    the numpy/sklearn convention of catching ``ValueError`` keep working.
    """


class NotFittedError(ReproError, RuntimeError):
    """Raised when a query method is called before ``fit``."""


class DuplicatePointsError(ReproError, ValueError):
    """Raised in ``duplicate_mode='error'`` when MinPts-fold duplicates
    would make the local reachability density infinite (see the remark
    after Definition 6 in the paper)."""


class IndexError_(ReproError):
    """Raised for internal inconsistencies inside a spatial index.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``; exported as ``SpatialIndexError``.
    """


SpatialIndexError = IndexError_


class StoreError(ReproError):
    """Base class for every failure of the persistent model store
    (:mod:`repro.store`). Catch this to handle "the saved model cannot
    be used" uniformly; the subclasses distinguish *why*."""


class StoreFormatError(StoreError):
    """The file is not a repro model store at all (bad magic, malformed
    header) — most likely the wrong file was passed."""


class StoreVersionError(StoreError):
    """The file is a repro model store of a format version this build
    does not read. Versions are never silently coerced; see the
    versioning rules in ``docs/serving.md``."""


class StoreCorruptionError(StoreError):
    """The file identifies as a model store but fails integrity checks
    (truncated sections or a section checksum mismatch). Scores must
    never be produced from such a file."""


class StoreMismatchError(StoreError):
    """The store loaded cleanly but does not carry what the caller
    needs (e.g. serving queries from a store saved without the dataset
    snapshot, or loading an estimator API onto a bare materialization
    store)."""


class ServeError(ReproError):
    """The scoring service cannot take the request in its current state
    (e.g. the request queue is closed because the server is shutting
    down). Distinct from :class:`ValidationError`: the request may be
    perfectly well-formed — it is the service that is unavailable."""


class RequestTooLargeError(ValidationError):
    """A well-formed scoring request carries more points than the
    service scores in one request (HTTP 413 on the serving path)."""
