"""Exception hierarchy for the repro (CERTA reproduction) library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Subclasses distinguish the subsystem at fault,
which keeps error handling close to the public API surface documented in the
README.
"""

from __future__ import annotations

import errno as _errno


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """Raised when records or tables violate their declared schema."""


class DatasetError(ReproError):
    """Raised for malformed datasets, splits or registry lookups."""


class SealedSourceError(DatasetError):
    """Raised when a mutation is attempted on a sealed (read-only) data source.

    Sealing (:meth:`repro.data.table.DataSource.seal`) closes a source's
    mutation API; the serving layer seals its sources so concurrent
    explanation requests share data no one can change under them.
    """


class ModelError(ReproError):
    """Raised when an ER model is misused (e.g. predicting before training)."""


class NotFittedError(ModelError):
    """Raised when ``predict`` is called on a model that has not been fitted."""


class ExplanationError(ReproError):
    """Raised when an explainer cannot produce an explanation."""


class TriangleError(ExplanationError):
    """Raised when open-triangle discovery fails (e.g. empty sources)."""


class LatticeError(ExplanationError):
    """Raised for invalid lattice construction or traversal requests."""


class EvaluationError(ReproError):
    """Raised by the evaluation harness for invalid metric configurations."""


class ServeError(ReproError):
    """Raised by the explanation service (:mod:`repro.serve`) for serving
    failures that are not already covered by a narrower subsystem error."""


class AdmissionError(ServeError):
    """A request was shed by admission control (bounded queue full).

    Deliberately *not* transient: the service is telling the client to back
    off, so blind in-process retry would only amplify the overload.
    """


class BudgetError(ServeError):
    """A request exhausted one of its per-request budgets.

    Raised mid-explanation when the wall-clock deadline passes or the
    lattice-node budget is spent; the request fails whole — a partial
    explanation is never returned.  Not transient: re-running an
    over-budget request unchanged would bust the same budget again.
    """


class TransientError(ReproError):
    """A failure that may succeed on retry (I/O hiccup, injected fault).

    The sweep runner and prediction engine retry transient failures with
    bounded exponential backoff; anything not transient is treated as
    permanent and surfaces immediately.  Raise (or subclass) this to opt an
    error into the retry path.
    """


class DeadlineError(TransientError):
    """A work unit overran its per-unit wall-clock deadline.

    Transient by definition — a deadline overrun is assumed to be load, not
    logic — so the runner's retry budget applies before the unit is accepted
    late or given up on.
    """


#: OSError errnos that signal a plausibly-transient I/O condition.
_TRANSIENT_ERRNOS = frozenset(
    getattr(_errno, name)
    for name in ("EAGAIN", "EINTR", "EBUSY", "ETIMEDOUT", "EIO")
    if hasattr(_errno, name)
)


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` (or anything in its cause chain) warrants a retry.

    :class:`TransientError` subclasses are transient by construction;
    ``OSError`` is transient for the retryable errnos (``EAGAIN``, ``EINTR``,
    ``EBUSY``, ``ETIMEDOUT``, ``EIO``).  The ``__cause__``/``__context__``
    chain is walked so a transient root cause survives being wrapped in a
    domain error.
    """
    seen: set[int] = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, TransientError):
            return True
        if isinstance(current, OSError) and current.errno in _TRANSIENT_ERRNOS:
            return True
        current = current.__cause__ or current.__context__
    return False
