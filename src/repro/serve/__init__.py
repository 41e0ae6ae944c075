"""Explanation-as-a-service: concurrent CERTA explanations over shared state.

The serving layer multiplexes many in-flight explanation requests over one
warm stack per target — a sealed pair of :class:`~repro.data.table.DataSource`
tables, their token indexes, and a single thread-safe
:class:`~repro.models.engine.PredictionEngine` — and **coalesces the lattice
frontiers of concurrent requests into shared prediction batches**:

.. code-block:: text

    clients --> asyncio queue --> worker threads --> FrontierScheduler --> engine
                (admission         (one request       (a submitting         (dedupe
                 control,           at a time,         thread combines       by content
                 load-shed)         budgets,           every queued          key, batch
                                    retries)           frontier into one     the rest)
                                                       engine call)

Entry points: :class:`~repro.serve.service.ExplanationService` (async facade),
:class:`~repro.serve.scheduler.FrontierScheduler` (cross-request batch
coalescing by flat combining, usable standalone), and the request/response
dataclasses of :mod:`repro.serve.types`.

Coalescing changes which batch a pair is scored in, and nothing else: the
explanation logic depends only on scores and the request seed.  For a
batch-invariant model (one that scores each row on its own) served
explanations are therefore byte-identical to a direct
:class:`~repro.certa.explainer.CertaExplainer` run.  The bundled neural
matchers are not batch-invariant: their matrix products round a row's score
differently (by ~1e-16) depending on the rows batched around it, so their
served and direct payloads agree once floats are rounded to 9 significant
digits, not byte for byte.
"""

from repro.serve.scheduler import BudgetedPredictor, FrontierScheduler
from repro.serve.service import ExplanationService
from repro.serve.types import (
    ExplainRequest,
    ExplainResponse,
    ServeStats,
    ServeTarget,
    explanation_payload,
)

__all__ = [
    "BudgetedPredictor",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationService",
    "FrontierScheduler",
    "ServeStats",
    "ServeTarget",
    "explanation_payload",
]
