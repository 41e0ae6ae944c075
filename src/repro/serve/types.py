"""Request/response/stat types of the explanation service.

Everything here is plain data: requests name a target and a pair, responses
carry either a canonical JSON-serialisable explanation payload or a taxonomy
error (never both, never a partial explanation), and
:class:`ServeStats` is an immutable counter snapshot on the library's one
counter protocol, :class:`~repro.counters.Counters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.counters import Counters
from repro.data.records import RecordPair
from repro.data.table import DataSource
from repro.exceptions import AdmissionError, BudgetError, ServeError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.certa.explainer import CertaExplanation
    from repro.models.engine import SupportsPredictProba


@dataclass(frozen=True, eq=False)
class ServeTarget:
    """One servable (model, left source, right source) configuration.

    The service explains with :class:`~repro.certa.explainer.CertaExplainer`
    and scores with :class:`~repro.models.engine.PredictionEngine` at their
    defaults, except ``num_triangles`` (20: interactive latency over paper
    fidelity; a request may override it) and the explainer's ``seed``.
    """

    name: str
    model: "SupportsPredictProba"
    left_source: DataSource
    right_source: DataSource
    num_triangles: int = 20
    seed: int = 0


@dataclass(frozen=True, eq=False)
class ExplainRequest:
    """One explanation request: which target, which pair, which budgets.

    ``None`` budgets inherit the service's ``default_deadline`` and
    ``default_max_nodes``; explicit values override per request.
    ``deadline_seconds`` starts counting at admission, so time spent queued
    eats into it.
    """

    target: str
    pair: RecordPair
    num_triangles: int | None = None
    deadline_seconds: float | None = None
    max_lattice_nodes: int | None = None
    request_id: str = ""


#: Exception classes a response's ``error_type`` may name; used by
#: :meth:`ExplainResponse.raise_for_status` to re-raise faithfully.
_ERROR_TYPES: dict[str, type[ServeError]] = {
    "AdmissionError": AdmissionError,
    "BudgetError": BudgetError,
}


@dataclass(frozen=True, eq=False)
class ExplainResponse:
    """The outcome of one request: a payload, or a clean taxonomy error.

    ``status`` is ``"ok"`` (payload present), ``"shed"`` (admission control
    refused the request; ``error_type`` is ``AdmissionError``) or ``"error"``
    (the request was admitted but failed; ``error_type`` names the taxonomy
    class).  A failed or shed request never carries a payload — partial
    explanations do not exist in this protocol.
    """

    request_id: str
    target: str
    status: str
    payload: dict | None = None
    error_type: str = ""
    error: str = ""
    #: Which budget tripped ("deadline" / "lattice_nodes"), for failures
    #: whose ``error_type`` is ``BudgetError``.
    budget: str = ""
    latency_seconds: float = 0.0
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> dict:
        """The payload, or the response's error re-raised as its taxonomy class."""
        if self.status == "ok" and self.payload is not None:
            return self.payload
        error_class = _ERROR_TYPES.get(self.error_type, ServeError)
        raise error_class(self.error or f"request failed with status {self.status!r}")


@dataclass(frozen=True)
class ServeStats(Counters):
    """Immutable counter snapshot of an :class:`ExplanationService`.

    Request counters come from the service (``requests`` admitted + shed,
    ``completed`` / ``failed`` / ``shed`` disjoint outcomes); scheduler
    counters aggregate every target's
    :class:`~repro.serve.scheduler.FrontierScheduler`.  Latency quantiles
    are measured admission-to-response over the retained window; they are
    levels, so a delta keeps the later snapshot's and a sum the larger.
    """

    requests: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    retried: int = 0
    budget_deadline: int = 0
    budget_nodes: int = 0
    dispatches: int = 0
    coalesced_dispatches: int = 0
    merged_pairs: int = 0
    deduped_pairs: int = 0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0

    levels = frozenset({"p50_latency_ms", "p99_latency_ms"})


def explanation_payload(explanation: "CertaExplanation") -> dict:
    """Canonical JSON-serialisable view of a CERTA explanation.

    Deterministically ordered (attributes sorted, attribute sets joined
    sorted) and restricted to the explanation *proper*: saliency scores,
    the counterfactual, flip/triangle counts and per-set sufficiency.  The
    volatile diagnostics (engine/featurizer/index counter deltas) are
    deliberately excluded — they depend on what the shared caches already
    held, so they differ between a served run and a direct run even when
    the explanation itself is the same.  ``json.dumps(payload,
    sort_keys=True)`` of two equal explanations is therefore equal bytes —
    the golden-identity comparison the serve tests and benchmark use (after
    rounding floats, for a matcher whose scores depend on batch composition).
    """
    counterfactual = explanation.counterfactual
    examples = [
        {
            "left_id": example.pair.left.record_id,
            "right_id": example.pair.right.record_id,
            "changed_attributes": list(example.changed_attributes),
            "score": example.score,
            "original_score": example.original_score,
        }
        for example in counterfactual.examples
    ]
    sufficiency = {
        f"{side}:{'+'.join(sorted(attributes))}": probability
        for (side, attributes), probability in sorted(
            explanation.sufficiency_by_set.items(),
            key=lambda item: (item[0][0], tuple(sorted(item[0][1]))),
        )
    }
    return {
        "prediction": explanation.prediction,
        "saliency": {name: score for name, score in sorted(explanation.saliency.scores.items())},
        "counterfactual": {
            "attribute_set": list(counterfactual.attribute_set),
            "sufficiency": counterfactual.sufficiency,
            "examples": examples,
        },
        "triangles_used": explanation.triangles_used,
        "triangles_requested": explanation.triangles_requested,
        "augmented_triangles": explanation.augmented_triangles,
        "flips": explanation.flips,
        "performed_predictions": explanation.performed_predictions(),
        "saved_predictions": explanation.saved_predictions(),
        "sufficiency_by_set": sufficiency,
    }
