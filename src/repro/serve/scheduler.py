"""Cross-request frontier coalescing over one shared prediction engine.

Each explanation request explores its lattices frontier by frontier, and each
frontier is one ``predict_proba`` call.  Run serially those calls arrive one
at a time; run concurrently they arrive *interleaved* — and the
:class:`FrontierScheduler` turns that interleaving into throughput.  Request
threads submit their frontier as a ticket and block; a single dispatcher
thread drains **all** queued tickets at once, concatenates their pairs into
one engine call, and fans the scores back out.  While one dispatch is inside
the model, new tickets accumulate, so the next drain naturally merges them
(group-commit batching — no time window, no added latency when idle, and no
nondeterminism: scores come from the same content-keyed engine either way).
Deduplication across requests is the engine's own: merged pairs sharing a
content key cost one model row, and pairs another request already scored are
cache hits.

:class:`BudgetedPredictor` is the thin per-request wrapper the service hands
to each :class:`~repro.certa.explainer.CertaExplainer`: it enforces the
request's wall-clock deadline and lattice-node budget *before* submitting,
so an over-budget request fails with a clean
:class:`~repro.exceptions.BudgetError` instead of a partial explanation.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

import numpy as np

from repro.data.records import RecordPair
from repro.exceptions import BudgetError, ServeError
from repro.models.base import PredictionMixin
from repro.models.engine import EngineStats, PredictionEngine


class _Ticket:
    """One submitted frontier: its pairs, and a slot for the outcome."""

    __slots__ = ("pairs", "event", "scores", "error")

    def __init__(self, pairs: list[RecordPair]) -> None:
        self.pairs = pairs
        self.event = threading.Event()
        self.scores: np.ndarray | None = None
        self.error: BaseException | None = None


class FrontierScheduler(PredictionMixin):
    """Merge the prediction frontiers of concurrent requests into shared batches.

    Implements the same prediction protocol as the engine it wraps
    (``predict_proba`` / ``predict_pair`` / ``predict`` / ``predict_match``),
    so a :class:`~repro.certa.explainer.CertaExplainer` accepts it as its
    ``scheduler`` unchanged.  Start before submitting; ``close()`` drains the
    queue, then refuses new tickets.  Usable as a context manager.

    Counters (all mutated by the dispatcher under the internal condition):

    ``submitted``
        Tickets accepted (one per frontier submission).
    ``dispatches``
        Engine calls made; ``coalesced_dispatches`` counts those that merged
        more than one ticket.
    ``merged_pairs``
        Pairs across all dispatched tickets.
    ``deduped_pairs``
        Merged pairs that cost no model row (cross/in-batch duplicates plus
        engine cache hits), measured as the engine-stats miss delta around
        each dispatch — exact while this scheduler is the engine's only
        caller, approximate if the engine is shared further.
    """

    def __init__(self, engine: PredictionEngine) -> None:
        self.engine = engine
        self._cv = threading.Condition()
        self._tickets: list[_Ticket] = []
        self._closed = False
        self._thread: threading.Thread | None = None
        self.submitted = 0
        self.dispatches = 0
        self.coalesced_dispatches = 0
        self.merged_pairs = 0
        self.deduped_pairs = 0

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> "FrontierScheduler":
        """Spawn the dispatcher thread (idempotent); returns ``self``."""
        with self._cv:
            if self._closed:
                raise ServeError("cannot start a closed FrontierScheduler")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="frontier-scheduler", daemon=True
                )
                self._thread.start()
        return self

    def close(self) -> None:
        """Drain queued tickets, stop the dispatcher, refuse new submissions."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()

    def __enter__(self) -> "FrontierScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- dispatcher

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._tickets and not self._closed:
                    self._cv.wait()
                if not self._tickets:
                    return  # closed and drained
                batch = self._tickets
                self._tickets = []
            self._dispatch(batch)

    def _dispatch(self, batch: list[_Ticket]) -> None:
        merged: list[RecordPair] = []
        for ticket in batch:
            merged.extend(ticket.pairs)
        before = self.engine.stats
        try:
            scores = self.engine.predict_proba(merged)
        except Exception as exc:  # repro-lint: disable=EXC002 -- recovery contract: the failure is carried to every submitting request thread via its ticket and re-raised there (transient classification intact through the cause chain); the dispatcher itself must survive to serve later frontiers
            with self._cv:
                self._count_dispatch(batch, merged, before, failed=True)
            for ticket in batch:
                ticket.error = exc
                ticket.event.set()
            return
        offset = 0
        for ticket in batch:
            ticket.scores = scores[offset : offset + len(ticket.pairs)]
            offset += len(ticket.pairs)
        with self._cv:
            self._count_dispatch(batch, merged, before, failed=False)
        for ticket in batch:
            ticket.event.set()

    def _count_dispatch(
        self,
        batch: list[_Ticket],
        merged: list[RecordPair],
        before: EngineStats,
        failed: bool,
    ) -> None:
        self.dispatches += 1
        if len(batch) > 1:
            self.coalesced_dispatches += 1
        self.merged_pairs += len(merged)
        if not failed:
            delta = self.engine.stats - before
            self.deduped_pairs += max(0, len(merged) - delta.misses)

    # --------------------------------------------------------------- submission

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Submit one frontier and block until the merged dispatch resolves."""
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0, dtype=np.float64)
        ticket = _Ticket(pairs)
        with self._cv:
            if self._closed:
                raise ServeError("FrontierScheduler is closed; no new frontiers accepted")
            if self._thread is None:
                raise ServeError("FrontierScheduler not started; call start() first")
            self._tickets.append(ticket)
            self.submitted += 1
            self._cv.notify_all()
        ticket.event.wait()
        if ticket.error is not None or ticket.scores is None:
            raise ServeError(
                f"coalesced prediction dispatch failed: {ticket.error}"
            ) from ticket.error
        return np.array(ticket.scores, dtype=np.float64)


class BudgetedPredictor(PredictionMixin):
    """Per-request prediction proxy enforcing deadline and node budgets.

    Checks run *before* each submission: once the request's wall-clock
    deadline (``deadline_at``, a ``time.monotonic`` instant) has passed or
    the next frontier would exceed ``max_nodes`` scheduled predictions, the
    proxy raises :class:`~repro.exceptions.BudgetError` — the request fails
    whole, no partial explanation escapes.  ``tripped`` records which budget
    fired (``"deadline"`` / ``"lattice_nodes"``) for the service's stats.

    One instance per request attempt; not shared between threads.
    """

    def __init__(
        self,
        predictor: FrontierScheduler | PredictionEngine,
        deadline_at: float | None = None,
        max_nodes: int = 0,
    ) -> None:
        self.predictor = predictor
        self.deadline_at = deadline_at
        self.max_nodes = max_nodes
        self.scheduled = 0
        self.tripped = ""

    def _admit(self, count: int) -> None:
        if self.deadline_at is not None and time.monotonic() > self.deadline_at:
            self.tripped = "deadline"
            raise BudgetError(
                f"request exceeded its wall-clock deadline after scheduling "
                f"{self.scheduled} predictions"
            )
        if self.max_nodes > 0 and self.scheduled + count > self.max_nodes:
            self.tripped = "lattice_nodes"
            raise BudgetError(
                f"request exceeded its lattice-node budget of {self.max_nodes} "
                f"(would reach {self.scheduled + count})"
            )
        self.scheduled += count

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        pairs = list(pairs)
        self._admit(len(pairs))
        return self.predictor.predict_proba(pairs)
