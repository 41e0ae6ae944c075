"""Cross-request frontier coalescing over one shared prediction engine.

Each explanation request explores its lattices frontier by frontier, and each
frontier is one ``predict_proba`` call.  Run serially those calls arrive one
at a time; run concurrently they arrive *interleaved* — and the
:class:`FrontierScheduler` turns that interleaving into throughput by flat
combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010).  A request thread
queues its frontier as a ticket.  If no other thread is combining, it takes
**every** queued ticket, its own included, concatenates their pairs into one
engine call and fans the scores back out; otherwise it waits, and if its
ticket is still queued when the combiner leaves, it combines next.  While one
combined call is inside the model, new tickets accumulate, so the next
combiner naturally merges them (group-commit batching — no time window, no
extra thread, no hop when idle, and no nondeterminism: scores come from the
same content-keyed engine either way).  Deduplication across requests is the
engine's own: merged pairs sharing a content key cost one model row, and
pairs another request already scored are cache hits.

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
from repro.models.engine import PredictionEngine


class _Ticket:
    """One submitted frontier: its pairs, and a slot for the outcome.

    ``done`` is set, under the scheduler's condition, when the dispatch that
    took the ticket has ended; ``scores`` is then ``None`` only if it failed.
    """

    __slots__ = ("pairs", "done", "scores", "error")

    def __init__(self, pairs: list[RecordPair]) -> None:
        self.pairs = pairs
        self.done = False
        self.scores: np.ndarray | None = None
        self.error: BaseException | None = None


class FrontierScheduler(PredictionMixin):
    """Merge the prediction frontiers of concurrent requests into shared batches.

    Implements the same prediction protocol as the engine it wraps
    (``predict_proba`` / ``predict_pair`` / ``predict`` / ``predict_match``),
    so a :class:`~repro.certa.explainer.CertaExplainer` accepts it as its
    ``scheduler`` unchanged.  Every engine call is made by a submitting
    thread.  ``close()`` refuses new tickets and waits for the active
    combiner.  Usable as a context manager.

    Counters (all mutated by the combiner under the internal condition):

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
        self._combining = False
        self._closed = False
        self.submitted = 0
        self.dispatches = 0
        self.coalesced_dispatches = 0
        self.merged_pairs = 0
        self.deduped_pairs = 0

    # ---------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Refuse new tickets, then wait for the active combiner to finish."""
        with self._cv:
            self._closed = True
            while self._combining:
                self._cv.wait()

    def __enter__(self) -> "FrontierScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- submission

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Submit one frontier; combine the queue or wait for the combiner."""
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0, dtype=np.float64)
        ticket = _Ticket(pairs)
        batch: list[_Ticket] = []
        with self._cv:
            if self._closed:
                raise ServeError("FrontierScheduler is closed; no new frontiers accepted")
            self._tickets.append(ticket)
            self.submitted += 1
            while self._combining and not ticket.done:
                self._cv.wait()
            if not ticket.done:
                # No combiner, and our ticket is still queued: take the queue.
                self._combining = True
                batch, self._tickets = self._tickets, []
        if batch:
            self._combine(batch)
        if ticket.error is not None or ticket.scores is None:
            raise ServeError(
                f"coalesced prediction dispatch failed: {ticket.error}"
            ) from ticket.error
        return np.array(ticket.scores, dtype=np.float64)

    def _combine(self, batch: list[_Ticket]) -> None:
        """Score ``batch`` in one engine call and resolve every ticket in it.

        The tickets are resolved, the combining flag cleared and the waiters
        woken even when the call raises; a ticket left without scores then
        fails in its own submitter.
        """
        merged = [pair for ticket in batch for pair in ticket.pairs]
        before = self.engine.stats
        scores: np.ndarray | None = None
        error: BaseException | None = None
        try:
            scores = self.engine.predict_proba(merged)
        except Exception as exc:  # repro-lint: disable=EXC002 -- recovery contract: the failure is carried to every submitter in the batch via its ticket and re-raised there as ServeError (transient classification intact through the cause chain); the combiner must still hand the queue to the next waiter
            error = exc
        finally:
            with self._cv:
                self.dispatches += 1
                if len(batch) > 1:
                    self.coalesced_dispatches += 1
                self.merged_pairs += len(merged)
                if scores is not None:
                    delta = self.engine.stats - before
                    self.deduped_pairs += max(0, len(merged) - delta.misses)
                offset = 0
                for ticket in batch:
                    if scores is not None:
                        ticket.scores = scores[offset : offset + len(ticket.pairs)]
                        offset += len(ticket.pairs)
                    ticket.error = error
                    ticket.done = True
                self._combining = False
                self._cv.notify_all()


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
