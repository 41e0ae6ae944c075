"""The prediction engine: a batching, memoising front-end over an ER matcher.

Every explanation method in this library reduces to scoring perturbed copies
of a handful of record pairs.  The naive formulation — one ``predict_pair``
call per lattice node or perturbation sample — wastes the vectorised
``predict_proba`` interface that every :class:`~repro.models.base.ERModel`
already exposes, and re-scores identical perturbed pairs that different open
triangles happen to generate.  :class:`PredictionEngine` centralises both
optimisations behind the same prediction API as the model it wraps:

* **batching** — requests are deduplicated and the uncached remainder is sent
  to the model in chunks of at most ``batch_size`` pairs, so a frontier of
  hundreds of lattice nodes costs a handful of model invocations;
* **memoisation** — scores are cached under a content key
  (:func:`pair_cache_key`), so identical perturbed pairs produced by
  different triangles, explainers or lattice levels are scored exactly once
  (this is the library's only score cache; models score every pair they
  are given);
* **accounting** — :class:`EngineStats` counts requests, cache hits, cache
  misses and model invocations (``batches``), the numbers surfaced in the
  eval harness reports and ``benchmarks/bench_prediction_engine.py``.

The engine is a drop-in replacement wherever a fitted model is expected for
*prediction*: it exposes ``predict_proba`` / ``predict_pair`` / ``predict`` /
``predict_match`` with identical semantics, and works with any object
implementing ``predict_proba(Sequence[RecordPair]) -> np.ndarray`` (including
the cheap deterministic matchers used in the tests).

The engine is **thread-safe**: cache and counter mutations happen under one
lock, and an uncached pair requested by several threads at once is claimed by
exactly one of them (the *in-flight* map) — the claimer invokes the model and
counts the miss, every other thread blocks on the claim and counts a hit, so
concurrent explanation requests (the ``repro.serve`` workload) never
double-invoke the model for the same content.  The cache-hit path stays
lock-free: scores are published atomically into the cache dict, so readers
need no lock, and the fault-free single-threaded overhead is one uncontended
lock acquisition per call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro import faults
from repro.counters import Counters
from repro.data.records import Record, RecordPair
from repro.exceptions import ModelError, is_transient
from repro.models.base import PredictionMixin
from repro.models.featurizer import FeaturizerStats

#: Backoff base between model-invocation retries (kept tiny: model calls are
#: in-process, so the wait only needs to outlast a momentary glitch).
_RETRY_BACKOFF_SECONDS = 0.01


def _record_key(record: Record) -> tuple:
    return tuple(record.values.items())


def pair_cache_key(pair: RecordPair) -> tuple:
    """Content-based cache key for a record pair (ignores ids and labels)."""
    return (_record_key(pair.left), _record_key(pair.right))


class _InFlight:
    """One uncached pair content currently being scored by some thread.

    The claiming thread publishes ``score`` (or ``error``) and sets the
    event; waiting threads block on the event and read the outcome.  The
    event is created, under the engine lock, by the first thread that waits:
    an uncontended claim allocates none.
    """

    __slots__ = ("event", "score", "error")

    def __init__(self) -> None:
        self.event: threading.Event | None = None
        self.score: float | None = None
        self.error: BaseException | None = None


@runtime_checkable
class SupportsPredictProba(Protocol):
    """Anything that can score a sequence of record pairs."""

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray: ...


@runtime_checkable
class SupportsPairPrediction(SupportsPredictProba, Protocol):
    """A scorer that also decides single-pair matches.

    The prediction interface shared by fitted :class:`~repro.models.base.ERModel`
    instances and :class:`PredictionEngine` — what prediction *consumers*
    (triangle search, explainers) actually require.
    """

    def predict_match(self, pair: RecordPair) -> bool: ...


@dataclass(frozen=True)
class EngineStats(Counters):
    """Counters of one :class:`PredictionEngine` (immutable snapshot semantics).

    ``requests``
        Number of pair scores asked of the engine (one per pair per call).
    ``hits``
        Requests served without touching the model: previously cached scores
        plus duplicates of a pair already being computed in the same call.
        The invariant ``hits + misses == requests`` always holds.
    ``misses``
        Distinct uncached pair contents actually sent to the model.
    ``batches``
        Underlying model invocations (``predict_proba`` calls) that
        *succeeded*.  Each batch carries at most ``batch_size`` pairs, so
        ``batches >= ceil(misses / batch_size)`` with equality per
        fault-free call; transient-failure bisection can split one intended
        batch into several smaller successful ones.
    ``max_batch``
        Largest single model invocation observed (diagnostic for sizing).
        A level, not a count: a delta keeps the later snapshot's value.
    ``retries``
        Model invocations re-attempted after a transient failure (see
        :func:`repro.exceptions.is_transient`); 0 on every fault-free run.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    batches: int = 0
    max_batch: int = 0
    retries: int = 0

    levels = frozenset({"max_batch"})
    rates = ("hit_rate",)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0


class PredictionEngine(PredictionMixin):
    """Batched, memoised prediction façade shared by explainers.

    Parameters
    ----------
    model:
        The matcher to score pairs with; any ``predict_proba`` provider works.
    batch_size:
        Maximum number of pairs per underlying model invocation.  Larger
        values amortise per-call overhead; the default suits the bundled
        numpy matchers.
    retries:
        Transient-failure retries per model invocation before a failing
        chunk is bisected to isolate its poison row (negative means 0).
    """

    def __init__(
        self,
        model: SupportsPredictProba,
        batch_size: int = 256,
        retries: int = 2,
    ) -> None:
        if batch_size <= 0:
            raise ModelError(f"engine batch_size must be positive, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        self.retries = max(0, retries)
        self._cache: dict[tuple, float] = {}
        self._stats = EngineStats()
        #: Guards ``_cache`` / ``_stats`` / ``_inflight`` mutations.  Cache
        #: *reads* stay lock-free: published scores are plain floats set by
        #: one atomic dict store, so a racing reader sees either the score or
        #: a miss, never a torn value.
        self._lock = threading.Lock()
        #: Uncached contents currently being scored, keyed like ``_cache``.
        #: Claiming an entry (under the lock) is what makes a miss exclusive:
        #: every other thread wanting the same content waits on the claim.
        self._inflight: dict[tuple, _InFlight] = {}

    # ------------------------------------------------------------------- stats

    @property
    def stats(self) -> EngineStats:
        """Immutable snapshot of the engine counters."""
        return self._stats

    def reset_stats(self) -> None:
        """Zero the counters (the cache is left intact)."""
        with self._lock:
            self._stats = EngineStats()

    @property
    def featurizer_stats(self) -> FeaturizerStats | None:
        """Counters of the wrapped model's featurisation caches.

        The layer *below* the engine: a cache miss here still pays model
        featurisation, whose own value/comparison caches these counters
        describe.  ``None`` when the wrapped scorer has no featurizer.
        """
        return getattr(self.model, "featurizer_stats", None)

    def clear_cache(self) -> None:
        """Drop all memoised scores (counters are left intact)."""
        with self._lock:
            self._cache = {}

    def cache_size(self) -> int:
        """Number of distinct pair contents memoised so far."""
        return len(self._cache)

    # -------------------------------------------------------------- prediction

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Matching scores in [0, 1] for each pair, batched and memoised.

        Duplicate pairs within one call are scored once; the duplicates (and
        any previously cached pairs) count as cache hits.  Under concurrency
        a pair content is scored once *across calls* too: the first thread to
        want an uncached content claims it (one miss, one model invocation),
        every other thread waits for the claim and counts a hit — the engine
        never double-invokes the model for the same content.
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0, dtype=np.float64)

        scores = np.zeros(len(pairs), dtype=np.float64)
        pending, pending_pairs, waiting, hits = self._claim(pairs, scores)

        tally = {"batches": 0, "max_batch": 0, "retries": 0}
        if pending_pairs:
            computed: list[float] = []
            try:
                for start in range(0, len(pending_pairs), self.batch_size):
                    chunk = pending_pairs[start : start + self.batch_size]
                    computed.extend(self._model_scores(chunk, tally))
            except BaseException as exc:
                # Release our claims *before* re-raising so waiting threads
                # fail fast instead of blocking forever.
                self._abort_claims(pending, exc)
                raise
            self._publish(pending, computed, scores)

        spent = EngineStats(requests=len(pairs), hits=hits, misses=len(pending_pairs), **tally)
        with self._lock:
            self._stats += spent
        # Waiting last, publishing first: two calls claiming disjoint halves
        # of each other's key sets publish before they wait, so claim cycles
        # cannot deadlock.
        self._await_claims(waiting, scores)
        return scores

    def _claim(
        self, pairs: list[RecordPair], scores: np.ndarray
    ) -> tuple[dict[tuple, list[int]], list[RecordPair], dict[tuple, tuple[_InFlight, list[int]]], int]:
        """Partition ``pairs`` into cached / claimed-by-us / claimed-elsewhere.

        Fills ``scores`` for the cached positions as it goes.  Returns the
        claim map (content key -> positions this call will compute), the
        pairs to score in claim order, the wait map (key -> in-flight entry
        owned by another thread, plus positions), and the hit count (cached
        + in-call duplicates + served-by-another-thread).
        """
        pending: dict[tuple, list[int]] = {}
        pending_pairs: list[RecordPair] = []
        waiting: dict[tuple, tuple[_InFlight, list[int]]] = {}
        hits = 0
        unresolved: list[tuple[int, tuple, RecordPair]] = []
        cache = self._cache
        for index, pair in enumerate(pairs):
            key = pair_cache_key(pair)
            score = cache.get(key)
            if score is not None:
                # Lock-free fast path: a published score never changes.
                scores[index] = score
                hits += 1
            else:
                unresolved.append((index, key, pair))
        if unresolved:
            with self._lock:
                for index, key, pair in unresolved:
                    score = self._cache.get(key)
                    if score is not None:
                        scores[index] = score  # published since the fast path
                        hits += 1
                        continue
                    positions = pending.get(key)
                    if positions is not None:
                        positions.append(index)
                        hits += 1  # in-call duplicate of our own claim
                        continue
                    claimed = waiting.get(key)
                    if claimed is not None:
                        claimed[1].append(index)
                        hits += 1
                        continue
                    entry = self._inflight.get(key)
                    if entry is not None:
                        if entry.event is None:
                            entry.event = threading.Event()
                        waiting[key] = (entry, [index])
                        hits += 1  # served by another thread's invocation
                        continue
                    self._inflight[key] = _InFlight()
                    pending[key] = [index]
                    pending_pairs.append(pair)
        return pending, pending_pairs, waiting, hits

    def _publish(
        self, pending: dict[tuple, list[int]], computed: list[float], scores: np.ndarray
    ) -> None:
        """Store computed scores in the cache and release the claims."""
        with self._lock:
            for (key, positions), score in zip(pending.items(), computed):
                for position in positions:
                    scores[position] = score
                self._cache[key] = score
                entry = self._inflight.pop(key, None)
                if entry is not None:
                    entry.score = score
                    if entry.event is not None:
                        entry.event.set()

    def _abort_claims(self, pending: dict[tuple, list[int]], error: BaseException) -> None:
        """Release claims after a failed model invocation, carrying the error."""
        with self._lock:
            for key in pending:
                entry = self._inflight.pop(key, None)
                if entry is not None:
                    entry.error = error
                    if entry.event is not None:
                        entry.event.set()

    def _await_claims(
        self, waiting: dict[tuple, tuple[_InFlight, list[int]]], scores: np.ndarray
    ) -> None:
        """Block on claims owned by other threads and adopt their outcomes."""
        for _key, (entry, positions) in waiting.items():
            entry.event.wait()
            if entry.error is not None or entry.score is None:
                raise ModelError(
                    f"prediction shared with a concurrent request failed: {entry.error}"
                ) from entry.error
            for position in positions:
                scores[position] = entry.score

    def _model_scores(self, chunk: list[RecordPair], tally: dict[str, int]) -> list[float]:
        """Score one chunk with bounded retry and poison-row bisection.

        A transient model failure re-invokes the whole chunk up to the retry
        budget (with a tiny backoff).  If the chunk *keeps* failing and has
        more than one pair, it is bisected and each half retried with a
        fresh budget — recursively isolating the poison row, so one bad pair
        costs O(log batch) extra invocations instead of the whole batch.  A
        single pair that exhausts its budget raises :class:`ModelError`
        naming the pair; permanent failures propagate immediately.
        """
        failure: BaseException | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                tally["retries"] += 1
                time.sleep(_RETRY_BACKOFF_SECONDS * attempt)
            try:
                faults.fault_step("engine.batch")
                computed = [float(score) for score in self.model.predict_proba(chunk)]
            except Exception as exc:
                if not is_transient(exc):
                    raise
                failure = exc
                continue
            tally["batches"] += 1
            tally["max_batch"] = max(tally["max_batch"], len(chunk))
            return computed
        if len(chunk) > 1:
            middle = len(chunk) // 2
            return self._model_scores(chunk[:middle], tally) + self._model_scores(
                chunk[middle:], tally
            )
        pair = chunk[0]
        raise ModelError(
            f"prediction for pair ({pair.left.record_id!r}, {pair.right.record_id!r}) "
            f"failed after {self.retries} retr{'y' if self.retries == 1 else 'ies'}: {failure}"
        ) from failure
