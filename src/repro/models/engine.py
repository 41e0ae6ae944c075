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

The engine is **thread-safe** by serialisation: ``predict_proba`` holds the
engine lock for the whole call, cache lookups and model invocation included,
so concurrent callers run one at a time.  Each distinct content is still
scored once, the counters still reconcile, and the wrapped model (whose
featurizer caches and counters are not thread-safe) is never entered by two
threads at once.  The serving layer sends every call through one
:class:`~repro.serve.scheduler.FrontierScheduler`, which already makes them
one at a time, so the lock is uncontended there.
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
        #: Held for every ``predict_proba`` call and every cache or counter
        #: mutation: one caller at a time reads the cache and enters the model.
        self._lock = threading.Lock()

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
        any previously cached pairs) count as cache hits.  Concurrent calls
        run one at a time, so a content another thread is scoring is a cache
        hit once that thread's call returns.
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0, dtype=np.float64)

        scores = np.zeros(len(pairs), dtype=np.float64)
        with self._lock:
            cache = self._cache
            # Content key -> positions of every uncached occurrence, in
            # first-occurrence order (the order ``pending_pairs`` is scored in).
            pending: dict[tuple, list[int]] = {}
            pending_pairs: list[RecordPair] = []
            for index, pair in enumerate(pairs):
                key = pair_cache_key(pair)
                score = cache.get(key)
                if score is not None:
                    scores[index] = score
                    continue
                positions = pending.get(key)
                if positions is None:
                    pending[key] = [index]
                    pending_pairs.append(pair)
                else:
                    positions.append(index)

            tally = {"batches": 0, "max_batch": 0, "retries": 0}
            computed: list[float] = []
            for start in range(0, len(pending_pairs), self.batch_size):
                chunk = pending_pairs[start : start + self.batch_size]
                computed.extend(self._model_scores(chunk, tally))
            for (key, positions), score in zip(pending.items(), computed):
                for position in positions:
                    scores[position] = score
                cache[key] = score

            misses = len(pending_pairs)
            self._stats += EngineStats(
                requests=len(pairs), hits=len(pairs) - misses, misses=misses, **tally
            )
        return scores

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
