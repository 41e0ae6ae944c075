"""The asyncio explanation service: admission, budgets, retries, stats.

:class:`ExplanationService` is the front door of :mod:`repro.serve`.  It owns
one warm stack per :class:`~repro.serve.types.ServeTarget` — the sources
sealed (:meth:`~repro.data.table.DataSource.seal`, making every per-query
freshness check O(1)), the token indexes built, one thread-safe
:class:`~repro.models.engine.PredictionEngine` and one
:class:`~repro.serve.scheduler.FrontierScheduler` shared by all requests of
that target — and runs requests through a bounded pipeline::

    submit() --> asyncio.Queue(queue_limit) --> N worker tasks --> thread pool
                 full? shed with AdmissionError    one request each, budgets +
                 (clean taxonomy error response)   transient retry, responses
                                                   via futures

Everything is asyncio + stdlib threads; there are no new dependencies.  The
per-request execution reuses the library's failure taxonomy: transient
failures (:func:`repro.exceptions.is_transient` — injected engine faults,
I/O hiccups) are retried up to the service's retry budget, budget overruns
(:class:`~repro.exceptions.BudgetError`) and permanent errors fail the
request with a clean error response, and a ``repro.faults`` plan can inject
faults at the ``serve.request`` scope to chaos-test the whole path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro import env, faults
from repro.certa.explainer import CertaExplainer
from repro.data.indexing import DEFAULT_BLOCKING_TOKEN_LENGTH, get_source_index
from repro.exceptions import BudgetError, ReproError, ServeError, is_transient
from repro.models.engine import PredictionEngine
from repro.serve.scheduler import BudgetedPredictor, FrontierScheduler
from repro.serve.types import (
    ExplainRequest,
    ExplainResponse,
    ServeStats,
    ServeTarget,
    explanation_payload,
)

#: Environment knobs (declared in :mod:`repro.env`).
SERVE_WORKERS_ENV = "REPRO_SERVE_WORKERS"
SERVE_QUEUE_LIMIT_ENV = "REPRO_SERVE_QUEUE_LIMIT"
SERVE_DEADLINE_ENV = "REPRO_SERVE_DEADLINE"
SERVE_MAX_NODES_ENV = "REPRO_SERVE_MAX_NODES"
SERVE_RETRIES_ENV = "REPRO_SERVE_RETRIES"

#: Latency samples retained for the p50/p99 figures (admission-to-response).
_LATENCY_WINDOW = 4096


class _PreparedTarget:
    """One target's warm serving stack: engine + scheduler + sealed sources."""

    __slots__ = ("target", "engine", "scheduler")

    def __init__(self, target: ServeTarget) -> None:
        self.target = target
        self.engine = PredictionEngine(target.model, batch_size=target.batch_size)
        self.scheduler = FrontierScheduler(self.engine)


class _QueueItem:
    """One admitted request travelling from the queue to a worker."""

    __slots__ = ("request", "future", "deadline_at", "admitted_at")

    def __init__(
        self,
        request: ExplainRequest,
        future: "asyncio.Future[ExplainResponse]",
        deadline_at: float | None,
        admitted_at: float,
    ) -> None:
        self.request = request
        self.future = future
        self.deadline_at = deadline_at
        self.admitted_at = admitted_at


class ExplanationService:
    """Serve concurrent CERTA explanations over shared warm state.

    Parameters default to the ``REPRO_SERVE_*`` environment knobs; pass
    explicit values to override.  ``seal_sources=True`` (the default) seals
    every target's sources at start-up — the serving contract is read-only
    data, and sealing makes each request's index freshness check O(1).  Use
    as an async context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        targets: Sequence[ServeTarget],
        workers: int | None = None,
        queue_limit: int | None = None,
        default_deadline: float | None = None,
        default_max_nodes: int | None = None,
        retries: int | None = None,
        seal_sources: bool = True,
    ) -> None:
        if not targets:
            raise ServeError("ExplanationService needs at least one ServeTarget")
        self._targets: dict[str, _PreparedTarget] = {}
        for target in targets:
            if target.name in self._targets:
                raise ServeError(f"duplicate serve target name {target.name!r}")
            self._targets[target.name] = _PreparedTarget(target)
        self.workers = max(1, workers if workers is not None else env.read_int(SERVE_WORKERS_ENV))
        self.queue_limit = max(
            1, queue_limit if queue_limit is not None else env.read_int(SERVE_QUEUE_LIMIT_ENV)
        )
        self.default_deadline = (
            default_deadline if default_deadline is not None else env.read_float(SERVE_DEADLINE_ENV)
        )
        self.default_max_nodes = (
            default_max_nodes if default_max_nodes is not None else env.read_int(SERVE_MAX_NODES_ENV)
        )
        self.retries = max(0, retries if retries is not None else env.read_int(SERVE_RETRIES_ENV))
        self.seal_sources = seal_sources
        self._started = False
        self._queue: "asyncio.Queue[_QueueItem | None] | None" = None
        self._worker_tasks: list["asyncio.Task[None]"] = []
        self._pool: ThreadPoolExecutor | None = None
        # Counters and the latency window are touched from worker (pool)
        # threads and the event-loop thread alike; one mutex serialises them.
        # The counters are named like their ``ServeStats`` fields.
        self._stats_mutex = threading.Lock()
        self.requests = self.completed = self.failed = self.shed = 0
        self.retried = self.budget_deadline = self.budget_nodes = 0
        self._latencies_ms: deque[float] = deque(maxlen=_LATENCY_WINDOW)

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> "ExplanationService":
        """Warm every target (seal, index, scheduler) and start the workers."""
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._warm_targets)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._worker_tasks = [
            loop.create_task(self._worker_loop()) for _ in range(self.workers)
        ]
        self._started = True
        return self

    def _warm_targets(self) -> None:
        for prepared in self._targets.values():
            target = prepared.target
            for source in (target.left_source, target.right_source):
                if self.seal_sources:
                    seal = getattr(source, "seal", None)
                    if seal is not None:
                        seal()
                if target.indexed:
                    get_source_index(source, DEFAULT_BLOCKING_TOKEN_LENGTH).ensure_fresh()
            prepared.scheduler.start()

    async def stop(self) -> None:
        """Drain admitted requests, stop workers, close the schedulers."""
        if not self._started:
            return
        self._started = False  # refuse new submissions while draining
        queue = self._queue
        if queue is not None:
            for _ in self._worker_tasks:
                await queue.put(None)
        await asyncio.gather(*self._worker_tasks)
        self._worker_tasks = []
        loop = asyncio.get_running_loop()
        for prepared in self._targets.values():
            await loop.run_in_executor(None, prepared.scheduler.close)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._queue = None

    async def __aenter__(self) -> "ExplanationService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # --------------------------------------------------------------- submission

    async def submit(self, request: ExplainRequest) -> ExplainResponse:
        """Admit one request; resolves to its response (never to a partial).

        A full queue sheds immediately: the returned response has status
        ``"shed"`` and names :class:`~repro.exceptions.AdmissionError` —
        the caller may back off and retry, the service never queues beyond
        its bound.
        """
        if not self._started or self._queue is None:
            raise ServeError("ExplanationService is not started; use 'async with' or start()")
        if request.target not in self._targets:
            raise ServeError(
                f"unknown serve target {request.target!r}; "
                f"available: {sorted(self._targets)}"
            )
        with self._stats_mutex:
            self.requests += 1
        deadline_seconds = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.default_deadline
        )
        deadline_at = time.monotonic() + deadline_seconds if deadline_seconds > 0 else None
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ExplainResponse]" = loop.create_future()
        item = _QueueItem(request, future, deadline_at, time.perf_counter())
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            with self._stats_mutex:
                self.shed += 1
            return ExplainResponse(
                request_id=request.request_id,
                target=request.target,
                status="shed",
                error_type="AdmissionError",
                error=(
                    f"request shed: admission queue is at its bound "
                    f"({self.queue_limit}); retry after backing off"
                ),
            )
        return await future

    async def explain_many(self, requests: Sequence[ExplainRequest]) -> list[ExplainResponse]:
        """Submit many requests concurrently; responses in request order."""
        return list(await asyncio.gather(*(self.submit(request) for request in requests)))

    # ------------------------------------------------------------------ workers

    async def _worker_loop(self) -> None:
        queue = self._queue
        pool = self._pool
        assert queue is not None and pool is not None
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item is None:
                return
            try:
                response = await loop.run_in_executor(pool, self._execute, item)
            except Exception as exc:  # repro-lint: disable=EXC002 -- recovery contract: only non-taxonomy failures (genuine bugs) reach here; they are transported verbatim to the awaiting client through the response future and re-raised there, while the worker survives to serve the rest of the queue
                if not item.future.done():
                    item.future.set_exception(exc)
                continue
            if not item.future.done():
                item.future.set_result(response)

    def _execute(self, item: _QueueItem) -> ExplainResponse:
        """Run one request to completion in a pool thread (never raises for
        taxonomy failures — they become error responses)."""
        request = item.request
        prepared = self._targets[request.target]
        max_nodes = (
            request.max_lattice_nodes
            if request.max_lattice_nodes is not None
            else self.default_max_nodes
        )
        retried = 0
        budget = ""
        try:
            attempt = 0
            while True:
                predictor = BudgetedPredictor(
                    prepared.scheduler, deadline_at=item.deadline_at, max_nodes=max_nodes
                )
                try:
                    faults.fault_step("serve.request")
                    explanation = self._explain(prepared, predictor, request)
                except ReproError as exc:
                    budget = predictor.tripped
                    if attempt < self.retries and is_transient(exc):
                        attempt += 1
                        retried += 1
                        continue
                    raise
                payload = explanation_payload(explanation)
                break
        except ReproError as exc:
            self._record_failure(type(exc).__name__, budget, retried)
            return ExplainResponse(
                request_id=request.request_id,
                target=request.target,
                status="error",
                error_type=type(exc).__name__,
                error=str(exc),
                budget=budget if isinstance(exc, BudgetError) else "",
                latency_seconds=time.perf_counter() - item.admitted_at,
                retries=retried,
            )
        latency = time.perf_counter() - item.admitted_at
        with self._stats_mutex:
            self.completed += 1
            self.retried += retried
            self._latencies_ms.append(latency * 1000.0)
        return ExplainResponse(
            request_id=request.request_id,
            target=request.target,
            status="ok",
            payload=payload,
            latency_seconds=latency,
            retries=retried,
        )

    def _explain(
        self,
        prepared: _PreparedTarget,
        predictor: BudgetedPredictor,
        request: ExplainRequest,
    ) -> object:
        """One explanation attempt against the target's shared warm stack."""
        target = prepared.target
        explainer = CertaExplainer(
            target.model,
            target.left_source,
            target.right_source,
            num_triangles=request.num_triangles or target.num_triangles,
            monotone=target.monotone,
            allow_augmentation=target.allow_augmentation,
            max_candidates=target.max_candidates,
            max_examples=target.max_examples,
            seed=target.seed,
            engine=prepared.engine,
            batched=target.batched,
            indexed=target.indexed,
            scheduler=predictor,
        )
        return explainer.explain_full(request.pair, request.num_triangles)

    def _record_failure(self, error_type: str, budget: str, retried: int) -> None:
        with self._stats_mutex:
            self.failed += 1
            self.retried += retried
            if budget == "deadline":
                self.budget_deadline += 1
            elif budget == "lattice_nodes":
                self.budget_nodes += 1

    # -------------------------------------------------------------------- stats

    @property
    def stats(self) -> ServeStats:
        """Immutable snapshot of the service and scheduler counters."""
        with self._stats_mutex:
            latencies = sorted(self._latencies_ms)
            service = ServeStats.of(
                self,
                p50_latency_ms=_percentile(latencies, 0.50),
                p99_latency_ms=_percentile(latencies, 0.99),
            )
        return service + ServeStats.total(
            ServeStats.of(prepared.scheduler) for prepared in self._targets.values()
        )

    def engine_stats(self, target: str) -> object:
        """The shared engine's counter snapshot for one target."""
        try:
            return self._targets[target].engine.stats
        except KeyError:
            raise ServeError(f"unknown serve target {target!r}") from None


def _percentile(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(quantile * len(sorted_values))) - 1))
    if quantile >= 1.0 or len(sorted_values) == 1:
        rank = int(quantile * (len(sorted_values) - 1))
    return sorted_values[rank]
