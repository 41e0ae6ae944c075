"""The explanation service: golden concurrency, admission, budgets, chaos.

The load-bearing guarantee is **byte-identity** for a batch-invariant
matcher: an explanation served through the full concurrent pipeline —
admission queue, worker pool, cross-request frontier coalescing, shared
engine cache — must serialise to exactly the bytes a direct single-threaded
:class:`CertaExplainer` run produces, including while a
:class:`repro.faults.FaultPlan` is throwing transient engine errors.  A real
neural matcher scores a row slightly differently depending on the batch
around it, so with one the served and direct payloads must agree to 9
significant digits.  Around that sit the protocol tests: a full queue sheds
with a clean :class:`~repro.exceptions.AdmissionError` (never a partial
explanation), budget overruns fail whole with
:class:`~repro.exceptions.BudgetError`, and the scheduler/budget wrappers
behave standalone.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.certa.explainer import CertaExplainer
from repro.data.registry import benchmark_info
from repro.data.synthetic import generate_dataset
from repro.exceptions import (
    AdmissionError,
    BudgetError,
    ModelError,
    SealedSourceError,
    ServeError,
)
from repro.faults import FaultPlan, FaultRule
from repro.models.engine import PredictionEngine
from repro.models.training import train_model
from repro.serve import (
    BudgetedPredictor,
    ExplainRequest,
    ExplanationService,
    FrontierScheduler,
    ServeTarget,
    explanation_payload,
)
from repro.serve.service import _percentile

from tests.helpers import SimilarityModel, toy_pairs, toy_sources

NUM_TRIANGLES = 8
SEED = 7


class SlowModel(SimilarityModel):
    """Similarity scores behind a per-batch pause (drives coalescing/shedding).

    ``callers`` records the thread of every batch.
    """

    def __init__(self, pause: float = 0.02) -> None:
        super().__init__()
        self.pause = pause
        self.callers: list[int] = []

    def predict_proba(self, pairs) -> np.ndarray:
        self.callers.append(threading.get_ident())
        time.sleep(self.pause)
        return super().predict_proba(pairs)


class GatedModel(SimilarityModel):
    """Holds each batch inside the model until the test opens its gate.

    Batch ``i`` (from 0) records its thread in ``callers``, sets
    ``entered[i]``, waits for ``gates[i]``, then raises ``failures[i]`` if
    there is one.
    """

    def __init__(self, batches: int, failures: dict[int, Exception] | None = None) -> None:
        super().__init__()
        self.entered = [threading.Event() for _ in range(batches)]
        self.gates = [threading.Event() for _ in range(batches)]
        self.failures = failures or {}
        self.callers: list[int] = []

    def predict_proba(self, pairs) -> np.ndarray:
        batch = len(self.callers)
        self.callers.append(threading.get_ident())
        self.entered[batch].set()
        if not self.gates[batch].wait(timeout=10.0):
            raise AssertionError(f"gate {batch} never opened")
        if batch in self.failures:
            raise self.failures[batch]
        return super().predict_proba(pairs)


def wait_until(condition, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


def join_all(threads, timeout: float = 10.0) -> None:
    """Join every thread and fail the test if one is still running."""
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive()


class FailingModel(SimilarityModel):
    """Raises a permanent (non-transient) error on every batch."""

    def predict_proba(self, pairs) -> np.ndarray:
        raise ModelError("permanently broken matcher")


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def make_target(model=None, **overrides) -> ServeTarget:
    left, right = toy_sources()
    defaults = dict(
        name="toy",
        model=model if model is not None else SimilarityModel(),
        left_source=left,
        right_source=right,
        num_triangles=NUM_TRIANGLES,
        seed=SEED,
    )
    defaults.update(overrides)
    return ServeTarget(**defaults)


def direct_payloads(pairs) -> list[str]:
    """Canonical payload bytes from a fresh single-threaded explainer."""
    left, right = toy_sources()
    explainer = CertaExplainer(
        SimilarityModel(), left, right, num_triangles=NUM_TRIANGLES, seed=SEED
    )
    rebuilt = toy_pairs(left, right)
    by_key = {(p.left.record_id, p.right.record_id): p for p in rebuilt}
    return [
        canonical(
            explanation_payload(
                explainer.explain_full(by_key[(p.left.record_id, p.right.record_id)])
            )
        )
        for p in pairs
    ]


def rounded(value, digits: int = 9):
    """``value`` with every float rounded to ``digits`` significant digits."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {key: rounded(item, digits) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item, digits) for item in value]
    return value


def serve(target: ServeTarget, requests, **service_kwargs):
    """Run one service lifetime over ``requests``; returns (responses, stats)."""

    async def main():
        async with ExplanationService([target], **service_kwargs) as svc:
            responses = await svc.explain_many(requests)
            return responses, svc.stats, svc.engine_stats(target.name)

    return asyncio.run(main())


# ------------------------------------------------------------ golden identity


class TestGoldenConcurrency:
    def test_sixteen_concurrent_clients_are_byte_identical(self):
        target = make_target()
        pairs = toy_pairs(target.left_source, target.right_source)[:4]
        # 16 clients over 4 distinct pairs: heavy frontier overlap, which is
        # exactly the condition under which coalescing + shared caching could
        # corrupt results if the engine or scheduler mixed up rows.
        requests = [
            ExplainRequest(target="toy", pair=pairs[i % 4], request_id=f"r{i}")
            for i in range(16)
        ]
        responses, stats, _ = serve(target, requests, workers=8, queue_limit=32)
        expected = direct_payloads(pairs)
        assert [r.status for r in responses] == ["ok"] * 16
        for i, response in enumerate(responses):
            assert canonical(response.payload) == expected[i % 4]
        assert stats.requests == 16 and stats.completed == 16
        assert stats.failed == 0 and stats.shed == 0
        assert stats.dispatches >= 1 and stats.merged_pairs > 0

    def test_coalescing_actually_merges_overlapping_frontiers(self):
        # A slow model widens the dispatch window so concurrent frontiers
        # pile up behind the in-flight batch and must be merged.
        target = make_target(model=SlowModel())
        pairs = toy_pairs(target.left_source, target.right_source)[:2]
        requests = [
            ExplainRequest(target="toy", pair=pairs[i % 2], request_id=f"r{i}")
            for i in range(8)
        ]
        responses, stats, _ = serve(target, requests, workers=8, queue_limit=16)
        assert all(r.ok for r in responses)
        assert stats.coalesced_dispatches >= 1
        assert stats.deduped_pairs > 0  # identical frontiers cost one model row
        expected = direct_payloads(pairs)
        for i, response in enumerate(responses):
            assert canonical(response.payload) == expected[i % 2]

    def test_served_identical_under_transient_engine_faults(self):
        faults.install_plan(
            FaultPlan(
                rules=(FaultRule(scope="engine.batch", step=2, times=1),)
            )
        )
        target = make_target()
        pairs = toy_pairs(target.left_source, target.right_source)[:2]
        requests = [
            ExplainRequest(target="toy", pair=pairs[i % 2], request_id=f"r{i}")
            for i in range(4)
        ]
        responses, _, engine_stats = serve(target, requests, workers=2, queue_limit=8)
        faults.clear_plan()
        assert all(r.ok for r in responses)
        assert engine_stats.retries >= 1  # the engine absorbed the injected fault
        expected = direct_payloads(pairs)
        for i, response in enumerate(responses):
            assert canonical(response.payload) == expected[i % 2]

    def test_request_level_transient_fault_is_retried(self):
        faults.install_plan(
            FaultPlan(rules=(FaultRule(scope="serve.request", step=1, times=1),))
        )
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, stats, _ = serve(
            target,
            [ExplainRequest(target="toy", pair=pair, request_id="r0")],
            workers=1,
            queue_limit=4,
            retries=1,
        )
        faults.clear_plan()
        (response,) = responses
        assert response.ok and response.retries == 1
        assert stats.retried == 1 and stats.completed == 1
        assert canonical(response.payload) == direct_payloads([pair])[0]

    def test_request_fault_without_retry_budget_is_clean_error(self):
        faults.install_plan(
            FaultPlan(rules=(FaultRule(scope="serve.request", step=1, times=1),))
        )
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, stats, _ = serve(
            target,
            [ExplainRequest(target="toy", pair=pair)],
            workers=1,
            queue_limit=4,
            retries=0,
        )
        faults.clear_plan()
        (response,) = responses
        assert response.status == "error" and response.payload is None
        assert response.error_type == "InjectedFault"
        assert stats.failed == 1 and stats.completed == 0

    def test_permanent_model_failure_is_error_response_not_partial(self):
        target = make_target(model=FailingModel())
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, stats, _ = serve(
            target, [ExplainRequest(target="toy", pair=pair)], workers=1, queue_limit=4
        )
        (response,) = responses
        assert response.status == "error" and response.payload is None
        assert response.error_type == "ServeError"  # scheduler-wrapped ModelError
        assert "permanently broken" in response.error
        assert stats.failed == 1
        with pytest.raises(ServeError):
            response.raise_for_status()


class TestRealMatcher:
    def test_served_payloads_match_direct_runs_to_nine_digits(self):
        # deepmatcher's matrix products round a pair's score differently
        # (by ~1e-16) in different batch compositions, and coalescing
        # changes the batches.  A fresh dataset keeps the sealing the
        # service does away from the session-shared one.
        dataset = generate_dataset(benchmark_info("AB").config.scaled(0.5))
        model = train_model("deepmatcher", dataset, fast=True).model
        test_pairs = list(dataset.test)
        pairs = [p for p in test_pairs if p.label][:1] + [p for p in test_pairs if not p.label][:2]
        explainer = CertaExplainer(
            model, dataset.left, dataset.right, num_triangles=NUM_TRIANGLES, seed=SEED
        )
        expected = [
            canonical(rounded(explanation_payload(explainer.explain_full(pair)))) for pair in pairs
        ]
        target = ServeTarget(
            name="ab", model=model, left_source=dataset.left, right_source=dataset.right,
            num_triangles=NUM_TRIANGLES, seed=SEED,
        )
        requests = [
            ExplainRequest(target="ab", pair=pairs[i % 3], request_id=f"r{i}") for i in range(6)
        ]
        responses, stats, _ = serve(target, requests, workers=3, queue_limit=8)
        assert [r.status for r in responses] == ["ok"] * 6
        for i, response in enumerate(responses):
            assert canonical(rounded(response.payload)) == expected[i % 3]
        assert stats.merged_pairs > 0  # frontiers really were scored in shared batches


# ---------------------------------------------------------- admission control


class TestAdmissionControl:
    def test_full_queue_sheds_with_clean_taxonomy_error(self):
        target = make_target(model=SlowModel(pause=0.05))
        pairs = toy_pairs(target.left_source, target.right_source)[:2]
        requests = [
            ExplainRequest(target="toy", pair=pairs[i % 2], request_id=f"r{i}")
            for i in range(12)
        ]
        responses, stats, _ = serve(target, requests, workers=1, queue_limit=1)
        shed = [r for r in responses if r.status == "shed"]
        served = [r for r in responses if r.status == "ok"]
        assert shed, "a 1-deep queue under 12 instant submissions must shed"
        assert len(shed) + len(served) == 12
        assert stats.shed == len(shed)
        expected = direct_payloads(pairs)
        for response in responses:
            index = int(response.request_id[1:])
            if response.status == "ok":
                # an admitted request is never degraded by load
                assert canonical(response.payload) == expected[index % 2]
            else:
                assert response.payload is None
                assert response.error_type == "AdmissionError"
                with pytest.raises(AdmissionError, match="admission queue"):
                    response.raise_for_status()

    def test_submit_on_stopped_service_raises(self):
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]

        async def main():
            svc = ExplanationService([target])
            with pytest.raises(ServeError, match="not started"):
                await svc.submit(ExplainRequest(target="toy", pair=pair))
            async with svc:
                pass
            with pytest.raises(ServeError, match="not started"):
                await svc.submit(ExplainRequest(target="toy", pair=pair))

        asyncio.run(main())

    def test_unknown_target_raises(self):
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]

        async def main():
            async with ExplanationService([target]) as svc:
                with pytest.raises(ServeError, match="unknown serve target"):
                    await svc.submit(ExplainRequest(target="nope", pair=pair))
                with pytest.raises(ServeError, match="unknown serve target"):
                    svc.engine_stats("nope")

        asyncio.run(main())

    def test_duplicate_and_empty_targets_are_rejected(self):
        target = make_target()
        with pytest.raises(ServeError, match="duplicate"):
            ExplanationService([target, make_target()])
        with pytest.raises(ServeError, match="at least one"):
            ExplanationService([])


# ------------------------------------------------------------------- budgets


class TestBudgets:
    def test_expired_deadline_fails_whole_with_budget_error(self):
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, stats, _ = serve(
            target,
            [ExplainRequest(target="toy", pair=pair, deadline_seconds=1e-9)],
            workers=1,
            queue_limit=4,
        )
        (response,) = responses
        assert response.status == "error" and response.payload is None
        assert response.error_type == "BudgetError"
        assert response.budget == "deadline"
        assert stats.budget_deadline == 1
        with pytest.raises(BudgetError, match="deadline"):
            response.raise_for_status()

    def test_lattice_node_budget_fails_whole_with_budget_error(self):
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, stats, _ = serve(
            target,
            [ExplainRequest(target="toy", pair=pair, max_lattice_nodes=1)],
            workers=1,
            queue_limit=4,
        )
        (response,) = responses
        assert response.status == "error"
        assert response.error_type == "BudgetError"
        assert response.budget == "lattice_nodes"
        assert stats.budget_nodes == 1

    def test_budget_error_is_never_retried(self):
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, stats, _ = serve(
            target,
            [ExplainRequest(target="toy", pair=pair, max_lattice_nodes=1)],
            workers=1,
            queue_limit=4,
            retries=3,
        )
        (response,) = responses
        assert response.error_type == "BudgetError" and response.retries == 0
        assert stats.retried == 0

    def test_generous_budgets_do_not_change_the_explanation(self):
        target = make_target()
        pair = toy_pairs(target.left_source, target.right_source)[0]
        responses, _, _ = serve(
            target,
            [
                ExplainRequest(
                    target="toy", pair=pair, deadline_seconds=300.0, max_lattice_nodes=10**6
                )
            ],
            workers=1,
            queue_limit=4,
        )
        (response,) = responses
        assert response.ok
        assert canonical(response.payload) == direct_payloads([pair])[0]


# --------------------------------------------------------- scheduler standalone


class TestFrontierScheduler:
    def test_scores_match_the_engine_exactly(self, labelled_pairs):
        model = SimilarityModel()
        pairs = [p for p in labelled_pairs]
        expected = PredictionEngine(SimilarityModel()).predict_proba(pairs)
        with FrontierScheduler(PredictionEngine(model)) as scheduler:
            scores = scheduler.predict_proba(pairs)
            single = scheduler.predict_pair(pairs[0])
        np.testing.assert_array_equal(scores, expected)
        assert single == expected[0]

    def test_concurrent_submissions_coalesce(self, labelled_pairs):
        model = SlowModel()
        scheduler = FrontierScheduler(PredictionEngine(model))
        results: dict[int, np.ndarray] = {}
        submitters: set[int] = set()

        def submit(index: int) -> None:
            submitters.add(threading.get_ident())
            results[index] = scheduler.predict_proba(labelled_pairs[:4])

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        join_all(threads)
        scheduler.close()
        assert scheduler.submitted == 8
        # The first dispatch takes whatever arrived; everything queued behind
        # its model pause is merged into the next one.
        assert scheduler.dispatches < scheduler.submitted
        assert scheduler.coalesced_dispatches >= 1
        assert scheduler.deduped_pairs > 0
        # Every engine call is made by a thread that submitted a frontier.
        assert model.callers and set(model.callers) <= submitters
        expected = PredictionEngine(SimilarityModel()).predict_proba(labelled_pairs[:4])
        for scores in results.values():
            np.testing.assert_array_equal(scores, expected)

    def test_unstarted_and_closed_schedulers_refuse_tickets(self, labelled_pairs):
        scheduler = FrontierScheduler(PredictionEngine(SimilarityModel()))
        scheduler.close()
        with pytest.raises(ServeError, match="closed"):
            scheduler.predict_proba(labelled_pairs[:1])

    def test_failed_dispatch_reaches_every_submitter_then_recovers(self, labelled_pairs):
        # Batch 0 (ticket a alone) holds the model while b and c queue; batch 1
        # combines b and c and fails while d queues; d then combines batch 2.
        model = GatedModel(batches=3, failures={1: ModelError("boom")})
        scheduler = FrontierScheduler(PredictionEngine(model))
        outcomes: dict[str, object] = {}
        idents: dict[str, int] = {}

        def submit(name: str, pairs) -> None:
            idents[name] = threading.get_ident()
            try:
                outcomes[name] = scheduler.predict_proba(pairs)
            except ServeError as exc:
                outcomes[name] = exc

        def start(name: str, pairs) -> threading.Thread:
            submitted = scheduler.submitted
            thread = threading.Thread(target=submit, args=(name, pairs))
            thread.start()
            wait_until(lambda: scheduler.submitted == submitted + 1)
            return thread

        threads = [start("a", labelled_pairs[0:1])]
        assert model.entered[0].wait(timeout=10.0)
        threads += [start("b", labelled_pairs[1:2]), start("c", labelled_pairs[2:3])]
        model.gates[0].set()
        assert model.entered[1].wait(timeout=10.0)
        threads.append(start("d", labelled_pairs[1:3]))
        model.gates[1].set()
        model.gates[2].set()
        join_all(threads)

        for name in ("b", "c"):
            assert isinstance(outcomes[name], ServeError)
            assert "dispatch failed" in str(outcomes[name])
            assert isinstance(outcomes[name].__cause__, ModelError)
        expected = PredictionEngine(SimilarityModel()).predict_proba(labelled_pairs[:3])
        np.testing.assert_array_equal(outcomes["a"], expected[0:1])
        np.testing.assert_array_equal(outcomes["d"], expected[1:3])
        assert model.callers[2] == idents["d"]  # d combined its own ticket
        assert (scheduler.dispatches, scheduler.coalesced_dispatches) == (3, 1)

    def test_close_waits_for_the_active_dispatch_then_refuses_tickets(self, labelled_pairs):
        model = GatedModel(batches=1)
        scheduler = FrontierScheduler(PredictionEngine(model))
        results: list[np.ndarray] = []
        submitter = threading.Thread(
            target=lambda: results.append(scheduler.predict_proba(labelled_pairs[:2]))
        )
        submitter.start()
        assert model.entered[0].wait(timeout=10.0)
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive()  # the dispatch is still inside the model
        model.gates[0].set()
        join_all([closer, submitter])
        assert scheduler.dispatches == 1
        np.testing.assert_array_equal(
            results[0], PredictionEngine(SimilarityModel()).predict_proba(labelled_pairs[:2])
        )
        with pytest.raises(ServeError, match="closed"):
            scheduler.predict_proba(labelled_pairs[:1])

    def test_empty_frontier_short_circuits(self):
        scheduler = FrontierScheduler(PredictionEngine(SimilarityModel()))
        assert scheduler.predict_proba([]).shape == (0,)  # no ticket
        assert scheduler.submitted == 0


class TestBudgetedPredictor:
    def test_counts_scheduled_predictions(self, labelled_pairs):
        predictor = BudgetedPredictor(PredictionEngine(SimilarityModel()), max_nodes=10)
        predictor.predict_proba(labelled_pairs[:4])
        predictor.predict_pair(labelled_pairs[0])
        assert predictor.scheduled == 5
        with pytest.raises(BudgetError, match="lattice-node budget"):
            predictor.predict_proba(labelled_pairs[:6])
        assert predictor.tripped == "lattice_nodes"
        assert predictor.scheduled == 5  # the refused frontier is not counted

    def test_deadline_checked_before_submission(self, labelled_pairs):
        predictor = BudgetedPredictor(
            PredictionEngine(SimilarityModel()), deadline_at=time.monotonic() - 1.0
        )
        with pytest.raises(BudgetError, match="deadline"):
            predictor.predict_pair(labelled_pairs[0])
        assert predictor.tripped == "deadline"

    def test_unlimited_budgets_pass_through(self, labelled_pairs):
        engine = PredictionEngine(SimilarityModel())
        predictor = BudgetedPredictor(engine)
        scores = predictor.predict_proba(labelled_pairs)
        np.testing.assert_array_equal(scores, engine.predict_proba(labelled_pairs))


# ----------------------------------------------------------- service plumbing


class TestServicePlumbing:
    def test_sources_are_sealed_at_startup(self, similarity_model):
        target = make_target(model=similarity_model)

        async def main():
            async with ExplanationService([target]):
                assert target.left_source.sealed and target.right_source.sealed
                with pytest.raises(SealedSourceError):
                    target.left_source.remove("L0")

        asyncio.run(main())

    def test_stats_roundtrip_and_latency_percentiles(self):
        target = make_target()
        pairs = toy_pairs(target.left_source, target.right_source)[:2]
        requests = [ExplainRequest(target="toy", pair=pairs[i % 2]) for i in range(6)]
        _, stats, _ = serve(target, requests, workers=2, queue_limit=8)
        payload = stats.as_dict()
        assert payload["requests"] == 6 and payload["completed"] == 6
        assert payload["p50_latency_ms"] > 0.0
        assert payload["p99_latency_ms"] >= payload["p50_latency_ms"]

    @pytest.mark.parametrize(
        "samples, quantile, expected",
        [
            pytest.param(range(1, 6), 0.50, 3, id="p50-of-5"),  # rank 2.5 rounds up, not to even
            pytest.param(range(1, 10), 0.50, 5, id="p50-of-9"),
            pytest.param([1, 2], 0.50, 1, id="p50-of-2"),
            pytest.param(range(1, 101), 0.99, 99, id="p99-of-100"),
            pytest.param([7.5], 0.99, 7.5, id="single"),
            pytest.param([], 0.50, 0.0, id="empty"),
        ],
    )
    def test_latency_percentile_is_the_nearest_rank(self, samples, quantile, expected):
        assert _percentile([float(value) for value in samples], quantile) == expected

    def test_explanation_payload_is_deterministic(self, similarity_model, match_pair):
        left, right = toy_sources()
        explainer = CertaExplainer(
            similarity_model, left, right, num_triangles=NUM_TRIANGLES, seed=SEED
        )
        first = explanation_payload(explainer.explain_full(match_pair))
        second = explanation_payload(explainer.explain_full(match_pair))
        assert canonical(first) == canonical(second)
        json.loads(canonical(first))  # payload must be valid JSON end to end
