"""The prediction engine and the batched frontier exploration.

Three suites, matching the guarantees the engine makes:

* **cache correctness** — identical perturbed pairs hit the cache (within a
  call, across calls, across triangles), distinct perturbations never
  collide, and the counters reconcile (``hits + misses == requests``);
* **equivalence** — frontier-batched exploration produces byte-identical
  lattices, saliency scores, golden sets and flip counts versus the
  sequential reference path, on hand-built lattices (any evaluate function,
  via hypothesis) and on seeded synthetic datasets end-to-end;
* **monotone invariants** — property-style checks that propagation semantics
  (superset-of-flip is flip, subset-of-non-flip is non-flip) and the
  ``saved_predictions`` accounting survive batching.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certa.explainer import CertaExplainer
from repro.certa.lattice import (
    AttributeLattice,
    explore_lattice,
    explore_lattices,
)
from repro.certa.perturbation import perturbed_pair
from repro.data.records import RecordPair
from repro.data.table import DataSource
from repro.exceptions import LatticeError, ModelError
from repro.models import engine as engine_module
from repro.models.engine import EngineStats, PredictionEngine

from tests.helpers import SimilarityModel, make_record, toy_pairs, toy_sources

ATTRIBUTES = ["a", "b", "c", "d"]


class CountingModel:
    """Wraps a matcher, counting invocations and pairs actually scored."""

    name = "counting"

    def __init__(self, inner=None):
        self.inner = inner or SimilarityModel()
        self.invocations = 0
        self.pairs_scored = 0

    def predict_proba(self, pairs):
        self.invocations += 1
        self.pairs_scored += len(pairs)
        return self.inner.predict_proba(pairs)

    def predict_pair(self, pair):
        return float(self.predict_proba([pair])[0])

    def predict_match(self, pair):
        return self.predict_pair(pair) > 0.5


def subset_strategy():
    """Random families of flipping attribute sets (arbitrary, not monotone)."""
    return st.lists(
        st.sets(st.sampled_from(ATTRIBUTES), min_size=1).map(frozenset),
        max_size=8,
    )


def trigger_strategy():
    """Random trigger families defining monotone flip functions."""
    return st.lists(
        st.sets(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3).map(frozenset),
        min_size=1,
        max_size=4,
    )


# --------------------------------------------------------------------- caching


class TestEngineCache:
    def test_scores_match_the_wrapped_model(self, labelled_pairs):
        model = SimilarityModel()
        engine = PredictionEngine(SimilarityModel())
        expected = model.predict_proba(labelled_pairs)
        assert np.allclose(engine.predict_proba(labelled_pairs), expected)

    def test_counters_reconcile_across_mixed_workloads(self, labelled_pairs):
        engine = PredictionEngine(SimilarityModel(), batch_size=4)
        engine.predict_proba(labelled_pairs[:6])
        engine.predict_proba(labelled_pairs[3:])  # overlap: cached hits
        engine.predict_pair(labelled_pairs[0])
        stats = engine.stats
        assert stats.requests == 6 + len(labelled_pairs) - 3 + 1
        assert stats.hits + stats.misses == stats.requests
        assert stats.misses == len(labelled_pairs)  # each distinct pair scored once
        assert engine.cache_size() == len(labelled_pairs)

    def test_duplicates_within_one_call_are_scored_once(self, match_pair):
        counting = CountingModel()
        engine = PredictionEngine(counting)
        scores = engine.predict_proba([match_pair] * 5)
        assert counting.pairs_scored == 1
        assert engine.stats.requests == 5
        assert engine.stats.misses == 1
        assert engine.stats.hits == 4
        assert len(set(float(score) for score in scores)) == 1

    def test_identical_perturbed_pairs_hit_across_triangles(self, sources, match_pair):
        """Two triangles with content-identical supports share every score."""
        left, _ = sources
        support = left.get("L2")
        twin = make_record("L2-twin", *[support.value(name) for name in support.attribute_names()])
        counting = CountingModel()
        engine = PredictionEngine(counting)

        def explore_with(record):
            lattice = AttributeLattice(list(match_pair.left.attribute_names()))

            def evaluate_batch(requests):
                pairs = [
                    perturbed_pair(match_pair, "left", record, attributes)
                    for _, attributes in requests
                ]
                return [score > 0.5 for score in engine.predict_proba(pairs)]

            return explore_lattices([lattice], evaluate_batch)[0]

        first = explore_with(support)
        misses_after_first = engine.stats.misses
        second = explore_with(twin)
        # The twin's perturbations are content-identical: zero new model work.
        assert engine.stats.misses == misses_after_first
        assert counting.pairs_scored == misses_after_first
        assert second.performed_predictions == first.performed_predictions
        assert engine.stats.hits >= second.performed_predictions

    def test_distinct_perturbations_never_collide(self, match_pair, sources):
        """Swapping values across attributes must produce distinct cache slots."""
        left, _ = sources
        record = match_pair.left
        swapped = record.replace_values(
            {"name": record.value("description"), "description": record.value("name")}
        )
        model = SimilarityModel()
        engine = PredictionEngine(SimilarityModel())
        variant_one = RecordPair(record, match_pair.right)
        variant_two = RecordPair(swapped, match_pair.right)
        scores = engine.predict_proba([variant_one, variant_two, variant_one, variant_two])
        assert engine.cache_size() == 2
        assert float(scores[0]) == float(model.predict_pair(variant_one))
        assert float(scores[1]) == float(model.predict_pair(variant_two))

    def test_batch_size_chunks_model_invocations(self, labelled_pairs):
        counting = CountingModel()
        engine = PredictionEngine(counting, batch_size=3)
        engine.predict_proba(labelled_pairs[:8])
        assert counting.invocations == 3  # ceil(8 / 3)
        assert engine.stats.batches == 3
        assert engine.stats.max_batch == 3

    def test_clear_cache_and_reset_stats_are_independent(self, match_pair):
        engine = PredictionEngine(SimilarityModel())
        engine.predict_pair(match_pair)
        engine.reset_stats()
        assert engine.stats == EngineStats()
        assert engine.cache_size() == 1
        engine.clear_cache()
        engine.predict_pair(match_pair)
        assert engine.stats.misses == 1  # re-scored after the cache drop

    def test_empty_request_is_free(self):
        engine = PredictionEngine(SimilarityModel())
        assert engine.predict_proba([]).shape == (0,)
        assert engine.stats == EngineStats()

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ModelError):
            PredictionEngine(SimilarityModel(), batch_size=0)

    def test_stats_delta_subtraction(self, labelled_pairs):
        engine = PredictionEngine(SimilarityModel())
        engine.predict_proba(labelled_pairs[:3])
        before = engine.stats
        engine.predict_proba(labelled_pairs)
        delta = engine.stats - before
        assert delta.requests == len(labelled_pairs)
        assert delta.hits == 3
        assert delta.misses == len(labelled_pairs) - 3
        assert delta.hits + delta.misses == delta.requests


# ------------------------------------------------------------ stats arithmetic


class TestEngineStats:
    def test_subtraction_fields(self):
        later = EngineStats(requests=20, hits=12, misses=8, batches=3, max_batch=6)
        earlier = EngineStats(requests=5, hits=2, misses=3, batches=1, max_batch=4)
        delta = later - earlier
        assert delta.requests == 15
        assert delta.hits == 10
        assert delta.misses == 5
        assert delta.batches == 2
        # max_batch is a high-water mark, not a counter: the delta keeps the
        # later snapshot's value instead of subtracting.
        assert delta.max_batch == later.max_batch
        assert delta.hits + delta.misses == delta.requests

    def test_subtracting_self_is_zero_counters(self):
        stats = EngineStats(requests=7, hits=4, misses=3, batches=2, max_batch=5)
        delta = stats - stats
        assert (delta.requests, delta.hits, delta.misses, delta.batches) == (0, 0, 0, 0)

    def test_hit_rate_at_zero_requests(self):
        assert EngineStats().hit_rate == 0.0
        assert EngineStats().as_dict()["hit_rate"] == 0.0

    def test_hit_rate_values(self):
        assert EngineStats(requests=4, hits=3, misses=1).hit_rate == 0.75
        assert EngineStats(requests=4, hits=0, misses=4).hit_rate == 0.0

    def test_invariant_holds_across_snapshots(self, labelled_pairs):
        engine = PredictionEngine(SimilarityModel(), batch_size=4)
        snapshots = [engine.stats]
        for index in range(1, len(labelled_pairs) + 1):
            engine.predict_proba(labelled_pairs[:index])
            snapshots.append(engine.stats)
        for earlier, later in zip(snapshots, snapshots[1:]):
            delta = later - earlier
            assert delta.hits + delta.misses == delta.requests


# ------------------------------------------------------- lattice equivalence


class TestFrontierEquivalence:
    def _assert_lattices_identical(self, batched: AttributeLattice, sequential: AttributeLattice):
        assert batched.flips == sequential.flips
        assert batched.evaluated == sequential.evaluated

    @given(flip_sets=subset_strategy(), monotone=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_single_lattice_matches_sequential_for_any_function(self, flip_sets, monotone):
        """Batched == sequential node-for-node, even for non-monotone gamma."""

        def gamma(attributes):
            return attributes in flip_sets

        sequential = AttributeLattice(ATTRIBUTES)
        sequential_stats = explore_lattice(sequential, gamma, monotone=monotone)

        batched = AttributeLattice(ATTRIBUTES)
        batched_stats = explore_lattices(
            [batched],
            lambda requests: [gamma(attributes) for _, attributes in requests],
            monotone=monotone,
        )[0]

        self._assert_lattices_identical(batched, sequential)
        assert batched_stats.performed_predictions == sequential_stats.performed_predictions
        assert batched_stats.saved_predictions == sequential_stats.saved_predictions
        assert batched_stats.largest_frontier <= batched_stats.performed_predictions

    @given(trigger_families=st.lists(trigger_strategy(), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_multi_lattice_frontier_matches_per_lattice_sequential(self, trigger_families):
        """Several lattices explored together == each explored alone."""
        widths = [2, 3, 4, 4]

        def gamma(index, attributes):
            return any(trigger <= attributes for trigger in trigger_families[index])

        lattice_attributes = [ATTRIBUTES[: widths[i % len(widths)]] for i in range(len(trigger_families))]
        sequential_lattices = [AttributeLattice(attrs) for attrs in lattice_attributes]
        sequential_stats = [
            explore_lattice(lattice, lambda attrs, i=i: gamma(i, attrs))
            for i, lattice in enumerate(sequential_lattices)
        ]

        batched_lattices = [AttributeLattice(attrs) for attrs in lattice_attributes]
        batched_stats = explore_lattices(
            batched_lattices,
            lambda requests: [gamma(index, attributes) for index, attributes in requests],
        )

        for batched, sequential in zip(batched_lattices, sequential_lattices):
            self._assert_lattices_identical(batched, sequential)
        for batched, sequential in zip(batched_stats, sequential_stats):
            assert batched.performed_predictions == sequential.performed_predictions
            assert batched.saved_predictions == sequential.saved_predictions

    def test_single_attribute_lattice_is_evaluated(self):
        lattice = AttributeLattice(["only"])
        stats = explore_lattices([lattice], lambda requests: [True] * len(requests))[0]
        assert lattice.evaluated[lattice.mask(["only"])] is True
        assert stats.performed_predictions == 1

    def test_batched_rounds_bounded_by_levels(self):
        lattice = AttributeLattice(ATTRIBUTES)
        stats = explore_lattices([lattice], lambda requests: [False] * len(requests))[0]
        # Nothing flips: every level except the (special-cased) full set runs.
        assert stats.batched_rounds == len(ATTRIBUTES) - 1
        trigger_lattice = AttributeLattice(ATTRIBUTES)
        trigger_stats = explore_lattices(
            [trigger_lattice],
            lambda requests: [True for _ in requests],
        )[0]
        assert trigger_stats.batched_rounds == 1  # level 1 flips everything above it

    def test_verdict_count_mismatch_raises(self):
        lattice = AttributeLattice(["a", "b"])
        with pytest.raises(LatticeError):
            explore_lattices([lattice], lambda requests: [True])


# --------------------------------------------------------- monotone invariants


class TestMonotoneInvariants:
    @given(triggers=trigger_strategy())
    @settings(max_examples=30, deadline=None)
    def test_propagation_invariants_under_batching(self, triggers):
        """Superset-of-flip flips; subset-of-non-flip does not flip."""
        lattice = AttributeLattice(ATTRIBUTES)
        explore_lattices(
            [lattice],
            lambda requests: [
                any(trigger <= attributes for trigger in triggers)
                for _, attributes in requests
            ],
        )
        flipped = lattice.flipped_nodes()
        for mask in lattice.table.order:
            assert lattice.flips[mask] is not None
            for other in lattice.table.order:
                if lattice.flips[mask] and other & mask == mask != other:
                    assert lattice.flips[other], "superset of a flip must flip"
                if not lattice.flips[mask] and other & mask == other != mask:
                    assert not lattice.flips[other], "subset of a non-flip must not flip"
        # The minimal antichain is exactly the minimal triggers.
        minimal = {
            trigger
            for trigger in triggers
            if not any(other < trigger for other in triggers)
        }
        if minimal:
            assert set(lattice.minimal_flipping_antichain()) == minimal
        else:
            assert not flipped

    @given(triggers=trigger_strategy())
    @settings(max_examples=30, deadline=None)
    def test_saved_predictions_accounting_under_batching(self, triggers):
        lattice = AttributeLattice(ATTRIBUTES)
        stats = explore_lattices(
            [lattice],
            lambda requests: [
                any(trigger <= attributes for trigger in triggers)
                for _, attributes in requests
            ],
        )[0]
        evaluated = sum(lattice.evaluated)
        assert stats.performed_predictions == evaluated
        assert stats.expected_predictions == 2 ** len(ATTRIBUTES) - 2
        assert stats.saved_predictions == stats.expected_predictions - evaluated
        # Every non-evaluated node except the (never counted) full set was inferred.
        inferred = sum(
            1
            for mask in lattice.table.order
            if lattice.flips[mask] is not None and not lattice.evaluated[mask]
        )
        assert inferred == stats.saved_predictions + 1  # + the full attribute set
        assert 0 < stats.batched_rounds <= len(ATTRIBUTES)
        # The peak per-round contribution is bounded by the total and cannot
        # be smaller than an even split across the rounds.
        assert stats.largest_frontier <= stats.performed_predictions
        assert stats.largest_frontier * stats.batched_rounds >= stats.performed_predictions

    def test_certa_saved_predictions_consistent_with_engine_misses(self, sources, match_pair):
        """End-to-end: engine misses during exploration == nodes actually scored."""
        left, right = sources
        counting = CountingModel()
        explainer = CertaExplainer(counting, left, right, num_triangles=6, seed=0)
        explanation = explainer.explain_full(match_pair)
        lattice_stats = explanation.lattice_engine_stats
        assert lattice_stats is not None
        assert lattice_stats.hits + lattice_stats.misses == lattice_stats.requests
        # Requests during exploration == evaluated lattice nodes.
        assert lattice_stats.requests == explanation.performed_predictions()
        # Every miss during the whole explanation reached the model exactly once.
        assert explanation.engine_stats.misses == counting.pairs_scored


# ------------------------------------------------------ golden CERTA equivalence


def _assert_explanations_identical(batched, sequential):
    assert repr(batched.saliency.scores) == repr(sequential.saliency.scores)
    assert batched.saliency.scores == sequential.saliency.scores
    assert batched.counterfactual.attribute_set == sequential.counterfactual.attribute_set
    assert batched.counterfactual.sufficiency == sequential.counterfactual.sufficiency
    # Example scores cross the engine with different batch shapes; the models
    # bundled here are batch-size invariant, but tolerate last-ulp drift so
    # the equivalence claim stays about the exploration, not about BLAS.
    assert np.allclose(
        [example.score for example in batched.counterfactual.examples],
        [example.score for example in sequential.counterfactual.examples],
        rtol=0.0,
        atol=1e-12,
    )
    assert batched.flips == sequential.flips
    assert batched.triangles_used == sequential.triangles_used
    assert repr(sorted(batched.sufficiency_by_set.items(), key=repr)) == repr(
        sorted(sequential.sufficiency_by_set.items(), key=repr)
    )
    assert [stats.performed_predictions for stats in batched.exploration] == [
        stats.performed_predictions for stats in sequential.exploration
    ]
    assert [stats.saved_predictions for stats in batched.exploration] == [
        stats.saved_predictions for stats in sequential.exploration
    ]


class TestGoldenEquivalence:
    def _explainer(self, left, right, batched, **overrides):
        parameters = {"num_triangles": 6, "seed": 0, "batched": batched}
        parameters.update(overrides)
        return CertaExplainer(SimilarityModel(), left, right, **parameters)

    def test_toy_pairs_byte_identical(self, sources):
        left, right = sources
        for pair in toy_pairs(left, right):
            batched = self._explainer(left, right, batched=True).explain_full(pair)
            sequential = self._explainer(left, right, batched=False).explain_full(pair)
            _assert_explanations_identical(batched, sequential)

    def test_equivalence_without_monotone_propagation(self, sources, match_pair):
        left, right = sources
        batched = self._explainer(left, right, batched=True, monotone=False).explain_full(match_pair)
        sequential = self._explainer(left, right, batched=False, monotone=False).explain_full(match_pair)
        _assert_explanations_identical(batched, sequential)

    def test_synthetic_dataset_with_trained_model(self, ab_dataset, trained_classical):
        """Seeded synthetic benchmark + trained matcher: still byte-identical."""
        model = trained_classical.model
        pairs = ab_dataset.test.positives()[:1] + ab_dataset.test.negatives()[:1]
        assert pairs
        for pair in pairs:
            batched = CertaExplainer(
                model, ab_dataset.left, ab_dataset.right, num_triangles=8, seed=1, batched=True
            ).explain_full(pair)
            sequential = CertaExplainer(
                model, ab_dataset.left, ab_dataset.right, num_triangles=8, seed=1, batched=False
            ).explain_full(pair)
            _assert_explanations_identical(batched, sequential)

    def test_batched_path_uses_fewer_model_invocations(self, ab_dataset, trained_classical):
        model = trained_classical.model
        pair = ab_dataset.test.positives()[0]
        batched_explainer = CertaExplainer(
            model, ab_dataset.left, ab_dataset.right, num_triangles=8, seed=1, batched=True
        )
        sequential_explainer = CertaExplainer(
            model, ab_dataset.left, ab_dataset.right, num_triangles=8, seed=1, batched=False
        )
        batched = batched_explainer.explain_full(pair)
        sequential = sequential_explainer.explain_full(pair)
        assert batched.lattice_batches() < sequential.lattice_batches()
        nodes = batched.performed_predictions()
        if nodes >= 9:  # enough work for the 3x acceptance threshold
            assert nodes >= 3 * batched.lattice_batches()

    def test_engine_sharing_across_explainers(self, sources, match_pair):
        """A shared engine pools the cache: the second explainer mostly hits."""
        left, right = sources
        engine = PredictionEngine(SimilarityModel())
        first = CertaExplainer(engine.model, left, right, num_triangles=6, seed=0, engine=engine)
        first.explain_full(match_pair)
        misses_before = engine.stats.misses
        second = CertaExplainer(engine.model, left, right, num_triangles=6, seed=0, engine=engine)
        second.explain_full(match_pair)
        assert engine.stats.misses == misses_before  # identical work: all cache hits


class TestEngineConcurrency:
    """The engine's thread-safety contract: one model row per content key no
    matter how many threads race, and counters that still reconcile."""

    class _PausingModel(SimilarityModel):
        """Holds every batch open long enough for racers to pile up."""

        def __init__(self, pause: float = 0.05) -> None:
            super().__init__()
            self.pause = pause
            self.batch_log: list[int] = []
            self._log_lock = threading.Lock()

        def predict_proba(self, pairs) -> np.ndarray:
            with self._log_lock:
                self.batch_log.append(len(pairs))
            time.sleep(self.pause)
            return super().predict_proba(pairs)

    def test_racing_threads_on_one_uncached_pair_cost_one_model_row(self, match_pair):
        model = self._PausingModel()
        engine = PredictionEngine(model)
        threads = 8
        barrier = threading.Barrier(threads)
        scores: list[float] = [0.0] * threads
        errors: list[BaseException] = []

        def racer(slot: int) -> None:
            try:
                barrier.wait()
                scores[slot] = engine.predict_pair(match_pair)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        workers = [threading.Thread(target=racer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert len(set(scores)) == 1  # everyone sees the same score
        assert model.calls == 1  # the model was invoked for exactly one row
        stats = engine.stats
        assert stats.requests == threads
        assert stats.misses == 1  # one claim; every racer behind it is a hit
        assert stats.hits == threads - 1
        assert stats.hits + stats.misses == stats.requests

    @staticmethod
    def count_events(monkeypatch) -> list:
        """Record every ``threading.Event`` the engine module creates."""
        created: list = []

        def event() -> threading.Event:
            created.append(threading.Event())
            return created[-1]

        monkeypatch.setattr(
            engine_module, "threading", SimpleNamespace(Event=event, Lock=threading.Lock)
        )
        return created

    def test_single_threaded_explanation_creates_no_event(self, sources, match_pair, monkeypatch):
        created = self.count_events(monkeypatch)
        left, right = sources
        engine = PredictionEngine(SimilarityModel())
        explainer = CertaExplainer(engine.model, left, right, num_triangles=6, seed=0, engine=engine)
        explanation = explainer.explain_full(match_pair)
        assert explanation.engine_stats.misses > 0
        assert created == []

    def test_waiters_on_one_claim_share_one_event(self, match_pair, monkeypatch):
        created = self.count_events(monkeypatch)
        engine = PredictionEngine(self._PausingModel())
        threads = 6
        barrier = threading.Barrier(threads)
        scores: list[float] = [0.0] * threads

        def racer(slot: int) -> None:
            barrier.wait()
            scores[slot] = engine.predict_pair(match_pair)

        workers = [threading.Thread(target=racer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(set(scores)) == 1 and scores[0] > 0.0
        assert engine.stats.misses == 1
        assert len(created) <= 1  # made by the first waiter, reused by the rest

    def test_racing_threads_on_disjoint_batches_reconcile(self, labelled_pairs):
        engine = PredictionEngine(SimilarityModel())
        threads = 6
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def racer(slot: int) -> None:
            try:
                barrier.wait()
                # Overlapping slices: every pair is requested by several
                # threads, so claims and waits interleave both ways.
                for _ in range(3):
                    engine.predict_proba(labelled_pairs[slot % 3 :])
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        workers = [threading.Thread(target=racer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        stats = engine.stats
        assert stats.hits + stats.misses == stats.requests
        # Every distinct content key costs exactly one miss, ever.
        assert stats.misses == len(labelled_pairs)

    def test_waiters_surface_the_claim_owners_failure(self, match_pair):
        in_model = threading.Event()
        release = threading.Event()

        class BlockingBrokenModel(SimilarityModel):
            def predict_proba(self, pairs) -> np.ndarray:
                in_model.set()
                release.wait(timeout=5.0)
                raise LatticeError("owner failed mid-claim")  # non-transient

        engine = PredictionEngine(BlockingBrokenModel())
        outcomes: dict[str, BaseException] = {}

        def owner() -> None:
            try:
                engine.predict_pair(match_pair)
            except BaseException as exc:
                outcomes["owner"] = exc

        def waiter() -> None:
            try:
                engine.predict_pair(match_pair)
            except BaseException as exc:
                outcomes["waiter"] = exc

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert in_model.wait(timeout=5.0)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        time.sleep(0.05)  # let the waiter join the in-flight claim
        release.set()
        owner_thread.join()
        waiter_thread.join()
        assert isinstance(outcomes["owner"], LatticeError)
        waiter_error = outcomes["waiter"]
        assert isinstance(waiter_error, (ModelError, LatticeError))
        if isinstance(waiter_error, ModelError):
            assert "concurrent request" in str(waiter_error)
            assert isinstance(waiter_error.__cause__, LatticeError)
        # A failed claim must not poison the key: a retry re-invokes cleanly.
        release.set()
        with pytest.raises((ModelError, LatticeError)):
            engine.predict_pair(match_pair)

    def test_concurrent_explainers_share_one_engine_safely(self, sources, match_pair):
        left, right = sources
        engine = PredictionEngine(SimilarityModel())
        results: list[float] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def explain() -> None:
            try:
                explainer = CertaExplainer(
                    engine.model, left, right, num_triangles=6, seed=0, engine=engine
                )
                explanation = explainer.explain_full(match_pair)
                with lock:
                    results.append(explanation.prediction)
            except BaseException as exc:  # pragma: no cover - failure reporting
                with lock:
                    errors.append(exc)

        workers = [threading.Thread(target=explain) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert len(set(results)) == 1
        stats = engine.stats
        assert stats.hits + stats.misses == stats.requests
