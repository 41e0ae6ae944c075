"""The featurisation layer: golden equivalence, interning and accounting.

Three guarantees, mirroring what ``tests/test_prediction_engine.py`` asserts
for the layer above:

* **golden equivalence** — batched, content-cached featurisation produces
  byte-identical feature matrices versus the naive ``_featurize_pair`` loop
  for all four matcher families, on a lattice-style perturbed workload, and
  identical CERTA explanations end-to-end;
* **interning** — every distinct value string is processed once, pairwise
  comparisons are memoised (symmetric-key for the composite similarity), and
  each featurizer's own Levenshtein / Monge-Elkan memos agree with the plain
  functions and empty with its other caches;
* **accounting** — :class:`~repro.models.featurizer.FeaturizerStats`
  arithmetic, the hit/miss counters, and their surfacing through
  :class:`~repro.models.engine.PredictionEngine` and
  :class:`~repro.certa.explainer.CertaExplanation`.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.certa.explainer import CertaExplainer
from repro.certa.perturbation import perturbed_pair
from repro.models.engine import PredictionEngine
from repro.models.features import attribute_comparison_vector
from repro.models.featurizer import FeaturizerStats, PairComparisonCache
from repro.models.training import make_model
from repro.text.interning import ValueFeatureCache, ValueFeatures
from repro.text.similarity import attribute_similarity, levenshtein_similarity, monge_elkan

from tests.helpers import SimilarityModel, toy_pairs, toy_sources

MODEL_NAMES = ("deeper", "deepmatcher", "ditto", "classical")

#: Value pairs covering the comparison-feature edge cases: empty values,
#: numeric strings (equal, different, unparseable, NaN), long values past the
#: 64-char edit-distance prefix and past the 12-token Monge-Elkan prefix.
VALUE_PAIRS = [
    ("", ""),
    ("sony bravia", ""),
    ("", "sony bravia"),
    ("sony bravia theater", "sony bravia theater"),
    ("sony bravia theater", "sony bravia home theater system"),
    ("199.99", "205.00"),
    ("199.99", "199.99"),
    ("nan", "199.99"),
    ("around 200", "199.99"),
    ("x" * 100, "x" * 80 + "y" * 20),
    (" ".join(f"tok{i}" for i in range(20)), " ".join(f"tok{i}" for i in range(5, 25))),
]


def lattice_workload(pairs, source, supports_per_pair: int = 3):
    """One pivot, many token-subset perturbations — the CERTA workload shape."""
    workload = []
    for pair in pairs:
        workload.append(pair)
        supports = [
            record for record in source if record.record_id != pair.left.record_id
        ][:supports_per_pair]
        attributes = list(pair.left.attribute_names())
        for support in supports:
            for size in range(1, len(attributes) + 1):
                for subset in itertools.combinations(attributes, size):
                    workload.append(perturbed_pair(pair, "left", support, frozenset(subset)))
    return workload


@pytest.fixture()
def workload(sources, labelled_pairs):
    left, _ = sources
    return lattice_workload(labelled_pairs[:4], left)


# ------------------------------------------------------------ golden equivalence


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_byte_identical_feature_matrices(self, name, workload):
        """Batched assembly == naive per-pair loop, bit for bit."""
        naive_model = make_model(name)
        naive_model.batched_featurization = False
        naive = naive_model.featurize(workload)

        batched_model = make_model(name)
        batched = batched_model.featurize(workload)

        assert naive.shape == batched.shape
        assert naive.dtype == batched.dtype
        assert naive.tobytes() == batched.tobytes()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_warm_cache_stays_identical(self, name, workload):
        """A second pass over a warm cache returns the same bytes."""
        model = make_model(name)
        first = model.featurize(workload)
        second = model.featurize(workload)
        assert first.tobytes() == second.tobytes()

    def test_certa_explanations_identical_end_to_end(self, ab_dataset, trained_classical):
        """Toggling the featurisation layer leaves CERTA output unchanged."""
        model = trained_classical.model
        pairs = ab_dataset.test.positives()[:1] + ab_dataset.test.negatives()[:1]
        assert pairs

        def explain(batched_featurization: bool):
            model.clear_featurizer_cache()
            model.batched_featurization = batched_featurization
            explainer = CertaExplainer(
                model, ab_dataset.left, ab_dataset.right, num_triangles=6, seed=1
            )
            return [explainer.explain_full(pair) for pair in pairs]

        try:
            batched_runs = explain(True)
            naive_runs = explain(False)
        finally:
            model.batched_featurization = True
        for batched, naive in zip(batched_runs, naive_runs):
            assert repr(batched.saliency.scores) == repr(naive.saliency.scores)
            assert batched.counterfactual.attribute_set == naive.counterfactual.attribute_set
            assert batched.counterfactual.sufficiency == naive.counterfactual.sufficiency
            assert batched.flips == naive.flips

    def test_fit_weights_identical_across_paths(self, dataset):
        """Training through either featurisation path learns the same weights."""
        naive_model = make_model("classical", epochs=10)
        naive_model.batched_featurization = False
        naive_model.fit(dataset.train, dataset.valid)
        batched_model = make_model("classical", epochs=10)
        batched_model.fit(dataset.train, dataset.valid)
        pairs = dataset.test.pairs
        naive_scores = naive_model.predict_proba(pairs)
        batched_scores = batched_model.predict_proba(pairs)
        assert naive_scores.tobytes() == batched_scores.tobytes()


# ------------------------------------------------------------------- interning


class TestValueInterning:
    def test_distinct_strings_processed_once(self):
        cache = ValueFeatureCache()
        first = cache.features("sony bravia theater")
        again = cache.features("sony bravia theater")
        assert again is first
        assert cache.misses == 1
        assert cache.hits == 1

    def test_derived_artifacts(self):
        features = ValueFeatures("Sony BRAVIA Theater 2000")
        assert features.tokens == ["sony", "bravia", "theater", "2000"]
        assert features.token_set == frozenset(features.tokens)
        assert features.me_tokens == tuple(features.tokens[:12])
        assert features.numeric is None
        assert ValueFeatures("349.00").numeric == 349.0
        assert ValueFeatures("").is_missing
        long_value = "x" * 100
        assert ValueFeatures(long_value).truncated == long_value[:64]

    def test_qgram_set_is_lazy_and_correct(self):
        features = ValueFeatures("abc")
        assert features._qgram_set is None
        assert features.qgram_set == frozenset({"##a", "#ab", "abc", "bc#", "c##"})
        assert features._qgram_set is not None

    def test_missing_providers_raise(self):
        cache = ValueFeatureCache()
        with pytest.raises(ValueError):
            cache.embedding("text")
        with pytest.raises(ValueError):
            cache.vector("text")

    def test_clear_and_reset_are_independent(self):
        cache = ValueFeatureCache()
        cache.features("a")
        cache.features("a")
        cache.clear()
        assert cache.size() == 0
        assert cache.hits == 1 and cache.misses == 1
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0


class TestComparisonCache:
    @pytest.mark.parametrize("left,right", VALUE_PAIRS)
    def test_comparison_vector_matches_reference(self, left, right):
        cache = PairComparisonCache(ValueFeatureCache())
        reference = attribute_comparison_vector(left, right)
        assert cache.comparison_vector(left, right).tobytes() == reference.tobytes()
        # And again from the cache.
        assert cache.comparison_vector(left, right).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("left,right", VALUE_PAIRS)
    def test_similarity_matches_reference(self, left, right):
        cache = PairComparisonCache(ValueFeatureCache())
        assert cache.similarity(left, right) == attribute_similarity(left, right)

    def test_similarity_key_is_symmetric(self):
        cache = PairComparisonCache(ValueFeatureCache())
        forward = cache.similarity("sony bravia", "bravia theater")
        assert cache.misses == 1
        backward = cache.similarity("bravia theater", "sony bravia")
        assert cache.hits == 1  # served by the order-normalised key
        assert backward == forward

    def test_composed_vector_builds_once(self):
        cache = PairComparisonCache(ValueFeatureCache())
        calls = []

        def build():
            calls.append(1)
            return np.array([1.0, 2.0])

        first = cache.composed_vector("a", "b", build)
        second = cache.composed_vector("a", "b", build)
        assert second is first
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1


class TestMemoizedCores:
    @pytest.mark.parametrize("left,right", VALUE_PAIRS)
    def test_levenshtein_core_agrees(self, left, right):
        memo = PairComparisonCache(ValueFeatureCache()).levenshtein
        expected = levenshtein_similarity(left, right)
        assert memo(left, right) == memo(left, right) == expected
        assert memo.cache_info().hits == 1

    @pytest.mark.parametrize("left,right", VALUE_PAIRS)
    def test_monge_elkan_core_agrees(self, left, right):
        left_tokens = tuple(left.split()[:12])
        right_tokens = tuple(right.split()[:12])
        memo = PairComparisonCache(ValueFeatureCache()).monge_elkan
        expected = monge_elkan(list(left_tokens), list(right_tokens))
        assert memo(left_tokens, right_tokens) == memo(left_tokens, right_tokens) == expected
        assert memo.cache_info().hits == 1


class TestMemoOwnership:
    """Each featurizer owns its similarity memos; nothing is process-wide."""

    @staticmethod
    def memo_infos(model):
        comparisons = model._featurizer.comparisons
        memos = (comparisons.levenshtein, comparisons.jaro_winkler, comparisons.monge_elkan)
        return [memo.cache_info() for memo in memos]

    def test_clear_featurizer_cache_empties_the_memos(self, workload):
        model = make_model("classical")
        model.featurize(workload)
        assert all(info.currsize > 0 for info in self.memo_infos(model))
        model.clear_featurizer_cache()
        assert [info.currsize for info in self.memo_infos(model)] == [0, 0, 0]

    def test_two_models_share_no_memo_entries(self, workload):
        warm = make_model("classical")
        warm.featurize(workload)
        cold = make_model("classical")
        assert [info.currsize for info in self.memo_infos(cold)] == [0, 0, 0]
        cold.featurize(workload)
        # The second model computes every core itself: same traffic, same misses.
        assert self.memo_infos(cold) == self.memo_infos(warm)


# ------------------------------------------------------------------ accounting


class TestFeaturizerStats:
    def test_arithmetic(self):
        first = FeaturizerStats(value_hits=10, value_misses=2, comparison_hits=5, comparison_misses=1, rows_built=4)
        second = FeaturizerStats(value_hits=25, value_misses=3, comparison_hits=9, comparison_misses=2, rows_built=10)
        delta = second - first
        assert delta == FeaturizerStats(
            value_hits=15, value_misses=1, comparison_hits=4, comparison_misses=1, rows_built=6
        )
        assert first + delta == second

    def test_hit_rates(self):
        assert FeaturizerStats().value_hit_rate == 0.0
        assert FeaturizerStats().comparison_hit_rate == 0.0
        stats = FeaturizerStats(value_hits=3, value_misses=1, comparison_hits=1, comparison_misses=3)
        assert stats.value_hit_rate == 0.75
        assert stats.comparison_hit_rate == 0.25
        assert stats.as_dict()["value_hit_rate"] == 0.75

    def test_model_counters_on_perturbed_workload(self, workload):
        model = make_model("deepmatcher")
        model.featurize(workload)
        stats = model.featurizer_stats
        assert stats is not None
        assert stats.rows_built == len(workload)
        # The pivot side never changes, so value lookups mostly hit.
        assert stats.value_hits > stats.value_misses
        assert stats.comparison_hits > 0

    def test_cache_growth_is_bounded(self, workload):
        """Exceeding max_entries resets the caches generation-style."""
        model = make_model("deepmatcher")
        featurizer = model._featurizer
        featurizer.max_entries = 50
        overflowed = False
        for start in range(0, len(workload), 10):
            model.featurize(workload[start : start + 10])
            size = featurizer.values.size() + featurizer.comparisons.size()
            assert size <= 50  # a call that overflows the cap resets to zero
            overflowed = overflowed or size == 0
        assert overflowed  # the workload is large enough to trip the cap
        # Bounded caches never compromise byte-identity.
        naive = make_model("deepmatcher")
        naive.batched_featurization = False
        assert model.featurize(workload).tobytes() == naive.featurize(workload).tobytes()

    def test_clear_featurizer_cache_forces_recompute(self, workload):
        model = make_model("classical")
        model.featurize(workload)
        misses_before = model.featurizer_stats.comparison_misses
        model.clear_featurizer_cache()
        model.featurize(workload)
        assert model.featurizer_stats.comparison_misses > misses_before

    def test_engine_delegates_featurizer_stats(self, match_pair):
        model = make_model("classical")
        engine = PredictionEngine(model)
        assert engine.featurizer_stats == model.featurizer_stats
        assert PredictionEngine(SimilarityModel()).featurizer_stats is None

    def test_certa_explanation_carries_featurizer_delta(self, ab_dataset, trained_classical):
        model = trained_classical.model
        explainer = CertaExplainer(
            model, ab_dataset.left, ab_dataset.right, num_triangles=4, seed=1
        )
        pair = ab_dataset.test.pairs[0]
        explanation = explainer.explain_full(pair)
        stats = explanation.featurizer_stats
        assert stats is not None
        assert stats.value_hits + stats.value_misses >= 0
        # The engine is the only score cache: each miss is featurised once.
        assert stats.rows_built == explanation.engine_stats.misses

    def test_certa_explanation_without_featurizer_is_none(self, sources, match_pair):
        left, right = sources
        explainer = CertaExplainer(SimilarityModel(), left, right, num_triangles=4, seed=0)
        explanation = explainer.explain_full(match_pair)
        assert explanation.featurizer_stats is None
