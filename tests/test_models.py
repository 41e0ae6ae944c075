"""Tests for the ER matchers: base API, featurisation, training, persistence."""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.data.dataset import PairSplit
from repro.exceptions import ModelError, NotFittedError
from repro.models.base import MATCH_THRESHOLD
from repro.models.classical import ClassicalMatcher
from repro.models.deeper import DeepERModel
from repro.models.deepmatcher import DeepMatcherModel
from repro.models.ditto import DittoModel
from repro.models.engine import pair_cache_key
from repro.models.features import (
    aligned_attribute_pairs,
    attribute_comparison_vector,
    serialize_pair,
)
from repro.models import training as training_module
from repro.models.persistence import load_model, save_model
from repro.models.training import (
    MODEL_FACTORIES,
    ModelCache,
    make_model,
    train_model,
    train_model_zoo,
)

from tests.helpers import make_record, toy_dataset

ALL_MODELS = sorted(MODEL_FACTORIES)


class TestFeaturisation:
    def test_aligned_attribute_pairs_width(self, match_pair):
        aligned = aligned_attribute_pairs(match_pair)
        assert len(aligned) == 3
        assert aligned[0][0] == "name"

    def test_attribute_comparison_vector_bounds(self):
        vector = attribute_comparison_vector("sony bravia", "sony bravia theater")
        assert vector.shape == (7,)
        assert np.all(vector >= 0.0) and np.all(vector <= 1.0)

    def test_attribute_comparison_missing_flags(self):
        vector = attribute_comparison_vector("", "sony")
        assert vector[5] == 1.0  # left missing
        assert vector[6] == 0.0

    def test_serialize_pair_mentions_columns_and_values(self, match_pair):
        left_text, right_text = serialize_pair(match_pair)
        assert "COL name VAL" in left_text
        assert "COL price VAL" in right_text

    def test_serialize_pair_marks_missing_as_null(self, match_pair):
        masked = match_pair.with_left(match_pair.left.mask(["price"]))
        left_text, _ = serialize_pair(masked)
        assert "COL price VAL NULL" in left_text


class TestModelTrainingApi:
    @pytest.fixture(scope="class")
    def trained_toy_models(self):
        dataset = toy_dataset()
        trained = {}
        for name in ("classical", "deeper"):
            model = make_model(name, epochs=30)
            model.fit(dataset.train, dataset.valid)
            trained[name] = model
        return dataset, trained

    def test_predict_before_fit_raises(self):
        model = DeepERModel()
        with pytest.raises(NotFittedError):
            model.predict_pair(toy_dataset().test.pairs[0])

    def test_fit_empty_training_set_raises(self):
        model = ClassicalMatcher()
        with pytest.raises(ModelError):
            model.fit([])

    def test_fit_unlabelled_pairs_raises(self, labelled_pairs):
        model = ClassicalMatcher()
        unlabelled = [pair.with_label(None) for pair in labelled_pairs]
        with pytest.raises(ModelError):
            model.fit(unlabelled)

    def test_scores_are_probabilities(self, trained_toy_models):
        dataset, trained = trained_toy_models
        for model in trained.values():
            scores = model.predict_proba(dataset.test.pairs)
            assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_predict_matches_threshold(self, trained_toy_models):
        dataset, trained = trained_toy_models
        model = trained["classical"]
        scores = model.predict_proba(dataset.test.pairs)
        decisions = model.predict(dataset.test.pairs)
        assert np.array_equal(decisions, scores > MATCH_THRESHOLD)

    def test_similar_pair_scores_higher_than_dissimilar(self, trained_toy_models):
        dataset, trained = trained_toy_models
        model = trained["classical"]
        match = dataset.train.positives()[0]
        non_match = dataset.train.negatives()[-1]
        assert model.predict_pair(match) > model.predict_pair(non_match)

    def test_cache_key_ignores_record_ids(self, match_pair):
        renamed = match_pair.with_left(
            match_pair.left.replace_values({}, suffix="-renamed")
        )
        assert pair_cache_key(match_pair) == pair_cache_key(renamed)

    def test_evaluate_reports_f1(self, trained_toy_models):
        dataset, trained = trained_toy_models
        metrics = trained["classical"].evaluate(dataset.all_pairs())
        assert 0.0 <= metrics["f1"] <= 1.0

    def test_evaluate_requires_labels(self, trained_toy_models):
        dataset, trained = trained_toy_models
        unlabelled = [pair.with_label(None) for pair in dataset.test.pairs]
        with pytest.raises(ModelError):
            trained["classical"].evaluate(unlabelled)

    def test_training_report_fields(self, trained_toy_models):
        _, trained = trained_toy_models
        report = trained["classical"].training_report
        assert report is not None
        assert report.train_pairs == 6
        assert 0.0 <= report.train_f1 <= 1.0
        assert report.as_dict()["model_name"] == "classical"


class TestModelZoo:
    def test_make_model_unknown_name(self):
        with pytest.raises(ModelError):
            make_model("bogus")

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_every_factory_builds_a_model(self, name):
        model = make_model(name)
        assert model.name == name
        assert not model.is_fitted

    def test_train_model_on_benchmark(self, ab_dataset, trained_classical):
        assert trained_classical.model.is_fitted
        assert trained_classical.test_metrics["f1"] > 0.6

    def test_deepmatcher_learns_benchmark(self, trained_deepmatcher):
        assert trained_deepmatcher.test_metrics["f1"] > 0.7

    def test_train_model_zoo_returns_all(self):
        dataset = toy_dataset()
        zoo = train_model_zoo(dataset, model_names=("classical",), fast=True)
        assert set(zoo) == {"classical"}

    def test_model_cache_memoises(self, ab_dataset):
        cache = ModelCache(fast=True)
        first = cache.get("classical", ab_dataset)
        second = cache.get("classical", ab_dataset)
        assert first is second
        cache.clear()
        assert cache.get("classical", ab_dataset) is not first

    def test_racing_gets_on_one_key_train_once(self, monkeypatch):
        trainings = []
        original = training_module.train_model

        def slow_train(model_name, dataset, **kwargs):
            trainings.append(model_name)
            time.sleep(0.05)  # hold the first training open while the rest race
            return original(model_name, dataset, **kwargs)

        monkeypatch.setattr(training_module, "train_model", slow_train)
        dataset = toy_dataset()
        cache = ModelCache(fast=True)
        threads = 8
        barrier = threading.Barrier(threads)
        results: list[object] = [None] * threads

        def racer(slot: int) -> None:
            barrier.wait()
            results[slot] = cache.get("classical", dataset)

        workers = [threading.Thread(target=racer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        assert trainings == ["classical"]
        assert results[0] is not None
        assert all(result is results[0] for result in results)

    def test_mutated_dataset_retrains_in_the_same_process(self, monkeypatch):
        """The memo is fingerprint-keyed: a lifecycle mutation must retrain
        rather than serve the matcher fitted to the old data."""
        trainings = []
        original = training_module.train_model

        def counting_train(model_name, dataset, **kwargs):
            trainings.append(model_name)
            return original(model_name, dataset, **kwargs)

        monkeypatch.setattr(training_module, "train_model", counting_train)
        dataset = toy_dataset()
        cache = ModelCache(fast=True)
        cache.get("classical", dataset)
        cache.get("classical", dataset)
        assert trainings == ["classical"]  # memo hit while the data is unchanged
        dataset.left.update(
            make_record("L0", "sony bravia theater", "a very different description", "199.99")
        )
        cache.get("classical", dataset)
        assert trainings == ["classical", "classical"]  # mutation forces retraining


class TestDittoAugmentation:
    def test_augmentation_preserves_labels(self):
        dataset = toy_dataset()
        model = DittoModel(epochs=5, augmentation_copies=2)
        augmented = model._augment(dataset.train.pairs)
        assert len(augmented) == 2 * len(dataset.train.pairs)
        assert all(pair.label is not None for pair in augmented)

    def test_ditto_trains_and_predicts(self):
        dataset = toy_dataset()
        model = DittoModel(epochs=20, hash_features=32)
        model.fit(dataset.train, dataset.valid)
        scores = model.predict_proba(dataset.test.pairs)
        assert scores.shape == (len(dataset.test),)


class TestPersistence:
    def test_save_and_load_give_same_predictions(self, tmp_path, trained_classical, ab_dataset):
        model = trained_classical.model
        directory = save_model(model, tmp_path / "model")
        restored = load_model(directory)
        pairs = ab_dataset.test.pairs[:10]
        assert np.allclose(model.predict_proba(pairs), restored.predict_proba(pairs), atol=1e-9)

    def test_atomic_writes_leave_no_temp_files(self, tmp_path, trained_classical):
        save_model(trained_classical.model, tmp_path / "model")
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "config.json", "model", "weights.npz",
        ]

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_pickle_round_trip_scores_identically(self, name):
        dataset = toy_dataset()
        model = make_model(name, epochs=5)
        model.fit(dataset.train, dataset.valid)
        pairs = dataset.test.pairs
        scores = model.predict_proba(pairs)  # warms the featurizer and its memos
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict_proba(pairs).tobytes() == scores.tobytes()

    def test_save_unfitted_model_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(ClassicalMatcher(), tmp_path / "nope")

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "missing")


class TestPaperModels:
    @pytest.mark.parametrize("factory", [DeepERModel, DeepMatcherModel])
    def test_models_fit_toy_data(self, factory):
        dataset = toy_dataset()
        model = factory(epochs=25)
        report = model.fit(dataset.train, dataset.valid)
        assert report.epochs > 0
        match = dataset.train.positives()[0]
        assert 0.0 <= model.predict_pair(match) <= 1.0

    def test_fit_accepts_pair_split_or_sequence(self):
        dataset = toy_dataset()
        model = ClassicalMatcher(epochs=10)
        model.fit(list(dataset.train.pairs))
        assert model.is_fitted
