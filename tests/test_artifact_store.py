"""Property-style tests for the persistent artifact store (repro.data.artifacts).

The contract: a warm-loaded trained matcher scores **byte-identically** to
the one training produced, and any model artifact that cannot be *proved*
safe (corrupt, truncated, version-skewed, fingerprint-mismatched) is
retrained, never silently reused.  Saved datasets round-trip through
``save_dataset`` / ``load_dataset`` with their content hashes verified.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import artifacts as artifacts_module
from repro.data.artifacts import (
    ARTIFACT_DIR_ENV,
    ArtifactStore,
    dataset_fingerprint,
    default_store,
)
from repro.data.blocking import top_k_neighbours
from repro.data.indexing import get_source_index
from repro.data.io import load_dataset, save_dataset
from repro.models import training as training_module
from repro.models.training import ModelCache

from tests.helpers import make_record, toy_dataset


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def _scan_ids(query, source, k=None):
    return [r.record_id for r in top_k_neighbours(query, list(source), k=k, indexed=False)]


class TestTrainedModelRoundTrip:
    def test_second_process_loads_instead_of_training(self, store, ab_dataset, monkeypatch):
        warm_cache = ModelCache(fast=True, artifact_store=store)
        first = warm_cache.get("classical", ab_dataset)
        scores = first.model.predict_proba(ab_dataset.test.pairs[:10])
        assert store.stats.model_saves == 1

        def boom(*args, **kwargs):  # a warm start must never reach training
            raise AssertionError("train_model called despite a valid artifact")

        monkeypatch.setattr(training_module, "train_model", boom)
        fresh_cache = ModelCache(fast=True, artifact_store=store)
        second = fresh_cache.get("classical", ab_dataset)
        assert np.array_equal(second.model.predict_proba(ab_dataset.test.pairs[:10]), scores)
        assert second.report.as_dict() == first.report.as_dict()
        assert second.test_metrics == first.test_metrics
        assert store.stats.model_loads == 1

    def test_dataset_change_invalidates_the_model_artifact(self, store, ab_dataset):
        cache = ModelCache(fast=True, artifact_store=store)
        cache.get("classical", ab_dataset)
        mutated = toy_dataset()
        assert dataset_fingerprint(mutated) != dataset_fingerprint(ab_dataset)
        cache2 = ModelCache(fast=True, artifact_store=store)
        cache2.get("classical", mutated)
        assert store.stats.model_misses == 2  # cold start for each distinct input

    def test_mutated_dataset_retrains_in_the_same_process(self, monkeypatch):
        """The in-memory memo is fingerprint-keyed: a lifecycle mutation must
        retrain rather than serve the matcher fitted to the old data."""
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

    def test_fast_flag_keys_separate_artifacts(self, store, ab_dataset):
        digest = dataset_fingerprint(ab_dataset)
        assert store.model_dir("classical", True, digest) != store.model_dir("classical", False, digest)

    def test_corrupt_model_metadata_falls_back_to_training(self, store, ab_dataset):
        cache = ModelCache(fast=True, artifact_store=store)
        cache.get("classical", ab_dataset)
        directory = store.model_dir("classical", True, dataset_fingerprint(ab_dataset))
        (directory / "trained.json").write_text("{not json", encoding="utf-8")
        cache2 = ModelCache(fast=True, artifact_store=store)
        trained = cache2.get("classical", ab_dataset)  # must retrain, not raise
        assert trained.model.is_fitted
        assert store.stats.model_saves == 2  # the retrain re-persisted the artifact

    def test_unloadable_weights_are_quarantined_and_retrained(self, store):
        """``trained.json`` validates but the weights do not load: the
        directory is moved aside as evidence, never silently overwritten."""
        dataset = toy_dataset()
        first = ModelCache(fast=True, artifact_store=store).get("classical", dataset)
        directory = store.model_dir("classical", True, dataset_fingerprint(dataset))
        (directory / "weights.npz").write_bytes(b"\x00not an npz archive")
        second = ModelCache(fast=True, artifact_store=store).get("classical", dataset)
        pairs = dataset.test.pairs
        assert np.array_equal(second.model.predict_proba(pairs), first.model.predict_proba(pairs))
        assert store.stats.quarantined == 1
        (evidence,) = directory.parent.glob(f"{directory.name}.corrupt-*")
        assert (evidence / "weights.npz").read_bytes() == b"\x00not an npz archive"
        assert (directory / "trained.json").exists()  # the retrain wrote a clean artifact


class TestDatasetWiring:
    def test_save_load_dataset_round_trip_warm_loads(self, tmp_path):
        dataset = toy_dataset()
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        for original, reloaded in ((dataset.left, loaded.left), (dataset.right, loaded.right)):
            assert reloaded.ids() == original.ids()
            assert reloaded.content_hash() == original.content_hash()
        assert dataset_fingerprint(loaded) == dataset_fingerprint(dataset)
        index = get_source_index(loaded.left, 2)
        query = loaded.right.get("R0")
        assert [r.record_id for r in index.top_k(query, k=None)] == _scan_ids(query, loaded.left)
        assert index.builds == 1

    def test_tampered_table_fails_hash_verification(self, store, tmp_path):
        save_dataset(toy_dataset(), tmp_path / "ds")
        table = tmp_path / "ds" / "tableA.csv"
        table.write_text(table.read_text(encoding="utf-8").replace("sony", "pony"), encoding="utf-8")
        from repro.exceptions import DatasetError

        with pytest.raises(DatasetError, match="content hash"):
            load_dataset(tmp_path / "ds")

    def test_metadata_without_hashes_loads_unverified(self, tmp_path):
        """Pre-artifact-store datasets (original benchmark layout) still load."""
        save_dataset(toy_dataset(), tmp_path / "ds")
        metadata_path = tmp_path / "ds" / "metadata.json"
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        del metadata["content_hashes"]
        metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
        table = tmp_path / "ds" / "tableA.csv"
        table.write_text(table.read_text(encoding="utf-8").replace("sony", "pony"), encoding="utf-8")
        loaded = load_dataset(tmp_path / "ds")  # no hashes recorded: nothing to verify
        assert "pony bravia theater" in {r.value("name") for r in loaded.left}


class TestStoreInfrastructure:
    def test_stats_as_dict_round_trip(self, store):
        store.model_loads, store.model_saves = 3, 2
        view = store.stats.as_dict()
        assert view["model_loads"] == 3 and view["model_saves"] == 2
        assert set(view) == {"model_loads", "model_saves", "model_misses", "quarantined"}

    def test_default_store_reads_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ARTIFACT_DIR_ENV, raising=False)
        assert default_store() is None
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "env-store"))
        try:
            store = default_store()
            assert store is not None
            assert store is default_store()  # memoised per directory
            assert store.directory == tmp_path / "env-store"
        finally:
            artifacts_module._DEFAULT_STORES.clear()

    def test_atomic_writes_leave_no_temp_files(self, store):
        ModelCache(fast=True, artifact_store=store).get("classical", toy_dataset())
        assert store.stats.model_saves == 1
        leftovers = [path for path in store.directory.rglob(".*") if path.is_file()]
        assert leftovers == []
