"""Artifact store demo: persist a trained matcher, warm-load it back.

Run with::

    python examples/artifact_store_demo.py

Training a matcher is the one step of a CERTA sweep's warm-up that costs more
to redo than to read back.  The artifact store persists trained weights keyed
by a **dataset fingerprint** — both sources' content hashes plus every
split — so the *next* process loads the matcher instead of retraining whenever
training would have seen byte-identical inputs.  (Token indexes and
featurisation caches are rebuilt in memory: at paper scale that costs
milliseconds.)  This script walks the lifecycle in one process:

1. train a matcher through a store-backed ``ModelCache``;
2. rebuild the cache as a "fresh process" would and show the matcher loading
   instead of retraining, with byte-identical scores;
3. mutate a source through the lifecycle API (``update``) and show the
   fingerprint moving, so the stale weights are not reused.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.data.artifacts import ArtifactStore, dataset_fingerprint
from repro.data.registry import load_benchmark
from repro.models.training import ModelCache


def main() -> None:
    with tempfile.TemporaryDirectory() as tempdir:
        store = ArtifactStore(Path(tempdir) / "artifacts")
        dataset = load_benchmark("AB", scale=0.5)

        # -- 1. train once; the store persists the weights ------------------
        start = time.perf_counter()
        trained = ModelCache(fast=True, artifact_store=store).get("deepmatcher", dataset)
        train_seconds = time.perf_counter() - start
        print(f"trained in {train_seconds:.2f}s, store counters: {store.stats.as_dict()}")

        # -- 2. a "fresh process" loads instead of retraining ----------------
        start = time.perf_counter()
        loaded = ModelCache(fast=True, artifact_store=store).get("deepmatcher", dataset)
        load_seconds = time.perf_counter() - start
        sample = dataset.test.pairs[:8]
        identical = (
            trained.model.predict_proba(sample).tolist()
            == loaded.model.predict_proba(sample).tolist()
        )
        assert identical, "a loaded matcher must score exactly like the trained one"
        print(
            f"loaded in {load_seconds * 1000:.0f} ms, scores identical: {identical}, "
            f"model_loads={store.stats.model_loads}"
        )

        # -- 3. a mutation moves the fingerprint: no stale reuse -------------
        before = dataset_fingerprint(dataset)
        victim = dataset.left.records[0]
        dataset.left.update(
            victim.replace_values({dataset.left.schema.attributes[0]: "renamed entity"}, suffix="")
        )
        assert dataset_fingerprint(dataset) != before
        ModelCache(fast=True, artifact_store=store).get("deepmatcher", dataset)
        print(
            f"after update(): fingerprint moved, model_misses={store.stats.model_misses} "
            f"model_saves={store.stats.model_saves} (retrained, old weights untouched)"
        )


if __name__ == "__main__":
    main()
