"""Model zoo and training helpers used by examples, tests and benchmarks.

The paper evaluates every explanation method against three matchers (DeepER,
DeepMatcher, Ditto) on every dataset.  :func:`train_model` /
:func:`train_model_zoo` centralise model construction and training so that the
evaluation harness, the benchmarks and the examples all train matchers the
same way, and :class:`ModelCache` memoises trained matchers across experiments
(training the same model twice per table would dominate benchmark runtime).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.data.artifacts import ArtifactStore, dataset_fingerprint, default_store
from repro.data.dataset import ERDataset
from repro.exceptions import ModelError
from repro.models.base import ERModel, TrainingReport
from repro.models.classical import ClassicalMatcher
from repro.models.deeper import DeepERModel
from repro.models.deepmatcher import DeepMatcherModel
from repro.models.ditto import DittoModel

#: The three matchers the paper evaluates, in the order of its tables.
PAPER_MODEL_NAMES = ("deeper", "deepmatcher", "ditto")

MODEL_FACTORIES: dict[str, Callable[..., ERModel]] = {
    "deeper": DeepERModel,
    "deepmatcher": DeepMatcherModel,
    "ditto": DittoModel,
    "classical": ClassicalMatcher,
}


def make_model(name: str, **overrides) -> ERModel:
    """Instantiate an untrained matcher by name (``deeper`` / ``deepmatcher`` /
    ``ditto`` / ``classical``)."""
    try:
        factory = MODEL_FACTORIES[name.lower()]
    except KeyError as exc:
        raise ModelError(f"unknown model name {name!r}; available: {sorted(MODEL_FACTORIES)}") from exc
    return factory(**overrides)


@dataclass
class TrainedModel:
    """A trained matcher together with its training report and test metrics."""

    model: ERModel
    report: TrainingReport
    test_metrics: dict[str, float]

    @property
    def name(self) -> str:
        return self.model.name


def train_model(
    model_name: str,
    dataset: ERDataset,
    fast: bool = False,
    cache_predictions: bool | None = None,
    **overrides,
) -> TrainedModel:
    """Train one matcher on one dataset and evaluate it on the test split.

    ``fast=True`` reduces the number of epochs, which benchmarks use when the
    point of the experiment is the explainer rather than matcher quality.
    ``cache_predictions`` is accepted and ignored, so callers written when
    models memoised their own scores keep working: scores are memoised only
    by a :class:`~repro.models.engine.PredictionEngine`.
    """
    if fast and "epochs" not in overrides:
        overrides["epochs"] = 35
    model = make_model(model_name, **overrides)
    report = model.fit(dataset.train, dataset.valid)
    test_metrics = model.evaluate(dataset.test.pairs) if len(dataset.test) else {}
    return TrainedModel(model=model, report=report, test_metrics=test_metrics)


def train_model_zoo(
    dataset: ERDataset,
    model_names: Sequence[str] = PAPER_MODEL_NAMES,
    fast: bool = False,
) -> dict[str, TrainedModel]:
    """Train all requested matchers on one dataset."""
    return {name: train_model(name, dataset, fast=fast) for name in model_names}


@dataclass
class ModelCache:
    """Memoises trained matchers per (dataset content fingerprint, model, fast) key.

    Safe to share across a caller's threads: a per-key event guarantees each
    matcher is trained exactly once while letting *different* (model,
    dataset) keys train concurrently.  Process-pool workers don't share the
    cache at all — each builds its own (training is deterministic, so
    worker-trained matchers score identically).

    With an :class:`~repro.data.artifacts.ArtifactStore` attached (explicitly
    or via ``REPRO_ARTIFACT_DIR``), a matcher trained in *any* earlier
    process on byte-identical inputs — validated through
    :func:`~repro.data.artifacts.dataset_fingerprint`, which hashes both
    sources' content and every split — is warm-loaded instead of retrained.
    Training is deterministic, so a loaded matcher scores exactly like a
    freshly trained one (the equivalence pinned by
    ``tests/test_artifact_store.py``).
    """

    fast: bool = True
    artifact_store: ArtifactStore | None = None
    _cache: dict[tuple[str, str, bool], TrainedModel] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    _pending: dict[tuple[str, str, bool], threading.Event] = field(default_factory=dict, repr=False, compare=False)

    def get(self, model_name: str, dataset: ERDataset) -> TrainedModel:
        """Return a trained matcher, loading or training it on first request.

        The memo key includes the dataset's content fingerprint, so a dataset
        mutated through the ``DataSource`` lifecycle API (or rebuilt under
        the same name with different records) trains a fresh matcher instead
        of silently reusing one fitted to the old data.
        """
        digest = dataset_fingerprint(dataset)
        key = (digest, model_name, self.fast)
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    return cached
                pending = self._pending.get(key)
                if pending is None:
                    # This thread trains; others wait on the event below.
                    self._pending[key] = threading.Event()
                    break
            pending.wait()
        try:
            trained = self._load_or_train(model_name, dataset, digest)
            with self._lock:
                self._cache[key] = trained
            return trained
        finally:
            with self._lock:
                self._pending.pop(key).set()

    def _resolve_store(self) -> ArtifactStore | None:
        """The attached store, else the process-wide ``REPRO_ARTIFACT_DIR`` one."""
        return self.artifact_store if self.artifact_store is not None else default_store()

    def _load_or_train(self, model_name: str, dataset: ERDataset, digest: str) -> TrainedModel:
        store = self._resolve_store()
        if store is not None:
            loaded = self._load_trained(store, model_name, digest)
            if loaded is not None:
                store.model_loads += 1
                return loaded
            store.model_misses += 1
        trained = train_model(model_name, dataset, fast=self.fast)
        if store is not None:
            self._save_trained(store, trained, model_name, digest)
        return trained

    def _load_trained(
        self, store: ArtifactStore, model_name: str, digest: str
    ) -> TrainedModel | None:
        """A persisted trained matcher for this exact (model, data) input, or None.

        Any validation or deserialisation failure degrades to retraining —
        a skewed or corrupt model artifact is never trusted.  A directory
        whose ``trained.json`` validated but whose weights, config or
        metadata fail to load is corrupt: it is quarantined, so the retrain
        writes a clean directory and the bad bytes stay diagnosable.
        """
        from repro.models.persistence import load_model  # local: persistence imports us

        directory = store.model_dir(model_name, self.fast, digest)
        metadata = store.load_model_metadata(directory, digest)
        if metadata is None:
            return None
        try:
            model = load_model(directory)
            report = TrainingReport(**metadata["report"])
            test_metrics = {
                str(name): float(value) for name, value in metadata["test_metrics"].items()
            }
        except Exception:  # repro-lint: disable=EXC002 -- recovery contract: any load/deserialisation failure (corrupt weights, skewed metadata) quarantines the directory and degrades to retraining; a persisted model is never trusted over a rebuild
            store._quarantine(directory)
            return None
        model.training_report = report
        return TrainedModel(model=model, report=report, test_metrics=test_metrics)

    def _save_trained(
        self, store: ArtifactStore, trained: TrainedModel, model_name: str, digest: str
    ) -> None:
        from repro.models.persistence import save_model  # local: persistence imports us

        directory = store.model_dir(model_name, self.fast, digest)

        def persist() -> None:
            save_model(trained.model, directory)
            store.save_model_metadata(
                directory,
                {
                    "model_name": model_name,
                    "fast": self.fast,
                    "dataset_fingerprint": digest,
                    "report": trained.report.as_dict(),
                    "test_metrics": trained.test_metrics,
                },
            )

        # Routed through the store's degrade guard: a full or read-only disk
        # costs the persisted weights, never the freshly trained model.
        if store._guarded_write(persist):
            store.model_saves += 1

    def clear(self) -> None:
        """Drop all cached models."""
        with self._lock:
            self._cache.clear()


#: Library-wide shared cache used by the benchmark harness.
SHARED_MODEL_CACHE = ModelCache(fast=True)
