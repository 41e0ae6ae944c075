"""Model zoo and training helpers used by examples, tests and benchmarks.

The paper evaluates every explanation method against three matchers (DeepER,
DeepMatcher, Ditto) on every dataset.  :func:`train_model` /
:func:`train_model_zoo` centralise model construction and training so that the
evaluation harness, the benchmarks and the examples all train matchers the
same way, and :class:`ModelCache` memoises trained matchers across experiments
(training the same model twice per table would dominate benchmark runtime).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def _dataset_fingerprint(dataset: ERDataset) -> str:
    """Digest of everything training consumes from ``dataset``.

    Covers both sources' content hashes and the id/label structure of every
    split, so a source mutated through the ``DataSource`` lifecycle API gets
    a new digest.
    """
    payload = {
        "name": dataset.name,
        "left": dataset.left.content_hash(),
        "right": dataset.right.content_hash(),
        "splits": {
            split.name: [
                [pair.left.record_id, pair.right.record_id, bool(pair.label)]
                for pair in split.pairs
            ]
            for split in (dataset.train, dataset.valid, dataset.test)
        },
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class ModelCache:
    """Memoises trained matchers per (dataset content fingerprint, model, fast) key.

    ``get`` trains under the cache's lock, so callers sharing a cache across
    threads run one at a time and each key trains once.  Process-pool
    workers don't share the cache at all — each builds its own (training is
    deterministic, so worker-trained matchers score identically).
    """

    fast: bool = True
    _cache: dict[tuple[str, str, bool], TrainedModel] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def get(self, model_name: str, dataset: ERDataset) -> TrainedModel:
        """Return a trained matcher, training it on first request.

        The memo key includes the dataset's content fingerprint, so a dataset
        mutated through the ``DataSource`` lifecycle API (or rebuilt under
        the same name with different records) trains a fresh matcher instead
        of silently reusing one fitted to the old data.
        """
        key = (_dataset_fingerprint(dataset), model_name, self.fast)
        with self._lock:
            trained = self._cache.get(key)
            if trained is None:
                trained = self._cache[key] = train_model(model_name, dataset, fast=self.fast)
            return trained

    def clear(self) -> None:
        """Drop all cached models."""
        with self._lock:
            self._cache.clear()
