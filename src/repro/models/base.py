"""The black-box ER model interface shared by matchers and explainers.

Every explanation method in this library (CERTA and all baselines) treats the
matcher as a black box exposing a single operation: *given a record pair,
return a matching score in [0, 1]*.  :class:`ERModel` fixes that contract and
provides the shared training loop used by the concrete DeepER / DeepMatcher /
Ditto stand-ins.  A model does not memoise scores: explainers evaluate
thousands of perturbed copies of the same few records through a
:class:`~repro.models.engine.PredictionEngine`, the one score cache, and the
model's featurizer caches the value and value-pair work below it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.dataset import PairSplit
from repro.data.records import RecordPair
from repro.exceptions import ModelError, NotFittedError
from repro.models.featurizer import FeaturizerStats, PairFeaturizer
from repro.models.metrics import classification_report
from repro.models.nn.network import MLPClassifier

#: Matching threshold used throughout the paper: score > 0.5 means Match.
MATCH_THRESHOLD = 0.5


class PredictionMixin:
    """Single-pair scores and match decisions on top of ``predict_proba``.

    Every scorer in the library (the models, the prediction engine and the
    serving wrappers around it) defines ``predict_proba`` and inherits these,
    so each call goes through its ``predict_proba`` and the decision rule
    (score > :data:`MATCH_THRESHOLD`) is written once.
    """

    def predict_pair(self, pair: RecordPair) -> float:
        """Matching score of a single pair."""
        return float(self.predict_proba([pair])[0])

    def predict(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Boolean match decisions (score > 0.5)."""
        return self.predict_proba(pairs) > MATCH_THRESHOLD

    def predict_match(self, pair: RecordPair) -> bool:
        """Boolean match decision for a single pair."""
        return self.predict_pair(pair) > MATCH_THRESHOLD


@dataclass
class TrainingReport:
    """Summary of one training run of an ER model."""

    model_name: str
    epochs: int
    final_loss: float
    train_f1: float
    valid_f1: float
    train_pairs: int
    valid_pairs: int

    def as_dict(self) -> dict[str, float | int | str]:
        """Plain dictionary view for logging / serialisation."""
        return {
            "model_name": self.model_name,
            "epochs": self.epochs,
            "final_loss": self.final_loss,
            "train_f1": self.train_f1,
            "valid_f1": self.valid_f1,
            "train_pairs": self.train_pairs,
            "valid_pairs": self.valid_pairs,
        }


class ERModel(PredictionMixin, ABC):
    """Abstract base class for binary ER matchers with probability outputs.

    Subclasses implement :meth:`_featurize_pair` (and optionally
    :meth:`_prepare`, called once before featurising the training set).  The
    base class owns the MLP head and the training loop; scoring is
    featurisation plus one forward pass, with no score cache.
    """

    name = "er-model"

    def __init__(
        self,
        hidden_dims: Sequence[int] = (32, 16),
        epochs: int = 80,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        seed: int = 0,
        batched_featurization: bool = True,
    ) -> None:
        self.hidden_dims = tuple(hidden_dims)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.dropout = dropout
        self.seed = seed
        self.batched_featurization = batched_featurization
        self._classifier: MLPClassifier | None = None
        #: Set by subclasses that support batched, content-cached featurisation.
        self._featurizer: PairFeaturizer | None = None
        self.training_report: TrainingReport | None = None

    # ------------------------------------------------------------ subclass API

    @abstractmethod
    def _featurize_pair(self, pair: RecordPair) -> np.ndarray:
        """Turn one record pair into a fixed-width numeric feature vector."""

    def _prepare(self, pairs: Sequence[RecordPair]) -> None:
        """Hook: fit any featurisation state (vocabularies, IDF weights, ...)."""

    # -------------------------------------------------------------- featurising

    def featurize(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Feature matrix for a sequence of pairs.

        With ``batched_featurization=True`` (the default) and a subclass that
        installed a featurizer, rows are assembled from content-cached
        per-value artifacts; otherwise each pair goes through
        :meth:`_featurize_pair`.  Both paths produce byte-identical matrices
        (the golden equivalence of ``tests/test_featurizer.py``), so the flag
        exists for measurement, not behaviour.
        """
        if not pairs:
            raise ModelError(f"{self.name}: cannot featurize an empty pair sequence")
        if self.batched_featurization and self._featurizer is not None:
            return self._featurizer.featurize(pairs)
        return np.vstack([self._featurize_pair(pair) for pair in pairs])

    @property
    def featurizer_stats(self) -> FeaturizerStats | None:
        """Cache counters of the featurisation layer (None when unsupported)."""
        return self._featurizer.stats if self._featurizer is not None else None

    def clear_featurizer_cache(self) -> None:
        """Drop the featurisation caches (used for cold-start measurements)."""
        if self._featurizer is not None:
            self._featurizer.clear()

    def evict_featurizer_values(self, values) -> int:
        """Drop featurisation-cache entries for retired value strings.

        The streaming counterpart of :meth:`clear_featurizer_cache`: feed it
        the ``retired_values`` journalled by ``DataSource`` mutations (e.g.
        ``DataSource.retired_values_since``) and only the artifacts no live
        record can reach are dropped.  Returns the
        number of entries evicted (0 when featurisation is unsupported).
        """
        if self._featurizer is None:
            return 0
        return self._featurizer.evict_values(values)

    # ----------------------------------------------------------------- training

    def fit(self, train: PairSplit | Sequence[RecordPair], valid: PairSplit | Sequence[RecordPair] | None = None) -> TrainingReport:
        """Train the matcher on labelled pairs and report train/valid F1."""
        train_pairs = list(train.pairs if isinstance(train, PairSplit) else train)
        valid_pairs = list(valid.pairs if isinstance(valid, PairSplit) else (valid or []))
        if not train_pairs:
            raise ModelError(f"{self.name}: training set is empty")
        labels = np.array(
            [1.0 if pair.label else 0.0 for pair in train_pairs], dtype=np.float64
        )
        if any(pair.label is None for pair in train_pairs):
            raise ModelError(f"{self.name}: all training pairs must be labelled")

        self._prepare(train_pairs)
        features = self.featurize(train_pairs)
        self._classifier = MLPClassifier(
            input_dim=features.shape[1],
            hidden_dims=self.hidden_dims,
            dropout=self.dropout,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )
        validation = None
        valid_features = None
        valid_labels = None
        if valid_pairs:
            valid_features = self.featurize(valid_pairs)
            valid_labels = np.array([1.0 if pair.label else 0.0 for pair in valid_pairs])
            validation = (valid_features, valid_labels)
        history = self._classifier.fit(
            features,
            labels,
            epochs=self.epochs,
            validation=validation,
            patience=12,
        )
        # Training values are mostly one-shot; dropping them keeps the
        # featurisation caches sized by the (small, repetitive) explanation
        # workload instead of the whole training set.
        self.clear_featurizer_cache()

        train_scores = self._classifier.predict_proba(features)
        train_report = classification_report(labels > 0.5, train_scores >= MATCH_THRESHOLD)
        if valid_features is not None and valid_labels is not None:
            valid_scores = self._classifier.predict_proba(valid_features)
            valid_report = classification_report(valid_labels > 0.5, valid_scores >= MATCH_THRESHOLD)
            valid_f1 = valid_report["f1"]
        else:
            valid_f1 = float("nan")
        self.training_report = TrainingReport(
            model_name=self.name,
            epochs=history.epochs,
            final_loss=history.final_loss(),
            train_f1=train_report["f1"],
            valid_f1=valid_f1,
            train_pairs=len(train_pairs),
            valid_pairs=len(valid_pairs),
        )
        return self.training_report

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._classifier is not None

    def _require_fitted(self) -> MLPClassifier:
        if self._classifier is None:
            raise NotFittedError(f"{self.name}: predict called before fit")
        return self._classifier

    # --------------------------------------------------------------- prediction

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Matching scores in [0, 1] for each pair: featurise, then one forward pass.

        Every call scores every pair; wrap the model in a
        :class:`~repro.models.engine.PredictionEngine` to memoise scores.
        """
        classifier = self._require_fitted()
        if not pairs:
            return np.zeros(0, dtype=np.float64)
        return classifier.predict_proba(self.featurize(pairs))

    # ------------------------------------------------------------------ utility

    def evaluate(self, pairs: Sequence[RecordPair]) -> dict[str, float]:
        """Precision / recall / F1 / accuracy against ground-truth labels."""
        labelled = [pair for pair in pairs if pair.label is not None]
        if not labelled:
            raise ModelError(f"{self.name}: evaluate needs labelled pairs")
        truth = np.array([bool(pair.label) for pair in labelled])
        predictions = self.predict(labelled)
        return classification_report(truth, predictions)
