"""ER matchers: the black boxes that CERTA and the baselines explain."""

from repro.models.base import MATCH_THRESHOLD, ERModel, TrainingReport
from repro.models.classical import ClassicalMatcher
from repro.models.engine import EngineStats, PredictionEngine, pair_cache_key
from repro.models.deeper import DeepERModel
from repro.models.deepmatcher import DeepMatcherModel
from repro.models.ditto import DittoModel
from repro.models.featurizer import (
    AttributePairFeaturizer,
    ComparisonPairFeaturizer,
    FeaturizerStats,
    PairComparisonCache,
    PairFeaturizer,
    RecordPairFeaturizer,
    SerializedPairFeaturizer,
)
from repro.models.metrics import (
    accuracy_score,
    classification_report,
    confusion_counts,
    f1_score,
    precision_score,
    recall_score,
)
from repro.models.persistence import load_model, save_model
from repro.models.training import (
    MODEL_FACTORIES,
    PAPER_MODEL_NAMES,
    ModelCache,
    SHARED_MODEL_CACHE,
    TrainedModel,
    make_model,
    train_model,
    train_model_zoo,
)

__all__ = [
    "AttributePairFeaturizer",
    "ClassicalMatcher",
    "ComparisonPairFeaturizer",
    "DeepERModel",
    "DeepMatcherModel",
    "DittoModel",
    "ERModel",
    "EngineStats",
    "FeaturizerStats",
    "MATCH_THRESHOLD",
    "MODEL_FACTORIES",
    "ModelCache",
    "PAPER_MODEL_NAMES",
    "PairComparisonCache",
    "PairFeaturizer",
    "PredictionEngine",
    "RecordPairFeaturizer",
    "SerializedPairFeaturizer",
    "SHARED_MODEL_CACHE",
    "TrainedModel",
    "TrainingReport",
    "accuracy_score",
    "classification_report",
    "confusion_counts",
    "f1_score",
    "load_model",
    "make_model",
    "pair_cache_key",
    "precision_score",
    "recall_score",
    "save_model",
    "train_model",
    "train_model_zoo",
]
