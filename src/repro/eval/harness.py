"""Experiment harness: dataset x model x explainer sweeps for every table/figure.

The benchmark scripts under ``benchmarks/`` are thin wrappers around this
module.  Each public ``*_rows`` method reproduces one experiment of the
paper's Section 5 and returns plain dictionaries (one per table row), so
results can be printed, asserted on in tests, or serialised.

Since PR 2 every experiment is **declarative**: a ``*_units`` method
decomposes the sweep into independent :class:`~repro.eval.runner.WorkUnit`
cells, the harness's :class:`~repro.eval.runner.SweepRunner` executes them
(serially or on a process pool, with optional JSONL checkpointing), and the
``*_rows`` method reduces the unit results into the table's rows.  The
experiment bodies are module-level functions registered by name
(``@experiment_runner``) so units stay picklable; every row carries a
``skipped`` column counting the pairs whose explanation raised
:class:`~repro.exceptions.ExplanationError` instead of silently dropping
them.

Runtime control: the default configuration uses a subset of datasets, scaled-
down synthetic sources, fast-trained matchers and a reduced number of open
triangles so a full sweep finishes in minutes on a laptop.  Set the environment
variable ``REPRO_FULL=1`` (or use :func:`full_config`) to run the complete
12-dataset configuration of the paper.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro import env
from repro.certa.explainer import CertaExplainer, CertaExplanation
from repro.certa.lattice import monotonicity_violations
from repro.certa.perturbation import perturbed_pair
from repro.certa.triangles import find_open_triangles
from repro.data.artifacts import ArtifactStore, default_store
from repro.data.dataset import ERDataset
from repro.data.indexing import IndexStats
from repro.data.records import RecordPair
from repro.data.registry import BENCHMARK_CODES, load_benchmark
from repro.eval.counterfactual_metrics import average_metrics
from repro.eval.runner import SweepResult, SweepRunner, WorkUnit, experiment_runner
from repro.eval.saliency_metrics import (
    actual_saliency,
    aggregate_at_k,
    confidence_indication,
    faithfulness,
    saliency_alignment,
)
from repro.exceptions import EvaluationError, ExplanationError, is_transient
from repro.explain.base import CounterfactualExplainer, SaliencyExplainer
from repro.explain.dice import DiceExplainer
from repro.explain.landmark import LandmarkExplainer
from repro.explain.mojito import MojitoExplainer
from repro.explain.sedc import LimeCExplainer, ShapCExplainer
from repro.explain.shap import ShapExplainer
from repro.models.base import MATCH_THRESHOLD, ERModel
from repro.models.engine import EngineStats
from repro.models.featurizer import FeaturizerStats
from repro.models.training import ModelCache, TrainedModel

#: Saliency baselines of Table 2/3, in the paper's column order.
SALIENCY_METHODS = ("certa", "landmark", "mojito", "shap")
#: Counterfactual baselines of Tables 4-6 and Figure 10.
COUNTERFACTUAL_METHODS = ("certa", "dice", "shap-c", "lime-c")


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs controlling the size (and therefore runtime) of every experiment."""

    datasets: tuple[str, ...] = ("AB", "BA", "FZ", "IA")
    models: tuple[str, ...] = ("deeper", "deepmatcher", "ditto")
    dataset_scale: float = 0.5
    pairs_per_dataset: int = 6
    num_triangles: int = 20
    lime_samples: int = 48
    shap_coalitions: int = 48
    dice_candidates: int = 60
    fast_models: bool = True
    seed: int = 7

    def with_overrides(self, **overrides) -> "HarnessConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)


def full_config() -> HarnessConfig:
    """The paper-scale configuration: all 12 datasets, tau = 100 triangles."""
    return HarnessConfig(
        datasets=BENCHMARK_CODES,
        dataset_scale=1.0,
        pairs_per_dataset=20,
        num_triangles=100,
        lime_samples=128,
        shap_coalitions=150,
        dice_candidates=120,
        fast_models=False,
    )


def default_config() -> HarnessConfig:
    """Quick configuration by default; paper-scale when ``REPRO_FULL=1`` is set."""
    if env.read_bool("REPRO_FULL"):
        return full_config()
    return HarnessConfig()


class ExperimentHarness:
    """Caches datasets and trained matchers; runs experiments as unit sweeps.

    ``runner`` controls how the work units of every ``*_rows`` experiment are
    executed.  The default is an in-process serial runner; pass
    ``SweepRunner(executor="processes", checkpoint=...)`` for a parallel,
    resumable sweep — the rows are identical either way.

    ``artifact_store`` (default: the ``REPRO_ARTIFACT_DIR`` store, if the
    variable is set) persists trained matcher weights across processes: the
    next run loads them instead of retraining, each reuse validated by the
    dataset fingerprint.
    """

    def __init__(
        self,
        config: HarnessConfig | None = None,
        runner: SweepRunner | None = None,
        artifact_store: ArtifactStore | None = None,
    ) -> None:
        self.config = config or default_config()
        self.runner = runner or SweepRunner()
        self.artifact_store = artifact_store if artifact_store is not None else default_store()
        self.last_sweep: SweepResult | None = None
        self._datasets: dict[str, ERDataset] = {}
        self._datasets_lock = threading.Lock()
        self._model_cache = ModelCache(
            fast=self.config.fast_models, artifact_store=self.artifact_store
        )

    # ------------------------------------------------------------ data / models

    def dataset(self, code: str) -> ERDataset:
        """The (scaled) benchmark dataset for ``code`` (thread-safe, memoised)."""
        with self._datasets_lock:
            if code not in self._datasets:
                self._datasets[code] = load_benchmark(code, scale=self.config.dataset_scale)
            return self._datasets[code]

    def trained(self, model_name: str, code: str) -> TrainedModel:
        """A trained matcher for (model, dataset), memoised."""
        return self._model_cache.get(model_name, self.dataset(code))

    def sample_pairs(self, code: str, count: int | None = None) -> list[RecordPair]:
        """A balanced sample of labelled test pairs for explanation experiments."""
        dataset = self.dataset(code)
        count = count or self.config.pairs_per_dataset
        rng = random.Random(self.config.seed)
        return dataset.test.sample(count, rng=rng, balanced=True)

    # -------------------------------------------------------------- explainers

    def certa_explainer(self, model: ERModel, code: str, **overrides) -> CertaExplainer:
        """A CERTA explainer wired to the dataset's sources."""
        dataset = self.dataset(code)
        parameters = {"num_triangles": self.config.num_triangles, "seed": self.config.seed}
        parameters.update(overrides)
        return CertaExplainer(model, dataset.left, dataset.right, **parameters)

    def saliency_explainer(self, model: ERModel, code: str, method: str) -> SaliencyExplainer:
        """One saliency method of Tables 2-3, by name."""
        if method == "certa":
            return self.certa_explainer(model, code)
        if method == "landmark":
            return LandmarkExplainer(model, n_samples=self.config.lime_samples, seed=self.config.seed)
        if method == "mojito":
            return MojitoExplainer(model, n_samples=self.config.lime_samples, seed=self.config.seed)
        if method == "shap":
            return ShapExplainer(model, max_coalitions=self.config.shap_coalitions, seed=self.config.seed)
        raise EvaluationError(f"unknown saliency method {method!r}; available: {SALIENCY_METHODS}")

    def counterfactual_explainer(self, model: ERModel, code: str, method: str) -> CounterfactualExplainer:
        """One counterfactual method of Tables 4-6, by name."""
        if method == "certa":
            return self.certa_explainer(model, code)
        if method == "dice":
            dataset = self.dataset(code)
            return DiceExplainer(
                model,
                dataset.left,
                dataset.right,
                total_candidates=self.config.dice_candidates,
                seed=self.config.seed,
            )
        if method == "shap-c":
            return ShapCExplainer(model, max_coalitions=self.config.shap_coalitions, seed=self.config.seed)
        if method == "lime-c":
            return LimeCExplainer(model, n_samples=self.config.lime_samples, seed=self.config.seed)
        raise EvaluationError(
            f"unknown counterfactual method {method!r}; available: {COUNTERFACTUAL_METHODS}"
        )

    def saliency_explainers(self, model: ERModel, code: str) -> dict[str, SaliencyExplainer]:
        """The four saliency methods of Tables 2-3, keyed by method name."""
        return {method: self.saliency_explainer(model, code, method) for method in SALIENCY_METHODS}

    def counterfactual_explainers(self, model: ERModel, code: str) -> dict[str, CounterfactualExplainer]:
        """The four counterfactual methods of Tables 4-6, keyed by method name."""
        return {
            method: self.counterfactual_explainer(model, code, method)
            for method in COUNTERFACTUAL_METHODS
        }

    # ------------------------------------------------------------------ sweeps

    def sweep(self, units: Sequence[WorkUnit]) -> SweepResult:
        """Run ``units`` through the configured runner (kept in ``last_sweep``)."""
        result = self.runner.run(units, harness=self)
        self.last_sweep = result
        return result

    # ------------------------------------------------------- saliency experiments

    def saliency_units(
        self,
        datasets: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        methods: Sequence[str] = SALIENCY_METHODS,
    ) -> list[WorkUnit]:
        """One unit per (dataset, model, method) cell of Tables 2-3."""
        return [
            WorkUnit("saliency", dataset=code, model=model_name, method=method)
            for code in (datasets or self.config.datasets)
            for model_name in (models or self.config.models)
            for method in methods
        ]

    def saliency_rows(
        self,
        datasets: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        methods: Sequence[str] = SALIENCY_METHODS,
    ) -> list[dict[str, object]]:
        """Faithfulness + confidence-indication rows (Tables 2 and 3)."""
        return self.sweep(self.saliency_units(datasets, models, methods)).rows

    # -------------------------------------------------- counterfactual experiments

    def counterfactual_units(
        self,
        datasets: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        methods: Sequence[str] = COUNTERFACTUAL_METHODS,
    ) -> list[WorkUnit]:
        """One unit per (dataset, model, method) cell of Tables 4-6."""
        return [
            WorkUnit("counterfactual", dataset=code, model=model_name, method=method)
            for code in (datasets or self.config.datasets)
            for model_name in (models or self.config.models)
            for method in methods
        ]

    def counterfactual_rows(
        self,
        datasets: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        methods: Sequence[str] = COUNTERFACTUAL_METHODS,
    ) -> list[dict[str, object]]:
        """Proximity / sparsity / diversity / count rows (Tables 4-6, Figure 10)."""
        return self.sweep(self.counterfactual_units(datasets, models, methods)).rows

    # --------------------------------------------------------- triangle sweeps

    def triangle_sweep_units(
        self,
        triangle_counts: Sequence[int] = (5, 10, 20, 40),
        datasets: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        pairs_per_dataset: int = 2,
    ) -> list[WorkUnit]:
        """One unit per (dataset, tau): Figure 11 aggregates across models."""
        datasets = list(datasets or self.config.datasets[:2])
        models = tuple(models or self.config.models)
        return [
            WorkUnit(
                "triangle_sweep",
                dataset=code,
                index=tau,
                params=(("models", models), ("pairs_per_dataset", pairs_per_dataset)),
            )
            for code in datasets
            for tau in triangle_counts
        ]

    def triangle_sweep_rows(
        self,
        triangle_counts: Sequence[int] = (5, 10, 20, 40),
        datasets: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        pairs_per_dataset: int = 2,
    ) -> list[dict[str, object]]:
        """Figure 11: metric averages as the number of open triangles grows."""
        units = self.triangle_sweep_units(triangle_counts, datasets, models, pairs_per_dataset)
        return self.sweep(units).rows

    # ------------------------------------------------- prediction engine (bench)

    def prediction_engine_units(
        self,
        datasets: Sequence[str] | None = None,
        model_name: str = "deepmatcher",
        pairs_per_dataset: int = 3,
        num_triangles: int | None = None,
    ) -> list[WorkUnit]:
        """One unit per dataset: batched vs sequential exploration comparison."""
        tau = num_triangles or self.config.num_triangles
        return [
            WorkUnit(
                "prediction_engine",
                dataset=code,
                model=model_name,
                params=(("pairs_per_dataset", pairs_per_dataset), ("num_triangles", tau)),
            )
            for code in (datasets or self.config.datasets)
        ]

    def prediction_engine_rows(
        self,
        datasets: Sequence[str] | None = None,
        model_name: str = "deepmatcher",
        pairs_per_dataset: int = 3,
        num_triangles: int | None = None,
    ) -> list[dict[str, object]]:
        """Batched vs sequential lattice exploration, per dataset.

        For every dataset the same pairs are explained twice: once with
        frontier-batched exploration (the default) and once with the
        node-at-a-time reference path.  ``identical`` records whether the two
        paths produced byte-identical saliency scores and golden sets — the
        equivalence the test suite asserts, surfaced here as a continuous
        sanity check.
        """
        units = self.prediction_engine_units(datasets, model_name, pairs_per_dataset, num_triangles)
        return self.sweep(units).rows

    # ----------------------------------------------------- monotonicity (Table 7)

    def monotonicity_units(
        self,
        datasets: Sequence[str] | None = None,
        model_name: str = "deepmatcher",
        pairs_per_dataset: int = 2,
        triangles_per_pair: int = 4,
    ) -> list[WorkUnit]:
        """One unit per dataset for Table 7's lattice accounting."""
        return [
            WorkUnit(
                "monotonicity",
                dataset=code,
                model=model_name,
                params=(
                    ("pairs_per_dataset", pairs_per_dataset),
                    ("triangles_per_pair", triangles_per_pair),
                ),
            )
            for code in (datasets or self.config.datasets)
        ]

    def monotonicity_rows(
        self,
        datasets: Sequence[str] | None = None,
        model_name: str = "deepmatcher",
        pairs_per_dataset: int = 2,
        triangles_per_pair: int = 4,
    ) -> list[dict[str, object]]:
        """Table 7: predictions expected / performed / saved and the error rate."""
        units = self.monotonicity_units(datasets, model_name, pairs_per_dataset, triangles_per_pair)
        return self.sweep(units).rows

    # --------------------------------------------------- augmentation (Tables 8-10)

    def augmentation_supply_units(
        self,
        datasets: Sequence[str] = ("BA", "FZ"),
        models: Sequence[str] = ("deepmatcher", "ditto"),
        target_triangles: int = 100,
        pairs_per_dataset: int = 3,
    ) -> list[WorkUnit]:
        """One unit per (dataset, model); the reducer pivots models to columns."""
        return [
            WorkUnit(
                "augmentation_supply",
                dataset=code,
                model=model_name,
                params=(("target", target_triangles), ("pairs_per_dataset", pairs_per_dataset)),
            )
            for code in datasets
            for model_name in models
        ]

    def augmentation_supply_rows(
        self,
        datasets: Sequence[str] = ("BA", "FZ"),
        models: Sequence[str] = ("deepmatcher", "ditto"),
        target_triangles: int = 100,
        pairs_per_dataset: int = 3,
    ) -> list[dict[str, object]]:
        """Table 8: open triangles obtainable *without* data augmentation."""
        units = self.augmentation_supply_units(datasets, models, target_triangles, pairs_per_dataset)
        result = self.sweep(units)
        # Reduce: pivot the per-(dataset, model) partials into one row per
        # dataset with one column per model, as the paper's Table 8 lays out.
        by_dataset: dict[str, dict[str, object]] = {}
        for partial in result.rows:
            code = str(partial["dataset"])
            row = by_dataset.setdefault(
                code, {"dataset": code, "target": partial["target"], "skipped": 0}
            )
            row[str(partial["model"])] = partial["mean_triangles"]
            row["skipped"] = int(row["skipped"]) + int(partial["skipped"])
        return [by_dataset[code] for code in sorted(by_dataset)]

    def augmentation_effect_units(
        self,
        datasets: Sequence[str] = ("BA", "FZ"),
        models: Sequence[str] = ("deepmatcher", "ditto"),
        pairs_per_dataset: int = 3,
    ) -> list[WorkUnit]:
        """One unit per (dataset, model) delta experiment of Tables 9-10."""
        return [
            WorkUnit(
                "augmentation_effect",
                dataset=code,
                model=model_name,
                params=(("pairs_per_dataset", pairs_per_dataset),),
            )
            for code in datasets
            for model_name in models
        ]

    def augmentation_effect_rows(
        self,
        datasets: Sequence[str] = ("BA", "FZ"),
        models: Sequence[str] = ("deepmatcher", "ditto"),
        pairs_per_dataset: int = 3,
    ) -> list[dict[str, object]]:
        """Tables 9-10: metric deltas when forcing augmentation-only triangles."""
        units = self.augmentation_effect_units(datasets, models, pairs_per_dataset)
        return self.sweep(units).rows

    # ----------------------------------------------------------- case study (Fig 12)

    def case_study_units(
        self,
        code: str = "BA",
        model_name: str = "ditto",
        max_pairs: int = 4,
        methods: Sequence[str] = SALIENCY_METHODS,
    ) -> list[WorkUnit]:
        """One unit per (method, pair) of Figure 12 — the finest batch size.

        Per-pair units keep every row's ``skipped`` count exact (a skipped
        pair is one empty unit, counted in the sweep result) and let the
        parallel executors spread the case study across all cores.
        """
        return [
            WorkUnit(
                "case_study",
                dataset=code,
                model=model_name,
                method=method,
                index=pair_index,
                params=(("max_pairs", max_pairs),),
            )
            for method in methods
            for pair_index in range(max_pairs)
        ]

    def case_study_rows(
        self,
        code: str = "BA",
        model_name: str = "ditto",
        max_pairs: int = 4,
        methods: Sequence[str] = SALIENCY_METHODS,
    ) -> list[dict[str, object]]:
        """Figure 12: per-prediction comparison against the actual (masking) saliency."""
        return self.sweep(self.case_study_units(code, model_name, max_pairs, methods)).rows

    # ------------------------------------------------- monotone-lattice ablation

    def monotone_ablation_units(
        self,
        code: str | None = None,
        model_name: str = "deepmatcher",
        num_triangles: int = 10,
        pairs_per_dataset: int = 3,
    ) -> list[WorkUnit]:
        """Two units (monotone on / off) for the DESIGN.md ablation benchmark."""
        code = code or self.config.datasets[0]
        return [
            WorkUnit(
                "monotone_ablation",
                dataset=code,
                model=model_name,
                index=index,
                params=(
                    ("monotone", monotone),
                    ("num_triangles", num_triangles),
                    ("pairs_per_dataset", pairs_per_dataset),
                ),
            )
            for index, monotone in enumerate((True, False))
        ]

    def monotone_ablation_rows(
        self,
        code: str | None = None,
        model_name: str = "deepmatcher",
        num_triangles: int = 10,
        pairs_per_dataset: int = 3,
    ) -> list[dict[str, object]]:
        """Model-call budget with the monotone-lattice optimisation on vs off."""
        units = self.monotone_ablation_units(code, model_name, num_triangles, pairs_per_dataset)
        return self.sweep(units).rows


# ---------------------------------------------------------------------------
# Experiment bodies.  Module-level functions (picklable by reference) that the
# sweep runner resolves by name; each takes (harness, unit) and returns
# (rows, skipped).  Skipped pairs are *counted*, never silently dropped, and
# each row's ``skip_errors`` column breaks the count down by exception class
# and transient/permanent category (see ``record_skip``).
# ---------------------------------------------------------------------------


def record_skip(errors: dict[str, int], exc: BaseException) -> None:
    """Count one skipped explanation under its ``Class:category`` taxonomy key.

    The key is ``f"{type(exc).__name__}:{'transient'|'permanent'}"`` — the
    shape :func:`repro.eval.reporting.aggregate_skip_errors` and
    ``skipped_summary`` consume, so skip accounting names *what* failed and
    whether retrying could have helped, not just how often.
    """
    category = "transient" if is_transient(exc) else "permanent"
    key = f"{type(exc).__name__}:{category}"
    errors[key] = errors.get(key, 0) + 1


@experiment_runner("saliency")
def _run_saliency_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One Table 2/3 cell: explain every sampled pair with one saliency method."""
    model = harness.trained(unit.model, unit.dataset).model
    explainer = harness.saliency_explainer(model, unit.dataset, unit.method)
    pairs = harness.sample_pairs(unit.dataset)
    explanations, skipped, skip_errors = [], 0, {}
    for pair in pairs:
        try:
            explanations.append(explainer.explain(pair))
        except ExplanationError as exc:
            skipped += 1
            record_skip(skip_errors, exc)
    if not explanations:
        return [], skipped
    faithfulness_result = faithfulness(model, explanations)
    row = {
        "dataset": unit.dataset,
        "model": unit.model,
        "method": unit.method,
        "faithfulness": faithfulness_result.auc,
        "confidence_indication": confidence_indication(explanations),
        "pairs": len(explanations),
        "skipped": skipped,
        "skip_errors": skip_errors,
    }
    return [row], skipped


@experiment_runner("counterfactual")
def _run_counterfactual_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One Table 4-6 cell: counterfactuals for every sampled pair, one method."""
    model = harness.trained(unit.model, unit.dataset).model
    explainer = harness.counterfactual_explainer(model, unit.dataset, unit.method)
    pairs = harness.sample_pairs(unit.dataset)
    explanations, skipped, skip_errors = [], 0, {}
    for pair in pairs:
        try:
            explanations.append(explainer.explain_counterfactual(pair))
        except ExplanationError as exc:
            skipped += 1
            record_skip(skip_errors, exc)
    if not explanations:
        return [], skipped
    row = {
        "dataset": unit.dataset,
        "model": unit.model,
        "method": unit.method,
        **average_metrics(explanations),
        "pairs": len(explanations),
        "skipped": skipped,
        "skip_errors": skip_errors,
    }
    return [row], skipped


@experiment_runner("triangle_sweep")
def _run_triangle_sweep_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One Figure 11 point: all models on one dataset at one triangle budget."""
    tau = unit.index
    models = list(unit.param("models", harness.config.models))
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("pairs_per_dataset", 2)))
    skipped, skip_errors = 0, {}
    sufficiency_values, necessity_values = [], []
    proximity_values, sparsity_values, diversity_values = [], [], []
    explanations_by_model: dict[str, list] = {}
    for model_name in models:
        model = harness.trained(model_name, unit.dataset).model
        explainer = harness.certa_explainer(model, unit.dataset, num_triangles=tau)
        saliency_explanations = []
        counterfactual_explanations = []
        for pair in pairs:
            try:
                explanation = explainer.explain_full(pair)
            except ExplanationError as exc:
                skipped += 1
                record_skip(skip_errors, exc)
                continue
            sufficiency_values.append(explanation.average_sufficiency())
            necessity_values.append(explanation.average_necessity())
            saliency_explanations.append(explanation.saliency)
            counterfactual_explanations.append(explanation.counterfactual)
        if counterfactual_explanations:
            metrics = average_metrics(counterfactual_explanations)
            proximity_values.append(metrics["proximity"])
            sparsity_values.append(metrics["sparsity"])
            diversity_values.append(metrics["diversity"])
        explanations_by_model[model_name] = saliency_explanations
    all_saliency = [
        explanation
        for explanations in explanations_by_model.values()
        for explanation in explanations
    ]
    if not all_saliency:
        return [], skipped
    faithfulness_values = []
    for model_name in models:
        explanations = explanations_by_model.get(model_name, [])
        if explanations:
            model = harness.trained(model_name, unit.dataset).model
            faithfulness_values.append(faithfulness(model, explanations).auc)
    row = {
        "dataset": unit.dataset,
        "triangles": tau,
        "probability_of_sufficiency": float(np.mean(sufficiency_values)),
        "probability_of_necessity": float(np.mean(necessity_values)),
        "confidence_indication": confidence_indication(all_saliency),
        "faithfulness": float(np.mean(faithfulness_values)) if faithfulness_values else float("nan"),
        "proximity": float(np.mean(proximity_values)) if proximity_values else 0.0,
        "sparsity": float(np.mean(sparsity_values)) if sparsity_values else 0.0,
        "diversity": float(np.mean(diversity_values)) if diversity_values else 0.0,
        "skipped": skipped,
        "skip_errors": skip_errors,
    }
    return [row], skipped


@experiment_runner("prediction_engine")
def _run_prediction_engine_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One dataset of the engine benchmark: batched vs sequential exploration.

    Each run gets a fresh :class:`~repro.models.engine.PredictionEngine` and
    cold featurisation caches, so the reported model invocations
    (``batches``) and wall-clock times are comparable.
    """
    tau = int(unit.param("num_triangles", harness.config.num_triangles))
    model = harness.trained(unit.model, unit.dataset).model
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("pairs_per_dataset", 3)))
    skip_counts = {}
    skip_errors: dict[str, int] = {}

    def run(batched: bool) -> tuple[list[CertaExplanation], float]:
        # Cold featurisation layer for both arms (it would otherwise be
        # warmed by whichever arm runs first, biasing the timed comparison).
        model.clear_featurizer_cache()
        explainer = harness.certa_explainer(model, unit.dataset, num_triangles=tau, batched=batched)
        explanations = []
        skip_counts[batched] = 0
        start = time.perf_counter()
        for pair in pairs:
            try:
                explanations.append(explainer.explain_full(pair))
            except ExplanationError as exc:
                skip_counts[batched] += 1
                if batched:  # the reported arm: keep taxonomy and count aligned
                    record_skip(skip_errors, exc)
        return explanations, time.perf_counter() - start

    batched_runs, batched_seconds = run(batched=True)
    sequential_runs, sequential_seconds = run(batched=False)
    skipped = skip_counts[True]
    if not batched_runs:
        return [], skipped

    nodes = sum(explanation.performed_predictions() for explanation in batched_runs)
    saved = sum(explanation.saved_predictions() for explanation in batched_runs)
    lattice_batches = sum(explanation.lattice_batches() for explanation in batched_runs)
    sequential_calls = sum(explanation.lattice_batches() for explanation in sequential_runs)
    engine_totals = EngineStats.total(run.engine_stats for run in batched_runs)
    identical = len(batched_runs) == len(sequential_runs) and all(
        batched_one.saliency.scores == sequential_one.saliency.scores
        and batched_one.counterfactual.attribute_set == sequential_one.counterfactual.attribute_set
        and batched_one.flips == sequential_one.flips
        for batched_one, sequential_one in zip(batched_runs, sequential_runs)
    )
    row = {
        "dataset": unit.dataset,
        "model": unit.model,
        "pairs": len(batched_runs),
        "nodes_evaluated": nodes,
        "saved_predictions": saved,
        "lattice_batches": lattice_batches,
        "sequential_calls": sequential_calls,
        "call_reduction": (nodes / lattice_batches) if lattice_batches else 0.0,
        **{key: getattr(engine_totals, key) for key in ("requests", "hits", "misses", "batches")},
        **FeaturizerStats.total(run.featurizer_stats for run in batched_runs).as_dict(),
        **IndexStats.total(run.index_stats for run in batched_runs).as_dict(),
        "batched_seconds": batched_seconds,
        "sequential_seconds": sequential_seconds,
        "speedup": (sequential_seconds / batched_seconds) if batched_seconds else 0.0,
        "identical": identical,
        "skipped": skipped,
        "skip_errors": skip_errors,
    }
    return [row], skipped


@experiment_runner("monotonicity")
def _run_monotonicity_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One dataset of Table 7: lattice predictions saved by monotonicity."""
    dataset = harness.dataset(unit.dataset)
    model = harness.trained(unit.model, unit.dataset).model
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("pairs_per_dataset", 2)))
    triangles_per_pair = int(unit.param("triangles_per_pair", 4))
    expected_values, performed_values, saved_values = [], [], []
    wrong_total, saved_total = 0, 0
    attribute_count = len(dataset.left_schema)
    for pair in pairs:
        original_match = model.predict_match(pair)
        search = find_open_triangles(
            model, pair, dataset.left, dataset.right,
            count=triangles_per_pair, seed=harness.config.seed,
        )
        for triangle in search.triangles:
            free_attributes = list(triangle.free_record.attribute_names())

            def evaluate(attributes: frozenset[str]) -> bool:
                perturbed = perturbed_pair(triangle.pair, triangle.side, triangle.support, attributes)
                score = model.predict_pair(perturbed)
                return (score > MATCH_THRESHOLD) != original_match

            stats, wrong = monotonicity_violations(free_attributes, evaluate)
            expected_values.append(stats.expected_predictions)
            performed_values.append(stats.performed_predictions)
            saved_values.append(stats.saved_predictions)
            saved_total += stats.saved_predictions
            wrong_total += wrong
    if not expected_values:
        return [], 0
    row = {
        "dataset": unit.dataset,
        "attributes": attribute_count,
        "expected": float(np.mean(expected_values)),
        "performed": float(np.mean(performed_values)),
        "saved": float(np.mean(saved_values)),
        "error_rate": (wrong_total / saved_total) if saved_total else 0.0,
        "skipped": 0,
        "skip_errors": {},
    }
    return [row], 0


@experiment_runner("augmentation_supply")
def _run_augmentation_supply_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One (dataset, model) partial of Table 8: natural triangle supply."""
    dataset = harness.dataset(unit.dataset)
    target = int(unit.param("target", 100))
    model = harness.trained(unit.model, unit.dataset).model
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("pairs_per_dataset", 3)))
    searches = [
        find_open_triangles(
            model, pair, dataset.left, dataset.right,
            count=target, seed=harness.config.seed,
            allow_augmentation=False, max_candidates=None,
        )
        for pair in pairs
    ]
    counts = [len(search.triangles) for search in searches]
    row = {
        "dataset": unit.dataset,
        "model": unit.model,
        "target": target,
        "mean_triangles": float(np.mean(counts)) if counts else 0.0,
        **IndexStats.total(search.index_stats for search in searches).as_dict(),
        "skipped": 0,
        "skip_errors": {},
    }
    return [row], 0


@experiment_runner("augmentation_effect")
def _run_augmentation_effect_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One (dataset, model) delta row of Tables 9-10."""
    model = harness.trained(unit.model, unit.dataset).model
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("pairs_per_dataset", 3)))
    skipped = 0
    skip_errors: dict[str, int] = {}

    def collect(explainer: CertaExplainer) -> dict[str, float]:
        nonlocal skipped
        saliency_explanations, counterfactual_explanations = [], []
        for pair in pairs:
            try:
                explanation = explainer.explain_full(pair)
            except ExplanationError as exc:
                skipped += 1
                record_skip(skip_errors, exc)
                continue
            saliency_explanations.append(explanation.saliency)
            counterfactual_explanations.append(explanation.counterfactual)
        if not saliency_explanations:
            return {}
        counterfactual_metrics = average_metrics(counterfactual_explanations)
        return {
            "proximity": counterfactual_metrics["proximity"],
            "sparsity": counterfactual_metrics["sparsity"],
            "diversity": counterfactual_metrics["diversity"],
            "faithfulness": faithfulness(model, saliency_explanations).auc,
            "confidence_indication": confidence_indication(saliency_explanations),
        }

    baseline = collect(harness.certa_explainer(model, unit.dataset))
    forced = collect(harness.certa_explainer(model, unit.dataset, force_augmentation=True))
    if not baseline or not forced:
        return [], skipped
    row = {
        "model": unit.model,
        "dataset": unit.dataset,
        **{f"delta_{name}": forced[name] - baseline[name] for name in baseline},
        "skipped": skipped,
        "skip_errors": skip_errors,
    }
    return [row], skipped


@experiment_runner("case_study")
def _run_case_study_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One (method, pair) cell of Figure 12's case study.

    A pair whose explanation fails contributes an empty unit with
    ``skipped=1`` — visible in the sweep result and manifest — so the
    emitted rows' ``skipped`` column sums to the exact number of dropped
    explanations.
    """
    model = harness.trained(unit.model, unit.dataset).model
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("max_pairs", 4)))
    if unit.index >= len(pairs):
        return [], 0  # sample_pairs may return fewer than max_pairs
    pair = pairs[unit.index]
    explainer = harness.saliency_explainer(model, unit.dataset, unit.method)
    try:
        explanation = explainer.explain(pair)
    except ExplanationError:
        return [], 1
    # Units of different methods recompute this pair's reference saliency
    # (harness models memoise scores in the engine layer only); per-pair
    # resume granularity is worth that recompute — a handful of masked
    # predictions per pair, served from the featurisation caches.
    reference = actual_saliency(model, pair)
    prediction = model.predict_pair(pair)
    aggregates = aggregate_at_k(model, explanation, k_values=(1, 2, 3))
    row = {
        "pair_index": unit.index,
        "label": bool(pair.label),
        "prediction": prediction,
        "method": unit.method,
        "alignment_top2": saliency_alignment(explanation, reference, top_k=2),
        "aggr@1": aggregates[1],
        "aggr@2": aggregates[2],
        "aggr@3": aggregates[3],
        "skipped": 0,
        "skip_errors": {},
    }
    return [row], 0


@experiment_runner("monotone_ablation")
def _run_monotone_ablation_unit(harness: ExperimentHarness, unit: WorkUnit) -> tuple[list[dict], int]:
    """One arm of the monotone-lattice ablation (optimisation on or off)."""
    monotone = bool(unit.param("monotone", True))
    model = harness.trained(unit.model, unit.dataset).model
    pairs = harness.sample_pairs(unit.dataset, count=int(unit.param("pairs_per_dataset", 3)))
    explainer = harness.certa_explainer(
        model, unit.dataset, monotone=monotone,
        num_triangles=int(unit.param("num_triangles", 10)),
    )
    performed, saved, flips, skipped = 0, 0, 0, 0
    skip_errors: dict[str, int] = {}
    for pair in pairs:
        try:
            explanation = explainer.explain_full(pair)
        except ExplanationError as exc:
            skipped += 1
            record_skip(skip_errors, exc)
            continue
        performed += explanation.performed_predictions()
        saved += explanation.saved_predictions()
        flips += explanation.flips
    row = {
        "dataset": unit.dataset,
        "model": unit.model,
        "monotone": monotone,
        "lattice_model_calls": performed,
        "saved_model_calls": saved,
        "flips": flips,
        "skipped": skipped,
        "skip_errors": skip_errors,
    }
    return [row], skipped
