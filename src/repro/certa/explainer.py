"""The CERTA explainer (Algorithm 1 of the paper).

For a prediction ``M(<u, v>) = y``, CERTA:

1. finds ``tau`` open triangles (half with a left support record, half right);
2. builds a powerset lattice per triangle and tags each node with the flipping
   operator, using monotone propagation to avoid redundant model calls;
3. accumulates necessity counts per attribute and sufficiency counts per
   attribute set from the flipped nodes;
4. returns the saliency explanation (``phi_a = N[a] / f``) and the
   counterfactual explanation (examples whose changed attribute set is the
   golden set ``A*`` of Equation 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.data.indexing import IndexStats
from repro.data.records import RecordPair
from repro.data.table import DataSource
from repro.exceptions import ExplanationError
from repro.explain.base import (
    CounterfactualExample,
    CounterfactualExplainer,
    CounterfactualExplanation,
    SaliencyExplainer,
    SaliencyExplanation,
    prefixed_attribute,
)
from repro.models.base import MATCH_THRESHOLD, ERModel
from repro.models.engine import EngineStats, PredictionEngine, SupportsPairPrediction
from repro.models.featurizer import FeaturizerStats
from repro.certa.lattice import (
    AttributeLattice,
    ExplorationStats,
    explore_lattice,
    explore_lattices,
)
from repro.certa.perturbation import perturbed_pair
from repro.certa.triangles import OpenTriangle, TriangleSearchResult, find_open_triangles

@dataclass
class CertaExplanation:
    """The full CERTA output: saliency plus counterfactuals plus diagnostics."""

    saliency: SaliencyExplanation
    counterfactual: CounterfactualExplanation
    triangles_used: int
    triangles_requested: int
    augmented_triangles: int
    flips: int
    exploration: list[ExplorationStats] = field(default_factory=list)
    sufficiency_by_set: dict[tuple[str, frozenset[str]], float] = field(default_factory=dict)
    #: Engine counter delta over the whole explanation (triangle search,
    #: lattice exploration and counterfactual scoring); None when the
    #: explainer ran without an engine snapshot.
    engine_stats: EngineStats | None = None
    #: Engine counter delta restricted to lattice exploration: its ``batches``
    #: field is the number of model invocations the lattice work cost, to be
    #: compared against :meth:`performed_predictions` (node evaluations).
    lattice_engine_stats: EngineStats | None = None
    #: Featurisation-cache counter delta over the whole explanation (the
    #: layer below the engine); None when the model has no featurizer.
    featurizer_stats: FeaturizerStats | None = None
    #: Source-index counter delta of the triangle search (builds, queries,
    #: postings visited, candidates pruned); None when the explainer ran with
    #: ``indexed=False``.
    index_stats: IndexStats | None = None

    @property
    def prediction(self) -> float:
        return self.saliency.prediction

    def saliency_scores(self) -> dict[str, float]:
        """Prefixed attribute name -> probability of necessity."""
        return dict(self.saliency.scores)

    def best_sufficiency(self) -> float:
        """The probability of sufficiency of the golden attribute set."""
        return self.counterfactual.sufficiency

    def average_sufficiency(self) -> float:
        """Mean probability of sufficiency across attribute sets (Figure 11a)."""
        if not self.sufficiency_by_set:
            return 0.0
        return sum(self.sufficiency_by_set.values()) / len(self.sufficiency_by_set)

    def average_necessity(self) -> float:
        """Mean probability of necessity across attributes (Figure 11b)."""
        if not self.saliency.scores:
            return 0.0
        return sum(self.saliency.scores.values()) / len(self.saliency.scores)

    def performed_predictions(self) -> int:
        """Model calls spent on lattice nodes across all triangles."""
        return sum(stats.performed_predictions for stats in self.exploration)

    def saved_predictions(self) -> int:
        """Model calls avoided thanks to the monotonicity assumption."""
        return sum(stats.saved_predictions for stats in self.exploration)

    def lattice_batches(self) -> int:
        """Model invocations spent on lattice nodes (0 when not tracked).

        Under frontier batching this is roughly one invocation per lattice
        level rather than one per node, the saving quantified by
        ``benchmarks/bench_prediction_engine.py``.
        """
        return self.lattice_engine_stats.batches if self.lattice_engine_stats else 0


class CertaExplainer(SaliencyExplainer, CounterfactualExplainer):
    """ER-aware saliency and counterfactual explainer (the paper's contribution).

    All model invocations — triangle search, lattice exploration and
    counterfactual scoring — are routed through a
    :class:`~repro.models.engine.PredictionEngine`.  With ``batched=True``
    (the default) the lattices of *all* open triangles are explored together,
    level by level, so each frontier costs a handful of batched model calls
    instead of one call per node; ``batched=False`` keeps the node-at-a-time
    reference path, which the equivalence test suite checks produces identical
    explanations.
    """

    method_name = "certa"

    def __init__(
        self,
        model: ERModel,
        left_source: DataSource,
        right_source: DataSource,
        num_triangles: int = 100,
        monotone: bool = True,
        allow_augmentation: bool = True,
        force_augmentation: bool = False,
        max_candidates: int | None = 400,
        max_examples: int = 10,
        strict: bool = False,
        seed: int = 0,
        engine: PredictionEngine | None = None,
        batched: bool = True,
        indexed: bool = True,
        scheduler: SupportsPairPrediction | None = None,
    ) -> None:
        SaliencyExplainer.__init__(self, model, engine=engine or PredictionEngine(model))
        #: Optional prediction hand-off: when the serving layer supplies a
        #: scheduler (any ``SupportsPairPrediction``), every frontier — the
        #: triangle search, lattice exploration and counterfactual scoring —
        #: goes through it instead of calling the engine directly, which is
        #: what lets ``repro.serve`` coalesce the frontiers of many in-flight
        #: requests into shared engine batches.  ``None`` keeps the direct
        #: engine path; scores are identical either way (the scheduler
        #: ultimately resolves through the same content-keyed engine).
        self.scheduler = scheduler
        self.left_source = left_source
        self.right_source = right_source
        self.num_triangles = num_triangles
        self.monotone = monotone
        self.allow_augmentation = allow_augmentation
        self.force_augmentation = force_augmentation
        self.max_candidates = max_candidates
        self.max_examples = max_examples
        self.strict = strict
        self.seed = seed
        self.batched = batched
        self.indexed = indexed

    # ------------------------------------------------------------------ helpers

    @property
    def predictor(self) -> SupportsPairPrediction:
        """Where predictions are sent: the scheduler when serving, else the engine."""
        return self.scheduler if self.scheduler is not None else self.engine

    def _find_triangles(self, pair: RecordPair, num_triangles: int | None = None) -> TriangleSearchResult:
        return find_open_triangles(
            self.predictor,
            pair,
            self.left_source,
            self.right_source,
            count=num_triangles or self.num_triangles,
            seed=self.seed,
            max_candidates=self.max_candidates,
            allow_augmentation=self.allow_augmentation,
            force_augmentation=self.force_augmentation,
            indexed=self.indexed,
        )

    def _process_triangle(
        self,
        triangle: OpenTriangle,
        original_match: bool,
    ) -> tuple[AttributeLattice, ExplorationStats]:
        """Build and explore the lattice of one open triangle (sequential path)."""
        free_attributes = list(triangle.free_record.attribute_names())
        lattice = AttributeLattice(free_attributes)

        def evaluate(attributes: frozenset[str]) -> bool:
            perturbed = perturbed_pair(triangle.pair, triangle.side, triangle.support, attributes)
            score = self.predictor.predict_pair(perturbed)
            return (score > MATCH_THRESHOLD) != original_match

        stats = explore_lattice(lattice, evaluate, monotone=self.monotone)
        return lattice, stats

    def _process_triangles(
        self,
        triangles: Sequence[OpenTriangle],
        original_match: bool,
    ) -> tuple[list[AttributeLattice], list[ExplorationStats]]:
        """Explore every triangle's lattice, batching frontiers when enabled.

        The batched path synchronises the breadth-first levels of all
        lattices: the unresolved nodes of each level across all triangles are
        mapped to perturbed pairs and scored through the engine in one call.
        The sequential path evaluates node by node and exists as the reference
        for the equivalence suite; both produce identical lattices.
        """
        if not self.batched:
            lattices: list[AttributeLattice] = []
            exploration: list[ExplorationStats] = []
            for triangle in triangles:
                lattice, stats = self._process_triangle(triangle, original_match)
                lattices.append(lattice)
                exploration.append(stats)
            return lattices, exploration

        lattices = [
            AttributeLattice(list(triangle.free_record.attribute_names()))
            for triangle in triangles
        ]

        def evaluate_batch(requests: Sequence[tuple[int, frozenset[str]]]) -> list[bool]:
            pairs = [
                perturbed_pair(
                    triangles[index].pair,
                    triangles[index].side,
                    triangles[index].support,
                    attributes,
                )
                for index, attributes in requests
            ]
            scores = self.predictor.predict_proba(pairs)
            return [(score > MATCH_THRESHOLD) != original_match for score in scores]

        exploration = explore_lattices(lattices, evaluate_batch, monotone=self.monotone)
        return lattices, exploration

    # ---------------------------------------------------------------- main API

    def explain_full(self, pair: RecordPair, num_triangles: int | None = None) -> CertaExplanation:
        """Run the complete CERTA algorithm for one prediction."""
        engine_start = self.engine.stats
        featurizer_start = self.engine.featurizer_stats
        original_score = self.predictor.predict_pair(pair)
        original_match = original_score > MATCH_THRESHOLD

        search = self._find_triangles(pair, num_triangles)
        # Without triangles every count below stays zero, so the explanation
        # is all-zero (as in the released CERTA implementation: the metrics
        # penalise the method for that pair) unless ``strict`` refuses it.
        if not search.triangles and self.strict:
            raise ExplanationError(
                "no open triangles could be found for this prediction; "
                "the data sources contain no record with the opposite prediction"
            )

        # Counters of Algorithm 1: necessity N[a], sufficiency S[A], flips f.
        necessity: dict[str, int] = {}
        sufficiency: dict[tuple[str, frozenset[str]], int] = {}
        flips = 0
        triangles_by_side = {"left": 0, "right": 0}
        flipping_triangles: dict[tuple[str, frozenset[str]], list[OpenTriangle]] = {}

        exploration_start = self.engine.stats
        lattices, exploration = self._process_triangles(search.triangles, original_match)
        lattice_engine_stats = self.engine.stats - exploration_start

        for triangle, lattice in zip(search.triangles, lattices):
            side = triangle.side
            triangles_by_side[side] += 1
            flipped = lattice.flipped_nodes()
            flips += len(flipped)
            for mask in flipped:
                for attribute in lattice.table.sets[mask]:
                    name = prefixed_attribute(side, attribute)
                    necessity[name] = necessity.get(name, 0) + 1
            keys = lattice.table.keys[side]
            for mask in lattice.candidate_sets():
                key = keys[mask]
                sufficiency[key] = sufficiency.get(key, 0) + 1
                flipping_triangles.setdefault(key, []).append(triangle)

        # Saliency scores (probability of necessity, Equation 1).
        saliency_scores: dict[str, float] = {}
        for side, record in (("left", pair.left), ("right", pair.right)):
            for attribute in record.attribute_names():
                name = prefixed_attribute(side, attribute)
                saliency_scores[name] = necessity.get(name, 0) / flips if flips else 0.0
        saliency = SaliencyExplanation(
            pair=pair,
            prediction=original_score,
            scores=saliency_scores,
            method=self.method_name,
            metadata={"triangles": float(len(search.triangles)), "flips": float(flips)},
        )

        # Probability of sufficiency per attribute set (Equation 2), normalised
        # by the number of triangles on the same side as in the worked example.
        # Entries share one float object per distinct value (a retained
        # explanation's ~200 entries take a handful of values).
        sufficiency_probability: dict[tuple[str, frozenset[str]], float] = {}
        probabilities: dict[float, float] = {}
        for key, count in sufficiency.items():
            probability = count / (triangles_by_side[key[0]] or 1)
            sufficiency_probability[key] = probabilities.setdefault(probability, probability)

        # Golden attribute set A* (Equation 3): max sufficiency, then smallest set.
        best_key: tuple[str, frozenset[str]] | None = None
        best_probability = 0.0
        for key, probability in sorted(
            sufficiency_probability.items(), key=lambda item: (item[0][0], tuple(sorted(item[0][1])))
        ):
            if probability > best_probability or (
                best_key is not None
                and probability == best_probability
                and len(key[1]) < len(best_key[1])
            ):
                best_probability = probability
                best_key = key

        examples: list[CounterfactualExample] = []
        attribute_set: tuple[str, ...] = ()
        if best_key is not None:
            side, attributes = best_key
            attribute_set = tuple(sorted(prefixed_attribute(side, attribute) for attribute in attributes))
            for triangle in flipping_triangles.get(best_key, [])[: self.max_examples]:
                perturbed = perturbed_pair(triangle.pair, side, triangle.support, attributes)
                score = float(self.predictor.predict_pair(perturbed))
                examples.append(
                    CounterfactualExample(
                        pair=perturbed,
                        changed_attributes=attribute_set,
                        score=score,
                        original_score=original_score,
                    )
                )
        counterfactual = CounterfactualExplanation(
            pair=pair,
            prediction=original_score,
            examples=examples,
            method=self.method_name,
            attribute_set=attribute_set,
            sufficiency=best_probability,
            metadata={"candidate_sets": float(len(sufficiency_probability))},
        )

        return CertaExplanation(
            saliency=saliency,
            counterfactual=counterfactual,
            triangles_used=len(search.triangles),
            triangles_requested=search.requested,
            augmented_triangles=search.augmented_count,
            flips=flips,
            exploration=exploration,
            sufficiency_by_set=sufficiency_probability,
            engine_stats=self.engine.stats - engine_start,
            lattice_engine_stats=lattice_engine_stats,
            featurizer_stats=self._featurizer_delta(featurizer_start),
            index_stats=search.index_stats,
        )

    def _featurizer_delta(self, start: FeaturizerStats | None) -> FeaturizerStats | None:
        """Featurisation counter delta since ``start`` (None when untracked)."""
        current = self.engine.featurizer_stats
        if current is None:
            return None
        return current - start if start is not None else current

    # ------------------------------------------------- protocol implementations

    def explain(self, pair: RecordPair) -> SaliencyExplanation:
        """Saliency explanation (probability of necessity per attribute)."""
        return self.explain_full(pair).saliency

    def explain_counterfactual(self, pair: RecordPair) -> CounterfactualExplanation:
        """Counterfactual explanation (examples over the golden attribute set)."""
        return self.explain_full(pair).counterfactual
