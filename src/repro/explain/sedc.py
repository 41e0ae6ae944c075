"""SEDC-style counterfactual search: the engine behind LIME-C and SHAP-C.

Ramon et al. (ADAC 2020) derive counterfactual explanations from feature
attributions by greedily "switching off" the most important features until the
prediction flips (the SEDC heuristic).  LIME-C and SHAP-C are that heuristic
seeded with LIME and SHAP rankings respectively; the paper adapts them to ER
by treating the record pair as text and, for LIME-C, by using Mojito as the
underlying attribution method.

For ER the "switch off" operation follows the same semantics as Mojito: drop
the attribute value when explaining a Match, copy the aligned value from the
other record when explaining a Non-Match (dropping evidence can never flip a
non-match into a match).
"""

from __future__ import annotations

from repro.data.records import RecordPair
from repro.explain.base import (
    CounterfactualExample,
    CounterfactualExplainer,
    CounterfactualExplanation,
    SaliencyExplainer,
)
from repro.explain.sampling import perturb_pair
from repro.models.base import MATCH_THRESHOLD, ERModel
from repro.models.engine import PredictionEngine


class SedcCounterfactualExplainer(CounterfactualExplainer):
    """Greedy attribution-guided counterfactual search (SEDC heuristic)."""

    method_name = "sedc"

    def __init__(
        self,
        model: ERModel,
        saliency_explainer: SaliencyExplainer,
        max_attributes: int | None = None,
        engine: PredictionEngine | None = None,
    ) -> None:
        super().__init__(model, engine=engine)
        self.saliency_explainer = saliency_explainer
        self.max_attributes = max_attributes

    def explain_counterfactual(self, pair: RecordPair) -> CounterfactualExplanation:
        """Perturb attributes in descending saliency order until the prediction flips.

        All intermediate perturbed pairs that flip the prediction are reported
        as examples (often zero or one — the SEDC family is known to produce
        few counterfactuals, which Figure 10 of the paper shows).
        """
        original_score = self.engine.predict_pair(pair)
        predicted_match = original_score > MATCH_THRESHOLD
        operator = "drop" if predicted_match else "copy"

        saliency = self.saliency_explainer.explain(pair)
        ranking = [name for name, score in saliency.ranked() if score > 0.0]
        if self.max_attributes is not None:
            ranking = ranking[: self.max_attributes]

        examples: list[CounterfactualExample] = []
        flipped_set: tuple[str, ...] = ()
        # Every prefix of the ranking is scored regardless of where the first
        # flip lands, so the whole greedy path is one batched call.
        prefixes = [ranking[: size + 1] for size in range(len(ranking))]
        perturbed_pairs = [perturb_pair(pair, prefix, operator=operator) for prefix in prefixes]
        scores = self.engine.predict_proba(perturbed_pairs)
        for prefix, perturbed, score in zip(prefixes, perturbed_pairs, scores):
            example = CounterfactualExample(
                pair=perturbed,
                changed_attributes=tuple(prefix),
                score=float(score),
                original_score=original_score,
            )
            if example.flipped:
                examples.append(example)
                if not flipped_set:
                    flipped_set = tuple(prefix)
        return CounterfactualExplanation(
            pair=pair,
            prediction=original_score,
            examples=examples,
            method=self.method_name,
            attribute_set=flipped_set,
            sufficiency=1.0 if examples else 0.0,
            metadata={"attributes_tried": float(len(ranking))},
        )


class LimeCExplainer(SedcCounterfactualExplainer):
    """LIME-C: SEDC counterfactual search seeded with a Mojito ranking.

    Following Section 5.2 of the paper, the underlying attribution method is
    Mojito rather than plain LIME, "to have a better fit with the ER setting".
    """

    method_name = "lime-c"

    def __init__(
        self,
        model: ERModel,
        n_samples: int = 96,
        seed: int = 0,
        engine: PredictionEngine | None = None,
        **kwargs,
    ) -> None:
        from repro.explain.mojito import MojitoExplainer

        engine = engine or PredictionEngine(model)
        super().__init__(
            model,
            MojitoExplainer(model, n_samples=n_samples, seed=seed, engine=engine),
            engine=engine,
            **kwargs,
        )


class ShapCExplainer(SedcCounterfactualExplainer):
    """SHAP-C: SEDC counterfactual search seeded with a KernelSHAP ranking."""

    method_name = "shap-c"

    def __init__(
        self,
        model: ERModel,
        max_coalitions: int = 120,
        seed: int = 0,
        engine: PredictionEngine | None = None,
        **kwargs,
    ) -> None:
        from repro.explain.shap import ShapExplainer

        engine = engine or PredictionEngine(model)
        super().__init__(
            model,
            ShapExplainer(model, max_coalitions=max_coalitions, seed=seed, engine=engine),
            engine=engine,
            **kwargs,
        )
