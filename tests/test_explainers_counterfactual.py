"""Tests for the counterfactual baselines: DiCE, LIME-C, SHAP-C (SEDC)."""

from __future__ import annotations

import pytest

from repro.explain.dice import DiceExplainer
from repro.explain.lime import LimeExplainer
from repro.explain.sedc import LimeCExplainer, SedcCounterfactualExplainer, ShapCExplainer

from tests.helpers import SimilarityModel


class TestDice:
    @pytest.fixture()
    def explainer(self, similarity_model, sources):
        left, right = sources
        return DiceExplainer(similarity_model, left, right, total_candidates=80, seed=0)

    def test_examples_flip_the_prediction(self, explainer, match_pair):
        explanation = explainer.explain_counterfactual(match_pair)
        assert explanation.examples  # similarity model is easy to flip
        assert all(example.flipped for example in explanation.examples)

    def test_non_match_can_be_flipped_to_match(self, explainer, non_match_pair):
        explanation = explainer.explain_counterfactual(non_match_pair)
        for example in explanation.examples:
            assert example.score > 0.5

    def test_examples_respect_max_count(self, similarity_model, sources, match_pair):
        left, right = sources
        explainer = DiceExplainer(similarity_model, left, right, total_candidates=80, max_examples=2, seed=0)
        explanation = explainer.explain_counterfactual(match_pair)
        assert explanation.count() <= 2

    def test_changed_attributes_are_recorded(self, explainer, match_pair):
        explanation = explainer.explain_counterfactual(match_pair)
        for example in explanation.examples:
            assert example.changed_attributes
            original_flat = match_pair.as_flat_dict()
            perturbed_flat = example.pair.as_flat_dict()
            truly_changed = {
                name for name in original_flat if original_flat[name] != perturbed_flat[name]
            }
            assert truly_changed <= set(example.changed_attributes)

    def test_deterministic_given_seed(self, similarity_model, sources, match_pair):
        left, right = sources
        first = DiceExplainer(similarity_model, left, right, total_candidates=40, seed=3)
        second = DiceExplainer(similarity_model, left, right, total_candidates=40, seed=3)
        assert (
            first.explain_counterfactual(match_pair).count()
            == second.explain_counterfactual(match_pair).count()
        )

    def test_prediction_recorded(self, explainer, match_pair, similarity_model):
        explanation = explainer.explain_counterfactual(match_pair)
        assert explanation.prediction == pytest.approx(similarity_model.predict_pair(match_pair))


class TestSedcFamily:
    def test_sedc_flips_match_by_dropping(self, similarity_model, match_pair):
        explainer = SedcCounterfactualExplainer(
            similarity_model, LimeExplainer(similarity_model, n_samples=40, seed=0)
        )
        explanation = explainer.explain_counterfactual(match_pair)
        # Dropping enough of a match's content must eventually flip it.
        assert explanation.examples
        assert all(example.flipped for example in explanation.examples)

    def test_attribute_set_is_prefix_of_ranking(self, similarity_model, match_pair):
        explainer = LimeCExplainer(similarity_model, n_samples=40, seed=0)
        explanation = explainer.explain_counterfactual(match_pair)
        if explanation.attribute_set:
            assert len(explanation.attribute_set) <= 6

    def test_limec_and_shapc_method_names(self, similarity_model, match_pair):
        assert LimeCExplainer(similarity_model, n_samples=20).method_name == "lime-c"
        assert ShapCExplainer(similarity_model, max_coalitions=32).method_name == "shap-c"

    def test_constant_model_yields_no_examples(self, constant_model, match_pair):
        explainer = LimeCExplainer(constant_model, n_samples=20, seed=0)
        explanation = explainer.explain_counterfactual(explanation_pair := match_pair)
        assert explanation.examples == []
        assert explanation.sufficiency == 0.0

    def test_max_attributes_limits_search(self, similarity_model, match_pair):
        explainer = SedcCounterfactualExplainer(
            similarity_model,
            LimeExplainer(similarity_model, n_samples=40, seed=0),
            max_attributes=1,
        )
        explanation = explainer.explain_counterfactual(match_pair)
        assert explanation.metadata["attributes_tried"] <= 1
