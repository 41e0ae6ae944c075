"""Tests for CERTA's perturbation, augmentation, triangle search and explainer."""

from __future__ import annotations

import random

import pytest

import numpy as np

from repro.certa.augmentation import augment_records, record_variants, value_token_drops
from repro.certa.explainer import CertaExplainer
from repro.certa.perturbation import perturb_record, perturbed_pair
from repro.certa.tokens import token_saliency
from repro.certa.triangles import (
    _find_side_triangles,
    _support_content_key,
    find_open_triangles,
)
from repro.data.records import RecordPair
from repro.data.table import DataSource
from repro.exceptions import ExplanationError, TriangleError
from repro.models.base import MATCH_THRESHOLD
from repro.serve.types import explanation_payload

from tests.helpers import LEFT_SCHEMA, make_record


class TestPerturbation:
    def test_perturb_record_copies_requested_attributes(self, sources):
        left, _ = sources
        free, support = left.get("L0"), left.get("L1")
        perturbed = perturb_record(free, support, ["name"])
        assert perturbed.value("name") == support.value("name")
        assert perturbed.value("description") == free.value("description")

    def test_perturb_record_unknown_attribute_raises(self, sources):
        left, _ = sources
        with pytest.raises(ExplanationError):
            perturb_record(left.get("L0"), left.get("L1"), ["bogus"])

    def test_perturbed_pair_left_side(self, sources, match_pair):
        left, _ = sources
        support = left.get("L2")
        perturbed = perturbed_pair(match_pair, "left", support, ["name", "price"])
        assert perturbed.left.value("name") == support.value("name")
        assert perturbed.right is match_pair.right

    def test_perturbed_pair_right_side(self, sources, match_pair):
        _, right = sources
        support = right.get("R2")
        perturbed = perturbed_pair(match_pair, "right", support, ["description"])
        assert perturbed.right.value("description") == support.value("description")
        assert perturbed.left is match_pair.left

    def test_perturbed_pair_invalid_side(self, sources, match_pair):
        left, _ = sources
        with pytest.raises(ExplanationError):
            perturbed_pair(match_pair, "middle", left.get("L1"), ["name"])


class TestAugmentation:
    def test_value_token_drops_variants(self):
        variants = value_token_drops("a b c")
        assert "b c" in variants
        assert "a b" in variants
        assert "a b c" not in variants

    def test_value_token_drops_single_token(self):
        assert value_token_drops("single") == []

    def test_value_token_drops_respects_max_drop(self):
        variants = value_token_drops("a b c d e", max_drop=1)
        assert set(variants) == {"b c d e", "a b c d"}

    def test_record_variants_change_something(self):
        record = make_record("L0", "sony bravia theater", "black micro system", "10")
        variants = list(record_variants(record, max_variants=5, rng=random.Random(0)))
        assert variants
        for variant in variants:
            assert dict(variant.values) != dict(record.values)

    def test_record_variants_cap(self):
        record = make_record("L0", "sony bravia theater", "black micro system", "10")
        variants = list(record_variants(record, max_variants=3, rng=random.Random(0)))
        assert len(variants) <= 3

    def test_augment_records_produces_requested_count(self, sources):
        left, _ = sources
        augmented = augment_records(left.records, needed=12, rng=random.Random(0))
        assert len(augmented) == 12

    def test_augment_records_small_need(self, sources):
        left, _ = sources
        assert len(augment_records(left.records, needed=1, rng=random.Random(0))) == 1


class TestTriangleSearch:
    def test_selection_is_independent_of_source_record_order(
        self, similarity_model, sources, match_pair, non_match_pair
    ):
        """Shuffling the records inside a source must not change the triangles.

        Candidate ranking canonicalises by record id before the similarity
        sort / seeded shuffle, so triangle selection is a pure function of the
        record *set*, the pair and the seed — stable across runs even when
        equal similarity scores would otherwise leave the order to the
        source's iteration order.
        """
        left, right = sources
        reversed_left = DataSource(
            name=left.name, schema=left.schema, records=list(reversed(list(left.records)))
        )
        reversed_right = DataSource(
            name=right.name, schema=right.schema, records=list(reversed(list(right.records)))
        )
        for pair in (match_pair, non_match_pair):
            baseline = find_open_triangles(similarity_model, pair, left, right, count=6, seed=3)
            shuffled = find_open_triangles(
                similarity_model, pair, reversed_left, reversed_right, count=6, seed=3
            )
            assert [
                (triangle.side, triangle.support.record_id) for triangle in baseline.triangles
            ] == [(triangle.side, triangle.support.record_id) for triangle in shuffled.triangles]

    def test_supports_have_opposite_prediction(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=6, seed=0)
        original = similarity_model.predict_match(match_pair)
        for triangle in result.triangles:
            support_prediction = similarity_model.predict_match(triangle.support_pair())
            assert support_prediction != original

    def test_supports_come_from_the_free_side(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=6, seed=0)
        for triangle in result.triangles:
            if triangle.side == "left":
                assert triangle.support.source == "U" or triangle.augmented
            else:
                assert triangle.support.source == "V" or triangle.augmented

    def test_free_and_pivot_records(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=4, seed=0)
        for triangle in result.triangles:
            if triangle.side == "left":
                assert triangle.free_record is match_pair.left
                assert triangle.pivot_record is match_pair.right
            else:
                assert triangle.free_record is match_pair.right
                assert triangle.pivot_record is match_pair.left

    def test_non_match_prediction_finds_matching_supports(self, similarity_model, sources, non_match_pair):
        left, right = sources
        # non_match_pair is (L4, R4): garmin gps vs netgear router — predicted non-match.
        result = find_open_triangles(similarity_model, non_match_pair, left, right, count=4, seed=0)
        for triangle in result.triangles:
            assert similarity_model.predict_pair(triangle.support_pair()) > MATCH_THRESHOLD

    def test_invalid_count_rejected(self, similarity_model, sources, match_pair):
        left, right = sources
        with pytest.raises(TriangleError):
            find_open_triangles(similarity_model, match_pair, left, right, count=0)

    def test_empty_source_rejected(self, similarity_model, sources, match_pair):
        left, _ = sources
        empty = DataSource(name="empty", schema=LEFT_SCHEMA, records=[])
        with pytest.raises(TriangleError):
            find_open_triangles(similarity_model, match_pair, left, empty, count=4)

    def test_augmentation_fallback_fills_shortfall(self, similarity_model, sources, match_pair):
        left, right = sources
        natural = find_open_triangles(
            similarity_model, match_pair, left, right, count=40, seed=0, allow_augmentation=False
        )
        augmented = find_open_triangles(
            similarity_model, match_pair, left, right, count=40, seed=0, allow_augmentation=True
        )
        assert len(augmented.triangles) >= len(natural.triangles)

    def test_force_augmentation_uses_only_augmented_supports(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(
            similarity_model, match_pair, left, right, count=6, seed=0, force_augmentation=True
        )
        assert all(triangle.augmented for triangle in result.triangles)

    def test_excluded_supports_are_neither_used_nor_scored(self, similarity_model, sources, match_pair):
        """The compensation pass's exclusion set skips records entirely."""
        left, _ = sources
        original_match = similarity_model.predict_match(match_pair)
        baseline, baseline_scored, _ = _find_side_triangles(
            similarity_model, match_pair, "left", left, original_match,
            needed=10, rng=random.Random(0), max_candidates=None,
            allow_augmentation=False,
        )
        assert baseline  # the toy sources supply at least one left triangle
        excluded = frozenset(triangle.support.record_id for triangle in baseline)
        rescan, rescan_scored, _ = _find_side_triangles(
            similarity_model, match_pair, "left", left, original_match,
            needed=10, rng=random.Random(0), max_candidates=None,
            allow_augmentation=False, exclude_support_ids=excluded,
        )
        assert all(triangle.support.record_id not in excluded for triangle in rescan)
        assert rescan_scored <= baseline_scored - len(excluded)

    def test_mid_batch_tail_is_not_counted_as_scored(self, constant_model, sources, match_pair):
        """Once ``needed`` is reached, unread batch-tail candidates don't count."""
        left, _ = sources
        # ConstantModel scores 0.9 > threshold: every candidate qualifies when
        # the original prediction is a non-match, so the very first candidate
        # of the first batch completes the search.
        triangles, scored, _ = _find_side_triangles(
            constant_model, match_pair, "left", left, original_match=False,
            needed=1, rng=random.Random(0), max_candidates=None,
            allow_augmentation=False, batch_size=32,
        )
        assert len(triangles) == 1
        assert scored == 1

    def test_left_compensates_short_right_side_without_duplicates(self, similarity_model, match_pair):
        """A short right side is topped up from the left, never reusing supports."""
        left_records = [
            make_record(f"XL{i}", f"gadget {i}", f"unrelated widget {i} kit", str(10 + i))
            for i in range(8)
        ]
        left_records.append(match_pair.left)
        # Every right-side candidate is a near-duplicate of the pivot, so the
        # right search finds no opposite-prediction support at all.
        right_records = [match_pair.right] + [
            make_record(
                f"R{i}", match_pair.right.value("name"), match_pair.right.value("description"),
                match_pair.right.value("price"), source="V",
            )
            for i in range(1, 4)
        ]
        left = DataSource(name="wide-left", schema=LEFT_SCHEMA, records=left_records)
        right = DataSource(name="narrow-right", schema=LEFT_SCHEMA, records=right_records)
        result = find_open_triangles(
            similarity_model, match_pair, left, right, count=6, seed=0,
            allow_augmentation=False,
        )
        left_supports = [
            triangle.support.record_id for triangle in result.triangles if triangle.side == "left"
        ]
        assert len(left_supports) == len(set(left_supports))  # compensation never reuses
        assert len(result.triangles) > 3  # the left side topped up the short right side
        # Each left candidate is scored at most twice (first pass + top-up
        # rescan of the not-yet-used remainder) and used supports are skipped,
        # so the accounting stays below the naive full-rescan ceiling.
        assert result.candidates_scored <= 2 * (len(left_records) - 1) + len(right_records) - 1


class _OppositeToOriginalModel:
    """Original pair predicts non-match; every other pair predicts match.

    Stresses the augmentation path: with a starved right side every fabricated
    left candidate qualifies as a support, so the compensation pass exercises
    repeated ``augment_records`` calls over the same base records.
    """

    name = "opposite-to-original"

    def __init__(self, original_ids: tuple[str, str]) -> None:
        self.original_ids = original_ids

    def predict_proba(self, pairs) -> np.ndarray:
        return np.array(
            [
                0.2 if (pair.left.record_id, pair.right.record_id) == self.original_ids else 0.9
                for pair in pairs
            ],
            dtype=np.float64,
        )

    def predict_pair(self, pair) -> float:
        return float(self.predict_proba([pair])[0])

    def predict_match(self, pair) -> bool:
        return self.predict_pair(pair) > 0.5


class TestCompensationPass:
    """The top-up pass: side balance, exclusions, accounting, content dedupe."""

    @pytest.fixture()
    def starved_right_setup(self):
        """A pair whose right source holds only the pivot partner.

        The right side can supply no support at all (no candidates, no
        augmentation bases), so the left side must compensate for the whole
        ``count``; the tiny two-token attribute values keep the augmentation
        variant space small enough that re-fabrication collisions are certain.
        """
        free = make_record("L0", "sony tv", "big sony tv", "10")
        base_records = [
            make_record("L1", "alpha beta", "gamma delta", "11"),
            make_record("L2", "epsilon zeta", "eta theta", "12"),
        ]
        left = DataSource(name="starved-left", schema=LEFT_SCHEMA, records=[free] + base_records)
        pivot = make_record("R0", "sony tv set", "big sony tv set", "10", source="V")
        right = DataSource(name="starved-right", schema=LEFT_SCHEMA, records=[pivot])
        pair = RecordPair(free, pivot, True)
        return _OppositeToOriginalModel(("L0", "R0")), pair, left, right

    @pytest.mark.parametrize("seed", [0, 2, 4, 5])
    def test_compensation_never_duplicates_support_content(self, starved_right_setup, seed):
        """Regression: the top-up excluded used support *ids* only, and a
        re-run of ``augment_records`` over the same base records fabricates
        variants with identical content under fresh ids — every tested seed
        produced between one and four content-duplicate supports before the
        content-key dedupe."""
        model, pair, left, right = starved_right_setup
        result = find_open_triangles(
            model, pair, left, right, count=8, seed=seed, force_augmentation=True
        )
        keys = [(t.side, _support_content_key(t.support)) for t in result.triangles]
        assert len(keys) == len(set(keys))
        assert len(result.triangles) == 8  # dedupe fills the quota with fresh variants

    def test_compensation_comes_from_the_left_side(self, starved_right_setup):
        model, pair, left, right = starved_right_setup
        result = find_open_triangles(
            model, pair, left, right, count=8, seed=0, force_augmentation=True
        )
        assert len(result.by_side("left")) == 8
        assert result.by_side("right") == []
        assert result.augmented_count == 8
        assert result.natural_count == 0

    def test_even_count_splits_half_and_half(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=6, seed=0)
        assert len(result.by_side("left")) == 3
        assert len(result.by_side("right")) == 3

    def test_odd_count_gives_right_side_the_remainder(self, similarity_model, sources, match_pair):
        """``count // 2`` go left; the right side is asked for the rest."""
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=7, seed=0)
        assert len(result.by_side("left")) == 3
        assert len(result.by_side("right")) == 4
        assert len(result.triangles) == 7

    def test_count_one_is_all_right_side(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=1, seed=0)
        assert len(result.triangles) == 1
        assert result.by_side("left") == []

    def test_compensation_honours_exclusions_and_accounting(self, starved_right_setup):
        """Scored/augmented counters cover the top-up pass, and the top-up
        never re-uses a first-pass support id."""
        model, pair, left, right = starved_right_setup
        result = find_open_triangles(
            model, pair, left, right, count=8, seed=1, force_augmentation=True
        )
        support_ids = [t.support.record_id for t in result.triangles]
        assert len(support_ids) == len(set(support_ids))
        assert result.augmented_count == sum(1 for t in result.triangles if t.augmented)
        # Every accepted support was scored, and the scored counter also saw
        # the rejected / duplicate candidates the passes consumed.
        assert result.candidates_scored >= len(result.triangles)


class TestCertaExplainer:
    @pytest.fixture()
    def explainer(self, similarity_model, sources):
        left, right = sources
        return CertaExplainer(similarity_model, left, right, num_triangles=8, seed=0)

    def test_saliency_covers_all_attributes(self, explainer, match_pair):
        explanation = explainer.explain(match_pair)
        assert set(explanation.scores) == {
            "left_name", "left_description", "left_price",
            "right_name", "right_description", "right_price",
        }

    def test_saliency_scores_are_probabilities(self, explainer, match_pair):
        explanation = explainer.explain(match_pair)
        assert all(0.0 <= score <= 1.0 for score in explanation.scores.values())

    def test_counterfactual_examples_flip(self, explainer, match_pair):
        explanation = explainer.explain_counterfactual(match_pair)
        assert explanation.examples
        for example in explanation.examples:
            assert example.flipped

    def test_counterfactual_attribute_set_matches_examples(self, explainer, match_pair):
        explanation = explainer.explain_counterfactual(match_pair)
        for example in explanation.examples:
            assert example.changed_attributes == explanation.attribute_set

    def test_explain_full_bookkeeping(self, explainer, match_pair):
        explanation = explainer.explain_full(match_pair)
        assert explanation.triangles_used > 0
        assert explanation.flips > 0
        assert explanation.performed_predictions() > 0
        assert 0.0 <= explanation.best_sufficiency() <= 1.0
        assert 0.0 <= explanation.average_necessity() <= 1.0

    def test_non_match_explanation(self, explainer, labelled_pairs):
        non_match = labelled_pairs[4]  # (L0, R1): predicted non-match by similarity model
        explanation = explainer.explain_full(non_match)
        assert explanation.prediction < 0.5
        for example in explanation.counterfactual.examples:
            assert example.score > 0.5

    def test_monotone_and_exhaustive_agree_on_flip_counts_for_monotone_model(
        self, similarity_model, sources, match_pair
    ):
        left, right = sources
        monotone = CertaExplainer(similarity_model, left, right, num_triangles=6, monotone=True, seed=1)
        exhaustive = CertaExplainer(similarity_model, left, right, num_triangles=6, monotone=False, seed=1)
        first = monotone.explain_full(match_pair)
        second = exhaustive.explain_full(match_pair)
        assert first.flips == pytest.approx(second.flips, abs=first.flips * 0.25 + 1)
        assert second.saved_predictions() == 0
        assert first.saved_predictions() >= 0

    def test_lenient_mode_returns_degenerate_explanation(self, constant_model, sources, match_pair):
        left, right = sources
        zeros = {
            f"{side}_{attribute}": 0.0
            for side in ("left", "right")
            for attribute in ("description", "name", "price")
        }
        for batched in (True, False):
            explainer = CertaExplainer(
                constant_model, left, right, num_triangles=4, seed=0, batched=batched,
            )
            explanation = explainer.explain_full(match_pair)
            assert explanation_payload(explanation) == {
                "prediction": 0.9,
                "saliency": zeros,
                "counterfactual": {"attribute_set": [], "sufficiency": 0.0, "examples": []},
                "triangles_used": 0,
                "triangles_requested": 4,
                "augmented_triangles": 0,
                "flips": 0,
                "performed_predictions": 0,
                "saved_predictions": 0,
                "sufficiency_by_set": {},
            }
            assert explanation.saliency.metadata == {"triangles": 0.0, "flips": 0.0}
            assert explanation.counterfactual.metadata == {"candidate_sets": 0.0}
            assert explanation.exploration == []
            assert explanation.lattice_batches() == 0

    def test_more_triangles_never_reduces_triangles_used(self, explainer, similarity_model, sources, match_pair):
        left, right = sources
        small = CertaExplainer(similarity_model, left, right, num_triangles=4, seed=0)
        large = CertaExplainer(similarity_model, left, right, num_triangles=10, seed=0)
        assert large.explain_full(match_pair).triangles_used >= small.explain_full(match_pair).triangles_used


class TestTokenSaliency:
    def test_token_scores_align_with_tokens(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=6, seed=0)
        saliency = token_saliency(similarity_model, match_pair, "left_description", result.triangles)
        assert len(saliency.tokens) == len(saliency.scores)
        assert saliency.tokens == match_pair.left.value("description").split()

    def test_scores_are_probabilities(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=6, seed=0)
        saliency = token_saliency(similarity_model, match_pair, "left_name", result.triangles)
        assert all(0.0 <= score <= 1.0 for score in saliency.scores)

    def test_empty_attribute_yields_empty_saliency(self, similarity_model, sources, match_pair):
        left, right = sources
        masked = match_pair.with_left(match_pair.left.mask(["price"]))
        result = find_open_triangles(similarity_model, masked, left, right, count=4, seed=0)
        saliency = token_saliency(similarity_model, masked, "left_price", result.triangles)
        assert saliency.tokens == []
        assert saliency.top_tokens(3) == []

    def test_ranked_order(self, similarity_model, sources, match_pair):
        left, right = sources
        result = find_open_triangles(similarity_model, match_pair, left, right, count=6, seed=0)
        saliency = token_saliency(similarity_model, match_pair, "left_description", result.triangles)
        ranked_scores = [score for _, score in saliency.ranked()]
        assert ranked_scores == sorted(ranked_scores, reverse=True)
