"""Tests for repro.certa.lattice, including the paper's worked example."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certa.explainer import CertaExplainer
from repro.certa.lattice import (
    AttributeLattice,
    explore_lattice,
    monotonicity_violations,
)
from repro.data.registry import load_benchmark
from repro.exceptions import LatticeError
from repro.models.training import train_model


class TestLatticeConstruction:
    def test_node_count_is_powerset_minus_empty(self):
        lattice = AttributeLattice(["N", "D", "P"])
        assert len(lattice) == 7

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(LatticeError):
            AttributeLattice([])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(LatticeError):
            AttributeLattice(["a", "a"])

    def test_levels_are_ordered_by_size(self):
        # Breadth-first: by size, then by sorted names, whatever the tuple order.
        lattice = AttributeLattice(["c", "a", "b"])
        table = lattice.table
        assert [len(level) for level in table.levels] == [3, 3, 1]
        names = ["".join(sorted(table.sets[mask])) for mask in table.order]
        assert names == ["a", "b", "c", "ab", "ac", "bc", "abc"]
        assert [mask for level in table.levels for mask in level] == list(table.order)

    def test_supersets_and_subsets(self):
        # Masks are bit sets over the attribute tuple: bit i is attributes[i].
        lattice = AttributeLattice(["a", "b", "c"])
        sets = lattice.table.sets
        assert [sets[1 << bit] for bit in range(3)] == [frozenset(name) for name in "abc"]
        lattice.tag(lattice.mask(["a"]), True)
        lattice.propagate_flip(lattice.mask(["a"]))
        supersets = {sets[mask] for mask in lattice.flipped_nodes()} - {frozenset("a")}
        assert supersets == {frozenset("ab"), frozenset("ac"), frozenset("abc")}
        ab = lattice.mask(["a", "b"])
        subsets = {sets[mask] for mask in lattice.table.order if mask & ab == mask != ab}
        assert subsets == {frozenset("a"), frozenset("b")}

    def test_node_lookup_unknown_set(self):
        lattice = AttributeLattice(["a"])
        with pytest.raises(LatticeError):
            lattice.mask(["b"])
        with pytest.raises(LatticeError):
            lattice.mask([])

    def test_contains(self):
        lattice = AttributeLattice(["a", "b"])
        assert lattice.mask(["b", "a"]) == lattice.full == 0b11
        assert lattice.mask(["b"]) == 0b10
        with pytest.raises(LatticeError):
            lattice.mask(["c"])


class TestSharedNodeKeys:
    """Lattices over one attribute tuple share one schema table, never tags."""

    def test_lattices_share_key_objects_but_not_nodes(self):
        first = AttributeLattice(["title", "brand", "price"])
        second = AttributeLattice(["title", "brand", "price"])
        assert second.table is first.table
        assert first.flips is not second.flips
        first.tag(first.mask(["title"]), True)
        first.propagate_flip(first.mask(["title"]))
        assert first.flips[first.mask(["title", "price"])] is True
        assert not any(tag is not None for tag in second.flips)

    def test_cold_explanations_share_sufficiency_keys(self):
        dataset = load_benchmark("IA", scale=0.5)
        model = train_model("deepmatcher", dataset, fast=True).model
        explanations = []
        for pair in list(dataset.test.pairs)[:3]:
            model.clear_featurizer_cache()
            explainer = CertaExplainer(model, dataset.left, dataset.right, num_triangles=4)
            explanations.append(explainer.explain_full(pair))
        first, second, third = (explanation.sufficiency_by_set for explanation in explanations)
        first_keys = {attributes: attributes for _side, attributes in first}
        shared = [attributes for _side, attributes in second if attributes in first_keys]
        assert shared
        assert all(first_keys[attributes] is attributes for attributes in shared)
        # The (side, attributes) tuples are shared objects too (the first two
        # pairs' triangles lie on opposite sides; the third's on both).
        earlier = {key: key for key in list(first) + list(second)}
        shared_tuples = [key for key in third if key in earlier]
        assert shared_tuples
        assert all(earlier[key] is key for key in shared_tuples)
        # Equal probabilities within an explanation are one float object.
        probabilities = list(third.values())
        assert len({id(value) for value in probabilities}) == len(set(probabilities)) < len(probabilities)


class TestTaggingAndPropagation:
    def test_propagate_flip_marks_supersets_as_inferred(self):
        lattice = AttributeLattice(["a", "b", "c"])
        lattice.tag(lattice.mask(["a"]), True)
        inferred = lattice.propagate_flip(lattice.mask(["a"]))
        assert inferred == 3
        assert lattice.flips[lattice.mask(["a", "b"])] is True
        assert lattice.evaluated[lattice.mask(["a", "b"])] is False
        assert lattice.flips[lattice.mask(["b", "c"])] is None

    def test_propagate_does_not_overwrite_tested_nodes(self):
        lattice = AttributeLattice(["a", "b"])
        lattice.tag(lattice.mask(["a", "b"]), False, evaluated=True)
        lattice.tag(lattice.mask(["a"]), True)
        assert lattice.propagate_flip(lattice.mask(["a"])) == 0
        assert lattice.flips[lattice.mask(["a", "b"])] is False

    def test_minimal_flipping_antichain(self):
        lattice = AttributeLattice(["N", "D", "P"])
        for subset in (["N"], ["D"], ["N", "D"], ["N", "P"], ["D", "P"], ["N", "D", "P"]):
            lattice.tag(lattice.mask(subset), True)
        lattice.tag(lattice.mask(["P"]), False)
        antichain = lattice.minimal_flipping_antichain()
        assert antichain == [frozenset({"D"}), frozenset({"N"})]

    def test_candidate_sets_exclude_full_set(self):
        lattice = AttributeLattice(["a", "b"])
        lattice.tag(lattice.mask(["a"]), True)
        lattice.tag(lattice.mask(["a", "b"]), True)
        assert lattice.full not in lattice.candidate_sets()
        assert lattice.candidate_sets() == [lattice.mask(["a"])]


class TestExploration:
    def test_monotone_exploration_saves_predictions(self):
        lattice = AttributeLattice(["a", "b", "c", "d"])
        stats = explore_lattice(lattice, lambda attrs: "a" in attrs, monotone=True)
        assert stats.performed_predictions < stats.expected_predictions
        assert stats.saved_predictions > 0

    def test_exhaustive_exploration_tags_every_node(self):
        lattice = AttributeLattice(["a", "b", "c"])
        stats = explore_lattice(lattice, lambda attrs: len(attrs) >= 2, monotone=False)
        assert all(lattice.flips[mask] is not None for mask in lattice.table.order)
        # Every node except the (never-evaluated) full set is tested explicitly.
        assert stats.performed_predictions == stats.expected_predictions
        assert lattice.evaluated[lattice.full] is False
        assert lattice.flips[lattice.full] is True

    def test_monotone_and_exhaustive_agree_for_monotone_functions(self):
        def truly_monotone(attrs):
            return "a" in attrs or len(attrs) >= 3

        monotone_lattice = AttributeLattice(["a", "b", "c", "d"])
        explore_lattice(monotone_lattice, truly_monotone, monotone=True)
        exhaustive_lattice = AttributeLattice(["a", "b", "c", "d"])
        explore_lattice(exhaustive_lattice, truly_monotone, monotone=False)
        assert monotone_lattice.flips == exhaustive_lattice.flips

    def test_monotonicity_violations_detects_non_monotone_function(self):
        # Flips on {a} but NOT on {a, b}: violates monotonicity.
        def non_monotone(attrs):
            return attrs == frozenset({"a"})

        stats, wrong = monotonicity_violations(["a", "b", "c"], non_monotone)
        assert stats.saved_predictions > 0
        assert wrong > 0

    def test_monotonicity_violations_zero_for_monotone_function(self):
        stats, wrong = monotonicity_violations(["a", "b", "c"], lambda attrs: "a" in attrs)
        assert wrong == 0
        assert stats.saved_predictions > 0

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_nothing_flips_means_every_node_is_evaluated(self, width):
        attributes = [f"a{i}" for i in range(width)]
        lattice = AttributeLattice(attributes)
        stats = explore_lattice(lattice, lambda attrs: False, monotone=True)
        assert stats.performed_predictions == stats.expected_predictions
        assert lattice.flipped_nodes() == []

    @given(st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_flip_threshold_functions_yield_consistent_antichain(self, trigger):
        # gamma(A) = trigger <= A  is monotone by construction.
        lattice = AttributeLattice(["a", "b", "c", "d"])
        explore_lattice(lattice, lambda attrs: trigger <= attrs, monotone=True)
        antichain = lattice.minimal_flipping_antichain()
        assert antichain == [frozenset(trigger)]


class TestPaperWorkedExample:
    """Reproduce the counters of the Section 4 worked example (Figure 9)."""

    LATTICE_TAGS = {
        # per support record: attribute sets that flip
        "w1": [{"N"}, {"D"}, {"N", "D"}, {"N", "P"}, {"D", "P"}, {"N", "D", "P"}],
        "w2": [{"N"}, {"N", "D"}, {"N", "P"}, {"D", "P"}, {"N", "D", "P"}],
        "w3": [{"N"}, {"N", "D"}, {"N", "P"}, {"N", "D", "P"}],
        "w4": [{"N", "D"}, {"N", "P"}, {"D", "P"}, {"N", "D", "P"}],
    }

    def _tagged_lattices(self):
        lattices = {}
        for name, flips in self.LATTICE_TAGS.items():
            lattice = AttributeLattice(["N", "D", "P"])
            flip_sets = [frozenset(f) for f in flips]
            explore_lattice(lattice, lambda attrs, fs=flip_sets: attrs in fs, monotone=False)
            lattices[name] = lattice
        return lattices

    def test_total_flips_is_19(self):
        lattices = self._tagged_lattices()
        total = sum(len(lattice.flipped_nodes()) for lattice in lattices.values())
        assert total == 19

    def test_necessity_counts_match_paper(self):
        lattices = self._tagged_lattices()
        counts = {"N": 0, "D": 0, "P": 0}
        for lattice in lattices.values():
            for mask in lattice.flipped_nodes():
                for attribute in lattice.table.sets[mask]:
                    counts[attribute] += 1
        assert counts["N"] == 15
        assert counts["P"] == 11
        # The paper reports 13 for D; direct enumeration of Figure 9 gives 12.
        assert counts["D"] in (12, 13)

    def test_sufficiency_of_singletons(self):
        lattices = self._tagged_lattices()
        chi_n = sum(1 for lattice in lattices.values() if lattice.flips[lattice.mask(["N"])]) / 4
        chi_d = sum(1 for lattice in lattices.values() if lattice.flips[lattice.mask(["D"])]) / 4
        chi_p = sum(1 for lattice in lattices.values() if lattice.flips[lattice.mask(["P"])]) / 4
        assert chi_n == pytest.approx(3 / 4)
        assert chi_d == pytest.approx(1 / 4)
        assert chi_p == 0.0

    def test_sufficiency_of_pairs_and_golden_set(self):
        lattices = self._tagged_lattices()

        def chi(attrs):
            return sum(1 for lattice in lattices.values() if lattice.flips[lattice.mask(attrs)]) / 4

        assert chi(["N", "D"]) == 1.0
        assert chi(["N", "P"]) == 1.0
        assert chi(["D", "P"]) == pytest.approx(3 / 4)
        # The golden set must be one of the size-2 sets with chi = 1 (not the full set).
        candidates = {frozenset({"N", "D"}), frozenset({"N", "P"})}
        best = max(
            (frozenset(a) for a in (["N"], ["D"], ["P"], ["N", "D"], ["N", "P"], ["D", "P"])),
            key=lambda attrs: (chi(attrs), -len(attrs)),
        )
        assert best in candidates
