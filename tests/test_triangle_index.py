"""Equivalence and unit tests for the source token index (repro.data.indexing).

The contract under test: every indexed path — top-k similarity ranking, token
blocking, candidate-pair generation and open-triangle discovery — returns
*identical* results to the full-scan reference it replaces, while building
each source's index once and reusing it across queries.
"""

from __future__ import annotations

import random

import pytest

from repro.certa.explainer import CertaExplainer
from repro.certa.triangles import find_open_triangles
from repro.data.blocking import (
    DEFAULT_BLOCKING_TOKEN_LENGTH,
    candidate_pairs,
    record_blocking_tokens,
    token_blocking,
    top_k_neighbours,
)
from repro.data.indexing import (
    IndexStats,
    SourceTokenIndex,
    get_source_index,
    interned_blocking_tokens,
)
from repro.data.table import DataSource

from tests.helpers import LEFT_SCHEMA, SimilarityModel, make_record, toy_sources


class TestInternedTokens:
    def test_matches_record_blocking_tokens(self, sources):
        left, _ = sources
        for record in left:
            for min_length in (2, 3, 5):
                assert interned_blocking_tokens(record, min_length) == frozenset(
                    record_blocking_tokens(record, min_length)
                )

    def test_same_content_shares_one_entry(self, sources):
        """Perturbed copies with identical content intern to the same object."""
        left, _ = sources
        record = left.get("L0")
        copy = record.replace_values({}, suffix="+copy")
        first = interned_blocking_tokens(record, 2)
        second = interned_blocking_tokens(copy, 2)
        assert first is second


class TestIndexStats:
    def test_subtraction_gives_delta(self):
        later = IndexStats(builds=3, queries=10, postings_visited=100, candidates_pruned=40)
        earlier = IndexStats(builds=1, queries=4, postings_visited=30, candidates_pruned=10)
        delta = later - earlier
        assert delta == IndexStats(builds=2, queries=6, postings_visited=70, candidates_pruned=30)

    def test_addition_aggregates(self):
        total = IndexStats(builds=1, queries=2) + IndexStats(queries=3, postings_visited=5)
        assert total == IndexStats(builds=1, queries=5, postings_visited=5)

    def test_as_dict_is_prefixed(self):
        stats = IndexStats(
            builds=1, loads=5, delta_applies=6, queries=2, postings_visited=3, candidates_pruned=4
        )
        assert stats.as_dict() == {
            "index_builds": 1,
            "index_loads": 5,
            "index_delta_applies": 6,
            "index_queries": 2,
            "index_postings_visited": 3,
            "index_candidates_pruned": 4,
            "index_compile_ms": 0.0,
            "index_degraded_queries": 0,
        }

    def test_loads_participate_in_arithmetic(self):
        """Warm starts are accounted separately from builds in sums and deltas."""
        total = IndexStats(builds=1, loads=2) + IndexStats(loads=3, queries=1)
        assert total == IndexStats(builds=1, loads=5, queries=1)
        assert (total - IndexStats(loads=4)).loads == 1


def _scan_ranking(query, source, k, exclude_ids=(), min_token_length=DEFAULT_BLOCKING_TOKEN_LENGTH):
    return top_k_neighbours(
        query, list(source), k=k, exclude_ids=exclude_ids,
        min_token_length=min_token_length, indexed=False,
    )


class TestTopKEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4, 10, None])
    def test_identical_to_scan_on_toy_sources(self, sources, k):
        left, right = sources
        for query in list(left) + list(right):
            indexed = top_k_neighbours(query, left, k=k, indexed=True)
            scanned = _scan_ranking(query, left, k)
            assert [r.record_id for r in indexed] == [r.record_id for r in scanned]

    @pytest.mark.parametrize("min_length", [2, 3, 5])
    def test_identical_across_min_token_lengths(self, sources, min_length):
        left, right = sources
        for query in right:
            indexed = top_k_neighbours(
                query, left, k=None, min_token_length=min_length, indexed=True
            )
            scanned = _scan_ranking(query, left, None, min_token_length=min_length)
            assert [r.record_id for r in indexed] == [r.record_id for r in scanned]

    def test_identical_on_benchmark_source(self, benchmark_dataset):
        left, right = benchmark_dataset.left, benchmark_dataset.right
        rng = random.Random(5)
        for query in rng.sample(list(right), 6):
            for k in (3, 25, None):
                indexed = top_k_neighbours(query, left, k=k, indexed=True)
                scanned = _scan_ranking(query, left, k)
                assert [r.record_id for r in indexed] == [r.record_id for r in scanned]

    def test_exclusions_are_respected(self, sources):
        left, right = sources
        query = right.get("R0")
        excluded = ("L0", "L3")
        indexed = top_k_neighbours(query, left, k=None, exclude_ids=excluded, indexed=True)
        scanned = _scan_ranking(query, left, None, exclude_ids=excluded)
        assert [r.record_id for r in indexed] == [r.record_id for r in scanned]
        assert all(record.record_id not in excluded for record in indexed)

    def test_zero_overlap_records_fill_in_id_order(self, sources):
        """The scan ranks every candidate, so zero-score records must appear too."""
        left, _ = sources
        query = make_record("Q", "zzzz qqqq", "xxxx wwww", "0.17", source="V")
        indexed = top_k_neighbours(query, left, k=None, indexed=True)
        assert [r.record_id for r in indexed] == sorted(left.ids())

    def test_empty_token_query_ranks_all_by_id(self, sources):
        left, _ = sources
        query = make_record("Q", "", "", "", source="V")
        indexed = top_k_neighbours(query, left, k=3, indexed=True)
        scanned = _scan_ranking(query, left, 3)
        assert [r.record_id for r in indexed] == [r.record_id for r in scanned]
        assert [r.record_id for r in indexed] == sorted(left.ids())[:3]


class TestIndexLifecycle:
    def test_built_once_and_shared_across_queries(self, sources):
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        for query in right:
            index.top_k(query, k=3)
        assert index.builds == 1
        assert index.queries == len(right)

    def test_get_source_index_returns_the_same_instance(self, sources):
        left, _ = sources
        assert get_source_index(left, 2) is get_source_index(left, 2)
        assert get_source_index(left, 2) is not get_source_index(left, 3)

    def test_mutation_triggers_exactly_one_delta_apply(self, sources):
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        query = right.get("R0")
        index.top_k(query, k=2)
        assert index.builds == 1
        newcomer = make_record("L9", "sony bravia theater system", "sony bravia home theater", "201.0")
        left.add(newcomer)
        first = index.top_k(query, k=2)
        second = index.top_k(query, k=2)
        # The journalled mutation is absorbed incrementally: one delta apply
        # serves all post-mutation queries, and no rebuild ever happens.
        assert index.builds == 1
        assert index.delta_applies == 1
        assert "L9" in {record.record_id for record in first}
        assert [r.record_id for r in first] == [r.record_id for r in second]

    def test_stale_index_matches_fresh_scan(self, sources):
        """After a mutation, the indexed ranking equals a scan of the new state."""
        left, right = sources
        top_k_neighbours(right.get("R0"), left, k=None, indexed=True)  # build pre-mutation
        left.add(make_record("L8", "canon powershot camera pro", "canon digital camera", "339.0"))
        for query in right:
            indexed = top_k_neighbours(query, left, k=None, indexed=True)
            scanned = _scan_ranking(query, left, None)
            assert [r.record_id for r in indexed] == [r.record_id for r in scanned]

    def test_pruning_counters_move_on_selective_queries(self, benchmark_dataset):
        left = benchmark_dataset.left
        index = SourceTokenIndex(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        query = benchmark_dataset.right.records[0]
        result = index.top_k(query, k=5)
        assert len(result) == 5
        assert index.postings_visited > 0
        assert index.candidates_pruned > 0  # top-5 never materialises the whole source
        assert index.stats.as_dict()["index_queries"] == 1


class TestContentHashInvalidation:
    def test_in_place_record_replacement_triggers_rebuild(self, sources):
        """Regression: a record replaced in ``source.records`` without going
        through ``add``/``update`` bypasses ``data_version`` — the index must
        still rebuild (content-hash validation), never serve the stale ranking."""
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        query = right.get("R0")
        index.top_k(query, k=None)
        assert index.builds == 1
        version = left.data_version
        left.records[0] = make_record("L0", "replaced without the api", "in place mutation", "3.14")
        assert left.data_version == version  # the counter never saw the mutation
        indexed = index.top_k(query, k=None)
        assert index.builds == 2
        assert [r.record_id for r in indexed] == [
            r.record_id for r in _scan_ranking(query, left, None)
        ]

    def test_in_place_append_triggers_rebuild(self, sources):
        left, right = sources
        query = right.get("R0")
        top_k_neighbours(query, left, k=None, indexed=True)  # build
        left.records.append(
            make_record("L8", "sony bravia theater deluxe", "sony bravia theater black", "210.0")
        )
        indexed = top_k_neighbours(query, left, k=None, indexed=True)
        scanned = _scan_ranking(query, left, None)
        assert [r.record_id for r in indexed] == [r.record_id for r in scanned]
        assert "L8" in {r.record_id for r in indexed}

    def test_content_identical_update_skips_the_rebuild(self, sources):
        """The hash is *more precise* than the counter: replacing a record
        with an identical copy bumps ``data_version`` but not the content."""
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        index.top_k(right.get("R0"), k=2)
        original = left.get("L1")
        left.update(make_record("L1", *[original.value(a) for a in original.attribute_names()]))
        index.top_k(right.get("R0"), k=2)
        assert index.builds == 1  # same content, no rebuild

    def test_content_equal_revalidation_serves_live_objects(self, sources):
        """A content-equal replacement skips the rebuild but must surface the
        *live* record objects: a replacement can differ in identity (or source
        tag, which is not content) and consumers compare records, not just
        derivations."""
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        index.top_k(right.get("R0"), k=2)
        original = left.get("L1")
        replacement = make_record("L1", *[original.value(a) for a in original.attribute_names()])
        left.update(replacement)
        served = {record.record_id: record for record in index.top_k(right.get("R0"), k=None)}
        assert index.builds == 1  # still no rebuild...
        assert served["L1"] is replacement  # ...but the live object is served


class TestLoadedIndexEquivalence:
    """Warm-loaded indexes must be indistinguishable from built ones."""

    def _warm_copy(self, source, store):
        from repro.data.indexing import _TOKEN_SET_CACHE

        copy = DataSource(name=source.name, schema=source.schema, records=list(source.records))
        copy.artifact_store = store
        _TOKEN_SET_CACHE.clear()
        return copy

    def test_loaded_equals_built_equals_scan(self, sources, tmp_path):
        from repro.data.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path / "artifacts")
        left, right = sources
        left.artifact_store = store
        built_index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        warm_left = self._warm_copy(left, store)
        loaded_index = get_source_index(warm_left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        for query in right:
            for k in (2, None):
                built = [r.record_id for r in built_index.top_k(query, k=k)]
                loaded = [r.record_id for r in loaded_index.top_k(query, k=k)]
                scanned = [r.record_id for r in _scan_ranking(query, left, k)]
                assert built == loaded == scanned
        assert loaded_index.builds == 0 and loaded_index.loads == 1

    def test_loaded_triangle_search_identical(self, similarity_model, sources, labelled_pairs, tmp_path):
        from repro.data.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path / "artifacts")
        left, right = sources
        left.artifact_store = store
        right.artifact_store = store
        built = [
            find_open_triangles(similarity_model, pair, left, right, count=8, seed=1, indexed=True)
            for pair in labelled_pairs[:3]
        ]
        warm_left = self._warm_copy(left, store)
        warm_right = self._warm_copy(right, store)
        for pair, reference in zip(labelled_pairs[:3], built):
            loaded = find_open_triangles(
                similarity_model, pair, warm_left, warm_right, count=8, seed=1, indexed=True
            )
            scanned = find_open_triangles(
                similarity_model, pair, warm_left, warm_right, count=8, seed=1, indexed=False
            )
            assert (
                _triangle_fingerprint(loaded)
                == _triangle_fingerprint(reference)
                == _triangle_fingerprint(scanned)
            )
        loaded_stats = (
            get_source_index(warm_left, DEFAULT_BLOCKING_TOKEN_LENGTH).stats
            + get_source_index(warm_right, DEFAULT_BLOCKING_TOKEN_LENGTH).stats
        )
        assert loaded_stats.builds == 0 and loaded_stats.loads == 2


class TestBlockingEquivalence:
    @pytest.mark.parametrize("min_length", [2, 3, 50])
    def test_token_blocking_matches_scan(self, sources, min_length):
        left, right = sources
        indexed = token_blocking(left, right, min_token_length=min_length, indexed=True)
        scanned = token_blocking(left, right, min_token_length=min_length, indexed=False)
        assert indexed.pairs == scanned.pairs
        assert indexed.reduction_ratio == scanned.reduction_ratio

    @pytest.mark.parametrize("max_block_size", [1, 3, 200])
    def test_block_size_cap_matches_scan(self, benchmark_dataset, max_block_size):
        left, right = benchmark_dataset.left, benchmark_dataset.right
        indexed = token_blocking(left, right, max_block_size=max_block_size, indexed=True)
        scanned = token_blocking(left, right, max_block_size=max_block_size, indexed=False)
        assert indexed.pairs == scanned.pairs

    def test_candidate_pairs_match_scan(self, benchmark_dataset):
        left, right = benchmark_dataset.left, benchmark_dataset.right
        matches = [
            (pair.left.record_id, pair.right.record_id)
            for pair in benchmark_dataset.train.pairs
            if pair.label
        ][:15]
        indexed = candidate_pairs(left, right, matches, indexed=True)
        scanned = candidate_pairs(left, right, matches, indexed=False)
        assert [(pair.pair_id, pair.label) for pair in indexed] == [
            (pair.pair_id, pair.label) for pair in scanned
        ]


def _triangle_fingerprint(result):
    return (
        [(t.side, t.support.record_id, t.augmented) for t in result.triangles],
        result.requested,
        result.candidates_scored,
        result.augmented_count,
    )


class TestTriangleEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("count", [4, 7, 20])
    def test_indexed_search_identical_to_scan(
        self, similarity_model, sources, labelled_pairs, seed, count
    ):
        left, right = sources
        for pair in labelled_pairs[:3] + labelled_pairs[-2:]:
            indexed = find_open_triangles(
                similarity_model, pair, left, right, count=count, seed=seed, indexed=True
            )
            scanned = find_open_triangles(
                similarity_model, pair, left, right, count=count, seed=seed, indexed=False
            )
            assert _triangle_fingerprint(indexed) == _triangle_fingerprint(scanned)

    def test_equivalence_under_forced_augmentation(self, similarity_model, sources, match_pair):
        left, right = sources
        indexed = find_open_triangles(
            similarity_model, match_pair, left, right, count=6, seed=2,
            force_augmentation=True, indexed=True,
        )
        scanned = find_open_triangles(
            similarity_model, match_pair, left, right, count=6, seed=2,
            force_augmentation=True, indexed=False,
        )
        assert _triangle_fingerprint(indexed) == _triangle_fingerprint(scanned)

    def test_equivalence_without_augmentation(self, similarity_model, sources, non_match_pair):
        left, right = sources
        indexed = find_open_triangles(
            similarity_model, non_match_pair, left, right, count=12, seed=0,
            allow_augmentation=False, max_candidates=4, indexed=True,
        )
        scanned = find_open_triangles(
            similarity_model, non_match_pair, left, right, count=12, seed=0,
            allow_augmentation=False, max_candidates=4, indexed=False,
        )
        assert _triangle_fingerprint(indexed) == _triangle_fingerprint(scanned)

    def test_equivalence_on_benchmark_dataset(self, benchmark_dataset):
        model = SimilarityModel()
        left, right = benchmark_dataset.left, benchmark_dataset.right
        for pair in benchmark_dataset.test.pairs[:4]:
            indexed = find_open_triangles(model, pair, left, right, count=20, seed=1, indexed=True)
            scanned = find_open_triangles(model, pair, left, right, count=20, seed=1, indexed=False)
            assert _triangle_fingerprint(indexed) == _triangle_fingerprint(scanned)

    def test_index_stats_reported_only_when_indexed(self, similarity_model, sources, match_pair):
        left, right = sources
        indexed = find_open_triangles(
            similarity_model, match_pair, left, right, count=6, seed=0, indexed=True
        )
        scanned = find_open_triangles(
            similarity_model, match_pair, left, right, count=6, seed=0, indexed=False
        )
        assert indexed.index_stats is not None
        assert scanned.index_stats is None

    def test_sweep_shares_one_build_per_source(self, similarity_model, sources, labelled_pairs):
        """Across many explained pairs, each source's index is built once."""
        left = DataSource(name=sources[0].name, schema=sources[0].schema, records=list(sources[0].records))
        right = DataSource(name=sources[1].name, schema=sources[1].schema, records=list(sources[1].records))
        pairs = [pair.__class__(left.get(pair.left.record_id), right.get(pair.right.record_id), pair.label)
                 for pair in labelled_pairs]
        total = IndexStats()
        for pair in pairs:
            result = find_open_triangles(similarity_model, pair, left, right, count=6, seed=0, indexed=True)
            total = total + result.index_stats
        assert total.builds <= 2  # at most one build per source for the whole sweep
        assert total.queries >= 1


class TestExplainerEquivalence:
    def test_indexed_explainer_matches_scan_explainer(self, similarity_model, sources, labelled_pairs):
        left, right = sources
        indexed = CertaExplainer(
            similarity_model, left, right, num_triangles=8, seed=0, indexed=True
        )
        scanned = CertaExplainer(
            similarity_model, left, right, num_triangles=8, seed=0, indexed=False
        )
        for pair in (labelled_pairs[0], labelled_pairs[-2]):
            first = indexed.explain_full(pair)
            second = scanned.explain_full(pair)
            assert first.saliency.scores == second.saliency.scores
            assert first.counterfactual.attribute_set == second.counterfactual.attribute_set
            assert first.flips == second.flips
            assert first.triangles_used == second.triangles_used
            assert first.index_stats is not None
            assert second.index_stats is None


class TestFreshnessCost:
    """Each freshness decision costs at most one identity sweep (one
    ``content_hash``), and zero for sealed sources."""

    def _counting_hash(self, source):
        calls = {"n": 0}
        original = source.content_hash

        def counting():
            calls["n"] += 1
            return original()

        source.content_hash = counting
        return calls

    def test_unchanged_source_costs_one_hash_per_query(self, sources):
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        index.top_k(right.get("R0"), k=2)  # build
        calls = self._counting_hash(left)
        index.top_k(right.get("R0"), k=2)
        assert calls["n"] == 1  # regression: the old path swept twice
        index.top_k(right.get("R1"), k=2)
        assert calls["n"] == 2

    def test_delta_replay_costs_one_hash(self, sources):
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        index.top_k(right.get("R0"), k=2)
        left.add(make_record("L9", "sony bravia theater mini", "sony bravia mini", "149.0"))
        calls = self._counting_hash(left)
        ranked = index.top_k(right.get("R0"), k=None)
        # One sweep decides staleness; the replay validates against that same
        # hash instead of sweeping again.
        assert calls["n"] == 1
        assert index.delta_applies == 1
        assert "L9" in {record.record_id for record in ranked}

    def test_sealed_source_snapshot_is_the_live_list(self, sources):
        left, right = sources
        left.seal()
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        index.top_k(right.get("R0"), k=2)
        assert index._snapshot is left.records  # no defensive copy per check
        for query in right:
            index.top_k(query, k=2)
        assert index.builds == 1
        assert index.delta_applies == 0

    def test_sealed_and_unsealed_rankings_are_identical(self):
        sealed_left, right = toy_sources()
        plain_left, _ = toy_sources()
        sealed_left.seal()
        sealed_index = get_source_index(sealed_left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        plain_index = get_source_index(plain_left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        for query in right:
            sealed_ranking = [r.record_id for r in sealed_index.top_k(query, k=None)]
            plain_ranking = [r.record_id for r in plain_index.top_k(query, k=None)]
            assert sealed_ranking == plain_ranking

    def test_seal_after_build_keeps_the_index_warm(self, sources):
        left, right = sources
        index = get_source_index(left, DEFAULT_BLOCKING_TOKEN_LENGTH)
        index.top_k(right.get("R0"), k=2)
        left.seal()
        index.top_k(right.get("R0"), k=2)
        assert index.builds == 1  # sealing an already-indexed source is free
