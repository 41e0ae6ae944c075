"""Differential fuzz suite for the mutable DataSource lifecycle.

Every mutation path of :class:`repro.data.table.DataSource` — ``add``,
``update``, ``remove`` — must leave the indexed candidate-generation stack
(:mod:`repro.data.indexing`) *byte-equal* to the full-scan golden reference.
This suite applies seeded random mutation sequences and, **after every single
mutation**, compares

* top-k similarity ranking (indexed vs scan, bounded and unbounded k),
* token blocking (indexed vs scan), and
* open-triangle search (indexed vs scan, including augmentation bookkeeping)

so any staleness window, interning leak or ordering divergence introduced by
a mutation is caught at the exact step that opened it.  Since index
maintenance went incremental, each step *additionally* asserts the
incrementally maintained index is structurally byte-equal
(:meth:`~repro.data.indexing.SourceTokenIndex.canonical_state`) to an index
rebuilt from scratch over the same records — catching posting-list skew that
a lucky query order might not surface — and a truncation variant re-runs the
sequences with a delta log too short to replay, exercising the
rebuild-fallback path against the same oracles.  A persistence variant
replays mutations against a source wired to an on-disk artifact store, so
save → mutate → warm-load cycles are fuzzed the same way.
"""

from __future__ import annotations

import random

import pytest

from repro.data.artifacts import ArtifactStore
from repro.data.blocking import token_blocking, top_k_neighbours
from repro.data.indexing import (
    SourceTokenIndex,
    changed_pairs,
    get_source_index,
    interned_blocking_tokens,
)
from repro.data.records import Record, RecordPair
from repro.data.table import DataSource
from repro.certa.triangles import find_open_triangles

from tests.helpers import LEFT_SCHEMA, SimilarityModel, make_record, toy_sources

#: Number of seeded mutation sequences the suite replays (acceptance: >= 200).
SEQUENCE_COUNT = 200

#: Mutations applied per sequence.
SEQUENCE_LENGTH = 6

_WORDS = (
    "sony", "bravia", "canon", "powershot", "bose", "soundlink", "garmin",
    "philips", "dvd", "camera", "speaker", "portable", "wireless", "router",
    "printer", "photo", "audio", "system", "theater", "digital", "compact",
    "bluetooth", "navigator", "progressive", "micro", "dual", "band",
)


def _random_record(rng: random.Random, record_id: str) -> Record:
    name = " ".join(rng.sample(_WORDS, rng.randint(2, 4)))
    description = " ".join(rng.sample(_WORDS, rng.randint(3, 6)))
    price = f"{rng.randint(10, 999)}.{rng.randint(0, 99):02d}"
    return make_record(record_id, name, description, price)


def _apply_random_mutation(rng: random.Random, source: DataSource, counter: list[int]) -> str:
    """One random lifecycle mutation through the public API; returns its name."""
    operations = ["add", "update"]
    if len(source) > 3:  # keep enough records for triangle search to stay meaningful
        operations.append("remove")
    operation = rng.choice(operations)
    if operation == "add":
        counter[0] += 1
        source.add(_random_record(rng, f"F{counter[0]}"))
    elif operation == "update":
        victim = rng.choice(source.ids())
        source.update(_random_record(rng, victim))
    else:
        source.remove(rng.choice(source.ids()))
    return operation


def _assert_ranking_equivalence(source: DataSource, queries) -> None:
    for query in queries:
        for k in (3, None):
            indexed = top_k_neighbours(query, source, k=k, indexed=True)
            scanned = top_k_neighbours(query, list(source), k=k, indexed=False)
            assert [r.record_id for r in indexed] == [r.record_id for r in scanned]


def _assert_blocking_equivalence(left: DataSource, right: DataSource) -> None:
    indexed = token_blocking(left, right, indexed=True)
    scanned = token_blocking(left, right, indexed=False)
    assert indexed.pairs == scanned.pairs
    assert indexed.reduction_ratio == scanned.reduction_ratio


def _triangle_fingerprint(result):
    return (
        [(t.side, t.support.record_id, tuple(sorted(t.support.values.items())), t.augmented)
         for t in result.triangles],
        result.requested,
        result.candidates_scored,
        result.augmented_count,
    )


def _assert_triangle_equivalence(model, pair, left, right, seed: int) -> None:
    indexed = find_open_triangles(model, pair, left, right, count=4, seed=seed, indexed=True)
    scanned = find_open_triangles(model, pair, left, right, count=4, seed=seed, indexed=False)
    assert _triangle_fingerprint(indexed) == _triangle_fingerprint(scanned)


def _assert_structural_equivalence(source: DataSource) -> None:
    """The maintained index is byte-equal to a rebuild over the same records.

    :meth:`SourceTokenIndex.canonical_state` erases slot-assignment history,
    so any divergence here is a genuine posting/token/id skew introduced by
    delta application (or the fallback), not an implementation detail.
    """
    maintained = get_source_index(source, 2)
    maintained.ensure_fresh()
    rebuilt = SourceTokenIndex(source, 2)
    rebuilt.ensure_fresh()
    assert maintained.canonical_state() == rebuilt.canonical_state()


def _run_sequence(
    seed: int,
    store: ArtifactStore | None = None,
    delta_log_limit: int | None = None,
) -> tuple[DataSource, DataSource]:
    """One seeded lifecycle fuzz sequence with per-mutation equivalence checks."""
    rng = random.Random(seed)
    left, right = toy_sources()
    if store is not None:
        left.artifact_store = store
        right.artifact_store = store
    if delta_log_limit is not None:
        left.delta_log_limit = delta_log_limit
        right.delta_log_limit = delta_log_limit
    model = SimilarityModel()
    counter = [0]
    for step in range(SEQUENCE_LENGTH):
        target, other = (left, right) if rng.random() < 0.5 else (right, left)
        _apply_random_mutation(rng, target, counter)
        queries = rng.sample(list(other), min(2, len(other)))
        _assert_ranking_equivalence(target, queries)
        _assert_blocking_equivalence(left, right)
        _assert_structural_equivalence(target)
        pair = RecordPair(rng.choice(list(left)), rng.choice(list(right)), None)
        _assert_triangle_equivalence(model, pair, left, right, seed=seed + step)
    return left, right


@pytest.mark.parametrize("seed", range(SEQUENCE_COUNT))
def test_mutation_sequence_keeps_indexed_paths_byte_equal(seed):
    """Random add/update/remove sequences: indexed == scan after every mutation."""
    left, right = _run_sequence(seed)
    # The equivalences above must have been served by the *incremental* path:
    # each source's shared index was built exactly once and absorbed every
    # subsequent journalled mutation by delta replay.
    stats = get_source_index(left, 2).stats + get_source_index(right, 2).stats
    assert stats.builds == 2
    assert stats.delta_applies >= SEQUENCE_LENGTH - 2


@pytest.mark.parametrize("seed", range(0, SEQUENCE_COUNT, 10))
@pytest.mark.parametrize("delta_log_limit", [0, 1])
def test_mutation_sequence_with_truncated_delta_log(seed, delta_log_limit):
    """The same differential fuzz with a delta log too short to replay.

    ``delta_log_limit=0`` journals nothing (every freshness check takes the
    content-hash fallback), ``1`` keeps exactly the latest mutation (replay
    succeeds only when queries interleave every mutation, which triangle
    steps occasionally break by touching the *other* source in between) — so
    both fallback branches run under the full oracle set.
    """
    left, right = _run_sequence(seed, delta_log_limit=delta_log_limit)
    if delta_log_limit == 0:
        stats = get_source_index(left, 2).stats + get_source_index(right, 2).stats
        assert stats.delta_applies == 0  # nothing replayable: pure fallback
        assert stats.builds > 2


class TestLifecycleEdgeCases:
    def test_remove_then_query_excludes_the_record(self, sources):
        left, right = sources
        index = get_source_index(left, 2)
        index.top_k(right.get("R0"), k=None)
        removed = left.remove("L0")
        assert removed.record_id == "L0"
        result = index.top_k(right.get("R0"), k=None)
        assert "L0" not in {record.record_id for record in result}
        assert [r.record_id for r in result] == [
            r.record_id for r in top_k_neighbours(right.get("R0"), list(left), k=None, indexed=False)
        ]

    def test_update_is_visible_to_the_next_query(self, sources):
        left, right = sources
        index = get_source_index(left, 2)
        index.top_k(right.get("R4"), k=None)  # build before mutating
        # Make L5 a near-duplicate of R4 (the netgear router): it must rank first.
        left.update(make_record("L5", "netgear wireless router", "netgear dual band wireless router", "79.00"))
        result = index.top_k(right.get("R4"), k=1)
        assert [record.record_id for record in result] == ["L5"]

    def test_interleaved_mutations_bump_version_each_time(self, sources):
        left, _ = sources
        before = left.data_version
        left.add(_random_record(random.Random(0), "F0"))
        left.update(_random_record(random.Random(1), "F0"))
        left.remove("F0")
        assert left.data_version == before + 3

    def test_update_preserves_insertion_order(self, sources):
        left, _ = sources
        order_before = left.ids()
        left.update(_random_record(random.Random(2), "L2"))
        assert left.ids() == order_before


class TestPersistedLifecycleFuzz:
    """The same differential fuzz, replayed through an on-disk artifact store.

    Each sequence runs twice against one store: the second replay warm-loads
    every index state the first replay persisted, so the equivalence
    assertions cover loaded indexes exactly as hard as built ones.
    """

    @pytest.mark.parametrize("seed", range(0, SEQUENCE_COUNT, 25))
    def test_mutation_sequence_with_artifact_store(self, seed, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        _run_sequence(seed, store=store)
        assert store.stats.index_saves > 0
        _run_sequence(seed, store=store)
        assert store.stats.index_loads > 0


def _scan_tokens(record: Record) -> frozenset[str]:
    """Blocking-token set derived straight from the tokenizer (scan semantics)."""
    from repro.text.tokenize import tokenize

    return frozenset(token for token in tokenize(record.as_text()) if len(token) >= 2)


def _positive_neighbourhood(record: Record, candidates) -> list[tuple[str, float]]:
    """The scored (overlap > 0) support ranking of ``record`` over ``candidates``."""
    from repro.data.blocking import token_jaccard

    query = _scan_tokens(record)
    scored = [
        (candidate.record_id, token_jaccard(query, _scan_tokens(candidate)))
        for candidate in candidates
    ]
    return sorted(
        ((rid, score) for rid, score in scored if score > 0.0),
        key=lambda item: (-item[1], item[0]),
    )


class TestChangedPairs:
    """``changed_pairs`` against a brute-force oracle and its stability contract."""

    @pytest.mark.parametrize("seed", range(0, SEQUENCE_COUNT, 10))
    def test_matches_brute_force_definition(self, seed):
        """Flagged set == scan-derived {member mutated, or member shares a
        token with any mutated record's old/new content}, fuzzed."""
        rng = random.Random(seed)
        left, right = toy_sources()
        pairs = [(l.record_id, r.record_id) for l in left for r in right]
        since_left, since_right = left.data_version, right.data_version
        counter = [100]
        journal: list[tuple[DataSource, Record | None, Record | None]] = []
        for _ in range(3):
            source = left if rng.random() < 0.5 else right
            before = {record.record_id: record for record in source}
            _apply_random_mutation(rng, source, counter)
            after = {record.record_id: record for record in source}
            for rid in before.keys() | after.keys():
                if before.get(rid) is not after.get(rid):
                    journal.append((source, before.get(rid), after.get(rid)))

        mutated_left = {r.record_id for s, old, new in journal if s is left for r in (old, new) if r}
        mutated_right = {r.record_id for s, old, new in journal if s is right for r in (old, new) if r}
        mutated_tokens: set[str] = set()
        for _, old, new in journal:
            for record in (old, new):
                if record is not None:
                    mutated_tokens |= _scan_tokens(record)
        touched_left = mutated_left | {
            r.record_id for r in left if _scan_tokens(r) & mutated_tokens
        }
        touched_right = mutated_right | {
            r.record_id for r in right if _scan_tokens(r) & mutated_tokens
        }
        expected = {
            (l, r) for l, r in pairs if l in touched_left or r in touched_right
        }
        assert changed_pairs(pairs, left, right, since_left, since_right) == expected

    def test_unchanged_pairs_keep_their_scored_support_neighbourhoods(self):
        """A pair *not* flagged kept the scored part of both members' support
        rankings bit-for-bit — the guarantee that makes re-explaining only the
        flagged pairs equivalent to re-explaining everything (wherever token
        overlap drives support selection)."""
        left, right = toy_sources()
        pairs = [(l.record_id, r.record_id) for l in left for r in right]
        before = {
            (l, r): (
                _positive_neighbourhood(left.get(l), list(right)),
                _positive_neighbourhood(right.get(r), list(left)),
            )
            for l, r in pairs
        }
        since_left, since_right = left.data_version, right.data_version
        left.update(make_record("L0", "sony bravia tv", "sony bravia big television", "499.00"))
        right.remove("R3")
        flagged = changed_pairs(pairs, left, right, since_left, since_right)
        assert flagged is not None
        unflagged = [pair for pair in pairs if pair not in flagged]
        assert unflagged  # the toy mutation must not flag everything
        for l, r in unflagged:
            assert _positive_neighbourhood(left.get(l), list(right)) == before[(l, r)][0]
            assert _positive_neighbourhood(right.get(r), list(left)) == before[(l, r)][1]

    def test_no_mutations_flags_nothing(self):
        left, right = toy_sources()
        pairs = [(l.record_id, r.record_id) for l in left for r in right]
        assert changed_pairs(pairs, left, right, left.data_version, right.data_version) == set()

    def test_truncated_log_returns_none(self):
        left, right = toy_sources()
        pairs = [(l.record_id, r.record_id) for l in left for r in right]
        since = left.data_version
        left.delta_log_limit = 0
        left.add(_random_record(random.Random(3), "F9"))
        assert changed_pairs(pairs, left, right, since, right.data_version) is None

    def test_accepts_record_pair_objects(self):
        left, right = toy_sources()
        pairs = [RecordPair(left.get("L0"), right.get("R0"), None)]
        since_left, since_right = left.data_version, right.data_version
        left.update(make_record("L0", "sony bravia tv", "sony bravia display", "499.00"))
        flagged = changed_pairs(pairs, left, right, since_left, since_right)
        assert flagged == {("L0", "R0")}


class TestRetiredValueEviction:
    """Delta-driven cache eviction stays byte-equal to never having cached."""

    @staticmethod
    def _toy_pairs(left, right):
        return [RecordPair(l, r, None) for l, r in zip(list(left)[:4], list(right)[:4])]

    def test_apply_source_deltas_drops_only_retired_entries(self):
        from repro.models.featurizer import ComparisonPairFeaturizer

        left, right = toy_sources()
        featurizer = ComparisonPairFeaturizer()
        featurizer.featurize(self._toy_pairs(left, right))
        since = left.data_version
        old = left.get("L0")
        kept_name = old.value("name")
        left.update(make_record("L0", kept_name, "sony bravia big screen", "499.00"))
        deltas = left.deltas_since(since)
        retired = {value for delta in deltas for value in delta.retired_values}
        assert retired  # the update must have retired the replaced strings
        assert kept_name not in retired  # the unchanged value stays live
        dropped = featurizer.apply_source_deltas(deltas)
        assert dropped > 0
        for value in retired:
            assert value not in featurizer.values._features
            assert all(value not in key for key in featurizer.comparisons._vectors)
            assert all(value not in key for key in featurizer.comparisons._similarities)
        # Values still live in records (e.g. the unchanged name) stay cached.
        assert kept_name in featurizer.values._features

    @pytest.mark.parametrize("seed", range(0, SEQUENCE_COUNT, 25))
    def test_eviction_never_changes_feature_matrices(self, seed):
        """featurize → mutate → evict → featurize == a cold featurizer's output."""
        import numpy as np

        from repro.models.featurizer import ComparisonPairFeaturizer

        rng = random.Random(seed)
        left, right = toy_sources()
        warm = ComparisonPairFeaturizer()
        warm.featurize(self._toy_pairs(left, right))
        counter = [200]
        since = left.data_version
        for _ in range(3):
            _apply_random_mutation(rng, left, counter)
        warm.apply_source_deltas(left.deltas_since(since))
        pairs = [RecordPair(l, rng.choice(list(right)), None) for l in left]
        cold = ComparisonPairFeaturizer()
        np.testing.assert_array_equal(warm.featurize(pairs), cold.featurize(pairs))

    def test_model_hook_evicts_through_the_featurizer(self):
        from repro.models.base import ERModel
        from repro.models.featurizer import ComparisonPairFeaturizer

        class Matcher(ERModel):
            def __init__(self):
                super().__init__(seed=0)
                self._featurizer = ComparisonPairFeaturizer()

            def _featurize_pair(self, pair):  # pragma: no cover - unused
                raise NotImplementedError

        left, right = toy_sources()
        matcher = Matcher()
        matcher.featurize(self._toy_pairs(left, right))
        since = left.data_version
        left.remove("L0")
        retired = {
            value for delta in left.deltas_since(since) for value in delta.retired_values
        }
        assert matcher.evict_featurizer_values(retired) > 0
        for value in retired:
            assert value not in matcher._featurizer.values._features
