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
rebuild-fallback path against the same oracles.  After every mutation the
source's record order must also equal a plain-list model of the same
mutations: the order decides triangle candidates.  And the mutation's
journalled ``retired_values`` must be exactly the replaced record's strings
that no live record holds, recounted from the records.
"""

from __future__ import annotations

import random

import pytest

from repro.data.blocking import token_blocking, top_k_neighbours
from repro.data.indexing import SourceTokenIndex, get_source_index
from repro.data.records import Record, RecordPair
from repro.data.table import DataSource, _record_strings
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


def _apply_random_mutation(
    rng: random.Random, source: DataSource, counter: list[int]
) -> tuple[str, str]:
    """One random lifecycle mutation through the public API.

    Returns the operation's name and the id of the record it touched.
    """
    operations = ["add", "update"]
    if len(source) > 3:  # keep enough records for triangle search to stay meaningful
        operations.append("remove")
    operation = rng.choice(operations)
    if operation == "add":
        counter[0] += 1
        record_id = f"F{counter[0]}"
        source.add(_random_record(rng, record_id))
    elif operation == "update":
        record_id = rng.choice(source.ids())
        source.update(_random_record(rng, record_id))
    else:
        record_id = rng.choice(source.ids())
        source.remove(record_id)
    return operation, record_id


def _apply_to_model(model_ids: list[str], operation: str, record_id: str) -> None:
    """The same mutation on a plain list of ids: append, keep place, or drop."""
    if operation == "add":
        model_ids.append(record_id)
    elif operation == "remove":
        model_ids.remove(record_id)


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


def _assert_retired_values(source: DataSource) -> None:
    """The latest delta retires exactly the strings of ``old`` no live record holds.

    Recounted from the records, independently of the source's refcounts.
    """
    deltas = source.deltas_since(source.data_version - 1)
    if not deltas:  # a zero-length delta log journals nothing
        return
    delta = deltas[-1]
    live = {value for record in source for value in _record_strings(record)}
    old = set(_record_strings(delta.old)) if delta.old is not None else set()
    assert len(set(delta.retired_values)) == len(delta.retired_values)
    assert set(delta.retired_values) == old - live


def _run_sequence(seed: int, delta_log_limit: int | None = None) -> tuple[DataSource, DataSource]:
    """One seeded lifecycle fuzz sequence with per-mutation equivalence checks."""
    rng = random.Random(seed)
    left, right = toy_sources()
    if delta_log_limit is not None:
        left.delta_log_limit = delta_log_limit
        right.delta_log_limit = delta_log_limit
    model_ids = {left.name: left.ids(), right.name: right.ids()}
    model = SimilarityModel()
    counter = [0]
    for step in range(SEQUENCE_LENGTH):
        target, other = (left, right) if rng.random() < 0.5 else (right, left)
        _apply_to_model(model_ids[target.name], *_apply_random_mutation(rng, target, counter))
        assert target.ids() == model_ids[target.name]
        _assert_retired_values(target)
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

    ``delta_log_limit=0`` journals nothing (every freshness check after a
    mutation rebuilds), ``1`` keeps exactly the latest mutation (replay
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


def test_long_interleaved_removes_and_updates_keep_list_order():
    """Hundreds of interleaved removes, updates and adds on a few hundred
    records: after every mutation the source's order equals a plain list's,
    and the index maintained through all of them equals a rebuild."""
    rng = random.Random(4242)
    source = DataSource(
        name="long", schema=LEFT_SCHEMA,
        records=[_random_record(rng, f"S{number}") for number in range(300)],
    )
    model_ids = source.ids()
    index = get_source_index(source, 2)
    index.ensure_fresh()
    counter = [0]
    for step in range(500):
        roll = rng.random()
        if roll < 0.45:
            record_id = rng.choice(model_ids)
            source.remove(record_id)
            model_ids.remove(record_id)
        elif roll < 0.9:
            source.update(_random_record(rng, rng.choice(model_ids)))
        else:
            counter[0] += 1
            source.add(_random_record(rng, f"F{counter[0]}"))
            model_ids.append(f"F{counter[0]}")
        assert source.ids() == model_ids
        if step % 50 == 0:
            _assert_ranking_equivalence(source, [_random_record(rng, "Q")])
    assert len(model_ids) > 50  # removes really interleaved with later lookups
    _assert_structural_equivalence(source)


def test_freed_slots_are_reused_without_rebuilds():
    """Seeded removes, adds and updates on a 300-record source, replayed in
    batches of 1-8: a removed record's slot goes to the next add, so the index
    never holds more slots than the peak live count and never rebuilds."""
    rng = random.Random(2323)
    source = DataSource(
        name="slots", schema=LEFT_SCHEMA,
        records=[_random_record(rng, f"S{number}") for number in range(300)],
    )
    index = get_source_index(source, 2)
    index.ensure_fresh()
    peak = len(source)
    added = 0
    next_check = rng.randint(1, 8)
    for step in range(600):
        add_share = 0.6 if step < 150 else 0.3  # grow past 300 first, then shrink
        roll = rng.random()
        if roll < add_share:
            added += 1
            source.add(_random_record(rng, f"F{added}"))
        elif roll < add_share + 0.4 and len(source) > 1:
            source.remove(rng.choice(source.ids()))
        else:
            source.update(_random_record(rng, rng.choice(source.ids())))
        peak = max(peak, len(source))
        if step == next_check:
            index.ensure_fresh()
            next_check += rng.randint(1, 8)
    index.ensure_fresh()
    assert peak > 300 and len(source) < peak  # the source grew, then shrank
    assert len(index._slots) == peak
    assert index.builds == 1
    assert index.delta_applies == 600
    _assert_structural_equivalence(source)


class TestRetiredValueEviction:
    """Delta-driven cache eviction stays byte-equal to never having cached."""

    @staticmethod
    def _toy_pairs(left, right):
        return [RecordPair(l, r, None) for l, r in zip(list(left)[:4], list(right)[:4])]

    def test_evict_values_drops_only_retired_entries(self):
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
        dropped = featurizer.evict_values(retired)
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
        warm.evict_values(
            {value for delta in left.deltas_since(since) for value in delta.retired_values}
        )
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
