"""Property suite for the token index at scale: index == scan on hostile sources.

:meth:`repro.data.indexing.SourceTokenIndex.top_k` must return rankings
byte-identical to the full-scan golden reference (``indexed=False``) for
every query.  This suite drives both paths over seeded random sources —
including unicode-heavy records and records whose text yields no blocking
tokens at all — plus exclusion sets, ``k=None`` and ``k`` larger than the
source.

It also covers the machinery large sources rely on: the deterministic
streaming generator :func:`iter_synthetic_records`, chunked
:meth:`DataSource.from_iterable`, the batched delta replay, the shard key of
the npz artifact layout, and memory-mapped npz warm loads.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.data.artifacts import (
    DEFAULT_INDEX_SHARDS,
    ArtifactStore,
    load_npz_arrays,
    token_shard,
)
from repro.data.blocking import top_k_neighbours
from repro.data.indexing import SourceTokenIndex, get_source_index
from repro.data.records import Record, Schema
from repro.data.synthetic import iter_synthetic_records, synthetic_schema
from repro.data.table import DataSource
from repro.exceptions import DatasetError

_SCHEMA = Schema.from_names(["name", "description", "price"])

#: Deliberately hostile vocabulary: multi-script unicode, combining-ish
#: accents, digits, and fragments too short to ever become blocking tokens.
_WORDS = (
    "sony", "bravia", "camera", "speaker", "wireless", "router", "café",
    "naïve", "Ünïcôdé", "tökens", "日本語テスト", "数码相机", "пример",
    "λόγος", "ışık", "Zürich", "mp3", "x1", "4k", "a", "-", "!!",
)


def _random_record(rng: random.Random, record_id: str) -> Record:
    if rng.random() < 0.08:
        # No token of length >= 2 survives tokenisation: the empty-token case.
        values = {"name": "a !", "description": "", "price": "9"}
    else:
        values = {
            "name": " ".join(rng.choices(_WORDS, k=rng.randint(1, 4))),
            "description": " ".join(rng.choices(_WORDS, k=rng.randint(0, 6))),
            "price": f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}",
        }
    return Record.from_raw(record_id, values, _SCHEMA, source="U")


def _random_source(rng: random.Random, count: int, name: str = "scale-fuzz") -> DataSource:
    records = [_random_record(rng, f"F{i:04d}") for i in range(count)]
    return DataSource(name=f"{name}-{count}", schema=_SCHEMA, records=records)


def _ids(records) -> list[str]:
    return [record.record_id for record in records]


class TestTieredEqualsExactEqualsScan:
    """The index ranking never diverges from the scan reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_randomised_sources(self, seed):
        rng = random.Random(seed)
        source = _random_source(rng, rng.randint(2, 60))
        index = get_source_index(source, 2)
        queries = [rng.choice(list(source)) for _ in range(3)]
        queries.append(_random_record(rng, "Q-external"))
        for query in queries:
            exclude = (
                tuple(rng.sample(sorted(source.ids()), k=min(2, len(source))))
                if rng.random() < 0.5
                else ()
            )
            for k in (1, 3, None, len(source) + 5):
                scanned = top_k_neighbours(
                    query, list(source), k=k, exclude_ids=exclude, indexed=False
                )
                ranked = index.top_k(query, k=k, exclude_ids=exclude)
                assert _ids(ranked) == _ids(scanned)

    def test_empty_token_query(self):
        rng = random.Random(7)
        source = _random_source(rng, 12)
        index = get_source_index(source, 2)
        query = Record.from_raw(
            "Q-empty", {"name": "!", "description": "", "price": "1"}, _SCHEMA, source="U"
        )
        for k in (2, None):
            scanned = top_k_neighbours(query, list(source), k=k, indexed=False)
            assert _ids(index.top_k(query, k=k)) == _ids(scanned)


class TestStreamingGenerator:
    def test_deterministic_and_prefix_stable(self):
        first = list(iter_synthetic_records(25, seed=3))
        again = list(iter_synthetic_records(25, seed=3))
        assert [r.values for r in first] == [r.values for r in again]
        # Each record depends only on (seed, index): a longer stream starts
        # with exactly the shorter one, so chunked consumers agree.
        longer = list(itertools.islice(iter_synthetic_records(100, seed=3), 25))
        assert [r.values for r in longer] == [r.values for r in first]
        different = list(iter_synthetic_records(25, seed=4))
        assert [r.values for r in different] != [r.values for r in first]

    def test_from_iterable_matches_eager_construction(self):
        schema = synthetic_schema()
        records = list(iter_synthetic_records(120, seed=9))
        eager = DataSource(name="eager", schema=schema, records=records)
        streamed = DataSource.from_iterable(
            "streamed", schema, iter_synthetic_records(120, seed=9), chunk_size=32
        )
        assert len(streamed) == len(eager) == 120
        assert [r.values for r in streamed] == [r.values for r in eager]

    def test_from_iterable_rejects_duplicate_ids(self):
        schema = synthetic_schema()
        records = list(iter_synthetic_records(5, seed=0))
        with pytest.raises(DatasetError):
            DataSource.from_iterable("dup", schema, records + records[:1])


class TestBatchedReplay:
    def test_many_mutations_stay_equivalent(self):
        """A long mutation burst replays through the batched posting buffer."""
        rng = random.Random(42)
        source = _random_source(rng, 30, name="replay")
        index = get_source_index(source, 2)
        index.ensure_fresh()
        for step in range(40):
            action = rng.random()
            ids = sorted(source.ids())
            if action < 0.4 or len(ids) < 5:
                source.add(_random_record(rng, f"N{step:03d}"))
            elif action < 0.7:
                source.update(_random_record(rng, rng.choice(ids)))
            else:
                source.remove(rng.choice(ids))
        query = _random_record(rng, "Q-replay")
        scanned = top_k_neighbours(query, list(source), k=None, indexed=False)
        assert _ids(index.top_k(query)) == _ids(scanned)
        assert index.stats.builds == 1  # served by replay, not rebuilds
        rebuilt = SourceTokenIndex(source, 2)
        rebuilt.ensure_fresh()
        assert index.canonical_state() == rebuilt.canonical_state()


class TestShardedBuild:
    def test_token_shard_is_process_stable(self):
        # crc32, not hash(): the npz layout groups tokens by this key, so it
        # must agree across processes regardless of PYTHONHASHSEED.
        for token in ("sony", "日本語テスト", "café"):
            shard = token_shard(token, DEFAULT_INDEX_SHARDS)
            assert 0 <= shard < DEFAULT_INDEX_SHARDS
            assert token_shard(token, DEFAULT_INDEX_SHARDS) == shard


class TestNpzArtifacts:
    def test_mmap_load_matches_eager_load(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        schema = synthetic_schema()
        source = DataSource.from_iterable(
            "npz-mmap", schema, iter_synthetic_records(60, seed=8)
        )
        source.artifact_store = store
        index = get_source_index(source, 2)
        index.ensure_fresh()
        paths = list((tmp_path / "artifacts").rglob("index_*.npz"))
        assert len(paths) == 1
        mapped = load_npz_arrays(paths[0], mmap=True)
        eager = load_npz_arrays(paths[0], mmap=False)
        assert mapped is not None and eager is not None
        assert set(mapped) == set(eager)
        for name in eager:
            assert np.array_equal(mapped[name], eager[name]), name

    def test_warm_load_serves_compiled_queries(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        schema = synthetic_schema()
        records = list(iter_synthetic_records(70, seed=12))
        cold_source = DataSource(name="npz-warm", schema=schema, records=records)
        cold_source.artifact_store = store
        cold = get_source_index(cold_source, 2)
        cold.ensure_fresh()

        warm_source = DataSource(name="npz-warm", schema=schema, records=records)
        warm_source.artifact_store = store
        warm = get_source_index(warm_source, 2)
        warm.ensure_fresh()
        assert warm.stats.loads == 1 and warm.stats.builds == 0
        assert warm.canonical_state() == cold.canonical_state()
        external = next(iter(iter_synthetic_records(1, seed=5, id_prefix="Q")))
        for query in (records[3], records[40], external):
            for k in (5, None):
                scanned = top_k_neighbours(query, records, k=k, indexed=False)
                assert _ids(warm.top_k(query, k=k)) == _ids(scanned)
                assert _ids(cold.top_k(query, k=k)) == _ids(scanned)
