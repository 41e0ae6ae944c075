"""Tests for repro.data.table.DataSource."""

from __future__ import annotations

import random

import pytest

from repro.data.records import Record, Schema
from repro.data.table import DataSource
from repro.exceptions import DatasetError, SchemaError, SealedSourceError

from tests.helpers import LEFT_SCHEMA, make_record, toy_sources


class TestLifecycleMutations:
    def test_update_replaces_and_bumps_version(self, sources):
        left, _ = sources
        version = left.data_version
        old = left.update(make_record("L2", "canon powershot mark ii", "canon camera updated", "359.0"))
        assert old.value("name") == "canon powershot camera"
        assert left.get("L2").value("name") == "canon powershot mark ii"
        assert left.data_version == version + 1
        assert len(left) == 6

    def test_update_keeps_insertion_position(self, sources):
        left, _ = sources
        order = left.ids()
        left.update(make_record("L3", "bose speaker revised", "bose revised", "131.0"))
        assert left.ids() == order

    def test_update_unknown_id_raises(self, sources):
        left, _ = sources
        with pytest.raises(DatasetError, match="unknown record id"):
            left.update(make_record("L99", "ghost", "ghost", "0.0"))

    def test_update_validates_schema(self, sources):
        left, _ = sources
        bad = Record(record_id="L0", values={"name": "x"}, source="U")
        with pytest.raises(SchemaError):
            left.update(bad)

    def test_remove_returns_record_and_bumps_version(self, sources):
        left, _ = sources
        version = left.data_version
        removed = left.remove("L4")
        assert removed.record_id == "L4"
        assert "L4" not in left
        assert len(left) == 5
        assert left.data_version == version + 1

    def test_remove_unknown_id_raises(self, sources):
        left, _ = sources
        with pytest.raises(DatasetError, match="unknown record id"):
            left.remove("L99")

    def test_mutations_after_a_remove_keep_list_order(self, sources):
        left, _ = sources
        left.remove("L1")
        order = left.ids()
        assert order == ["L0", "L2", "L3", "L4", "L5"]
        left.update(make_record("L4", "bose speaker revised", "bose revised", "131.0"))
        assert left.ids() == order
        assert left.records[order.index("L4")].value("name") == "bose speaker revised"
        left.remove("L3")
        assert left.ids() == [record_id for record_id in order if record_id != "L3"]

    def test_update_after_removing_the_records_before_it_keeps_its_place(self):
        records = [make_record(f"r{index}", f"name {index}", "desc", "1.0") for index in range(5)]
        source = DataSource(name="s", schema=LEFT_SCHEMA, records=records)
        for record_id in ("r0", "r1", "r2"):
            source.remove(record_id)
        source.update(make_record("r4", "renamed", "desc", "2.0"))
        assert source.ids() == ["r3", "r4"]
        assert source.records[-1].value("name") == "renamed"
        source.remove("r3")
        assert source.ids() == ["r4"]
        assert source.get("r4").value("name") == "renamed"

    def test_remove_then_add_same_id(self, sources):
        left, _ = sources
        left.remove("L0")
        left.add(make_record("L0", "reborn record", "reborn", "1.0"))
        assert left.get("L0").value("name") == "reborn record"


class TestContentHash:
    def test_insertion_order_does_not_matter(self, sources):
        left, _ = sources
        shuffled = DataSource(
            name=left.name, schema=left.schema, records=list(reversed(left.records))
        )
        assert shuffled.content_hash() == left.content_hash()

    def test_every_mutation_kind_changes_the_hash(self, sources):
        left, _ = sources
        baseline = left.content_hash()
        left.add(make_record("L7", "new thing", "new thing description", "9.0"))
        after_add = left.content_hash()
        assert after_add != baseline
        left.update(make_record("L7", "renamed thing", "new thing description", "9.0"))
        after_update = left.content_hash()
        assert after_update != after_add
        left.remove("L7")
        assert left.content_hash() == baseline  # back to the original content

    def test_toy_source_hash_is_pinned(self, sources):
        """The formula (``CONTENT_HASH_VERSION`` 2) keys model artifacts and
        saved-dataset verification, so its value must not drift."""
        left, _ = sources
        assert left.content_hash() == (
            "7ded960b4fd4089f71d78b98c4c2e763b62279a1ebd91ce91e4fb39ab31eac6b"
        )

    def test_source_tag_is_not_content(self, sources):
        """CSV round-trips re-tag sources; the hash must survive that."""
        left, _ = sources
        retagged = DataSource(
            name=left.name,
            schema=left.schema,
            records=[
                Record(record_id=r.record_id, values=dict(r.values), source="V")
                for r in left.records
            ],
        )
        assert retagged.content_hash() == left.content_hash()

    def test_identical_content_hashes_equal_across_instances(self, sources):
        left, _ = sources
        twin = DataSource(name="other-name", schema=left.schema, records=list(left.records))
        assert twin.content_hash() == left.content_hash()

    def test_incremental_hash_equals_recompute_after_mutations(self, sources):
        """The O(1) per-mutation hash carry is bit-equal to hashing from scratch."""
        left, _ = sources
        left.add(make_record("L7", "alpha beta", "gamma", "1.0"))
        left.update(make_record("L1", "delta epsilon", "zeta", "2.0"))
        left.remove("L3")
        rebuilt = DataSource(name=left.name, schema=left.schema, records=list(left.records))
        assert left.content_hash() == rebuilt.content_hash()

    def test_hash_is_cached_per_version(self, sources):
        """An unchanged source never re-hashes its records (the O(n) bugfix)."""
        left, _ = sources
        left.content_hash()
        state = left._hash_state
        assert state is not None
        left.content_hash()
        assert left._hash_state is state  # served from cache, not rebuilt
        left.add(make_record("L7", "x", "y", "1.0"))
        left.content_hash()
        assert left._hash_state is not state


class TestReadOnlyRecords:
    """Only ``add``/``update``/``remove`` change a source: ``records`` is a
    read-only view, so no edit can bypass ``data_version`` and the log."""

    def test_item_assignment_raises(self, sources):
        left, _ = sources
        baseline, version = left.content_hash(), left.data_version
        with pytest.raises(TypeError):
            left.records[1] = make_record("L1", "swapped in place", "bypassing the api", "2.0")
        assert (left.content_hash(), left.data_version) == (baseline, version)
        assert left.get("L1").value("name") == left.records[1].value("name")

    def test_append_raises(self, sources):
        left, _ = sources
        with pytest.raises(AttributeError):
            left.records.append(make_record("L8", "appended", "bypassing the api", "2.0"))
        assert len(left) == 6 and "L8" not in left

    def test_del_raises(self, sources):
        left, _ = sources
        with pytest.raises(TypeError):
            del left.records[0]
        assert left.ids()[0] == "L0"

    def test_editing_the_constructor_list_leaves_the_source_unchanged(self):
        records = [make_record("a", "sony", "desc a", "1"), make_record("b", "bose", "desc b", "2")]
        source = DataSource(name="s", schema=LEFT_SCHEMA, records=records)
        baseline = source.content_hash()
        records.append(make_record("c", "canon", "desc c", "3"))
        records[0] = make_record("a", "changed", "changed", "9")
        del records[1]
        assert source.ids() == ["a", "b"]
        assert source.get("a").value("name") == "sony"
        assert source.content_hash() == baseline

    def test_reads_keep_list_semantics(self, sources):
        left, _ = sources
        ids = left.ids()
        assert left.records[0].record_id == ids[0]
        assert left.records[-1].record_id == ids[-1]
        assert left.records[2].record_id == ids[2]
        assert left.records[-2].record_id == ids[-2]
        for out_of_range in (len(ids), -len(ids) - 1):
            with pytest.raises(IndexError):
                left.records[out_of_range]
        assert [record.record_id for record in left.records[1:3]] == ids[1:3]
        assert len(left.records) == len(ids)
        assert [record.record_id for record in left.records] == ids
        assert [record.record_id for record in reversed(left.records)] == ids[::-1]
        assert left.records == list(left.records)


class TestDeltaLog:
    def test_deltas_since_replays_the_journal(self, sources):
        left, _ = sources
        start = left.data_version
        left.add(make_record("L7", "one", "two", "1.0"))
        left.update(make_record("L0", "sony bravia theater", "changed description", "199.99"))
        left.remove("L4")
        deltas = left.deltas_since(start)
        assert [delta.op for delta in deltas] == ["add", "update", "remove"]
        assert [delta.version for delta in deltas] == [start + 1, start + 2, start + 3]
        assert deltas[0].old is None and deltas[0].new.record_id == "L7"
        assert deltas[1].old.record_id == "L0" and deltas[1].new.record_id == "L0"
        assert deltas[2].new is None and deltas[2].old.record_id == "L4"

    def test_deltas_since_current_version_is_empty(self, sources):
        left, _ = sources
        assert left.deltas_since(left.data_version) == []

    def test_truncated_log_returns_none(self, sources):
        left, _ = sources
        left.delta_log_limit = 2
        start = left.data_version
        for index in range(3):
            left.add(make_record(f"L{7 + index}", "n", "d", "1.0"))
        assert left.deltas_since(start) is None
        assert len(left.deltas_since(start + 1)) == 2

    def test_future_version_returns_none(self, sources):
        left, _ = sources
        assert left.deltas_since(left.data_version + 1) is None

    def test_update_journals_retired_values(self, sources):
        """Value strings no longer held by any live record are journalled."""
        left, _ = sources
        old = left.get("L0")
        start = left.data_version
        left.update(make_record("L0", old.value("name"), "completely new words", "199.99"))
        (delta,) = left.deltas_since(start)
        assert old.value("description") in delta.retired_values
        assert old.value("name") not in delta.retired_values  # still live in L0
        assert old.as_text() in delta.retired_values

    def test_shared_values_are_not_retired(self):
        records = [make_record("a", "sony", "desc a", "1"), make_record("b", "sony", "desc b", "2")]
        source = DataSource(name="s", schema=LEFT_SCHEMA, records=records)
        start = source.data_version
        source.remove("a")
        (delta,) = source.deltas_since(start)
        assert "sony" not in delta.retired_values  # record "b" still holds it
        assert "desc a" in delta.retired_values


class TestPicklingExcludesIndexCache:
    def test_pickle_round_trip_drops_token_indexes(self, sources):
        import pickle

        from repro.data.indexing import get_source_index

        left, right = sources
        get_source_index(left, 2).top_k(right.get("R0"), k=3)
        assert left._token_indexes
        clone = pickle.loads(pickle.dumps(left))
        assert getattr(clone, "_token_indexes", None) is None
        assert clone.ids() == left.ids()
        assert clone.content_hash() == left.content_hash()

    def test_deepcopy_drops_token_indexes(self, sources):
        import copy

        from repro.data.indexing import get_source_index

        left, right = sources
        get_source_index(left, 2).top_k(right.get("R0"), k=3)
        clone = copy.deepcopy(left)
        assert getattr(clone, "_token_indexes", None) is None
        # The clone starts index-less but journals and hashes independently.
        clone.add(make_record("L7", "fresh", "record", "1.0"))
        assert clone.content_hash() != left.content_hash()
        assert left._token_indexes  # the original keeps its live index


class TestDataSourceConstruction:
    def test_records_are_indexed_by_id(self, sources):
        left, _ = sources
        assert left.get("L0").value("name").startswith("sony")

    def test_duplicate_ids_rejected(self):
        records = [make_record("L0", "a", "b", "1"), make_record("L0", "c", "d", "2")]
        with pytest.raises(DatasetError):
            DataSource(name="dup", schema=LEFT_SCHEMA, records=records)

    def test_schema_mismatch_rejected(self):
        schema = Schema.from_names(["only"])
        bad = Record.from_raw("x", {"only": "value"}, schema)
        with pytest.raises(SchemaError):
            DataSource(name="bad", schema=LEFT_SCHEMA, records=[bad])

    def test_len_and_iteration(self, sources):
        left, _ = sources
        assert len(left) == 6
        assert len(list(left)) == 6

    def test_contains_by_id(self, sources):
        left, _ = sources
        assert "L0" in left
        assert "missing" not in left


class TestDataSourceOperations:
    def test_add_validates_schema(self, sources):
        left, _ = sources
        schema = Schema.from_names(["only"])
        with pytest.raises(SchemaError):
            left.add(Record.from_raw("new", {"only": "v"}, schema))

    def test_add_rejects_duplicate_id(self, sources):
        left, _ = sources
        with pytest.raises(DatasetError):
            left.add(make_record("L0", "a", "b", "1"))

    def test_add_appends(self, sources):
        left, _ = sources
        left.add(make_record("L99", "new product", "new description", "5"))
        assert "L99" in left
        assert len(left) == 7

    def test_get_unknown_raises(self, sources):
        left, _ = sources
        with pytest.raises(DatasetError):
            left.get("does-not-exist")

    def test_ids_order(self, sources):
        left, _ = sources
        assert left.ids()[:3] == ["L0", "L1", "L2"]

    def test_sample_respects_exclusions(self, sources):
        left, _ = sources
        sampled = left.sample(10, rng=random.Random(0), exclude=["L0"])
        assert all(record.record_id != "L0" for record in sampled)

    def test_sample_caps_at_population(self, sources):
        left, _ = sources
        assert len(left.sample(100)) == len(left)

    def test_sample_is_deterministic_given_rng(self, sources):
        left, _ = sources
        first = [r.record_id for r in left.sample(3, rng=random.Random(42))]
        second = [r.record_id for r in left.sample(3, rng=random.Random(42))]
        assert first == second

    def test_filter_returns_new_source(self, sources):
        left, _ = sources
        filtered = left.filter(lambda record: "sony" in record.value("name"))
        assert len(filtered) == 1
        assert len(left) == 6

    def test_vocabulary_whole_source(self, sources):
        left, _ = sources
        vocabulary = left.vocabulary()
        assert "sony" in vocabulary
        assert "bose" in vocabulary

    def test_vocabulary_single_attribute(self, sources):
        left, _ = sources
        vocabulary = left.vocabulary("price")
        assert "199.99" in vocabulary
        assert "sony" not in vocabulary

    def test_distinct_values_excludes_missing(self):
        records = [
            make_record("a", "sony", "", "1"),
            make_record("b", "sony", "desc", "2"),
        ]
        source = DataSource(name="s", schema=LEFT_SCHEMA, records=records)
        assert source.distinct_values("description") == ["desc"]
        assert source.distinct_values("name") == ["sony"]

    def test_value_statistics_shape(self, sources):
        left, _ = sources
        stats = left.value_statistics()
        assert set(stats) == set(LEFT_SCHEMA.attributes)
        for attribute_stats in stats.values():
            assert 0.0 <= attribute_stats["missing_rate"] <= 1.0
            assert attribute_stats["distinct"] >= 0

    def test_from_rows_generates_ids(self):
        schema = Schema.from_names(["name"])
        source = DataSource.from_rows("rows", schema, [{"name": "a"}, {"name": "b"}])
        assert source.ids() == ["rows-0", "rows-1"]

    def test_from_rows_with_id_attribute(self):
        schema = Schema.from_names(["name"])
        source = DataSource.from_rows(
            "rows", schema, [{"id": "x1", "name": "a"}], id_attribute="id"
        )
        assert source.ids() == ["x1"]


class TestSealing:
    def test_seal_is_idempotent_and_returns_self(self, sources):
        left, _ = sources
        assert not left.sealed
        assert left.seal() is left
        assert left.sealed
        left.seal()  # second seal is a no-op
        assert left.sealed

    def test_mutations_on_sealed_source_raise(self, sources):
        left, _ = sources
        left.seal()
        with pytest.raises(SealedSourceError, match="sealed"):
            left.add(make_record("L9", "new", "new thing", "1.0"))
        with pytest.raises(SealedSourceError, match="sealed"):
            left.update(make_record("L0", "changed", "changed", "2.0"))
        with pytest.raises(SealedSourceError, match="sealed"):
            left.remove("L0")
        # the failed mutations left no trace
        assert len(left) == 6
        assert left.get("L0").value("name") == "sony bravia theater"

    def test_sealed_source_error_is_a_dataset_error(self, sources):
        left, _ = sources
        left.seal()
        with pytest.raises(DatasetError):
            left.remove("L0")

    def test_sealed_hash_skips_the_identity_sweep(self, sources, monkeypatch):
        """Repeated content hashes are a version check: the cached state is
        reused without walking the record list, sealed or not."""
        from repro.data import table

        left, _ = sources
        left.seal()
        first = left.content_hash()

        def walked(record):
            raise AssertionError("content_hash walked the records again")

        monkeypatch.setattr(table, "_record_hash_int", walked)
        assert left.content_hash() == first

    def test_sealed_and_unsealed_hashes_are_byte_identical(self):
        sealed_left, _ = toy_sources()
        plain_left, _ = toy_sources()
        sealed_left.seal()
        assert sealed_left.content_hash() == plain_left.content_hash()
