"""Tests for repro.data.io: CSV / JSONL round-trips."""

from __future__ import annotations

import json

import pytest

from repro.data.blocking import top_k_neighbours
from repro.data.indexing import get_source_index
from repro.data.io import (
    load_dataset,
    read_pairs_csv,
    read_source_csv,
    records_from_jsonl,
    records_to_jsonl,
    save_dataset,
    write_pairs_csv,
    write_source_csv,
)
from repro.exceptions import DatasetError


class TestSourceCsv:
    def test_roundtrip_preserves_records(self, sources, tmp_path):
        left, _ = sources
        path = write_source_csv(left, tmp_path / "tableA.csv")
        loaded = read_source_csv(path, name="loaded", source_tag="U")
        assert len(loaded) == len(left)
        assert loaded.get("L0").value("name") == left.get("L0").value("name")

    def test_roundtrip_preserves_schema_order(self, sources, tmp_path):
        left, _ = sources
        path = write_source_csv(left, tmp_path / "tableA.csv")
        loaded = read_source_csv(path, name="loaded")
        assert loaded.schema.attributes == left.schema.attributes

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_source_csv(tmp_path / "nope.csv", name="x")

    def test_missing_id_column_raises(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,price\nsony,10\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            read_source_csv(bad, name="bad")


class TestPairsCsv:
    def test_roundtrip(self, sources, labelled_pairs, tmp_path):
        left, right = sources
        path = write_pairs_csv(labelled_pairs, tmp_path / "pairs.csv")
        loaded = read_pairs_csv(path, left, right)
        assert len(loaded) == len(labelled_pairs)
        assert loaded[0].label == labelled_pairs[0].label

    def test_unlabelled_pair_rejected(self, labelled_pairs, tmp_path):
        unlabelled = [labelled_pairs[0].with_label(None)]
        with pytest.raises(DatasetError):
            write_pairs_csv(unlabelled, tmp_path / "pairs.csv")

    def test_missing_columns_raise(self, sources, tmp_path):
        left, right = sources
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            read_pairs_csv(bad, left, right)


class TestDatasetDirectory:
    def test_save_and_load_roundtrip(self, dataset, tmp_path):
        directory = save_dataset(dataset, tmp_path / "TOY")
        loaded = load_dataset(directory)
        assert loaded.name == dataset.name
        assert len(loaded.train) == len(dataset.train)
        assert len(loaded.test) == len(dataset.test)
        assert loaded.left_schema.attributes == dataset.left_schema.attributes

    def test_expected_files_exist(self, dataset, tmp_path):
        directory = save_dataset(dataset, tmp_path / "TOY")
        for name in ("tableA.csv", "tableB.csv", "train.csv", "valid.csv", "test.csv", "metadata.json"):
            assert (directory / name).exists()

    def test_load_with_name_override(self, dataset, tmp_path):
        directory = save_dataset(dataset, tmp_path / "TOY")
        loaded = load_dataset(directory, name="RENAMED")
        assert loaded.name == "RENAMED"

    def test_index_over_a_loaded_dataset_ranks_like_the_full_scan(self, dataset, tmp_path):
        loaded = load_dataset(save_dataset(dataset, tmp_path / "TOY"))
        assert loaded.left.ids() == dataset.left.ids()
        index = get_source_index(loaded.left, 2)
        query = loaded.right.get("R0")
        scan = top_k_neighbours(query, list(loaded.left), k=None, indexed=False)
        assert [r.record_id for r in index.top_k(query, k=None)] == [r.record_id for r in scan]
        assert index.builds == 1


class TestContentHashMetadata:
    def test_saved_metadata_records_both_hashes(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "ds")
        metadata = json.loads((tmp_path / "ds" / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["content_hashes"]["tableA"] == dataset.left.content_hash()
        assert metadata["content_hashes"]["tableB"] == dataset.right.content_hash()

    def test_roundtrip_verifies_cleanly(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.left.content_hash() == dataset.left.content_hash()
        assert loaded.right.content_hash() == dataset.right.content_hash()

    @pytest.mark.parametrize(
        "table, old, new",
        [("tableA", "sony", "pony"), ("tableB", "netgear", "notgear")],
        ids=["tableA", "tableB"],
    )
    def test_tampered_table_raises(self, dataset, tmp_path, table, old, new):
        save_dataset(dataset, tmp_path / "ds")
        path = tmp_path / "ds" / f"{table}.csv"
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        with pytest.raises(DatasetError, match="content hash"):
            load_dataset(tmp_path / "ds")

    def test_metadata_without_hashes_loads_unverified(self, dataset, tmp_path):
        """Datasets saved without ``content_hashes`` (the original benchmark
        layout) load without verification."""
        save_dataset(dataset, tmp_path / "ds")
        metadata_path = tmp_path / "ds" / "metadata.json"
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        del metadata["content_hashes"]
        metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
        table = tmp_path / "ds" / "tableA.csv"
        table.write_text(table.read_text(encoding="utf-8").replace("sony", "pony"), encoding="utf-8")
        loaded = load_dataset(tmp_path / "ds")  # no hashes recorded: nothing to verify
        assert "pony bravia theater" in {r.value("name") for r in loaded.left}

    def test_saved_metadata_records_the_hash_formula_version(self, dataset, tmp_path):
        from repro.data.table import CONTENT_HASH_VERSION

        save_dataset(dataset, tmp_path / "ds")
        metadata = json.loads((tmp_path / "ds" / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["hash_version"] == CONTENT_HASH_VERSION

    def test_hash_formula_skew_skips_verification(self, dataset, tmp_path):
        """A dataset saved under another hash formula loads without a (false)
        corruption report — formula skew is not tampering."""
        save_dataset(dataset, tmp_path / "ds")
        metadata_path = tmp_path / "ds" / "metadata.json"
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        metadata["hash_version"] = 1  # the pre-additive sorted-digest formula
        metadata["content_hashes"] = {"tableA": "0" * 64, "tableB": "0" * 64}
        metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.left.content_hash() == dataset.left.content_hash()


class TestJsonl:
    def test_roundtrip(self, sources, tmp_path):
        left, _ = sources
        path = records_to_jsonl(left.records, tmp_path / "records.jsonl")
        loaded = records_from_jsonl(path, left.schema)
        assert len(loaded) == len(left)
        assert loaded[0].record_id == left.records[0].record_id
        assert dict(loaded[0].values) == dict(left.records[0].values)

    def test_missing_jsonl_raises(self, sources, tmp_path):
        left, _ = sources
        with pytest.raises(DatasetError):
            records_from_jsonl(tmp_path / "nope.jsonl", left.schema)
