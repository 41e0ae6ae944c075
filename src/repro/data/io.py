"""CSV / JSON serialisation for data sources and datasets.

The DeepMatcher benchmark distributes each dataset as ``tableA.csv``,
``tableB.csv`` plus ``train/valid/test.csv`` files holding id pairs and labels.
This module reads and writes that exact layout so that users with the original
public data can load it directly, while the synthetic generators in
:mod:`repro.data.synthetic` produce the same on-disk format.

Saved datasets carry the content hashes of both sources in ``metadata.json``;
:func:`load_dataset` verifies them, so silent on-disk corruption of a table
surfaces as a :class:`~repro.exceptions.DatasetError` instead of flowing into
experiments.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.data.artifacts import atomic_writer
from repro.data.dataset import ERDataset, PairSplit
from repro.data.records import Record, RecordPair, Schema, pairs_from_ids
from repro.data.table import CONTENT_HASH_VERSION, DataSource
from repro.exceptions import DatasetError


def write_source_csv(source: DataSource, path: str | Path, id_column: str = "id") -> Path:
    """Write a data source as a CSV file with an explicit id column.

    Atomic (temp file + fsync + rename): a crash mid-write can never leave a
    torn table for a later :func:`load_dataset` to misreport as corruption.
    """
    path = Path(path)
    with atomic_writer(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([id_column, *source.schema.attributes])
        for record in source:
            writer.writerow([record.record_id, *[record.value(a) for a in source.schema]])
    return path


def read_source_csv(
    path: str | Path,
    name: str,
    id_column: str = "id",
    source_tag: str | None = None,
) -> DataSource:
    """Read a data source from a CSV file written by :func:`write_source_csv`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"source file {path} does not exist")
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or id_column not in reader.fieldnames:
            raise DatasetError(f"CSV {path} has no {id_column!r} column")
        attribute_names = [field for field in reader.fieldnames if field != id_column]
        schema = Schema.from_names(attribute_names)
        rows = list(reader)
    source_tag = source_tag or name
    records = [
        Record.from_raw(row[id_column], {a: row.get(a) for a in attribute_names}, schema, source=source_tag)
        for row in rows
    ]
    return DataSource(name=name, schema=schema, records=records)


def write_pairs_csv(pairs: Sequence[RecordPair], path: str | Path) -> Path:
    """Write labelled pairs as ``ltable_id,rtable_id,label`` rows (atomic)."""
    path = Path(path)
    with atomic_writer(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ltable_id", "rtable_id", "label"])
        for pair in pairs:
            if pair.label is None:
                raise DatasetError(f"cannot serialise unlabelled pair {pair.pair_id}")
            writer.writerow([pair.left.record_id, pair.right.record_id, int(pair.label)])
    return path


def read_pairs_csv(path: str | Path, left: DataSource, right: DataSource) -> list[RecordPair]:
    """Read labelled pairs from a ``ltable_id,rtable_id,label`` CSV file."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"pairs file {path} does not exist")
    id_pairs: list[tuple[str, str, bool]] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"ltable_id", "rtable_id", "label"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DatasetError(f"pairs CSV {path} must have columns {sorted(required)}")
        for row in reader:
            id_pairs.append((row["ltable_id"], row["rtable_id"], bool(int(row["label"]))))
    left_index = {record.record_id: record for record in left}
    right_index = {record.record_id: record for record in right}
    return pairs_from_ids(left_index, right_index, id_pairs)


def save_dataset(dataset: ERDataset, directory: str | Path) -> Path:
    """Persist a dataset in the DeepMatcher benchmark directory layout.

    ``metadata.json`` records each table's content hash so a later load can
    verify integrity.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_source_csv(dataset.left, directory / "tableA.csv")
    write_source_csv(dataset.right, directory / "tableB.csv")
    write_pairs_csv(dataset.train.pairs, directory / "train.csv")
    write_pairs_csv(dataset.valid.pairs, directory / "valid.csv")
    write_pairs_csv(dataset.test.pairs, directory / "test.csv")
    metadata = {
        "name": dataset.name,
        "description": dataset.description,
        "content_hashes": {
            "tableA": dataset.left.content_hash(),
            "tableB": dataset.right.content_hash(),
        },
        "hash_version": CONTENT_HASH_VERSION,
    }
    with atomic_writer(directory / "metadata.json") as handle:
        handle.write(json.dumps(metadata, indent=2))
    return directory


def load_dataset(directory: str | Path, name: str | None = None) -> ERDataset:
    """Load a dataset previously written by :func:`save_dataset` (or the
    original DeepMatcher benchmark layout).

    When ``metadata.json`` carries content hashes (written by
    :func:`save_dataset`), the loaded tables are verified against them and a
    mismatch raises :class:`~repro.exceptions.DatasetError` — corrupted or
    hand-edited tables never flow silently into experiments (delete
    ``metadata.json`` to load intentionally edited data).  Hashes recorded
    under a different ``hash_version`` (an older library release) cannot be
    compared and are skipped rather than misreported as corruption.
    """
    directory = Path(directory)
    metadata_path = directory / "metadata.json"
    metadata = {}
    if metadata_path.exists():
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    dataset_name = name or metadata.get("name") or directory.name
    left = read_source_csv(directory / "tableA.csv", name=f"{dataset_name}-left", source_tag="U")
    right = read_source_csv(directory / "tableB.csv", name=f"{dataset_name}-right", source_tag="V")
    expected_hashes = metadata.get("content_hashes") or {}
    # A dataset saved under a different hash formula cannot be verified — its
    # recorded hashes would mismatch every honestly-loaded table.  Skip the
    # check rather than misreport formula skew as corruption.  (Datasets from
    # before the formula was versioned recorded no "hash_version"; treat them
    # as version 1.)
    if metadata.get("hash_version", 1 if expected_hashes else None) == CONTENT_HASH_VERSION:
        for table, source in (("tableA", left), ("tableB", right)):
            expected = expected_hashes.get(table)
            if expected is not None and source.content_hash() != expected:
                raise DatasetError(
                    f"{table}.csv in {directory} does not match the content hash recorded at "
                    f"save time; the file was modified or corrupted after save_dataset"
                )
    train = PairSplit("train", read_pairs_csv(directory / "train.csv", left, right))
    valid = PairSplit("valid", read_pairs_csv(directory / "valid.csv", left, right))
    test = PairSplit("test", read_pairs_csv(directory / "test.csv", left, right))
    return ERDataset(
        name=dataset_name,
        left=left,
        right=right,
        train=train,
        valid=valid,
        test=test,
        description=metadata.get("description", ""),
    )


def records_to_jsonl(records: Iterable[Record], path: str | Path) -> Path:
    """Write records as JSON lines, one record per line (atomic)."""
    path = Path(path)
    with atomic_writer(path) as handle:
        for record in records:
            handle.write(
                json.dumps({"id": record.record_id, "source": record.source, "values": dict(record.values)})
            )
            handle.write("\n")
    return path


def records_from_jsonl(path: str | Path, schema: Schema) -> list[Record]:
    """Read records from a JSON lines file written by :func:`records_to_jsonl`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"jsonl file {path} does not exist")
    records = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            records.append(
                Record.from_raw(payload["id"], payload["values"], schema, source=payload.get("source", "U"))
            )
    return records
