"""Formatting of experiment results into paper-style tables.

The harness returns lists of row dictionaries; these helpers pivot them into
the layout of the paper's tables (datasets as rows, method columns grouped by
model) and render fixed-width text tables that the benchmark scripts print.

The sweep-runner additions live here too: :func:`write_jsonl` /
:func:`read_jsonl` (JSON Lines persistence; ``read_jsonl`` backs the
checkpoint store's truncation-tolerant resume), :func:`write_manifest` (run
manifests summarising what a sweep executed, reused and skipped),
:func:`stable_row_key` (a (dataset, model, method, pair index) ordering for
row archives, consistent with the runner's unit order) and
:func:`merge_row_streams` (streaming merge of already-sorted row streams,
e.g. rows recovered from several archives).
"""

from __future__ import annotations

import csv
import heapq
import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.data.artifacts import atomic_writer


def format_table(rows: Sequence[dict[str, object]], columns: Sequence[str] | None = None, precision: int = 3) -> str:
    """Render rows as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join("  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in rendered)
    return f"{header}\n{separator}\n{body}"


def pivot_metric(
    rows: Sequence[dict[str, object]],
    metric: str,
    row_key: str = "dataset",
    column_keys: Sequence[str] = ("model", "method"),
    precision: int = 3,
) -> str:
    """Pivot rows into the paper's layout: one row per dataset, one column per
    (model, method) combination, cells holding ``metric``."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    column_labels: list[str] = []
    for row in rows:
        label = "/".join(str(row[key]) for key in column_keys)
        if label not in column_labels:
            column_labels.append(label)
    row_labels: list[str] = []
    for row in rows:
        label = str(row[row_key])
        if label not in row_labels:
            row_labels.append(label)

    table: dict[str, dict[str, float]] = {label: {} for label in row_labels}
    for row in rows:
        column = "/".join(str(row[key]) for key in column_keys)
        table[str(row[row_key])][column] = float(row[metric])

    pivoted = []
    for label in row_labels:
        entry: dict[str, object] = {row_key: label}
        for column in column_labels:
            value = table[label].get(column)
            entry[column] = value if value is not None else ""
        pivoted.append(entry)
    return format_table(pivoted, columns=[row_key, *column_labels], precision=precision)


def best_method_per_group(
    rows: Sequence[dict[str, object]],
    metric: str,
    lower_is_better: bool = False,
    group_keys: Sequence[str] = ("dataset", "model"),
) -> dict[tuple, str]:
    """Winning method per (dataset, model) group — used to check table 'shape'."""
    groups: dict[tuple, tuple[str, float]] = {}
    for row in rows:
        key = tuple(row[group_key] for group_key in group_keys)
        value = float(row[metric])
        method = str(row["method"])
        current = groups.get(key)
        better = (
            current is None
            or (lower_is_better and value < current[1])
            or (not lower_is_better and value > current[1])
        )
        if better:
            groups[key] = (method, value)
    return {key: method for key, (method, _) in groups.items()}


def win_counts(
    rows: Sequence[dict[str, object]],
    metric: str,
    lower_is_better: bool = False,
) -> dict[str, int]:
    """How many (dataset, model) cells each method wins for ``metric``."""
    winners = best_method_per_group(rows, metric, lower_is_better=lower_is_better)
    counts: dict[str, int] = {}
    for method in winners.values():
        counts[method] = counts.get(method, 0) + 1
    return counts


def aggregate_skip_errors(rows: Sequence[Mapping[str, object]]) -> dict[str, int]:
    """Sum the per-row ``skip_errors`` taxonomy into one sorted mapping.

    Each row's ``skip_errors`` maps ``"ExceptionClass:category"`` (category
    ``transient`` or ``permanent``, see
    :func:`repro.exceptions.is_transient`) to a count of explanations skipped
    for that reason; rows without the column contribute nothing, so the
    aggregation works across old and new row shapes alike.
    """
    totals: dict[str, int] = {}
    for row in rows:
        errors = row.get("skip_errors")
        if not isinstance(errors, Mapping):
            continue
        for key, count in errors.items():
            try:
                totals[str(key)] = totals.get(str(key), 0) + int(count)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
    return dict(sorted(totals.items()))


def skipped_summary(rows: Sequence[dict[str, object]]) -> str:
    """One-line summary of the ``skipped`` column (printed under each table).

    When rows carry the ``skip_errors`` taxonomy, the summary breaks the
    total down by exception class and transient/permanent category, e.g.
    ``skipped explanations: 3 (across 2 row(s)) [TriangleError:permanent=3]``.
    """
    total = sum(int(row.get("skipped", 0)) for row in rows)
    cells = sum(1 for row in rows if int(row.get("skipped", 0)) > 0)
    if total == 0:
        return "skipped explanations: 0"
    summary = f"skipped explanations: {total} (across {cells} row(s))"
    errors = aggregate_skip_errors(rows)
    if errors:
        detail = ", ".join(f"{key}={count}" for key, count in errors.items())
        summary = f"{summary} [{detail}]"
    return summary


def stable_row_key(row: dict[str, object]) -> tuple:
    """Sort key for experiment rows: (dataset, model, method, pair index).

    The sweep runner itself orders rows by work-unit coordinates; this key
    reproduces that order from row content alone, for sorting or merging row
    archives (CSV/JSONL) after the fact.  Numeric tie-breakers fall back to
    ``triangles`` (Figure 11 rows) so mixed row shapes still order
    deterministically.
    """
    index = row.get("pair_index", row.get("triangles", row.get("index", -1)))
    try:
        numeric = float(index)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        numeric = -1.0
    return (
        str(row.get("dataset", "")),
        str(row.get("model", "")),
        str(row.get("method", "")),
        numeric,
    )


def merge_row_streams(*streams: Iterable[dict[str, object]]) -> Iterator[dict[str, object]]:
    """Lazily merge row streams that are each sorted by :func:`stable_row_key`.

    Streaming (heap-based) merge: rows are yielded in canonical order without
    materialising any stream, so arbitrarily large checkpoint files can be
    combined row by row.
    """
    return heapq.merge(*streams, key=stable_row_key)


def write_jsonl(rows: Iterable[dict[str, object]], path: str | Path) -> Path:
    """Persist rows as JSON Lines, one row object per line (atomic)."""
    path = Path(path)
    with atomic_writer(path) as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str | Path) -> Iterator[dict[str, object]]:
    """Stream row dictionaries from a JSON Lines file.

    Undecodable lines — the truncated tail an interrupted writer leaves
    behind — are skipped, mirroring the checkpoint store's resume semantics.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                yield entry


def write_manifest(manifest: dict[str, object], path: str | Path) -> Path:
    """Persist a sweep-run manifest (see ``SweepResult.manifest``) as JSON (atomic)."""
    path = Path(path)
    with atomic_writer(path) as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def write_csv(rows: Iterable[dict[str, object]], path: str | Path) -> Path:
    """Persist rows as CSV, atomically (benchmark scripts archive results here)."""
    rows = list(rows)
    path = Path(path)
    columns: list[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    with atomic_writer(path, newline="") as handle:
        if rows:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    return path
