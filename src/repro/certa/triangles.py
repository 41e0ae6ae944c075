"""Open-triangle discovery (Section 3.3 of the paper).

An open triangle for a prediction ``M(<u, v>) = y`` is a triple ``<u, v, w>``
where the support record ``w`` comes from the same source as the free record
and receives the *opposite* prediction against the pivot
(``M(<w, v>) = not y`` for left triangles).  CERTA needs ``tau`` triangles,
half left and half right; when a source cannot supply enough support records,
the data-augmentation fallback of :mod:`repro.certa.augmentation` fabricates
additional candidates.

Candidate generation runs through the per-source inverted token index of
:mod:`repro.data.indexing` (``indexed=True``, the default): the index is
built once per source, shared across every explained pair of a sweep, and
answers the similarity ranking without re-tokenising the source.
``indexed=False`` keeps the original full-scan ranking as the golden
reference; both paths produce identical triangles, and the index counters are
surfaced through :attr:`TriangleSearchResult.index_stats`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.data.blocking import DEFAULT_BLOCKING_TOKEN_LENGTH, top_k_neighbours
from repro.data.indexing import IndexStats, get_source_index
from repro.data.records import Record, RecordPair
from repro.data.table import DataSource
from repro.exceptions import TriangleError
from repro.models.base import MATCH_THRESHOLD
from repro.models.engine import SupportsPairPrediction
from repro.certa.augmentation import augment_records


@dataclass(frozen=True)
class OpenTriangle:
    """One open triangle: the original pair, the free side and the support record."""

    pair: RecordPair
    side: str  # "left" when the left record is free, "right" otherwise
    support: Record
    augmented: bool = False

    @property
    def free_record(self) -> Record:
        """The record that will be perturbed."""
        return self.pair.left if self.side == "left" else self.pair.right

    @property
    def pivot_record(self) -> Record:
        """The record that stays fixed."""
        return self.pair.right if self.side == "left" else self.pair.left

    def support_pair(self) -> RecordPair:
        """The pair ``<w, v>`` (or ``<u, q>``) whose prediction defines the triangle."""
        if self.side == "left":
            return RecordPair(left=self.support, right=self.pair.right)
        return RecordPair(left=self.pair.left, right=self.support)


@dataclass
class TriangleSearchResult:
    """Triangles found for one prediction, with bookkeeping for Table 8."""

    triangles: list[OpenTriangle]
    requested: int
    candidates_scored: int
    augmented_count: int
    #: Index counter delta over this search (builds, queries, postings
    #: visited, candidates pruned), summed over both sources' indexes; None
    #: when the search ran with ``indexed=False``.
    index_stats: IndexStats | None = None

    @property
    def natural_count(self) -> int:
        """Triangles built from real (non-augmented) support records."""
        return len(self.triangles) - self.augmented_count

    def by_side(self, side: str) -> list[OpenTriangle]:
        """Triangles whose free record is on ``side``."""
        return [triangle for triangle in self.triangles if triangle.side == side]


def _support_content_key(record: Record) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Identity of a support record *by content* (id excluded).

    Augmentation can fabricate the same token-drop variant twice under fresh
    identifiers (``+da0`` counters restart per pass), so support deduplication
    must compare values, not ids.
    """
    return (record.source, tuple(sorted(record.values.items())))


def _ranked_candidates(
    source: DataSource,
    pivot: Record,
    free: Record,
    want_match: bool,
    rng: random.Random,
    max_candidates: int | None,
    indexed: bool = True,
    min_token_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH,
) -> list[Record]:
    """Candidate support records, ordered to find the wanted prediction fast.

    When the search needs support records that *match* the pivot, records
    similar to the pivot are tried first (the ranking of
    :func:`repro.data.blocking.top_k_neighbours`, answered by the source's
    token index when ``indexed``); when it needs non-matching support records,
    a shuffled order is enough because most records do not match.

    The ordering is a pure function of the candidate *set*, the pivot and the
    seeded ``rng``: candidates are canonicalised by record id, so both the
    stable similarity ranking and the shuffle are independent of the order in
    which the source happens to iterate its records — and independent of
    whether the index or the scan answers the query.  Equal similarity scores
    are broken by record id, keeping triangle selection stable across runs.
    """
    if want_match:
        return top_k_neighbours(
            pivot,
            source,
            k=max_candidates,
            exclude_ids=(free.record_id,),
            min_token_length=min_token_length,
            indexed=indexed,
        )
    if indexed:
        # The index already holds the records in canonical id order.
        index = get_source_index(source, min_token_length)
        candidates = [
            record for record in index.records_by_id() if record.record_id != free.record_id
        ]
    else:
        candidates = [record for record in source if record.record_id != free.record_id]
        # The shuffle permutes whatever order it is given; canonicalise first
        # so the permutation depends only on the id set and the seeded rng.
        candidates.sort(key=lambda record: record.record_id)
    rng.shuffle(candidates)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    return candidates


def _find_side_triangles(
    model: SupportsPairPrediction,
    pair: RecordPair,
    side: str,
    source: DataSource,
    original_match: bool,
    needed: int,
    rng: random.Random,
    max_candidates: int | None,
    allow_augmentation: bool,
    force_augmentation: bool = False,
    batch_size: int = 32,
    exclude_support_ids: frozenset[str] | set[str] | None = None,
    exclude_support_keys: frozenset | set | None = None,
    indexed: bool = True,
) -> tuple[list[OpenTriangle], int, int]:
    """Find up to ``needed`` triangles on one side; returns (triangles, scored, augmented).

    ``exclude_support_ids`` and ``exclude_support_keys`` let the compensation
    pass of :func:`find_open_triangles` skip support records it already used —
    by id and by *content* — so a top-up scan never re-scores them and never
    re-fabricates an already-used augmented variant under a fresh id.  Within
    one call, supports are likewise unique by content: a candidate whose
    values match an already-accepted support is passed over.  ``scored``
    counts only the candidates the search actually consumed: when ``needed``
    is reached mid-batch, the unread tail of that batch is not counted (its
    scores are computed but discarded, and an engine-backed model has them
    cached anyway).
    """
    free = pair.left if side == "left" else pair.right
    pivot = pair.right if side == "left" else pair.left
    want_match = not original_match  # support record must get the opposite prediction
    excluded = exclude_support_ids or frozenset()
    used_keys = set(exclude_support_keys or ())

    def support_pair(record: Record) -> RecordPair:
        if side == "left":
            return RecordPair(left=record, right=pair.right)
        return RecordPair(left=pair.left, right=record)

    triangles: list[OpenTriangle] = []
    scored = 0

    def scan(candidates: Sequence[Record], augmented: bool) -> None:
        nonlocal scored
        if excluded or used_keys:
            candidates = [
                record
                for record in candidates
                if record.record_id not in excluded
                and _support_content_key(record) not in used_keys
            ]
        for start in range(0, len(candidates), batch_size):
            if len(triangles) >= needed:
                return
            batch = candidates[start : start + batch_size]
            scores = model.predict_proba([support_pair(record) for record in batch])
            for record, score in zip(batch, scores):
                scored += 1
                is_match = score > MATCH_THRESHOLD
                if is_match != want_match:
                    continue
                content_key = _support_content_key(record)
                if content_key in used_keys:
                    continue
                used_keys.add(content_key)
                triangles.append(
                    OpenTriangle(pair=pair, side=side, support=record, augmented=augmented)
                )
                if len(triangles) >= needed:
                    return

    natural_candidates = _ranked_candidates(
        source, pivot, free, want_match, rng, max_candidates, indexed=indexed
    )
    if not force_augmentation:
        scan(natural_candidates, augmented=False)
    augmented_used = 0

    if len(triangles) < needed and (allow_augmentation or force_augmentation):
        missing = needed - len(triangles)
        # Fabricate candidates from the records most likely to produce the
        # wanted prediction: records similar to the pivot when a match is
        # needed, arbitrary records otherwise.
        base_records = natural_candidates[: max(missing * 4, 20)]
        fabricated = augment_records(base_records, needed=missing * 6, rng=rng)
        before = len(triangles)
        scan(fabricated, augmented=True)
        augmented_used = len(triangles) - before
    return triangles, scored, augmented_used


def find_open_triangles(
    model: SupportsPairPrediction,
    pair: RecordPair,
    left_source: DataSource,
    right_source: DataSource,
    count: int = 100,
    seed: int = 0,
    max_candidates: int | None = 400,
    allow_augmentation: bool = True,
    force_augmentation: bool = False,
    indexed: bool = True,
) -> TriangleSearchResult:
    """Find ``count`` open triangles for a prediction (half left, half right).

    ``force_augmentation=True`` skips real support records entirely and builds
    every triangle from augmented (token-dropped) candidates — the stress test
    of Tables 9-10 of the paper.

    When one side cannot provide its share even with augmentation, the other
    side is allowed to compensate so the total stays as close to ``count`` as
    the data permits (the paper's Table 8 documents exactly this shortfall for
    the smallest datasets).  The compensation rescan skips supports the first
    pass already used, both by id and by content, so a topped-up result never
    contains two triangles with identical support values.

    ``indexed`` selects how candidates are ranked: through each source's
    shared :class:`~repro.data.indexing.SourceTokenIndex` (the default) or by
    scanning and re-tokenising the source (the reference path).  Both return
    identical triangles; the indexed search also reports its
    :class:`~repro.data.indexing.IndexStats` delta on the result.
    """
    if count <= 0:
        raise TriangleError(f"triangle count must be positive, got {count}")
    if len(left_source) == 0 or len(right_source) == 0:
        raise TriangleError("both data sources must be non-empty to build triangles")

    stats_before: IndexStats | None = None
    if indexed:
        left_index = get_source_index(left_source, DEFAULT_BLOCKING_TOKEN_LENGTH)
        right_index = get_source_index(right_source, DEFAULT_BLOCKING_TOKEN_LENGTH)
        stats_before = left_index.stats + right_index.stats

    rng = random.Random(seed)
    original_match = model.predict_match(pair)
    per_side = count // 2

    left_triangles, left_scored, left_augmented = _find_side_triangles(
        model, pair, "left", left_source, original_match, per_side, rng,
        max_candidates, allow_augmentation, force_augmentation, indexed=indexed,
    )
    right_needed = count - len(left_triangles) if len(left_triangles) < per_side else count - per_side
    right_triangles, right_scored, right_augmented = _find_side_triangles(
        model, pair, "right", right_source, original_match, right_needed, rng,
        max_candidates, allow_augmentation, force_augmentation, indexed=indexed,
    )
    triangles = left_triangles + right_triangles

    # Let the left side compensate for a short right side.  The rescan skips
    # the support records the first pass already used (so only the top-up is
    # searched for and scored) instead of re-running the full search and
    # filtering duplicates afterwards.
    if len(triangles) < count and len(left_triangles) == per_side:
        extra_needed = count - len(triangles)
        used_support_ids = frozenset(triangle.support.record_id for triangle in left_triangles)
        used_support_keys = frozenset(
            _support_content_key(triangle.support) for triangle in left_triangles
        )
        extra, extra_scored, extra_augmented = _find_side_triangles(
            model, pair, "left", left_source, original_match,
            extra_needed, rng, max_candidates, allow_augmentation, force_augmentation,
            exclude_support_ids=used_support_ids,
            exclude_support_keys=used_support_keys,
            indexed=indexed,
        )
        triangles.extend(extra)
        left_scored += extra_scored
        left_augmented += extra_augmented

    index_stats: IndexStats | None = None
    if indexed and stats_before is not None:
        index_stats = (left_index.stats + right_index.stats) - stats_before

    return TriangleSearchResult(
        triangles=triangles,
        requested=count,
        candidates_scored=left_scored + right_scored,
        augmented_count=left_augmented + right_augmented,
        index_stats=index_stats,
    )
