"""Blocking: cheap candidate-pair generation between two data sources.

The benchmark datasets ship pre-blocked candidate pairs, but the synthetic
generators need to produce realistic candidate sets themselves and CERTA's
open-triangle discovery benefits from restricting support-record candidates to
records that share at least some content with the pivot.  Standard token
blocking plus a lightweight overlap ranking covers both needs.

One *parameterised* notion of a blocking token is threaded through the whole
layer: a lower-cased word token of at least ``min_token_length`` characters
(default :data:`DEFAULT_BLOCKING_TOKEN_LENGTH`).  Ranking
(:func:`overlap_score`, :func:`top_k_neighbours`), blocking
(:func:`token_blocking`) and the inverted index of
:mod:`repro.data.indexing` all agree on it, so a record pair that ranks as
similar is also a blocking candidate and vice versa — historically ranking
used length >= 2 while blocking used >= 3, and the two subsystems disagreed
on what a blocking token was.

Every public function here takes ``indexed`` (default True): the hot paths
run through the shared :class:`~repro.data.indexing.SourceTokenIndex` of each
source; ``indexed=False`` keeps the original full-scan implementation as the
golden reference, which the equivalence suite and
``benchmarks/bench_triangle_index.py`` hold the indexed path to.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.data.records import Record, RecordPair
from repro.data.table import DataSource
from repro.text.tokenize import tokenize

#: The single default for what counts as a blocking token everywhere: ranking,
#: token blocking, candidate-pair generation and the source token index.
DEFAULT_BLOCKING_TOKEN_LENGTH = 2


@dataclass(frozen=True)
class BlockingResult:
    """Candidate pairs produced by a blocking pass, with simple statistics."""

    pairs: tuple[tuple[str, str], ...]
    left_count: int
    right_count: int

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the full cartesian product pruned away by blocking.

        The degenerate case (one or both sources empty, so the cartesian
        product is empty) reports 1.0: there is nothing left to compare, which
        is total pruning — not 0.0, which would read as "no pruning at all".
        """
        total = self.left_count * self.right_count
        if total == 0:
            return 1.0
        return 1.0 - len(self.pairs) / total


def record_blocking_tokens(
    record: Record, min_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH
) -> set[str]:
    """Lower-cased tokens of a record used as blocking keys."""
    return {token for token in tokenize(record.as_text()) if len(token) >= min_length}


def token_jaccard(left_tokens: set[str] | frozenset[str], right_tokens: set[str] | frozenset[str]) -> float:
    """Jaccard similarity of two blocking-token sets (0.0 when either is empty).

    The one overlap formula shared by the scan ranking (:func:`overlap_score`),
    the indexed negative scoring of :func:`candidate_pairs` and the top-k
    traversal of :class:`~repro.data.indexing.SourceTokenIndex` — keeping the
    indexed/scan score identity structural rather than three copies kept in
    sync by convention.
    """
    if not left_tokens or not right_tokens:
        return 0.0
    intersection = len(left_tokens & right_tokens)
    return intersection / (len(left_tokens) + len(right_tokens) - intersection)


def token_blocking(
    left: DataSource,
    right: DataSource,
    min_token_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH,
    max_block_size: int = 200,
    indexed: bool = True,
) -> BlockingResult:
    """Classic token blocking: records sharing a token land in the same block.

    Tokens that occur in more than ``max_block_size`` records on either side
    are considered stop-word-like and skipped, which keeps the candidate set
    near-linear for the larger synthetic datasets.

    With ``indexed=True`` the per-record token sets and the token -> records
    map come from each source's shared :class:`SourceTokenIndex` (built once,
    reused across calls and by the triangle search); ``indexed=False``
    re-tokenises both sources — the scan reference the indexed path must
    match exactly.
    """
    if indexed:
        from repro.data.indexing import get_source_index

        left_index = dict(get_source_index(left, min_token_length).posting_items())
        right_index = dict(get_source_index(right, min_token_length).posting_items())
    else:
        left_index = defaultdict(list)
        right_index = defaultdict(list)
        for record in left:
            for token in record_blocking_tokens(record, min_token_length):
                left_index[token].append(record.record_id)
        for record in right:
            for token in record_blocking_tokens(record, min_token_length):
                right_index[token].append(record.record_id)

    candidates: set[tuple[str, str]] = set()
    for token, left_ids in left_index.items():
        right_ids = right_index.get(token)
        if not right_ids:
            continue
        if len(left_ids) > max_block_size or len(right_ids) > max_block_size:
            continue
        for left_id in left_ids:
            for right_id in right_ids:
                candidates.add((left_id, right_id))
    return BlockingResult(
        pairs=tuple(sorted(candidates)),
        left_count=len(left),
        right_count=len(right),
    )


def overlap_score(
    left_record: Record,
    right_record: Record,
    min_token_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH,
) -> float:
    """Jaccard overlap of blocking tokens between two records."""
    return token_jaccard(
        record_blocking_tokens(left_record, min_token_length),
        record_blocking_tokens(right_record, min_token_length),
    )


def top_k_neighbours(
    query: Record,
    candidates: DataSource | Iterable[Record],
    k: int | None = 10,
    exclude_ids: Iterable[str] = (),
    min_token_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH,
    indexed: bool = True,
) -> list[Record]:
    """Return the ``k`` candidates with the highest token overlap with ``query``.

    Used by the open-triangle search to prioritise support records that share
    content with the pivot / free record, which makes perturbations stay close
    to the training distribution as the paper prescribes.

    Ordering is descending :func:`overlap_score`, ties broken by ``record_id``
    — the one candidate ordering shared with
    ``repro.certa.triangles._ranked_candidates``.  ``k=None`` ranks every
    candidate.  When ``candidates`` is a :class:`DataSource` and ``indexed``
    is true, the query runs through the source's shared
    :class:`SourceTokenIndex`; any other iterable (or ``indexed=False``) takes
    the scan path, which scores every candidate.  Both paths return
    byte-identical rankings.
    """
    if indexed and isinstance(candidates, DataSource):
        from repro.data.indexing import get_source_index

        index = get_source_index(candidates, min_token_length)
        return index.top_k(query, k=k, exclude_ids=exclude_ids)

    excluded = set(exclude_ids)
    scored = [
        (overlap_score(query, candidate, min_token_length), candidate.record_id, candidate)
        for candidate in candidates
        if candidate.record_id not in excluded
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    if k is None:
        return [record for _, __, record in scored]
    return [record for _, __, record in scored[:k]]


def candidate_pairs(
    left: DataSource,
    right: DataSource,
    matches: Sequence[tuple[str, str]],
    negatives_per_match: int = 3,
    min_token_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH,
    indexed: bool = True,
) -> list[RecordPair]:
    """Build a labelled candidate-pair set around known matches.

    All ground-truth matches are kept as positive pairs; for negatives we use
    the blocking candidates that are *not* matches, keeping roughly
    ``negatives_per_match`` negatives per positive with a preference for the
    hardest (highest-overlap) ones, mirroring how the DeepMatcher benchmark
    candidate sets were built.

    ``indexed=True`` scores the negatives from the interned token sets held
    by each source's index instead of re-tokenising both records per blocking
    pair; the scores (and therefore the chosen negatives) are identical.
    """
    match_set = set(matches)
    blocking = token_blocking(left, right, min_token_length=min_token_length, indexed=indexed)
    negative_candidates = [pair for pair in blocking.pairs if pair not in match_set]

    if indexed:
        from repro.data.indexing import get_source_index

        left_index = get_source_index(left, min_token_length)
        right_index = get_source_index(right, min_token_length)

        def pair_score(left_id: str, right_id: str) -> float:
            return token_jaccard(left_index.token_set(left_id), right_index.token_set(right_id))
    else:

        def pair_score(left_id: str, right_id: str) -> float:
            return overlap_score(left.get(left_id), right.get(right_id), min_token_length)

    # Hard negatives first (highest overlap), and among equally hard negatives
    # prefer pairs touching a matched record: such pairs keep CERTA-style
    # open-triangle discovery feasible, mirroring how the benchmark candidate
    # sets concentrate around the ground-truth matches.
    matched_left_ids = {left_id for left_id, _ in match_set}
    matched_right_ids = {right_id for _, right_id in match_set}
    scored_negatives = []
    for left_id, right_id in negative_candidates:
        score = pair_score(left_id, right_id)
        touches_match = left_id in matched_left_ids or right_id in matched_right_ids
        scored_negatives.append((score + (0.05 if touches_match else 0.0), left_id, right_id))
    scored_negatives.sort(key=lambda item: (-item[0], item[1], item[2]))

    max_negatives = max(negatives_per_match * len(match_set), negatives_per_match)
    chosen_negatives = scored_negatives[:max_negatives]

    pairs = [
        RecordPair(left.get(left_id), right.get(right_id), True) for left_id, right_id in sorted(match_set)
    ]
    pairs.extend(
        RecordPair(left.get(left_id), right.get(right_id), False) for _, left_id, right_id in chosen_negatives
    )
    return pairs
