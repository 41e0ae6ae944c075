"""Inverted token indexes over data sources for candidate generation.

CERTA's open-triangle discovery and the blocking layer both ask the same
question many times over: *which records of this source share content with
this query record?*  The scan answers (:func:`repro.data.blocking.overlap_score`
over every record, :func:`repro.data.blocking.token_blocking` re-tokenising
both sources) re-derive the blocking-token set of every record on every call,
which makes candidate generation the dominant cost of a triangle search once
model calls are batched and featurisation is cached.

:class:`SourceTokenIndex` computes each record's blocking-token set exactly
once (interned by record *content*, following the
:mod:`repro.text.interning` pattern, so perturbed copies of the same record
are free) and stores an inverted index from token to the records containing
it.  On top of that it answers:

* :meth:`top_k` — the exact top-k records by Jaccard overlap with a query,
  with the same ``(-score, record_id)`` ordering as the scan reference.  The
  traversal walks posting lists rarest-token-first and stops early once the
  k-th best exact score provably beats the upper bound ``remaining / |Q|``
  reachable by any record not yet seen.
* :meth:`posting_items` — token -> record ids, the raw material of token
  blocking.
* :meth:`token_set` / :meth:`query_tokens` — interned blocking-token sets for
  index records and ad-hoc query records.

There is one in-memory representation: slot-addressed posting lists in a
dict (token -> sorted slot ids) beside per-slot token sets.  The
:meth:`top_k` walk over it is the df-ordered, early-terminating top-k of
Xiao et al. ("Top-k set similarity joins", ICDE 2009); the reference scan
(:func:`repro.data.blocking.top_k_neighbours` with ``indexed=False``) is
the golden oracle the equivalence suites compare it against.

Indexes are built on first use, cached on the :class:`~repro.data.table.DataSource`
instance per ``min_token_length`` (:func:`get_source_index`), and maintained
**incrementally**.  A source's records change only through its mutation API,
which bumps ``data_version`` and journals every mutation, so an index is
current exactly when it has seen the source's version.  On the next query
after a mutation the index consumes the source's bounded delta log
(:meth:`~repro.data.table.DataSource.deltas_since`) and applies the
record-level add/update/remove deltas directly to its sorted posting lists
(``bisect`` insertions and deletions, the standard in-place update of an
inverted file for small batches: Zobel & Moffat, "Inverted files for text
search engines", ACM Computing Surveys 2006) — a single-record mutation
costs work proportional to that record's tokens, not to the source.  A
full rebuild happens only when the log was truncated past the index's
version or when replay detects an inconsistency.  Indexes live in memory
only; building one at paper scale costs a few milliseconds.
:class:`IndexStats` counts builds, delta applies, queries, postings visited
and candidates pruned; the counters surface through
``TriangleSearchResult.index_stats``, ``CertaExplanation.index_stats`` and
the eval-harness rows.

Every token set is derived by the same public functions the scan path calls
(:func:`repro.data.blocking.record_blocking_tokens` semantics via
:func:`repro.text.tokenize.tokenize`), so indexed and scanned candidate
generation produce **identical** results — the equivalence asserted by
``tests/test_triangle_index.py`` and re-checked by
``benchmarks/bench_triangle_index.py``.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.counters import Counters
from repro.data.blocking import DEFAULT_BLOCKING_TOKEN_LENGTH  # noqa: F401  (re-exported)
from repro.data.records import Record
from repro.data.table import DataSource, SourceDelta
from repro.text.tokenize import tokenize

#: Interned blocking-token sets keyed by (record content text, min length).
#: Content-addressed like :class:`repro.text.interning.ValueFeatureCache`:
#: perturbed/augmented copies of a record share one entry per process.
_TOKEN_SET_CACHE: dict[tuple[str, int], frozenset[str]] = {}

#: Sources larger than this bypass the interning cache during a cold build:
#: at million-record scale the per-record entries would pin the whole token
#: universe in a process-lifetime dict for a one-shot derivation.
_INTERN_CACHE_RECORD_LIMIT = 50_000


def interned_blocking_tokens(record: Record, min_length: int) -> frozenset[str]:
    """The record's blocking-token set, computed once per distinct content.

    Byte-identical to ``frozenset(record_blocking_tokens(record, min_length))``
    from :mod:`repro.data.blocking`; the cache only changes how often the
    tokenisation runs.
    """
    key = (record.as_text(), min_length)
    cached = _TOKEN_SET_CACHE.get(key)
    if cached is None:
        cached = frozenset(
            token for token in tokenize(key[0]) if len(token) >= min_length
        )
        _TOKEN_SET_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class IndexStats(Counters):
    """Counters of one (or a sum of) :class:`SourceTokenIndex` (snapshot semantics).

    ``builds``
        Full index (re)builds: the first build, and every rebuild after a
        truncated delta log or a failed replay.
    ``delta_applies``
        Record-level mutations applied incrementally to the posting lists
        (one per consumed :class:`~repro.data.table.SourceDelta`); a
        mutation that instead triggered a rebuild counts under ``builds``,
        never here.
    ``queries``
        Top-k queries plus whole-index traversals (one per blocking pass).
    ``postings_visited``
        Posting-list entries read while answering queries.
    ``candidates_pruned``
        Records never materialised as ranking candidates thanks to the
        inverted index (zero-overlap records skipped plus records cut off by
        the early-termination bound).
    ``compile_ms``
        Always 0.0: the index has no compiled form.  The field stays so rows
        and traces that read it keep their schema.
    """

    builds: int = 0
    delta_applies: int = 0
    queries: int = 0
    postings_visited: int = 0
    candidates_pruned: int = 0
    compile_ms: float = 0.0

    key_prefix = "index_"


class _DeltaReplayError(Exception):
    """Raised when a delta cannot be applied consistently (forces a rebuild)."""


class SourceTokenIndex:
    """Inverted blocking-token index over one :class:`DataSource`.

    Records are addressed by **slot**: a small integer assigned when a
    record enters the index and kept while it lives, so posting lists change
    only where the mutated record's own tokens point.  A removed record's
    slot goes on a free stack that the next insert pops, so there are never
    more slots than the peak number of live records.  Three parallel
    id-sorted arrays (``_ids`` / ``_id_slots`` / ``_records``) keep the
    canonical ``record_id`` order — the order every scan ranking uses for
    tie-breaks and zero-overlap fill.

    Mutations reach the index through the source's delta log (see
    :meth:`ensure_fresh`).

    One thread at a time may mutate and query a source and its index.  A
    sealed source (:meth:`~repro.data.table.DataSource.seal`) never changes
    version, so many threads may query it at once: racing first queries at
    most build the same index twice.
    """

    def __init__(self, source: DataSource, min_token_length: int) -> None:
        self.source = source
        self.min_token_length = min_token_length
        self.builds = 0
        self.delta_applies = 0
        self.queries = 0
        self.postings_visited = 0
        self.candidates_pruned = 0
        #: The source's ``data_version`` the index reflects (``None``: unbuilt).
        self._built_version: int | None = None
        # Slot-addressed stores (a removed record's slot holds None until reused):
        self._slots: list[Record | None] = []
        self._slot_tokens: list[frozenset[str]] = []
        self._postings: dict[str, list[int]] = {}
        #: Freed slots, reused last-freed first by the next insert.
        self._free: list[int] = []
        # Canonical id-order views (parallel arrays, maintained by bisect):
        self._records: list[Record] = []
        self._ids: list[str] = []
        self._id_slots: list[int] = []

    @property
    def stats(self) -> IndexStats:
        """Immutable snapshot of the counters."""
        return IndexStats.of(self)

    # ------------------------------------------------------------------ build

    def _build(self) -> None:
        """(Re)derive the index from the source's current records."""
        records = sorted(self.source.records, key=lambda record: record.record_id)
        token_sets = self._derive_token_sets(records)
        postings: dict[str, list[int]] = {}
        for position, tokens in enumerate(token_sets):
            for token in tokens:
                postings.setdefault(token, []).append(position)
        # Slots start out as the id-order positions.
        self._records = records
        self._ids = [record.record_id for record in records]
        self._slots = list(records)
        self._slot_tokens = token_sets
        self._id_slots = list(range(len(records)))
        self._postings = postings
        self._free = []
        self.builds += 1

    def _derive_token_sets(self, records: list[Record]) -> list[frozenset[str]]:
        """Blocking-token sets for a cold build (interned below the size cap).

        Byte-identical derivations either way; past
        ``_INTERN_CACHE_RECORD_LIMIT`` records the process-lifetime interning
        cache is bypassed so a one-shot million-record build does not pin the
        source's whole token universe in memory.
        """
        if len(records) <= _INTERN_CACHE_RECORD_LIMIT:
            return [
                interned_blocking_tokens(record, self.min_token_length) for record in records
            ]
        minimum = self.min_token_length
        return [
            frozenset(token for token in tokenize(record.as_text()) if len(token) >= minimum)
            for record in records
        ]

    def canonical_state(self) -> tuple[list[str], list[frozenset[str]], dict[str, list[int]]]:
        """The index content in build-canonical form: ``(ids, token_sets, postings)``.

        ``ids`` sorted, ``token_sets`` aligned to that order, posting lists
        holding sorted *positions* into it — exactly what a fresh
        :meth:`_build` over the same records produces, independent of the
        slot assignments accumulated by incremental maintenance.  The
        differential fuzz suite compares it against rebuild-from-scratch.
        """
        slot_positions = {slot: position for position, slot in enumerate(self._id_slots)}
        postings = {
            token: sorted(slot_positions[slot] for slot in slots)
            for token, slots in self._postings.items()
        }
        token_sets = [self._slot_tokens[slot] for slot in self._id_slots]
        return list(self._ids), token_sets, postings

    def ensure_fresh(self) -> None:
        """Bring the index up to the source's ``data_version``.

        Only the source's mutation API can change its records, and every
        mutation bumps the version and is journalled, so the version alone
        decides freshness:

        1. *unchanged version* — nothing to do: one integer comparison.
        2. *delta replay* — the mutations journalled since the index's
           version are applied record-by-record to the posting lists.
        3. *rebuild* — when the index was never built, the delta log no
           longer reaches back to its version, or a delta is inconsistent
           with the indexed state.
        """
        version = self.source.data_version
        if version == self._built_version:
            return
        built = self._built_version
        deltas = None if built is None else self.source.deltas_since(built)
        if deltas is None or not self._replay(deltas):
            self._build()
        self._built_version = version

    def _replay(self, deltas: list[SourceDelta]) -> bool:
        """Apply ``deltas`` to the slot stores; whether every delta applied.

        ``False`` when any delta is inconsistent with the indexed state.  The
        edits already made stay behind; the caller's rebuild replaces them.
        """
        try:
            for delta in deltas:
                self._apply_delta(delta)
        except _DeltaReplayError:
            return False
        self.delta_applies += len(deltas)
        return True

    def _apply_delta(self, delta: SourceDelta) -> None:
        if delta.op == "add" and delta.new is not None:
            self._insert_record(delta.new)
        elif delta.op == "remove" and delta.old is not None:
            self._delete_record(delta.old)
        elif delta.op == "update" and delta.old is not None and delta.new is not None:
            self._replace_record(delta.old, delta.new)
        else:
            raise _DeltaReplayError(f"malformed delta {delta.op!r}")

    def _post(self, token: str, slot: int) -> None:
        bisect.insort(self._postings.setdefault(token, []), slot)

    def _unpost(self, token: str, slot: int) -> None:
        slots = self._postings.get(token, [])
        index = bisect.bisect_left(slots, slot)
        if index == len(slots) or slots[index] != slot:
            raise _DeltaReplayError(f"slot {slot} not posted under {token!r}")
        if len(slots) == 1:
            del self._postings[token]
        else:
            del slots[index]

    def _insert_record(self, record: Record) -> None:
        position = bisect.bisect_left(self._ids, record.record_id)
        if position < len(self._ids) and self._ids[position] == record.record_id:
            raise _DeltaReplayError(f"duplicate id {record.record_id!r} in replay")
        tokens = interned_blocking_tokens(record, self.min_token_length)
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = record
            self._slot_tokens[slot] = tokens
        else:
            slot = len(self._slots)
            self._slots.append(record)
            self._slot_tokens.append(tokens)
        self._ids.insert(position, record.record_id)
        self._id_slots.insert(position, slot)
        self._records.insert(position, record)
        for token in tokens:
            self._post(token, slot)

    def _delete_record(self, old: Record) -> None:
        position = bisect.bisect_left(self._ids, old.record_id)
        if position == len(self._ids) or self._ids[position] != old.record_id:
            raise _DeltaReplayError(f"unknown id {old.record_id!r} in replay")
        slot = self._id_slots[position]
        for token in self._slot_tokens[slot]:
            self._unpost(token, slot)
        del self._ids[position]
        del self._id_slots[position]
        del self._records[position]
        self._slots[slot] = None
        self._slot_tokens[slot] = frozenset()
        self._free.append(slot)

    def _replace_record(self, old: Record, new: Record) -> None:
        position = bisect.bisect_left(self._ids, new.record_id)
        if position == len(self._ids) or self._ids[position] != new.record_id:
            raise _DeltaReplayError(f"unknown id {new.record_id!r} in replay")
        slot = self._id_slots[position]
        if self._slots[slot] is not old and self._slots[slot] != old:
            raise _DeltaReplayError(f"replay base mismatch for id {new.record_id!r}")
        old_tokens = self._slot_tokens[slot]
        new_tokens = interned_blocking_tokens(new, self.min_token_length)
        for token in old_tokens - new_tokens:
            self._unpost(token, slot)
        for token in new_tokens - old_tokens:
            self._post(token, slot)
        self._slots[slot] = new
        self._slot_tokens[slot] = new_tokens
        self._records[position] = new

    # ---------------------------------------------------------------- reading

    def records_by_id(self) -> Sequence[Record]:
        """All source records in ``record_id`` order (read-only view).

        This is the canonical candidate enumeration the shuffled (non-match)
        ranking path consumes, so it counts as a query; it visits no postings.
        """
        self.ensure_fresh()
        self.queries += 1
        return self._records

    def token_set(self, record_id: str) -> frozenset[str]:
        """The interned blocking-token set of an index record."""
        self.ensure_fresh()
        position = self._position(record_id)
        return self._slot_tokens[self._id_slots[position]]

    def query_tokens(self, query: Record) -> frozenset[str]:
        """The interned blocking-token set of an arbitrary (query) record."""
        return interned_blocking_tokens(query, self.min_token_length)

    def posting_items(self) -> Iterator[tuple[str, list[str]]]:
        """Yield ``(token, record_ids)`` for every indexed token (one traversal).

        Counted as one query; postings visited covers every id yielded.
        """
        self.ensure_fresh()
        self.queries += 1
        for token, slots in self._postings.items():
            self.postings_visited += len(slots)
            yield token, [self._slots[slot].record_id for slot in slots]

    def _position(self, record_id: str) -> int:
        position = bisect.bisect_left(self._ids, record_id)
        if position == len(self._ids) or self._ids[position] != record_id:
            raise KeyError(f"record id {record_id!r} not in index over {self.source.name!r}")
        return position

    # ------------------------------------------------------------------ top-k

    def top_k(
        self,
        query: Record,
        k: int | None = None,
        exclude_ids: Iterable[str] = (),
    ) -> list[Record]:
        """The exact top-``k`` records by Jaccard overlap with ``query``.

        Ordering is identical to the scan reference
        (:func:`repro.data.blocking.top_k_neighbours` with ``indexed=False``):
        descending Jaccard over blocking tokens, ties broken by ``record_id``,
        zero-overlap records filling remaining slots in id order.  ``k=None``
        ranks the whole source.

        The traversal is df-weighted: query tokens are processed rarest
        first, so low-selectivity tokens (the ones blocking would call stop
        words) are only walked when cheaper tokens could not already settle
        the top-k.  After ``i`` of ``|Q|`` tokens, a record sharing none of
        the processed tokens has Jaccard at most ``(|Q| - i) / |Q|``; once
        the k-th best *exact* score strictly beats that bound, no unseen
        record can enter the result and the remaining posting lists are
        skipped.  The same reasoning prunes *per candidate*: a record first
        seen at token ``i`` shares none of tokens ``0..i-1``, so its Jaccard
        is at most ``(|Q| - i) / (|T| + i)`` — when that bound is strictly
        below the k-th best exact score, the record is marked seen without
        ever being scored.  (Float rounding is monotone, so the computed
        bound dominates the computed exact score and the skip can never drop
        a tie-breaking candidate — results stay byte-identical to the scan.)
        """
        self.ensure_fresh()
        self.queries += 1
        excluded = set(exclude_ids)
        query_set = self.query_tokens(query)
        total = len(query_set)

        eligible = len(self._records) - sum(1 for record_id in excluded if self._has(record_id))
        wanted = eligible if k is None else min(k, eligible)
        if wanted <= 0:
            self.candidates_pruned += len(self._records)
            return []
        return self._top_k_dict(query_set, total, wanted, excluded)

    def _top_k_dict(
        self, query_set: frozenset[str], total: int, wanted: int, excluded: set[str]
    ) -> list[Record]:
        """Exact top-k over the dict posting lists."""
        postings = self._postings
        slots_store = self._slots
        slot_tokens = self._slot_tokens
        # Rarest tokens first; ties broken by token text for determinism.
        ordered = sorted(query_set, key=lambda token: (len(postings.get(token, ())), token))
        scores: dict[int, float] = {}  # slot -> exact score
        heap: list[float] = []  # min-heap of the current top-`wanted` exact scores
        threshold = -1.0  # heap[0] once the heap is full, else no pruning
        for processed, token in enumerate(ordered):
            remaining = total - processed
            if threshold * total > remaining:
                # The k-th best exact score strictly beats the best score any
                # record outside `scores` can still reach: stop traversing.
                break
            slot_list = postings.get(token, ())
            self.postings_visited += len(slot_list)
            for slot in slot_list:
                if slot in scores:
                    continue
                if excluded and slots_store[slot].record_id in excluded:
                    scores[slot] = -1.0  # seen, but never ranked
                    continue
                token_set = slot_tokens[slot]
                size = len(token_set)
                if remaining / (size + processed) < threshold:
                    # Even full overlap with every unprocessed query token
                    # leaves this record strictly below the k-th best score.
                    scores[slot] = -1.0
                    continue
                # Inline token_jaccard (both sets are provably non-empty here:
                # the token came from query_set, the slot from its postings).
                overlap = len(query_set & token_set)
                score = overlap / (total + size - overlap)
                scores[slot] = score
                if len(heap) < wanted:
                    heapq.heappush(heap, score)
                    if len(heap) == wanted:
                        threshold = heap[0]
                elif score > threshold:
                    heapq.heapreplace(heap, score)
                    threshold = heap[0]

        ranked = heapq.nsmallest(
            wanted,
            (
                (-score, slots_store[slot].record_id, slot)
                for slot, score in scores.items()
                if score >= 0.0
            ),
        )
        result = [slots_store[slot] for _, __, slot in ranked]

        # Zero-overlap fill: the scan reference ranks every candidate, so
        # records sharing no token still appear (score 0.0) in id order.
        if len(result) < wanted:
            for position, record_id in enumerate(self._ids):
                slot = self._id_slots[position]
                if slot in scores or record_id in excluded:
                    continue
                result.append(self._records[position])
                scores[slot] = 0.0
                if len(result) >= wanted:
                    break
        self.candidates_pruned += len(self._records) - len(scores)
        return result

    def _has(self, record_id: str) -> bool:
        try:
            self._position(record_id)
        except KeyError:
            return False
        return True


def get_source_index(source: DataSource, min_token_length: int) -> SourceTokenIndex:
    """The shared :class:`SourceTokenIndex` of ``source`` for ``min_token_length``.

    One index per (source instance, min length) is cached on the source object
    itself, so every caller in a sweep — triangle search, blocking, candidate
    generation — shares builds and stats.  Staleness is handled inside the
    index (delta replay, rebuild fallback); the stash itself is excluded
    from pickling and deepcopy by ``DataSource.__getstate__``, so clones and
    sweep-runner worker processes start index-less instead of resurrecting a
    heavy (and potentially stale) copy.
    """
    indexes: dict[int, SourceTokenIndex] | None = getattr(source, "_token_indexes", None)
    if indexes is None:
        indexes = {}
        source._token_indexes = indexes  # type: ignore[attr-defined]
    index = indexes.get(min_token_length)
    if index is None:
        index = SourceTokenIndex(source, min_token_length)
        indexes[min_token_length] = index
    return index
