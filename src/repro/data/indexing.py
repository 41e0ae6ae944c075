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
stays behind it as the golden oracle and the fallback when the walk fails.

Indexes are built on first use, cached on the :class:`~repro.data.table.DataSource`
instance per ``min_token_length`` (:func:`get_source_index`), and maintained
**incrementally**: each build records the source's ``data_version`` and
:meth:`~repro.data.table.DataSource.content_hash`, and on the next query
after a mutation the index consumes the source's bounded delta log
(:meth:`~repro.data.table.DataSource.deltas_since`) and applies the
record-level add/update/remove deltas directly to its posting lists — a
single-record mutation costs work proportional to that record's tokens, not
to the source.  A full rebuild happens only when the log was truncated past
the index's version, when replay detects any inconsistency, or when the
content hash disagrees after replay (e.g. records were *also* replaced in
place, bypassing the mutation API, the counter and the log).
(``data_version`` remains a cheap fast-path hint; the hash is the authority.)
Builds consult the source's :class:`~repro.data.artifacts.ArtifactStore`
(explicitly attached or the process-wide ``REPRO_ARTIFACT_DIR`` store): a
persisted index whose content hash matches is **warm-loaded** instead of
rebuilt and counted under ``loads``, never ``builds``, so benchmark rows
distinguish genuine rebuilds from warm starts.  :class:`IndexStats` counts
builds, loads, queries, postings visited and candidates pruned; the counters
surface through ``TriangleSearchResult.index_stats``,
``CertaExplanation.index_stats`` and the eval-harness rows.

Every artifact is derived by the same public functions the scan path calls
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

from repro import faults
from repro.counters import Counters
from repro.data.artifacts import ArtifactStore, default_store
from repro.data.blocking import DEFAULT_BLOCKING_TOKEN_LENGTH
from repro.data.records import Record, RecordPair
from repro.data.table import DataSource, SourceDelta, combine_content_hash
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
        Full index (re)builds, including content-triggered rebuilds.  Warm
        starts served from a persisted artifact are *not* builds — they are
        counted under ``loads``, so rows reporting both never misreport a
        warm start as a rebuild.
    ``loads``
        Index installs served from an :class:`~repro.data.artifacts.
        ArtifactStore` instead of being rebuilt.
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
    ``degraded_queries``
        Top-k queries whose dict walk failed and fell back to the reference
        scan.  Results stay byte-identical; 0 on every fault-free run.
    """

    builds: int = 0
    loads: int = 0
    delta_applies: int = 0
    queries: int = 0
    postings_visited: int = 0
    candidates_pruned: int = 0
    compile_ms: float = 0.0
    degraded_queries: int = 0

    key_prefix = "index_"


class _DeltaReplayError(Exception):
    """Raised when a delta cannot be applied consistently (forces a rebuild)."""


class _PendingPostings:
    """Per-replay batch buffer for posting-list edits (sort once per token).

    ``bisect.insort`` per (token, slot) made a large replay quadratic in the
    hot posting lists: every insertion paid an O(df) list shift.  The buffer
    instead records adds/removes per token while the replay runs — validating
    each against base-list ∪ pending state exactly as the eager code did —
    and :meth:`commit` rewrites each *touched* list once: filter the removes,
    extend with the adds, one ``sort``.  An aborted replay (any
    ``_DeltaReplayError``) simply drops the buffer, leaving the posting dict
    untouched for the rebuild that follows.
    """

    def __init__(self, postings: dict[str, list[int]]) -> None:
        self._postings = postings
        self._adds: dict[str, set[int]] = {}
        self._removes: dict[str, set[int]] = {}

    def add(self, token: str, slot: int) -> None:
        removes = self._removes.get(token)
        if removes is not None and slot in removes:
            removes.discard(slot)
            return
        self._adds.setdefault(token, set()).add(slot)

    def remove(self, token: str, slot: int) -> None:
        adds = self._adds.get(token)
        if adds is not None and slot in adds:
            adds.discard(slot)
            return
        base = self._postings.get(token)
        removes = self._removes.setdefault(token, set())
        if slot in removes or base is None:
            raise _DeltaReplayError(f"slot {slot} not posted under {token!r}")
        index = bisect.bisect_left(base, slot)
        if index == len(base) or base[index] != slot:
            raise _DeltaReplayError(f"slot {slot} not posted under {token!r}")
        removes.add(slot)

    def commit(self) -> None:
        """Apply the buffered edits."""
        for token, removes in self._removes.items():
            if not removes:
                continue
            kept = [slot for slot in self._postings[token] if slot not in removes]
            if kept:
                self._postings[token] = kept
            else:
                del self._postings[token]
        for token, adds in self._adds.items():
            if not adds:
                continue
            slots = self._postings.setdefault(token, [])
            slots.extend(adds)
            slots.sort()


class SourceTokenIndex:
    """Inverted blocking-token index over one :class:`DataSource`.

    Records are addressed by **slot**: a stable small integer assigned when a
    record enters the index and never reused while it lives, so posting lists
    survive insertions and removals untouched except where the mutated
    record's own tokens point.  Three parallel id-sorted arrays (``_ids`` /
    ``_id_slots`` / ``_records``) keep the canonical ``record_id`` order —
    the order every scan ranking uses for tie-breaks and zero-overlap fill —
    available as before.  Removed records leave tombstone slots behind;
    once tombstones outnumber live records the next maintenance pass compacts
    by rebuilding (cheap: token sets are content-interned).

    Mutations reach the index through the source's delta log (see
    :meth:`ensure_fresh`); replay is verified by predicting the post-replay
    content hash (:func:`repro.data.table.combine_content_hash`) and
    comparing it against the live source's hash, so a divergence between log
    and records can never serve stale candidates.

    Thread-safety matches the library's other caches: concurrent readers may
    duplicate a deterministic rebuild but never corrupt state.
    """

    def __init__(self, source: DataSource, min_token_length: int) -> None:
        self.source = source
        self.min_token_length = min_token_length
        self.builds = 0
        self.loads = 0
        self.delta_applies = 0
        self.queries = 0
        self.postings_visited = 0
        self.candidates_pruned = 0
        self.degraded_queries = 0
        self._built_hash: str | None = None
        self._built_version: int | None = None
        #: The source's validated snapshot list adopted at the last freshness
        #: check (see :meth:`~repro.data.table.DataSource.content_state`).
        #: The source re-snapshots whenever its own identity sweep fails, so
        #: a single ``is`` comparison of the list object — not a sweep — is a
        #: sound freshness fast path.  Read-only by contract.
        self._snapshot: list[Record] | None = None
        # Slot-addressed stores (tombstoned on removal):
        self._slots: list[Record | None] = []
        self._slot_tokens: list[frozenset[str]] = []
        self._postings: dict[str, list[int]] = {}
        self._tombstones = 0
        # Canonical id-order views (parallel arrays, maintained by bisect):
        self._records: list[Record] = []
        self._ids: list[str] = []
        self._id_slots: list[int] = []

    @property
    def stats(self) -> IndexStats:
        """Immutable snapshot of the counters."""
        return IndexStats.of(self)

    # ------------------------------------------------------------------ build

    def _artifact_store(self) -> ArtifactStore | None:
        """The persistence backend: the source's own store, else the env store."""
        store = getattr(self.source, "artifact_store", None)
        return store if store is not None else default_store()

    def _build(self, content_hash: str) -> None:
        """(Re)derive the index for the source's current content.

        With an artifact store attached, a persisted index for this exact
        content hash is warm-loaded (counted under ``loads``): token sets and
        posting lists are read from the stored rows instead of re-tokenising
        the source.  Otherwise the token sets are derived from scratch
        (``builds``) and the result is saved back so the *next* process
        starts warm.
        """
        records = sorted(self.source.records, key=lambda record: record.record_id)
        ids = [record.record_id for record in records]
        store = self._artifact_store()
        if store is not None:
            payload = store.load_source_index(content_hash, self.min_token_length, ids)
            loaded = None if payload is None else self._decode_payload(records, payload)
            if loaded is not None:
                self._install(records, ids, *loaded)
                self._built_hash = content_hash
                self.loads += 1
                return
        token_sets = self._derive_token_sets(records)
        postings: dict[str, list[int]] = {}
        for position, tokens in enumerate(token_sets):
            for token in tokens:
                postings.setdefault(token, []).append(position)
        self._install(records, ids, token_sets, postings)
        self._built_hash = content_hash
        self.builds += 1
        if store is not None:
            store.save_source_index(
                self.source.name, content_hash, self.min_token_length,
                ids, token_sets, postings,
            )

    def _install(
        self,
        records: list[Record],
        ids: list[str],
        token_sets: list[frozenset[str]],
        postings: dict[str, list[int]],
    ) -> None:
        """Adopt a built or loaded state; slots coincide with id-order positions."""
        self._records = records
        self._ids = ids
        self._slots = list(records)
        self._slot_tokens = token_sets
        self._id_slots = list(range(len(records)))
        self._postings = postings
        self._tombstones = 0

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

    def _decode_payload(
        self, records: list[Record], payload: dict
    ) -> tuple[list[frozenset[str]], dict[str, list[int]]] | None:
        """Token sets and posting lists from a persisted npz payload, or ``None``.

        A small sample of records is re-derived through the live tokeniser
        and compared against the stored arena rows: a mismatch (e.g. a
        tokeniser change that forgot to bump the artifact schema version)
        rejects the whole payload, so the caller rebuilds instead of
        silently reusing stale derivations.  Otherwise each arena row (a
        record's sorted token ids) becomes that record's token set and each
        CSR row (a token's sorted record positions) its posting list.
        """
        token_table: list[str] = payload["tokens"]
        arena_offsets = payload["arena_offsets"].tolist()
        arena_tokens = payload["arena_tokens"].tolist()
        lookup = token_table.__getitem__
        token_sets = [
            frozenset(map(lookup, arena_tokens[start:end]))
            for start, end in zip(arena_offsets, arena_offsets[1:])
        ]
        minimum = self.min_token_length
        for position in sorted({0, len(records) // 2, len(records) - 1} if records else ()):
            expected = frozenset(
                token for token in tokenize(records[position].as_text()) if len(token) >= minimum
            )
            if token_sets[position] != expected:
                return None
        token_offsets = payload["token_offsets"].tolist()
        flat_postings = payload["postings"].tolist()
        postings = {
            token: flat_postings[token_offsets[row] : token_offsets[row + 1]]
            for row, token in enumerate(token_table)
        }
        return token_sets, postings

    def canonical_state(self) -> tuple[list[str], list[frozenset[str]], dict[str, list[int]]]:
        """The index content in build-canonical form: ``(ids, token_sets, postings)``.

        ``ids`` sorted, ``token_sets`` aligned to that order, posting lists
        holding sorted *positions* into it — exactly what a fresh
        :meth:`_build` over the same records produces, independent of the
        slot assignments accumulated by incremental maintenance.  This is
        what persists to the artifact store (so a replayed index saves the
        same artifact a rebuilt one would) and what the differential fuzz
        suite compares against rebuild-from-scratch.
        """
        slot_positions = {slot: position for position, slot in enumerate(self._id_slots)}
        postings = {
            token: sorted(slot_positions[slot] for slot in slots)
            for token, slots in self._postings.items()
        }
        token_sets = [self._slot_tokens[slot] for slot in self._id_slots]
        return list(self._ids), token_sets, postings

    def save(self, store: ArtifactStore | None = None) -> None:
        """Persist the current index state (building or replaying first if needed).

        Builds that happen with a store attached persist automatically; this
        explicit hook covers an index built *before* the store existed — the
        dataset-generation path, which :func:`repro.data.io.save_dataset`
        persists alongside the data — and an index maintained incrementally
        since its last build (replayed deltas change ``content_hash``, so
        the post-mutation state lands under a fresh key; artifacts for
        superseded hashes simply never load again).  Re-saving an artifact
        that is already on disk for this content is skipped.
        """
        store = store if store is not None else self._artifact_store()
        if store is None:
            return
        self.ensure_fresh()
        content_hash = self._built_hash
        if content_hash is None or store.index_path(content_hash, self.min_token_length).exists():
            return
        ids, token_sets, postings = self.canonical_state()
        store.save_source_index(
            self.source.name, content_hash, self.min_token_length,
            ids, token_sets, postings,
        )

    def ensure_fresh(self) -> None:
        """Apply pending deltas (or rebuild) when the source moved since last time.

        Freshness is judged by **content**, never by ``data_version`` alone:
        replacing records in place never bumps the counter, but it does
        change the records list, which closes the stale-index window the
        counter left open.  The live hash and the validated snapshot come
        from one :meth:`~repro.data.table.DataSource.content_state` call, so
        a freshness decision costs **at most one** identity sweep (the one
        inside the source's hash cache) — and zero for a sealed source,
        whose hash is pinned.  Maintenance layers, cheapest first:

        1. *identity fast path* — if the source serves the exact snapshot
           object the index adopted at the last validation, nothing can have
           changed (the source re-snapshots whenever its own sweep fails).
           One pointer comparison, not a sweep of its own.
        2. *content-equal revalidation* — an unchanged live hash means the
           derivations stay valid whatever moved (a reorder, or an in-place
           swap writing equal values); the index just re-points at the live
           record objects, which may differ in identity or source tag.
        3. *delta replay* — mutations journalled by the source since the
           index's version are applied record-by-record to the posting
           lists.  The replayed state's content hash is predicted additively
           (:func:`~repro.data.table.combine_content_hash`) and compared to
           the live source's hash: any disagreement — a truncated log, an
           in-place mutation alongside API mutations, a log/record skew of
           any origin — falls back to a full rebuild, so incremental
           maintenance can be *wrong* only in cost, never in content.
        4. *rebuild* — with no replayable deltas and changed content, the
           index rebuilds or warm-loads from the artifact store.
        """
        live_hash, snapshot = self._source_content_state()
        if snapshot is self._snapshot and live_hash == self._built_hash:
            return
        if self._built_hash is None or self._built_version is None:
            self._build(live_hash)
        elif live_hash == self._built_hash:
            self._refresh_live_records(self.source.records)
        else:
            deltas = self._pending_deltas()
            if deltas:
                replayed_hash = self._replay(deltas)
                if replayed_hash != live_hash or self._tombstones > max(
                    64, len(self._ids)
                ):
                    # Divergence (stale-serving risk) or tombstone bloat
                    # (cost risk): both compact into one clean rebuild.
                    self._build(live_hash)
                else:
                    self._built_hash = live_hash
            else:
                self._build(live_hash)
        self._snapshot = snapshot
        self._built_version = getattr(self.source, "data_version", None)

    def _source_content_state(self) -> tuple[str, list[Record]]:
        """The source's ``(content hash, validated snapshot)`` in one call.

        Duck-typed fallback for minimal source stand-ins that expose only
        ``content_hash``; the real :class:`~repro.data.table.DataSource`
        answers both from the same identity sweep.
        """
        content_state = getattr(self.source, "content_state", None)
        if content_state is not None:
            return content_state()
        return self.source.content_hash(), list(self.source.records)

    def _pending_deltas(self) -> list[SourceDelta] | None:
        """Replayable mutations since the index's version (``None`` = rebuild)."""
        deltas_since = getattr(self.source, "deltas_since", None)
        if deltas_since is None:
            return None
        return deltas_since(self._built_version)

    def _replay(self, deltas: list[SourceDelta]) -> str | None:
        """Apply ``deltas`` to the slot stores; the predicted post-replay hash.

        Returns ``None`` when any delta is inconsistent with the indexed
        state (the caller rebuilds, which also repairs any partial
        application).  On success the predicted hash is computed additively
        from the built hash and the deltas' record digests — O(deltas), not
        O(records).
        """
        pending = _PendingPostings(self._postings)
        try:
            for delta in deltas:
                self._apply_delta(delta, pending)
        except _DeltaReplayError:
            # Posting-list edits were only buffered, so the dict lists are
            # untouched; the slot/id-array edits already applied are repaired
            # by the rebuild the caller now performs.
            return None
        pending.commit()
        self.delta_applies += len(deltas)
        return combine_content_hash(
            self._built_hash,
            removed=[delta.old for delta in deltas if delta.old is not None],
            added=[delta.new for delta in deltas if delta.new is not None],
        )

    def _apply_delta(self, delta: SourceDelta, pending: _PendingPostings) -> None:
        if delta.op == "add" and delta.new is not None:
            self._insert_record(delta.new, pending)
        elif delta.op == "remove" and delta.old is not None:
            self._delete_record(delta.old, pending)
        elif delta.op == "update" and delta.old is not None and delta.new is not None:
            self._replace_record(delta.old, delta.new, pending)
        else:
            raise _DeltaReplayError(f"malformed delta {delta.op!r}")

    def _insert_record(self, record: Record, pending: _PendingPostings) -> None:
        position = bisect.bisect_left(self._ids, record.record_id)
        if position < len(self._ids) and self._ids[position] == record.record_id:
            raise _DeltaReplayError(f"duplicate id {record.record_id!r} in replay")
        slot = len(self._slots)
        tokens = interned_blocking_tokens(record, self.min_token_length)
        self._slots.append(record)
        self._slot_tokens.append(tokens)
        self._ids.insert(position, record.record_id)
        self._id_slots.insert(position, slot)
        self._records.insert(position, record)
        for token in tokens:
            pending.add(token, slot)

    def _delete_record(self, old: Record, pending: _PendingPostings) -> None:
        position = bisect.bisect_left(self._ids, old.record_id)
        if position == len(self._ids) or self._ids[position] != old.record_id:
            raise _DeltaReplayError(f"unknown id {old.record_id!r} in replay")
        slot = self._id_slots[position]
        for token in self._slot_tokens[slot]:
            pending.remove(token, slot)
        del self._ids[position]
        del self._id_slots[position]
        del self._records[position]
        self._slots[slot] = None
        self._slot_tokens[slot] = frozenset()
        self._tombstones += 1

    def _replace_record(self, old: Record, new: Record, pending: _PendingPostings) -> None:
        position = bisect.bisect_left(self._ids, new.record_id)
        if position == len(self._ids) or self._ids[position] != new.record_id:
            raise _DeltaReplayError(f"unknown id {new.record_id!r} in replay")
        slot = self._id_slots[position]
        if self._slots[slot] is not old and self._slots[slot] != old:
            raise _DeltaReplayError(f"replay base mismatch for id {new.record_id!r}")
        old_tokens = self._slot_tokens[slot]
        new_tokens = interned_blocking_tokens(new, self.min_token_length)
        for token in old_tokens - new_tokens:
            pending.remove(token, slot)
        for token in new_tokens - old_tokens:
            pending.add(token, slot)
        self._slots[slot] = new
        self._slot_tokens[slot] = new_tokens
        self._records[position] = new

    def _refresh_live_records(self, records_list: list[Record]) -> None:
        """Serve live record objects after a content-equal identity change."""
        live_sorted = sorted(records_list, key=lambda record: record.record_id)
        self._records = live_sorted
        for position, record in enumerate(live_sorted):
            self._slots[self._id_slots[position]] = record

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

        Should the walk fail (a fault injected at ``index.dict``, or a real
        one), the query is answered by :meth:`_top_k_scan` instead and counted
        in ``degraded_queries``; the result is the same either way.
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

        try:
            return self._top_k_dict(query_set, total, wanted, excluded)
        except Exception:  # repro-lint: disable=EXC002 -- recovery contract: the reference scan needs only records + tokeniser and ranks identically to the dict walk, counted in degraded_queries
            self.degraded_queries += 1
        return self._top_k_scan(query_set, total, wanted, excluded)

    def _top_k_dict(
        self, query_set: frozenset[str], total: int, wanted: int, excluded: set[str]
    ) -> list[Record]:
        """Exact top-k over the dict posting lists (the fast path)."""
        faults.fault_step("index.dict")
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

    def _top_k_scan(
        self, query_set: frozenset[str], total: int, wanted: int, excluded: set[str]
    ) -> list[Record]:
        """Reference scan over the id-ordered records (the fallback of :meth:`top_k`).

        Needs only the parallel id-order arrays and the token interner — no
        posting lists — so it stays answerable after the dict walk faulted.
        Scores every non-excluded record with the
        same Jaccard as :func:`repro.data.blocking.overlap_score` and orders
        by ``(-score, record_id)``, byte-identical to
        :func:`repro.data.blocking.top_k_neighbours` with ``indexed=False``.
        """
        scored: list[tuple[float, str, Record]] = []
        for position, record in enumerate(self._records):
            record_id = self._ids[position]
            if record_id in excluded:
                continue
            tokens = interned_blocking_tokens(record, self.min_token_length)
            if not query_set or not tokens:
                score = 0.0
            else:
                overlap = len(query_set & tokens)
                score = overlap / (total + len(tokens) - overlap)
            scored.append((score, record_id, record))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [record for _, __, record in scored[:wanted]]

    def _has(self, record_id: str) -> bool:
        try:
            self._position(record_id)
        except KeyError:
            return False
        return True

    # ---------------------------------------------------------- change tracking

    def ids_sharing_tokens(self, tokens: Iterable[str]) -> set[str]:
        """Ids of indexed records containing any of ``tokens`` (one postings pass).

        The primitive behind :func:`changed_pairs`: records sharing a
        blocking token with a mutated record are exactly the ones whose
        positive-overlap ranking against that record's source could have
        moved.  Counted as one query; postings visited covers every posting
        read.
        """
        self.ensure_fresh()
        self.queries += 1
        found: set[str] = set()
        for token in tokens:
            slots = self._postings.get(token, ())
            self.postings_visited += len(slots)
            for slot in slots:
                found.add(self._slots[slot].record_id)
        return found


def changed_pairs(
    pairs: Iterable[RecordPair | tuple[str, str]],
    left: DataSource,
    right: DataSource,
    left_since: int,
    right_since: int,
    min_token_length: int = DEFAULT_BLOCKING_TOKEN_LENGTH,
) -> set[tuple[str, str]] | None:
    """The subset of ``pairs`` whose support neighbourhoods were touched.

    For a monitoring workload holding explanations of ``pairs`` (record-id
    tuples or :class:`~repro.data.records.RecordPair` objects) computed when
    the sources stood at ``data_version`` ``left_since`` / ``right_since``:
    a pair is returned when either member was itself added/updated/removed,
    or when a member shares at least one blocking token with the old or new
    content of any mutated record (of either source) — the condition for the
    member's *positive-overlap* support ranking against the mutated source
    to change.  Pairs not returned kept every support candidate that shares
    content with them, in the same order, so re-explaining only the returned
    pairs reproduces a full re-explanation wherever token overlap drives
    support selection (zero-overlap fill-tail reshuffles below the last
    scored candidate are deliberately out of scope).

    Touched members are resolved through each source's shared
    :class:`SourceTokenIndex` postings — one lookup per mutated token, never
    a scan.  Returns ``None`` when either source's bounded delta log no
    longer reaches back to the given version: the caller must re-explain
    everything (exactly as it would after a full rebuild).
    """
    left_deltas = left.deltas_since(left_since)
    right_deltas = right.deltas_since(right_since)
    if left_deltas is None or right_deltas is None:
        return None
    pair_ids = [
        pair.pair_id if isinstance(pair, RecordPair) else (str(pair[0]), str(pair[1]))
        for pair in pairs
    ]
    if not (left_deltas or right_deltas):
        return set()
    mutated_left: set[str] = set()
    mutated_right: set[str] = set()
    tokens: set[str] = set()
    for deltas, mutated in ((left_deltas, mutated_left), (right_deltas, mutated_right)):
        for delta in deltas:
            for record in (delta.old, delta.new):
                if record is not None:
                    mutated.add(record.record_id)
                    tokens |= interned_blocking_tokens(record, min_token_length)
    touched_left = get_source_index(left, min_token_length).ids_sharing_tokens(tokens)
    touched_left |= mutated_left
    touched_right = get_source_index(right, min_token_length).ids_sharing_tokens(tokens)
    touched_right |= mutated_right
    return {
        (left_id, right_id)
        for left_id, right_id in pair_ids
        if left_id in touched_left or right_id in touched_right
    }


def get_source_index(source: DataSource, min_token_length: int) -> SourceTokenIndex:
    """The shared :class:`SourceTokenIndex` of ``source`` for ``min_token_length``.

    One index per (source instance, min length) is cached on the source object
    itself, so every caller in a sweep — triangle search, blocking, candidate
    generation — shares builds and stats.  Staleness is handled inside the
    index (delta replay, content-hash fallback); the stash itself is excluded
    from pickling and deepcopy by ``DataSource.__getstate__``, so clones and
    sweep-runner worker processes start index-less instead of resurrecting a
    heavy (and potentially stale) snapshot.
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
