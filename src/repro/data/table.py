"""Data sources: ordered collections of records sharing one schema.

A :class:`DataSource` corresponds to one of the two tables (``U`` or ``V``)
that an ER task compares.  CERTA's open-triangle search iterates over a data
source to find support records, so the class offers fast lookup by id and
simple sampling utilities in addition to plain iteration.

Mutations (:meth:`DataSource.add` / :meth:`~DataSource.update` /
:meth:`~DataSource.remove`) are journalled into a bounded **delta log** of
:class:`SourceDelta` entries.  Derived structures — the inverted token index
of :mod:`repro.data.indexing`, the featurisation caches of
:mod:`repro.models.featurizer` — consume the log through
:meth:`~DataSource.deltas_since` to maintain themselves incrementally instead
of rebuilding from scratch on every mutation; when the log has been truncated
past the version a consumer saw last, :meth:`~DataSource.deltas_since`
returns ``None`` and the consumer falls back to a full rebuild.  The content
hash stays the correctness authority throughout: it is additive over
per-record digests, so the mutation API maintains it in O(1), while an
identity check against a snapshot of ``records`` guarantees that in-place
mutations (which bypass the API, the counter *and* the log) still force a
full recompute.
"""

from __future__ import annotations

import hashlib
import operator
import random
from collections import Counter, deque
from itertools import islice, repeat
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.data.records import Record, Schema
from repro.exceptions import DatasetError, SchemaError, SealedSourceError

if TYPE_CHECKING:  # pragma: no cover - annotation only (artifacts never imports us)
    from repro.data.artifacts import ArtifactStore

#: Version of the content-hash formula.  Recorded by
#: :func:`repro.data.io.save_dataset` so a dataset saved under an older
#: formula is reloaded without integrity verification instead of being
#: misreported as tampered with.  Bump together with
#: :data:`repro.data.artifacts.ARTIFACT_SCHEMA_VERSION` whenever the formula
#: changes.
CONTENT_HASH_VERSION = 2

#: Default bound on the per-source delta log.  Large enough that every
#: freshness check between two consecutive queries of a streaming workload
#: sees its deltas; small enough that a source mutated thousands of times
#: between queries falls back to one clean rebuild instead of replaying a
#: mutation history that costs more than the rebuild.
DEFAULT_DELTA_LOG_LIMIT = 256

#: The additive content hash lives in Z / 2^256.
_HASH_MODULUS = 1 << 256

#: Salt folded in once per record so sources differing only in record *count*
#: (e.g. one empty record vs none) can never collide through the plain sum.
_COUNT_SALT = int(hashlib.sha256(b"repro-datasource-record-count").hexdigest(), 16)


def _schema_hash_int(schema: Schema) -> int:
    digest = hashlib.sha256("|".join(schema.attributes).encode("utf-8"))
    return int(digest.hexdigest(), 16)


def _record_hash_int(record: Record) -> int:
    return (int(record.content_digest(), 16) + _COUNT_SALT) % _HASH_MODULUS


def combine_content_hash(
    hash_hex: str, removed: Iterable[Record], added: Iterable[Record]
) -> str:
    """Apply record-level deltas to an additive content hash in O(deltas).

    The content hash is a sum of per-record digests (mod 2^256), so removing
    and adding records translates to subtracting and adding their digest
    terms — no pass over the unchanged records.  Used by
    :class:`~repro.data.indexing.SourceTokenIndex` to predict the
    post-replay hash of its own record set and compare it against the live
    source's hash; a disagreement means the delta log and the records have
    diverged and the index must rebuild.
    """
    total = int(hash_hex, 16)
    for record in removed:
        total -= _record_hash_int(record)
    for record in added:
        total += _record_hash_int(record)
    return format(total % _HASH_MODULUS, "064x")


def _record_strings(record: Record) -> tuple[str, ...]:
    """The value strings a record pins in content-addressed caches.

    Covers every non-missing attribute value plus the record's full text
    (the key of record-level embedding interning).  Pair-level derivations
    (serialised pair texts, perturbed variants) are workload-transient and
    not tracked — the featurizer's generation bound covers those.
    """
    values = [value for value in record.values.values() if value]
    values.append(record.as_text())
    return tuple(values)


@dataclass(frozen=True)
class SourceDelta:
    """One journalled mutation of a :class:`DataSource`.

    ``version`` is the ``data_version`` *after* the mutation, so replaying
    every delta with ``version > v`` on top of a structure built at version
    ``v`` reproduces the current state.  ``old`` / ``new`` are ``None`` for
    ``add`` / ``remove`` respectively.  ``retired_values`` lists the value
    strings of ``old`` that no longer occur in *any* record of the source
    after the mutation — the exact entries a content-addressed cache may
    drop without losing anything still reachable.
    """

    version: int
    op: str  # "add" | "update" | "remove"
    old: Record | None
    new: Record | None
    retired_values: tuple[str, ...] = ()


@dataclass
class DataSource:
    """A named table of records with a fixed schema."""

    name: str
    schema: Schema
    records: list[Record] = field(default_factory=list)
    delta_log_limit: int = DEFAULT_DELTA_LOG_LIMIT

    def __post_init__(self) -> None:
        self._by_id: dict[str, Record] = {}
        self._data_version = 0
        #: Optional persistence backend for derived structures (the inverted
        #: token index of :mod:`repro.data.indexing` warm-loads through it).
        #: ``None`` falls back to :func:`repro.data.artifacts.default_store`.
        self.artifact_store: "ArtifactStore | None" = None
        #: Journalled mutations, oldest first (bounded by ``delta_log_limit``).
        self._delta_log: deque[SourceDelta] = deque()
        #: value string -> number of records referencing it (see
        #: :func:`_record_strings`); drives ``retired_values`` accounting.
        #: Built lazily on the first mutation (:meth:`_ensure_value_refs`):
        #: a read-only source — a million-record table streamed in through
        #: :meth:`from_iterable` and only ever queried — never pays the
        #: refcount pass or holds the value-string map resident.
        self._value_refs: Counter[str] | None = None
        #: ``(data_version, records snapshot, hash int)`` — the cached content
        #: hash, validated by version *and* record identity before reuse.
        self._hash_state: tuple[int, list[Record], int] | None = None
        #: True once :meth:`seal` froze the source read-only.  A sealed
        #: source's content hash is established once and served without the
        #: per-call identity sweep, which is what makes freshness checks on
        #: derived structures O(1) instead of O(records).
        self._sealed = False
        #: record id -> position in ``records``.  A hint, not an authority:
        #: every read goes through :meth:`_position_of`, which verifies the
        #: stored position by identity and rescans when ``records`` was
        #: edited directly.  Keeps :meth:`update` / :meth:`remove` from
        #: paying an equality scan over the whole list per mutation.
        self._positions: dict[str, int] = {}
        for position, record in enumerate(self.records):
            self._validate(record)
            self._by_id[record.record_id] = record
            self._positions[record.record_id] = position
        if len(self._by_id) != len(self.records):
            raise DatasetError(f"duplicate record ids in data source {self.name!r}")

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on every mutation through :meth:`add`,
        :meth:`update` or :meth:`remove`.

        Derived structures (e.g. the inverted token index of
        :mod:`repro.data.indexing`) use this as a cheap staleness hint, but
        validate by :meth:`content_hash`, so even mutating ``records``
        directly — which bypasses the counter — cannot make them serve stale
        results.  Library code still goes through the mutation API.
        """
        return self._data_version

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has frozen this source read-only."""
        return self._sealed

    def seal(self) -> "DataSource":
        """Freeze the source read-only and pin its content hash.

        Establishes the content hash once (the usual full pass) and then
        serves it — and :meth:`content_state` — in O(1): no per-call identity
        sweep, no ``list(records)`` re-snapshot.  The trade is that every
        subsequent mutation through :meth:`add` / :meth:`update` /
        :meth:`remove` raises :class:`~repro.exceptions.SealedSourceError`.
        Mutating ``records`` in place *behind* the seal breaks the read-only
        contract exactly like it breaks record immutability — the sweep that
        would catch it is the cost sealing removes.

        Idempotent; returns ``self`` so call sites can chain
        (``source.seal()`` at service start-up).
        """
        if not self._sealed:
            # Flag first so the establishing pass stores the live list
            # reference instead of a defensive copy — the seal guarantees
            # no API mutation will ever edit that list again.
            self._sealed = True
            self.content_hash()
        return self

    def _assert_mutable(self) -> None:
        if self._sealed:
            raise SealedSourceError(
                f"data source {self.name!r} is sealed read-only; "
                f"mutations are not allowed after seal()"
            )

    def content_hash(self) -> str:
        """Order-insensitive digest of the source's full content.

        Covers the schema and every record's :meth:`~repro.data.records.
        Record.content_digest` combined *additively* (a salted sum mod
        2^256), so two sources holding the same records (in any insertion
        order) hash identically and a record-level mutation moves the hash by
        a term computable in O(1) — which is how the mutation API keeps the
        cached hash current without touching the unchanged records.

        The cache is served only when the live ``records`` list holds the
        exact same objects as the snapshot taken when the hash was last
        established (one C-speed identity sweep): replacing a record *in
        place* (bypassing :meth:`update`) fails that sweep and forces a full
        recompute, which is what lets the token index and the artifact store
        of :mod:`repro.data.artifacts` validate by content instead of
        trusting the counter.  Per-record digests are cached on the immutable
        records, so even a full recompute costs one pass over cached hex
        strings.
        """
        state = self._hash_state
        if state is not None and state[0] == self._data_version:
            if self._sealed:
                # Sealed: the mutation API is closed, so version equality
                # alone proves the cached hash current — no identity sweep.
                return format(state[2], "064x")
            if len(state[1]) == len(self.records) and all(
                map(operator.is_, self.records, state[1])
            ):
                return format(state[2], "064x")
        total = _schema_hash_int(self.schema)
        for record in self.records:
            total += _record_hash_int(record)
        total %= _HASH_MODULUS
        # A sealed source keeps the live list itself as the snapshot (it can
        # no longer diverge); an unsealed one pays the defensive copy.
        snapshot = self.records if self._sealed else list(self.records)
        self._hash_state = (self._data_version, snapshot, total)
        return format(total, "064x")

    def content_state(self) -> tuple[str, list[Record]]:
        """Content hash *plus* the identity-validated snapshot behind it.

        The single freshness primitive for derived-structure consumers
        (:meth:`repro.data.indexing.SourceTokenIndex.ensure_fresh`): one call
        costs at most one identity sweep (zero for sealed sources), and the
        returned snapshot is the exact list object the hash was validated
        against.  A consumer stores that object and compares it by ``is`` on
        the next check — while the source serves the same snapshot object,
        nothing can have changed, so the consumer never re-sweeps what the
        hash cache already swept.  The snapshot must be treated as read-only.
        """
        hash_hex = self.content_hash()
        state = self._hash_state
        assert state is not None  # content_hash() always leaves a valid state
        return hash_hex, state[1]

    def _validate(self, record: Record) -> None:
        if tuple(record.attribute_names()) != self.schema.attributes:
            raise SchemaError(
                f"record {record.record_id!r} attributes {record.attribute_names()} "
                f"do not match schema {self.schema.attributes}"
            )

    def add(self, record: Record) -> None:
        """Append a record, validating schema and id uniqueness.

        Raises :class:`~repro.exceptions.SealedSourceError` on a sealed source.
        """
        self._assert_mutable()
        self._validate(record)
        if record.record_id in self._by_id:
            raise DatasetError(f"duplicate record id {record.record_id!r} in {self.name!r}")
        self.records.append(record)
        self._by_id[record.record_id] = record
        self._positions[record.record_id] = len(self.records) - 1
        self._commit_mutation("add", old=None, new=record)

    def update(self, record: Record) -> Record:
        """Replace the record sharing ``record.record_id``; returns the old one.

        The replacement keeps the original's position in insertion order.
        Raises ``DatasetError`` when no record with that id exists,
        ``SchemaError`` when the replacement does not fit the schema, and
        :class:`~repro.exceptions.SealedSourceError` on a sealed source.
        """
        self._assert_mutable()
        self._validate(record)
        old = self._by_id.get(record.record_id)
        if old is None:
            raise DatasetError(
                f"cannot update unknown record id {record.record_id!r} in {self.name!r}"
            )
        position = self._position_of(old)
        self.records[position] = record
        self._by_id[record.record_id] = record
        self._commit_mutation("update", old=old, new=record, position=position)
        return old

    def remove(self, record_id: str) -> Record:
        """Remove and return the record with ``record_id``.

        Raises ``DatasetError`` when the id is unknown and
        :class:`~repro.exceptions.SealedSourceError` on a sealed source.
        """
        self._assert_mutable()
        record = self._by_id.pop(record_id, None)
        if record is None:
            raise DatasetError(f"cannot remove unknown record id {record_id!r} from {self.name!r}")
        position = self._position_of(record)
        del self.records[position]
        # The hints of the records after ``position`` go stale by one; the
        # identity check in ``_position_of`` catches that on their next use.
        del self._positions[record_id]
        self._commit_mutation("remove", old=record, new=None, position=position)
        return record

    def _position_of(self, record: Record) -> int:
        """The position of ``record`` (by id) in ``records``, via the hint map.

        The stored position is trusted only when the live list still holds
        ``record`` *itself* there.  Otherwise (a :meth:`remove` shifted it,
        or ``records`` was edited behind the API's back) a C-speed identity
        scan finds it and refreshes its hint; when ``record`` is not in the
        list at all, the map is rebuilt by id before answering.
        """
        position = self._positions.get(record.record_id, -1)
        records = self.records
        if 0 <= position < len(records) and records[position] is record:
            return position
        try:
            position = operator.indexOf(map(operator.is_, records, repeat(record)), True)
        except ValueError:
            pass
        else:
            self._positions[record.record_id] = position
            return position
        self._positions = {
            entry.record_id: index for index, entry in enumerate(records)
        }
        try:
            return self._positions[record.record_id]
        except KeyError as exc:
            raise DatasetError(
                f"record id {record.record_id!r} not in data source {self.name!r}"
            ) from exc

    def _commit_mutation(
        self,
        op: str,
        old: Record | None,
        new: Record | None,
        position: int | None = None,
    ) -> None:
        """Version bump + hash maintenance + refcounts + delta journalling.

        Called *after* ``records`` / ``_by_id`` reflect the mutation.  The
        cached content hash is carried forward in O(1) when it was valid for
        the pre-mutation state (version match plus identity sweep over the
        snapshot, reversing this mutation's own list edit); any doubt drops
        the cache and the next :meth:`content_hash` call recomputes.
        ``position`` is the list index the mutation touched, when the caller
        knows it — it lets the sweep run entirely at C speed.
        """
        state = self._hash_state
        carried: int | None = None
        if state is not None and state[0] == self._data_version:
            if self._snapshot_still_current(op, state[1], old, new, position):
                carried = state[2]
                if old is not None:
                    carried -= _record_hash_int(old)
                if new is not None:
                    carried += _record_hash_int(new)
                carried %= _HASH_MODULUS
        self._data_version += 1
        self._hash_state = (
            (self._data_version, list(self.records), carried) if carried is not None else None
        )

        retired: tuple[str, ...] = ()
        refs = self._value_refs
        if refs is None:
            # First mutation on a lazily-initialised source: ``records``
            # already reflects this mutation, so the freshly built map *is*
            # the post-mutation state — retirement falls out of a membership
            # check instead of the incremental decrement below.
            refs = self._build_value_refs()
            self._value_refs = refs
            if old is not None:
                seen: dict[str, None] = {}
                for value in _record_strings(old):
                    if value not in refs:
                        seen.setdefault(value, None)
                retired = tuple(seen)
        else:
            if new is not None:
                refs.update(_record_strings(new))
            if old is not None:
                gone: dict[str, None] = {}
                for value in _record_strings(old):
                    remaining = refs[value] - 1
                    if remaining > 0:
                        refs[value] = remaining
                    else:
                        del refs[value]
                        gone[value] = None
                retired = tuple(gone)

        self._delta_log.append(
            SourceDelta(version=self._data_version, op=op, old=old, new=new, retired_values=retired)
        )
        while len(self._delta_log) > max(self.delta_log_limit, 0):
            self._delta_log.popleft()

    def _build_value_refs(self) -> Counter[str]:
        """Reference counts of every record's value strings (one full pass)."""
        refs: Counter[str] = Counter()
        for record in self.records:
            refs.update(_record_strings(record))
        return refs

    def _snapshot_still_current(
        self,
        op: str,
        snapshot: list[Record],
        old: Record | None,
        new: Record | None,
        position: int | None = None,
    ) -> bool:
        """Whether the live ``records`` equals ``snapshot`` plus this mutation.

        Identity-only comparison: anything the snapshot cannot explain (an
        in-place edit slipped in between two API mutations) fails the check,
        so the carried hash is dropped rather than silently corrupted.  When
        ``position`` locates the mutation's list edit, the unchanged prefix
        and suffix are swept with ``map(operator.is_, ...)`` — no Python-level
        loop over the records.
        """
        live = self.records
        if op == "add":
            return len(live) == len(snapshot) + 1 and live[-1] is new and all(
                map(operator.is_, islice(live, len(snapshot)), snapshot)
            )
        if op == "update":
            if len(live) != len(snapshot):
                return False
            if position is not None and 0 <= position < len(live):
                return (
                    live[position] is new
                    and snapshot[position] is old
                    and all(
                        map(
                            operator.is_,
                            islice(live, position),
                            islice(snapshot, position),
                        )
                    )
                    and all(
                        map(
                            operator.is_,
                            islice(live, position + 1, None),
                            islice(snapshot, position + 1, None),
                        )
                    )
                )
            for live_record, snap_record in zip(live, snapshot):
                if live_record is snap_record:
                    continue
                if live_record is new and snap_record is old:
                    continue
                return False
            return True
        # remove: the snapshot minus its identity occurrence of ``old``.
        if len(live) != len(snapshot) - 1:
            return False
        if position is not None and 0 <= position < len(snapshot):
            return snapshot[position] is old and all(
                map(operator.is_, islice(live, position), islice(snapshot, position))
            ) and all(
                map(
                    operator.is_,
                    islice(live, position, None),
                    islice(snapshot, position + 1, None),
                )
            )
        shift = 0
        for index, snap_record in enumerate(snapshot):
            if shift == 0 and snap_record is old:
                shift = 1
                continue
            if index - shift >= len(live) or live[index - shift] is not snap_record:
                return False
        return shift == 1

    # ------------------------------------------------------------- delta log

    @property
    def oldest_replayable_version(self) -> int:
        """The smallest ``version`` argument :meth:`deltas_since` can serve."""
        if not self._delta_log:
            return self._data_version
        return self._delta_log[0].version - 1

    def deltas_since(self, version: int) -> list[SourceDelta] | None:
        """The mutations applied after ``data_version == version``, in order.

        Returns ``[]`` when nothing changed, and ``None`` when the bounded
        delta log no longer reaches back to ``version`` (or ``version`` is
        from the future) — the consumer must fall back to a full rebuild.
        Replaying the returned deltas over a structure that was consistent
        with the source at ``version`` brings it to the current version;
        consumers still cross-check by content hash, so a source mutated *in
        place* (bypassing the log) can never be silently trusted.
        """
        if version == self._data_version:
            return []
        if version > self._data_version or version < self.oldest_replayable_version:
            return None
        return [delta for delta in self._delta_log if delta.version > version]

    def retired_values_since(self, version: int) -> list[str] | None:
        """Value strings retired by mutations after ``version`` (order-stable).

        The union of ``retired_values`` across :meth:`deltas_since`, filtered
        down to strings that are *still* unreferenced now (a later mutation
        may have re-introduced a value; evicting it would only cost a
        recompute, but there is no point).  ``None`` when the log was
        truncated — the caller should fall back to a wholesale cache reset
        (or simply keep relying on its size bound).
        """
        deltas = self.deltas_since(version)
        if deltas is None:
            return None
        refs = self._value_refs if self._value_refs is not None else ()
        seen: dict[str, None] = {}
        for delta in deltas:
            for value in delta.retired_values:
                if value not in refs:
                    seen.setdefault(value, None)
        return list(seen)

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        """Pickle/deepcopy state *without* the per-source token-index cache.

        :func:`repro.data.indexing.get_source_index` stashes heavy
        ``SourceTokenIndex`` objects on the instance; serialising them into
        sweep-runner worker processes (or resurrecting stale snapshots via
        ``deepcopy``) would defeat their freshness tracking, so clones start
        index-less and rebuild (or warm-load from the artifact store) on
        first use.
        """
        state = dict(self.__dict__)
        state.pop("_token_indexes", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def get(self, record_id: str) -> Record:
        """Return the record with ``record_id`` or raise ``DatasetError``."""
        try:
            return self._by_id[record_id]
        except KeyError as exc:
            raise DatasetError(f"record id {record_id!r} not in data source {self.name!r}") from exc

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._by_id

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def ids(self) -> list[str]:
        """All record identifiers, in insertion order."""
        return [record.record_id for record in self.records]

    def sample(self, count: int, rng: random.Random | None = None, exclude: Iterable[str] = ()) -> list[Record]:
        """Sample up to ``count`` records uniformly at random without replacement.

        Records whose id is in ``exclude`` are never returned.  Returns fewer
        than ``count`` records when the source is too small.
        """
        rng = rng or random.Random(0)
        excluded = set(exclude)
        candidates = [record for record in self.records if record.record_id not in excluded]
        if count >= len(candidates):
            return list(candidates)
        return rng.sample(candidates, count)

    def filter(self, predicate: Callable[[Record], bool]) -> "DataSource":
        """Return a new data source keeping only records that satisfy ``predicate``."""
        kept = [record for record in self.records if predicate(record)]
        return DataSource(name=self.name, schema=self.schema, records=kept)

    def vocabulary(self, attribute: str | None = None) -> set[str]:
        """Distinct whitespace tokens across the source (optionally one attribute)."""
        tokens: set[str] = set()
        for record in self.records:
            if attribute is None:
                tokens.update(record.all_tokens())
            else:
                tokens.update(record.tokens(attribute))
        return tokens

    def distinct_values(self, attribute: str) -> list[str]:
        """Distinct non-missing values of one attribute, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            value = record.value(attribute)
            if value:
                seen.setdefault(value, None)
        return list(seen)

    def value_statistics(self) -> dict[str, dict[str, float]]:
        """Per-attribute statistics: distinct values, missing rate, mean token length."""
        stats: dict[str, dict[str, float]] = {}
        total = max(len(self.records), 1)
        for attribute in self.schema:
            values = [record.value(attribute) for record in self.records]
            non_missing = [value for value in values if value]
            token_lengths = [len(value.split()) for value in non_missing]
            stats[attribute] = {
                "distinct": float(len(set(non_missing))),
                "missing_rate": 1.0 - len(non_missing) / total,
                "mean_tokens": (sum(token_lengths) / len(token_lengths)) if token_lengths else 0.0,
            }
        return stats

    @classmethod
    def from_iterable(
        cls,
        name: str,
        schema: Schema,
        records: Iterable[Record],
        chunk_size: int = 50_000,
        validate: bool = True,
        delta_log_limit: int = DEFAULT_DELTA_LOG_LIMIT,
    ) -> "DataSource":
        """Build a source by draining an iterator of records in bounded chunks.

        The streaming companion of the list constructor: ``records`` is
        consumed ``chunk_size`` records at a time (so a generator such as
        :func:`repro.data.synthetic.iter_synthetic_records` is never
        materialised twice — once as an intermediate list, once inside the
        source) and the id/position maps are grown chunk-wise instead of
        record-by-record.  ``validate=False`` skips the per-record schema
        check for generators that construct records against ``schema`` by
        construction — at a million records the check is the dominant cost
        of ingestion.  Duplicate ids raise ``DatasetError`` either way.
        """
        source = cls(name=name, schema=schema, records=[], delta_log_limit=delta_log_limit)
        stored = source.records
        by_id = source._by_id
        positions = source._positions
        iterator = iter(records)
        while True:
            chunk = list(islice(iterator, max(chunk_size, 1)))
            if not chunk:
                break
            if validate:
                for record in chunk:
                    source._validate(record)
            base = len(stored)
            stored.extend(chunk)
            for offset, record in enumerate(chunk):
                by_id[record.record_id] = record
                positions[record.record_id] = base + offset
            if len(by_id) != len(stored):
                raise DatasetError(f"duplicate record ids in data source {name!r}")
        return source

    @classmethod
    def from_rows(
        cls,
        name: str,
        schema: Schema,
        rows: Sequence[dict[str, object]],
        id_attribute: str | None = None,
        source_tag: str | None = None,
    ) -> "DataSource":
        """Build a data source from raw row dictionaries.

        When ``id_attribute`` is given the id is read from each row (and the
        attribute removed from the schema values); otherwise sequential ids
        ``<name>-<i>`` are generated.
        """
        source_tag = source_tag or name
        records = []
        for index, row in enumerate(rows):
            row = dict(row)
            if id_attribute is not None:
                record_id = str(row.pop(id_attribute))
            else:
                record_id = f"{name}-{index}"
            records.append(Record.from_raw(record_id, row, schema, source=source_tag))
        return cls(name=name, schema=schema, records=records)
