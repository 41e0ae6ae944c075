"""Data sources: ordered collections of records sharing one schema.

A :class:`DataSource` corresponds to one of the two tables (``U`` or ``V``)
that an ER task compares.  CERTA's open-triangle search iterates over a data
source to find support records, so the class offers fast lookup by id and
simple sampling utilities in addition to plain iteration.

The source owns its records: one insertion-ordered dict keyed by record id,
exposed as a read-only :class:`RecordsView`, so only :meth:`DataSource.add`,
:meth:`~DataSource.update` and :meth:`~DataSource.remove` can change them.
Adds append, updates keep their place, removes drop out, and a re-added id
goes last: the dict's own order, which triangle candidates depend on.
Each of them bumps :attr:`~DataSource.data_version` and journals a
:class:`SourceDelta` in a bounded **delta log**.  Derived structures — the
inverted token index of :mod:`repro.data.indexing`, the featurisation caches
of :mod:`repro.models.featurizer` — consume the log through
:meth:`~DataSource.deltas_since` to maintain themselves incrementally; when
the log has been truncated past the version a consumer saw last,
:meth:`~DataSource.deltas_since` returns ``None`` and the consumer rebuilds.
The version and the log are the whole freshness contract: no edit can
bypass them.  The content hash (:meth:`~DataSource.content_hash`) is
computed on demand, for :class:`~repro.models.training.ModelCache` keys and
saved-dataset verification.
"""

from __future__ import annotations

import hashlib
import operator
import random
from collections import Counter, deque
from collections.abc import Sequence
from itertools import chain, islice
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.data.records import Record, Schema
from repro.exceptions import DatasetError, SchemaError, SealedSourceError

#: Version of the content-hash formula.  Recorded by
#: :func:`repro.data.io.save_dataset` so a dataset saved under an older
#: formula is reloaded without integrity verification instead of being
#: misreported as tampered with.  Bump it whenever the formula changes.
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


class RecordsView(Sequence):
    """Read-only view of a :class:`DataSource`'s records, in insertion order.

    ``len``, iteration and ``reversed`` delegate to the record dict, so
    ``[0]`` and ``[-1]`` cost O(1); other positions walk to the record
    (O(position)).  Item assignment, ``append`` and ``del`` do not exist,
    so the source's mutation API is the only way to change its records.
    """

    __slots__ = ("_records",)

    def __init__(self, records: dict[str, Record]) -> None:
        self._records = records

    def __getitem__(self, index):
        values = self._records.values()
        if isinstance(index, slice):
            return list(values)[index]
        index = operator.index(index)
        if index < 0:
            values, index = reversed(values), -index - 1
        for record in islice(values, index, None):
            return record
        raise IndexError("record index out of range")

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def __reversed__(self) -> Iterator[Record]:
        return reversed(self._records.values())

    def __eq__(self, other: object) -> bool:
        return list(self) == (list(other) if isinstance(other, RecordsView) else other)

    def __repr__(self) -> str:
        return f"RecordsView({list(self)!r})"


@dataclass
class DataSource:
    """A named table of records with a fixed schema.

    ``records`` may be any iterable of records; the source keeps its own
    copy and serves it back as a read-only :class:`RecordsView`.  Adding or
    removing a record while iterating the source raises ``RuntimeError``.
    """

    name: str
    schema: Schema
    records: Sequence[Record] = field(default_factory=list)
    delta_log_limit: int = DEFAULT_DELTA_LOG_LIMIT

    def __post_init__(self) -> None:
        records = self.records
        #: record id -> record, in insertion order: only :meth:`add`,
        #: :meth:`update` and :meth:`remove` edit it.
        self._records: dict[str, Record] = {}
        self.records = RecordsView(self._records)
        self._data_version = 0
        #: Journalled mutations, oldest first (bounded by ``delta_log_limit``).
        self._delta_log: deque[SourceDelta] = deque()
        #: value string -> number of records referencing it (see
        #: :func:`_record_strings`); drives ``retired_values`` accounting.
        #: Built lazily on the first mutation (:meth:`_commit_mutation`):
        #: a read-only source — a million-record table streamed in through
        #: :meth:`from_iterable` and only ever queried — never pays the
        #: refcount pass or holds the value-string map resident.
        self._value_refs: Counter[str] | None = None
        #: ``(data_version, hash int)`` of the last :meth:`content_hash`.
        self._hash_state: tuple[int, int] | None = None
        #: True once :meth:`seal` closed the mutation API.
        self._sealed = False
        self._extend(records, validate=True)

    def _extend(self, records: Iterable[Record], validate: bool) -> None:
        """Store ``records`` one at a time (construction only: no delta)."""
        stored = self._records
        for record in records:
            if validate:
                self._validate(record)
            if record.record_id in stored:
                raise DatasetError(f"duplicate record ids in data source {self.name!r}")
            stored[record.record_id] = record

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on every mutation through :meth:`add`,
        :meth:`update` or :meth:`remove`.

        These are the only ways to change the records, so derived structures
        (e.g. the inverted token index of :mod:`repro.data.indexing`) are
        current exactly when they saw this version.
        """
        return self._data_version

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has closed the mutation API."""
        return self._sealed

    def seal(self) -> "DataSource":
        """Close the mutation API: the source is read-only from now on.

        Every later :meth:`add` / :meth:`update` / :meth:`remove` raises
        :class:`~repro.exceptions.SealedSourceError`, so a serving stack can
        share the source between threads without a mutation slipping in.
        Idempotent; returns ``self`` so call sites can chain
        (``source.seal()`` at service start-up).
        """
        self._sealed = True
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
        order) hash identically.  Computed on demand and cached per
        :attr:`data_version`; per-record digests are cached on the immutable
        records, so a recompute costs one pass over cached hex strings.
        :class:`~repro.models.training.ModelCache` keys and saved-dataset
        verification (:mod:`repro.data.io`) read it; freshness of derived
        structures does not.
        """
        state = self._hash_state
        if state is None or state[0] != self._data_version:
            total = _schema_hash_int(self.schema) + sum(map(_record_hash_int, self._records.values()))
            state = self._hash_state = (self._data_version, total % _HASH_MODULUS)
        return format(state[1], "064x")

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
        if record.record_id in self._records:
            raise DatasetError(f"duplicate record id {record.record_id!r} in {self.name!r}")
        self._records[record.record_id] = record
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
        old = self._records.get(record.record_id)
        if old is None:
            raise DatasetError(
                f"cannot update unknown record id {record.record_id!r} in {self.name!r}"
            )
        self._records[record.record_id] = record
        self._commit_mutation("update", old=old, new=record)
        return old

    def remove(self, record_id: str) -> Record:
        """Remove and return the record with ``record_id``.

        Raises ``DatasetError`` when the id is unknown and
        :class:`~repro.exceptions.SealedSourceError` on a sealed source.
        """
        self._assert_mutable()
        record = self._records.pop(record_id, None)
        if record is None:
            raise DatasetError(f"cannot remove unknown record id {record_id!r} from {self.name!r}")
        self._commit_mutation("remove", old=record, new=None)
        return record

    def _commit_mutation(self, op: str, old: Record | None, new: Record | None) -> None:
        """Version bump + refcounts + delta journalling.

        Called *after* the record dict reflects the mutation.
        """
        self._data_version += 1

        retired: tuple[str, ...] = ()
        refs = self._value_refs
        if refs is None:
            # First mutation on a lazily-initialised source: the records
            # already reflect this mutation, so the freshly built map *is*
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
        return Counter(chain.from_iterable(map(_record_strings, self._records.values())))

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
        with the source at ``version`` brings it to the current version.
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
        index-less and rebuild on first use.
        """
        state = dict(self.__dict__)
        state.pop("_token_indexes", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def get(self, record_id: str) -> Record:
        """Return the record with ``record_id`` or raise ``DatasetError``."""
        try:
            return self._records[record_id]
        except KeyError as exc:
            raise DatasetError(f"record id {record_id!r} not in data source {self.name!r}") from exc

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def ids(self) -> list[str]:
        """All record identifiers, in insertion order."""
        return list(self._records)

    def sample(self, count: int, rng: random.Random | None = None, exclude: Iterable[str] = ()) -> list[Record]:
        """Sample up to ``count`` records uniformly at random without replacement.

        Records whose id is in ``exclude`` are never returned.  Returns fewer
        than ``count`` records when the source is too small.
        """
        rng = rng or random.Random(0)
        excluded = set(exclude)
        candidates = [record for record in self if record.record_id not in excluded]
        if count >= len(candidates):
            return list(candidates)
        return rng.sample(candidates, count)

    def filter(self, predicate: Callable[[Record], bool]) -> "DataSource":
        """Return a new data source keeping only records that satisfy ``predicate``."""
        kept = [record for record in self if predicate(record)]
        return DataSource(name=self.name, schema=self.schema, records=kept)

    def vocabulary(self, attribute: str | None = None) -> set[str]:
        """Distinct whitespace tokens across the source (optionally one attribute)."""
        tokens: set[str] = set()
        for record in self:
            if attribute is None:
                tokens.update(record.all_tokens())
            else:
                tokens.update(record.tokens(attribute))
        return tokens

    def distinct_values(self, attribute: str) -> list[str]:
        """Distinct non-missing values of one attribute, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self:
            value = record.value(attribute)
            if value:
                seen.setdefault(value, None)
        return list(seen)

    def value_statistics(self) -> dict[str, dict[str, float]]:
        """Per-attribute statistics: distinct values, missing rate, mean token length."""
        stats: dict[str, dict[str, float]] = {}
        total = max(len(self._records), 1)
        for attribute in self.schema:
            values = [record.value(attribute) for record in self]
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
        validate: bool = True,
        delta_log_limit: int = DEFAULT_DELTA_LOG_LIMIT,
    ) -> "DataSource":
        """Build a source by draining an iterator of records one at a time.

        The streaming companion of the list constructor: a generator such as
        :func:`repro.data.synthetic.iter_synthetic_records` goes straight
        into the source's record dict, never through an intermediate list.
        ``validate=False`` skips the per-record schema check for generators
        that construct records against ``schema`` by construction — at a
        million records the check is the dominant cost of ingestion.
        Duplicate ids raise ``DatasetError`` either way.
        """
        source = cls(name=name, schema=schema, delta_log_limit=delta_log_limit)
        source._extend(records, validate)
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
