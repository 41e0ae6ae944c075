"""Persistent dataset/index artifact store with content-hash invalidation.

Every derived structure the library builds per process — the inverted token
index of :mod:`repro.data.indexing`, the featurisation value caches of
:mod:`repro.models.featurizer`, trained matcher weights — is a deterministic
function of (source content, build parameters).  :class:`ArtifactStore`
persists those structures to disk keyed by a **content hash** of exactly that
input, so a fresh process can warm-load instead of rebuilding: a resumed sweep
skips every index build, featurisation pass and training run it can *prove*
safe, and pays a rebuild the moment the underlying data (or the artifact
schema) changes.

Invalidation rules, in decreasing order of authority:

1. :data:`ARTIFACT_SCHEMA_VERSION` — bumped whenever the on-disk layout or any
   derivation algorithm (tokeniser, featurizer maths) changes.  A version-skewed
   artifact never loads.
2. The content hash baked into the artifact key *and* repeated inside the
   payload.  Loaders recompute the hash from the live objects
   (:meth:`repro.data.table.DataSource.content_hash`,
   :func:`dataset_fingerprint`) and reject any mismatch, so mutated sources —
   even ones mutated in place, bypassing ``data_version`` — can never be
   served a stale artifact.
3. Structural validation plus a derivation spot-check (loaders re-derive a
   small sample and compare), catching corrupt-but-parseable payloads.

A load that fails *any* check returns ``None`` — the caller rebuilds and
re-saves, so corruption, truncation and version skew degrade to a cold start,
never to silent reuse and never to an exception.  Saves are atomic
(temp file + ``os.replace``) so a killed process cannot leave a partially
written artifact behind.

Incremental maintenance composes with persistence through the key alone: a
:class:`~repro.data.indexing.SourceTokenIndex` that absorbed mutations by
delta replay re-persists its *canonical* post-mutation state under the new
content hash (``SourceTokenIndex.save``), and artifacts keyed by superseded
hashes simply never match a live source again — persisted indexes therefore
either reflect replayed deltas exactly or invalidate cleanly, with no
artifact-side delta format to version.

The store is configured explicitly (``DataSource.artifact_store``,
``ModelCache(artifact_store=...)``, ``ExperimentHarness(artifact_store=...)``)
or process-wide through the ``REPRO_ARTIFACT_DIR`` environment variable
(:func:`default_store`), which the sweep runner's worker processes inherit —
the per-worker warm start that makes resumed multi-process sweeps cheap.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import struct
import tempfile
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro import env, faults
from repro.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports (no cycle at runtime)
    from repro.data.dataset import ERDataset

#: Bump to invalidate every artifact on disk (layout or derivation change).
#: 2: ``DataSource.content_hash`` moved to the order-insensitive additive
#: per-record-digest formula (``CONTENT_HASH_VERSION`` 2), so every
#: content-hash-keyed artifact from version 1 is addressed by a formula no
#: live source will ever produce again.
#: 3: source-index artifacts moved from flat-string JSON to sharded-CSR npz
#: (``index_*.npz``: token table + ``token_offsets``/``postings`` posting
#: arrays + per-record token-id arena), loadable zero-copy via ``mmap``.
ARTIFACT_SCHEMA_VERSION = 3

#: Environment variable naming the process-wide artifact directory.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Token-hash shard count of a persisted source index (the npz layout groups
#: its token table by :func:`token_shard`).
DEFAULT_INDEX_SHARDS = 8

#: OSError errnos that flip a store into memory-only mode: conditions a
#: retry cannot fix (disk full, read-only or quota-exhausted filesystem)
#: where losing *persistence* is acceptable but losing the *computation*
#: is not.
_DEGRADE_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, "ENOSPC", None),
        getattr(errno, "EROFS", None),
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)


def token_shard(token: str, num_shards: int) -> int:
    """The shard owning ``token`` in the persisted index layout.

    ``save_source_index`` orders the token table shard-major by this key.
    ``crc32`` rather than ``hash``: python string hashing is salted per
    process, and the layout must not depend on which process wrote it.
    """
    return zlib.crc32(token.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class ArtifactStoreStats(Counters):
    """Counters of one :class:`ArtifactStore` (immutable snapshot semantics).

    ``*_loads`` count artifacts served from disk, ``*_saves`` artifacts
    written after a fresh build, and ``*_misses`` load attempts that found
    nothing usable (absent, version-skewed, corrupt or content-mismatched) —
    every miss is followed by a rebuild, so ``index_saves == 0`` over a
    process proves the process rebuilt no index at all.
    """

    index_loads: int = 0
    index_saves: int = 0
    index_misses: int = 0
    featurizer_loads: int = 0
    featurizer_saves: int = 0
    featurizer_misses: int = 0
    model_loads: int = 0
    model_saves: int = 0
    model_misses: int = 0
    quarantined: int = 0


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability).

    Failure is ignored: some filesystems (and sandboxes) refuse directory
    fsync, and losing rename durability there degrades to the pre-crash
    state — a missing artifact, which loaders already treat as a rebuild.
    """
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def _corrupt_file(name: str) -> None:
    """Overwrite the head of ``name`` with garbage (chaos-suite support).

    Clobbering the first bytes breaks a zip local header / JSON document
    while keeping the file present and renameable — exactly the torn-write
    corruption the quarantine path must catch.
    """
    with open(name, "r+b") as handle:
        handle.write(b"\xde\xad" * 32)


def write_atomic_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically and crash-durably.

    Temp file + ``os.replace`` keeps the write atomic; the explicit fsync of
    the temp file *before* the rename (plus a best-effort fsync of the
    directory after) keeps it durable — without it, a power loss after the
    rename can leave the new name pointing at unwritten blocks.
    """
    action = faults.fault_step("artifact.write")
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if action is not None and action.kind == "corrupt":
            _corrupt_file(temp_name)
        os.replace(temp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def write_atomic_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write a ``.npz`` archive to ``path`` atomically and crash-durably.

    Same fsync-before-rename contract as :func:`write_atomic_text`.
    """
    action = faults.fault_step("artifact.write")
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        if action is not None and action.kind == "corrupt":
            _corrupt_file(temp_name)
        os.replace(temp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


@contextlib.contextmanager
def atomic_writer(path: Path, mode: str = "w", newline: str | None = None):
    """A write handle whose contents reach ``path`` atomically and durably.

    The streaming counterpart of :func:`write_atomic_text` for callers that
    produce output incrementally (CSV writers, JSONL row streams): the handle
    writes to a temp file in ``path``'s directory, is fsynced on close, and
    ``os.replace``\\ d over ``path`` — so a crash mid-write leaves the old
    file (or nothing), never a torn one.  ``mode`` is ``"w"`` or ``"wb"``;
    ``newline`` is forwarded for text handles (pass ``""`` for ``csv``).

    Unlike the artifact-store helpers this takes no ``artifact.write`` fault
    step: report/dataset writes are not artifact-store writes, and routing
    them through that fault scope would shift every chaos-plan hit count.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        if "b" in mode:
            handle = os.fdopen(descriptor, "wb")
        else:
            handle = os.fdopen(descriptor, "w", encoding="utf-8", newline=newline)
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> dict | None:
    """Parse a JSON object from ``path``; ``None`` on any read/parse failure."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def load_npz_arrays(path: Path, mmap: bool = True) -> dict[str, np.ndarray] | None:
    """Read every member of a ``.npz`` archive; ``None`` on any failure.

    With ``mmap=True`` (the default) the members are returned as zero-copy
    views over one ``np.memmap`` of the archive: ``np.savez`` stores members
    uncompressed (``ZIP_STORED``), so each ``.npy`` payload sits contiguous in
    the file and only the zip/npy *headers* are actually read.  A 1M-record
    index artifact thus "loads" in O(header) time and pages in lazily.  Any
    irregularity — compressed members, fortran order, object dtypes, header
    damage — falls back to a plain ``np.load`` full read, and only when that
    also fails does the function return ``None``.
    """
    if mmap:
        try:
            return _mmap_npz_members(path)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, struct.error):
            pass
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def _mmap_npz_members(path: Path) -> dict[str, np.ndarray]:
    """Zero-copy views of every uncompressed ``.npz`` member (raises on any skew).

    The zip central directory supplies each member's ``header_offset``; the
    30-byte local file header at that offset supplies the name/extra lengths
    that position the embedded ``.npy`` stream, whose own header
    (``np.lib.format``) yields dtype and shape.  The member's data is then a
    ``view``/``reshape`` of a slice of one shared ``uint8`` memmap.
    """
    arrays: dict[str, np.ndarray] = {}
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"compressed member {info.filename!r}")
            handle.seek(info.header_offset)
            local_header = handle.read(30)
            if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                raise ValueError(f"bad local header for {info.filename!r}")
            name_length, extra_length = struct.unpack("<HH", local_header[26:30])
            member_start = info.header_offset + 30 + name_length + extra_length
            handle.seek(member_start)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                raise ValueError(f"unsupported npy version {version}")
            if fortran_order or dtype.hasobject:
                raise ValueError(f"non-mappable member {info.filename!r}")
            data_start = handle.tell()
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            data_end = data_start + count * dtype.itemsize
            if data_end > member_start + info.file_size or data_end > raw.size:
                raise ValueError(f"member {info.filename!r} data out of bounds")
            name = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
            arrays[name] = raw[data_start:data_end].view(dtype).reshape(shape)
    return arrays


def dataset_fingerprint(dataset: "ERDataset") -> str:
    """Stable digest of everything a training run consumes from a dataset.

    Covers both sources' content hashes plus the id/label structure of every
    split, so a trained-model artifact is reused only when training would have
    seen byte-identical inputs.  (Training is deterministic, which is what
    makes weight reuse an equivalence rather than an approximation.)
    """
    payload = {
        "name": dataset.name,
        "left": dataset.left.content_hash(),
        "right": dataset.right.content_hash(),
        "splits": {
            split.name: [
                [pair.left.record_id, pair.right.record_id, bool(pair.label)]
                for pair in split.pairs
            ]
            for split in (dataset.train, dataset.valid, dataset.test)
        },
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def fingerprint_digest(fingerprint: Mapping[str, object]) -> str:
    """Short stable digest of a JSON-compatible fingerprint mapping."""
    payload = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ArtifactStore:
    """Content-addressed persistence for indexes, featurizer caches and models.

    One directory, three artifact families::

        <dir>/indexes/index_<hash16>_len<L>.npz       source token indexes
        <dir>/featurizers/feat_<fp16>.npz             featurizer value caches
        <dir>/models/<name>_<fast|full>_<fp16>/       trained matcher weights

    Loads are tolerant (any failure ⇒ ``None`` ⇒ caller rebuilds); saves are
    atomic and may legitimately raise ``OSError`` — a misconfigured artifact
    directory should surface, not hide.  Two exceptions to that raise:

    * a full, read-only or quota-exhausted disk (``ENOSPC``/``EROFS``/
      ``EDQUOT``) flips the store into **memory-only mode** — one warning,
      ``persistence_disabled = True``, every later save a silent no-op —
      because losing persistence must never fail the computation;
    * a load that finds a *corrupt* artifact (unreadable, undecodable or
      structurally invalid, as opposed to merely version-skewed) renames it
      to ``<name>.corrupt-<digest>`` instead of leaving it in place, so the
      damage is diagnosable and the rebuild can never be re-poisoned by it.

    Counters are exposed as :attr:`stats`.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.index_loads = 0
        self.index_saves = 0
        self.index_misses = 0
        self.featurizer_loads = 0
        self.featurizer_saves = 0
        self.featurizer_misses = 0
        self.model_loads = 0
        self.model_saves = 0
        self.model_misses = 0
        self.quarantined = 0
        self.persistence_disabled = False

    @property
    def stats(self) -> ArtifactStoreStats:
        """Immutable snapshot of the load/save/miss counters."""
        return ArtifactStoreStats.of(self)

    # ----------------------------------------------------- degrade & quarantine

    def _guarded_write(self, write: Callable[[], object]) -> bool:
        """Run one artifact write unless persistence is disabled.

        Returns whether the write happened.  ``ENOSPC``/``EROFS``/``EDQUOT``
        disable persistence for the rest of the process (with a single
        warning); any other failure propagates unchanged.
        """
        if self.persistence_disabled:
            return False
        try:
            write()
        except OSError as exc:
            if exc.errno in _DEGRADE_ERRNOS:
                self.persistence_disabled = True
                warnings.warn(
                    f"artifact store {self.directory} is not writable "
                    f"({exc}); continuing memory-only — results are "
                    f"unaffected, warm starts are lost",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return False
            raise
        return True

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt artifact aside as ``<name>.corrupt-<digest>``.

        The digest is over the corrupt bytes, so repeated corruption of the
        same path quarantines to distinct names instead of overwriting the
        evidence.  Returns the quarantine path, or ``None`` when the move
        itself failed (the artifact then stays in place and keeps failing
        validation — safe, just less diagnosable).
        """
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
            target = path.with_name(f"{path.name}.corrupt-{digest}")
            os.replace(path, target)
        except OSError:
            return None
        self.quarantined += 1
        return target

    # ------------------------------------------------------------ source index

    def index_path(self, content_hash: str, min_token_length: int) -> Path:
        """On-disk location of the index artifact for one (source, length)."""
        return self.directory / "indexes" / f"index_{content_hash[:16]}_len{min_token_length}.npz"

    def save_source_index(
        self,
        source_name: str,
        content_hash: str,
        min_token_length: int,
        ids: Sequence[str],
        token_sets: Sequence[Iterable[str]],
        postings: Mapping[str, Sequence[int]],
        num_shards: int = DEFAULT_INDEX_SHARDS,
    ) -> Path:
        """Persist one built :class:`~repro.data.indexing.SourceTokenIndex`.

        Converts the canonical dict form — ``postings`` keyed by token over
        sorted record positions, ``token_sets`` aligned with the id-sorted
        ``ids`` — into the sharded-CSR array layout of
        :meth:`save_index_arrays`.  ``ids`` contributes only the record
        count: the content hash in the key (and manifest) already commits to
        the exact id/value multiset, and position-to-record alignment is
        deterministic (records sort by id), so storing the id list would be
        redundant weight on the warm path.
        """
        order = sorted(postings, key=lambda token: (token_shard(token, num_shards), token))
        token_ids = {token: position for position, token in enumerate(order)}
        shard_counts = np.zeros(num_shards, dtype=np.int64)
        for token in order:
            shard_counts[token_shard(token, num_shards)] += 1
        shard_offsets = np.zeros(num_shards + 1, dtype=np.int64)
        np.cumsum(shard_counts, out=shard_offsets[1:])
        token_offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(postings[token]) for token in order), dtype=np.int64, count=len(order)),
            out=token_offsets[1:],
        )
        flat_postings = np.fromiter(
            (position for token in order for position in postings[token]),
            dtype=np.int32,
            count=int(token_offsets[-1]),
        )
        arena_lists = [sorted(token_ids[token] for token in tokens) for tokens in token_sets]
        arena_offsets = np.zeros(len(arena_lists) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(row) for row in arena_lists), dtype=np.int64, count=len(arena_lists)),
            out=arena_offsets[1:],
        )
        arena_tokens = np.fromiter(
            (token_id for row in arena_lists for token_id in row),
            dtype=np.int32,
            count=int(arena_offsets[-1]),
        )
        return self.save_index_arrays(
            source_name,
            content_hash,
            min_token_length,
            len(ids),
            {
                "num_shards": num_shards,
                "tokens": order,
                "shard_offsets": shard_offsets,
                "token_offsets": token_offsets,
                "postings": flat_postings,
                "arena_offsets": arena_offsets,
                "arena_tokens": arena_tokens,
            },
        )

    def save_index_arrays(
        self,
        source_name: str,
        content_hash: str,
        min_token_length: int,
        record_count: int,
        index_arrays: Mapping[str, object],
    ) -> Path:
        """Persist a source index already in sharded-CSR array form.

        ``index_arrays`` carries the same keys :meth:`load_source_index`
        returns — ``num_shards``, ``tokens`` (shard-major, sorted within each
        shard; a list or a pre-joined newline blob), ``shard_offsets`` /
        ``token_offsets`` / ``postings`` (CSR posting lists over record
        positions) and ``arena_offsets`` / ``arena_tokens`` (per-record
        sorted token-id sets).  Members are written uncompressed by
        ``np.savez``, which is what makes the artifact memory-mappable on
        load (:func:`load_npz_arrays`).
        """
        tokens = index_arrays["tokens"]
        token_blob = tokens if isinstance(tokens, str) else "\n".join(tokens)
        token_count = (token_blob.count("\n") + 1) if token_blob else 0
        flat_postings = np.ascontiguousarray(index_arrays["postings"], dtype=np.int32)
        arena_tokens = np.ascontiguousarray(index_arrays["arena_tokens"], dtype=np.int32)
        manifest = {
            "kind": "source_index",
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "source_name": source_name,
            "content_hash": content_hash,
            "min_token_length": min_token_length,
            "record_count": record_count,
            "num_shards": int(index_arrays["num_shards"]),
            "token_count": token_count,
            "posting_count": int(flat_postings.size),
        }
        arrays = {
            "manifest": np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8),
            "token_blob": np.frombuffer(token_blob.encode("utf-8"), dtype=np.uint8),
            "shard_offsets": np.ascontiguousarray(index_arrays["shard_offsets"], dtype=np.int64),
            "token_offsets": np.ascontiguousarray(index_arrays["token_offsets"], dtype=np.int64),
            "postings": flat_postings,
            "arena_offsets": np.ascontiguousarray(index_arrays["arena_offsets"], dtype=np.int64),
            "arena_tokens": arena_tokens,
        }
        path = self.index_path(content_hash, min_token_length)
        if self._guarded_write(lambda: write_atomic_npz(path, arrays)):
            self.index_saves += 1
        return path

    def load_source_index(
        self, content_hash: str, min_token_length: int, expected_ids: Sequence[str]
    ) -> dict | None:
        """The saved index arrays for (``content_hash``, ``min_token_length``).

        Returns ``None`` — counting a miss — unless the artifact exists, maps
        (or reads), carries the current schema version, repeats the expected
        content hash and parameters, and survives the structural validation
        of :meth:`_decode_index_arrays`.  The caller still spot-checks the
        derivation (see ``SourceTokenIndex._build``).
        """
        path = self.index_path(content_hash, min_token_length)
        exists = path.exists()
        arrays = load_npz_arrays(path) if exists else None
        decoded = self._decode_index_arrays(arrays, content_hash, min_token_length, len(expected_ids))
        if decoded is None:
            self.index_misses += 1
            if exists and not self._version_skewed(arrays):
                # A present-but-invalid artifact is corruption, not the
                # normal upgrade path: move it aside so the rebuild's save
                # lands on a clean name and the bad bytes stay diagnosable.
                self._quarantine(path)
            return None
        self.index_loads += 1
        return decoded

    @staticmethod
    def _version_skewed(arrays: Mapping[str, np.ndarray] | None) -> bool:
        """Whether a failed load is mere schema-version skew (not corruption).

        True when the archive read cleanly and its manifest parses but names
        another :data:`ARTIFACT_SCHEMA_VERSION` — the expected leftover of an
        upgrade, which must not be quarantined as damage.
        """
        if arrays is None or "manifest" not in arrays:
            return False
        try:
            manifest = json.loads(bytes(np.asarray(arrays["manifest"])).decode("utf-8"))
        except (ValueError, TypeError, UnicodeDecodeError):
            return False
        if not isinstance(manifest, dict):
            return False
        return manifest.get("schema_version") != ARTIFACT_SCHEMA_VERSION

    @staticmethod
    def _decode_index_arrays(
        arrays: Mapping[str, np.ndarray] | None,
        content_hash: str,
        min_token_length: int,
        record_count: int,
    ) -> dict | None:
        """Validate a stored index-array archive, or ``None``.

        Returns ``{"num_shards", "tokens", "shard_offsets", "token_offsets",
        "postings", "arena_offsets", "arena_tokens"}`` with the tokens
        decoded to a list and every array validated structurally — dtypes,
        offset monotonicity, position/token-id bounds, strict per-row
        ordering — in vectorised C-speed passes.  The record multiset is
        already committed to by the content hash, and semantic drift (a
        changed tokeniser without a schema bump) is caught by the caller's
        derivation spot-check.
        """
        if arrays is None:
            return None
        required = (
            "manifest",
            "token_blob",
            "shard_offsets",
            "token_offsets",
            "postings",
            "arena_offsets",
            "arena_tokens",
        )
        if any(name not in arrays for name in required):
            return None
        try:
            manifest = json.loads(bytes(np.asarray(arrays["manifest"])).decode("utf-8"))
        except (ValueError, TypeError, UnicodeDecodeError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("kind") != "source_index":
            return None
        if manifest.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            return None
        if manifest.get("content_hash") != content_hash:
            return None
        if manifest.get("min_token_length") != min_token_length:
            return None
        if manifest.get("record_count") != record_count:
            return None
        num_shards = manifest.get("num_shards")
        token_count = manifest.get("token_count")
        posting_count = manifest.get("posting_count")
        if not isinstance(num_shards, int) or isinstance(num_shards, bool) or num_shards < 1:
            return None
        if not isinstance(token_count, int) or isinstance(token_count, bool) or token_count < 0:
            return None
        if not isinstance(posting_count, int) or isinstance(posting_count, bool) or posting_count < 0:
            return None
        try:
            token_blob = bytes(np.asarray(arrays["token_blob"])).decode("utf-8")
        except (TypeError, UnicodeDecodeError):
            return None
        tokens = token_blob.split("\n") if token_count else []
        if len(tokens) != token_count:
            return None
        shard_offsets = np.asarray(arrays["shard_offsets"])
        token_offsets = np.asarray(arrays["token_offsets"])
        flat_postings = np.asarray(arrays["postings"])
        arena_offsets = np.asarray(arrays["arena_offsets"])
        arena_tokens = np.asarray(arrays["arena_tokens"])
        if not ArtifactStore._valid_offsets(shard_offsets, num_shards + 1, token_count):
            return None
        if not ArtifactStore._valid_offsets(token_offsets, token_count + 1, posting_count):
            return None
        if not ArtifactStore._valid_offsets(arena_offsets, record_count + 1, int(arena_tokens.size)):
            return None
        if flat_postings.dtype != np.int32 or flat_postings.ndim != 1:
            return None
        if arena_tokens.dtype != np.int32 or arena_tokens.ndim != 1:
            return None
        if flat_postings.size != posting_count or arena_tokens.size != posting_count:
            return None
        if not ArtifactStore._valid_rows(flat_postings, token_offsets, record_count):
            return None
        if not ArtifactStore._valid_rows(arena_tokens, arena_offsets, token_count):
            return None
        return {
            "num_shards": num_shards,
            "tokens": tokens,
            "shard_offsets": shard_offsets,
            "token_offsets": token_offsets,
            "postings": flat_postings,
            "arena_offsets": arena_offsets,
            "arena_tokens": arena_tokens,
        }

    @staticmethod
    def _valid_offsets(offsets: np.ndarray, length: int, total: int) -> bool:
        """``offsets`` is a well-formed CSR offset array ending at ``total``."""
        if offsets.dtype != np.int64 or offsets.shape != (length,):
            return False
        if offsets[0] != 0 or offsets[-1] != total:
            return False
        return not np.any(np.diff(offsets) < 0)

    @staticmethod
    def _valid_rows(values: np.ndarray, offsets: np.ndarray, bound: int) -> bool:
        """Every CSR row of ``values`` is strictly increasing within [0, bound)."""
        if values.size == 0:
            return True
        if int(values.min()) < 0 or int(values.max()) >= bound:
            return False
        if values.size == 1:
            return True
        interior = np.ones(values.size - 1, dtype=bool)
        boundaries = np.asarray(offsets[1:-1])
        boundaries = boundaries[(boundaries > 0) & (boundaries < values.size)]
        interior[boundaries - 1] = False
        return not np.any(values[1:][interior] <= values[:-1][interior])

    # ------------------------------------------------------- featurizer caches

    def featurizer_path(self, fingerprint: Mapping[str, object]) -> Path:
        """On-disk location of the cache archive for one featurizer config."""
        return self.directory / "featurizers" / f"feat_{fingerprint_digest(fingerprint)}.npz"

    def save_featurizer(self, featurizer) -> Path:
        """Persist a featurizer's value/comparison caches (merge-on-save).

        Entries already on disk under the same fingerprint are kept (each is
        a pure function of its key, so union never changes values); the
        current process's entries win on overlap.  The read-merge-write is
        not locked across processes: two workers saving at the same instant
        can drop the smaller of the two exports (last writer wins).  That
        costs only recomputation — every entry is re-derivable on demand —
        never correctness.  ``featurizer`` is any object with the
        ``fingerprint()`` / ``export_state()`` / ``import_state()`` protocol
        of :class:`~repro.models.featurizer.PairFeaturizer`.
        """
        fingerprint = featurizer.fingerprint()
        state = featurizer.export_state()
        existing = self._read_featurizer_payload(fingerprint)
        if existing is not None:
            state = _merge_featurizer_states(existing["state"], state)
        manifest = {
            "kind": "featurizer_cache",
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "keys": {name: block["keys"] for name, block in state.items()},
        }
        arrays = {
            name: block["values"]
            for name, block in state.items()
            if isinstance(block["values"], np.ndarray)
        }
        arrays["manifest"] = np.array(json.dumps(manifest))
        path = self.featurizer_path(fingerprint)
        if self._guarded_write(lambda: write_atomic_npz(path, arrays)):
            self.featurizer_saves += 1
        return path

    def warm_featurizer(self, featurizer) -> bool:
        """Install the saved caches for ``featurizer``'s fingerprint, if any."""
        payload = self._read_featurizer_payload(featurizer.fingerprint())
        if payload is None:
            self.featurizer_misses += 1
            return False
        featurizer.import_state(payload["state"])
        self.featurizer_loads += 1
        return True

    def _read_featurizer_payload(self, fingerprint: Mapping[str, object]) -> dict | None:
        path = self.featurizer_path(fingerprint)
        try:
            with np.load(path, allow_pickle=False) as archive:
                manifest = json.loads(str(archive["manifest"][()]))
                if not isinstance(manifest, dict):
                    return None
                if manifest.get("kind") != "featurizer_cache":
                    return None
                if manifest.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
                    return None
                if manifest.get("fingerprint") != dict(fingerprint):
                    return None
                keys = manifest.get("keys")
                if not isinstance(keys, dict):
                    return None
                state: dict[str, dict] = {}
                for name, block_keys in keys.items():
                    if not isinstance(block_keys, list) or name not in archive.files:
                        return None
                    values = archive[name]
                    if len(values) != len(block_keys):
                        return None
                    state[name] = {"keys": block_keys, "values": values}
        except (OSError, ValueError, KeyError, UnicodeDecodeError):
            if path.exists():
                # Unreadable or undecodable archive: corruption, not a cold
                # cache — quarantine so the next save starts from clean disk.
                self._quarantine(path)
            return None
        return {"state": state}

    # ---------------------------------------------------------- trained models

    def model_dir(self, model_name: str, fast: bool, dataset_digest: str) -> Path:
        """On-disk directory of one trained matcher artifact."""
        mode = "fast" if fast else "full"
        return self.directory / "models" / f"{model_name}_{mode}_{dataset_digest[:16]}"

    def save_model_metadata(self, directory: Path, metadata: Mapping[str, object]) -> Path:
        """Write a model artifact's ``trained.json`` sidecar (atomic)."""
        payload = {
            "kind": "trained_model",
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            **metadata,
        }
        path = directory / "trained.json"
        self._guarded_write(lambda: write_atomic_text(path, json.dumps(payload, sort_keys=True)))
        return path

    def load_model_metadata(self, directory: Path, dataset_digest: str) -> dict | None:
        """The ``trained.json`` sidecar, validated; ``None`` on any mismatch."""
        payload = _read_json(directory / "trained.json")
        if payload is None:
            return None
        if payload.get("kind") != "trained_model":
            return None
        if payload.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            return None
        if payload.get("dataset_fingerprint") != dataset_digest:
            return None
        return payload


def _merge_featurizer_states(old: Mapping[str, dict], new: Mapping[str, dict]) -> dict[str, dict]:
    """Union two exported featurizer states; ``new`` wins on key overlap."""
    merged: dict[str, dict] = {}
    # Sorted, not raw set iteration: the merged dict's key order becomes the
    # member order of the persisted npz archive, and set iteration over
    # per-process-salted string hashes would make two processes write
    # byte-different archives for identical cache contents.
    for name in sorted(set(old) | set(new)):
        old_block = old.get(name)
        new_block = new.get(name)
        if old_block is None or not len(old_block["keys"]):
            merged[name] = new_block if new_block is not None else old_block
            continue
        if new_block is None or not len(new_block["keys"]):
            merged[name] = old_block
            continue
        old_values = np.asarray(old_block["values"])
        new_values = np.asarray(new_block["values"])
        if old_values.shape[1:] != new_values.shape[1:]:
            merged[name] = new_block  # incompatible widths: keep the fresh state
            continue
        keys = list(new_block["keys"])
        seen = {_state_key(key) for key in keys}
        extra_positions = [
            position
            for position, key in enumerate(old_block["keys"])
            if _state_key(key) not in seen
        ]
        values = new_values
        if extra_positions:
            keys = keys + [old_block["keys"][position] for position in extra_positions]
            values = np.concatenate([new_values, old_values[extra_positions]])
        merged[name] = {"keys": keys, "values": values}
    return merged


def _state_key(key: object) -> object:
    """Hashable form of a state key (pair keys arrive as 2-element lists)."""
    return tuple(key) if isinstance(key, list) else key


# ------------------------------------------------------------- default store

_DEFAULT_STORES: dict[str, ArtifactStore] = {}


def default_store() -> ArtifactStore | None:
    """The process-wide store named by ``REPRO_ARTIFACT_DIR`` (memoised per path).

    Returns ``None`` when the variable is unset or empty — persistence is
    strictly opt-in.  Memoising per path keeps one set of counters per
    directory, so smoke tests can assert over everything the process loaded.
    """
    directory = env.read_str(ARTIFACT_DIR_ENV).strip()
    if not directory:
        return None
    store = _DEFAULT_STORES.get(directory)
    if store is None:
        store = ArtifactStore(directory)
        _DEFAULT_STORES[directory] = store
    return store
