"""Persistent trained-model store, plus the atomic writers the library shares.

Training a matcher is the one derived structure whose rebuild costs more than
reading it back: a load takes milliseconds against about a second of
training.  :class:`ArtifactStore` persists trained matcher weights keyed by
:func:`dataset_fingerprint` — a digest of both sources' content hashes and
every split — so a fresh process loads instead of retraining whenever
training would have seen byte-identical inputs.  Token indexes and
featurisation caches are rebuilt in memory: at paper scale an index build
costs a few milliseconds, and warm featurisation caches saved nothing
measurable on other pairs.

Invalidation rules, in decreasing order of authority:

1. :data:`ARTIFACT_SCHEMA_VERSION` — bumped whenever the on-disk layout
   changes.  A version-skewed artifact never loads.
2. The dataset fingerprint baked into the artifact's directory name *and*
   repeated inside its ``trained.json``; a mismatch is a miss.
3. Deserialisation itself: a model whose ``trained.json`` validates but whose
   weights or config fail to load is quarantined and retrained.

A load that fails *any* check returns ``None`` and the caller retrains and
re-saves, so corruption, truncation and version skew degrade to a cold
start, never to silent reuse and never to an exception.  Saves are atomic
(temp file + fsync + ``os.replace``) so a killed process cannot leave a
partially written artifact behind.

The store is configured explicitly (``ModelCache(artifact_store=...)``,
``ExperimentHarness(artifact_store=...)``) or process-wide through the
``REPRO_ARTIFACT_DIR`` environment variable (:func:`default_store`), which
the sweep runner's worker processes inherit.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

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
#: 3: source-index artifacts moved to npz.  Indexes are no longer
#: persisted; model artifacts keep version 3, so those on disk still load.
ARTIFACT_SCHEMA_VERSION = 3

#: Environment variable naming the process-wide artifact directory.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

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


@dataclass(frozen=True)
class ArtifactStoreStats(Counters):
    """Counters of one :class:`ArtifactStore` (immutable snapshot semantics).

    ``model_loads`` count matchers served from disk, ``model_saves`` matchers
    written after training, and ``model_misses`` load attempts that found
    nothing usable (absent, version-skewed, corrupt or fingerprint-mismatched)
    — every miss is followed by training, so ``model_saves == 0`` over a
    process proves the process trained nothing.  ``quarantined`` counts
    corrupt artifacts moved aside.
    """

    model_loads: int = 0
    model_saves: int = 0
    model_misses: int = 0
    quarantined: int = 0


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability).

    Failure is ignored: some filesystems (and sandboxes) refuse directory
    fsync, and losing rename durability there degrades to the pre-crash
    state — a missing artifact, which loaders already treat as a miss.
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


class ArtifactStore:
    """Fingerprint-addressed persistence for trained matchers.

    One directory per trained matcher::

        <dir>/models/<name>_<fast|full>_<fp16>/       weights.npz, config.json, trained.json

    Loads are tolerant (any failure ⇒ ``None`` ⇒ caller retrains); saves are
    atomic and may legitimately raise ``OSError`` — a misconfigured artifact
    directory should surface, not hide.  Two exceptions to that raise:

    * a full, read-only or quota-exhausted disk (``ENOSPC``/``EROFS``/
      ``EDQUOT``) flips the store into **memory-only mode** — one warning,
      ``persistence_disabled = True``, every later save a silent no-op —
      because losing persistence must never fail the computation;
    * a model whose ``trained.json`` validates but whose weights or config
      fail to load is *corrupt* (as opposed to merely version-skewed): its
      directory is renamed to ``<name>.corrupt-<digest>`` instead of being
      overwritten, so the damage stays diagnosable and the retrain writes
      a clean directory.

    Counters are exposed as :attr:`stats`.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
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

    def _quarantine(self, directory: Path) -> Path | None:
        """Move a corrupt model directory aside as ``<name>.corrupt-<digest>``.

        The digest is over the corrupt bytes (the directory's files in name
        order), so repeated corruption of the same artifact quarantines to
        distinct names instead of overwriting the evidence.  Returns the
        quarantine path, or ``None`` when the move itself failed (the
        artifact then stays in place and the retrain overwrites it).
        """
        try:
            digest = hashlib.sha256()
            for member in sorted(directory.iterdir()):
                digest.update(member.read_bytes())
            target = directory.with_name(f"{directory.name}.corrupt-{digest.hexdigest()[:12]}")
            os.replace(directory, target)
        except OSError:
            return None
        self.quarantined += 1
        return target

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
