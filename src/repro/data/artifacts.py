"""Atomic, crash-durable file writers.

Saved datasets, saved matchers and sweep reports reach disk through these
helpers: temp file + fsync + ``os.replace`` + a best-effort directory fsync,
so a crash at any byte leaves the old file or the new one, never a torn
one.  The ``IOH`` rules of :mod:`repro.analysis` flag write paths that
bypass them, and exempt only this module.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Mapping

import numpy as np

from repro import faults


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability).

    Failure is ignored: some filesystems (and sandboxes) refuse directory
    fsync, and losing rename durability there degrades to the pre-crash
    state: the old file, or none.
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


def write_atomic_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically and crash-durably.

    Temp file + ``os.replace`` keeps the write atomic; the explicit fsync of
    the temp file *before* the rename (plus a best-effort fsync of the
    directory after) keeps it durable — without it, a power loss after the
    rename can leave the new name pointing at unwritten blocks.
    """
    faults.fault_step("artifact.write")
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
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


def write_atomic_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write a ``.npz`` archive to ``path`` atomically and crash-durably.

    Same fsync-before-rename contract as :func:`write_atomic_text`.
    """
    faults.fault_step("artifact.write")
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            np.savez(handle, **arrays)
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


@contextlib.contextmanager
def atomic_writer(path: Path, mode: str = "w", newline: str | None = None):
    """A write handle whose contents reach ``path`` atomically and durably.

    The streaming counterpart of :func:`write_atomic_text` for callers that
    produce output incrementally (CSV writers, JSONL row streams): the handle
    writes to a temp file in ``path``'s directory, is fsynced on close, and
    ``os.replace``\\ d over ``path`` — so a crash mid-write leaves the old
    file (or nothing), never a torn one.  ``mode`` is ``"w"`` or ``"wb"``;
    ``newline`` is forwarded for text handles (pass ``""`` for ``csv``).

    Unlike :func:`write_atomic_text` and :func:`write_atomic_npz` (the
    writers of :func:`~repro.models.persistence.save_model`) this takes no
    ``artifact.write`` fault step: routing report and dataset writes through
    that scope would shift every chaos-plan hit count.
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
