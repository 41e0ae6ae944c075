"""Work-unit sweep runner: parallel, checkpointable experiment execution.

Every experiment of the paper's Section 5 decomposes into independent
**work units** — one :class:`WorkUnit` per (dataset, model, method,
pair-batch) cell of a sweep.  The :class:`SweepRunner` executes a list of
units through one of two executors (``serial`` or ``processes``),
checkpoints every completed unit to a JSONL :class:`CheckpointStore` and
returns a :class:`SweepResult` whose rows are deterministically ordered, so
that

* ``serial`` and ``processes`` runs of the same configuration produce
  **identical row lists**,
* an interrupted sweep **resumes** from the checkpoint store (same
  :func:`config_hash` ⇒ completed units are reused verbatim), and
* a resumed run is byte-for-byte equal to an uninterrupted one (rows are
  normalised to plain JSON-compatible Python values before they are either
  stored or returned).

The experiment bodies themselves live in :mod:`repro.eval.harness`; they are
registered here by name (see :func:`experiment_runner`) so a unit can be
pickled to a worker process as data only.  Worker processes lazily build
their own :class:`~repro.eval.harness.ExperimentHarness` (dataset generation
and model training are deterministic, so a worker-trained matcher scores
pairs exactly like the parent's) and memoise it per configuration hash —
the per-worker warm-up that makes process pools affordable.

Typical use::

    harness = ExperimentHarness(config, runner=SweepRunner(
        executor="processes", checkpoint="results/units.jsonl"))
    rows = harness.saliency_rows()          # resumable, parallel sweep
    print(harness.last_sweep.manifest())    # units run / cached / skipped
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro import faults
from repro.eval.reporting import aggregate_skip_errors, read_jsonl, write_manifest
from repro.exceptions import DeadlineError, EvaluationError, is_transient

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness imports us)
    from repro.eval.harness import ExperimentHarness, HarnessConfig

#: Bump to invalidate every existing checkpoint store (stored with each unit).
#: 2: outcomes grew retry/deadline provenance and rows a ``skip_errors``
#: taxonomy column, so version-1 checkpoint rows no longer byte-match.
RUNNER_SCHEMA_VERSION = 2

#: The executors :class:`SweepRunner` supports.
EXECUTORS = ("serial", "processes")

#: Ceiling of the backoff between retries of one unit.
MAX_BACKOFF_SECONDS = 2.0


def backoff_delay(base: float, attempt: int, key: str) -> float:
    """Backoff before retry ``attempt`` (1-based): exponential plus jitter.

    The jitter factor in [1, 2) is derived from ``(key, attempt)`` — fully
    deterministic, so two runs of the same sweep sleep identically, while
    distinct units desynchronise instead of retrying in lockstep.
    """
    if base <= 0.0:
        return 0.0
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    jitter = 1.0 + int.from_bytes(digest[:4], "big") / 2**32
    return min(MAX_BACKOFF_SECONDS, base * (2 ** (attempt - 1)) * jitter)


# --------------------------------------------------------------------- values


def _plain(value: object) -> object:
    """``value`` as a plain JSON-compatible Python object.

    Numpy scalars become Python scalars, tuples become lists, mappings become
    plain dicts.  Applied to every row before it is stored or returned, so
    cached and freshly-computed rows compare (and serialise) identically.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def normalise_row(row: Mapping[str, object]) -> dict[str, object]:
    """A row dict with every value converted to plain Python (see :func:`_plain`)."""
    return {str(key): _plain(value) for key, value in row.items()}


def config_hash(config: "HarnessConfig") -> str:
    """Stable digest of a harness configuration (plus the runner schema).

    Two sweeps share checkpointed units exactly when their hashes match;
    changing any configuration field (or bumping
    :data:`RUNNER_SCHEMA_VERSION`) invalidates the cache.
    """
    payload = {"schema": RUNNER_SCHEMA_VERSION, "config": _plain(dataclasses.asdict(config))}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


# ------------------------------------------------------------------ work units


@dataclass(frozen=True, order=True)
class WorkUnit:
    """One independent cell of an experiment sweep.

    A unit is pure data — experiment name plus the coordinates of the cell —
    so it can be hashed (checkpoint key), sorted (deterministic row order)
    and pickled to worker processes.  ``params`` holds experiment-specific
    extras as a tuple of ``(name, value)`` pairs with primitive (or tuple)
    values; the field order **is** the canonical sort order:
    (experiment, dataset, model, method, index, params).
    """

    experiment: str
    dataset: str = ""
    model: str = ""
    method: str = ""
    index: int = 0
    params: tuple[tuple[str, object], ...] = ()

    def param(self, name: str, default: object = None) -> object:
        """The value of extra parameter ``name`` (``default`` if absent)."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def as_dict(self) -> dict[str, object]:
        """JSON-compatible view (used for the unit id and checkpoint lines)."""
        return {
            "experiment": self.experiment,
            "dataset": self.dataset,
            "model": self.model,
            "method": self.method,
            "index": self.index,
            "params": {str(key): _plain(value) for key, value in self.params},
        }

    @property
    def unit_id(self) -> str:
        """Stable content-derived identifier (checkpoint store key)."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Human-readable cell label for logs and error messages."""
        parts = [self.experiment, self.dataset, self.model, self.method]
        text = "/".join(part for part in parts if part)
        return f"{text}[{self.index}]"


#: An experiment body: ``(harness, unit) -> (rows, skipped)``.
ExperimentFunction = Callable[["ExperimentHarness", WorkUnit], tuple[list[dict], int]]

_EXPERIMENTS: dict[str, ExperimentFunction] = {}


def experiment_runner(name: str) -> Callable[[ExperimentFunction], ExperimentFunction]:
    """Register ``function`` as the body executing units of experiment ``name``.

    Registration-by-name keeps :class:`WorkUnit` pure data: a worker process
    resolves the name back to the function after importing the experiment
    module, so nothing but primitives ever crosses the pickle boundary.
    """

    def register(function: ExperimentFunction) -> ExperimentFunction:
        _EXPERIMENTS[name] = function
        return function

    return register


def experiment_function(name: str) -> ExperimentFunction:
    """The registered body for experiment ``name`` (importing the built-ins)."""
    if name not in _EXPERIMENTS:
        import repro.eval.harness  # noqa: F401  (registers the built-in experiments)
    try:
        return _EXPERIMENTS[name]
    except KeyError as exc:
        raise EvaluationError(
            f"unknown experiment {name!r}; registered: {sorted(_EXPERIMENTS)}"
        ) from exc


# -------------------------------------------------------------- unit execution


@dataclass
class UnitOutcome:
    """The result of one work unit: rows, skip count and provenance.

    ``retried`` counts re-executions the unit needed (transient failures,
    deadline overruns and worker-crash requeues alike); ``deadline_exceeded``
    counts attempts that overran the per-unit deadline.  Both are provenance,
    not results: cached outcomes restore them so resumed manifests match.
    """

    unit: WorkUnit
    rows: list[dict[str, object]]
    skipped: int = 0
    seconds: float = 0.0
    cached: bool = False
    retried: int = 0
    deadline_exceeded: int = 0


def execute_unit(
    unit: WorkUnit,
    harness: "ExperimentHarness",
    retries: int = 2,
    deadline: float = 0.0,
    backoff: float = 0.05,
) -> UnitOutcome:
    """Run one unit against ``harness`` with bounded retry, and normalise.

    Transient failures (see :func:`repro.exceptions.is_transient`) re-execute
    up to ``retries`` times with exponential backoff (base ``backoff``
    seconds) + deterministic jitter; permanent failures raise
    :class:`EvaluationError` immediately.  With a ``deadline`` set (seconds;
    0 disables it), an attempt that overruns it counts as a transient
    failure while retry budget remains; the *final* attempt's rows are
    accepted late rather than discarded — the experiment bodies are
    deterministic, so a slow correct answer still byte-matches a fast one —
    with the overrun recorded in ``deadline_exceeded``.  Negative values
    count as 0.
    """
    function = experiment_function(unit.experiment)
    retries = max(0, retries)
    deadline = max(0.0, deadline)
    backoff = max(0.0, backoff)
    start = time.perf_counter()
    retried = 0
    deadline_exceeded = 0
    attempt = 0
    while True:
        attempt += 1
        attempt_start = time.perf_counter()
        try:
            faults.fault_step("unit.body")
            rows, skipped = function(harness, unit)
            elapsed = time.perf_counter() - attempt_start
            if deadline and elapsed > deadline:
                deadline_exceeded += 1
                if attempt <= retries:
                    raise DeadlineError(
                        f"work unit {unit.label()} took {elapsed:.3f}s "
                        f"(deadline {deadline:g}s)"
                    )
            break
        except Exception as exc:
            if attempt <= retries and is_transient(exc):
                retried += 1
                delay = backoff_delay(backoff, attempt, unit.unit_id)
                if delay:
                    time.sleep(delay)
                continue
            raise EvaluationError(f"work unit {unit.label()} failed: {exc}") from exc
    return UnitOutcome(
        unit=unit,
        rows=[normalise_row(row) for row in rows],
        skipped=int(skipped),
        seconds=time.perf_counter() - start,
        retried=retried,
        deadline_exceeded=deadline_exceeded,
    )


# Worker-side state for the ``processes`` executor.  Each worker builds (and
# memoises) its own harness per configuration hash: datasets and matchers are
# re-created locally instead of being pickled across, and repeated units reuse
# the warm caches.
_WORKER_HARNESSES: dict[str, "ExperimentHarness"] = {}


def _worker_harness(config: "HarnessConfig") -> "ExperimentHarness":
    from repro.eval.harness import ExperimentHarness

    key = config_hash(config)
    if key not in _WORKER_HARNESSES:
        _WORKER_HARNESSES[key] = ExperimentHarness(config)
    return _WORKER_HARNESSES[key]


def _warm_worker(config: "HarnessConfig", dataset_codes: Sequence[str]) -> None:
    """Process-pool initializer: build the harness and pre-load its datasets."""
    harness = _worker_harness(config)
    for code in dataset_codes:
        harness.dataset(code)


def _execute_in_worker(
    config: "HarnessConfig",
    unit: WorkUnit,
    retries: int,
    deadline: float,
    backoff: float,
) -> UnitOutcome:
    """Entry point executed inside a worker process."""
    harness = _worker_harness(config)
    return execute_unit(unit, harness, retries=retries, deadline=deadline, backoff=backoff)


# ------------------------------------------------------------ checkpoint store


class CheckpointStore:
    """Append-only JSONL store of completed work units.

    One line per completed unit: the configuration hash, the unit id (plus
    its readable coordinates), the normalised rows, the skip count and the
    wall-clock seconds.  :meth:`load` tolerates a truncated or corrupt tail —
    exactly what a killed sweep leaves behind — by skipping undecodable
    lines, so resuming is always safe: the torn unit simply re-executes, and
    the experiment bodies are deterministic, so the resumed rows byte-match
    an uninterrupted run.  :meth:`append` guards the complementary hazard: a
    file killed mid-append ends without a newline, and appending straight
    after it would weld the new entry onto the torn fragment — swallowing a
    *good* entry inside an undecodable line — so a missing trailing newline
    is repaired before each append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def _tail_missing_newline(self) -> bool:
        """Whether the store ends in a torn (newline-less) fragment."""
        try:
            with self.path.open("rb") as probe:
                probe.seek(-1, os.SEEK_END)
                return probe.read(1) != b"\n"
        except OSError:
            return False  # absent or empty file: nothing to repair

    def load(self, config_digest: str) -> dict[str, dict[str, object]]:
        """Entries recorded for ``config_digest``, keyed by unit id.

        Reading goes through :func:`repro.eval.reporting.read_jsonl`, which
        skips the truncated tail an interrupted run leaves behind.
        """
        entries: dict[str, dict[str, object]] = {}
        for entry in read_jsonl(self.path):
            if entry.get("config") != config_digest:
                continue
            if "unit" not in entry or "rows" not in entry:
                continue
            entries[str(entry["unit"])] = entry
        return entries

    def append(self, config_digest: str, outcome: UnitOutcome) -> None:
        """Record one completed unit (flushed immediately, one JSON line)."""
        entry = {
            "config": config_digest,
            "unit": outcome.unit.unit_id,
            "cell": outcome.unit.as_dict(),
            "rows": outcome.rows,
            "skipped": outcome.skipped,
            "seconds": outcome.seconds,
            "retried": outcome.retried,
            "deadline_exceeded": outcome.deadline_exceeded,
        }
        line = json.dumps(entry, sort_keys=True)
        action = faults.fault_step("checkpoint.append")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            prefix = "\n" if self._tail_missing_newline() else ""
            with self.path.open("a", encoding="utf-8") as handle:
                if action is not None and action.kind == "torn":
                    # Simulate a crash mid-append: half the line reaches the
                    # file, no newline, and the process dies on the spot.
                    handle.write(prefix + line[: max(1, len(line) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                    faults.kill_process(action.rule.exit_code)
                handle.write(prefix + line + "\n")
                handle.flush()


# ---------------------------------------------------------------- sweep result


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run`: ordered units plus provenance.

    ``worker_crashes`` counts process-pool breakages the run survived (each
    one is a pool respawn plus a requeue of every in-flight unit); it is
    always 0 for the ``serial`` executor.
    """

    outcomes: list[UnitOutcome]
    config_digest: str
    executor: str
    wall_seconds: float = 0.0
    worker_crashes: int = 0

    @property
    def rows(self) -> list[dict[str, object]]:
        """All rows, in canonical unit order (deterministic across executors)."""
        return [row for outcome in self.outcomes for row in outcome.rows]

    @property
    def skipped(self) -> int:
        """Total pairs/explanations skipped across all units."""
        return sum(outcome.skipped for outcome in self.outcomes)

    @property
    def cached_units(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def executed_units(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def retried(self) -> int:
        """Total unit re-executions (transient retries + crash requeues)."""
        return sum(outcome.retried for outcome in self.outcomes)

    @property
    def deadline_exceeded(self) -> int:
        """Total attempts that overran the per-unit deadline."""
        return sum(outcome.deadline_exceeded for outcome in self.outcomes)

    def manifest(self) -> dict[str, object]:
        """Run manifest: what ran, what was reused, what was skipped."""
        experiments = sorted({outcome.unit.experiment for outcome in self.outcomes})
        return {
            "schema": RUNNER_SCHEMA_VERSION,
            "config": self.config_digest,
            "executor": self.executor,
            "experiments": experiments,
            "units_total": len(self.outcomes),
            "units_cached": self.cached_units,
            "units_executed": self.executed_units,
            "rows": len(self.rows),
            "skipped": self.skipped,
            "skipped_errors": aggregate_skip_errors(self.rows),
            "retried": self.retried,
            "deadline_exceeded": self.deadline_exceeded,
            "worker_crashes": self.worker_crashes,
            "wall_seconds": self.wall_seconds,
        }


# ---------------------------------------------------------------- sweep runner


class SweepRunner:
    """Executes work units through one of two executors with checkpointing.

    Parameters
    ----------
    executor:
        ``"serial"`` (in-process loop, shares the calling harness) or
        ``"processes"`` (process pool; each worker warms up its own harness
        from the pickled configuration).
    max_workers:
        Pool width of the ``processes`` executor (default: CPU count, capped
        by the number of pending units).
    checkpoint:
        Path of a JSONL :class:`CheckpointStore` (or an existing store).
        When set, completed units are persisted as they finish and reused on
        the next run with the same configuration hash; a run manifest is
        written next to the store.
    retries / deadline / backoff:
        Per-unit retry budget, wall-clock deadline (seconds, 0 disables) and
        exponential-backoff base (seconds) for transient failures; negative
        values count as 0.  Process-pool workers receive them with each
        unit.  ``retries`` also bounds how often a unit may crash its worker.
    """

    def __init__(
        self,
        executor: str = "serial",
        max_workers: int | None = None,
        checkpoint: str | Path | CheckpointStore | None = None,
        retries: int = 2,
        deadline: float = 0.0,
        backoff: float = 0.05,
    ) -> None:
        if executor not in EXECUTORS:
            raise EvaluationError(f"unknown executor {executor!r}; available: {EXECUTORS}")
        self.executor = executor
        self.max_workers = max_workers
        self.retries = max(0, retries)
        self.deadline = max(0.0, deadline)
        self.backoff = max(0.0, backoff)
        self._worker_crashes = 0
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            self.store = checkpoint
        else:
            self.store = CheckpointStore(checkpoint)

    # ------------------------------------------------------------------- api

    def run(self, units: Iterable[WorkUnit], harness: "ExperimentHarness") -> SweepResult:
        """Execute ``units`` (deduplicated, canonically ordered) and reduce.

        Cached units (same configuration hash in the checkpoint store) are
        reused without execution; everything else runs through the configured
        executor.  The returned result's rows are identical regardless of
        executor choice and of how many units came from the cache.
        """
        ordered = sorted(set(units))
        digest = config_hash(harness.config)
        cached_entries = self.store.load(digest) if self.store is not None else {}

        outcomes: dict[str, UnitOutcome] = {}
        pending: list[WorkUnit] = []
        for unit in ordered:
            entry = cached_entries.get(unit.unit_id)
            if entry is not None:
                outcomes[unit.unit_id] = UnitOutcome(
                    unit=unit,
                    rows=list(entry.get("rows", [])),
                    skipped=int(entry.get("skipped", 0)),
                    seconds=float(entry.get("seconds", 0.0)),
                    cached=True,
                    retried=int(entry.get("retried", 0)),
                    deadline_exceeded=int(entry.get("deadline_exceeded", 0)),
                )
            else:
                pending.append(unit)

        self._worker_crashes = 0
        start = time.perf_counter()
        for outcome in self._execute(pending, harness):
            outcomes[outcome.unit.unit_id] = outcome
            if self.store is not None:
                self.store.append(digest, outcome)

        result = SweepResult(
            outcomes=[outcomes[unit.unit_id] for unit in ordered],
            config_digest=digest,
            executor=self.executor,
            wall_seconds=time.perf_counter() - start,
            worker_crashes=self._worker_crashes,
        )
        if self.store is not None:
            write_manifest(result.manifest(), self.path_for_manifest(result))
        return result

    def path_for_manifest(self, result: SweepResult) -> Path:
        """Where ``result``'s manifest lands: next to the checkpoint store,
        named per experiment so sweeps sharing one store keep one manifest
        each (e.g. ``units.saliency.manifest.json``)."""
        if self.store is None:
            raise EvaluationError("manifest path requested but no checkpoint store is configured")
        experiments = result.manifest()["experiments"] or ["run"]
        stem = self.store.path.with_suffix("")
        return stem.with_name(f"{stem.name}.{'+'.join(experiments)}.manifest.json")

    # ------------------------------------------------------------- executors

    def _pool_width(self, pending_count: int) -> int:
        width = self.max_workers or os.cpu_count() or 1
        return max(1, min(width, pending_count))

    def _execute(
        self, pending: Sequence[WorkUnit], harness: "ExperimentHarness"
    ) -> Iterable[UnitOutcome]:
        """Yield outcomes for ``pending`` as they complete (any order)."""
        if not pending:
            return
        if self.executor == "serial":
            for unit in pending:
                yield execute_unit(
                    unit, harness, retries=self.retries, deadline=self.deadline,
                    backoff=self.backoff,
                )
        else:  # processes
            yield from self._execute_processes(pending, harness)

    def _execute_processes(
        self, pending: Sequence[WorkUnit], harness: "ExperimentHarness"
    ) -> Iterable[UnitOutcome]:
        """The ``processes`` executor, hardened against worker crashes.

        A ``SIGKILL``-ed (or ``os._exit``-ed) worker breaks the whole
        ``ProcessPoolExecutor``: every in-flight future fails with
        :class:`BrokenProcessPool`.  Instead of aborting the sweep, the loop
        respawns a fresh pool and requeues every unit whose future broke,
        counting one ``worker_crash`` per pool generation and one ``retried``
        per requeue on the eventually-completed outcome.  A unit whose
        requeue count exceeds the retry budget is presumed to be *causing*
        the crashes and aborts the sweep with a permanent
        :class:`EvaluationError` — a deterministic crasher must not respawn
        pools forever.
        """
        warm_codes = sorted({unit.dataset for unit in pending if unit.dataset})
        queue: list[WorkUnit] = list(pending)
        requeues: dict[str, int] = {}
        crash_budget = self.retries + 1
        while queue:
            pool = ProcessPoolExecutor(
                max_workers=self._pool_width(len(queue)),
                initializer=_warm_worker,
                initargs=(harness.config, warm_codes),
            )
            futures = {
                pool.submit(
                    _execute_in_worker, harness.config, unit,
                    self.retries, self.deadline, self.backoff,
                ): unit
                for unit in queue
            }
            queue = []
            broken = False
            try:
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        unit = futures[future]
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            broken = True
                            count = requeues.get(unit.unit_id, 0) + 1
                            requeues[unit.unit_id] = count
                            if count >= crash_budget:
                                raise EvaluationError(
                                    f"work unit {unit.label()} crashed its worker "
                                    f"{count} time(s); giving up"
                                ) from None
                            queue.append(unit)
                            continue
                        outcome.retried += requeues.get(unit.unit_id, 0)
                        yield outcome
            finally:
                # wait=True: a detached management thread races the atexit
                # wakeup hook (EBADF at interpreter exit); a broken pool
                # joins promptly, its workers are already dead.
                pool.shutdown(wait=True, cancel_futures=True)
            if broken:
                self._worker_crashes += 1
