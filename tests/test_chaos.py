"""Chaos suite: seeded fault injection against the hardened subsystems.

The differential fuzz suite (``test_datasource_fuzz.py``) proves the library
computes the right answer; this suite proves it computes the *same* right
answer while the world misbehaves.  Every scenario follows one template:

1. compute a fault-free reference result,
2. install a deterministic :class:`repro.faults.FaultPlan`,
3. re-run and assert the rows/rankings/scores are **byte-equal** to the
   reference, with the recovery visible only in the provenance counters
   (``retried``, ``worker_crashes``, ``deadline_exceeded``,
   ``degraded_queries``, ``quarantined``).

Covered faults: transient work-unit errors (retry + backoff), per-unit
deadline overruns, a ``SIGKILL``-ed process-pool worker (pool respawn +
requeue), a real subprocess killed mid-checkpoint-append (torn-line resume),
corrupted artifact bytes (quarantine + rebuild), ``ENOSPC`` during artifact
writes (degrade-to-memory), flaky model invocations (retry + poison-row
bisection) and dict-walk index failures (degradation to the reference
scan).

``REPRO_CHAOS_SEED`` shifts the harness and fuzz seeds so the CI matrix runs
the suite under several fixed seeds without any test-code changes.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import env, faults
from repro.data.artifacts import ArtifactStore, write_atomic_npz, write_atomic_text
from repro.data.blocking import top_k_neighbours
from repro.data.indexing import _TOKEN_SET_CACHE, get_source_index
from repro.eval.harness import ExperimentHarness, HarnessConfig
from repro.eval.runner import (
    SweepRunner,
    unit_backoff,
    unit_deadline,
    unit_retries,
)
from repro.exceptions import EvaluationError, ModelError, is_transient
from repro.faults import FaultPlan, FaultPlanError, FaultRule, InjectedFault
from repro.models.engine import PredictionEngine

from tests.helpers import SimilarityModel, toy_pairs, toy_sources
from tests.test_datasource_fuzz import _run_sequence

#: The CI chaos matrix sets this to run the whole file under distinct seeds.
CHAOS_SEED = env.read_int("REPRO_CHAOS_SEED")

CONFIG = HarnessConfig(
    datasets=("BA",),
    models=("classical",),
    dataset_scale=0.4,
    pairs_per_dataset=3,
    num_triangles=8,
    lime_samples=16,
    shap_coalitions=16,
    dice_candidates=20,
    fast_models=True,
    seed=3 + CHAOS_SEED,
)

METHODS = ("certa", "shap")


def plan(*rules: FaultRule, state_dir: str = "") -> FaultPlan:
    return FaultPlan(rules=tuple(rules), state_dir=state_dir)


@pytest.fixture(scope="module")
def reference_rows():
    """Fault-free serial saliency rows — the byte-equality oracle."""
    faults.clear_plan()
    return ExperimentHarness(CONFIG).saliency_rows(methods=METHODS)


# --------------------------------------------------------------- plan mechanics


class TestFaultPlanMechanics:
    def test_plan_round_trips_through_json(self):
        original = plan(
            FaultRule(scope="unit.body", kind="kill", step=3, once_key="w1"),
            FaultRule(scope="engine.batch", errno_code=errno.ENOSPC, times=0),
            state_dir="/tmp/chaos-state",
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultRule(scope="unit.body", kind="meteor")

    def test_unparseable_env_plan_raises_instead_of_running_fault_free(self):
        env.set_raw(faults.FAULT_PLAN_ENV, "{not json")
        with pytest.raises(FaultPlanError, match="unparseable"):
            faults.fault_step("unit.body")

    def test_firing_window_is_deterministic(self):
        faults.install_plan(plan(FaultRule(scope="t", step=2, times=2)))
        assert faults.fault_step("t") is None  # hit 1: before the window
        for _ in range(2):  # hits 2-3: inside
            with pytest.raises(InjectedFault):
                faults.fault_step("t")
        assert faults.fault_step("t") is None  # hit 4: past the window
        assert faults.scope_hits("t") == 4

    def test_unbounded_rule_fires_forever(self):
        faults.install_plan(plan(FaultRule(scope="t", step=2, times=0)))
        assert faults.fault_step("t") is None
        for _ in range(5):
            with pytest.raises(InjectedFault):
                faults.fault_step("t")

    def test_scopes_count_independently(self):
        faults.install_plan(plan(FaultRule(scope="a", step=2)))
        assert faults.fault_step("a") is None
        assert faults.fault_step("b") is None  # does not advance scope "a"
        with pytest.raises(InjectedFault):
            faults.fault_step("a")

    def test_injected_fault_is_a_transient_oserror(self):
        fault = InjectedFault(errno.ENOSPC, "injected")
        assert isinstance(fault, OSError) and fault.errno == errno.ENOSPC
        assert is_transient(fault)
        wrapped = EvaluationError("unit failed")
        wrapped.__cause__ = fault
        assert is_transient(wrapped)  # transience survives exception chaining

    def test_workers_parse_the_plan_from_the_environment(self):
        installed = plan(FaultRule(scope="t", step=1))
        faults.install_plan(installed)
        # Simulate a worker: module state gone, environment inherited.
        faults._ACTIVE_PLAN = None
        faults._ENV_CACHE = (None, None)
        assert faults.active_plan() == installed

    def test_once_key_fires_at_most_once_across_processes(self, tmp_path):
        shared = plan(
            FaultRule(scope="t", kind="error", once_key="crash-1"),
            state_dir=str(tmp_path),
        )
        faults.install_plan(shared)
        with pytest.raises(InjectedFault):
            faults.fault_step("t")
        assert (tmp_path / "fired-crash-1").exists()
        # A second process would reinstall the same plan (fresh counters);
        # the marker file must keep the rule claimed.
        faults.install_plan(shared)
        assert faults.fault_step("t") is None

    def test_env_knobs_parse_and_clamp(self, monkeypatch):
        monkeypatch.setenv("REPRO_UNIT_RETRIES", "5")
        monkeypatch.setenv("REPRO_UNIT_DEADLINE", "-3")
        monkeypatch.setenv("REPRO_UNIT_BACKOFF", "not-a-number")
        assert unit_retries() == 5
        assert unit_deadline() == 0.0  # clamped at zero
        assert unit_backoff() == 0.05  # unparseable: default


# -------------------------------------------------------------- artifact store


def _fresh_sources(store):
    left, right = toy_sources()
    left.artifact_store = store
    right.artifact_store = store
    return left, right


def _scan_ids(query, source):
    return [r.record_id for r in top_k_neighbours(query, list(source), k=None, indexed=False)]


class TestArtifactChaos:
    def test_corrupt_write_is_quarantined_then_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        left, right = _fresh_sources(store)
        query = right.get("R0")
        faults.install_plan(plan(FaultRule(scope="artifact.write", kind="corrupt")))
        reference = [r.record_id for r in get_source_index(left, 2).top_k(query, k=None)]
        assert reference == _scan_ids(query, left)  # corruption is on disk only
        faults.clear_plan()

        left2, _ = _fresh_sources(store)
        _TOKEN_SET_CACHE.clear()
        index = get_source_index(left2, 2)
        rebuilt = [r.record_id for r in index.top_k(query, k=None)]
        assert rebuilt == reference
        assert (index.builds, index.loads) == (1, 0)  # poisoned artifact refused
        assert store.quarantined == 1
        assert list(store.directory.glob("**/*.corrupt-*")), "evidence file missing"
        # The rebuild re-saved a clean artifact: a third consumer warm-loads.
        left3, _ = _fresh_sources(store)
        _TOKEN_SET_CACHE.clear()
        index3 = get_source_index(left3, 2)
        assert [r.record_id for r in index3.top_k(query, k=None)] == reference
        assert (index3.builds, index3.loads) == (0, 1)

    def test_enospc_degrades_to_memory_with_one_warning(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        left, right = _fresh_sources(store)
        query = right.get("R0")
        faults.install_plan(
            plan(FaultRule(scope="artifact.write", errno_code=errno.ENOSPC, times=0))
        )
        with pytest.warns(RuntimeWarning, match="continuing memory-only"):
            reference = [r.record_id for r in get_source_index(left, 2).top_k(query, k=None)]
        assert reference == _scan_ids(query, left)
        assert store.persistence_disabled
        assert not list(store.directory.glob("indexes/*.npz"))
        # Later saves are silent no-ops: no second warning, no exception.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            get_source_index(right, 2).top_k(left.get("L0"), k=None)

    def test_atomic_writers_fsync_before_rename(self, tmp_path, monkeypatch):
        synced: list[int] = []
        replaced: list[int] = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        def recording_replace(src, dst):
            replaced.append(len(synced))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        write_atomic_text(tmp_path / "a.json", "{}")
        assert replaced and replaced[0] >= 1  # data fsynced before the rename
        synced.clear()
        replaced.clear()
        write_atomic_npz(tmp_path / "b.npz", {"x": np.arange(3)})
        assert replaced and replaced[0] >= 1


# ------------------------------------------------------------ prediction engine


class _PoisonModel:
    """Raises a transient fault whenever the poison pair is in the batch."""

    def __init__(self, inner, poison_id: str):
        self.inner = inner
        self.poison_id = poison_id

    def predict_proba(self, pairs):
        if any(pair.left.record_id == self.poison_id for pair in pairs):
            raise InjectedFault(errno.EIO, f"poison row {self.poison_id}")
        return self.inner.predict_proba(pairs)


class TestEngineChaos:
    def test_transient_fault_retries_to_identical_scores(self):
        left, right = toy_sources()
        pairs = toy_pairs(left, right)
        reference = PredictionEngine(SimilarityModel()).predict_proba(pairs)
        faults.install_plan(plan(FaultRule(scope="engine.batch", step=1, times=2)))
        engine = PredictionEngine(SimilarityModel())
        scores = engine.predict_proba(pairs)
        assert np.array_equal(scores, reference)
        assert engine.stats.retries == 2
        assert engine.stats.batches == 1  # only the successful invocation counts

    def test_persistent_batch_fault_bisects_to_identical_scores(self):
        left, right = toy_sources()
        pairs = toy_pairs(left, right)[:4]
        reference = PredictionEngine(SimilarityModel()).predict_proba(pairs)
        # The whole batch and its first half keep failing (hits 1-2); the
        # retry budget is zero, so recovery must come from bisection alone.
        faults.install_plan(plan(FaultRule(scope="engine.batch", step=1, times=2)))
        engine = PredictionEngine(SimilarityModel(), batch_size=4, retries=0)
        scores = engine.predict_proba(pairs)
        assert np.array_equal(scores, reference)
        assert engine.stats.batches == 3  # two quarter-chunks + second half

    def test_poison_row_is_isolated_and_named(self):
        left, right = toy_sources()
        pairs = toy_pairs(left, right)
        poison_id = pairs[2].left.record_id
        engine = PredictionEngine(_PoisonModel(SimilarityModel(), poison_id), retries=0)
        with pytest.raises(ModelError, match=f"pair \\({poison_id!r}"):
            engine.predict_proba(pairs)

    def test_permanent_model_failure_propagates_immediately(self):
        class Broken:
            def predict_proba(self, pairs):
                raise ValueError("not a transient failure")

        left, right = toy_sources()
        engine = PredictionEngine(Broken())
        with pytest.raises(ValueError, match="not a transient"):
            engine.predict_proba(toy_pairs(left, right)[:2])
        assert engine.stats.retries == 0


# -------------------------------------------------------------- index fallback


class TestIndexDegradation:
    def test_dict_fault_falls_back_to_scan_byte_equal(self):
        left, right = toy_sources()
        query = right.get("R0")
        reference = _scan_ids(query, left)
        faults.install_plan(plan(FaultRule(scope="index.dict", times=1)))
        index = get_source_index(left, 2)
        degraded = [r.record_id for r in index.top_k(query, k=None)]
        assert degraded == reference
        assert index.degraded_queries == 1
        assert index.stats.as_dict()["index_degraded_queries"] == 1
        # The next query runs fault-free and serves from the dict walk again.
        assert [r.record_id for r in index.top_k(query, k=3)] == reference[:3]
        assert index.degraded_queries == 1

    def test_bounded_k_and_exclusions_survive_degradation(self):
        left, right = toy_sources()
        query = right.get("R1")
        exclude = (left.ids()[0],)
        reference = [
            r.record_id
            for r in top_k_neighbours(query, list(left), k=3, exclude_ids=exclude, indexed=False)
        ]
        faults.install_plan(plan(FaultRule(scope="index.dict", times=0)))
        index = get_source_index(left, 2)
        result = [r.record_id for r in index.top_k(query, k=3, exclude_ids=exclude)]
        assert result == reference


# ----------------------------------------------------------------- sweep runner


class TestSweepChaos:
    def test_transient_unit_faults_retry_to_identical_rows(self, reference_rows):
        faults.install_plan(plan(FaultRule(scope="unit.body", step=1, times=2)))
        harness = ExperimentHarness(CONFIG, runner=SweepRunner(backoff=0.0))
        rows = harness.saliency_rows(methods=METHODS)
        assert rows == reference_rows
        result = harness.last_sweep
        assert result.retried == 2
        assert result.manifest()["retried"] == 2

    def test_retry_budget_exhaustion_is_a_permanent_failure(self):
        faults.install_plan(plan(FaultRule(scope="unit.body", times=0)))
        harness = ExperimentHarness(CONFIG, runner=SweepRunner(retries=1, backoff=0.0))
        with pytest.raises(EvaluationError, match="saliency/BA/classical"):
            harness.saliency_rows(methods=METHODS)

    def test_deadline_overrun_retries_and_counts(self, reference_rows):
        faults.install_plan(
            plan(FaultRule(scope="unit.body", kind="delay", delay=0.2, times=1))
        )
        runner = SweepRunner(deadline=0.1, backoff=0.0)
        harness = ExperimentHarness(CONFIG, runner=runner)
        rows = harness.saliency_rows(methods=METHODS)
        assert rows == reference_rows
        result = harness.last_sweep
        assert result.deadline_exceeded == 1
        assert result.retried == 1
        assert result.manifest()["deadline_exceeded"] == 1

    def test_rows_carry_the_skip_error_taxonomy(self, reference_rows):
        assert all("skip_errors" in row for row in reference_rows)
        harness = ExperimentHarness(CONFIG)
        rows = harness.saliency_rows(methods=METHODS)
        assert "skipped_errors" in harness.last_sweep.manifest()
        assert rows == reference_rows

    def test_killed_worker_respawns_pool_and_rows_match(self, tmp_path, reference_rows):
        faults.install_plan(
            plan(
                FaultRule(scope="unit.body", kind="kill", once_key="worker-crash"),
                state_dir=str(tmp_path),
            )
        )
        runner = SweepRunner(executor="processes", max_workers=2, backoff=0.0)
        harness = ExperimentHarness(CONFIG, runner=runner)
        rows = harness.saliency_rows(methods=METHODS)
        assert rows == reference_rows
        result = harness.last_sweep
        assert result.worker_crashes >= 1
        assert result.retried >= 1
        assert result.manifest()["worker_crashes"] >= 1
        assert (tmp_path / "fired-worker-crash").exists()

    def test_subprocess_sigkilled_mid_checkpoint_resumes_byte_equal(
        self, tmp_path, reference_rows
    ):
        """A real process dies (SIGKILL) halfway through a checkpoint append;
        the next run must resume from the intact prefix and byte-match."""
        checkpoint = tmp_path / "units.jsonl"
        torn = plan(
            FaultRule(scope="checkpoint.append", kind="torn", step=2), state_dir=str(tmp_path)
        )
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys\n"
                "from repro.eval.harness import ExperimentHarness, HarnessConfig\n"
                "from repro.eval.runner import SweepRunner\n"
                "config = HarnessConfig(**json.loads(sys.argv[1]))\n"
                "runner = SweepRunner(checkpoint=sys.argv[2])\n"
                "ExperimentHarness(config, runner=runner)"
                ".saliency_rows(methods=tuple(json.loads(sys.argv[3])))\n",
                json.dumps(dataclasses.asdict(CONFIG)),
                str(checkpoint),
                json.dumps(list(METHODS)),
            ],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                faults.FAULT_PLAN_ENV: torn.to_json(),
            },
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == -9, child.stderr  # died of SIGKILL, mid-append
        content = checkpoint.read_text(encoding="utf-8")
        assert not content.endswith("\n")  # the torn fragment is really there

        resumed = ExperimentHarness(CONFIG, runner=SweepRunner(checkpoint=checkpoint))
        assert resumed.saliency_rows(methods=METHODS) == reference_rows
        assert resumed.last_sweep.cached_units == 1  # the intact first unit
        assert resumed.last_sweep.executed_units == 1  # the torn one re-ran

        # The repaired store now parses completely: a third run is all-cache.
        final = ExperimentHarness(CONFIG, runner=SweepRunner(checkpoint=checkpoint))
        assert final.saliency_rows(methods=METHODS) == reference_rows
        assert final.last_sweep.executed_units == 0


# ------------------------------------------------------------------ chaos fuzz


class TestChaosFuzz:
    """Differential fuzz sequences re-run under fault plans.

    ``_run_sequence`` asserts indexed == scan equivalence after every
    mutation; running it with injected traversal and model faults proves the
    fallbacks preserve those equivalences mid-lifecycle, not just on a
    quiescent index.
    """

    @pytest.mark.parametrize("seed", [CHAOS_SEED * 10 + offset for offset in range(3)])
    def test_fuzz_sequences_survive_traversal_faults(self, seed):
        faults.install_plan(
            plan(
                FaultRule(scope="index.dict", step=2, times=3),
                FaultRule(scope="index.dict", step=8, times=2),
            )
        )
        _run_sequence(seed)

    @pytest.mark.parametrize("seed", [CHAOS_SEED * 10 + offset for offset in range(2)])
    def test_fuzz_sequences_survive_flaky_model_batches(self, seed):
        faults.install_plan(plan(FaultRule(scope="engine.batch", step=2, times=2)))
        _run_sequence(seed)
