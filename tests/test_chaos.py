"""Chaos suite: seeded fault injection against the hardened subsystems.

The differential fuzz suite (``test_datasource_fuzz.py``) proves the library
computes the right answer; this suite proves it computes the *same* right
answer while the world misbehaves.  Every scenario follows one template:

1. compute a fault-free reference result,
2. install a deterministic :class:`repro.faults.FaultPlan`,
3. re-run and assert the rows/rankings/scores are **byte-equal** to the
   reference, with the recovery visible only in the provenance counters
   (``retried``, ``worker_crashes``, ``deadline_exceeded``).

Covered faults: transient work-unit errors (retry + backoff), per-unit
deadline overruns, a ``SIGKILL``-ed process-pool worker (pool respawn +
requeue), a real subprocess killed mid-checkpoint-append (torn-line resume)
and flaky model invocations (retry + poison-row bisection).  A plan naming a
scope outside :data:`repro.faults.FAULT_SCOPES` is rejected, so no scenario
here can pass by injecting nothing.

``REPRO_CHAOS_SEED`` shifts the harness and fuzz seeds so the CI matrix runs
the suite under several fixed seeds without any test-code changes.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import env, faults
from repro.data.artifacts import write_atomic_npz, write_atomic_text
from repro.eval.harness import ExperimentHarness, HarnessConfig
from repro.eval.runner import SweepRunner, WorkUnit, execute_unit, experiment_runner
from repro.exceptions import EvaluationError, ModelError, is_transient
from repro.faults import FaultPlan, FaultPlanError, FaultRule, InjectedFault
from repro.models.engine import PredictionEngine
from repro.models.persistence import load_model, save_model
from repro.models.training import make_model

from tests.helpers import SimilarityModel, toy_dataset, toy_pairs, toy_sources
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

    def test_unknown_scope_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault scope"):
            FaultRule(scope="index.dict")
        # A plan inherited through the environment goes through the same check.
        env.set_raw(faults.FAULT_PLAN_ENV, json.dumps({"rules": [{"scope": "unit.bdy"}]}))
        with pytest.raises(FaultPlanError, match="unknown fault scope"):
            faults.fault_step("unit.body")
        documented = re.findall(r"^``([a-z]+\.[a-z]+)``  ", faults.__doc__, re.MULTILINE)
        assert tuple(documented) == faults.FAULT_SCOPES

    def test_unparseable_env_plan_raises_instead_of_running_fault_free(self):
        env.set_raw(faults.FAULT_PLAN_ENV, "{not json")
        with pytest.raises(FaultPlanError, match="unparseable"):
            faults.fault_step("unit.body")

    def test_firing_window_is_deterministic(self):
        faults.install_plan(plan(FaultRule(scope="unit.body", step=2, times=2)))
        assert faults.fault_step("unit.body") is None  # hit 1: before the window
        for _ in range(2):  # hits 2-3: inside
            with pytest.raises(InjectedFault):
                faults.fault_step("unit.body")
        assert faults.fault_step("unit.body") is None  # hit 4: past the window
        assert faults.scope_hits("unit.body") == 4

    def test_unbounded_rule_fires_forever(self):
        faults.install_plan(plan(FaultRule(scope="engine.batch", step=2, times=0)))
        assert faults.fault_step("engine.batch") is None
        for _ in range(5):
            with pytest.raises(InjectedFault):
                faults.fault_step("engine.batch")

    def test_scopes_count_independently(self):
        faults.install_plan(plan(FaultRule(scope="unit.body", step=2)))
        assert faults.fault_step("unit.body") is None
        assert faults.fault_step("engine.batch") is None  # does not advance "unit.body"
        with pytest.raises(InjectedFault):
            faults.fault_step("unit.body")

    def test_injected_fault_is_a_transient_oserror(self):
        fault = InjectedFault(errno.ENOSPC, "injected")
        assert isinstance(fault, OSError) and fault.errno == errno.ENOSPC
        assert is_transient(fault)
        wrapped = EvaluationError("unit failed")
        wrapped.__cause__ = fault
        assert is_transient(wrapped)  # transience survives exception chaining

    def test_workers_parse_the_plan_from_the_environment(self):
        installed = plan(FaultRule(scope="unit.body", step=1))
        faults.install_plan(installed)
        # Simulate a worker: module state gone, environment inherited.
        faults._ACTIVE_PLAN = None
        faults._ENV_CACHE = (None, None)
        assert faults.active_plan() == installed

    def test_once_key_fires_at_most_once_across_processes(self, tmp_path):
        shared = plan(
            FaultRule(scope="unit.body", kind="error", once_key="crash-1"),
            state_dir=str(tmp_path),
        )
        faults.install_plan(shared)
        with pytest.raises(InjectedFault):
            faults.fault_step("unit.body")
        assert (tmp_path / "fired-crash-1").exists()
        # A second process would reinstall the same plan (fresh counters);
        # the marker file must keep the rule claimed.
        faults.install_plan(shared)
        assert faults.fault_step("unit.body") is None

    def test_negative_unit_budgets_clamp_at_zero(self):
        runner = SweepRunner(retries=-1, deadline=-3.0, backoff=-1.0)
        assert (runner.retries, runner.deadline, runner.backoff) == (0, 0.0, 0.0)

        @experiment_runner("test_one_row")
        def _one_row(harness, unit):  # registered for this test only
            return [{"value": 1}], 0

        unit, harness = WorkUnit("test_one_row"), ExperimentHarness(CONFIG)
        budgets = dict(retries=-1, deadline=-3.0, backoff=-1.0)
        # A negative deadline is no deadline, not one that every attempt overruns.
        outcome = execute_unit(unit, harness, **budgets)
        assert (outcome.retried, outcome.deadline_exceeded) == (0, 0)
        # A negative retry budget is none: the first transient fault is final.
        faults.install_plan(plan(FaultRule(scope="unit.body", times=1)))
        with pytest.raises(EvaluationError, match="test_one_row"):
            execute_unit(unit, harness, **budgets)


# --------------------------------------------------------------- atomic writers


class TestArtifactChaos:
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

    @pytest.mark.parametrize("step", [1, 2])
    def test_enospc_save_leaves_no_temp_file_and_no_loadable_model(self, tmp_path, step):
        """ENOSPC on the weights write (step 1) or the config write (step 2),
        into a fresh directory and over a saved model of another shape."""
        dataset = toy_dataset()
        old, new = make_model("deepmatcher", epochs=2), make_model("ditto", epochs=2)
        for model in (old, new):
            model.fit(dataset.train, dataset.valid)
        fresh, overwritten = tmp_path / "fresh", tmp_path / "overwritten"
        save_model(old, overwritten)
        for directory in (fresh, overwritten):
            faults.install_plan(
                plan(FaultRule(scope="artifact.write", step=step, errno_code=errno.ENOSPC))
            )
            with pytest.raises(InjectedFault) as excinfo:
                save_model(new, directory)
            assert excinfo.value.errno == errno.ENOSPC
            leftovers = [*directory.glob(".weights.npz.*"), *directory.glob(".config.json.*")]
            assert not leftovers
        with pytest.raises(ModelError):
            load_model(fresh)
        if step == 1:  # the failed save replaced nothing
            assert load_model(overwritten).name == "deepmatcher"
        else:  # the new weights sit beside the old config
            with pytest.raises(ModelError, match=re.escape(str(overwritten))):
                load_model(overwritten)


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
    mutation; running it with injected model faults proves the engine's
    retries preserve those equivalences mid-lifecycle, not just on a
    quiescent index.
    """

    @pytest.mark.parametrize("seed", [CHAOS_SEED * 10 + offset for offset in range(5)])
    def test_fuzz_sequences_survive_flaky_model_batches(self, seed):
        faults.install_plan(plan(FaultRule(scope="engine.batch", step=2, times=2)))
        _run_sequence(seed)
