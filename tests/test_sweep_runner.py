"""Tests for the work-unit sweep runner: executors, checkpointing, determinism.

The contract under test (see ``repro/eval/runner.py``):

* ``serial`` and ``processes`` executors produce identical,
  deterministically-ordered row lists for the same configuration;
* an interrupted sweep (simulated by truncating the checkpoint store) resumes
  and its merged rows equal an uninterrupted run's, byte for byte;
* changing the configuration invalidates the checkpoint cache (config hash);
* skipped explanations are counted per unit and surfaced as a ``skipped``
  column in every experiment's rows instead of being silently dropped.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.harness import ExperimentHarness, HarnessConfig
from repro.eval.runner import (
    CheckpointStore,
    SweepRunner,
    WorkUnit,
    config_hash,
    execute_unit,
    experiment_runner,
    normalise_row,
)
from repro.exceptions import EvaluationError

TINY = HarnessConfig(
    datasets=("BA",),
    models=("classical",),
    dataset_scale=0.4,
    pairs_per_dataset=4,
    num_triangles=8,
    lime_samples=16,
    shap_coalitions=16,
    dice_candidates=20,
    fast_models=True,
    seed=3,
)

METHODS = ("certa", "shap")


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(TINY)


@pytest.fixture(scope="module")
def serial_rows(harness):
    """Reference saliency rows from the serial executor."""
    return harness.saliency_rows(methods=METHODS)


class TestWorkUnit:
    def test_unit_id_is_stable_and_content_derived(self):
        first = WorkUnit("saliency", dataset="BA", model="classical", method="certa")
        second = WorkUnit("saliency", dataset="BA", model="classical", method="certa")
        assert first.unit_id == second.unit_id
        assert first.unit_id != WorkUnit("saliency", dataset="AB").unit_id

    def test_params_change_the_unit_id(self):
        base = WorkUnit("monotonicity", dataset="BA", params=(("pairs_per_dataset", 2),))
        other = WorkUnit("monotonicity", dataset="BA", params=(("pairs_per_dataset", 3),))
        assert base.unit_id != other.unit_id

    def test_param_lookup_with_default(self):
        unit = WorkUnit("saliency", params=(("tau", 12),))
        assert unit.param("tau") == 12
        assert unit.param("missing", 7) == 7

    def test_canonical_ordering(self):
        units = [
            WorkUnit("saliency", dataset="FZ", model="ditto", method="shap"),
            WorkUnit("saliency", dataset="AB", model="ditto", method="shap"),
            WorkUnit("saliency", dataset="AB", model="deeper", method="certa"),
        ]
        ordered = sorted(units)
        assert [(unit.dataset, unit.model) for unit in ordered] == [
            ("AB", "deeper"), ("AB", "ditto"), ("FZ", "ditto"),
        ]

    def test_as_dict_is_json_serialisable(self):
        unit = WorkUnit("triangle_sweep", dataset="BA", index=5, params=(("models", ("a", "b")),))
        payload = json.dumps(unit.as_dict())
        assert "triangle_sweep" in payload

    def test_unknown_experiment_raises(self, harness):
        with pytest.raises(EvaluationError, match="unknown experiment"):
            execute_unit(WorkUnit("no-such-experiment"), harness)


class TestConfigHash:
    def test_same_config_same_hash(self):
        assert config_hash(TINY) == config_hash(HarnessConfig(**TINY.__dict__))

    def test_any_field_change_changes_the_hash(self):
        assert config_hash(TINY) != config_hash(TINY.with_overrides(num_triangles=9))
        assert config_hash(TINY) != config_hash(TINY.with_overrides(seed=4))


class TestNormalisation:
    def test_numpy_scalars_become_plain_python(self):
        import numpy as np

        row = normalise_row({"value": np.float64(1.5), "count": np.int64(3), "flag": np.bool_(True)})
        assert type(row["value"]) is float and type(row["count"]) is int and type(row["flag"]) is bool

    def test_rows_round_trip_through_json(self, serial_rows):
        restored = json.loads(json.dumps(serial_rows))
        assert restored == serial_rows


class TestCheckpointStore:
    def test_append_load_round_trip(self, tmp_path, harness):
        store = CheckpointStore(tmp_path / "units.jsonl")
        unit = WorkUnit("saliency", dataset="BA", model="classical", method="certa")
        outcome = execute_unit(unit, harness)
        store.append("digest", outcome)
        loaded = store.load("digest")
        assert loaded[unit.unit_id]["rows"] == outcome.rows
        assert loaded[unit.unit_id]["skipped"] == outcome.skipped

    def test_load_filters_by_config_hash(self, tmp_path, harness):
        store = CheckpointStore(tmp_path / "units.jsonl")
        unit = WorkUnit("saliency", dataset="BA", model="classical", method="certa")
        store.append("digest-a", execute_unit(unit, harness))
        assert store.load("digest-b") == {}

    def test_load_tolerates_corrupt_and_truncated_lines(self, tmp_path):
        path = tmp_path / "units.jsonl"
        good = json.dumps({"config": "d", "unit": "u1", "rows": [{"x": 1}], "skipped": 0})
        path.write_text(good + "\n" + "not json at all\n" + good[:25])
        store = CheckpointStore(path)
        loaded = store.load("d")
        assert set(loaded) == {"u1"}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.jsonl").load("d") == {}


class TestExecutorEquivalence:
    """Satellite: serial vs parallel executors must return identical rows."""

    def test_processes_match_serial(self, serial_rows):
        runner = SweepRunner(executor="processes", max_workers=2)
        rows = ExperimentHarness(TINY, runner=runner).saliency_rows(methods=METHODS)
        assert rows == serial_rows

    @pytest.mark.parametrize("executor", ["fleet", "threads"])
    def test_unknown_executor_rejected(self, executor):
        with pytest.raises(EvaluationError, match="unknown executor"):
            SweepRunner(executor=executor)

    def test_rows_are_in_canonical_unit_order(self, serial_rows):
        keys = [(row["dataset"], row["model"], row["method"]) for row in serial_rows]
        assert keys == sorted(keys)

    def test_shuffled_units_produce_identical_rows(self, harness, serial_rows):
        units = harness.saliency_units(methods=METHODS)
        shuffled = list(reversed(units)) + units  # duplicates are deduplicated too
        assert harness.sweep(shuffled).rows == serial_rows


class TestCheckpointResume:
    """Satellite: kill a sweep mid-run (truncate the store), resume, compare."""

    def test_resumed_run_matches_uninterrupted_run(self, tmp_path, serial_rows):
        path = tmp_path / "units.jsonl"
        first = ExperimentHarness(TINY, runner=SweepRunner(checkpoint=path))
        uninterrupted = first.saliency_rows(methods=METHODS)
        assert uninterrupted == serial_rows

        # Simulate a kill mid-run: drop the last completed unit and leave a
        # partially-written line behind, exactly what an interrupt produces.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(first.last_sweep.outcomes)
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])

        resumed = ExperimentHarness(TINY, runner=SweepRunner(checkpoint=path))
        assert resumed.saliency_rows(methods=METHODS) == uninterrupted
        assert resumed.last_sweep.cached_units == len(lines) - 1
        assert resumed.last_sweep.executed_units == 1

    def test_full_cache_reuses_every_unit(self, tmp_path, serial_rows):
        path = tmp_path / "units.jsonl"
        ExperimentHarness(TINY, runner=SweepRunner(checkpoint=path)).saliency_rows(methods=METHODS)
        resumed = ExperimentHarness(TINY, runner=SweepRunner(checkpoint=path))
        assert resumed.saliency_rows(methods=METHODS) == serial_rows
        assert resumed.last_sweep.executed_units == 0

    def test_config_change_invalidates_the_cache(self, tmp_path):
        path = tmp_path / "units.jsonl"
        ExperimentHarness(TINY, runner=SweepRunner(checkpoint=path)).saliency_rows(methods=METHODS)
        changed = ExperimentHarness(
            TINY.with_overrides(num_triangles=6), runner=SweepRunner(checkpoint=path)
        )
        changed.saliency_rows(methods=("certa",))
        assert changed.last_sweep.cached_units == 0
        assert changed.last_sweep.executed_units == 1

    def test_manifest_written_per_experiment_next_to_the_store(self, tmp_path):
        path = tmp_path / "units.jsonl"
        harness = ExperimentHarness(TINY, runner=SweepRunner(checkpoint=path))
        harness.saliency_rows(methods=("certa",))
        manifest = json.loads((tmp_path / "units.saliency.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == config_hash(TINY)
        assert manifest["units_total"] == 1
        assert manifest["experiments"] == ["saliency"]
        # A second experiment sharing the store gets its own manifest file.
        harness.monotonicity_rows(datasets=("BA",), model_name="classical", pairs_per_dataset=1, triangles_per_pair=2)
        assert (tmp_path / "units.monotonicity.manifest.json").exists()
        assert (tmp_path / "units.saliency.manifest.json").exists()


class TestSkippedAccounting:
    """Satellite: ExplanationError is counted, not silently swallowed."""

    def test_every_experiment_row_carries_a_skipped_column(self, harness):
        row_lists = [
            harness.saliency_rows(methods=("certa",)),
            harness.counterfactual_rows(methods=("certa",)),
            harness.triangle_sweep_rows(triangle_counts=(4,), datasets=("BA",), models=("classical",), pairs_per_dataset=2),
            harness.monotonicity_rows(datasets=("BA",), model_name="classical", pairs_per_dataset=1, triangles_per_pair=2),
            harness.prediction_engine_rows(datasets=("BA",), model_name="classical", pairs_per_dataset=2),
            harness.augmentation_supply_rows(datasets=("BA",), models=("classical",), target_triangles=10, pairs_per_dataset=1),
            harness.augmentation_effect_rows(datasets=("BA",), models=("classical",), pairs_per_dataset=2),
            harness.case_study_rows(code="BA", model_name="classical", max_pairs=1, methods=("certa",)),
            harness.monotone_ablation_rows(code="BA", model_name="classical", num_triangles=4, pairs_per_dataset=2),
        ]
        for rows in row_lists:
            assert rows
            for row in rows:
                assert isinstance(row["skipped"], int) and row["skipped"] >= 0

    def test_skip_counts_propagate_to_rows_store_and_manifest(self, tmp_path, harness):
        flaky_calls = {"count": 0}

        @experiment_runner("test_flaky")
        def _flaky(harness, unit):  # registered for this test only
            flaky_calls["count"] += 1
            return [{"dataset": unit.dataset, "value": 1.0, "skipped": 2}], 2

        runner = SweepRunner(checkpoint=tmp_path / "units.jsonl")
        result = runner.run([WorkUnit("test_flaky", dataset="BA")], harness=harness)
        assert result.skipped == 2
        assert result.rows[0]["skipped"] == 2
        assert result.manifest()["skipped"] == 2
        # The stored entry keeps the skip count for resumed runs.
        resumed = runner.run([WorkUnit("test_flaky", dataset="BA")], harness=harness)
        assert flaky_calls["count"] == 1
        assert resumed.skipped == 2


class TestSweepResult:
    def test_manifest_reconciles_with_outcomes(self, harness):
        rows = harness.saliency_rows(methods=METHODS)
        manifest = harness.last_sweep.manifest()
        assert manifest["rows"] == len(rows)
        assert manifest["units_total"] == manifest["units_cached"] + manifest["units_executed"]
        assert manifest["executor"] == "serial"

    def test_failed_unit_names_the_cell(self, harness):
        with pytest.raises(EvaluationError, match="saliency/BA/classical/nope"):
            harness.saliency_rows(methods=("nope",))
