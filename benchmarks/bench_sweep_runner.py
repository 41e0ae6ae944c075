"""Sweep runner: wall-clock and row-equality of serial vs parallel executors.

Not a table of the paper, but the engineering complement to the prediction
engine benchmark one layer up: the engine batches model invocations *within*
one explanation, while the sweep runner parallelises whole experiment cells
*across* cores.  The same saliency sweep is executed twice — ``serial`` and
``processes`` — each on a fresh harness (cold caches), and the benchmark
asserts the two row lists are identical before reporting the wall-clock
comparison.

This file doubles as the CI smoke test for the ``processes`` executor: it
exercises work-unit pickling, worker warm-up and the JSONL checkpoint store,
so import or pickling regressions fail fast.
"""

from __future__ import annotations

import time

from repro.eval.harness import ExperimentHarness, HarnessConfig
from repro.eval.reporting import format_table, skipped_summary, write_csv, write_jsonl
from repro.eval.runner import EXECUTORS, SweepRunner

from benchmarks.conftest import run_once

#: Deliberately smaller than the main benchmark configuration: each executor
#: gets a cold harness (processes even retrain per worker), so the comparison
#: must stay affordable while leaving enough work to amortise pool start-up.
SWEEP_CONFIG = HarnessConfig(
    datasets=("AB", "BA"),
    models=("deepmatcher",),
    dataset_scale=0.5,
    pairs_per_dataset=4,
    num_triangles=10,
    lime_samples=32,
    shap_coalitions=32,
    dice_candidates=40,
    fast_models=True,
    seed=7,
)

METHODS = ("certa", "mojito")


def test_sweep_runner_executor_equivalence_and_wall_clock(benchmark, results_dir, tmp_path):
    """Identical rows from every executor; wall-clock reported per executor."""

    def experiment():
        comparison = []
        rows_by_executor = {}
        for executor in EXECUTORS:
            runner = SweepRunner(
                executor=executor,
                max_workers=2,
                checkpoint=tmp_path / f"{executor}_units.jsonl",
            )
            harness = ExperimentHarness(SWEEP_CONFIG, runner=runner)
            start = time.perf_counter()
            rows = harness.saliency_rows(methods=METHODS)
            seconds = time.perf_counter() - start
            rows_by_executor[executor] = rows
            manifest = harness.last_sweep.manifest()
            comparison.append(
                {
                    "executor": executor,
                    "units": manifest["units_total"],
                    "rows": len(rows),
                    "skipped": manifest["skipped"],
                    "wall_seconds": seconds,
                }
            )
        return comparison, rows_by_executor

    comparison, rows_by_executor = run_once(benchmark, experiment)

    print("\n=== Sweep runner: wall-clock per executor (cold caches each) ===")
    print(format_table(comparison))
    write_csv(comparison, results_dir / "sweep_runner_executors.csv")

    serial_rows = rows_by_executor["serial"]
    assert serial_rows, "the sweep must produce rows"
    print(skipped_summary(serial_rows))
    write_jsonl(serial_rows, results_dir / "sweep_runner_rows.jsonl")
    assert rows_by_executor["processes"] == serial_rows, (
        "processes executor must reproduce the serial rows exactly"
    )

    # Resume from the serial checkpoint: every unit must come from the cache.
    resumed = ExperimentHarness(
        SWEEP_CONFIG,
        runner=SweepRunner(checkpoint=tmp_path / "serial_units.jsonl"),
    )
    assert resumed.saliency_rows(methods=METHODS) == serial_rows
    assert resumed.last_sweep.cached_units == resumed.last_sweep.manifest()["units_total"]
