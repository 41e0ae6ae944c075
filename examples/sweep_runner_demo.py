"""Sweep runner demo: parallel, checkpointable experiment execution.

Run with::

    python examples/sweep_runner_demo.py

Every experiment of the harness decomposes into independent work units
(dataset x model x method cells).  This script runs the same small saliency
sweep three ways and prints the run manifests:

1. **serial with a checkpoint store** — units land in a JSONL file as they
   complete;
2. **interrupted + resumed** — the store is truncated to simulate a killed
   run, and the next run re-executes only the missing unit while reusing the
   rest (the merged rows are asserted identical to the uninterrupted ones);
3. **process pool** — the same units on worker processes, each warming up its
   own harness; the rows are asserted identical to the serial run.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.data.artifacts import write_atomic_text
from repro.eval import ExperimentHarness, HarnessConfig, SweepRunner, format_table

CONFIG = HarnessConfig(
    datasets=("AB", "BA"),
    models=("classical",),
    dataset_scale=0.5,
    pairs_per_dataset=4,
    num_triangles=10,
    lime_samples=24,
    shap_coalitions=24,
    dice_candidates=30,
    fast_models=True,
    seed=11,
)

METHODS = ("certa", "shap")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="sweep_demo_"))
    store = workdir / "units.jsonl"

    # 1. Serial sweep with checkpointing: one JSONL line per completed unit.
    harness = ExperimentHarness(CONFIG, runner=SweepRunner(checkpoint=store))
    rows = harness.saliency_rows(methods=METHODS)
    print("=== saliency rows (serial, checkpointed) ===")
    print(format_table(rows))
    print(f"\ncheckpoint store: {store} ({len(store.read_text().splitlines())} units)")
    print(f"manifest: {harness.last_sweep.manifest()}")

    # 2. Simulate a kill mid-sweep: drop the last completed unit and leave a
    #    half-written line, then resume.  Only the missing unit re-runs.
    lines = store.read_text(encoding="utf-8").splitlines()
    write_atomic_text(store, "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    resumed = ExperimentHarness(CONFIG, runner=SweepRunner(checkpoint=store))
    resumed_rows = resumed.saliency_rows(methods=METHODS)
    assert resumed_rows == rows, "resumed rows must equal the uninterrupted run"
    manifest = resumed.last_sweep.manifest()
    print(f"\nafter simulated interruption: {manifest['units_cached']} units reused, "
          f"{manifest['units_executed']} re-executed — rows identical")

    # 3. The same sweep on a process pool: each worker builds its own harness
    #    (deterministic training), rows are byte-identical to the serial run.
    parallel = ExperimentHarness(CONFIG, runner=SweepRunner(executor="processes", max_workers=2))
    parallel_rows = parallel.saliency_rows(methods=METHODS)
    assert parallel_rows == rows, "process-pool rows must equal the serial run"
    print(f"\nprocess pool: {parallel.last_sweep.manifest()['units_executed']} units on "
          f"2 workers — rows identical to serial")

    total_skipped = sum(int(row["skipped"]) for row in rows)
    print(f"skipped explanations across the sweep: {total_skipped}")


if __name__ == "__main__":
    main()
