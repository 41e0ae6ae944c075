"""Chaos hardening: fault-free overhead and recovery cost of the robust paths.

Retry loops, deadline checks and fsync barriers run through the sweep
runner, the atomic writers and the prediction engine.  This benchmark pins
the two costs that hardening is allowed to have:

* **fault-free overhead** — the same serial saliency sweep is executed with
  the hardening effectively disabled (``retries=0``, no deadline, no
  backoff) and with the default hardened configuration.  No plan is
  installed, so every ``fault_step`` takes its no-plan fast path; the
  hardened arm must stay within **10%** of the bare arm (best-of-``N`` per
  arm, plus a small absolute allowance so a sub-second workload cannot fail
  on scheduler noise), and both arms must produce byte-identical rows.
* **recovery overhead** — the same sweep under a seeded
  :class:`~repro.faults.FaultPlan` that fails every unit's first attempt
  (transient, zero backoff).  Rows must be byte-identical to the fault-free
  reference; the wall-clock ratio and retry count are reported so the cost
  of surviving a fault stays visible across PRs.

Results land in ``BENCH_chaos.json`` at the repository root.
``REPRO_BENCH_FAST=1`` shrinks the repeat count for the CI smoke job.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import env, faults
from repro.eval.harness import ExperimentHarness, HarnessConfig
from repro.eval.reporting import format_table
from repro.eval.runner import SweepRunner
from repro.faults import FaultPlan, FaultRule

from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_chaos.json"

#: Hardened-vs-bare wall-clock ratio ceiling (the acceptance criterion).
MAX_OVERHEAD_RATIO = 1.10

#: Absolute allowance added to the ratio check: at sub-second sweep scale a
#: single scheduler hiccup is larger than any believable hardening cost.
ABSOLUTE_SLACK_SECONDS = 0.05

CHAOS_CONFIG = HarnessConfig(
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


def _fast_mode() -> bool:
    return env.read_bool("REPRO_BENCH_FAST")


def _timed_sweep(harness: ExperimentHarness, runner: SweepRunner) -> tuple[float, list[dict]]:
    harness.runner = runner
    start = time.perf_counter()
    rows = harness.saliency_rows(methods=METHODS)
    return time.perf_counter() - start, rows


def test_chaos_overhead_and_recovery(benchmark, results_dir):
    repeats = 2 if _fast_mode() else 3

    def experiment():
        faults.clear_plan()
        # One harness per arm-set: models train once (untimed), so the timed
        # sweeps measure the explanation workload the hardening wraps.
        harness = ExperimentHarness(CHAOS_CONFIG)
        harness.saliency_rows(methods=METHODS)  # warm-up: train + prime caches

        bare_runner = SweepRunner(retries=0, deadline=0.0, backoff=0.0)
        hard_runner = SweepRunner()  # default hardening, env-configurable
        bare_best, hard_best = float("inf"), float("inf")
        bare_rows = hard_rows = None
        for _ in range(repeats):
            seconds, bare_rows = _timed_sweep(harness, bare_runner)
            bare_best = min(bare_best, seconds)
            seconds, hard_rows = _timed_sweep(harness, hard_runner)
            hard_best = min(hard_best, seconds)

        # Recovery arm: every unit's first attempt raises a transient fault.
        # The hit counter is global, and a retried unit re-executes before the
        # next unit starts, so odd hits are first attempts: one single-shot
        # rule per unit at steps 1, 3, 5, ...
        unit_count = len(harness.saliency_units(methods=METHODS))
        faults.install_plan(
            FaultPlan(
                rules=tuple(
                    FaultRule(scope="unit.body", step=1 + 2 * position)
                    for position in range(unit_count)
                )
            )
        )
        faulted_seconds, faulted_rows = _timed_sweep(
            harness, SweepRunner(backoff=0.0)
        )
        faulted = harness.last_sweep
        faults.clear_plan()

        return {
            "fault_free": {
                "bare_seconds": bare_best,
                "hardened_seconds": hard_best,
                "ratio": hard_best / bare_best if bare_best else 0.0,
                "identical": bare_rows == hard_rows,
            },
            "recovery": {
                "faulted_seconds": faulted_seconds,
                "ratio": faulted_seconds / hard_best if hard_best else 0.0,
                "retried": faulted.retried,
                "identical": faulted_rows == hard_rows,
            },
        }

    report = run_once(benchmark, experiment)

    payload = {
        "benchmark": "chaos",
        "workload": {
            "fast": _fast_mode(),
            "repeats": repeats,
            "shape": "serial saliency sweep: bare vs hardened vs first-attempt-faulted",
        },
        **report,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = [{"arm": name, **entry} for name, entry in report.items()]
    print("\n=== Chaos hardening: overhead and recovery ===")
    print(format_table(rows))
    print(
        f"fault-free overhead {report['fault_free']['ratio']:.3f}x, "
        f"recovery {report['recovery']['ratio']:.2f}x "
        f"({report['recovery']['retried']} retries) -> {RESULT_PATH.name}"
    )

    fault_free = report["fault_free"]
    assert fault_free["identical"], "hardened rows diverged from the bare runner's"
    allowed = fault_free["bare_seconds"] * MAX_OVERHEAD_RATIO + ABSOLUTE_SLACK_SECONDS
    assert fault_free["hardened_seconds"] <= allowed, (
        f"hardening overhead {fault_free['ratio']:.3f}x exceeds "
        f"{MAX_OVERHEAD_RATIO:.2f}x (+{ABSOLUTE_SLACK_SECONDS}s slack)"
    )
    recovery = report["recovery"]
    assert recovery["identical"], "recovered rows diverged from the fault-free run"
    assert recovery["retried"] > 0, "the fault plan never fired"
