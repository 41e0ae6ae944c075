"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark file reproduces one table or figure of the paper's Section 5.
They all share one :class:`ExperimentHarness` (so matchers are trained once per
dataset) and print their table to stdout; CSV copies land in
``benchmarks/results/``.

The harness executes every experiment through the work-unit sweep runner
(:mod:`repro.eval.runner`); no benchmark file hand-rolls a sweep loop.  Two
environment variables control execution:

* ``REPRO_EXECUTOR`` — ``serial`` (default) or ``processes``: how work
  units are executed.  Rows are identical regardless of executor.
* ``REPRO_CHECKPOINT=1`` — persist completed units to
  ``benchmarks/results/checkpoints/benchmark_units.jsonl`` so an interrupted
  benchmark run resumes from where it stopped (delete the file, or change the
  configuration, to force a fresh sweep).

Saliency and counterfactual rows are shared between tables through
session-scoped fixtures (``saliency_rows`` / ``counterfactual_rows``), so the
expensive sweeps run once per pytest session and cannot leak across
configurations the way a module-level cache could.

Runtime is controlled by the harness configuration: the default is a reduced
sweep (3 datasets, 3 matchers, tau = 20 open triangles, a handful of test
pairs per dataset) that completes in minutes.  Set ``REPRO_FULL=1`` to run the
full 12-dataset, tau = 100 configuration of the paper.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import env
from repro.eval.harness import ExperimentHarness, HarnessConfig, full_config
from repro.eval.runner import SweepRunner

RESULTS_DIR = Path(__file__).parent / "results"


def benchmark_config() -> HarnessConfig:
    """The harness configuration used by the benchmark suite."""
    if env.read_bool("REPRO_FULL"):
        return full_config()
    return HarnessConfig(
        datasets=("AB", "BA", "FZ"),
        models=("deeper", "deepmatcher", "ditto"),
        dataset_scale=0.5,
        pairs_per_dataset=6,
        num_triangles=20,
        lime_samples=48,
        shap_coalitions=48,
        dice_candidates=60,
        fast_models=True,
        seed=7,
    )


def benchmark_runner() -> SweepRunner:
    """The sweep runner used by the benchmark suite (env-configurable)."""
    executor = env.read_str("REPRO_EXECUTOR")
    checkpoint = None
    if env.read_bool("REPRO_CHECKPOINT"):
        checkpoint = RESULTS_DIR / "checkpoints" / "benchmark_units.jsonl"
    return SweepRunner(executor=executor, checkpoint=checkpoint)


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    """One experiment harness shared by every benchmark (models trained once)."""
    return ExperimentHarness(benchmark_config(), runner=benchmark_runner())


@pytest.fixture(scope="session")
def saliency_rows(harness) -> list[dict[str, object]]:
    """Saliency rows shared by the Table 2 and Table 3 benchmarks.

    The sweep runs here, at fixture setup, so the pytest-benchmark timings of
    the tests that consume it only measure their reduction step; the real
    sweep wall-clock is printed below (and measured per executor by
    ``bench_sweep_runner.py``).
    """
    rows = harness.saliency_rows()
    manifest = harness.last_sweep.manifest()
    print(f"\n[sweep] saliency: {manifest['units_executed']} units executed "
          f"({manifest['units_cached']} cached) in {manifest['wall_seconds']:.1f}s "
          f"via the {manifest['executor']} executor")
    return rows


@pytest.fixture(scope="session")
def counterfactual_rows(harness) -> list[dict[str, object]]:
    """Counterfactual rows shared by Tables 4-6 and Figure 10 (see
    ``saliency_rows`` for where the sweep wall-clock is reported)."""
    rows = harness.counterfactual_rows()
    manifest = harness.last_sweep.manifest()
    print(f"\n[sweep] counterfactual: {manifest['units_executed']} units executed "
          f"({manifest['units_cached']} cached) in {manifest['wall_seconds']:.1f}s "
          f"via the {manifest['executor']} executor")
    return rows


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark CSV artefacts are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are minutes-long sweeps; statistical repetition is neither
    needed nor affordable, so every benchmark uses a single round.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)
