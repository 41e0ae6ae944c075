"""Featurisation layer: content-cached batched assembly vs the naive loop.

The engineering complement to ``bench_prediction_engine.py`` one layer down:
the engine reduces how many *model invocations* the perturbed pairs cost,
this benchmark measures how much cheaper each remaining invocation's
*featurisation* becomes when per-value artifacts are interned and pairwise
comparisons memoised (``repro.models.featurizer``).

The workload is lattice-style — one pivot record, many token-subset
perturbations of the free record, with the free record on the left and then
on the right — exactly the shape CERTA's open-triangle exploration sends
through ``featurize``.  Results (per-model and overall
speedup, cache hit rates, byte-identity of the matrices) are written to
``BENCH_featurization.json`` at the repository root so the perf trajectory
stays machine-readable across PRs.  ``REPRO_BENCH_FAST=1`` shrinks the
workload for the CI smoke job.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from repro import env
from repro.certa.perturbation import perturbed_pair
from repro.data.registry import load_benchmark
from repro.eval.reporting import format_table
from repro.models.training import make_model

from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_featurization.json"
MODEL_NAMES = ("deeper", "deepmatcher", "ditto", "classical")


def _fast_mode() -> bool:
    return env.read_bool("REPRO_BENCH_FAST")


def _lattice_workload() -> list:
    """One pivot, many token-subset perturbations per support record, per side."""
    fast = _fast_mode()
    dataset = load_benchmark("AB", scale=0.25)
    base_pairs = dataset.test.pairs[: 3 if fast else 4]
    supports_per_pair = 6 if fast else 10
    pairs = []
    for pair in base_pairs:
        pairs.append(pair)
        for side, source in (("left", dataset.left), ("right", dataset.right)):
            free = getattr(pair, side)
            supports = [
                record for record in source if record.record_id != free.record_id
            ][:supports_per_pair]
            attributes = list(free.attribute_names())
            for support in supports:
                for size in range(1, len(attributes) + 1):
                    for subset in itertools.combinations(attributes, size):
                        pairs.append(perturbed_pair(pair, side, support, frozenset(subset)))
    return pairs


def test_featurization_speedup(benchmark, results_dir):
    """Naive vs content-cached featurisation: wall-clock, hit rates, identity."""
    pairs = _lattice_workload()

    def experiment():
        report = {}
        for name in MODEL_NAMES:
            # Fresh model per arm: every cache (value interning, pairwise
            # comparisons, token embeddings, the Jaro-Winkler memo) belongs
            # to it and starts cold.
            batched_model = make_model(name)
            start = time.perf_counter()
            batched_matrix = batched_model.featurize(pairs)
            batched_seconds = time.perf_counter() - start

            naive_model = make_model(name)
            naive_model.batched_featurization = False
            start = time.perf_counter()
            naive_matrix = naive_model.featurize(pairs)
            naive_seconds = time.perf_counter() - start

            report[name] = {
                "naive_seconds": naive_seconds,
                "batched_seconds": batched_seconds,
                "speedup": (naive_seconds / batched_seconds) if batched_seconds else 0.0,
                "identical": naive_matrix.tobytes() == batched_matrix.tobytes(),
                **batched_model.featurizer_stats.as_dict(),
            }
        return report

    per_model = run_once(benchmark, experiment)

    total_naive = sum(entry["naive_seconds"] for entry in per_model.values())
    total_batched = sum(entry["batched_seconds"] for entry in per_model.values())
    overall_speedup = (total_naive / total_batched) if total_batched else 0.0
    payload = {
        "benchmark": "featurization",
        "workload": {
            "dataset": "AB",
            "rows": len(pairs),
            "fast": _fast_mode(),
            "shape": "lattice-style: one pivot, token-subset perturbations of the free record, on either side",
        },
        "models": per_model,
        "overall": {
            "naive_seconds": total_naive,
            "batched_seconds": total_batched,
            "speedup": overall_speedup,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = [{"model": name, **entry} for name, entry in per_model.items()]
    print("\n=== Featurisation: content-cached batched assembly vs naive per-pair loop ===")
    print(format_table(rows))
    print(f"overall speedup: {overall_speedup:.1f}x over {len(pairs)} rows "
          f"-> {RESULT_PATH.name}")

    for name, entry in per_model.items():
        # Both paths must produce byte-identical feature matrices.
        assert entry["identical"], f"{name}: batched featurisation diverged from naive"
        assert entry["rows_built"] == len(pairs)
    # Acceptance: >= 3x cheaper featurisation on the perturbed-pair workload.
    assert overall_speedup >= 3.0, (
        f"expected >=3x featurisation speedup, got {overall_speedup:.2f}x"
    )
