"""Cold start vs warm start: the persistent model store (repro.data.artifacts).

A fresh process pays a warm-up before its first explanation: each source's
candidate-generation index is built and each matcher is trained.  The
artifact store persists the trained matcher, the one part whose rebuild costs
more than reading it back.  This benchmark measures what that saves:

* **model workload** — training a matcher vs warm-loading its weights
  through :class:`~repro.models.training.ModelCache`; scores must be
  byte-identical.
* **stack cold start** — the acceptance metric: time until a CERTA-ready
  stack (candidate-generation index over a ~5k-record synthetic source + a
  trained matcher) is usable.  Cold = index build + training; warm = index
  build + weight load (indexes are not persisted: a build costs milliseconds
  at paper scale).  The warm stack must come up **>= 2x** faster.  (Index
  builds run with the collector paused: the GC tax of scanning pytest's
  large module heap mid-phase would otherwise dominate a ~60 ms
  measurement.)
* **cold-start smoke** — a small sweep run to completion in one interpreter,
  then re-run *in a fresh interpreter* against the same ``REPRO_ARTIFACT_DIR``:
  the second process must retrain **zero** models and produce identical
  result rows.

Results land in ``BENCH_artifact_store.json`` at the repository root so the
perf trajectory stays machine-readable across PRs.  ``REPRO_BENCH_FAST=1``
shrinks the source for the CI smoke job.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import env
from repro.data.artifacts import ARTIFACT_DIR_ENV, ArtifactStore, dataset_fingerprint
from repro.data.indexing import _TOKEN_SET_CACHE, get_source_index
from repro.data.records import Record, Schema
from repro.data.registry import load_benchmark
from repro.data.synthetic import PRODUCT_BRANDS, PRODUCT_QUALIFIERS, PRODUCT_TYPES
from repro.data.table import DataSource
from repro.eval.reporting import format_table
from repro.models.training import ModelCache

from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_artifact_store.json"
SCHEMA = Schema.from_names(["name", "description", "price"])


def _fast_mode() -> bool:
    return env.read_bool("REPRO_BENCH_FAST")


def _product_record(rng: random.Random, prefix: str, index: int, source: str) -> Record:
    """A catalogue record with realistic text width (~25 description tokens).

    Cold-start cost is dominated by tokenising record text, so the source
    mirrors real product feeds (Abt-Buy-style long descriptions) rather than
    the minimal records of the unit-test fixtures.
    """
    brand = rng.choice(PRODUCT_BRANDS)
    kind = rng.choice(PRODUCT_TYPES)
    qualifiers = rng.sample(PRODUCT_QUALIFIERS, k=rng.randint(4, 6))
    extras = " ".join(
        f"{rng.choice(PRODUCT_QUALIFIERS)} {rng.choice(PRODUCT_TYPES)}" for _ in range(6)
    )
    return Record.from_raw(
        f"{prefix}{index}",
        {
            "name": f"{brand} {kind} {rng.choice(PRODUCT_QUALIFIERS)} series {index % 53}",
            "description": (
                f"{brand} {' '.join(qualifiers)} {kind} model {index % 97} "
                f"with {extras} bundle edition {index % 31}"
            ),
            "price": f"{rng.randint(20, 900)}.{rng.randint(0, 99):02d}",
        },
        SCHEMA,
        source=source,
    )


def _make_source(size: int) -> DataSource:
    """A fresh source with freshly constructed records (no cached digests)."""
    rng = random.Random(42)
    return DataSource(
        name="bench-artifact-source",
        schema=SCHEMA,
        records=[_product_record(rng, "S", index, "U") for index in range(size)],
    )


def _index_build_seconds(size: int) -> float:
    """Seconds to build the index of a fresh ``size``-record source (GC paused)."""
    source = _make_source(size)
    _TOKEN_SET_CACHE.clear()
    gc.collect()
    gc.disable()  # see module docstring: GC hygiene for the ms-scale phase
    try:
        start = time.perf_counter()
        get_source_index(source, 2).ensure_fresh()
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_artifact_store_cold_vs_warm(benchmark, results_dir, monkeypatch):
    """Stack cold start vs model-store warm start (>= 2x on the stack).

    An ambient ``REPRO_ARTIFACT_DIR`` (the documented way to run the *other*
    benchmarks warm) is removed for this test: the cold phases must actually
    be cold, and the user's store must not be polluted by this run.
    """
    monkeypatch.delenv(ARTIFACT_DIR_ENV, raising=False)
    source_size = 1200 if _fast_mode() else 5000

    with tempfile.TemporaryDirectory() as tempdir:
        store = ArtifactStore(Path(tempdir) / "artifacts")

        def experiment():
            dataset = load_benchmark("AB", scale=0.5)
            sample = dataset.test.pairs[:10]

            # --- cold: build the index, train the matcher ------------------
            cold_index_seconds = _index_build_seconds(source_size)
            start = time.perf_counter()
            trained = ModelCache(fast=True, artifact_store=store).get("deepmatcher", dataset)
            train_seconds = time.perf_counter() - start
            trained_scores = trained.model.predict_proba(sample).tolist()

            # --- warm: build the index, load the weights -------------------
            warm_index_seconds = _index_build_seconds(source_size)
            start = time.perf_counter()
            loaded = ModelCache(fast=True, artifact_store=store).get("deepmatcher", dataset)
            load_seconds = time.perf_counter() - start
            loaded_scores = loaded.model.predict_proba(sample).tolist()

            stack_cold = cold_index_seconds + train_seconds
            stack_warm = warm_index_seconds + load_seconds
            return {
                "model": {
                    "train_seconds": train_seconds,
                    "warm_load_seconds": load_seconds,
                    "speedup": (train_seconds / load_seconds) if load_seconds else 0.0,
                    "identical": trained_scores == loaded_scores,
                    "model_loads": store.stats.model_loads,
                },
                "stack": {
                    "source_records": source_size,
                    "cold_index_seconds": cold_index_seconds,
                    "warm_index_seconds": warm_index_seconds,
                    "cold_seconds": stack_cold,
                    "warm_seconds": stack_warm,
                    "speedup": (stack_cold / stack_warm) if stack_warm else 0.0,
                },
            }

        report = run_once(benchmark, experiment)

    payload = {
        "benchmark": "artifact_store",
        "workload": {
            "source_records": report["stack"]["source_records"],
            "fast": _fast_mode(),
            "shape": "index build + model train vs index build + weight load",
        },
        **report,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print("\n=== Artifact store: cold start vs warm start ===")
    for name, entry in report.items():
        print(format_table([{"workload": name, **entry}]))
    print(
        f"stack warm start: {report['stack']['speedup']:.1f}x "
        f"(model load {report['model']['speedup']:.0f}x over training) -> {RESULT_PATH.name}"
    )

    assert report["model"]["identical"], "warm-loaded matcher diverged from the trained one"
    assert report["model"]["model_loads"] == 1, "the warm path retrained instead of loading"
    # Acceptance: the warm cold-start of the stack (index + matcher) over the
    # synthetic source comes up at least 2x faster than the cold one.
    assert report["stack"]["speedup"] >= 2.0, (
        f"expected >=2x warm stack cold-start, got {report['stack']['speedup']:.2f}x"
    )


_SMOKE_SCRIPT = """
import json, sys
from repro.eval.harness import ExperimentHarness, HarnessConfig

config = HarnessConfig(
    datasets=("BA",), models=("classical",), dataset_scale=0.25,
    pairs_per_dataset=2, num_triangles=4,
)
harness = ExperimentHarness(config)
units = harness.augmentation_supply_units(
    datasets=("BA",), models=("classical",), target_triangles=8, pairs_per_dataset=2
)
result = harness.sweep(units)
store = harness.artifact_store
payload = {
    "rows": result.rows,
    "store": store.stats.as_dict() if store is not None else None,
}
print("SMOKE:" + json.dumps(payload, sort_keys=True))
"""


def _run_smoke_process(artifact_dir: str) -> dict:
    environment = dict(os.environ)
    environment[ARTIFACT_DIR_ENV] = artifact_dir
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + environment.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SMOKE_SCRIPT],
        capture_output=True, text=True, timeout=600, env=environment,
    )
    assert completed.returncode == 0, f"smoke process failed:\n{completed.stderr[-2000:]}"
    lines = [line for line in completed.stdout.splitlines() if line.startswith("SMOKE:")]
    assert lines, f"no smoke payload in output:\n{completed.stdout[-2000:]}"
    return json.loads(lines[-1][len("SMOKE:"):])


def test_cold_start_smoke_fresh_process_rebuilds_nothing():
    """Sweep, die, re-run fresh: zero retrains and identical rows.

    Two fully separate interpreters share only ``REPRO_ARTIFACT_DIR``.  The
    first pays the cold start and persists every trained matcher; the second
    must prove each reuse safe by dataset fingerprint and therefore *load*
    them all: ``model_saves == 0`` (no training ran).
    """
    with tempfile.TemporaryDirectory() as artifact_dir:
        first = _run_smoke_process(artifact_dir)
        second = _run_smoke_process(artifact_dir)

    assert first["store"]["model_saves"] >= 1
    assert second["store"]["model_saves"] == 0, (
        f"fresh process retrained a model: {second['store']}"
    )
    assert second["store"]["model_loads"] >= 1
    assert second["rows"] == first["rows"]
    print("\ncold-start smoke: run 2 stats", second["store"])


def test_dataset_fingerprint_is_stable_across_processes():
    """The model-artifact key must not depend on process-local state."""
    script = (
        "import json\n"
        "from repro.data.registry import load_benchmark\n"
        "from repro.data.artifacts import dataset_fingerprint\n"
        "print('FP:' + dataset_fingerprint(load_benchmark('BA', scale=0.25)))\n"
    )
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + environment.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=environment,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    remote = [line for line in completed.stdout.splitlines() if line.startswith("FP:")][-1][3:]
    local = dataset_fingerprint(load_benchmark("BA", scale=0.25))
    assert remote == local
