"""Self-test of the benchmark: a tiny run of every workload, plus its checks.

    python3 perfbench/selftest.py

Run from the repository root (about two minutes).  It checks that

* every run prints exactly the metric names and units BENCHMARK.json lists,
  and passes its own output check;
* traced self times, summed per thread, fit in the traced wall;
* a tampered payload fails the output check, and the pinned serve-hot
  digests equal direct ``CertaExplainer`` runs;
* in a directory holding only BENCHMARK.json and the benchmark's own files
  the benchmark fails without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, HERE, PER_LAYER, PINS, SRC

ROOT = HERE.parent


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "4", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int) -> None:
    completed = run_benchmark(workload, trace)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    catalogue = PER_LAYER if trace else END_TO_END
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == catalogue, f"{workload}: printed metrics differ from the catalogue"
    if trace:
        assert result["metrics"]["trace.max_thread_self_frac"]["value"] <= 1.0, result["metrics"]
    print(f"ok  {workload} --trace {trace}")


def check_catalogue() -> list[str]:
    """BENCHMARK.json lists the catalogue's metrics; returns its workloads."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == PER_LAYER
    return [workload["name"] for workload in benchmark["workloads"]]


def check_output_check() -> None:
    """Pinned serve-hot digests match direct runs; a tampered payload does not."""
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.serve import explanation_payload

    pins = json.loads(PINS.read_text())["tiny"]["serve-hot"]
    dataset = workloads.load_dataset("AB")
    model = workloads.train_model("deepmatcher", dataset, fast=True, cache_predictions=False).model
    system = workloads.BatchSystem(model, dataset.left, dataset.right, [])
    triangles = workloads.SIZES["tiny"]["serve-hot"]["triangles"]
    for pair in workloads.serve_pool(dataset)[:3]:
        key = workloads.pair_key(pair)
        payload = explanation_payload(workloads.explain_with_fresh_engine(system, pair, triangles)[1])
        assert workloads.payload_matches(pins, key, payload), f"pin of {key} differs from a direct run"
        tampered = copy.deepcopy(payload)
        name = sorted(tampered["saliency"])[0]
        tampered["saliency"][name] += 1e-9
        assert not workloads.payload_matches(pins, key, tampered), "a tampered payload passed"
    print("ok  output check (pins match direct runs, tampering detected)")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", directory / "BENCHMARK.json")
        shutil.copytree(HERE, directory / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark("certa-wide", 0, cwd=directory)
    assert completed.returncode != 0, "the benchmark ran without the library sources"
    assert not completed.stdout.strip(), "the benchmark printed a result without the library sources"
    print("ok  fails without the library sources")


def main() -> int:
    for workload in check_catalogue():
        for trace in (0, 1):
            check_result(workload, trace)
    check_output_check()
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
