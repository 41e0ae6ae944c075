"""The library surface the end-to-end benchmark in ``perfbench/`` drives.

Runs ``perfbench/workloads.py``'s own helpers (``build_serve`` and
``build_wide``, which train with the keywords it passes, a fresh engine per
explanation, the counters ``LayerCounters`` reads) on three pairs pinned for
its ``tiny`` size, so a break shows before the benchmark runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.serve import explanation_payload

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_benchmark_helpers_reproduce_pinned_payloads(workloads):
    pins = json.loads((PERFBENCH / "pins.json").read_text())["tiny"]
    sizes = workloads.SIZES["tiny"]
    counters = workloads.LayerCounters()

    def check(system, pairs, triangles, pinned):
        for pair in pairs:
            _window, explanation = workloads.explain_with_fresh_engine(system, pair, triangles)
            key = workloads.pair_key(pair)
            assert workloads.payload_matches(pinned, key, explanation_payload(explanation)), key
            counters.add_explanation(explanation)

    # perfbench's own set-up functions build each system, training included.
    triangles = sizes["serve-hot"]["triangles"]
    (_service, dataset, model), _phases = workloads.build_serve(triangles)
    serve = workloads.BatchSystem(model, dataset.left, dataset.right, [])
    check(serve, workloads.serve_pool(dataset)[:2], triangles, pins["serve-hot"])
    wide, _phases = workloads.build_wide()
    by_key = {workloads.pair_key(pair): pair for pair in wide.test_pairs}
    check(wide, [by_key["L15|R49"]], sizes["certa-wide"]["triangles"], pins["certa-wide"])

    metrics = counters.metrics()
    assert metrics["lattice.nodes_evaluated"] > 0
    # One score cache: every engine miss is featurised once, nothing else is.
    assert metrics["engine.misses"] == metrics["featurize.rows"]
