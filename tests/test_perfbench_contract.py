"""The library surface the end-to-end benchmark in ``perfbench/`` drives.

Runs ``perfbench/workloads.py``'s own helpers (``build_serve`` and
``build_wide``, which train with the keywords it passes, a fresh engine per
explanation, the counters ``LayerCounters`` reads) on three pairs pinned for
its ``tiny`` size, so a break shows before the benchmark runs.  The served
pairs also go through the service, counted the way serve-hot counts them:
snapshot deltas of the model's featurizer and of both token indexes, and
the service's own ``ServeStats``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

from repro.data.indexing import DEFAULT_BLOCKING_TOKEN_LENGTH, get_source_index
from repro.serve import ExplainRequest, explanation_payload

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
    (service, dataset, model), _phases = workloads.build_serve(triangles)
    serve = workloads.BatchSystem(model, dataset.left, dataset.right, [])
    served_pairs = workloads.serve_pool(dataset)[:2]
    check(serve, served_pairs, triangles, pins["serve-hot"])
    check_served(workloads, service, dataset, model, served_pairs, pins["serve-hot"])
    wide, _phases = workloads.build_wide()
    by_key = {workloads.pair_key(pair): pair for pair in wide.test_pairs}
    check(wide, [by_key["L15|R49"]], sizes["certa-wide"]["triangles"], pins["certa-wide"])

    metrics = counters.metrics()
    assert metrics["lattice.nodes_evaluated"] > 0
    # One score cache: every engine miss is featurised once, nothing else is.
    assert metrics["engine.misses"] == metrics["featurize.rows"]


def check_served(workloads, service, dataset, model, pairs, pinned):
    """Serve ``pairs`` and read the counters serve-hot reads, as it reads them."""
    indexes = [
        get_source_index(source, DEFAULT_BLOCKING_TOKEN_LENGTH)
        for source in (dataset.left, dataset.right)
    ]
    features_before = model.featurizer_stats
    index_before = [index.stats for index in indexes]

    async def serve():
        async with service:
            return await service.explain_many(
                [ExplainRequest(target="ab", pair=pair) for pair in pairs]
            )

    for pair, response in zip(pairs, asyncio.run(serve())):
        assert workloads.payload_matches(pinned, workloads.pair_key(pair), response.payload)
    counters = workloads.LayerCounters()
    counters.add_engine(service.engine_stats("ab"))
    counters.add_featurizer(model.featurizer_stats - features_before)
    for index, before in zip(indexes, index_before):
        counters.add_index(index.stats - before)
    metrics = counters.metrics()
    # The service's engine is fresh, so each of its misses is featurised once.
    assert metrics["featurize.rows"] == metrics["engine.misses"] > 0
    assert metrics["index.queries"] > 0 and metrics["index.compile_ms"] == 0.0
    stats = service.stats
    assert (stats.requests, stats.completed, stats.shed) == (len(pairs), len(pairs), 0)
    assert stats.merged_pairs >= stats.deduped_pairs >= 0
    assert stats.dispatches >= max(1, stats.coalesced_dispatches)
