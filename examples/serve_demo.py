"""Explanation serving: many concurrent clients over one warm engine.

Run with::

    python examples/serve_demo.py

The script stands up an :class:`repro.serve.ExplanationService` for one
(model, dataset) target and fires sixteen concurrent clients at four hot
pairs — the interactive-dashboard shape the service is built for.  It then
shows the three serving guarantees in action:

* responses are **byte-identical** to a direct single-threaded
  :class:`repro.certa.CertaExplainer` run (coalescing is a throughput
  optimisation, never an approximation);
* overlapping lattice frontiers really are **merged into shared prediction
  batches** (see the ``coalesced_dispatches`` / ``deduped_pairs`` counters);
* **budgets and admission control** fail requests whole — a request with a
  tiny lattice-node budget gets a clean ``BudgetError`` response, never a
  partial explanation.
"""

from __future__ import annotations

import asyncio
import json

from repro.certa import CertaExplainer
from repro.data import load_benchmark
from repro.models import train_model
from repro.serve import ExplainRequest, ExplanationService, ServeTarget, explanation_payload


def main() -> None:
    # 1. Dataset + matcher, as in the quickstart.
    dataset = load_benchmark("AB", scale=0.5)
    trained = train_model("classical", dataset, fast=True)
    pairs = (dataset.test.positives() + dataset.test.negatives())[:4]

    # 2. One servable target; the service seals the sources and builds the
    #    indexes when it enters.
    target = ServeTarget(
        name="ab",
        model=trained.model,
        left_source=dataset.left,
        right_source=dataset.right,
        num_triangles=8,
        seed=3,
    )
    requests = [
        ExplainRequest(target="ab", pair=pairs[i % len(pairs)], request_id=f"client-{i}")
        for i in range(16)
    ]

    async def serve_all():
        async with ExplanationService([target], workers=8, queue_limit=32) as service:
            responses = await service.explain_many(requests)
            # A 1-node lattice budget cannot fit an explanation: the request
            # fails whole with a clean taxonomy error, never a partial result.
            budgeted = await service.submit(
                ExplainRequest(target="ab", pair=pairs[0], max_lattice_nodes=1)
            )
            return responses, budgeted, service.stats

    responses, budgeted, stats = asyncio.run(serve_all())

    # 3. Byte-identity against a direct, single-threaded explainer.
    direct = CertaExplainer(
        trained.model, dataset.left, dataset.right, num_triangles=8, seed=3
    )
    for index, response in enumerate(responses):
        expected = explanation_payload(direct.explain_full(pairs[index % len(pairs)]))
        assert json.dumps(response.payload, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    print(f"served {stats.completed}/{stats.requests} requests")
    print(
        f"  {stats.dispatches} dispatches, {stats.coalesced_dispatches} coalesced, "
        f"{stats.deduped_pairs}/{stats.merged_pairs} pairs deduped"
    )
    print(f"  p50 {stats.p50_latency_ms:.1f} ms, p99 {stats.p99_latency_ms:.1f} ms")
    print(f"budgeted request: status={budgeted.status!r} ({budgeted.budget}), no payload")
    assert budgeted.status == "error" and budgeted.payload is None
    print("all served explanations byte-identical to the direct explainer")


if __name__ == "__main__":
    main()
