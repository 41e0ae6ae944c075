"""Prediction engine statistics: what batching and caching save per explanation.

Run with::

    python examples/prediction_engine_stats.py

The script explains the same prediction twice — once with frontier-batched
lattice exploration (the default) and once with the sequential reference path
— and prints the engine counters (requests, cache hits/misses, model
invocations) for both, showing where the speedup of the
:class:`repro.models.PredictionEngine` comes from.  The two explanations are
asserted identical, the guarantee the equivalence test suite covers.
"""

from __future__ import annotations

from repro.certa import CertaExplainer
from repro.data import load_benchmark
from repro.models import PredictionEngine, train_model


def main() -> None:
    # 1. Dataset + matcher, as in the quickstart.
    dataset = load_benchmark("AB", scale=0.5)
    trained = train_model("deepmatcher", dataset, fast=True)
    model = trained.model
    pair = dataset.test.positives()[0]

    # 2. Explain with frontier batching (the default) and sequentially.
    explanations = {}
    for label, batched in (("batched", True), ("sequential", False)):
        model.clear_featurizer_cache()  # cold caches so the counters are comparable
        engine = PredictionEngine(model, batch_size=256)
        explainer = CertaExplainer(
            model, dataset.left, dataset.right,
            num_triangles=20, seed=0, engine=engine, batched=batched,
        )
        explanations[label] = explainer.explain_full(pair)

    batched, sequential = explanations["batched"], explanations["sequential"]
    assert batched.saliency.scores == sequential.saliency.scores
    assert batched.counterfactual.attribute_set == sequential.counterfactual.attribute_set

    # 3. Compare the engine counters.
    print(f"explained pair with {batched.triangles_used} open triangles; "
          f"{batched.performed_predictions()} lattice nodes evaluated, "
          f"{batched.saved_predictions()} saved by monotonicity\n")
    print(f"{'counter':<14} {'batched':>10} {'sequential':>12}")
    for counter in ("requests", "hits", "misses", "batches", "max_batch"):
        batched_value = getattr(batched.engine_stats, counter)
        sequential_value = getattr(sequential.engine_stats, counter)
        print(f"{counter:<14} {batched_value:>10} {sequential_value:>12}")

    print(f"\nlattice exploration cost {batched.lattice_batches()} model invocations "
          f"batched vs {sequential.lattice_batches()} sequential "
          f"({batched.performed_predictions()} nodes either way) — "
          f"identical explanations, "
          f"{sequential.lattice_batches() / max(batched.lattice_batches(), 1):.1f}x fewer calls")

    # 4. The layer below: featurisation-cache traffic for the batched run.
    featurizer = batched.featurizer_stats
    if featurizer is not None:
        print(f"\nfeaturisation layer: {featurizer.rows_built} rows built, "
              f"value cache {featurizer.value_hit_rate:.0%} hits, "
              f"comparison cache {featurizer.comparison_hit_rate:.0%} hits")

    # 5. The layer before any model call: the support-candidate index.
    index = batched.index_stats
    if index is not None:
        print(f"candidate index: {index.builds} builds, {index.queries} queries, "
              f"{index.postings_visited} postings visited, "
              f"{index.candidates_pruned} candidates pruned")


if __name__ == "__main__":
    main()
