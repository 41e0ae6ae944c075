"""Large-source candidate retrieval: build, top-k and freshness at 100k/1M records.

Measured over a synthetic product source streamed in with
:func:`iter_synthetic_records`:

* **Build and top-k** — the index's one representation (slot-addressed
  dict postings) is built once, then 30 queries are ranked at ``k=10`` and
  at ``k=400`` (the triangle search's candidate cap).  Both are timed and
  reported; no speed-up is asserted, because there is no second index path
  to compare against.  Three sampled queries per ``k`` are checked
  byte-for-byte against the unindexed full scan, the golden reference.
* **Freshness** — every query first calls ``ensure_fresh``, which compares
  the source's ``data_version`` with the index's: only the mutation API can
  change the records, so no content is swept.  An unsealed freshness check
  must cost **under 1%** of a sealed ``k=10`` query, and sealing (a mutation
  lock, not a freshness shortcut) must leave the rankings byte-identical.

``REPRO_BENCH_FAST=1`` (the CI smoke job) runs 100k records; the default
local run uses 1M.  Results land in ``BENCH_index_scale.json`` at the
repository root, with the :class:`~repro.data.indexing.IndexStats` counters.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from repro import env
from repro.data.blocking import top_k_neighbours
from repro.data.indexing import get_source_index
from repro.data.synthetic import iter_synthetic_records, synthetic_schema
from repro.data.table import DataSource
from repro.eval.reporting import format_table

from benchmarks.conftest import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_index_scale.json"


def _fast_mode() -> bool:
    return env.read_bool("REPRO_BENCH_FAST")


def _source_size() -> int:
    return 100_000 if _fast_mode() else 1_000_000


def _ids(records) -> list[str]:
    return [record.record_id for record in records]


def test_index_scale(benchmark, results_dir):
    """Build, top-k and freshness on a 100k/1M-record source."""
    size = _source_size()
    schema = synthetic_schema()
    # A short result list, and the triangle search's candidate cap.
    top_ks = (10, 400)

    def experiment():
        source = DataSource.from_iterable(
            "bench-index-scale", schema, iter_synthetic_records(size, seed=13)
        )

        index = get_source_index(source, 2)
        start = time.perf_counter()
        index.ensure_fresh()
        build_seconds = time.perf_counter() - start

        # --- top-k: timed per k, sampled queries checked against the scan ---
        rng = random.Random(99)
        queries = [
            next(iter(iter_synthetic_records(1, seed=5000 + n, id_prefix="Q")))
            for n in range(30)
        ]
        query_report = {}
        rankings = {}
        for k in top_ks:
            start = time.perf_counter()
            rankings[k] = [_ids(index.top_k(query, k=k)) for query in queries]
            seconds = time.perf_counter() - start
            # The scan is O(records) per query, so three keep it affordable at 1M.
            sampled = rng.sample(range(len(queries)), 3)
            scan_identical = all(
                _ids(top_k_neighbours(queries[n], list(source), k=k, indexed=False))
                == rankings[k][n]
                for n in sampled
            )
            query_report[f"k{k}"] = {
                "queries": len(queries),
                "k": k,
                "seconds": seconds,
                "ms_per_query": seconds / len(queries) * 1000.0,
                "scan_checked": len(sampled),
                "scan_identical": scan_identical,
            }

        # --- freshness: the check every query pays, on an unsealed source ---
        checks = 20
        start = time.perf_counter()
        for _ in range(checks):
            index.ensure_fresh()
        unsealed_fresh_seconds = time.perf_counter() - start

        source.seal()
        k = top_ks[0]
        start = time.perf_counter()
        sealed_rankings = [_ids(index.top_k(query, k=k)) for query in queries]
        sealed_query_seconds = time.perf_counter() - start

        check_seconds = unsealed_fresh_seconds / checks
        query_seconds = sealed_query_seconds / len(queries)
        return {
            "build": {"records": size, "seconds": build_seconds},
            "query": {**query_report, **index.stats.as_dict()},
            "freshness": {
                "checks": checks,
                "unsealed_seconds": unsealed_fresh_seconds,
                "unsealed_check_ms": check_seconds * 1000.0,
                "sealed_query_seconds": sealed_query_seconds,
                "sealed_query_ms": query_seconds * 1000.0,
                "sealed_identical": sealed_rankings == rankings[k],
                "check_fraction_of_query": check_seconds / query_seconds if query_seconds else 0.0,
            },
        }

    report = run_once(benchmark, experiment)

    payload = {
        "benchmark": "index_scale",
        "workload": {
            "source_records": size,
            "fast": _fast_mode(),
            "shape": "dict-postings index: build, top-k vs scan, freshness check vs query",
        },
        **report,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = [report["query"][f"k{k}"] for k in top_ks]
    print("\n=== Index scale: dict-postings index ===")
    print(format_table(rows))
    print(
        f"build: {report['build']['seconds']:.2f}s over {size} records, freshness check "
        f"{report['freshness']['check_fraction_of_query']:.4%} of a k={top_ks[0]} query "
        f"-> {RESULT_PATH.name}"
    )

    for k in top_ks:
        assert report["query"][f"k{k}"]["scan_identical"], (
            f"top-{k} rankings diverged from the full-scan reference"
        )

    freshness = report["freshness"]
    assert freshness["sealed_identical"], "sealing changed the rankings"
    assert freshness["check_fraction_of_query"] < 0.01, (
        f"an unsealed freshness check costs {freshness['check_fraction_of_query']:.2%} "
        f"of a sealed k={top_ks[0]} query (expected under 1%)"
    )
