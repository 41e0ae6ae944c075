"""Run one workload of the CERTA explanation benchmark and print its result.

    python3 perfbench/run.py --workload certa-wide --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` (an untraced run), the per-layer metrics with ``--trace 1``.
``--size tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.json"

#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "explain_p50_s": "s",
    "explanations_per_s": "1/s",
    "ok_frac": "frac",
    "rss_peak_mb": "MB",
}

#: name -> unit of every per-layer metric (printed with ``--trace 1``).
#: Times are totals over the traced run unless named ``_p50``/``_p90``; a
#: metric a workload does not exercise reads 0.
PER_LAYER = {
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.max_thread_self_frac": "frac",
    "trace.explanations": "count",
    "explain.s": "s",
    "explain.self_s": "s",
    "triangles.s": "s",
    "triangles.self_s": "s",
    "triangles.candidates_scored": "count",
    "triangles.augmented": "count",
    "index.top_k_s": "s",
    "index.fresh_s": "s",
    "index.queries": "count",
    "index.postings_visited": "count",
    "index.delta_applies": "count",
    "index.compile_ms": "ms",
    "data.mutate_s": "s",
    "data.mutations": "count",
    "lattice.s": "s",
    "lattice.self_s": "s",
    "lattice.nodes_evaluated": "count",
    "lattice.nodes_saved": "count",
    "lattice.rounds": "count",
    "perturb.s": "s",
    "perturb.pairs": "count",
    "engine.s": "s",
    "engine.self_s": "s",
    "engine.requests": "count",
    "engine.hits": "count",
    "engine.misses": "count",
    "engine.hit_rate": "frac",
    "engine.batches": "count",
    "model.s": "s",
    "featurize.s": "s",
    "forward.s": "s",
    "featurize.rows": "count",
    "featurize.value_lookups": "count",
    "featurize.value_hit_rate": "frac",
    "featurize.comparison_lookups": "count",
    "featurize.comparison_misses": "count",
    "featurize.comparison_hit_rate": "frac",
    "serve.requests": "count",
    "serve.queue_wait_s_p50": "s",
    "serve.compute_s_p50": "s",
    "serve.frontier_wait_s": "s",
    "serve.dispatches": "count",
    "serve.coalesced_dispatches": "count",
    "serve.merged_pairs": "count",
    "serve.deduped_pairs": "count",
    "serve.backlog_max": "count",
    "serve.shed": "count",
    "light.requests": "count",
    "light.latency_p50_s": "s",
    "light.slo_met_frac": "frac",
    "light.goodput_rps": "1/s",
    "heavy.requests": "count",
    "heavy.latency_p50_s": "s",
    "heavy.latency_p90_s": "s",
    "heavy.slo_met_frac": "frac",
    "heavy.goodput_rps": "1/s",
    "repeat.latency_p50_s": "s",
    "gen_lag_max_ms": "ms",
    "setup.dataset_s": "s",
    "setup.train_s": "s",
    "setup.index_s": "s",
    "setup.service_start_s": "s",
    "host.kernel_ms": "ms",
    "raw.setup_s": "s",
    "raw.explain_p50_s": "s",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def load_pins(size: str, workload: str) -> dict:
    pins = json.loads(PINS.read_text())
    return pins[size][workload]


#: Per workload, the end-to-end metric that is a time per explanation (or
#: its inverse): traced over untraced, it is the tracing overhead.
OVERHEAD_BASIS = {
    "certa-wide": ("explanations_per_s", True),
    "certa-churn": ("explanations_per_s", True),
    "serve-hot": ("explain_p50_s", False),
}


def untraced_run(args: argparse.Namespace) -> dict:
    """The same run with ``--trace 0`` in a fresh process, for the overhead.

    A separate process, because the first of two runs in one process would
    leave the second its warm process-wide memo caches.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
    ]
    completed = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def result(outcome, workload: str, trace: bool, untraced: dict | None = None) -> dict:
    """The printed result: every catalogue metric, with its unit."""
    attempted = max(outcome.attempted, 1)
    correct = outcome.failed == 0 and not outcome.invalid
    if trace:
        catalogue, values = PER_LAYER, dict(outcome.per_layer)
        if untraced is not None:
            correct = correct and untraced["correct"]
            name, inverse = OVERHEAD_BASIS[workload]
            traced, baseline = outcome.end_to_end[name], untraced["metrics"][name]["value"]
            if inverse:
                traced, baseline = baseline, traced
            values["trace.overhead_frac"] = traced / baseline if baseline else 0.0
    else:
        catalogue = END_TO_END
        values = dict(outcome.end_to_end)
        values["ok_frac"] = (attempted - outcome.failed) / attempted
        values["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the library sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # The library reads its knobs from REPRO_* variables; the benchmark runs
    # it on its defaults (and must not follow one to a directory outside the
    # checkout).
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pins = load_pins(args.size, args.workload)
    untraced = untraced_run(args) if args.trace else None
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), args.size, pins
    )
    if outcome.invalid:
        print(f"invalid run: {outcome.invalid}", file=sys.stderr)
    print(json.dumps(result(outcome, args.workload, bool(args.trace), untraced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
