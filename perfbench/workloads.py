"""The benchmark's three workloads: certa-wide, certa-churn and serve-hot.

Each workload builds its inputs from the run's seed, sets the system up
several times (``setup_s`` is the median), measures for about the requested
number of seconds and checks every explanation against pinned payload
digests.  Every end-to-end time is converted to reference seconds by a
:class:`hostclock.HostClock` that runs through the whole workload.  With ``trace`` on, :class:`tracing.Tracer` is installed around the
measured work and the per-layer metrics come from its spans and from the
library's own counter objects.

Why these three (README.md lists the layer each one isolates):

* certa-wide -- 8-attribute lattices (up to 254 nodes) on a tiny source:
  lattice, perturbation and featurisation work, almost no retrieval;
* certa-churn -- 3-attribute lattices over 20k-record unsealed sources that
  are mutated before every explanation: index maintenance, top-k retrieval
  and triangle scoring, almost no lattice work;
* serve-hot -- an open-loop request stream against ``ExplanationService``:
  admission, queueing, frontier coalescing and cross-request engine hits.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.certa.explainer import CertaExplainer, CertaExplanation
from repro.data.indexing import DEFAULT_BLOCKING_TOKEN_LENGTH, get_source_index
from repro.data.records import Record, RecordPair
from repro.data.registry import benchmark_info
from repro.data.synthetic import generate_dataset, iter_synthetic_records
from repro.data.table import DataSource
from repro.models.engine import PredictionEngine
from repro.models.training import train_model
from repro.serve import ExplainRequest, ExplanationService, ServeTarget, explanation_payload

import tracing
from hostclock import HostClock

#: The seed whose certa-churn digests are pinned (its data depend on the seed).
DEFAULT_SEED = 0

#: Workload parameters per size; ``tiny`` is the self-test size.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        # Two full-lattice matches and one non-match.  tau=10 keeps an
        # explanation near a second, so a run holds ~7 cycles, not 1.
        "certa-wide": {"setups": 9, "triangles": 10, "pairs": ("L15|R15", "L15|R49", "L20|R20")},
        "certa-churn": {
            # Two matches and the two cheapest of the first eight non-matches,
            # alternating: a ~6 s cycle, so a run holds ~5 of them.
            "setups": 2, "triangles": 100, "pairs": ("L0|R0", "L12|R26", "L16|R16", "L12|R3"),
            "fillers": 20_000, "pool": 2_000, "updates": 6, "adds": 3, "removes": 3, "pinned": 4,
        },
        "serve-hot": {
            "setups": 5, "triangles": 20, "hot": 8, "new_every": 5, "light_share": 1 / 3,
            "light_rps": 4.0, "heavy_rps": 5.0, "slo_s": 1.0,
        },
    },
    "tiny": {
        "certa-wide": {"setups": 3, "triangles": 10, "pairs": ("L15|R15", "L15|R49")},
        "certa-churn": {
            "setups": 3, "triangles": 10, "pairs": ("L0|R0", "L11|R10"),
            "fillers": 500, "pool": 100, "updates": 2, "adds": 1, "removes": 1, "pinned": 2,
        },
        "serve-hot": {
            "setups": 3, "triangles": 20, "hot": 2, "new_every": 5, "light_share": 0.5,
            "light_rps": 4.0, "heavy_rps": 8.0, "slo_s": 1.0,
        },
    },
}

#: Generator lateness beyond which an open-loop run is invalid, not slow.
MAX_GENERATOR_LAG_S = 0.1
#: Zipf exponent of serve-hot repeat popularity.
ZIPF_EXPONENT = 1.1
#: Seeds of the data every run shares; the run seed drives everything else.
FILLER_SEED = 1_000_003
POPULARITY_SEED = 7


# ------------------------------------------------------------------- helpers


#: Significant digits of every float a payload digest covers.  The model's
#: scores are not batch-invariant: numpy's matrix products round the same
#: pair's score differently (by ~1e-17) in different batch compositions,
#: and the served path coalesces frontiers into other batches than a
#: direct run.  Nine digits absorb that, and keep everything else exact.
DIGEST_DIGITS = 9


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def payload_digest(payload: dict) -> str:
    """Short content digest of one canonical explanation payload."""
    text = json.dumps(_rounded(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def explanation_digest(explanation: CertaExplanation) -> str:
    return payload_digest(explanation_payload(explanation))


def payload_matches(pins: dict | None, key: str, payload: dict) -> bool:
    """The output check: does a payload match the digest pinned for its pair?

    Without pins (while they are being generated) nothing is checked.
    """
    return pins is None or pins["pairs"].get(key) == payload_digest(payload)


def pair_key(pair: RecordPair) -> str:
    return f"{pair.left.record_id}|{pair.right.record_id}"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-round(quantile * 1000) * len(ordered) // 1000)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    invalid: str = ""
    #: (pair key, payload digest) of every explanation, in order.
    digests: list[tuple[str, str]] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)


@dataclass
class Setup:
    """What :func:`repeated_setup` hands back."""

    #: The first and the last built state (the others are dropped, so they
    #: do not weigh on later garbage collections).
    first: Any
    last: Any
    #: (start, end) perf_counter times of each build.
    windows: list[tuple[float, float]]
    #: Median wall time of each phase (per-layer metrics).
    phases: dict[str, float]

    def seconds(self, clock: HostClock) -> float:
        """Median build time, in reference seconds."""
        return median([clock.reference_s(*window) for window in self.windows])

    def raw_seconds(self) -> float:
        return median([end - start for start, end in self.windows])


def repeated_setup(build: Callable[[], tuple[Any, dict[str, float]]], repeats: int) -> Setup:
    """Run ``build`` ``repeats`` times, each from a collected heap and empty
    memo caches, as in a fresh process."""
    first = last = None
    windows, phases = [], []
    for index in range(repeats):
        last = None
        gc.collect()
        clear_memo_caches()
        start = time.perf_counter()
        last, phase_times = build()
        windows.append((start, time.perf_counter()))
        phases.append(phase_times)
        if index == 0:
            first = last
    return Setup(first, last, windows, {
        f"setup.{name}_s": median([entry[name] for entry in phases]) for name in phases[0]
    })


def host_metrics(clock: HostClock, setup_raw_s: float, explain_raw_s: float) -> dict[str, float]:
    """Per-layer figures of the host's state and the unconverted times."""
    return {
        "host.kernel_ms": 1000.0 * clock.median_kernel_s(),
        "raw.setup_s": setup_raw_s,
        "raw.explain_p50_s": explain_raw_s,
    }


def timed(clock: dict[str, float], name: str, function: Callable[[], Any]) -> Any:
    start = time.perf_counter()
    result = function()
    clock[name] = clock.get(name, 0.0) + time.perf_counter() - start
    return result


def clear_memo_caches() -> None:
    """Empty every ``functools`` memo cache of the loaded library modules.

    The similarity memos are process-wide: without this, what set-up and
    earlier cycles left in them would decide what a cycle costs.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def warm_indexes(*sources: DataSource) -> None:
    for source in sources:
        get_source_index(source, DEFAULT_BLOCKING_TOKEN_LENGTH).ensure_fresh()


def load_dataset(code: str) -> Any:
    """A freshly generated dataset (``load_benchmark`` would hand back its memo)."""
    return generate_dataset(benchmark_info(code).config.scaled(0.5))


class LayerCounters:
    """Sums the library's own counter objects over a run."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value

    def add_engine(self, engine: Any) -> None:
        self.add("engine.requests", engine.requests)
        self.add("engine.hits", engine.hits)
        self.add("engine.misses", engine.misses)
        self.add("engine.batches", engine.batches)

    def add_featurizer(self, features: Any) -> None:
        self.add("featurize.rows", features.rows_built)
        self.add("featurize.value_hits", features.value_hits)
        self.add("featurize.value_lookups", features.value_hits + features.value_misses)
        self.add("featurize.comparison_hits", features.comparison_hits)
        self.add("featurize.comparison_misses", features.comparison_misses)
        self.add("featurize.comparison_lookups", features.comparison_hits + features.comparison_misses)

    def add_index(self, index: Any) -> None:
        self.add("index.queries", index.queries)
        self.add("index.postings_visited", index.postings_visited)
        self.add("index.delta_applies", index.delta_applies)
        self.add("index.compile_ms", index.compile_ms)

    def add_explanation(self, explanation: CertaExplanation) -> None:
        if explanation.engine_stats is not None:
            self.add_engine(explanation.engine_stats)
        if explanation.featurizer_stats is not None:
            self.add_featurizer(explanation.featurizer_stats)
        if explanation.index_stats is not None:
            self.add_index(explanation.index_stats)
        self.add("lattice.nodes_evaluated", explanation.performed_predictions())
        self.add("lattice.nodes_saved", explanation.saved_predictions())
        self.add("lattice.rounds", max((s.batched_rounds for s in explanation.exploration), default=0))

    def metrics(self) -> dict[str, float]:
        """The sums, plus each hit rate next to its base count."""
        values = dict(self.values)
        values["engine.hit_rate"] = ratio(values.get("engine.hits", 0), values.get("engine.requests", 0))
        values["featurize.value_hit_rate"] = ratio(
            values.pop("featurize.value_hits", 0), values.get("featurize.value_lookups", 0)
        )
        values["featurize.comparison_hit_rate"] = ratio(
            values.pop("featurize.comparison_hits", 0), values.get("featurize.comparison_lookups", 0)
        )
        return values


class TraceSession:
    """One tracer plus the counts its wrappers collect from return values."""

    def __init__(self) -> None:
        self.tracer = tracing.Tracer()
        self.candidates_scored = 0
        self.augmented = 0
        self.tracer.on_result["triangles"] = self._record_search

    def _record_search(self, result: Any) -> None:
        self.candidates_scored += result.candidates_scored
        self.augmented += result.augmented_count

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer times over a traced pass whose wall time was ``wall``."""
        summary = tracing.summarize(self.tracer.spans)

        def get(name: str, key: str) -> float:
            return summary.get(name, {}).get(key, 0.0)

        metrics = {
            "trace.wall_s": wall,
            "trace.max_thread_self_frac": ratio(
                max(tracing.self_time_by_thread(self.tracer.spans).values(), default=0.0), wall
            ),
            "explain.s": get("explain", "s"),
            "explain.self_s": get("explain", "self_s"),
            "triangles.s": get("triangles", "s"),
            "triangles.self_s": get("triangles", "self_s"),
            "triangles.candidates_scored": self.candidates_scored,
            "triangles.augmented": self.augmented,
            "index.top_k_s": get("index.top_k", "s"),
            "index.fresh_s": get("index.fresh", "s"),
            "lattice.s": get("lattice", "s"),
            "lattice.self_s": get("lattice", "self_s"),
            "perturb.s": get("perturb", "s"),
            "perturb.pairs": get("perturb", "count"),
            "engine.s": get("engine", "s"),
            "engine.self_s": get("engine", "self_s"),
            "model.s": get("model", "s"),
            "featurize.s": get("featurize", "s"),
            "serve.frontier_wait_s": get("serve.frontier_wait", "s"),
        }
        metrics["forward.s"] = metrics["model.s"] - metrics["featurize.s"]
        return metrics


# --------------------------------------------------------------- batch runs


@dataclass
class BatchSystem:
    """One independently built copy of a batch workload's system."""

    model: Any
    left: DataSource
    right: DataSource
    test_pairs: list[RecordPair]


@dataclass
class Step:
    """One unit of batch work: source mutations (maybe none), then one explanation."""

    pair: RecordPair
    mutations: list[tuple[str, str, Any]] = field(default_factory=list)


def explain_with_fresh_engine(
    system: BatchSystem, pair: RecordPair, triangles: int
) -> tuple[tuple[float, float], CertaExplanation]:
    """One explanation with a fresh engine, the way the sweep harness runs it.

    Returns its (start, end) perf_counter times and the explanation.
    """
    explainer = CertaExplainer(
        system.model, system.left, system.right,
        num_triangles=triangles, engine=PredictionEngine(system.model),
    )
    start = time.perf_counter()
    explanation = explainer.explain_full(pair)
    return (start, time.perf_counter()), explanation


def apply_mutations(system: BatchSystem, mutations: list[tuple[str, str, Any]]) -> None:
    """Apply one batch to the sources, then evict the values it retired."""
    sources = {"left": system.left, "right": system.right}
    versions = {side: source.data_version for side, source in sources.items()}
    for side, op, argument in mutations:
        source = sources[side]
        if op == "update":
            source.update(argument)
        elif op == "add":
            source.add(argument)
        else:
            source.remove(argument)
    retired: list[str] = []
    for side, source in sources.items():
        retired.extend(source.retired_values_since(versions[side]) or ())
    system.model.evict_featurizer_values(retired)


class BatchRun:
    """Drives a batch workload: timed steps, counters, optional tracing."""

    def __init__(self, system: BatchSystem, triangles: int, trace: bool, cold_steps: bool) -> None:
        self.system = system
        #: Empty the caches before every step (else before every cycle).
        self.cold_steps = cold_steps
        self.triangles = triangles
        self.session = TraceSession() if trace else None
        self.outcome = Outcome()
        self.counters = LayerCounters()
        #: (start, end) of each explanation, and of each step (mutations included).
        self.explain_windows: list[tuple[float, float]] = []
        self.step_windows: list[tuple[float, float]] = []
        #: Index into ``explain_windows`` where each cycle starts.
        self.cycle_starts: list[int] = []
        self.explanations: list[tuple[Step, CertaExplanation]] = []
        self.mutate_s = 0.0
        self.mutations = 0

    def run_step(self, step: Step) -> float:
        """One step; returns its wall time (mutations included)."""
        if self.cold_steps:
            self.clear_caches()
        start = time.perf_counter()
        apply_mutations(self.system, step.mutations)
        self.mutate_s += time.perf_counter() - start
        self.mutations += len(step.mutations)
        with self.session.tracer if self.session is not None else contextlib.nullcontext():
            window, explanation = explain_with_fresh_engine(self.system, step.pair, self.triangles)
        end = time.perf_counter()
        self.explain_windows.append(window)
        self.step_windows.append((start, end))
        self.explanations.append((step, explanation))
        self.outcome.attempted += 1
        self.outcome.digests.append((pair_key(step.pair), explanation_digest(explanation)))
        self.counters.add_explanation(explanation)
        return end - start

    def clear_caches(self) -> None:
        self.system.model.clear_featurizer_cache()
        clear_memo_caches()

    def drive(self, cycles: Iterator[list[Step]], seconds: float) -> float:
        """Run whole cycles until another would end further past ``seconds``
        than stopping now; returns the wall time of the steps run.

        Every cycle starts with the featurisation and memo caches empty, so
        a second cycle costs what the first did instead of replaying warm.
        """
        elapsed = 0.0
        while True:
            self.clear_caches()
            self.cycle_starts.append(len(self.explain_windows))
            cycle = sum(self.run_step(step) for step in next(cycles))
            elapsed += cycle
            if elapsed + cycle / 2 >= seconds:
                return elapsed

    def finish(self, wall: float, setup: Setup, clock: HostClock) -> Outcome:
        """The outcome; ``clock`` has stopped and covered the whole run."""
        outcome = self.outcome
        outcome.per_layer.update(self.counters.metrics())
        outcome.per_layer.update(setup.phases)
        outcome.per_layer["trace.explanations"] = len(self.explain_windows)
        outcome.per_layer["data.mutate_s"] = self.mutate_s
        outcome.per_layer["data.mutations"] = self.mutations
        outcome.per_layer.update(host_metrics(
            clock, setup.raw_seconds(), median([end - start for start, end in self.explain_windows])
        ))
        if self.session is not None:
            outcome.per_layer.update(self.session.metrics(wall))
        reference_wall = sum(clock.reference_s(*window) for window in self.step_windows)
        latencies = [clock.reference_s(*window) for window in self.explain_windows]
        bounds = self.cycle_starts + [len(latencies)]
        # Median of the cycles' means: every cycle explains the same pairs,
        # so its mean is comparable with the others' whatever the pairs cost.
        cycle_means = [statistics.fmean(latencies[start:end]) for start, end in zip(bounds, bounds[1:])]
        outcome.end_to_end = {
            "setup_s": setup.seconds(clock),
            "explain_p50_s": median(cycle_means),
            "explanations_per_s": ratio(len(latencies), reference_wall),
        }
        return outcome


# ---------------------------------------------------------------- certa-wide


def build_wide() -> tuple[BatchSystem, dict[str, float]]:
    clock: dict[str, float] = {}
    dataset = timed(clock, "dataset", lambda: load_dataset("IA"))
    trained = timed(
        clock, "train", lambda: train_model("deepmatcher", dataset, fast=True, cache_predictions=False)
    )
    timed(clock, "index", lambda: warm_indexes(dataset.left, dataset.right))
    return BatchSystem(trained.model, dataset.left, dataset.right, list(dataset.test.pairs)), clock


def run_certa_wide(seed: int, seconds: float, trace: bool, size: str, pins: dict | None) -> Outcome:
    params = SIZES[size]["certa-wide"]
    with HostClock() as clock:
        setup = repeated_setup(build_wide, params["setups"])
        system = setup.last
        # Every explanation starts cold, so the seed's order changes no cost.
        run = BatchRun(system, params["triangles"], trace, cold_steps=True)
        wall = run.drive(wide_cycles(system, params["pairs"], seed), seconds)
    run.outcome.failed += sum(
        1 for step, explanation in run.explanations
        if not payload_matches(pins, pair_key(step.pair), explanation_payload(explanation))
    )
    return run.finish(wall, setup, clock)


def wide_cycles(system: BatchSystem, keys: tuple[str, ...], seed: int) -> Iterator[list[Step]]:
    """certa-wide's cycles: its fixed pairs, in an order the seed shuffles."""
    by_key = {pair_key(pair): pair for pair in system.test_pairs}
    pairs = [by_key[key] for key in keys]
    rng = random.Random(seed)
    while True:
        order = list(pairs)
        rng.shuffle(order)
        yield [Step(pair) for pair in order]


# --------------------------------------------------------------- certa-churn


def project(record: Record, source: DataSource, record_id: str | None = None) -> Record:
    """A synthetic product record reshaped to the source's schema and tag."""
    values = {name: record.values.get(name, "") for name in source.schema.attributes}
    return Record(record_id=record_id or record.record_id, values=values, source=source.records[0].source)


def filler_records(source: DataSource, prefix: str, count: int, offset: int) -> list[Record]:
    stream = iter_synthetic_records(count, seed=FILLER_SEED + offset, domain="product", id_prefix=prefix)
    return [project(record, source) for record in stream]


def build_churn(fillers: int) -> Callable[[], tuple[BatchSystem, dict[str, float]]]:
    def build() -> tuple[BatchSystem, dict[str, float]]:
        clock: dict[str, float] = {}
        dataset = timed(clock, "dataset", lambda: load_dataset("AB"))
        sources = []
        for offset, (original, prefix) in enumerate(((dataset.left, "FU"), (dataset.right, "FV"))):
            extra = timed(clock, "dataset", lambda: filler_records(original, prefix, fillers, offset))
            sources.append(DataSource.from_iterable(
                original.name, original.schema, list(original.records) + extra, validate=False,
            ))
        trained = timed(
            clock, "train", lambda: train_model("ditto", dataset, fast=True, cache_predictions=False)
        )
        timed(clock, "index", lambda: warm_indexes(*sources))
        return BatchSystem(trained.model, sources[0], sources[1], list(dataset.test.pairs)), clock

    return build


class MutationStream:
    """Seeded update/add/remove batches over the filler records of both sides.

    Replacement values come from a pool of further synthetic records; the
    stream tracks which filler ids are live so every operation succeeds.
    """

    def __init__(self, rng: random.Random, system: BatchSystem, params: dict[str, Any]) -> None:
        self.rng = rng
        self.params = params
        self.sources = {"left": system.left, "right": system.right}
        self.live: dict[str, list[str]] = {}
        self.values: dict[str, list[Record]] = {}
        self.added = 0
        for offset, (side, prefix) in enumerate((("left", "FU"), ("right", "FV"))):
            self.live[side] = [f"{prefix}{index}" for index in range(params["fillers"])]
            self.values[side] = filler_records(self.sources[side], "P", params["pool"], offset + 100)

    def _take_live(self, side: str, remove: bool) -> str:
        live = self.live[side]
        position = self.rng.randrange(len(live))
        record_id = live[position]
        if remove:
            live[position] = live[-1]
            live.pop()
        return record_id

    def batch(self) -> list[tuple[str, str, Any]]:
        mutations: list[tuple[str, str, Any]] = []
        for side in ("left", "right"):
            source = self.sources[side]
            for _ in range(self.params["updates"]):
                record_id = self._take_live(side, remove=False)
                mutations.append((side, "update", project(self.rng.choice(self.values[side]), source, record_id)))
            for _ in range(self.params["adds"]):
                record_id = f"N{side[0]}{self.added}"
                self.added += 1
                self.live[side].append(record_id)
                mutations.append((side, "add", project(self.rng.choice(self.values[side]), source, record_id)))
            for _ in range(self.params["removes"]):
                mutations.append((side, "remove", self._take_live(side, remove=True)))
        return mutations


def run_certa_churn(seed: int, seconds: float, trace: bool, size: str, pins: dict | None) -> Outcome:
    params = SIZES[size]["certa-churn"]
    with HostClock() as clock:
        setup = repeated_setup(build_churn(params["fillers"]), params["setups"])
        reference, system = setup.first, setup.last
        # Caches carry over from step to step (minus the evicted values).
        run = BatchRun(system, params["triangles"], trace, cold_steps=False)
        stream = MutationStream(random.Random(seed), system, params)
        # The same pairs in the same order for every seed, so every cycle
        # explains the same pairs; the seed drives the data.
        by_key = {pair_key(pair): pair for pair in system.test_pairs}
        pairs = [by_key[key] for key in params["pairs"]]

        def cycles() -> Iterator[list[Step]]:
            while True:
                yield [Step(pair, stream.batch()) for pair in pairs]

        wall = run.drive(cycles(), seconds)
    outcome = run.outcome
    if pins is not None and seed == DEFAULT_SEED:
        expected = pins["default_seed_prefix"]
        outcome.failed += sum(
            1 for (_, got), want in zip(outcome.digests[: len(expected)], expected) if got != want
        )
    # Every seed: the last non-match (the retrieval-heavy case) explained
    # again from scratch -- fresh sources over the current records, so a
    # fresh index, and a model whose featurisation caches never saw an
    # eviction -- must give the same digest.
    step, explanation = next(
        (step, explanation) for step, explanation in reversed(run.explanations) if not step.pair.label
    )
    rebuilt = BatchSystem(
        reference.model,
        DataSource.from_iterable(system.left.name, system.left.schema, list(system.left.records), validate=False),
        DataSource.from_iterable(system.right.name, system.right.schema, list(system.right.records), validate=False),
        [],
    )
    _, from_scratch = explain_with_fresh_engine(rebuilt, step.pair, params["triangles"])
    if explanation_digest(from_scratch) != explanation_digest(explanation):
        outcome.failed += 1
    return run.finish(wall, setup, clock)


# ----------------------------------------------------------------- serve-hot


@dataclass
class ServedRequest:
    """One open-loop request: when it was due, sent and answered."""

    request_id: str
    phase: str
    key: str
    cold: bool
    due: float
    sent: float
    done: float = 0.0
    response: Any = None


def serve_pool(dataset: Any) -> list[RecordPair]:
    """Every labelled AB pair: the 40 test pairs alone run out of cold pairs."""
    return sorted(dataset.train.pairs + dataset.valid.pairs + dataset.test.pairs, key=pair_key)


def pool_order(pool_size: int) -> list[int]:
    """The fixed order in which pool pairs become popular."""
    order = list(range(pool_size))
    random.Random(POPULARITY_SEED).shuffle(order)
    return order


def request_choices(
    rng: random.Random, pool_size: int, count: int, hot: int, new_every: int
) -> list[tuple[int, bool]]:
    """(pool index, first ask?) of ``count`` requests, every ``new_every``-th cold.

    The first ``hot`` pairs of the pool order were served before the run.
    A cold request asks about the next pair nobody has asked about yet; the
    others repeat a pair served so far, drawn by the seed Zipf-skewed over
    them, the earliest the most popular.  Cold requests arrive on a fixed
    beat: drawn at random they would cluster differently in every run, and
    their median latency with them.  Drawing every request from a fixed pool
    would instead front-load the cold explanations into the first seconds
    and leave the rest of the run engine-cache hits.
    """
    order = pool_order(pool_size)
    served = order[:hot]
    cumulative = list(itertools.accumulate(rank ** -ZIPF_EXPONENT for rank in range(1, hot + 1)))
    choices = []
    for index in range(count):
        if index % new_every == 0 and len(served) < pool_size:
            served.append(order[len(served)])
            cumulative.append(cumulative[-1] + len(served) ** -ZIPF_EXPONENT)
            choices.append((served[-1], True))
        else:
            choices.append((rng.choices(served, cum_weights=cumulative)[0], False))
    return choices


def phase_seconds(params: dict[str, Any], seconds: float) -> dict[str, float]:
    return {"light": seconds * params["light_share"], "heavy": seconds * (1 - params["light_share"])}


def serve_schedule(params: dict[str, Any], seconds: float) -> list[tuple[float, str]]:
    """Fixed-rate send offsets: the light phase, then the heavy phase."""
    schedule: list[tuple[float, str]] = []
    offset = 0.0
    durations = phase_seconds(params, seconds)
    for phase, rate in (("light", params["light_rps"]), ("heavy", params["heavy_rps"])):
        schedule.extend((offset + index / rate, phase) for index in range(int(round(rate * durations[phase]))))
        offset += durations[phase]
    return schedule


async def open_loop(
    service: ExplanationService,
    pool: list[RecordPair],
    schedule: list[tuple[float, str]],
    choices: list[tuple[int, bool]],
    tracer: tracing.Tracer | None = None,
) -> tuple[list[ServedRequest], list[tuple[str, int]]]:
    """Send every request at its due time, whatever is still outstanding.

    Returns the requests and the backlog (sent minus completed) sampled at
    each send.
    """
    requests: list[ServedRequest] = []
    backlog: list[tuple[str, int]] = []
    completed = 0

    async def send(record: ServedRequest, request: ExplainRequest) -> None:
        nonlocal completed
        record.response = await service.submit(request)
        record.done = time.perf_counter()
        completed += 1

    tasks = []
    begin = time.perf_counter() + 0.05
    for index, ((offset, phase), (choice, cold)) in enumerate(zip(schedule, choices)):
        due = begin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        # A distinct pair object per request lets the tracer map the
        # explain span back to its request id.
        pair = dataclasses.replace(pool[choice])
        record = ServedRequest(f"r{index}", phase, pair_key(pair), cold, due, time.perf_counter())
        if tracer is not None:
            tracer.request_ids[id(pair)] = record.request_id
        requests.append(record)
        backlog.append((phase, len(requests) - completed))
        tasks.append(asyncio.create_task(
            send(record, ExplainRequest(target="ab", pair=pair, request_id=record.request_id))
        ))
    await asyncio.gather(*tasks)
    return requests, backlog


def open_loop_validity(requests: list[ServedRequest], backlog: list[tuple[str, int]]) -> str:
    """Why the run is invalid (generator behind, light-phase backlog growing), or ''."""
    lag = max((record.sent - record.due for record in requests), default=0.0)
    if lag > MAX_GENERATOR_LAG_S:
        return f"generator fell {lag * 1000:.0f} ms behind its schedule"
    light = [depth for phase, depth in backlog if phase == "light"]
    tail = len(light) * 3 // 4
    if tail and statistics.fmean(light[tail:]) > 2 * statistics.fmean(light[:tail]) + 2:
        return "backlog grew during the light phase"
    return ""


def phase_metrics(
    requests: list[ServedRequest], correct: Callable[[ServedRequest], bool], slo_s: float, durations: dict[str, float]
) -> dict[str, float]:
    """Per-phase latency, SLO and goodput figures, timed from each due time."""
    metrics: dict[str, float] = {}
    for phase in ("light", "heavy"):
        members = [record for record in requests if record.phase == phase]
        latencies = [record.done - record.due for record in members if correct(record)]
        within = [latency for latency in latencies if latency <= slo_s]
        metrics[f"{phase}.requests"] = len(members)
        metrics[f"{phase}.latency_p50_s"] = median(latencies)
        if len(latencies) >= 100:  # a p90 only where 100 samples back it
            metrics[f"{phase}.latency_p90_s"] = percentile(latencies, 0.9)
        metrics[f"{phase}.slo_met_frac"] = ratio(len(within), len(members))
        metrics[f"{phase}.goodput_rps"] = ratio(len(within), durations[phase])
    good = [record for record in requests if correct(record)]
    metrics["repeat.latency_p50_s"] = median([r.done - r.due for r in good if not r.cold])
    metrics["gen_lag_max_ms"] = 1000.0 * max((r.sent - r.due for r in requests), default=0.0)
    return metrics


def build_serve(triangles: int) -> tuple[tuple[ExplanationService, Any, Any], dict[str, float]]:
    clock: dict[str, float] = {}
    dataset = timed(clock, "dataset", lambda: load_dataset("AB"))
    trained = timed(
        clock, "train", lambda: train_model("deepmatcher", dataset, fast=True, cache_predictions=False)
    )
    timed(clock, "index", lambda: warm_indexes(dataset.left, dataset.right))
    target = ServeTarget(
        name="ab", model=trained.model, left_source=dataset.left,
        right_source=dataset.right, num_triangles=triangles,
    )
    service = ExplanationService(
        [target], workers=2, queue_limit=256, default_deadline=0.0, default_max_nodes=0, retries=1,
    )
    return (service, dataset, trained.model), clock


async def serve_hot(seed: int, seconds: float, trace: bool, size: str, pins: dict | None) -> Outcome:
    params = SIZES[size]["serve-hot"]
    with HostClock() as clock:
        setup = repeated_setup(lambda: build_serve(params["triangles"]), params["setups"])
        service, dataset, model = setup.last
        # Starting the service (sealing and indexing the sources, spawning
        # the workers) needs the event loop, so it is timed once, after the
        # builds.
        start = time.perf_counter()
        await service.start()
        service_start = (start, time.perf_counter())
        setup.phases["setup.service_start_s"] = service_start[1] - service_start[0]
        # A running service has its popular pairs cached: serve them first.
        pool = serve_pool(dataset)
        hot = [pool[index] for index in pool_order(len(pool))[: params["hot"]]]
        await service.explain_many([ExplainRequest(target="ab", pair=pair) for pair in hot])
        schedule = serve_schedule(params, seconds)
        choices = request_choices(
            random.Random(seed), len(pool), len(schedule), params["hot"], params["new_every"]
        )
        indexes = [get_source_index(s, DEFAULT_BLOCKING_TOKEN_LENGTH) for s in (dataset.left, dataset.right)]
        features_before = model.featurizer_stats
        index_before = [index.stats for index in indexes]
        session = TraceSession() if trace else None
        tracer = session.tracer if session is not None else None
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                requests, backlog = await open_loop(service, pool, schedule, choices, tracer)
        finally:
            await service.stop()

    def correct(record: ServedRequest) -> bool:
        response = record.response
        if response is None or not response.ok:
            return False
        return payload_matches(pins, record.key, response.payload)

    outcome = Outcome(attempted=len(requests))
    outcome.failed = sum(1 for record in requests if not correct(record))
    outcome.invalid = open_loop_validity(requests, backlog)
    outcome.digests = [
        (record.key, payload_digest(record.response.payload))
        for record in requests
        if record.response is not None and record.response.ok
    ]
    good = [record for record in requests if correct(record)]
    begin = min((record.due for record in requests), default=0.0)
    end = max((record.done for record in requests), default=0.0)
    within = sum(1 for record in good if record.done - record.due <= params["slo_s"])
    cold = [record for record in good if record.cold]
    outcome.end_to_end = {
        "setup_s": setup.seconds(clock) + clock.reference_s(*service_start),
        "explain_p50_s": median([clock.reference_s(record.due, record.done) for record in cold]),
        "explanations_per_s": ratio(within, end - begin),
    }

    counters = LayerCounters()
    counters.add_engine(service.engine_stats("ab"))
    counters.add_featurizer(model.featurizer_stats - features_before)
    for index, before in zip(indexes, index_before):
        counters.add_index(index.stats - before)
    for record in good:
        counters.add("lattice.nodes_evaluated", record.response.payload["performed_predictions"])
        counters.add("lattice.nodes_saved", record.response.payload["saved_predictions"])
    stats = service.stats
    outcome.per_layer.update(counters.metrics())
    outcome.per_layer.update(phase_metrics(requests, correct, params["slo_s"], phase_seconds(params, seconds)))
    outcome.per_layer.update({
        "serve.requests": stats.requests,
        "serve.dispatches": stats.dispatches,
        "serve.coalesced_dispatches": stats.coalesced_dispatches,
        "serve.merged_pairs": stats.merged_pairs,
        "serve.deduped_pairs": stats.deduped_pairs,
        "serve.shed": stats.shed,
        "serve.backlog_max": max((depth for _, depth in backlog), default=0),
        "trace.explanations": len(good),
    })
    outcome.per_layer.update(setup.phases)
    outcome.per_layer.update(host_metrics(
        clock,
        setup.raw_seconds() + setup.phases["setup.service_start_s"],
        median([record.done - record.due for record in cold]),
    ))
    if session is not None:
        outcome.per_layer.update(session.metrics(end - begin))
        outcome.per_layer.update(serve_span_metrics(session.tracer.spans, requests))
    return outcome


def serve_span_metrics(spans: list[list], requests: list[ServedRequest]) -> dict[str, float]:
    """Queue wait (send to explain start) and compute (the explain span) medians."""
    sent = {record.request_id: record.sent for record in requests}
    waits, computes = [], []
    for span in spans:
        if span[tracing.NAME] == "explain" and span[tracing.REQUEST] in sent:
            waits.append(span[tracing.START] - sent[span[tracing.REQUEST]])
            computes.append(span[tracing.END] - span[tracing.START])
    return {"serve.queue_wait_s_p50": median(waits), "serve.compute_s_p50": median(computes)}


def run_serve_hot(seed: int, seconds: float, trace: bool, size: str, pins: dict | None) -> Outcome:
    return asyncio.run(serve_hot(seed, seconds, trace, size, pins))


def direct_serve_digests(size: str) -> dict[str, str]:
    """Digest of a direct (unserved) ``CertaExplainer`` run for every serve-hot pool pair."""
    params = SIZES[size]["serve-hot"]
    dataset = load_dataset("AB")
    model = train_model("deepmatcher", dataset, fast=True, cache_predictions=False).model
    system = BatchSystem(model, dataset.left, dataset.right, [])
    return {
        pair_key(pair): explanation_digest(explain_with_fresh_engine(system, pair, params["triangles"])[1])
        for pair in serve_pool(dataset)
    }


WORKLOADS: dict[str, Callable[[int, float, bool, str, dict | None], Outcome]] = {
    "certa-wide": run_certa_wide,
    "certa-churn": run_certa_churn,
    "serve-hot": run_serve_hot,
}
