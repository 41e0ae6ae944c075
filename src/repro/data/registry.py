"""Benchmark registry: the twelve datasets of Table 1, at laptop scale.

Each entry mirrors one of the paper's benchmark datasets: same dataset code,
same schema width and domain, a Dirty variant where the paper uses one, and a
match-count / source-size ratio that is scaled down to run on a laptop while
keeping the relative characteristics (e.g. BeerAdvo-RateBeer is tiny and
imbalanced, iTunes-Amazon is wide with 8 attributes, DBLP-Scholar is noisier on
the right side).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from repro.data.dataset import ERDataset
from repro.data.synthetic import (
    SyntheticConfig,
    beer_views,
    bibliographic_views,
    generate_dataset,
    music_views,
    product_views,
    restaurant_views,
)
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class BenchmarkInfo:
    """Registry metadata for one benchmark dataset."""

    code: str
    full_name: str
    domain: str
    attributes: int
    dirty: bool
    config: SyntheticConfig

    def describe(self) -> str:
        flavour = "dirty" if self.dirty else "clean"
        return f"{self.code}: {self.full_name} ({self.domain}, {self.attributes} attrs, {flavour})"


def _build_configs() -> dict[str, BenchmarkInfo]:
    product3_left, product3_right = product_views(attributes=3)
    product5_left, product5_right = product_views(attributes=5)
    biblio_left, biblio_right = bibliographic_views()
    biblio_noisy_left, biblio_noisy_right = bibliographic_views(noise_left=0.1, noise_right=0.3)
    restaurant_left, restaurant_right = restaurant_views()
    music_left, music_right = music_views()
    beer_left, beer_right = beer_views()

    entries = [
        BenchmarkInfo(
            code="AB",
            full_name="Abt-Buy",
            domain="product",
            attributes=3,
            dirty=False,
            config=SyntheticConfig(
                name="AB", domain="product", left_view=product3_left, right_view=product3_right,
                entities=180, shared_fraction=0.55, extra_left=40, extra_right=40, seed=101,
                description="Product catalogue match (Abt-Buy shape): 3 attributes, long descriptions.",
            ),
        ),
        BenchmarkInfo(
            code="AG",
            full_name="Amazon-Google",
            domain="product",
            attributes=3,
            dirty=False,
            config=SyntheticConfig(
                name="AG", domain="product", left_view=product3_left, right_view=product3_right,
                entities=160, shared_fraction=0.4, extra_left=30, extra_right=80, seed=102,
                negatives_per_match=4,
                description="Software / product match (Amazon-Google shape): 3 attributes, noisier right source.",
            ),
        ),
        BenchmarkInfo(
            code="BA",
            full_name="BeerAdvo-RateBeer",
            domain="beer",
            attributes=4,
            dirty=False,
            config=SyntheticConfig(
                name="BA", domain="beer", left_view=beer_left, right_view=beer_right,
                entities=90, shared_fraction=0.3, extra_left=40, extra_right=40, seed=103,
                negatives_per_match=5,
                description="Beer match (BeerAdvo-RateBeer shape): tiny, imbalanced, 4 attributes.",
            ),
        ),
        BenchmarkInfo(
            code="DA",
            full_name="DBLP-ACM",
            domain="bibliographic",
            attributes=4,
            dirty=False,
            config=SyntheticConfig(
                name="DA", domain="bibliographic", left_view=biblio_left, right_view=biblio_right,
                entities=180, shared_fraction=0.6, extra_left=40, extra_right=40, seed=104,
                description="Citation match (DBLP-ACM shape): clean bibliographic data, 4 attributes.",
            ),
        ),
        BenchmarkInfo(
            code="DS",
            full_name="DBLP-Scholar",
            domain="bibliographic",
            attributes=4,
            dirty=False,
            config=SyntheticConfig(
                name="DS", domain="bibliographic", left_view=biblio_noisy_left, right_view=biblio_noisy_right,
                entities=200, shared_fraction=0.55, extra_left=30, extra_right=90, seed=105,
                negatives_per_match=4,
                description="Citation match (DBLP-Scholar shape): noisy right source, 4 attributes.",
            ),
        ),
        BenchmarkInfo(
            code="FZ",
            full_name="Fodors-Zagats",
            domain="restaurant",
            attributes=6,
            dirty=False,
            config=SyntheticConfig(
                name="FZ", domain="restaurant", left_view=restaurant_left, right_view=restaurant_right,
                entities=110, shared_fraction=0.35, extra_left=40, extra_right=30, seed=106,
                negatives_per_match=4,
                description="Restaurant match (Fodors-Zagats shape): 6 attributes, small and clean.",
            ),
        ),
        BenchmarkInfo(
            code="IA",
            full_name="iTunes-Amazon",
            domain="music",
            attributes=8,
            dirty=False,
            config=SyntheticConfig(
                name="IA", domain="music", left_view=music_left, right_view=music_right,
                entities=120, shared_fraction=0.35, extra_left=40, extra_right=60, seed=107,
                negatives_per_match=4,
                description="Music match (iTunes-Amazon shape): 8 attributes, widest schema.",
            ),
        ),
        BenchmarkInfo(
            code="WA",
            full_name="Walmart-Amazon",
            domain="product",
            attributes=5,
            dirty=False,
            config=SyntheticConfig(
                name="WA", domain="product", left_view=product5_left, right_view=product5_right,
                entities=170, shared_fraction=0.45, extra_left=40, extra_right=70, seed=108,
                negatives_per_match=4,
                description="Product match (Walmart-Amazon shape): 5 attributes, structured model numbers.",
            ),
        ),
    ]

    dirty_bases = {"DA": "DDA", "DS": "DDS", "IA": "DIA", "WA": "DWA"}
    dirty_entries = []
    base_by_code = {entry.code: entry for entry in entries}
    for base_code, dirty_code in dirty_bases.items():
        base = base_by_code[base_code]
        dirty_entries.append(
            BenchmarkInfo(
                code=dirty_code,
                full_name=f"Dirty {base.full_name}",
                domain=base.domain,
                attributes=base.attributes,
                dirty=True,
                config=SyntheticConfig(
                    name=dirty_code,
                    domain=base.config.domain,
                    left_view=base.config.left_view,
                    right_view=base.config.right_view,
                    entities=base.config.entities,
                    shared_fraction=base.config.shared_fraction,
                    extra_left=base.config.extra_left,
                    extra_right=base.config.extra_right,
                    negatives_per_match=base.config.negatives_per_match,
                    seed=base.config.seed + 1000,
                    dirty=True,
                    dirty_probability=0.35,
                    description=f"Dirty variant of {base.full_name}: attribute values misplaced across columns.",
                ),
            )
        )

    registry = {entry.code: entry for entry in entries + dirty_entries}
    return registry


_REGISTRY = _build_configs()

#: Dataset codes in the order they appear in the paper's Table 1.
BENCHMARK_CODES = ("AB", "AG", "BA", "DA", "DS", "FZ", "IA", "WA", "DDA", "DDS", "DIA", "DWA")


def list_benchmarks() -> list[BenchmarkInfo]:
    """All registered benchmark datasets, in Table 1 order."""
    return [_REGISTRY[code] for code in BENCHMARK_CODES]


def benchmark_info(code: str) -> BenchmarkInfo:
    """Registry metadata for ``code`` (raises ``DatasetError`` for unknown codes)."""
    try:
        return _REGISTRY[code.upper()]
    except KeyError as exc:
        raise DatasetError(f"unknown benchmark code {code!r}; available: {BENCHMARK_CODES}") from exc


#: Serialises dataset generation: ``lru_cache`` alone would let two threads
#: generate the same dataset concurrently and hand out different (if
#: content-identical) instances.  With this lock the threads of one process
#: share one dataset per (code, scale); process-pool workers each regenerate
#: deterministically from the seed.
_DATASET_LOCK = threading.Lock()


@lru_cache(maxsize=32)
def _cached_dataset(code: str, scale_key: int) -> ERDataset:
    info = benchmark_info(code)
    config = info.config if scale_key == 100 else info.config.scaled(scale_key / 100.0)
    return generate_dataset(config)


def load_benchmark(code: str, scale: float = 1.0) -> ERDataset:
    """Generate (and memoise) the synthetic benchmark dataset for ``code``.

    ``scale`` < 1.0 shrinks the dataset proportionally, which the benchmark
    harness uses to keep full 12-dataset sweeps fast.  Thread-safe: repeated
    calls always return the same memoised instance.
    """
    if scale <= 0:
        raise DatasetError(f"scale must be positive, got {scale}")
    scale_key = int(round(scale * 100))
    with _DATASET_LOCK:
        return _cached_dataset(code.upper(), scale_key)


def table1_statistics(scale: float = 1.0) -> list[dict[str, object]]:
    """Reproduce the structure of the paper's Table 1 for the synthetic data."""
    rows = []
    for info in list_benchmarks():
        dataset = load_benchmark(info.code, scale=scale)
        stats = dataset.statistics()
        rows.append(
            {
                "dataset": info.code,
                "full_name": info.full_name,
                "matches": int(stats["matches"]),
                "attributes": int(stats["attributes_left"]),
                "records": f"{int(stats['records_left'])} - {int(stats['records_right'])}",
                "values": f"{int(stats['values_left'])} - {int(stats['values_right'])}",
            }
        )
    return rows
