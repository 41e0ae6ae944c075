"""Property tests of the one counter protocol, :mod:`repro.counters`.

Every ``*Stats`` snapshot class inherits its ``+``, ``-`` and ``as_dict``
from :class:`~repro.counters.Counters`.  For each of them: a sum followed by
a delta gives back the counts, level fields follow their rule (a sum takes
the larger value, a delta keeps the later one), and ``as_dict`` returns the
class's pinned keys.
"""

from __future__ import annotations

from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counters import Counters
from repro.data.indexing import IndexStats
from repro.models.engine import EngineStats
from repro.models.featurizer import FeaturizerStats
from repro.serve.types import ServeStats

#: Each class's ``as_dict`` keys.  Rows, reports and perfbench read them.
AS_DICT_KEYS = {
    EngineStats: {
        "requests", "hits", "misses", "batches", "max_batch", "retries", "hit_rate",
    },
    FeaturizerStats: {
        "value_hits", "value_misses", "value_hit_rate",
        "comparison_hits", "comparison_misses", "comparison_hit_rate", "rows_built",
    },
    IndexStats: {
        "index_builds", "index_delta_applies", "index_queries",
        "index_postings_visited", "index_candidates_pruned", "index_compile_ms",
    },
    ServeStats: {
        "requests", "completed", "failed", "shed", "retried", "budget_deadline",
        "budget_nodes", "dispatches", "coalesced_dispatches", "merged_pairs",
        "deduped_pairs", "p50_latency_ms", "p99_latency_ms",
    },
}

#: The fields that are levels (high-water marks, quantiles), not counts.
LEVELS = {
    EngineStats: {"max_batch"},
    ServeStats: {"p50_latency_ms", "p99_latency_ms"},
}

CLASSES = list(AS_DICT_KEYS)


def snapshots(cls):
    """Snapshots of ``cls`` with every field drawn.

    Float fields draw whole numbers, so a sum and a delta are exact and the
    round trip can be checked with ``==``.
    """
    values = {}
    for field in fields(cls):
        draw = st.integers(min_value=0, max_value=10**12)
        values[field.name] = draw.map(float) if isinstance(field.default, float) else draw
    return st.builds(cls, **values)


def test_every_snapshot_class_is_on_the_protocol():
    assert set(Counters.__subclasses__()) == set(CLASSES)
    for cls in CLASSES:
        assert cls.levels == LEVELS.get(cls, set())
        for method in ("__add__", "__sub__", "as_dict"):
            assert method not in vars(cls), f"{cls.__name__} defines its own {method}"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sum_then_delta_gives_back_the_counts(cls, data):
    first = data.draw(snapshots(cls))
    second = data.draw(snapshots(cls))
    total = first + second
    delta = total - second
    for field in fields(cls):
        name = field.name
        if name in LEVELS.get(cls, ()):
            assert getattr(total, name) == max(getattr(first, name), getattr(second, name))
            assert getattr(delta, name) == getattr(total, name)
            assert getattr(first - second, name) == getattr(first, name)
        else:
            assert getattr(total, name) == getattr(first, name) + getattr(second, name)
            assert getattr(delta, name) == getattr(first, name)
    assert type(total) is cls and type(delta) is cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_as_dict_keeps_its_keys_and_values(cls, data):
    snapshot = data.draw(snapshots(cls))
    view = snapshot.as_dict()
    assert set(view) == AS_DICT_KEYS[cls]
    for name in [field.name for field in fields(cls)] + list(cls.rates):
        assert view[cls.key_prefix + name] == getattr(snapshot, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_arithmetic_needs_the_same_class(cls):
    other = next(candidate for candidate in CLASSES if candidate is not cls)
    with pytest.raises(TypeError):
        cls() + other()
    with pytest.raises(TypeError):
        cls() - other()


def test_of_reads_same_named_attributes_and_keeps_defaults():
    owner = SimpleNamespace(builds=2, queries=5, unrelated=7)
    assert IndexStats.of(owner) == IndexStats(builds=2, queries=5)
    assert ServeStats.of(owner, p50_latency_ms=3.5) == ServeStats(p50_latency_ms=3.5)


def test_total_skips_missing_snapshots():
    parts = [EngineStats(requests=2, hits=1, misses=1, max_batch=4), None,
             EngineStats(requests=3, misses=3, batches=1, max_batch=3)]
    assert EngineStats.total(parts) == EngineStats(
        requests=5, hits=1, misses=4, batches=1, max_batch=4
    )
    assert FeaturizerStats.total([]) == FeaturizerStats()
