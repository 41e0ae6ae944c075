"""Batched, content-cached featurisation for the ER matchers.

CERTA-style explanation workloads featurise thousands of perturbed copies of
the same few record pairs: the pivot record of an open triangle never changes
and the free record differs from its original by a token subset.  The naive
path (:meth:`~repro.models.base.ERModel._featurize_pair`, one pair at a time)
re-tokenises, re-embeds and re-runs the O(n^2) edit-distance and Monge-Elkan
comparisons on attribute values that are identical across nearly all of those
pairs.  This module is the featurisation counterpart of
:class:`~repro.models.engine.PredictionEngine`:

* **value interning** — every distinct attribute-value string is processed
  once per featurizer (:class:`~repro.text.interning.ValueFeatureCache`): token
  list/set, q-grams, hashed embedding, hashing-vectorizer vector;
* **pairwise-comparison caching** — the 7-dim comparison vector and the
  composite attribute similarity are memoised per ``(left_value,
  right_value)`` (:class:`PairComparisonCache`), and under them the
  Levenshtein, Jaro-Winkler and Monge-Elkan cores, whose keys (edit
  prefixes, tokens, token tuples) repeat across distinct value pairs;
* **batched assembly** — one featurizer per matcher family composes feature
  matrices from the cached artifacts with numpy stacking
  (:class:`RecordPairFeaturizer` for DeepER, :class:`AttributePairFeaturizer`
  for DeepMatcher, :class:`SerializedPairFeaturizer` for Ditto,
  :class:`ComparisonPairFeaturizer` for the classical baseline);
* **accounting** — :class:`FeaturizerStats` counts value and comparison cache
  traffic plus rows built, surfaced through
  ``PredictionEngine.featurizer_stats`` and the eval-harness reports.

Every cached artifact is computed by the exact same functions the naive path
calls, in the same order, so batched and naive featurisation produce
**byte-identical** feature matrices — the golden equivalence asserted by
``tests/test_featurizer.py`` and re-checked continuously by
``benchmarks/bench_featurization.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from repro.data.records import RecordPair
from repro.models.features import aligned_attribute_pairs, serialize_pair
from repro.text.interning import ValueFeatureCache, ValueFeatures
from repro.text.similarity import (
    jaccard,
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
    overlap_coefficient,
    parsed_numeric_similarity,
)
from repro.text.vectorize import cosine_similarity


@dataclass(frozen=True)
class FeaturizerStats:
    """Counters of one featurizer (immutable snapshot semantics).

    ``value_hits`` / ``value_misses``
        Lookups of per-value artifacts (token features, embeddings, hashed
        vectors) served from / added to the interning cache.
    ``comparison_hits`` / ``comparison_misses``
        Lookups across the pairwise caches: the 7-dim comparison vector, the
        composite attribute similarity and model-specific composed vectors.
    ``rows_built``
        Feature-matrix rows assembled by the batched path.
    """

    value_hits: int = 0
    value_misses: int = 0
    comparison_hits: int = 0
    comparison_misses: int = 0
    rows_built: int = 0

    @property
    def value_hit_rate(self) -> float:
        """Fraction of value lookups served from the cache (0 when idle)."""
        requests = self.value_hits + self.value_misses
        return self.value_hits / requests if requests else 0.0

    @property
    def comparison_hit_rate(self) -> float:
        """Fraction of comparison lookups served from the cache (0 when idle)."""
        requests = self.comparison_hits + self.comparison_misses
        return self.comparison_hits / requests if requests else 0.0

    def __sub__(self, other: "FeaturizerStats") -> "FeaturizerStats":
        """Counter delta between two snapshots."""
        return FeaturizerStats(
            value_hits=self.value_hits - other.value_hits,
            value_misses=self.value_misses - other.value_misses,
            comparison_hits=self.comparison_hits - other.comparison_hits,
            comparison_misses=self.comparison_misses - other.comparison_misses,
            rows_built=self.rows_built - other.rows_built,
        )

    def __add__(self, other: "FeaturizerStats") -> "FeaturizerStats":
        """Counter sum, for aggregating across explanations or featurizers."""
        return FeaturizerStats(
            value_hits=self.value_hits + other.value_hits,
            value_misses=self.value_misses + other.value_misses,
            comparison_hits=self.comparison_hits + other.comparison_hits,
            comparison_misses=self.comparison_misses + other.comparison_misses,
            rows_built=self.rows_built + other.rows_built,
        )

    def as_dict(self) -> dict[str, float | int]:
        """Plain dictionary view for reports and CSV rows."""
        return {
            "value_hits": self.value_hits,
            "value_misses": self.value_misses,
            "value_hit_rate": self.value_hit_rate,
            "comparison_hits": self.comparison_hits,
            "comparison_misses": self.comparison_misses,
            "comparison_hit_rate": self.comparison_hit_rate,
            "rows_built": self.rows_built,
        }


def _numeric_similarity(left: ValueFeatures, right: ValueFeatures) -> float:
    """:func:`repro.text.similarity.numeric_similarity` over parsed values."""
    if left.numeric is None or right.numeric is None:
        return 1.0 if left.value == right.value else 0.0
    return parsed_numeric_similarity(left.numeric, right.numeric)


class PairComparisonCache:
    """Pairwise string-comparison artifacts, memoised per ``(left, right)``.

    Serves byte-identical replacements for
    :func:`repro.models.features.attribute_comparison_vector` and
    :func:`repro.text.similarity.attribute_similarity`, built from interned
    :class:`~repro.text.interning.ValueFeatures`.  ``attribute_similarity``
    is symmetric in its components, so its key is order-normalised; the
    comparison vector (whose empty flags and Monge-Elkan part are
    directional) is keyed exactly.  Cached arrays are shared — read-only.

    Under the stores sit bounded LRU memos of the similarity cores, whose
    keys recur across value pairs the stores keep apart: :attr:`levenshtein`
    (edit prefixes), :attr:`jaro_winkler` (tokens) and :attr:`monge_elkan`
    (token tuples, via :attr:`jaro_winkler`).  :meth:`clear` empties them,
    pickling drops them, and :meth:`size` does not count them.
    """

    def __init__(self, values: ValueFeatureCache) -> None:
        self.values = values
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        self._similarities: dict[tuple[str, str], float] = {}
        self._composed: dict[tuple[str, str], np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self._build_memos()

    def _build_memos(self) -> None:
        self.levenshtein = lru_cache(maxsize=1 << 18)(levenshtein_similarity)
        self.jaro_winkler = lru_cache(maxsize=1 << 18)(jaro_winkler)
        self.monge_elkan = lru_cache(maxsize=1 << 17)(
            partial(monge_elkan, token_similarity=self.jaro_winkler)
        )

    def __getstate__(self) -> dict:
        """Pickle state without the memos (``lru_cache`` wrappers do not pickle)."""
        state = dict(self.__dict__)
        del state["levenshtein"], state["jaro_winkler"], state["monge_elkan"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_memos()

    def comparison_vector(self, left: str, right: str) -> np.ndarray:
        """The 7-dim per-attribute comparison vector (cached, read-only)."""
        key = (left, right)
        cached = self._vectors.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        left_features = self.values.features(left)
        right_features = self.values.features(right)
        vector = np.array(
            [
                jaccard(left_features.token_set, right_features.token_set),
                overlap_coefficient(left_features.token_set, right_features.token_set),
                self.levenshtein(left_features.truncated, right_features.truncated),
                self.monge_elkan(left_features.me_tokens, right_features.me_tokens),
                _numeric_similarity(left_features, right_features),
                1.0 if not left else 0.0,
                1.0 if not right else 0.0,
            ],
            dtype=np.float64,
        )
        self._vectors[key] = vector
        return vector

    def similarity(self, left: str, right: str) -> float:
        """The composite attribute similarity (cached, order-normalised key)."""
        key = (left, right) if left <= right else (right, left)
        cached = self._similarities.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if not left and not right:
            result = 1.0
        elif not left or not right:
            result = 0.0
        else:
            left_features = self.values.features(left)
            right_features = self.values.features(right)
            token_part = jaccard(left_features.token_set, right_features.token_set)
            qgram_part = jaccard(left_features.qgram_set, right_features.qgram_set)
            edit_part = self.levenshtein(left_features.truncated, right_features.truncated)
            result = (token_part + qgram_part + edit_part) / 3.0
        self._similarities[key] = result
        return result

    def composed_vector(self, left: str, right: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        """Model-specific composed vector keyed by ``(left, right)``.

        ``build`` runs only on a miss; its result is cached and shared.
        """
        key = (left, right)
        cached = self._composed.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        vector = build()
        self._composed[key] = vector
        return vector

    def export_state(self) -> dict[str, dict]:
        """The pairwise stores as ``{name: {"keys": [...], "values": array}}``.

        Comparison vectors are uniform 7-dim rows and similarities are
        scalars; model-specific composed vectors are grouped by width
        (``composed_w<k>``) so families with different layouts coexist in one
        archive.  Empty stores are omitted.
        """
        state: dict[str, dict] = {}
        if self._vectors:
            keys = list(self._vectors)
            state["comparison_vectors"] = {
                "keys": [list(key) for key in keys],
                "values": np.vstack([self._vectors[key] for key in keys]),
            }
        if self._similarities:
            keys = list(self._similarities)
            state["similarities"] = {
                "keys": [list(key) for key in keys],
                "values": np.array([self._similarities[key] for key in keys], dtype=np.float64),
            }
        by_width: dict[int, list[tuple[str, str]]] = {}
        for key, vector in self._composed.items():
            by_width.setdefault(int(vector.shape[0]), []).append(key)
        for width, keys in by_width.items():
            state[f"composed_w{width}"] = {
                "keys": [list(key) for key in keys],
                "values": np.vstack([self._composed[key] for key in keys]),
            }
        return state

    def import_state(self, state: dict[str, dict]) -> None:
        """Install exported stores (existing entries win; counters untouched)."""
        for name, block in state.items():
            if name == "comparison_vectors":
                target = self._vectors
            elif name == "similarities":
                target = self._similarities
            elif name.startswith("composed_w"):
                target = self._composed
            else:
                continue
            values = np.asarray(block["values"])
            for key, value in zip(block["keys"], values):
                pair_key = (str(key[0]), str(key[1]))
                if name == "similarities":
                    target.setdefault(pair_key, float(value))
                else:
                    target.setdefault(pair_key, value)

    def evict(self, values) -> int:
        """Drop every pairwise entry touching any of ``values``; entries dropped.

        A pairwise artifact is unreachable once *either* of its value strings
        left every live record, so one scan per store removes all keys with a
        retired member.  Like :meth:`ValueFeatureCache.evict
        <repro.text.interning.ValueFeatureCache.evict>` this can only cause
        recomputation, never different results.  The memos are keyed by
        prefixes and tokens, not values, so their LRU bound retires them.
        """
        retired = set(values)
        if not retired:
            return 0
        dropped = 0
        for store in (self._vectors, self._similarities, self._composed):
            stale = [key for key in store if key[0] in retired or key[1] in retired]
            for key in stale:
                del store[key]
            dropped += len(stale)
        return dropped

    def size(self) -> int:
        """Total number of cached pairwise entries (the memos not counted)."""
        return len(self._vectors) + len(self._similarities) + len(self._composed)

    def clear(self) -> None:
        """Drop all cached comparisons and memos (counters are left intact)."""
        self._vectors.clear()
        self._similarities.clear()
        self._composed.clear()
        self.levenshtein.cache_clear()
        self.jaro_winkler.cache_clear()
        self.monge_elkan.cache_clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cached comparisons are left intact)."""
        self.hits = 0
        self.misses = 0


class PairFeaturizer:
    """Base class: interning + comparison caches + feature-matrix assembly.

    Subclasses implement :meth:`_compose` to assemble the matrix for one
    matcher family; the base class owns the caches and the row accounting.
    One featurizer belongs to one model instance (its embedding / vectorizer
    seeds are baked into the cached artifacts).

    ``max_entries`` bounds memory across arbitrarily long sweeps: when the
    interned artifact count exceeds it the caches reset wholesale
    (generation-style), and the hot values of the current workload re-intern
    in one pass.  The default comfortably holds any single explanation's
    working set while capping growth over hundreds of explained pairs.
    """

    def __init__(self, embeddings=None, vectorizer=None, max_entries: int = 200_000) -> None:
        self.values = ValueFeatureCache(embeddings=embeddings, vectorizer=vectorizer)
        self.comparisons = PairComparisonCache(self.values)
        self.max_entries = max_entries
        self._rows_built = 0

    @property
    def stats(self) -> FeaturizerStats:
        """Immutable snapshot of the cache counters."""
        return FeaturizerStats(
            value_hits=self.values.hits,
            value_misses=self.values.misses,
            comparison_hits=self.comparisons.hits,
            comparison_misses=self.comparisons.misses,
            rows_built=self._rows_built,
        )

    def featurize(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Feature matrix for ``pairs``, assembled from cached artifacts."""
        pairs = list(pairs)
        matrix = self._compose(pairs)
        self._rows_built += len(pairs)
        if self.values.size() + self.comparisons.size() > self.max_entries:
            self.clear()
        return matrix

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop all cached artifacts (counters are left intact)."""
        self.values.clear()
        self.comparisons.clear()

    def evict_values(self, values) -> int:
        """Drop cached artifacts keyed by (or paired with) ``values``; count dropped.

        The incremental counterpart of :meth:`clear`: after a
        ``DataSource`` mutation retires some value strings from every live
        record, only the entries derived from those strings are unreachable —
        everything else stays warm.
        """
        retired = [value for value in values if value]
        if not retired:
            return 0
        return self.values.evict(retired) + self.comparisons.evict(retired)

    def apply_source_deltas(self, deltas) -> int:
        """Evict the artifacts retired by a batch of ``SourceDelta`` mutations.

        Each :class:`~repro.data.table.SourceDelta` journals the value
        strings its mutation removed from every live record
        (``retired_values``); this consumes a ``deltas_since`` batch and
        drops exactly those entries.  Returns the number of entries dropped.
        Pass the deltas of every source feeding this featurizer — a value
        retired from one source may still live in another, which is safe
        (re-interned on next use) but wastes a recomputation.
        """
        retired: set[str] = set()
        for delta in deltas:
            retired.update(delta.retired_values)
        return self.evict_values(retired)

    # ------------------------------------------------------------- persistence

    def fingerprint(self) -> dict[str, object]:
        """JSON-compatible identity of everything baked into cached artifacts.

        Two featurizers with equal fingerprints produce byte-identical
        artifacts for any key, so a persisted cache
        (:meth:`~repro.data.artifacts.ArtifactStore.save_featurizer`) is
        valid for *any* dataset — entries are content-addressed by value
        string — but only under the exact same family and provider
        configuration (embedding dimension/seed, vectorizer width/seed).
        """

        def describe(provider) -> dict[str, object] | None:
            if provider is None:
                return None
            described: dict[str, object] = {"type": type(provider).__name__}
            for attribute in ("dimension", "n_features", "seed"):
                if hasattr(provider, attribute):
                    described[attribute] = getattr(provider, attribute)
            return described

        return {
            "family": type(self).__name__,
            "embeddings": describe(self.values.embeddings),
            "vectorizer": describe(self.values.vectorizer),
        }

    def export_state(self) -> dict[str, dict]:
        """All persistable cache stores (value-level and pairwise), merged."""
        state = self.values.export_state()
        state.update(self.comparisons.export_state())
        return state

    def import_state(self, state: dict[str, dict]) -> None:
        """Install a persisted state into the value and pairwise caches."""
        self.values.import_state(state)
        self.comparisons.import_state(state)

    def reset_stats(self) -> None:
        """Zero all counters (cached artifacts are left intact)."""
        self.values.reset_stats()
        self.comparisons.reset_stats()
        self._rows_built = 0


class RecordPairFeaturizer(PairFeaturizer):
    """DeepER: record-level embedding composition from interned record texts.

    Mirrors :meth:`repro.models.features.RecordEmbedder.compose_pair`: the
    embedding blocks are assembled as whole matrices (``|L - R|`` and
    ``L * R`` over stacked cached rows), the scalar tail per row through the
    same functions the naive path calls.
    """

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        left_texts = [pair.left.as_text() for pair in pairs]
        right_texts = [pair.right.as_text() for pair in pairs]
        left_rows = [self.values.embedding(text) for text in left_texts]
        right_rows = [self.values.embedding(text) for text in right_texts]
        left_matrix = np.vstack(left_rows)
        right_matrix = np.vstack(right_rows)
        scalars = np.empty((len(pairs), 2), dtype=np.float64)
        for index, (left_vector, right_vector) in enumerate(zip(left_rows, right_rows)):
            scalars[index, 0] = cosine_similarity(left_vector, right_vector)
            scalars[index, 1] = self.comparisons.similarity(left_texts[index], right_texts[index])
        return np.hstack(
            [np.abs(left_matrix - right_matrix), left_matrix * right_matrix, scalars]
        )


class AttributePairFeaturizer(PairFeaturizer):
    """DeepMatcher: per-attribute composed vectors cached by value pair.

    The entire 9-dim attribute vector (embedding cosine, embedding distance
    and the 7 comparison features) is a pure function of the two value
    strings, so it is memoised whole: a perturbed pair that changes one
    attribute misses only on that attribute's block.
    """

    def _attribute_vector(self, left_value: str, right_value: str) -> np.ndarray:
        def build() -> np.ndarray:
            left_embedding = self.values.embedding(left_value)
            right_embedding = self.values.embedding(right_value)
            cosine = cosine_similarity(left_embedding, right_embedding)
            embedding_distance = float(np.linalg.norm(left_embedding - right_embedding)) / 2.0
            comparisons = self.comparisons.comparison_vector(left_value, right_value)
            return np.concatenate([[cosine, 1.0 - embedding_distance], comparisons])

        return self.comparisons.composed_vector(left_value, right_value, build)

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        rows = []
        for pair in pairs:
            blocks = [
                self._attribute_vector(left_value, right_value)
                for _, __, left_value, right_value in aligned_attribute_pairs(pair)
            ]
            blocks.append(
                self.comparisons.comparison_vector(pair.left.as_text(), pair.right.as_text())
            )
            rows.append(np.concatenate(blocks))
        return np.vstack(rows)


class SerializedPairFeaturizer(PairFeaturizer):
    """Ditto: serialised-pair vectors and alignment from interned values.

    The hashed vector of each serialised record text is interned (the pivot
    side of a perturbed pair always hits), and the O(attributes^2) alignment
    matrix of composite attribute similarities is served from the pairwise
    cache — only the perturbed value's comparisons are recomputed.
    """

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        rows = []
        for pair in pairs:
            left_text, right_text = serialize_pair(pair)
            left_vector = self.values.vector(left_text)
            right_vector = self.values.vector(right_text)
            interaction = left_vector * right_vector
            cosine = cosine_similarity(left_vector, right_vector)

            left_values = [pair.left.value(name) for name in pair.left.attribute_names()]
            right_values = [pair.right.value(name) for name in pair.right.attribute_names()]
            alignment: list[float] = []
            for left_value in left_values:
                if not right_values:
                    alignment.append(0.0)
                    continue
                alignment.append(
                    max(self.comparisons.similarity(left_value, right_value) for right_value in right_values)
                )
            for right_value in right_values:
                if not left_values:
                    alignment.append(0.0)
                    continue
                alignment.append(
                    max(self.comparisons.similarity(right_value, left_value) for left_value in left_values)
                )
            alignment_vector = np.array(alignment, dtype=np.float64)
            alignment_summary = np.array(
                [
                    float(alignment_vector.mean()) if alignment_vector.size else 0.0,
                    float(alignment_vector.min()) if alignment_vector.size else 0.0,
                    float(alignment_vector.max()) if alignment_vector.size else 0.0,
                ]
            )

            left_record_text = pair.left.as_text()
            right_record_text = pair.right.as_text()
            token_jaccard = jaccard(
                self.values.features(left_record_text).token_set,
                self.values.features(right_record_text).token_set,
            )
            whole_embedding_cosine = cosine_similarity(
                self.values.embedding(left_record_text), self.values.embedding(right_record_text)
            )
            rows.append(
                np.concatenate(
                    [
                        interaction,
                        alignment_vector,
                        alignment_summary,
                        [cosine, token_jaccard, whole_embedding_cosine],
                    ]
                )
            )
        return np.vstack(rows)


class ComparisonPairFeaturizer(PairFeaturizer):
    """Classical baseline: cached per-attribute comparison vectors only."""

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        rows = []
        for pair in pairs:
            blocks = [
                self.comparisons.comparison_vector(left_value, right_value)
                for _, __, left_value, right_value in aligned_attribute_pairs(pair)
            ]
            blocks.append(
                self.comparisons.comparison_vector(pair.left.as_text(), pair.right.as_text())
            )
            rows.append(np.concatenate(blocks))
        return np.vstack(rows)
