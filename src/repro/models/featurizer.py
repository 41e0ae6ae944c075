"""Batched, content-cached featurisation for the ER matchers.

CERTA-style explanation workloads featurise thousands of perturbed copies of
the same few record pairs: the pivot record of an open triangle never changes
and the free record differs from its original by a token subset.  The naive
path (:meth:`~repro.models.base.ERModel._featurize_pair`, one pair at a time)
re-tokenises, re-embeds and re-runs the edit-distance and Monge-Elkan
comparisons on attribute values that are identical across nearly all of those
pairs.  This module is the featurisation counterpart of
:class:`~repro.models.engine.PredictionEngine`:

* **value interning** — every distinct attribute-value string is processed
  once per featurizer (:class:`~repro.text.interning.ValueFeatureCache`): token
  list/set, q-grams, hashed embedding, hashing-vectorizer vector;
* **pairwise-comparison caching, computed per pivot** — the 7-dim
  comparison vector and the composite attribute similarity are memoised per
  ``(left_value, right_value)`` (:class:`PairComparisonCache`), looked up a
  batch at a time.  A batch's misses that share one string (a lattice
  batch's pivot record, or a pivot attribute value) are computed together:
  the edit distances of all the free prefixes in one packed bit-parallel
  sweep along the pivot's prefix, and Monge-Elkan from one Jaro-Winkler
  matrix of the pivot's tokens against the union of the free tokens.  Only
  the Jaro-Winkler core keeps a memo, because token pairs recur across
  pivots;
* **batched assembly** — one featurizer per matcher family composes feature
  matrices from the cached artifacts with numpy stacking, column by column
  where the family has per-attribute blocks (:class:`RecordPairFeaturizer`
  for DeepER, :class:`AttributePairFeaturizer` for DeepMatcher,
  :class:`SerializedPairFeaturizer` for Ditto,
  :class:`ComparisonPairFeaturizer` for the classical baseline);
* **accounting** — :class:`FeaturizerStats` counts value and comparison cache
  traffic plus rows built, surfaced through
  ``PredictionEngine.featurizer_stats`` and the eval-harness reports.  A
  batch lookup counts exactly what a loop of single lookups would.

Every cached artifact equals what the naive path computes, bit for bit: the
grouped kernels are exact (integer edit distances, ``max`` over the same
Jaro-Winkler values, Monge-Elkan totals added with sequential ``+=`` in the
same order), so batched and naive featurisation produce **byte-identical**
feature matrices — the golden equivalence asserted by
``tests/test_featurizer.py`` and re-checked continuously by
``benchmarks/bench_featurization.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.counters import Counters
from repro.data.records import RecordPair
from repro.models.features import aligned_attribute_pairs, serialize_pair
from repro.text.interning import ValueFeatureCache, ValueFeatures
from repro.text.similarity import (
    jaccard,
    jaro_winkler,
    levenshtein_similarities,
    monge_elkan_grouped,
    overlap_coefficient,
    parsed_numeric_similarity,
)
from repro.text.vectorize import cosine_similarity


@dataclass(frozen=True)
class FeaturizerStats(Counters):
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

    rates = ("value_hit_rate", "comparison_hit_rate")

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


def _numeric_similarity(left: ValueFeatures, right: ValueFeatures) -> float:
    """:func:`repro.text.similarity.numeric_similarity` over parsed values."""
    if left.numeric is None or right.numeric is None:
        return 1.0 if left.value == right.value else 0.0
    return parsed_numeric_similarity(left.numeric, right.numeric)


PairKey = tuple[str, str]


def _pivot_groups(keys: list[PairKey]) -> dict[tuple[bool, str], list[PairKey]]:
    """``keys`` grouped by a shared string: ``{(pivot_left, pivot): keys}``.

    A key joins the group of its left string when that string is the left of
    at least as many keys as its right string is the right of, else the
    group of its right string.  A lattice batch pairs one pivot record with
    many perturbed free records, so its record-level keys form one group.
    """
    lefts = Counter(left for left, _ in keys)
    rights = Counter(right for _, right in keys)
    groups: dict[tuple[bool, str], list[PairKey]] = {}
    for key in keys:
        left, right = key
        group = (True, left) if lefts[left] >= rights[right] else (False, right)
        groups.setdefault(group, []).append(key)
    return groups


class PairComparisonCache:
    """Pairwise string-comparison artifacts, memoised per ``(left, right)``.

    Serves byte-identical replacements for
    :func:`repro.models.features.attribute_comparison_vector` and
    :func:`repro.text.similarity.attribute_similarity`, built from interned
    :class:`~repro.text.interning.ValueFeatures`.  ``attribute_similarity``
    is symmetric in its components, so its key is order-normalised; the
    comparison vector (whose empty flags and Monge-Elkan part are
    directional) is keyed exactly.  Cached arrays are shared — read-only.

    Lookups are batched: :meth:`comparison_vectors`, :meth:`similarities`
    and :meth:`composed_vectors` take a batch's keys, count one hit or miss
    per key exactly as a loop of single lookups would, and compute the
    distinct misses together.  Misses that share their left or right string
    (the pivot of a lattice batch) are computed per pivot: the edit
    distances of all free prefixes in one packed sweep along the pivot's
    prefix (:func:`~repro.text.similarity.levenshtein_distances`), and
    Monge-Elkan from one Jaro-Winkler matrix of the pivot's tokens against
    the union of the free tokens
    (:func:`~repro.text.similarity.monge_elkan_grouped`).  That matrix reads
    the bounded :attr:`jaro_winkler` memo, whose token pairs recur across
    pivots; :meth:`clear` empties it, pickling drops it, and :meth:`size`
    does not count it.
    """

    def __init__(self, values: ValueFeatureCache) -> None:
        self.values = values
        self._vectors: dict[PairKey, np.ndarray] = {}
        self._similarities: dict[PairKey, float] = {}
        self._composed: dict[PairKey, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self._build_memo()

    def _build_memo(self) -> None:
        self.jaro_winkler = lru_cache(maxsize=1 << 18)(jaro_winkler)

    def __getstate__(self) -> dict:
        """Pickle state without the memo (``lru_cache`` wrappers do not pickle)."""
        state = dict(self.__dict__)
        del state["jaro_winkler"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_memo()

    def _resolve(
        self, store: dict, keys: Sequence[PairKey], compute: Callable[[list[PairKey]], list]
    ) -> tuple[list, list[int]]:
        """The distinct keys' values and each key's index among them.

        One ``store`` lookup per distinct key; the misses are computed in
        one ``compute`` call.  A key already stored, or repeated within
        ``keys``, counts as a hit: the counts a loop of single lookups would
        make.
        """
        positions: dict[PairKey, int] = {}
        index = [positions.setdefault(key, len(positions)) for key in keys]
        values = [store.get(key) for key in positions]
        missing = [key for key, value in zip(positions, values) if value is None]
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        if missing:
            computed = dict(zip(missing, compute(missing)))
            store.update(computed)
            values = [computed[key] if value is None else value for key, value in zip(positions, values)]
        return values, index

    def comparison_vectors(self, keys: Sequence[PairKey]) -> np.ndarray:
        """The 7-dim per-attribute comparison vector of each key, one row per key."""
        values, index = self._resolve(self._vectors, keys, self._compute_vectors)
        return np.vstack(values)[index]

    def _compute_vectors(self, keys: list[PairKey]) -> list[np.ndarray]:
        vectors: dict[PairKey, np.ndarray] = {}
        for (pivot_left, _), group in _pivot_groups(keys).items():
            features = [
                (self.values.features(left), self.values.features(right)) for left, right in group
            ]
            free = [right if pivot_left else left for left, right in features]
            pivot = features[0][0] if pivot_left else features[0][1]
            edits = levenshtein_similarities(pivot.truncated, [item.truncated for item in free])
            monge = monge_elkan_grouped(
                pivot.me_tokens, [item.me_tokens for item in free], pivot_left, self.jaro_winkler
            )
            for key, (left, right), edit, monge_part in zip(group, features, edits, monge):
                vectors[key] = np.array(
                    [
                        jaccard(left.token_set, right.token_set),
                        overlap_coefficient(left.token_set, right.token_set),
                        edit,
                        monge_part,
                        _numeric_similarity(left, right),
                        1.0 if not key[0] else 0.0,
                        1.0 if not key[1] else 0.0,
                    ],
                    dtype=np.float64,
                )
        return [vectors[key] for key in keys]

    def similarities(self, keys: Sequence[PairKey]) -> np.ndarray:
        """The composite attribute similarity of each key (order-normalised keys)."""
        normalised = [(left, right) if left <= right else (right, left) for left, right in keys]
        values, index = self._resolve(self._similarities, normalised, self._compute_similarities)
        return np.array(values, dtype=np.float64)[index]

    def _compute_similarities(self, keys: list[PairKey]) -> list[float]:
        # Every part is symmetric, so a group may pivot on either side.
        results = {key: 0.0 if key[0] or key[1] else 1.0 for key in keys}
        measured = [key for key in keys if key[0] and key[1]]
        for (pivot_left, _), group in _pivot_groups(measured).items():
            features = [
                (self.values.features(left), self.values.features(right)) for left, right in group
            ]
            free = [right if pivot_left else left for left, right in features]
            pivot = features[0][0] if pivot_left else features[0][1]
            edits = levenshtein_similarities(pivot.truncated, [item.truncated for item in free])
            for key, (left, right), edit_part in zip(group, features, edits):
                token_part = jaccard(left.token_set, right.token_set)
                qgram_part = jaccard(left.qgram_set, right.qgram_set)
                results[key] = (token_part + qgram_part + edit_part) / 3.0
        return [results[key] for key in keys]

    def composed_vectors(
        self, keys: Sequence[PairKey], build: Callable[[list[PairKey]], list[np.ndarray]]
    ) -> np.ndarray:
        """Model-specific composed vectors keyed by ``(left, right)``, one row per key.

        ``build`` gets the batch's distinct misses and returns their vectors;
        they are cached and shared.
        """
        values, index = self._resolve(self._composed, keys, build)
        return np.vstack(values)[index]

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
        recomputation, never different results.  The memo is keyed by
        tokens, not values, so its LRU bound retires it.
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
        """Total number of cached pairwise entries (the memo not counted)."""
        return len(self._vectors) + len(self._similarities) + len(self._composed)

    def clear(self) -> None:
        """Drop all cached comparisons and the memo (counters are left intact)."""
        self._vectors.clear()
        self._similarities.clear()
        self._composed.clear()
        self.jaro_winkler.cache_clear()

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


def _aligned_columns(pairs: list[RecordPair]) -> list[list[PairKey]]:
    """Per aligned attribute position, every pair's ``(left_value, right_value)``."""
    rows = [
        [(left_value, right_value) for _, __, left_value, right_value in aligned_attribute_pairs(pair)]
        for pair in pairs
    ]
    return [list(column) for column in zip(*rows)]


def _record_texts(pairs: list[RecordPair]) -> list[PairKey]:
    """Every pair's whole-record texts, the key of its record-level comparison."""
    return [(pair.left.as_text(), pair.right.as_text()) for pair in pairs]


class RecordPairFeaturizer(PairFeaturizer):
    """DeepER: record-level embedding composition from interned record texts.

    Mirrors :meth:`repro.models.features.RecordEmbedder.compose_pair`: the
    embedding blocks are assembled as whole matrices (``|L - R|`` and
    ``L * R`` over stacked cached rows), the cosine per row through the same
    function the naive path calls, and the whole-record similarities in one
    :meth:`PairComparisonCache.similarities` batch.
    """

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        texts = _record_texts(pairs)
        left_rows = [self.values.embedding(left_text) for left_text, _ in texts]
        right_rows = [self.values.embedding(right_text) for _, right_text in texts]
        left_matrix = np.vstack(left_rows)
        right_matrix = np.vstack(right_rows)
        scalars = np.empty((len(pairs), 2), dtype=np.float64)
        for index, (left_vector, right_vector) in enumerate(zip(left_rows, right_rows)):
            scalars[index, 0] = cosine_similarity(left_vector, right_vector)
        scalars[:, 1] = self.comparisons.similarities(texts)
        return np.hstack(
            [np.abs(left_matrix - right_matrix), left_matrix * right_matrix, scalars]
        )


class AttributePairFeaturizer(PairFeaturizer):
    """DeepMatcher: per-attribute composed vectors cached by value pair.

    The entire 9-dim attribute vector (embedding cosine, embedding distance
    and the 7 comparison features) is a pure function of the two value
    strings, so it is memoised whole: a perturbed pair that changes one
    attribute misses only on that attribute's block.  The matrix is built
    column by column: one batch of lookups per aligned attribute, then one
    for the whole-record comparison vectors.
    """

    def _attribute_vectors(self, keys: list[PairKey]) -> list[np.ndarray]:
        comparisons = self.comparisons.comparison_vectors(keys)
        vectors = []
        for (left_value, right_value), comparison in zip(keys, comparisons):
            left_embedding = self.values.embedding(left_value)
            right_embedding = self.values.embedding(right_value)
            cosine = cosine_similarity(left_embedding, right_embedding)
            embedding_distance = float(np.linalg.norm(left_embedding - right_embedding)) / 2.0
            vectors.append(np.concatenate([[cosine, 1.0 - embedding_distance], comparison]))
        return vectors

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        blocks = [
            self.comparisons.composed_vectors(keys, self._attribute_vectors)
            for keys in _aligned_columns(pairs)
        ]
        blocks.append(self.comparisons.comparison_vectors(_record_texts(pairs)))
        return np.hstack(blocks)


class SerializedPairFeaturizer(PairFeaturizer):
    """Ditto: serialised-pair vectors and alignment from interned values.

    The hashed vector of each serialised record text is interned (the pivot
    side of a perturbed pair always hits), and the O(attributes^2) alignment
    matrices of composite attribute similarities come from one
    :meth:`PairComparisonCache.similarities` batch for all rows — only the
    perturbed values' comparisons are computed.
    """

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        # Each row looks up left x right similarities, then right x left
        # ones (the same order-normalised keys), as the naive path does.
        shapes = []
        keys: list[PairKey] = []
        for pair in pairs:
            left_values = [pair.left.value(name) for name in pair.left.attribute_names()]
            right_values = [pair.right.value(name) for name in pair.right.attribute_names()]
            shapes.append((len(left_values), len(right_values)))
            keys.extend((left, right) for left in left_values for right in right_values)
            keys.extend((right, left) for right in right_values for left in left_values)
        similarities = self.comparisons.similarities(keys)

        rows = []
        offset = 0
        for pair, (left_width, right_width) in zip(pairs, shapes):
            left_text, right_text = serialize_pair(pair)
            left_vector = self.values.vector(left_text)
            right_vector = self.values.vector(right_text)
            interaction = left_vector * right_vector
            cosine = cosine_similarity(left_vector, right_vector)

            size = left_width * right_width
            if size:
                forward = similarities[offset : offset + size].reshape(left_width, right_width)
                backward = similarities[offset + size : offset + 2 * size].reshape(right_width, left_width)
                alignment_vector = np.concatenate([forward.max(axis=1), backward.max(axis=1)])
            else:
                alignment_vector = np.zeros(left_width + right_width, dtype=np.float64)
            offset += 2 * size
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
    """Classical baseline: cached comparison vectors, one batch per column."""

    def _compose(self, pairs: list[RecordPair]) -> np.ndarray:
        columns = _aligned_columns(pairs) + [_record_texts(pairs)]
        return np.hstack([self.comparisons.comparison_vectors(keys) for keys in columns])
