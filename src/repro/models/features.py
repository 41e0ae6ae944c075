"""Shared pair-featurisation building blocks for the ER matchers.

Each matcher stand-in combines these primitives differently, mirroring the
architectural differences of the original systems:

* **record-level composition** (DeepER): embed the whole record, compare once;
* **attribute-level summarisation** (DeepMatcher): compare aligned attributes
  and learn how to weigh them;
* **pair serialisation** (Ditto): flatten the pair into one token sequence and
  compare token interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from repro.data.records import Record, RecordPair
from repro.text.embeddings import HashedEmbeddings
from repro.text.similarity import (
    attribute_similarity,
    jaccard,
    levenshtein_similarity,
    monge_elkan,
    numeric_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import tokenize
from repro.text.vectorize import HashingVectorizer, cosine_similarity


def aligned_attribute_pairs(pair: RecordPair) -> list[tuple[str, str, str, str]]:
    """Align attributes of the two records positionally.

    Returns tuples ``(left_attribute, right_attribute, left_value, right_value)``.
    When the two schemas have different widths the extra attributes of the wider
    schema are paired with an empty value, so the feature width stays fixed for
    a given dataset.
    """
    return [
        (left_name, right_name, left_value, right_value)
        for (left_name, left_value), (right_name, right_value) in zip_longest(
            pair.left.values.items(), pair.right.values.items(), fillvalue=("", "")
        )
    ]


def attribute_comparison_vector(left_value: str, right_value: str) -> np.ndarray:
    """Per-attribute comparison features (7 values in [0, 1])."""
    left_tokens = tokenize(left_value)
    right_tokens = tokenize(right_value)
    return np.array(
        [
            jaccard(left_tokens, right_tokens),
            overlap_coefficient(left_tokens, right_tokens),
            levenshtein_similarity(left_value[:64], right_value[:64]),
            monge_elkan(left_tokens[:12], right_tokens[:12]),
            numeric_similarity(left_value, right_value),
            1.0 if not left_value else 0.0,
            1.0 if not right_value else 0.0,
        ],
        dtype=np.float64,
    )


@dataclass
class RecordEmbedder:
    """Record-level embedding composition (DeepER-style)."""

    embeddings: HashedEmbeddings

    def embed_record(self, record: Record) -> np.ndarray:
        """Average hashed-token embedding over the whole record text."""
        return self.embeddings.embed_text(record.as_text())

    def compose_pair(self, pair: RecordPair) -> np.ndarray:
        """DeepER-style composition: |e_u - e_v|, e_u * e_v and their cosine."""
        left_embedding = self.embed_record(pair.left)
        right_embedding = self.embed_record(pair.right)
        absolute_difference = np.abs(left_embedding - right_embedding)
        hadamard = left_embedding * right_embedding
        cosine = cosine_similarity(left_embedding, right_embedding)
        whole_record = attribute_similarity(pair.left.as_text(), pair.right.as_text())
        return np.concatenate([absolute_difference, hadamard, [cosine, whole_record]])


@dataclass
class AttributeEmbedder:
    """Attribute-level embedding comparisons (DeepMatcher-style)."""

    embeddings: HashedEmbeddings

    def attribute_vector(self, left_value: str, right_value: str) -> np.ndarray:
        """Embedding cosine plus string comparison features for one attribute pair."""
        left_embedding = self.embeddings.embed_text(left_value)
        right_embedding = self.embeddings.embed_text(right_value)
        cosine = cosine_similarity(left_embedding, right_embedding)
        embedding_distance = float(np.linalg.norm(left_embedding - right_embedding)) / 2.0
        comparisons = attribute_comparison_vector(left_value, right_value)
        return np.concatenate([[cosine, 1.0 - embedding_distance], comparisons])

    def compose_pair(self, pair: RecordPair) -> np.ndarray:
        """Concatenate per-attribute vectors in schema order."""
        vectors = [
            self.attribute_vector(left_value, right_value)
            for _, __, left_value, right_value in aligned_attribute_pairs(pair)
        ]
        return np.concatenate(vectors) if vectors else np.zeros(0)


def serialize_pair(pair: RecordPair) -> tuple[str, str]:
    """Ditto-style serialisation: ``COL <name> VAL <value>`` per attribute."""

    def serialize_record(record: Record) -> str:
        parts = []
        for name in record.attribute_names():
            value = record.value(name)
            parts.append(f"COL {name} VAL {value if value else 'NULL'}")
        return " ".join(parts)

    return serialize_record(pair.left), serialize_record(pair.right)


@dataclass
class SerializedPairEncoder:
    """Token-interaction features over serialised pairs (Ditto-style)."""

    vectorizer: HashingVectorizer
    embeddings: HashedEmbeddings

    def compose_pair(self, pair: RecordPair) -> np.ndarray:
        """Hashed-vector interactions plus cross-attribute alignment summary.

        The cross-attribute alignment part (best-matching attribute on the
        other side for every attribute) is what gives this encoder its
        "language-model-like" ability to recover from misplaced values in the
        Dirty datasets.
        """
        left_text, right_text = serialize_pair(pair)
        left_vector = self.vectorizer.transform_text(left_text)
        right_vector = self.vectorizer.transform_text(right_text)
        interaction = left_vector * right_vector
        cosine = cosine_similarity(left_vector, right_vector)

        left_values = [pair.left.value(name) for name in pair.left.attribute_names()]
        right_values = [pair.right.value(name) for name in pair.right.attribute_names()]
        alignment: list[float] = []
        for left_value in left_values:
            if not right_values:
                alignment.append(0.0)
                continue
            alignment.append(max(attribute_similarity(left_value, right_value) for right_value in right_values))
        for right_value in right_values:
            if not left_values:
                alignment.append(0.0)
                continue
            alignment.append(max(attribute_similarity(right_value, left_value) for left_value in left_values))
        alignment_vector = np.array(alignment, dtype=np.float64)
        alignment_summary = np.array(
            [
                float(alignment_vector.mean()) if alignment_vector.size else 0.0,
                float(alignment_vector.min()) if alignment_vector.size else 0.0,
                float(alignment_vector.max()) if alignment_vector.size else 0.0,
            ]
        )

        token_jaccard = jaccard(tokenize(pair.left.as_text()), tokenize(pair.right.as_text()))
        whole_embedding_cosine = self.embeddings.similarity(pair.left.as_text(), pair.right.as_text())
        return np.concatenate(
            [
                interaction,
                alignment_vector,
                alignment_summary,
                [cosine, token_jaccard, whole_embedding_cosine],
            ]
        )
