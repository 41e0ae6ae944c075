"""Text vectorisers: hashing bag-of-words and TF-IDF over numpy arrays.

The numpy ER models need a fixed-width numeric representation of free text
without any pretrained embeddings.  The hashing vectoriser provides a
vocabulary-free representation (used by the Ditto-style model on serialised
pairs); the TF-IDF vectoriser provides corpus-weighted vectors (used by the
classical baseline and the blocking diagnostics).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import NotFittedError
from repro.text.tokenize import tokenize


def stable_token_hash(token: str, seed: int = 0) -> int:
    """Deterministic (process-independent) hash of a token.

    Python's builtin ``hash`` is randomised per process, which would make
    trained models irreproducible across runs; md5 is stable and fast enough.
    """
    digest = hashlib.md5(f"{seed}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class HashingVectorizer:
    """Vocabulary-free bag-of-words vectoriser using the hashing trick."""

    n_features: int = 512
    seed: int = 0
    #: token -> (bucket, sign), so each distinct token is hashed once.
    _buckets: dict[str, tuple[int, float]] = field(default_factory=dict, repr=False, compare=False)

    def transform_text(self, text: str) -> np.ndarray:
        """Vectorise one text fragment into a dense ``n_features`` vector."""
        vector = np.zeros(self.n_features, dtype=np.float64)
        buckets = self._buckets
        for token in tokenize(text):
            entry = buckets.get(token)
            if entry is None:
                bucket_hash = stable_token_hash(token, seed=self.seed)
                sign = -1.0 if (bucket_hash >> 32) % 2 == 1 else 1.0
                entry = buckets[token] = (bucket_hash % self.n_features, sign)
            bucket, sign = entry
            vector[bucket] += sign
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Vectorise many text fragments into a ``(len(texts), n_features)`` matrix."""
        if not texts:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return np.vstack([self.transform_text(text) for text in texts])


@dataclass
class TfIdfVectorizer:
    """Classic TF-IDF vectoriser with an explicit fitted vocabulary."""

    max_features: int | None = 2048
    min_document_frequency: int = 1
    _vocabulary: dict[str, int] = field(default_factory=dict, repr=False)
    _idf: np.ndarray | None = field(default=None, repr=False)

    @property
    def vocabulary(self) -> dict[str, int]:
        """Fitted token -> column index mapping."""
        return dict(self._vocabulary)

    def fit(self, texts: Iterable[str]) -> "TfIdfVectorizer":
        """Learn the vocabulary and IDF weights from a corpus of texts."""
        texts = list(texts)
        document_frequency: Counter = Counter()
        for text in texts:
            document_frequency.update(set(tokenize(text)))
        candidates = [
            (count, token)
            for token, count in document_frequency.items()
            if count >= self.min_document_frequency
        ]
        candidates.sort(key=lambda item: (-item[0], item[1]))
        if self.max_features is not None:
            candidates = candidates[: self.max_features]
        self._vocabulary = {token: index for index, (_, token) in enumerate(candidates)}
        total_documents = max(len(texts), 1)
        idf = np.zeros(len(self._vocabulary), dtype=np.float64)
        for token, index in self._vocabulary.items():
            idf[index] = math.log((1 + total_documents) / (1 + document_frequency[token])) + 1.0
        self._idf = idf
        return self

    def _require_fitted(self) -> None:
        if self._idf is None:
            raise NotFittedError("TfIdfVectorizer.transform called before fit")

    def transform_text(self, text: str) -> np.ndarray:
        """TF-IDF vector of one text fragment (L2-normalised)."""
        self._require_fitted()
        assert self._idf is not None
        vector = np.zeros(len(self._vocabulary), dtype=np.float64)
        counts = Counter(tokenize(text))
        if not counts:
            return vector
        for token, count in counts.items():
            index = self._vocabulary.get(token)
            if index is None:
                continue
            vector[index] = count * self._idf[index]
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """TF-IDF matrix for many text fragments."""
        self._require_fitted()
        if not texts:
            return np.zeros((0, len(self._vocabulary)), dtype=np.float64)
        return np.vstack([self.transform_text(text) for text in texts])

    def fit_transform(self, texts: Sequence[str]) -> np.ndarray:
        """Fit on ``texts`` then transform them."""
        return self.fit(texts).transform(texts)


def cosine_similarity_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between rows of two matrices."""
    if left.ndim != 2 or right.ndim != 2:
        raise ValueError("cosine_similarity_matrix expects 2-D arrays")
    left_norms = np.linalg.norm(left, axis=1, keepdims=True)
    right_norms = np.linalg.norm(right, axis=1, keepdims=True)
    left_normalised = np.divide(left, np.where(left_norms == 0, 1.0, left_norms))
    right_normalised = np.divide(right, np.where(right_norms == 0, 1.0, right_norms))
    return left_normalised @ right_normalised.T


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity between two 1-D vectors (0 when either is all-zero)."""
    left_norm = np.linalg.norm(left)
    right_norm = np.linalg.norm(right)
    if left_norm == 0 or right_norm == 0:
        return 0.0
    return float(np.dot(left, right) / (left_norm * right_norm))
