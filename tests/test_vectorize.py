"""Tests for repro.text.vectorize and repro.text.embeddings."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotFittedError
from repro.text.embeddings import HashedEmbeddings
from repro.text.tokenize import tokenize
from repro.text.vectorize import (
    HashingVectorizer,
    TfIdfVectorizer,
    cosine_similarity,
    cosine_similarity_matrix,
    stable_token_hash,
)


class TestStableHash:
    def test_hash_is_deterministic(self):
        assert stable_token_hash("sony") == stable_token_hash("sony")

    def test_hash_depends_on_seed(self):
        assert stable_token_hash("sony", seed=0) != stable_token_hash("sony", seed=1)

    def test_hash_differs_across_tokens(self):
        assert stable_token_hash("sony") != stable_token_hash("canon")


# Shared characters (an accent, an astral emoji) so tokens repeat, plus any code point.
unicode_chars = st.one_of(st.sampled_from("ab \u00e9\U0001F600"), st.characters())


class TestHashingVectorizer:
    def test_output_dimension(self):
        vectorizer = HashingVectorizer(n_features=64)
        assert vectorizer.transform_text("sony bravia").shape == (64,)

    def test_same_text_same_vector(self):
        vectorizer = HashingVectorizer(n_features=64)
        first = vectorizer.transform_text("sony bravia")
        second = vectorizer.transform_text("sony bravia")
        assert np.allclose(first, second)

    def test_empty_text_is_zero_vector(self):
        vectorizer = HashingVectorizer(n_features=16)
        assert np.allclose(vectorizer.transform_text(""), 0.0)

    def test_vectors_are_normalised(self):
        vectorizer = HashingVectorizer(n_features=64)
        vector = vectorizer.transform_text("sony bravia theater black")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_transform_matrix_shape(self):
        vectorizer = HashingVectorizer(n_features=32)
        matrix = vectorizer.transform(["a b", "c d", ""])
        assert matrix.shape == (3, 32)

    def test_transform_empty_list(self):
        vectorizer = HashingVectorizer(n_features=32)
        assert vectorizer.transform([]).shape == (0, 32)

    @staticmethod
    def md5_transform_text(vectorizer: HashingVectorizer, text: str) -> np.ndarray:
        """The reference loop: every token hashed with md5 on every call."""
        vector = np.zeros(vectorizer.n_features, dtype=np.float64)
        for token in tokenize(text):
            bucket_hash = stable_token_hash(token, seed=vectorizer.seed)
            bucket = bucket_hash % vectorizer.n_features
            sign = -1.0 if (bucket_hash >> 32) % 2 == 1 else 1.0
            vector[bucket] += sign
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    @given(
        st.lists(st.text(alphabet=unicode_chars, max_size=40), max_size=6),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_interned_buckets_match_the_md5_loop_bit_for_bit(self, texts, n_features):
        vectorizer = HashingVectorizer(n_features=n_features, seed=5)
        for text in texts + texts:  # the second pass reads the token table
            expected = self.md5_transform_text(vectorizer, text)
            assert vectorizer.transform_text(text).tobytes() == expected.tobytes()

    def test_token_table_leaves_pickle_equality_and_repr_alone(self):
        vectorizer = HashingVectorizer(n_features=64, seed=3)
        fresh_repr = repr(vectorizer)
        vector = vectorizer.transform_text("sony bravia theater sony")
        assert fresh_repr == "HashingVectorizer(n_features=64, seed=3)"
        assert repr(vectorizer) == fresh_repr
        assert vectorizer == HashingVectorizer(n_features=64, seed=3)
        assert vectorizer != HashingVectorizer(n_features=64, seed=4)
        restored = pickle.loads(pickle.dumps(vectorizer))
        assert restored == vectorizer
        assert restored.transform_text("sony bravia theater sony").tobytes() == vector.tobytes()


class TestTfIdfVectorizer:
    CORPUS = ["sony bravia theater", "sony camera", "canon camera lens", "bose speaker"]

    def test_fit_transform_shape(self):
        vectorizer = TfIdfVectorizer(max_features=10)
        matrix = vectorizer.fit_transform(self.CORPUS)
        assert matrix.shape[0] == len(self.CORPUS)
        assert matrix.shape[1] <= 10

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfIdfVectorizer().transform_text("sony")

    def test_rare_terms_have_higher_idf_weight(self):
        vectorizer = TfIdfVectorizer()
        vectorizer.fit(self.CORPUS)
        vector = vectorizer.transform_text("sony bose")
        vocabulary = vectorizer.vocabulary
        assert vector[vocabulary["bose"]] > vector[vocabulary["sony"]]

    def test_unknown_tokens_are_ignored(self):
        vectorizer = TfIdfVectorizer()
        vectorizer.fit(self.CORPUS)
        assert np.allclose(vectorizer.transform_text("completely unknown words"), 0.0)

    def test_vectors_are_normalised(self):
        vectorizer = TfIdfVectorizer()
        vectorizer.fit(self.CORPUS)
        vector = vectorizer.transform_text("sony bravia theater")
        assert np.linalg.norm(vector) == pytest.approx(1.0)


class TestCosine:
    def test_identical_vectors(self):
        vector = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_matrix_shape(self):
        left = np.random.default_rng(0).standard_normal((3, 4))
        right = np.random.default_rng(1).standard_normal((5, 4))
        assert cosine_similarity_matrix(left, right).shape == (3, 5)

    def test_matrix_requires_2d(self):
        with pytest.raises(ValueError):
            cosine_similarity_matrix(np.zeros(3), np.zeros((2, 3)))


class TestHashedEmbeddings:
    def test_vector_dimension_and_norm(self):
        embeddings = HashedEmbeddings(dimension=16)
        vector = embeddings.vector("sony")
        assert vector.shape == (16,)
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_same_token_same_vector(self):
        embeddings = HashedEmbeddings(dimension=16)
        assert np.allclose(embeddings.vector("sony"), embeddings.vector("sony"))

    def test_different_tokens_different_vectors(self):
        embeddings = HashedEmbeddings(dimension=16)
        assert not np.allclose(embeddings.vector("sony"), embeddings.vector("canon"))

    def test_empty_text_embeds_to_zero(self):
        embeddings = HashedEmbeddings(dimension=16)
        assert np.allclose(embeddings.embed_text(""), 0.0)

    def test_shared_content_raises_similarity(self):
        embeddings = HashedEmbeddings(dimension=32)
        same = embeddings.similarity("sony bravia theater", "sony bravia theater system")
        different = embeddings.similarity("sony bravia theater", "canon photo printer ink")
        assert same > different

    def test_embed_values_shape(self):
        embeddings = HashedEmbeddings(dimension=8)
        assert embeddings.embed_values(["a", "b", "c"]).shape == (3, 8)
        assert embeddings.embed_values([]).shape == (0, 8)
