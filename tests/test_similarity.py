"""Tests for repro.text.similarity, including hypothesis property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    attribute_similarity,
    cosine_tokens,
    dice_coefficient,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_distances,
    levenshtein_similarities,
    levenshtein_similarity,
    monge_elkan,
    monge_elkan_grouped,
    numeric_similarity,
    overlap_coefficient,
    pair_similarity_profile,
    qgram_similarity,
)

short_text = st.text(alphabet="abcdef 0123", min_size=0, max_size=20)
token_lists = st.lists(st.sampled_from(["sony", "bravia", "black", "micro", "canon", "10"]), max_size=6)

# Tiny alphabets (one with a combining accent and an astral emoji) make
# strings share characters and align; the last allows any code point.
edit_alphabets = st.sampled_from(
    [
        st.sampled_from("ab"),
        st.sampled_from("e\u0301\U0001F600"),
        st.sampled_from("ab e\u0301\u00e9\U0001F600"),
        st.characters(),
    ]
)


@st.composite
def edit_pairs(draw):
    """Two strings of 0-200 code points: independent, equal, spliced or rotated."""
    chars = draw(edit_alphabets)
    size = draw(st.integers(min_value=0, max_value=200))
    left = draw(st.text(alphabet=chars, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["independent", "equal", "spliced", "rotated"]))
    if kind == "equal":
        return left, left
    if kind == "independent":
        return left, draw(st.text(alphabet=chars, max_size=200))
    start = draw(st.integers(min_value=0, max_value=len(left)))
    if kind == "rotated":
        return left, left[start:] + left[:start]
    end = draw(st.integers(min_value=start, max_value=len(left)))
    return left, left[:start] + draw(st.text(alphabet=chars, max_size=8)) + left[end:]


def dp_levenshtein_distance(left: str, right: str) -> int:
    """The textbook two-row dynamic program: the oracle for the bit-parallel kernel."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (left_char != right_char)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


@st.composite
def packed_groups(draw):
    """A text of 0-200 code points and 1-40 patterns: empty, equal to the
    text, spliced from it, longer than it, or independent."""
    chars = draw(edit_alphabets)

    def sized_text() -> str:
        size = draw(st.integers(min_value=0, max_value=200))
        return draw(st.text(alphabet=chars, min_size=size, max_size=size))

    text = sized_text()
    patterns = []
    lanes = draw(st.integers(min_value=1, max_value=40))
    kinds = st.sampled_from(["empty", "equal", "spliced", "longer", "independent"])
    for kind in draw(st.lists(kinds, min_size=lanes, max_size=lanes)):
        if kind == "empty":
            patterns.append("")
        elif kind == "equal":
            patterns.append(text)
        elif kind == "spliced":
            start = draw(st.integers(min_value=0, max_value=len(text)))
            end = draw(st.integers(min_value=start, max_value=len(text)))
            patterns.append(text[:start] + draw(st.text(alphabet=chars, max_size=8)) + text[end:])
        elif kind == "longer":
            patterns.append(text + draw(st.text(alphabet=chars, min_size=1, max_size=40)))
        else:
            patterns.append(sized_text())
    return text, patterns


def scan_jaro(left: str, right: str) -> float:
    """The textbook window scan: the oracle for the bit-parallel :func:`jaro`."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    match_window = max(max(len(left), len(right)) // 2 - 1, 0)
    left_matches = [False] * len(left)
    right_matches = [False] * len(right)
    matches = 0
    for i, left_char in enumerate(left):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(right))
        for j in range(start, end):
            if right_matches[j] or right[j] != left_char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(left_matches):
        if not matched:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(left) + matches / len(right) + (matches - transpositions) / matches
    ) / 3.0


class TestSetSimilarities:
    def test_jaccard_identical(self):
        assert jaccard(["a", "b"], ["a", "b"]) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard(["a"], ["b"]) == 0.0

    def test_jaccard_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_jaccard_one_empty(self):
        assert jaccard(["a"], []) == 0.0

    def test_overlap_subset_is_one(self):
        assert overlap_coefficient(["a"], ["a", "b", "c"]) == 1.0

    def test_dice_known_value(self):
        assert dice_coefficient(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_cosine_identical_bags(self):
        assert cosine_tokens(["a", "a", "b"], ["a", "a", "b"]) == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert cosine_tokens(["a"], ["b"]) == 0.0

    @given(token_lists, token_lists)
    @settings(max_examples=50, deadline=None)
    def test_jaccard_is_symmetric_and_bounded(self, left, right):
        value = jaccard(left, right)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(jaccard(right, left))


class TestEditDistances:
    def test_levenshtein_identical(self):
        assert levenshtein_distance("sony", "sony") == 0

    def test_levenshtein_known_value(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_levenshtein_empty_left(self):
        assert levenshtein_distance("", "abc") == 3

    def test_levenshtein_similarity_bounds(self):
        assert levenshtein_similarity("abc", "abd") == pytest.approx(2 / 3)

    def test_levenshtein_similarity_both_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_is_a_metric_on_samples(self, left, right):
        distance = levenshtein_distance(left, right)
        assert distance == levenshtein_distance(right, left)
        assert distance >= abs(len(left) - len(right))
        assert distance <= max(len(left), len(right))

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            ("a" * 64, "a" * 63 + "b", 1),
            ("ab" * 40, "ba" * 40, 2),
            ("x" * 200, "", 200),
            ("e\u0301cole", "\u00e9cole", 2),
            ("\U0001F600" * 70, "\U0001F600" * 65 + "a", 5),
        ],
    )
    def test_levenshtein_known_values_across_word_boundaries(self, left, right, expected):
        assert levenshtein_distance(left, right) == expected == dp_levenshtein_distance(left, right)

    @given(edit_pairs())
    @settings(max_examples=300, deadline=None)
    def test_levenshtein_matches_the_dp_oracle(self, pair):
        left, right = pair
        expected = dp_levenshtein_distance(left, right)
        assert levenshtein_distance(left, right) == expected
        assert levenshtein_distance(right, left) == expected
        longest = max(len(left), len(right))
        assert levenshtein_similarity(left, right) == (1.0 - expected / longest if longest else 1.0)


    @given(packed_groups())
    @settings(max_examples=100, deadline=None)
    def test_packed_distances_match_the_dp_oracle(self, group):
        text, patterns = group
        expected = [dp_levenshtein_distance(text, pattern) for pattern in patterns]
        assert levenshtein_distances(text, patterns) == expected
        similarities = levenshtein_similarities(text, patterns)
        assert similarities == [levenshtein_similarity(text, pattern) for pattern in patterns]

    def test_packed_distances_span_several_sweeps(self):
        text = "sony bravia theater"
        patterns = [text[:size] + "x" * (size % 3) for size in range(70)] + ["", text]
        expected = [dp_levenshtein_distance(text, pattern) for pattern in patterns]
        assert levenshtein_distances(text, patterns) == expected
        assert levenshtein_distances(text, []) == []
        assert levenshtein_distances("", ["", "ab"]) == [0, 2]


class TestJaro:
    def test_jaro_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_jaro_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_jaro_empty(self):
        assert jaro("", "abc") == 0.0

    def test_jaro_winkler_boosts_prefix(self):
        assert jaro_winkler("prefixes", "prefixed") >= jaro("prefixes", "prefixed")

    @given(short_text, short_text)
    @settings(max_examples=50, deadline=None)
    def test_jaro_winkler_bounded(self, left, right):
        assert 0.0 <= jaro_winkler(left, right) <= 1.0 + 1e-9

    @given(edit_alphabets.flatmap(lambda chars: st.tuples(st.text(chars, max_size=24), st.text(chars, max_size=24))))
    @settings(max_examples=300, deadline=None)
    def test_jaro_matches_the_scan_oracle(self, pair):
        left, right = pair
        assert jaro(left, right) == scan_jaro(left, right)
        assert jaro(right, left) == scan_jaro(right, left)


class TestCompositeSimilarities:
    def test_monge_elkan_identical_tokens(self):
        assert monge_elkan(["sony", "bravia"], ["sony", "bravia"]) == pytest.approx(1.0)

    def test_monge_elkan_empty(self):
        assert monge_elkan([], []) == 1.0
        assert monge_elkan(["a"], []) == 0.0

    @given(
        st.lists(st.sampled_from(["sony", "son", "bravia", "brav", "e\u0301t\u00e9", "10", "x"]), max_size=6),
        st.lists(
            st.lists(st.sampled_from(["sony", "bravia", "bra", "black", "\u00e9t\u00e9", "10", "1"]), max_size=6),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_grouped_monge_elkan_matches_the_loop(self, pivot, others):
        others = [tuple(other) for other in others]
        assert monge_elkan_grouped(pivot, others, pivot_left=True) == [
            monge_elkan(pivot, other) for other in others
        ]
        assert monge_elkan_grouped(pivot, others, pivot_left=False) == [
            monge_elkan(other, pivot) for other in others
        ]

    def test_grouped_monge_elkan_empty_tuples(self):
        assert monge_elkan_grouped([], [(), ("a",)], pivot_left=True) == [1.0, 0.0]
        assert monge_elkan_grouped(["a"], [(), ("a",)], pivot_left=False) == [0.0, 1.0]

    def test_qgram_similarity_identical(self):
        assert qgram_similarity("bravia", "bravia") == 1.0

    def test_numeric_similarity_equal_numbers(self):
        assert numeric_similarity("10", "10.0") == 1.0

    def test_numeric_similarity_relative(self):
        assert numeric_similarity("100", "50") == pytest.approx(0.5)

    def test_numeric_similarity_non_numeric_falls_back_to_equality(self):
        assert numeric_similarity("ten", "ten") == 1.0
        assert numeric_similarity("ten", "eleven") == 0.0

    def test_attribute_similarity_missing_values(self):
        assert attribute_similarity("", "") == 1.0
        assert attribute_similarity("sony", "") == 0.0

    def test_attribute_similarity_orders_sensibly(self):
        close = attribute_similarity("sony bravia theater", "sony bravia theater system")
        far = attribute_similarity("sony bravia theater", "canon photo printer")
        assert close > far

    @given(short_text, short_text)
    @settings(max_examples=50, deadline=None)
    def test_attribute_similarity_bounded_and_symmetric(self, left, right):
        value = attribute_similarity(left, right)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(attribute_similarity(right, left), abs=1e-9)

    def test_pair_similarity_profile_alignment(self):
        profile = pair_similarity_profile(["a", "b"], ["a", "c"])
        assert len(profile) == 2
        assert profile[0] == 1.0

    def test_pair_similarity_profile_requires_alignment(self):
        with pytest.raises(ValueError):
            pair_similarity_profile(["a"], ["a", "b"])
