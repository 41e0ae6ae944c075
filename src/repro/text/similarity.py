"""String and set similarity measures.

These are the comparison primitives behind the DeepMatcher-style attribute
summarisation model, the evaluation metrics (proximity / diversity are
attribute-wise distances) and the blocking heuristics.  All functions return
similarities in ``[0, 1]`` where ``1`` means identical.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Sequence

from repro.text.tokenize import qgrams, tokenize


def jaccard(left: Iterable[str], right: Iterable[str]) -> float:
    """Jaccard similarity between two token collections."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / len(left_set | right_set)


def overlap_coefficient(left: Iterable[str], right: Iterable[str]) -> float:
    """Overlap coefficient (Szymkiewicz-Simpson) between two token collections."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / min(len(left_set), len(right_set))


def dice_coefficient(left: Iterable[str], right: Iterable[str]) -> float:
    """Sorensen-Dice coefficient between two token collections."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return 2.0 * len(left_set & right_set) / (len(left_set) + len(right_set))


def cosine_tokens(left: Iterable[str], right: Iterable[str]) -> float:
    """Cosine similarity between token multiset (bag-of-words) vectors."""
    left_counts, right_counts = Counter(left), Counter(right)
    if not left_counts and not right_counts:
        return 1.0
    if not left_counts or not right_counts:
        return 0.0
    shared = set(left_counts) & set(right_counts)
    dot = sum(left_counts[token] * right_counts[token] for token in shared)
    left_norm = math.sqrt(sum(count * count for count in left_counts.values()))
    right_norm = math.sqrt(sum(count * count for count in right_counts.values()))
    return dot / (left_norm * right_norm)


def levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein edit distance by Myers' bit-parallel algorithm.

    Hyyrö's edit-distance form (2001) of Myers (JACM 1999): one column of the
    dynamic program over the longer string is held as vertical +1/-1 delta bit
    vectors, advanced one character of the shorter string per step with a
    handful of word operations.  Python ints are the bit vectors, so the
    result is exact at any length; columns up to 64 characters (the
    featurizer's edit prefix) fit one machine word.  ``tests/test_similarity``
    checks it against the textbook two-row dynamic program.
    """
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    if not right:
        return len(left)
    # Bit i of masks[c] is set where left[i] == c.
    masks: dict[str, int] = {}
    bit = 1
    for char in left:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    distance = len(left)
    positive, negative = full, 0
    for char in right:
        equal = masks.get(char, 0)
        diagonal = (((equal & positive) + positive) ^ positive) | equal | negative
        horizontal_positive = negative | ~(diagonal | positive)
        horizontal_negative = diagonal & positive
        if horizontal_positive & last:
            distance += 1
        elif horizontal_negative & last:
            distance -= 1
        # Row 0 of the program is 0, 1, 2, ...: every step shifts in a +1.
        horizontal_positive = (horizontal_positive << 1) | 1
        positive = ((horizontal_negative << 1) | ~(diagonal | horizontal_positive)) & full
        negative = horizontal_positive & diagonal
    return distance


def levenshtein_similarity(left: str, right: str) -> float:
    """Levenshtein distance normalised into a similarity in ``[0, 1]``."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left, right) / longest


def jaro(left: str, right: str) -> float:
    """Jaro similarity between two strings."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    match_window = max(len(left), len(right)) // 2 - 1
    match_window = max(match_window, 0)
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


def jaro_winkler(left: str, right: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler similarity, boosting shared prefixes."""
    base = jaro(left, right)
    prefix = 0
    for left_char, right_char in zip(left, right):
        if left_char != right_char or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def monge_elkan(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    token_similarity: "Callable[[str, str], float]" = jaro_winkler,
) -> float:
    """Monge-Elkan similarity: average best Jaro-Winkler match per left token.

    ``token_similarity`` lets
    :class:`~repro.models.featurizer.PairComparisonCache` reuse this loop
    with its memoised Jaro-Winkler instead of duplicating it.
    """
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(token_similarity(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


def qgram_similarity(left: str, right: str, q: int = 3) -> float:
    """Jaccard similarity over character q-grams."""
    return jaccard(qgrams(left, q=q), qgrams(right, q=q))


def parsed_numeric_similarity(left_value: float, right_value: float) -> float:
    """Relative difference of two parsed numbers mapped to [0, 1].

    The shared core of :func:`numeric_similarity`, also used by the
    content-cached featurisation layer over pre-parsed values.
    """
    if math.isnan(left_value) or math.isnan(right_value):
        return 0.0
    if left_value == right_value:
        return 1.0
    denominator = max(abs(left_value), abs(right_value))
    if denominator == 0:
        return 1.0
    return max(0.0, 1.0 - abs(left_value - right_value) / denominator)


def numeric_similarity(left: str, right: str) -> float:
    """Similarity for numeric-looking values: relative difference mapped to [0, 1].

    Falls back to exact string equality when either side does not parse as a
    number (the benchmark price columns are frequently missing or textual).
    """
    try:
        left_value = float(left)
        right_value = float(right)
    except (TypeError, ValueError):
        return 1.0 if left == right else 0.0
    return parsed_numeric_similarity(left_value, right_value)


def attribute_similarity(left_value: str, right_value: str) -> float:
    """Composite attribute-level similarity used throughout the library.

    Blend of token Jaccard, q-gram Jaccard and normalised edit similarity.
    Missing values are handled explicitly: two missing values count as similar,
    one missing value counts as maximally dissimilar.
    """
    if not left_value and not right_value:
        return 1.0
    if not left_value or not right_value:
        return 0.0
    token_part = jaccard(tokenize(left_value), tokenize(right_value))
    qgram_part = qgram_similarity(left_value, right_value)
    edit_part = levenshtein_similarity(left_value[:64], right_value[:64])
    return (token_part + qgram_part + edit_part) / 3.0


def pair_similarity_profile(left_values: Sequence[str], right_values: Sequence[str]) -> list[float]:
    """Attribute-aligned similarity vector for two equally long value lists."""
    if len(left_values) != len(right_values):
        raise ValueError(
            f"value lists must align, got lengths {len(left_values)} and {len(right_values)}"
        )
    return [attribute_similarity(left, right) for left, right in zip(left_values, right_values)]
