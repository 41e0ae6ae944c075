"""String and set similarity measures.

These are the comparison primitives behind the DeepMatcher-style attribute
summarisation model, the evaluation metrics (proximity / diversity are
attribute-wise distances) and the blocking heuristics.  All functions return
similarities in ``[0, 1]`` where ``1`` means identical.

Two kernels compare one pivot against many strings at once, for the
featurizer's per-pivot batches: :func:`levenshtein_distances` packs the
patterns into lanes of one bit-parallel sweep, and
:func:`monge_elkan_grouped` reads one token-similarity matrix.  Both equal
their one-pair counterparts exactly; ``tests/test_similarity`` checks them
against the two-row dynamic program and against :func:`monge_elkan`, and the
bit-parallel :func:`jaro` against the textbook window scan.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

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


#: Patterns per packed sweep of :func:`levenshtein_distances`.  Every word
#: operation of a sweep touches all its lanes, so wider packing stops
#: paying: on the edit distances of three cold certa-wide explanations
#: (2-vCPU host), 8 lanes took 23 ms, 32 lanes 15 ms and 64-256 lanes
#: 14-15 ms, against 94 ms one pair at a time.
PACKED_LANES = 32


def levenshtein_distances(text: str, patterns: Sequence[str]) -> list[int]:
    """:func:`levenshtein_distance` from ``text`` to each of ``patterns``.

    The multi-pattern form of the same algorithm (Hyyrö, Fredriksson &
    Navarro, ACM JEA 2005): the distinct patterns sit side by side in one
    Python int, each in its own lane with a guard bit above it, and one
    sweep along ``text`` advances every lane's column by one character per
    step.  Masking ``positive`` to the lanes keeps them apart: the one
    addition then adds lane-only operands, so a lane's carry stops in its
    guard bit; ``horizontal_negative`` is lane-only, so its shift moves a
    lane's top bit into that lane's guard bit; and whatever the shift of
    ``horizontal_positive`` moves into a lane's lowest bit is overwritten by
    the row-0 +1.  Row 0 of each lane's program is ``0, 1, 2, ...``, so a
    lane's final distance is ``len(text)`` plus its final vertical +1
    deltas minus its -1 deltas.  Patterns are swept :data:`PACKED_LANES` at
    a time.  ``tests/test_similarity`` checks every lane against the two-row
    dynamic program.  One-pair callers keep :func:`levenshtein_distance`:
    a one-lane sweep costs ~1.5x as much, for building its masks in numpy.
    """
    distinct = list(dict.fromkeys(patterns))
    distances: dict[str, int] = {}
    for start in range(0, len(distinct), PACKED_LANES):
        chunk = distinct[start : start + PACKED_LANES]
        distances.update(zip(chunk, _packed_distances(text, chunk)))
    return [distances[pattern] for pattern in patterns]


def _packed_distances(text: str, patterns: list[str]) -> list[int]:
    """One sweep of :func:`levenshtein_distances` over up to :data:`PACKED_LANES` patterns."""
    # Bit i of masks[c] is set where the patterns, joined by one guard
    # position each, hold c at position i.  (A NUL in ``text`` matches the
    # guard positions; like every guard bit, those never reach a lane.)
    chars = list(dict.fromkeys(text))
    joined = np.frombuffer("\0".join(patterns).encode("utf-32-le", "surrogatepass"), np.uint32)
    wanted = np.frombuffer("".join(chars).encode("utf-32-le", "surrogatepass"), np.uint32)
    rows = np.packbits(joined == wanted[:, None], axis=1, bitorder="little")
    width = rows.shape[1]
    packed = rows.tobytes()
    masks = {
        char: int.from_bytes(packed[index * width : (index + 1) * width], "little")
        for index, char in enumerate(chars)
    }
    lanes = 0  # every pattern bit
    low = 0  # the lowest bit of every non-empty lane
    offset = 0
    for pattern in patterns:
        lanes |= ((1 << len(pattern)) - 1) << offset
        if pattern:
            low |= 1 << offset
        offset += len(pattern) + 1
    positive, negative = lanes, 0
    for char in text:
        equal = masks[char]
        diagonal = (((equal & positive) + positive) ^ positive) | equal | negative
        horizontal_positive = negative | ~(diagonal | positive)
        horizontal_negative = diagonal & positive
        # Row 0 of the program is 0, 1, 2, ...: every step shifts in a +1.
        horizontal_positive = (horizontal_positive << 1) | low
        positive = ((horizontal_negative << 1) | ~(diagonal | horizontal_positive)) & lanes
        negative = horizontal_positive & diagonal
    distances = []
    offset = 0
    for pattern in patterns:
        lane = ((1 << len(pattern)) - 1) << offset
        distances.append(len(text) + (positive & lane).bit_count() - (negative & lane).bit_count())
        offset += len(pattern) + 1
    return distances


def levenshtein_similarities(text: str, others: Sequence[str]) -> list[float]:
    """:func:`levenshtein_similarity` of ``text`` and each of ``others``, from one sweep."""
    return [
        1.0 - distance / longest if (longest := max(len(text), len(other))) else 1.0
        for other, distance in zip(others, levenshtein_distances(text, others))
    ]


def jaro(left: str, right: str) -> float:
    """Jaro similarity between two strings, bit-parallel over ``right``.

    Bit ``j`` of ``masks[c]`` is set where ``right[j] == c``, ``unused``
    holds the ``right`` positions not matched yet, and ``(span << i) >>
    window`` is the match window of ``left[i]``.  The first unmatched
    position of ``left[i]`` in its window is then the lowest set bit of
    their intersection: the position the textbook scan finds.
    ``tests/test_similarity`` checks it against that scan.
    """
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(max(len(left), len(right)) // 2 - 1, 0)
    masks: dict[str, int] = {}
    bit = 1
    for char in right:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    unused = bit - 1
    span = (1 << (2 * window + 1)) - 1
    matched: list[str] = []  # the matched characters of ``left``, in order
    for i, char in enumerate(left):
        free = masks.get(char, 0) & unused & ((span << i) >> window)
        if free:
            unused ^= free & -free
            matched.append(char)
    if not matched:
        return 0.0
    matches = len(matched)
    used = (bit - 1) ^ unused
    transpositions = 0
    for char in matched:
        lowest = used & -used
        if right[lowest.bit_length() - 1] != char:
            transpositions += 1
        used ^= lowest
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


def monge_elkan(left_tokens: Sequence[str], right_tokens: Sequence[str]) -> float:
    """Monge-Elkan similarity: average best Jaro-Winkler match per left token."""
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(jaro_winkler(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


def monge_elkan_grouped(
    pivot: Sequence[str],
    others: Sequence[Sequence[str]],
    pivot_left: bool,
    token_similarity: Callable[[str, str], float] = jaro_winkler,
) -> list[float]:
    """:func:`monge_elkan` of ``pivot`` and each of ``others``, from one token matrix.

    ``monge_elkan(pivot, other)`` for every ``other`` when ``pivot_left``,
    else ``monge_elkan(other, pivot)``.  The ``token_similarity`` matrix of
    the distinct pivot tokens against the union of the others' tokens is
    computed once (the row-max form of Monge & Elkan, KDD 1996).  Each
    result is then a row maximum per left token over its own columns, added
    with sequential ``+=`` in left-token order: ``max`` is exact and the
    additions are those of :func:`monge_elkan`, so every result equals it
    bit for bit (``sum`` and ``np.sum`` would reorder or compensate them).
    """
    # One score per distinct token tuple; an empty tuple scores 1.0 against
    # an empty pivot, and any other pair with an empty side 0.0.
    scores = {tuple(other): 0.0 if pivot or other else 1.0 for other in others}
    measured = [other for other in scores if pivot and other]
    if measured:
        rows = {token: row for row, token in enumerate(dict.fromkeys(pivot))}
        columns: dict[str, int] = {}
        for other in measured:
            for token in other:
                columns.setdefault(token, len(columns))
        if pivot_left:
            matrix = np.array([[token_similarity(row, column) for column in columns] for row in rows])
            # Per other, each pivot row's maximum over that other's columns.
            starts = list(accumulate(map(len, measured[:-1]), initial=0))
            gathered = matrix[:, [columns[token] for other in measured for token in other]]
            maxima = np.maximum.reduceat(gathered, starts, axis=1)
            totals = np.zeros(len(measured))
            for token in pivot:
                totals += maxima[rows[token]]
            scores.update(zip(measured, (totals / len(pivot)).tolist()))
        else:
            matrix = np.array([[token_similarity(column, row) for column in columns] for row in rows])
            best = matrix.max(axis=0).tolist()  # per other token: its best pivot match
            for other in measured:
                total = 0.0
                for token in other:
                    total += best[columns[token]]
                scores[other] = total / len(other)
    return [scores[tuple(other)] for other in others]


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
