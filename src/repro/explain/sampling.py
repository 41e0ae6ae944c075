"""Perturbation operators shared by the baseline explainers.

LIME-family explainers perturb the input pair by switching interpretable
features off; for ER the natural interpretable features are the attributes and
the natural "off" operations are:

* **drop** — blank the attribute value (LIME's original behaviour on text);
* **copy** — copy the aligned attribute value from the other record (Mojito's
  ``LIME COPY`` operator, meaningful for non-match predictions where dropping
  evidence can never create a match);
* **substitute** — replace the value with one drawn from the training
  distribution of that attribute (used by the DiCE-style counterfactual
  search).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.records import MISSING_VALUE, RecordPair
from repro.data.table import DataSource
from repro.explain.base import (
    apply_attribute_changes,
    pair_attribute_names,
    split_prefixed,
)


def aligned_opposite_value(pair: RecordPair, prefixed_name: str) -> str:
    """Value of the positionally aligned attribute on the *other* side of the pair.

    Used by the copy operator: for ``left_name`` it returns the value of the
    right record's attribute at the same position (or the same name when both
    schemas share it), and vice versa.
    """
    side, attribute = split_prefixed(prefixed_name)
    left_names = list(pair.left.attribute_names())
    right_names = list(pair.right.attribute_names())
    if side == "left":
        if attribute in right_names:
            return pair.right.value(attribute)
        index = left_names.index(attribute)
        if index < len(right_names):
            return pair.right.value(right_names[index])
        return MISSING_VALUE
    if attribute in left_names:
        return pair.left.value(attribute)
    index = right_names.index(attribute)
    if index < len(left_names):
        return pair.left.value(left_names[index])
    return MISSING_VALUE


def perturb_pair(pair: RecordPair, inactive: Sequence[str], operator: str = "drop") -> RecordPair:
    """Apply the chosen operator to every attribute in ``inactive``."""
    changes: dict[str, str] = {}
    for name in inactive:
        if operator == "drop":
            changes[name] = MISSING_VALUE
        elif operator == "copy":
            changes[name] = aligned_opposite_value(pair, name)
        else:
            raise ValueError(f"unknown perturbation operator {operator!r}")
    return apply_attribute_changes(pair, changes)


@dataclass
class AttributeValuePool:
    """Training-distribution value pool per prefixed attribute name.

    DiCE-style counterfactual search substitutes attribute values with values
    observed in the data sources, so generated examples stay on the data
    manifold.
    """

    values: dict[str, list[str]]

    @classmethod
    def from_sources(cls, left: DataSource, right: DataSource, limit_per_attribute: int = 400) -> "AttributeValuePool":
        """Collect distinct values per attribute from both sources."""
        pool: dict[str, list[str]] = {}
        for attribute in left.schema:
            pool[f"left_{attribute}"] = left.distinct_values(attribute)[:limit_per_attribute]
        for attribute in right.schema:
            pool[f"right_{attribute}"] = right.distinct_values(attribute)[:limit_per_attribute]
        return cls(values=pool)

    def sample_value(self, prefixed_name: str, rng: random.Random, exclude: str | None = None) -> str:
        """Draw one value for ``prefixed_name`` different from ``exclude`` when possible."""
        candidates = self.values.get(prefixed_name, [])
        if not candidates:
            return MISSING_VALUE
        for _ in range(8):
            value = candidates[rng.randrange(len(candidates))]
            if value != exclude:
                return value
        return candidates[rng.randrange(len(candidates))]


@dataclass
class BinaryPerturbationSample:
    """One LIME/SHAP perturbation: which attributes stay active plus the pair."""

    mask: np.ndarray
    pair: RecordPair


def score_perturbations(scorer, samples: Sequence[BinaryPerturbationSample]) -> np.ndarray:
    """Score every sampled perturbation in one vectorised call.

    ``scorer`` is anything with a ``predict_proba(Sequence[RecordPair])``
    method — typically a :class:`~repro.models.engine.PredictionEngine`, so
    repeated masks (common at small attribute counts) are deduplicated and the
    rest is scored in batches.
    """
    if not samples:
        return np.zeros(0, dtype=np.float64)
    return np.asarray(scorer.predict_proba([sample.pair for sample in samples]), dtype=np.float64)


def sample_binary_perturbations(
    pair: RecordPair,
    n_samples: int,
    operator: str = "drop",
    rng: random.Random | None = None,
) -> tuple[list[str], list[BinaryPerturbationSample]]:
    """Draw random on/off perturbations of the pair's attributes.

    Returns the prefixed attribute names (feature order) and the sampled
    perturbations.  The original pair (all-ones mask) comes first: it anchors
    the local surrogate model, which reads its score as ``scores[0]``.
    """
    rng = rng or random.Random(0)
    names = list(pair_attribute_names(pair))
    samples = [BinaryPerturbationSample(mask=np.ones(len(names)), pair=pair)]
    for _ in range(n_samples):
        mask = np.array([rng.random() < 0.5 for _ in names], dtype=np.float64)
        if mask.sum() == len(names):
            mask[rng.randrange(len(names))] = 0.0
        inactive = [name for name, active in zip(names, mask) if not active]
        samples.append(BinaryPerturbationSample(mask=mask, pair=perturb_pair(pair, inactive, operator)))
    return names, samples
