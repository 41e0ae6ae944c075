"""CERTA against Eq. 1-3 of the paper, not against itself.

The oracle below shares no code with the lattice drivers: it imports nothing
from :mod:`repro.certa.lattice`.  For the open triangles the explainer's own
triangle search returns, it scores every non-empty proper attribute subset of
the free record one perturbed pair at a time, tags the full set by the
paper's footnote 2 (it flips iff a smaller subset flips), and computes:

* the flip count ``f`` and the saliency ``phi_a = N[a] / f`` (Eq. 1);
* the per-side probability of sufficiency ``chi`` of every flipped subset
  other than the full set, over the triangles on that side (Eq. 2);
* the golden set ``A*``: the largest ``chi``, then the smallest set, then
  side and sorted attribute names (Eq. 3).

With ``monotone=False`` the explainer also scores every subset, so any
matcher must agree.  With ``monotone=True`` it infers the supersets of a
flip instead, which equals exhaustive scoring only for a matcher whose flips
are upward closed; :class:`AgreementMatcher` with ``needed=1`` is one.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from repro.certa.explainer import CertaExplainer
from repro.certa.perturbation import perturbed_pair
from repro.certa.triangles import find_open_triangles
from repro.explain.base import prefixed_attribute
from repro.models.base import MATCH_THRESHOLD
from repro.text.similarity import jaccard
from repro.text.tokenize import tokenize

from tests.helpers import SimilarityModel, toy_pairs, toy_sources


class AgreementMatcher(SimilarityModel):
    """Match iff at least ``needed`` attributes agree (token Jaccard >= 0.5).

    A perturbation copies support values into the free record.  With
    ``needed=1`` a match flips once every agreeing attribute is overwritten
    by a support that agrees on none, and a non-match flips once any
    attribute is copied from a support that agrees on it: both are upward
    closed in the copied set, so the matcher is exactly monotone.  With
    ``needed=2`` (of three) a copy can add one agreement and remove another,
    so flips need not be upward closed.
    """

    def __init__(self, needed: int) -> None:
        super().__init__()
        self.needed = needed

    def _score(self, pair) -> float:
        agreeing = sum(
            jaccard(tokenize(pair.left.value(name)), tokenize(pair.right.value(name))) >= 0.5
            for name in pair.left.attribute_names()
        )
        return 1.0 if agreeing >= self.needed else 0.0


def oracle(explainer: CertaExplainer, pair) -> tuple[dict, list]:
    """What Eq. 1-3 make of ``pair``'s triangles, and each triangle's
    ``(attribute names, flipped proper subsets)``."""
    model = explainer.model
    search = find_open_triangles(
        model,
        pair,
        explainer.left_source,
        explainer.right_source,
        count=explainer.num_triangles,
        seed=explainer.seed,
        max_candidates=explainer.max_candidates,
        allow_augmentation=explainer.allow_augmentation,
        force_augmentation=explainer.force_augmentation,
        indexed=explainer.indexed,
    )
    original_match = model.predict_pair(pair) > MATCH_THRESHOLD
    flips = 0
    necessity: Counter[str] = Counter()
    sufficiency: Counter[tuple[str, frozenset[str]]] = Counter()
    triangles_by_side = Counter(triangle.side for triangle in search.triangles)
    flipped_by_triangle = []
    for triangle in search.triangles:
        names = triangle.free_record.attribute_names()
        flipped = []
        for size in range(1, len(names)):
            for subset in combinations(names, size):
                perturbed = perturbed_pair(triangle.pair, triangle.side, triangle.support, subset)
                if (model.predict_pair(perturbed) > MATCH_THRESHOLD) != original_match:
                    flipped.append(frozenset(subset))
        flipped_by_triangle.append((names, flipped))
        # Footnote 2: the full set is never scored; it flips iff a smaller set does.
        tagged = flipped + [frozenset(names)] if flipped else []
        flips += len(tagged)
        for attributes in tagged:
            for name in attributes:
                necessity[prefixed_attribute(triangle.side, name)] += 1
        for attributes in flipped:
            sufficiency[(triangle.side, attributes)] += 1

    saliency = {
        name: necessity[name] / flips if flips else 0.0
        for name in (
            prefixed_attribute(side, attribute)
            for side, record in (("left", pair.left), ("right", pair.right))
            for attribute in record.attribute_names()
        )
    }
    chi = {key: count / triangles_by_side[key[0]] for key, count in sufficiency.items()}
    best = min(
        chi,
        key=lambda key: (-chi[key], len(key[1]), key[0], tuple(sorted(key[1]))),
        default=None,
    )
    attribute_set: tuple[str, ...] = ()
    if best is not None:
        attribute_set = tuple(sorted(prefixed_attribute(best[0], name) for name in best[1]))
    expected = {
        "flips": flips,
        "saliency": saliency,
        "sufficiency_by_set": chi,
        "attribute_set": attribute_set,
        "sufficiency": chi[best] if best is not None else 0.0,
    }
    return expected, flipped_by_triangle


@pytest.mark.parametrize(
    ("model", "monotone"),
    [
        (SimilarityModel(), False),
        (AgreementMatcher(needed=2), False),
        (AgreementMatcher(needed=1), True),
    ],
    ids=["similarity-exhaustive", "threshold-exhaustive", "monotone-inferred"],
)
def test_explain_full_matches_the_eq_1_3_oracle(model, monotone):
    left, right = toy_sources()
    pairs = toy_pairs(left, right)
    flipping_pairs = 0
    for pair in pairs:
        explainer = CertaExplainer(model, left, right, num_triangles=10, monotone=monotone)
        expected, flipped_by_triangle = oracle(explainer, pair)
        if monotone:
            # The premise of monotone inference: flips are upward closed.
            for names, flipped in flipped_by_triangle:
                proper = [
                    frozenset(subset)
                    for size in range(1, len(names))
                    for subset in combinations(names, size)
                ]
                assert all(
                    other in flipped for subset in flipped for other in proper if subset < other
                )
        explanation = explainer.explain_full(pair)
        assert {
            "flips": explanation.flips,
            "saliency": explanation.saliency.scores,
            "sufficiency_by_set": explanation.sufficiency_by_set,
            "attribute_set": explanation.counterfactual.attribute_set,
            "sufficiency": explanation.counterfactual.sufficiency,
        } == expected
        flipping_pairs += expected["flips"] > 0
    # The comparison is not vacuous: most pairs have flipping subsets.
    assert flipping_pairs >= len(pairs) // 2
