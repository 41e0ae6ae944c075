"""Attribute powerset lattices, flipping antichains and monotone exploration.

For every open triangle CERTA builds a lattice over the powerset of the free
record's attributes (Section 4 of the paper).  Each node is tagged with the
flipping operator ``gamma``: 1 when copying the node's attributes from the
support record flips the prediction, 0 otherwise.  Under the monotone
classifier assumption a flip at node ``A`` implies a flip at every superset of
``A``, so a bottom-up breadth-first exploration only needs to *test* nodes that
cannot be inferred — the saved predictions are quantified in Table 7 of the
paper.

Two exploration drivers share those semantics: :func:`explore_lattice` walks
one lattice node-by-node (the reference implementation), while
:func:`explore_lattices` synchronises the breadth-first frontier across many
lattices so each level can be resolved with one batched model call (see
:mod:`repro.models.engine`).  Both produce identical tags on every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

from repro.exceptions import LatticeError


@dataclass
class LatticeNode:
    """One subset of attributes with its flip tag and provenance."""

    attributes: frozenset[str]
    flip: bool | None = None
    evaluated: bool = False  # True when the model was actually called

    @property
    def size(self) -> int:
        return len(self.attributes)

    @property
    def tagged(self) -> bool:
        """Whether the node has a flip / non-flip tag (tested or inferred)."""
        return self.flip is not None


@dataclass
class ExplorationStats:
    """Bookkeeping of one lattice exploration (feeds Table 7).

    ``attributes`` / ``expected_predictions`` / ``performed_predictions`` are
    the per-lattice counters of the paper: a lattice over ``l`` attributes
    expects ``2^l - 2`` predictions (neither the empty nor the full set is
    evaluated) and performs fewer under the monotonicity assumption.

    The two batch fields describe how the performed predictions were issued:

    ``batched_rounds``
        Number of frontier rounds in which this lattice contributed at least
        one node to a batched evaluation (see :func:`explore_lattices`).
        Sequential exploration leaves it at 0.
    ``largest_frontier``
        Most nodes this lattice contributed to a single round — the peak
        per-lattice share of a batched model call.  Sequential exploration
        leaves it at 0.
    """

    attributes: int
    expected_predictions: int
    performed_predictions: int
    batched_rounds: int = 0
    largest_frontier: int = 0

    @property
    def saved_predictions(self) -> int:
        return self.expected_predictions - self.performed_predictions


#: Node keys per attribute tuple, shared by every lattice over that tuple.
#: An explanation's ``sufficiency_by_set`` keeps its lattices' keys, so
#: private keys would cost each retained explanation one frozenset per entry.
#: A plain dict rather than ``functools.lru_cache``: benchmark cold starts
#: empty every library ``cache_clear``, which would make the keys private
#: again.  It holds attribute-name subsets only, nothing a matcher decides.
_NODE_KEYS: dict[tuple[str, ...], tuple[frozenset[str], ...]] = {}

#: Schemas :data:`_NODE_KEYS` holds before it is emptied.
_NODE_KEY_SCHEMAS = 32


def _node_keys(attributes: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """The non-empty subsets of ``attributes``, by size then combination order."""
    keys = _NODE_KEYS.get(attributes)
    if keys is None:
        if len(_NODE_KEYS) >= _NODE_KEY_SCHEMAS:
            _NODE_KEYS.clear()
        keys = tuple(
            frozenset(subset)
            for size in range(1, len(attributes) + 1)
            for subset in combinations(attributes, size)
        )
        # Two threads building a schema's first lattice at once compute equal
        # tuples; ``setdefault`` hands both the one stored first.
        keys = _NODE_KEYS.setdefault(attributes, keys)
    return keys


class AttributeLattice:
    """Powerset lattice over the attributes of one record schema.

    The empty set is excluded (perturbing nothing can never flip); the full
    attribute set is included and tagged, but Equation 3 excludes it from the
    counterfactual argmax, which :meth:`candidate_sets` honours.

    The node keys (attribute frozensets) are shared with every lattice over
    the same attribute tuple; the :class:`LatticeNode` objects, whose flip
    tags belong to one triangle, are this lattice's own.
    """

    def __init__(self, attributes: Sequence[str]) -> None:
        attributes = list(attributes)
        if not attributes:
            raise LatticeError("cannot build a lattice over zero attributes")
        if len(set(attributes)) != len(attributes):
            raise LatticeError(f"duplicate attributes in lattice: {attributes}")
        self.attributes = tuple(attributes)
        self._nodes: dict[frozenset[str], LatticeNode] = {
            key: LatticeNode(attributes=key) for key in _node_keys(self.attributes)
        }

    # ------------------------------------------------------------------ access

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, attributes: Iterable[str]) -> bool:
        return frozenset(attributes) in self._nodes

    def node(self, attributes: Iterable[str]) -> LatticeNode:
        """The node for a given attribute set."""
        key = frozenset(attributes)
        try:
            return self._nodes[key]
        except KeyError as exc:
            raise LatticeError(f"attribute set {sorted(key)} not in lattice") from exc

    def nodes(self) -> list[LatticeNode]:
        """All nodes, ordered by subset size then lexicographically."""
        return sorted(self._nodes.values(), key=lambda node: (node.size, tuple(sorted(node.attributes))))

    def levels(self) -> list[list[LatticeNode]]:
        """Nodes grouped by subset size (level 1 first)."""
        grouped: dict[int, list[LatticeNode]] = {}
        for node in self.nodes():
            grouped.setdefault(node.size, []).append(node)
        return [grouped[size] for size in sorted(grouped)]

    def supersets(self, attributes: Iterable[str], strict: bool = True) -> list[LatticeNode]:
        """All (strict) superset nodes of an attribute set."""
        key = frozenset(attributes)
        result = []
        for node in self._nodes.values():
            if key < node.attributes or (not strict and key == node.attributes):
                result.append(node)
        return result

    def subsets(self, attributes: Iterable[str], strict: bool = True) -> list[LatticeNode]:
        """All (strict) non-empty subset nodes of an attribute set."""
        key = frozenset(attributes)
        result = []
        for node in self._nodes.values():
            if node.attributes < key or (not strict and node.attributes == key):
                result.append(node)
        return result

    # ----------------------------------------------------------------- tagging

    def tag(self, attributes: Iterable[str], flip: bool, evaluated: bool = True) -> None:
        """Tag one node with a flip / non-flip outcome."""
        node = self.node(attributes)
        node.flip = flip
        node.evaluated = evaluated

    def propagate_flip(self, attributes: Iterable[str]) -> int:
        """Infer a flip for every untagged superset (monotone assumption).

        Returns the number of nodes whose tag was inferred by this call.
        """
        inferred = 0
        for node in self.supersets(attributes, strict=True):
            if node.flip is None:
                node.flip = True
                node.evaluated = False
                inferred += 1
        return inferred

    # ------------------------------------------------------------------ queries

    def flipped_nodes(self) -> list[LatticeNode]:
        """All nodes tagged as flips (tested or inferred)."""
        return [node for node in self.nodes() if node.flip]

    def evaluated_nodes(self) -> list[LatticeNode]:
        """All nodes whose tag came from an actual model call."""
        return [node for node in self.nodes() if node.tagged and node.evaluated]

    def minimal_flipping_antichain(self) -> list[frozenset[str]]:
        """The minimal flipping antichain: flips none of whose subsets flip."""
        flipped = {node.attributes for node in self.flipped_nodes()}
        antichain = []
        for attributes in flipped:
            if not any(other < attributes for other in flipped):
                antichain.append(attributes)
        return sorted(antichain, key=lambda item: (len(item), tuple(sorted(item))))

    def candidate_sets(self) -> list[frozenset[str]]:
        """Flipped attribute sets eligible as counterfactual sets (Eq. 3).

        The full attribute set is excluded: a counterfactual that rewrites the
        whole record is not considered an explanation.
        """
        full = frozenset(self.attributes)
        return [node.attributes for node in self.flipped_nodes() if node.attributes != full]


def _infer_full_set_tag(lattice: AttributeLattice) -> None:
    """Tag the full attribute set from every smaller node's tag (footnote 2).

    Shared by both exploration drivers so the never-evaluated full set keeps
    byte-identical semantics on the sequential and batched paths.
    """
    full = frozenset(lattice.attributes)
    any_flip = any(
        node.flip for node in lattice.nodes() if node.tagged and node.attributes != full
    )
    lattice.tag(full, bool(any_flip), evaluated=False)


def explore_lattice(
    lattice: AttributeLattice,
    evaluate: Callable[[frozenset[str]], bool],
    monotone: bool = True,
) -> ExplorationStats:
    """Tag every lattice node bottom-up, using monotone propagation if enabled.

    ``evaluate`` is called with an attribute set and must return True when the
    corresponding perturbation flips the prediction.  With ``monotone=True``
    tags of supersets of flipping nodes are inferred; with ``monotone=False``
    every node is evaluated explicitly (the exhaustive mode used to measure the
    error rate of the monotonicity assumption).

    Following the paper (footnote 2), the full attribute set is never evaluated
    explicitly: its tag is either inferred from a flipping subset or defaults
    to non-flip.  This keeps the "expected predictions" budget at ``2^l - 2``.
    """
    performed = 0
    full_set = frozenset(lattice.attributes)
    for level in lattice.levels():
        for node in level:
            if node.tagged:
                continue
            if node.attributes == full_set and len(lattice.attributes) > 1:
                _infer_full_set_tag(lattice)
                continue
            flip = bool(evaluate(node.attributes))
            performed += 1
            lattice.tag(node.attributes, flip, evaluated=True)
            if flip and monotone:
                lattice.propagate_flip(node.attributes)
    expected = 2 ** len(lattice.attributes) - 2  # paper counts neither the empty nor the full set
    return ExplorationStats(
        attributes=len(lattice.attributes),
        expected_predictions=expected,
        performed_predictions=performed,
    )


def explore_lattices(
    lattices: Sequence[AttributeLattice],
    evaluate_batch: Callable[[Sequence[tuple[int, frozenset[str]]]], Sequence[bool]],
    monotone: bool = True,
) -> list[ExplorationStats]:
    """Frontier-batched breadth-first exploration of several lattices at once.

    This is the batched counterpart of :func:`explore_lattice`: instead of
    evaluating one node at a time, every round collects the *frontier* — all
    still-untagged nodes of the current subset size across **all** lattices —
    and resolves it with a single call to ``evaluate_batch``.  The callback
    receives ``(lattice_index, attribute_set)`` requests and must return one
    flip verdict per request, in order; callers typically map the requests to
    perturbed record pairs and score them through a
    :class:`~repro.models.engine.PredictionEngine`.

    The result is node-for-node identical to running :func:`explore_lattice`
    on each lattice separately: monotone propagation only ever tags *strict*
    supersets, which live at strictly larger subset sizes, so the set of
    nodes that need evaluation at size ``k`` is fully determined before the
    round starts and cannot be changed by other size-``k`` evaluations.  Tags
    and propagation are applied in deterministic request order after each
    round.  The full attribute set keeps the sequential special case: it is
    never evaluated, its tag being inferred once every smaller node of its
    lattice is tagged (footnote 2 of the paper).

    Returns one :class:`ExplorationStats` per lattice, in input order, with
    the batch fields (``batched_rounds``, ``largest_frontier``) filled in.
    """
    lattices = list(lattices)
    performed = [0] * len(lattices)
    rounds = [0] * len(lattices)
    largest = [0] * len(lattices)
    full_sets = [frozenset(lattice.attributes) for lattice in lattices]
    levels_by_lattice = [lattice.levels() for lattice in lattices]
    max_levels = max((len(lattice.attributes) for lattice in lattices), default=0)

    for level in range(1, max_levels + 1):
        requests: list[tuple[int, LatticeNode]] = []
        for index, lattice in enumerate(lattices):
            if level > len(lattice.attributes):
                continue
            for node in levels_by_lattice[index][level - 1]:
                if node.tagged:
                    continue
                if node.attributes == full_sets[index] and len(lattice.attributes) > 1:
                    _infer_full_set_tag(lattice)
                    continue
                requests.append((index, node))
        if not requests:
            continue
        verdicts = list(evaluate_batch([(index, node.attributes) for index, node in requests]))
        if len(verdicts) != len(requests):
            raise LatticeError(
                f"evaluate_batch returned {len(verdicts)} verdicts for {len(requests)} requests"
            )
        contributions: dict[int, int] = {}
        for (index, node), verdict in zip(requests, verdicts):
            flip = bool(verdict)
            lattices[index].tag(node.attributes, flip, evaluated=True)
            performed[index] += 1
            contributions[index] = contributions.get(index, 0) + 1
            if flip and monotone:
                lattices[index].propagate_flip(node.attributes)
        for index, count in contributions.items():
            rounds[index] += 1
            largest[index] = max(largest[index], count)

    return [
        ExplorationStats(
            attributes=len(lattice.attributes),
            expected_predictions=2 ** len(lattice.attributes) - 2,
            performed_predictions=performed[index],
            batched_rounds=rounds[index],
            largest_frontier=largest[index],
        )
        for index, lattice in enumerate(lattices)
    ]


def monotonicity_violations(
    lattice_attributes: Sequence[str],
    evaluate: Callable[[frozenset[str]], bool],
) -> tuple[AttributeLattice, AttributeLattice, int, int]:
    """Compare monotone exploration against exhaustive evaluation on one lattice.

    Returns ``(monotone_lattice, exhaustive_lattice, saved, wrong)`` where
    ``saved`` is the number of predictions the monotone mode skipped and
    ``wrong`` is the number of skipped nodes whose inferred tag disagrees with
    the true (exhaustively computed) tag.  This feeds the error-rate column of
    Table 7.
    """
    monotone_lattice = AttributeLattice(lattice_attributes)
    monotone_stats = explore_lattice(monotone_lattice, evaluate, monotone=True)
    exhaustive_lattice = AttributeLattice(lattice_attributes)
    explore_lattice(exhaustive_lattice, evaluate, monotone=False)

    wrong = 0
    for node in monotone_lattice.nodes():
        if node.evaluated:
            continue
        true_flip = exhaustive_lattice.node(node.attributes).flip
        if node.flip != true_flip:
            wrong += 1
    saved = monotone_stats.saved_predictions
    return monotone_lattice, exhaustive_lattice, saved, wrong
