"""Attribute powerset lattices, flipping antichains and monotone exploration.

For every open triangle CERTA builds a lattice over the powerset of the free
record's attributes (Section 4 of the paper).  Each node is tagged with the
flipping operator ``gamma``: 1 when copying the node's attributes from the
support record flips the prediction, 0 otherwise.  Under the monotone
classifier assumption a flip at node ``A`` implies a flip at every superset of
``A``, so a bottom-up breadth-first exploration only needs to *test* nodes that
cannot be inferred — the saved predictions are quantified in Table 7 of the
paper.

A node is an int mask over the lattice's attribute tuple: bit ``i`` stands
for ``attributes[i]``.  What depends on the attribute tuple alone — each
mask's frozenset, the breadth-first order and the ``(side, attributes)`` keys
of an explanation's ``sufficiency_by_set`` — lives in one
:class:`SchemaTable` per tuple, shared by every lattice over that tuple; a
lattice holds only its per-mask flip tags and evaluated flags.  Propagation
walks the supersets of a mask by bit arithmetic (Knuth, TAOCP Vol. 4A,
§7.1.3).

Two exploration drivers share those semantics: :func:`explore_lattice` walks
one lattice node-by-node (the reference implementation), while
:func:`explore_lattices` synchronises the breadth-first frontier across many
lattices so each level can be resolved with one batched model call (see
:mod:`repro.models.engine`).  Both produce identical tags on every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import LatticeError


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


@dataclass(frozen=True)
class SchemaTable:
    """What every lattice over one attribute tuple shares, indexed by mask.

    An explanation's ``sufficiency_by_set`` keeps its lattices' keys, so
    keys private to a lattice would cost each retained explanation one
    frozenset and one tuple per entry.
    """

    #: Mask -> attribute frozenset (``sets[0]`` is the empty set).
    sets: tuple[frozenset[str], ...]
    #: The non-empty masks by size, then by sorted attribute names: the order
    #: that fixes frontier batches and the insertion order of
    #: ``sufficiency_by_set``.
    order: tuple[int, ...]
    #: ``order`` split by size, level 1 first.
    levels: tuple[tuple[int, ...], ...]
    #: Triangle side -> mask -> the ``(side, attributes)`` key.
    keys: dict[str, tuple[tuple[str, frozenset[str]], ...]]


#: Schema tables by attribute tuple.  A plain dict rather than
#: ``functools.lru_cache``: benchmark cold starts empty every library
#: ``cache_clear``, which would make the keys private again.  It holds
#: attribute-name subsets only, nothing a matcher decides.
_SCHEMA_TABLES: dict[tuple[str, ...], SchemaTable] = {}

#: Schemas :data:`_SCHEMA_TABLES` holds before it is emptied.
_SCHEMA_TABLE_LIMIT = 32


def _schema_table(attributes: tuple[str, ...]) -> SchemaTable:
    """The shared table of the lattices over ``attributes``."""
    table = _SCHEMA_TABLES.get(attributes)
    if table is None:
        if len(_SCHEMA_TABLES) >= _SCHEMA_TABLE_LIMIT:
            _SCHEMA_TABLES.clear()
        sets = tuple(
            frozenset(name for bit, name in enumerate(attributes) if mask >> bit & 1)
            for mask in range(1 << len(attributes))
        )
        order = tuple(
            sorted(range(1, len(sets)), key=lambda mask: (len(sets[mask]), sorted(sets[mask])))
        )
        table = SchemaTable(
            sets=sets,
            order=order,
            levels=tuple(
                tuple(mask for mask in order if len(sets[mask]) == size)
                for size in range(1, len(attributes) + 1)
            ),
            keys={side: tuple((side, subset) for subset in sets) for side in ("left", "right")},
        )
        # Two threads building a schema's first lattice at once compute equal
        # tables; ``setdefault`` hands both the one stored first.
        table = _SCHEMA_TABLES.setdefault(attributes, table)
    return table


class AttributeLattice:
    """Powerset lattice over the attributes of one record schema.

    Its nodes are the masks ``1 .. full``.  The empty set is excluded
    (perturbing nothing can never flip); the full attribute set is included
    and tagged, but Equation 3 excludes it from the counterfactual argmax,
    which :meth:`candidate_sets` honours.  ``flips[mask]`` is a node's tag
    (``None`` until tested or inferred) and ``evaluated[mask]`` is True when
    the model was actually called for it.
    """

    def __init__(self, attributes: Sequence[str]) -> None:
        attributes = tuple(attributes)
        if not attributes:
            raise LatticeError("cannot build a lattice over zero attributes")
        if len(set(attributes)) != len(attributes):
            raise LatticeError(f"duplicate attributes in lattice: {list(attributes)}")
        self.attributes = attributes
        self.table = _schema_table(attributes)
        self.full = (1 << len(attributes)) - 1
        self.flips: list[bool | None] = [None] * (self.full + 1)
        self.evaluated = [False] * (self.full + 1)

    def __len__(self) -> int:
        return self.full

    def mask(self, attributes: Iterable[str]) -> int:
        """The node of an attribute set."""
        mask = 0
        for name in attributes:
            if name not in self.attributes:
                raise LatticeError(f"attribute {name!r} not in lattice {list(self.attributes)}")
            mask |= 1 << self.attributes.index(name)
        if not mask:
            raise LatticeError("the empty attribute set is not a lattice node")
        return mask

    # ----------------------------------------------------------------- tagging

    def tag(self, mask: int, flip: bool, evaluated: bool = True) -> None:
        """Tag one node with a flip / non-flip outcome."""
        self.flips[mask] = flip
        self.evaluated[mask] = evaluated

    def propagate_flip(self, mask: int) -> int:
        """Infer a flip for every untagged strict superset (monotone assumption).

        Returns the number of nodes whose tag was inferred by this call.
        """
        flips, full = self.flips, self.full
        inferred = 0
        superset = mask
        while superset != full:
            # The next larger mask that keeps every bit of ``mask``.
            superset = (superset + 1) | mask
            if flips[superset] is None:
                flips[superset] = True
                inferred += 1
        return inferred

    # ------------------------------------------------------------------ queries

    def flipped_nodes(self) -> list[int]:
        """The masks tagged as flips (tested or inferred), breadth-first."""
        flips = self.flips
        return [mask for mask in self.table.order if flips[mask]]

    def minimal_flipping_antichain(self) -> list[frozenset[str]]:
        """The minimal flipping antichain: flips none of whose subsets flip."""
        flipped = self.flipped_nodes()
        return [
            self.table.sets[mask]
            for mask in flipped
            if not any(other != mask and other & mask == other for other in flipped)
        ]

    def candidate_sets(self) -> list[int]:
        """Flipped masks eligible as counterfactual sets (Eq. 3), breadth-first.

        The full attribute set is excluded: a counterfactual that rewrites the
        whole record is not considered an explanation.
        """
        return [mask for mask in self.flipped_nodes() if mask != self.full]


def _infer_full_set_tag(lattice: AttributeLattice) -> None:
    """Tag the full attribute set from every smaller node's tag (footnote 2).

    Shared by both exploration drivers so the never-evaluated full set keeps
    byte-identical semantics on the sequential and batched paths.
    """
    lattice.tag(lattice.full, any(lattice.flips[1 : lattice.full]), evaluated=False)


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
    flips, sets = lattice.flips, lattice.table.sets
    for mask in lattice.table.order:
        if flips[mask] is not None:
            continue
        if mask == lattice.full and len(lattice.attributes) > 1:
            _infer_full_set_tag(lattice)
            continue
        flip = bool(evaluate(sets[mask]))
        performed += 1
        lattice.tag(mask, flip, evaluated=True)
        if flip and monotone:
            lattice.propagate_flip(mask)
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
    max_levels = max((len(lattice.attributes) for lattice in lattices), default=0)

    for level in range(max_levels):
        requests: list[tuple[int, int]] = []
        for index, lattice in enumerate(lattices):
            if level >= len(lattice.attributes):
                continue
            for mask in lattice.table.levels[level]:
                if lattice.flips[mask] is not None:
                    continue
                if mask == lattice.full and len(lattice.attributes) > 1:
                    _infer_full_set_tag(lattice)
                    continue
                requests.append((index, mask))
        if not requests:
            continue
        verdicts = list(
            evaluate_batch([(index, lattices[index].table.sets[mask]) for index, mask in requests])
        )
        if len(verdicts) != len(requests):
            raise LatticeError(
                f"evaluate_batch returned {len(verdicts)} verdicts for {len(requests)} requests"
            )
        contributions: dict[int, int] = {}
        for (index, mask), verdict in zip(requests, verdicts):
            flip = bool(verdict)
            lattices[index].tag(mask, flip, evaluated=True)
            performed[index] += 1
            contributions[index] = contributions.get(index, 0) + 1
            if flip and monotone:
                lattices[index].propagate_flip(mask)
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
) -> tuple[ExplorationStats, int]:
    """Compare monotone exploration against exhaustive evaluation on one lattice.

    Returns ``(stats, wrong)``: the :class:`ExplorationStats` of the monotone
    exploration, whose ``saved_predictions`` are the predictions it skipped,
    and the number of skipped nodes whose inferred tag disagrees with the
    true (exhaustively computed) tag.  This feeds the error-rate column of
    Table 7.
    """
    monotone_lattice = AttributeLattice(lattice_attributes)
    stats = explore_lattice(monotone_lattice, evaluate, monotone=True)
    exhaustive_lattice = AttributeLattice(lattice_attributes)
    explore_lattice(exhaustive_lattice, evaluate, monotone=False)
    wrong = sum(
        1
        for mask in monotone_lattice.table.order
        if not monotone_lattice.evaluated[mask]
        and monotone_lattice.flips[mask] != exhaustive_lattice.flips[mask]
    )
    return stats, wrong
