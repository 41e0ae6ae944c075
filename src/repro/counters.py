"""One counter protocol for the library's ``*Stats`` snapshots.

The prediction engine, the featurizer, the token index, the artifact store
and the explanation service each report their counters as an immutable
snapshot.  :class:`Counters` is the arithmetic those snapshots share:

* ``a + b`` is the fieldwise sum (totals across explanations, indexes or
  schedulers), and :meth:`Counters.total` sums a whole sequence;
* ``later - earlier`` is the fieldwise delta between two snapshots of one
  owner (what one explanation cost);
* :meth:`Counters.as_dict` is the plain view for report rows and benchmark
  JSON;
* :meth:`Counters.of` snapshots an owner that keeps its counters as
  attributes of the same names.

A subclass is a frozen dataclass whose fields are the counters, and
declares what differs as class attributes: ``levels`` names the fields that
are levels rather than counts (a high-water mark, a latency quantile), where
a delta keeps the later value and a sum the larger; ``key_prefix`` starts
every ``as_dict`` key; ``rates`` names derived properties appended to
``as_dict`` after the fields.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, ClassVar, Iterable, TypeVar

C = TypeVar("C", bound="Counters")


@cache
def _layout(cls: type) -> tuple[tuple[str, ...], Callable, tuple[int, ...]]:
    """Field names, a getter of all field values, and the level positions.

    Cached per class: the engine adds one snapshot per ``predict_proba``
    call, and walking ``fields()`` each time would cost more than the sum.
    The getter returns a tuple only for two names or more, so a subclass
    declares at least two fields.
    """
    names = tuple(field.name for field in fields(cls))
    levels = tuple(index for index, name in enumerate(names) if name in cls.levels)
    return names, operator.attrgetter(*names), levels


def _later(later: float, _earlier: float) -> float:
    return later


@dataclass(frozen=True)
class Counters:
    """Base of the ``*Stats`` snapshots: fieldwise ``+``, ``-`` and ``as_dict``."""

    levels: ClassVar[frozenset[str]] = frozenset()
    key_prefix: ClassVar[str] = ""
    rates: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def of(cls: type[C], owner: object, **values: float) -> C:
        """Snapshot of ``owner``'s attributes named like this class's fields.

        A field the owner has no attribute for keeps its default, and
        ``values`` set fields the owner does not keep (a percentile computed
        from a sample window, say).
        """
        for name in _layout(cls)[0]:
            if name not in values and hasattr(owner, name):
                values[name] = getattr(owner, name)
        return cls(**values)

    @classmethod
    def total(cls: type[C], snapshots: Iterable[C | None]) -> C:
        """Fieldwise sum of ``snapshots``, skipping ``None`` (zero when empty)."""
        return sum((snapshot for snapshot in snapshots if snapshot is not None), cls())

    def _fieldwise(
        self: C,
        other: C,
        count: Callable[[float, float], float],
        level: Callable[[float, float], float],
    ) -> C:
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        names, values_of, levels = _layout(cls)
        mine, theirs = values_of(self), values_of(other)
        values = list(map(count, mine, theirs))
        for index in levels:
            values[index] = level(mine[index], theirs[index])
        # Built the way copy and pickle build instances: the frozen
        # ``__init__`` would route each field through ``object.__setattr__``,
        # which costs more than the arithmetic.
        result = object.__new__(cls)
        result.__dict__.update(zip(names, values))
        return result

    def __add__(self: C, other: C) -> C:
        """Fieldwise sum; a level field takes the larger value."""
        return self._fieldwise(other, operator.add, max)

    def __sub__(self: C, other: C) -> C:
        """Fieldwise delta ``self - other``; a level field keeps ``self``'s value."""
        return self._fieldwise(other, operator.sub, _later)

    def as_dict(self) -> dict[str, float | int]:
        """Plain dictionary view for reports, rows and benchmark JSON."""
        names = _layout(type(self))[0] + self.rates
        return {self.key_prefix + name: getattr(self, name) for name in names}
