"""Finite posets and Mobius rows.

The order relation is stored once, as one index row per element: `up[i]` is
the ascending tuple of the j with items[i] <= items[j].  Nothing keeps its
transpose.  Beside the rows a poset keeps `rank`, each element's position
in one linear extension (longer rows first).  The Mobius recursion walks the
rows in rank order and pushes each settled value along them to the elements
above.  A row on a subposet is given that subposet as element indices.
"""

from __future__ import annotations

from operator import lt
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidOrderRelation

POWERSET_CAP = 22


class FinitePoset:
    """An explicit finite poset over an indexed item list.

    ``up[i]`` is the ascending tuple of indices j with items[i] <= items[j].
    A builder whose equal entries are one int object makes the rows hold
    about one pointer per relation.  ``rank[i]`` is i's position when the
    elements are sorted by descending row length, ties by index: i < j
    forces up[j] to be a proper subset of up[i], so the ranks are a linear
    extension of the order.
    """

    __slots__ = ("items", "up", "rank", "_index")

    def __init__(self, items: Sequence, up: Sequence[Sequence[int]]):
        """Check ``up``: one row per item, then unknown items, so that a
        relation naming one is always reported as such, then ascending rows,
        reflexivity, transitivity and antisymmetry.  For a reflexive,
        transitive relation i <= j <= i holds exactly when up[i] == up[j],
        so the last check asks only that the rows are distinct."""
        self.items = tuple(items)
        self.up = up = tuple(map(tuple, up))
        n = len(self.items)
        self._index = {item: i for i, item in enumerate(self.items)}
        if len(self._index) != n:
            raise InvalidOrderRelation("duplicate items in poset")
        if len(up) != n:
            raise InvalidOrderRelation(
                f"relation has {len(up)} rows for {n} items")
        if any(row and (min(row) < 0 or max(row) >= n) for row in up):
            raise InvalidOrderRelation("relation names an unknown item")
        if not all(all(map(lt, row, row[1:])) for row in up):
            raise InvalidOrderRelation(
                "relation rows are not strictly ascending")
        if not all(i in row for i, row in enumerate(up)):
            raise InvalidOrderRelation("relation is not reflexive")
        for row in up:
            if not all(map(set(row).issuperset, map(up.__getitem__, row))):
                raise InvalidOrderRelation("relation is not transitive")
        if len(set(up)) != n:
            raise InvalidOrderRelation("relation is not antisymmetric")
        rank = [0] * n
        by_size = sorted(range(n), key=lambda i: -len(up[i]))
        for r, i in enumerate(by_size):
            rank[i] = r
        self.rank = tuple(rank)

    @classmethod
    def from_leq(cls, items: Sequence, leq: Callable) -> "FinitePoset":
        items = list(items)
        ints = tuple(range(len(items)))
        return cls(items, [tuple(j for j in ints if leq(a, items[j]))
                           for a in items])

    @property
    def size(self) -> int:
        return len(self.items)

    def index_of(self, item) -> int:
        return self._index[item]


def mobius_row(poset: FinitePoset, start: int,
               within: Optional[Iterable[int]] = None) -> dict:
    """Values mu(start, t) for every t >= start, by the defining recursion.

    The elements of ``start``'s row are taken in rank order, so each comes
    after everything below it, and each settled nonzero mu(start, t) is
    pushed along t's row; an element's value is minus what it has collected
    by its turn.  With ``within`` (element indices, which must hold
    ``start``) the recursion runs on the subposet they induce instead: only
    start's row is filtered by them.  A slot outside ``within`` may collect
    a value, but it is never read.
    """
    n = poset.size
    if not 0 <= start < n:
        raise ValueError(f"start {start} is not an element of the poset")
    up = poset.up
    walk = up[start]
    if within is not None:
        keep = frozenset(within)
        if start not in keep:
            raise ValueError(f"within does not hold the start element {start}")
        walk = filter(keep.__contains__, walk)
    collected = [0] * n
    row = {}
    for t in sorted(walk, key=poset.rank.__getitem__):
        value = row[t] = 1 if t == start else -collected[t]
        if value:
            # t's own slot gains the value too, but is never read again
            for u in up[t]:
                collected[u] += value
    return row
