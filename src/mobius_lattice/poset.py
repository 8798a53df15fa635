"""Finite posets and Mobius rows.

The order relation is stored once, as one index row per element: `up[i]` is
the ascending tuple of the j with items[i] <= items[j].  Nothing keeps its
transpose.  The index order must be a linear extension of the order: each
row starts at its own index, so every element comes after everything below
it.  The Mobius recursion walks a row as stored and pushes each settled
value along the rows of the elements above.  A row on a subposet is given
that subposet as element indices.
"""

from __future__ import annotations

from operator import lt
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidOrderRelation

POWERSET_CAP = 22


class FinitePoset:
    """An explicit finite poset over an indexed item list, indexed along a
    linear extension of its order.

    ``up[i]`` is the ascending tuple of indices j with items[i] <= items[j],
    and it starts with i itself.  A builder whose equal entries are one int
    object makes the rows hold about one pointer per relation.  Items sorted
    by any size that grows strictly along the order (a subgroup's order, a
    set's length) are indexed along a linear extension.
    """

    __slots__ = ("items", "up", "_index", "_collected")

    def __init__(self, items: Sequence, up: Sequence[Sequence[int]]):
        """Check ``up``: one row per item, then unknown items, so that a
        relation naming one is always reported as such, then ascending rows,
        each starting at its own index, and transitivity.  A row starting at
        its own index makes the relation reflexive and every other entry of
        it larger, so i <= j <= i forces i = j: antisymmetry needs no check
        of its own."""
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
        for i, row in enumerate(up):
            if not row or row[0] != i:
                if i not in row:
                    raise InvalidOrderRelation("relation is not reflexive")
                raise InvalidOrderRelation(
                    f"row {i} names index {row[0]} below its own: the index "
                    f"order is not a linear extension of the relation")
        for row in up:
            if not all(map(set(row).issuperset, map(up.__getitem__, row))):
                raise InvalidOrderRelation("relation is not transitive")
        # mobius_row's accumulator, zeroed over a row's slots as it starts
        self._collected = [0] * n

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

    The elements of ``start``'s row are taken as stored, in index order, so
    each comes after everything below it, and each settled nonzero
    mu(start, t) is pushed along t's row; an element's value is minus what
    it has collected by its turn.  Every push lands in start's row, so the
    poset's one accumulator list is zeroed over that row alone; two threads
    must not take rows of one poset at once.  With ``within`` (element
    indices, which must hold ``start``) the recursion runs on the subposet
    they induce instead: only start's row is filtered by them.  A slot
    outside ``within`` may collect a value, but it is never read.
    """
    if not 0 <= start < poset.size:
        raise ValueError(f"start {start} is not an element of the poset")
    up = poset.up
    walk = up[start]
    collected = poset._collected
    for t in walk:
        collected[t] = 0
    # start collects -1, so its value is 1
    collected[start] = -1
    if within is not None:
        keep = frozenset(within)
        if start not in keep:
            raise ValueError(f"within does not hold the start element {start}")
        walk = filter(keep.__contains__, walk)
    row = {}
    for t in walk:
        value = row[t] = -collected[t]
        if value:
            # t's own slot gains the value too, but is never read again
            for u in up[t]:
                collected[u] += value
    return row
