"""Finite posets and Mobius rows.

The order relation is stored once, as one bitmask per element: `up[i]` has
bit j set iff items[i] <= items[j].  Nothing keeps its transpose.  Beside
the masks a poset keeps `rank`, each element's position in one linear
extension (larger up-sets first), and, built on first use, the index tuple
of each `up[t]`, whose entries are shared int objects.  The Mobius recursion
walks those tuples in rank order and pushes each settled value along them
to the elements above, so a row makes no per-bit work on N-bit ints.  A
row on a subposet is given that subposet as element indices.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidOrderRelation

POWERSET_CAP = 22


class FinitePoset:
    """An explicit finite poset over an indexed item list.

    ``rank[i]`` is i's position when the elements are sorted by descending
    up-set size, ties by index: i < j forces up[j] to be a proper subset of
    up[i], so the ranks are a linear extension of the order.
    """

    __slots__ = ("items", "up", "rank", "_index", "_ints", "_above")

    def __init__(self, items: Sequence, up: Sequence[int]):
        """Check ``up``: one mask per item, then unknown items, so that a
        relation naming one is always reported as such, then reflexivity,
        transitivity and antisymmetry.  For a reflexive, transitive
        relation i <= j <= i holds exactly when up[i] == up[j], so the last
        check asks only that the masks are distinct."""
        self.items = tuple(items)
        self.up = tuple(up)
        n = len(self.items)
        self._index = {item: i for i, item in enumerate(self.items)}
        if len(self._index) != n:
            raise InvalidOrderRelation("duplicate items in poset")
        if len(self.up) != n:
            raise InvalidOrderRelation(
                f"relation has {len(self.up)} masks for {n} items")
        if any(mask >> n for mask in self.up):
            raise InvalidOrderRelation("relation names an unknown item")
        for i, mask in enumerate(self.up):
            if not mask >> i & 1:
                raise InvalidOrderRelation("relation is not reflexive")
        for mask in self.up:
            outside, rest = ~mask, mask
            while rest:
                low = rest & -rest
                if self.up[low.bit_length() - 1] & outside:
                    raise InvalidOrderRelation("relation is not transitive")
                rest ^= low
        if len(set(self.up)) != n:
            raise InvalidOrderRelation("relation is not antisymmetric")
        rank = [0] * n
        by_size = sorted(range(n), key=lambda i: -self.up[i].bit_count())
        for r, i in enumerate(by_size):
            rank[i] = r
        self.rank = tuple(rank)
        self._ints = tuple(range(n))
        self._above = [None] * n

    @classmethod
    def from_leq(cls, items: Sequence, leq: Callable) -> "FinitePoset":
        items = list(items)
        n = len(items)
        up = []
        for i in range(n):
            mask = 0
            for j in range(n):
                if leq(items[i], items[j]):
                    mask |= 1 << j
            up.append(mask)
        return cls(items, up)

    @property
    def size(self) -> int:
        return len(self.items)

    def index_of(self, item) -> int:
        return self._index[item]

    def above(self, t: int) -> tuple:
        """The indices of up[t]'s set bits, ascending; built on first use
        and kept.  Entries are picked from one shared ``range`` tuple, so
        the cache holds about one pointer per relation.  The bits are found
        by ``str.find`` on the reversed binary string, one C-level search
        per set bit."""
        row = self._above[t]
        if row is None:
            ints = self._ints
            digits = bin(self.up[t])[:1:-1]
            found = []
            pos = digits.find("1")
            while pos >= 0:
                found.append(ints[pos])
                pos = digits.find("1", pos + 1)
            row = self._above[t] = tuple(found)
        return row


def mobius_row(poset: FinitePoset, start: int,
               within: Optional[Iterable[int]] = None) -> dict:
    """Values mu(start, t) for every t >= start, by the defining recursion.

    The elements of ``start``'s index tuple are taken in rank order, so each
    comes after everything below it, and each settled nonzero mu(start, t)
    is pushed along t's index tuple; an element's value is minus what it
    has collected by its turn.  With ``within`` (element indices, which
    must hold ``start``) the recursion runs on the subposet they induce
    instead: only start's tuple is filtered by them.  A slot outside
    ``within`` may collect a value, but it is never read.
    """
    n = poset.size
    if not 0 <= start < n:
        raise ValueError(f"start {start} is not an element of the poset")
    walk = poset.above(start)
    if within is not None:
        keep = frozenset(within)
        if start not in keep:
            raise ValueError(f"within does not hold the start element {start}")
        walk = filter(keep.__contains__, walk)
    above = poset.above
    collected = [0] * n
    row = {}
    for t in sorted(walk, key=poset.rank.__getitem__):
        value = row[t] = 1 if t == start else -collected[t]
        if value:
            # t's own slot gains the value too, but is never read again
            for u in above(t):
                collected[u] += value
    return row
