"""Finite posets and Mobius rows.

The order relation is stored as one bitmask per element (`up[i]` has bit j set
iff items[i] <= items[j]), which makes interval queries cheap enough that the
Mobius recursion runs in O(n^2) bit scans per source element.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import InvalidOrderRelation

POWERSET_CAP = 22


class FinitePoset:
    """An explicit finite poset over an indexed item list."""

    __slots__ = ("items", "up", "down", "_index")

    def __init__(self, items: Sequence, up: Sequence[int]):
        self.items = tuple(items)
        self.up = tuple(up)
        n = len(self.items)
        # down[j] gets bit i for every set bit j of up[i]
        down = [0] * n
        for i, mask in enumerate(self.up):
            if mask >> n:
                raise InvalidOrderRelation("relation names an unknown item")
            for j in _bits(mask):
                down[j] |= 1 << i
        self.down = tuple(down)
        self._index = {item: i for i, item in enumerate(self.items)}
        if len(self._index) != n:
            raise InvalidOrderRelation("duplicate items in poset")
        self._validate()

    def _validate(self) -> None:
        n = len(self.items)
        for i in range(n):
            if not (self.up[i] >> i) & 1:
                raise InvalidOrderRelation("relation is not reflexive")
            if self.up[i] & self.down[i] != 1 << i:
                raise InvalidOrderRelation("relation is not antisymmetric")
        for i in range(n):
            mask = self.up[i]
            j_mask = mask
            while j_mask:
                j = (j_mask & -j_mask).bit_length() - 1
                j_mask &= j_mask - 1
                if self.up[j] & ~mask:
                    raise InvalidOrderRelation("relation is not transitive")

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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def mobius_row(poset: FinitePoset, start: int, within: int = -1) -> dict:
    """Values mu(start, j) for every j >= start, by the defining recursion.

    Only the elements above ``start`` are visited, by the size of [start, j],
    so each comes after everything strictly between ``start`` and it.  With
    ``within`` (a bitmask holding ``start``) the recursion runs on the
    subposet induced by its set bits instead.
    """
    above, down = poset.up[start] & within, poset.down
    row = {}
    for j in sorted(_bits(above), key=lambda j: bin(down[j] & above).count("1")):
        row[j] = 1 if j == start else -sum(
            row[t] for t in _bits(above & down[j] & ~(1 << j)))
    return row
