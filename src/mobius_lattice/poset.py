"""Finite posets and Mobius rows.

The order relation is stored once, as one bitmask per element: `up[i]` has
bit j set iff items[i] <= items[j].  Nothing keeps its transpose.  The
Mobius recursion pushes each settled value along `up` to the elements above,
so a row costs one bit scan per element with a nonzero value.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import InvalidOrderRelation

POWERSET_CAP = 22


class FinitePoset:
    """An explicit finite poset over an indexed item list."""

    __slots__ = ("items", "up", "_index")

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
    """Values mu(start, t) for every t >= start, by the defining recursion.

    The elements above ``start`` are taken by descending |up[t] & above|, so
    each comes after everything below it, and each settled nonzero
    mu(start, t) is pushed to the elements above t; an element's value is
    minus what it has collected by its turn.  With ``within`` (a bitmask
    holding ``start``) the recursion runs on the subposet induced by its set
    bits instead.
    """
    up = poset.up
    above = up[start] & within
    collected = [0] * len(up)
    row = {}
    for t in sorted(_bits(above), reverse=True,
                    key=lambda t: (up[t] & above).bit_count()):
        value = row[t] = 1 if t == start else -collected[t]
        if value:
            # t's own slot gains the value too, but is never read again
            for u in _bits(up[t] & above):
                collected[u] += value
    return row
