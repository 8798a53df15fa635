"""Finite posets and lattices: Mobius functions, adjoined bounds, coatoms
and crosscut sums.

The order relation is stored as one bitmask per element (`up[i]` has bit j set
iff items[i] <= items[j]), which makes interval queries cheap enough that the
Mobius recursion runs in O(n^2) bit scans per source element.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    CoatomsNotCovered,
    InvalidOrderRelation,
    NotALattice,
    PowersetTooLarge,
    TopInX,
)

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

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def covers(self) -> list:
        """Cover pairs (i, j) with i < j and nothing strictly between."""
        out = []
        for i in range(self.size):
            strict = self.up[i] & ~(1 << i)
            mask = strict
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                between = strict & self.down[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return sorted(out)

    def dump(self) -> str:
        """Deterministic plain-text dump: labelled elements plus cover pairs."""
        lines = [f"{i}: {self.items[i]!r}" for i in range(self.size)]
        lines += [f"cover: {i} < {j}" for i, j in self.covers()]
        return "\n".join(lines)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def mobius_row(poset: FinitePoset, start: int) -> dict:
    """Values mu(start, j) for every j >= start, by the defining recursion.

    Only the elements above ``start`` are visited, by the size of [start, j],
    so each comes after everything strictly between ``start`` and it.
    """
    above, down = poset.up[start], poset.down
    row = {}
    for j in sorted(_bits(above), key=lambda j: bin(down[j] & above).count("1")):
        row[j] = 1 if j == start else -sum(
            row[t] for t in _bits(above & down[j] & ~(1 << j)))
    return row


class MobiusTable:
    """Full Mobius function of a poset, mu(i, j) = 0 unless i <= j."""

    __slots__ = ("poset", "table")

    def __init__(self, poset: FinitePoset, table: dict):
        self.poset = poset
        self.table = table

    def mu(self, i: int, j: int) -> int:
        return self.table.get((i, j), 0)

    def mu_items(self, x, y) -> int:
        return self.mu(self.poset.index_of(x), self.poset.index_of(y))


def mobius(poset: FinitePoset) -> MobiusTable:
    table = {}
    for i in range(poset.size):
        for j, value in mobius_row(poset, i).items():
            table[(i, j)] = value
    return MobiusTable(poset, table)


def mobius_by_zeta_inversion(poset: FinitePoset) -> MobiusTable:
    """Independent computation: invert the zeta matrix over the rationals.

    Serves as a cross-check oracle for :func:`mobius`; it shares no code with
    the recursion.
    """
    n = poset.size
    zeta = [[Fraction(1 if poset.leq(i, j) else 0) for j in range(n)]
            for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if zeta[r][col] != 0)
        zeta[col], zeta[pivot] = zeta[pivot], zeta[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = zeta[col][col]
        zeta[col] = [v / scale for v in zeta[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r != col and zeta[r][col] != 0:
                f = zeta[r][col]
                zeta[r] = [a - f * b for a, b in zip(zeta[r], zeta[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    table = {}
    for i in range(n):
        for j in range(n):
            if poset.leq(i, j):
                value = inv[i][j]
                if value.denominator != 1:
                    raise RuntimeError("zeta inverse is not integral")
                table[(i, j)] = int(value)
    return MobiusTable(poset, table)


class _Bound:
    """Fresh sentinel item for an adjoined extremum."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag

    def __repr__(self) -> str:
        return self.tag


class BoundedPoset:
    """A poset together with indices of its bottom and top elements."""

    __slots__ = ("base", "bottom", "top", "_meets")

    def __init__(self, base: FinitePoset, bottom: int, top: int):
        full = (1 << base.size) - 1
        if base.up[bottom] != full or base.down[top] != full:
            raise InvalidOrderRelation("claimed bounds do not bound the poset")
        self.base = base
        self.bottom = bottom
        self.top = top
        self._meets = None

    @property
    def size(self) -> int:
        return self.base.size

    def coatoms(self) -> list:
        """Elements covered by the top."""
        base, top = self.base, self.top
        out = []
        for x in _bits(base.down[top] & ~(1 << top)):
            between = base.up[x] & base.down[top] & ~(1 << x) & ~(1 << top)
            if between == 0:
                out.append(x)
        return out

    def meet(self, i: int, j: int) -> int:
        if self._meets is None:
            self.validate_lattice()
        return self._meets[(min(i, j), max(i, j))]

    def validate_lattice(self) -> None:
        """Check every pair has a unique greatest common lower bound."""
        if self._meets is not None:
            return
        base = self.base
        meets = {}
        for i in range(base.size):
            for j in range(i, base.size):
                lower = base.down[i] & base.down[j]
                m = None
                for t in _bits(lower):
                    if base.down[t] == lower:
                        m = t
                        break
                if m is None:
                    raise NotALattice(
                        f"elements {i} and {j} have no unique meet")
                meets[(i, j)] = m
        self._meets = meets


def adjoin_bounds(poset: FinitePoset, reuse: bool = False) -> BoundedPoset:
    """Adjoin a least and a greatest element.

    By default both are fresh even when extrema exist.  With ``reuse`` an
    existing unique minimum/maximum is kept and only missing bounds are added.
    """
    n = poset.size
    full = (1 << n) - 1
    have_bottom = have_top = None
    if reuse:
        for i in range(n):
            if poset.up[i] == full:
                have_bottom = i
            if poset.down[i] == full:
                have_top = i
    items = list(poset.items)
    up = list(poset.up)
    if have_bottom is None:
        items.append(_Bound("0^"))
        bottom = len(items) - 1
        up.append((1 << bottom) | full)
    else:
        bottom = have_bottom
    if have_top is None:
        items.append(_Bound("1^"))
        top = len(items) - 1
        up = [mask | (1 << top) for mask in up]
        up.append(1 << top)
    else:
        top = have_top
    return BoundedPoset(FinitePoset(items, up), bottom, top)


def crosscut_sum(bp: BoundedPoset, subset: Iterable[int],
                 max_size: int = POWERSET_CAP) -> int:
    """Alternating sum over nonempty subsets of ``subset`` whose meet is the
    bottom element.

    ``subset`` must contain every coatom and not the top; the poset must be a
    lattice.  The crosscut theorem says the result equals mu(bottom, top) --
    asserted in tests, never assumed here.
    """
    members = sorted(set(subset))
    if bp.bottom == bp.top:
        raise NotALattice("crosscut needs distinct bottom and top")
    bp.validate_lattice()
    if bp.top in members:
        raise TopInX("crosscut subset must not contain the top")
    missing = set(bp.coatoms()) - set(members)
    if missing:
        raise CoatomsNotCovered(f"coatoms {sorted(missing)} missing from subset")
    if len(members) > max_size:
        raise PowersetTooLarge(
            f"{len(members)} elements exceed powerset cap {max_size}")
    bottom = bp.bottom
    total = 0

    def walk(i: int, sign: int, acc: Optional[int]) -> None:
        # acc is the running meet (None while the subset is empty); once it
        # hits bottom every superset also meets to bottom, so the whole branch
        # telescopes to a single term at the full prefix.
        nonlocal total
        if i == len(members):
            if acc == bottom:
                total += sign
            return
        nxt = members[i] if acc is None else bp.meet(acc, members[i])
        if nxt == bottom:
            remaining = len(members) - i - 1
            if remaining == 0:
                total += -sign
        else:
            walk(i + 1, -sign, nxt)
        walk(i + 1, sign, acc)

    walk(0, 1, None)
    return total
