"""Explicit finite matrix groups.

Groups are stored as deduplicated element sets with a deterministic index
(elements sorted by canonical matrix entry order at closure time), so member
id sets are canonical and subgroup equality is set equality.  No permutation
or polycyclic machinery: the scope is desk-scale exhaustive verification, and
explicit sets make every lattice operation trivially correct.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    AmbientMismatch,
    HypothesisViolated,
    IntervalTooLarge,
    OrderCapExceeded,
    PowersetTooLarge,
    SingularGenerator,
)
from .gfq import FqField
from .linalg import Matrix, Subspace, invariant_subspaces
from .poset import POWERSET_CAP

ORDER_CAP = 250_000
INTERVAL_CAP = 100_000
# full multiplication table kept only for modest orders; above this products
# are recomputed from the matrices on demand
TABLE_CAP = 5_000


class GroupSet:
    """A finite matrix group as an explicit, canonically indexed element set."""

    __slots__ = ("field", "n", "elements", "generators", "order", "_data",
                 "_idx", "identity_index", "_table", "_inv", "_stab_cache",
                 "_irreducible")

    def __init__(self, field: FqField, n: int, elements: Sequence[Matrix],
                 generators: Sequence[Matrix]):
        self.field = field
        self.n = n
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self.order = len(self.elements)
        self._data = [m.data for m in self.elements]
        self._idx = {d: i for i, d in enumerate(self._data)}
        if len(self._idx) != self.order:
            raise ValueError("duplicate elements")
        ident = Matrix.identity(field, n)
        if ident.data not in self._idx:
            raise ValueError("identity missing from element set")
        self.identity_index = self._idx[ident.data]
        if self.order <= TABLE_CAP:
            self._table = [array("i", (self._product_index(i, j)
                                       for j in range(self.order)))
                           for i in range(self.order)]
        else:
            self._table = None
        self._inv = {}
        self._stab_cache = {}
        self._irreducible = None

    def _product_index(self, i: int, j: int) -> int:
        mul, add = self.field._mul, self.field._add
        n = self.n
        a, b = self._data[i], self._data[j]
        out = []
        for r in range(n):
            arow = a[r * n:(r + 1) * n]
            for c in range(n):
                acc = 0
                for t in range(n):
                    x = arow[t]
                    if x:
                        acc = add[acc][mul[x][b[t * n + c]]]
                out.append(acc)
        return self._idx[tuple(out)]

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        return self._product_index(i, j)

    def inv(self, i: int) -> int:
        cached = self._inv.get(i)
        if cached is None:
            cached = self._idx[self.elements[i].inverse().data]
            self._inv[i] = cached
        return cached

    def matrix(self, i: int) -> Matrix:
        return self.elements[i]

    def index_of(self, m: Matrix) -> int:
        return self._idx[m.data]

    # -- subgroups ------------------------------------------------------------

    def subgroup(self, member_ids: Iterable[int]) -> "SubgroupRef":
        ids = frozenset(member_ids)
        if self.identity_index not in ids:
            raise ValueError("subgroup must contain the identity")
        for i in ids:
            for j in ids:
                if self.mul(i, j) not in ids:
                    raise ValueError("member set is not closed under product")
        return SubgroupRef(self, ids)

    def subgroup_closure(self, seed_ids: Iterable[int]) -> "SubgroupRef":
        return SubgroupRef(self, self._closure_ids(seed_ids))

    def _closure_ids(self, seed_ids: Iterable[int], mul=None) -> frozenset:
        if mul is None:
            mul = self.mul
        gens = sorted(set(seed_ids))
        ids = {self.identity_index}
        ids.update(gens)
        frontier = sorted(ids)
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in ids:
                        ids.add(y)
                        fresh.append(y)
            frontier = fresh
        return frozenset(ids)

    def _cached_mul(self):
        """Multiplication callable; memoizes on the fly when no table exists."""
        if self._table is not None:
            return self.mul
        cache = {}

        def mul(i, j):
            key = (i, j)
            v = cache.get(key)
            if v is None:
                v = self._product_index(i, j)
                cache[key] = v
            return v

        return mul

    def trivial_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, frozenset((self.identity_index,)))

    def full_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, frozenset(range(self.order)))

    def __repr__(self) -> str:
        return f"GroupSet(order={self.order}, n={self.n}, field=GF({self.field.q}))"


class SubgroupRef:
    """Handle to a subgroup of a GroupSet, canonical by its member id set."""

    __slots__ = ("parent", "member_ids", "_sorted", "_gens")

    def __init__(self, parent: GroupSet, member_ids: frozenset):
        self.parent = parent
        self.member_ids = member_ids
        self._sorted = None
        self._gens = None

    @property
    def order(self) -> int:
        return len(self.member_ids)

    @property
    def ids(self) -> tuple:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.member_ids))
        return self._sorted

    def matrices(self) -> list:
        return [self.parent.elements[i] for i in self.ids]

    def generator_ids(self) -> tuple:
        """A small deterministic generating set (greedy over the id order)."""
        if self._gens is None:
            self._gens = tuple(_greedy_generators(self.parent, self.ids,
                                                  self.parent.mul))
        return self._gens

    def generator_matrices(self) -> list:
        gens = self.generator_ids()
        if not gens:
            return [self.parent.elements[self.parent.identity_index]]
        return [self.parent.elements[i] for i in gens]

    def __le__(self, other: "SubgroupRef") -> bool:
        if self.parent is not other.parent:
            raise AmbientMismatch("subgroups of different parent groups")
        return self.member_ids <= other.member_ids

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupRef) and self.parent is other.parent
                and self.member_ids == other.member_ids)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.member_ids))

    def sort_key(self):
        return (self.order, self.ids)

    def __repr__(self) -> str:
        return f"SubgroupRef(order={self.order} of {self.parent!r})"


def closure(gens: Sequence[Matrix], cap: int = ORDER_CAP) -> GroupSet:
    """The group generated by the given matrices, as an explicit GroupSet.

    Breadth-first from the identity, multiplying by generators in the given
    order; the final indexing sorts elements by canonical matrix order, so the
    result is independent of generator order and discovery schedule.
    """
    if not gens:
        raise ValueError("need at least one generator")
    field = gens[0].field
    n = gens[0].nrows
    for g in gens:
        if g.field != field or g.nrows != n or g.ncols != n:
            raise AmbientMismatch("generators must be square over one field")
        if not g.is_invertible():
            raise SingularGenerator(f"generator {g.to_lists()} is singular")
    ident = Matrix.identity(field, n)
    seen = {ident.data: ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.data not in seen:
                    if len(seen) >= cap:
                        raise OrderCapExceeded(f"closure exceeded cap {cap}")
                    seen[y.data] = y
                    fresh.append(y)
        frontier = fresh
    return GroupSet(field, n, list(seen.values()), gens)


def is_irreducible(group: GroupSet) -> bool:
    """True iff the group fixes no proper non-trivial subspace."""
    if group._irreducible is None:
        found = invariant_subspaces(list(group.generators) or list(group.elements),
                                    group.n, proper_nontrivial=True)
        group._irreducible = len(found) == 0
    return group._irreducible


def stabilizer(group: GroupSet, subspace: Subspace) -> SubgroupRef:
    """{g in G : W g = W} for a subspace W of the ambient row space."""
    if subspace.field != group.field or subspace.ambient_dim != group.n:
        raise AmbientMismatch("subspace does not live in the group's space")
    cached = group._stab_cache.get(subspace)
    if cached is not None:
        return cached
    ids = frozenset(i for i, m in enumerate(group.elements)
                    if subspace.apply(m) == subspace)
    ref = SubgroupRef(group, ids)
    group._stab_cache[subspace] = ref
    return ref


def overgroup_interval(group: GroupSet, low: SubgroupRef,
                       top: Optional[SubgroupRef] = None,
                       cap: int = INTERVAL_CAP) -> list:
    """All subgroups K with low <= K <= top (top defaults to the whole group).

    Fixed-point closure: starting from {low}, extend every known subgroup K by
    every element outside it and close; repeat until stable.  Any overgroup is
    generated by low plus finitely many elements, so this reaches them all.
    Elements of the same coset K*g generate the same extension, which prunes
    the candidate loop without changing the result.
    """
    if low.parent is not group:
        raise AmbientMismatch("subgroup belongs to a different group")
    top_ids = frozenset(range(group.order)) if top is None else top.member_ids
    if top is not None and top.parent is not group:
        raise AmbientMismatch("top subgroup belongs to a different group")
    if not low.member_ids <= top_ids:
        raise AmbientMismatch("low is not contained in top")
    mul = group._cached_mul()
    candidates = sorted(top_ids)
    known = {low.member_ids}
    queue = [low.member_ids]
    while queue:
        current = queue.pop()
        gens = _greedy_generators(group, sorted(current), mul)
        covered = set(current)
        for g in candidates:
            if g in covered:
                continue
            extended = group._closure_ids(list(gens) + [g], mul)
            covered.update(mul(k, g) for k in current)
            if extended not in known:
                known.add(extended)
                if len(known) > cap:
                    raise IntervalTooLarge(
                        f"interval exceeded cap {cap} subgroups")
                queue.append(extended)
    refs = [SubgroupRef(group, ids) for ids in known]
    refs.sort(key=SubgroupRef.sort_key)
    return refs


def _greedy_generators(group: GroupSet, sorted_ids: Sequence[int], mul) -> list:
    current = {group.identity_index}
    gens: list = []
    target = len(sorted_ids)
    for i in sorted_ids:
        if i not in current:
            gens.append(i)
            current = set(group._closure_ids(gens, mul))
            if len(current) == target:
                break
    return gens


def as_groupset(ref: SubgroupRef) -> GroupSet:
    """Re-wrap a subgroup as a standalone GroupSet (fresh canonical indexing)."""
    return GroupSet(ref.parent.field, ref.parent.n, ref.matrices(),
                    ref.generator_matrices())


class GroupAction:
    """A right action of an explicit group on a finite indexed point set."""

    __slots__ = ("group", "points", "table", "extended")

    def __init__(self, group: GroupSet, points: Sequence, table: Sequence,
                 extended: bool = False):
        self.group = group
        self.points = tuple(points)
        self.table = tuple(tuple(r) for r in table)
        self.extended = extended
        self._spot_check()

    def _spot_check(self):
        ident = self.table[self.group.identity_index]
        if any(ident[p] != p for p in range(len(self.points))):
            raise ValueError("identity does not act trivially")
        order = self.group.order
        step = max(1, order // 8)
        for g in range(0, order, step):
            for h in range(0, order, step):
                gh = self.group.mul(g, h)
                for p in range(len(self.points)):
                    if self.table[gh][p] != self.table[h][self.table[g][p]]:
                        raise ValueError("action table violates composition")

    def apply(self, point_index: int, element_index: int) -> int:
        return self.table[element_index][point_index]

    def stabilizer_of(self, point_index: int) -> SubgroupRef:
        ids = frozenset(g for g in range(self.group.order)
                        if self.table[g][point_index] == point_index)
        return SubgroupRef(self.group, ids)

    def orbit(self, point_index: int) -> list:
        return sorted({self.table[g][point_index]
                       for g in range(self.group.order)})


def action_from_subspaces(group: GroupSet, points: Sequence[Subspace]) -> GroupAction:
    """Action of the group on subspaces, via W -> canonical form of W*g.

    If the given points are not closed under the action, the set is extended
    to its orbit closure and the result is flagged.
    """
    for w in points:
        if w.field != group.field or w.ambient_dim != group.n:
            raise AmbientMismatch("point does not live in the group's space")
    point_set = sorted(set(points), key=Subspace.sort_key)
    extended = False
    while True:
        missing = []
        seen = set(point_set)
        for w in point_set:
            for g in group.generators:
                img = w.apply(g)
                if img not in seen:
                    seen.add(img)
                    missing.append(img)
        if not missing:
            break
        extended = True
        point_set = sorted(seen, key=Subspace.sort_key)
    index = {w: i for i, w in enumerate(point_set)}
    table = [[index[w.apply(m)] for w in point_set] for m in group.elements]
    return GroupAction(group, point_set, table, extended=extended)


@dataclass(frozen=True)
class SubsetSumReport:
    """Both alternating sums of the subset-intersection identity."""

    stabilizer_subsets_sum: int
    point_subsets_sum: int
    equal: bool
    distinct_stabilizers: int


def verify_action_subset_sums(action: GroupAction, base: SubgroupRef,
                              point_subset: Sequence[int],
                              max_powerset: int = POWERSET_CAP) -> SubsetSumReport:
    """Check that two alternating sums agree for a subgroup below every
    stabilizer of the chosen points.

    One sum runs over subsets of the distinct point stabilizers, the other
    over subsets of the points themselves; a subset counts when the
    intersection of the involved stabilizers is strictly bigger than ``base``
    (the empty intersection is the whole acting group).  Both sums are
    computed by plain powerset enumeration.
    """
    group = action.group
    if base.parent is not group:
        raise AmbientMismatch("base subgroup belongs to a different group")
    points = sorted(set(point_subset))
    if len(points) > max_powerset:
        raise PowersetTooLarge(
            f"{len(points)} points exceed powerset cap {max_powerset}")
    stabs = [action.stabilizer_of(p).member_ids for p in points]
    for p, s in zip(points, stabs):
        if not base.member_ids <= s:
            raise HypothesisViolated(
                f"base subgroup is not inside the stabilizer of point {p}")
    ambient = frozenset(range(group.order))
    target = base.member_ids

    def alt_sum(sets: Sequence[frozenset]) -> int:
        total = 0
        for mask in range(1 << len(sets)):
            inter = ambient
            k = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                inter = inter & sets[i]
                k += 1
            if inter != target:
                total += (-1) ** k
        return total

    distinct = sorted(set(stabs), key=sorted)
    sum_stabs = alt_sum(distinct)
    sum_points = alt_sum(stabs)
    return SubsetSumReport(sum_stabs, sum_points, sum_stabs == sum_points,
                           len(distinct))
