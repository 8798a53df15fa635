"""Naive oracles and seeded generators shared by the test modules."""

import itertools
import random

from mobius_lattice.linalg import Subspace, apply_row, enumerate_subspaces
from mobius_lattice.poset import BoundedPoset, FinitePoset, _bits, adjoin_bounds


def stabilizer_by_element_filter(group, w):
    """Member ids of the stabilizer of W, by a scan of every element of G.

    Independent of the orbit walk in ``stabilizer``.  Every element is
    invertible, so W*g inside W already means W*g = W: only the images of the
    basis rows are tested, with no row reduction."""
    return frozenset(i for i, m in enumerate(group.elements)
                     if all(w.contains_vector(apply_row(group.field, r, m))
                            for r in w.rows))


def sorted_lines(field, n):
    """The lines of GF(q)^n in ``Subspace.sort_key`` order."""
    return sorted(enumerate_subspaces(field, n, 1), key=Subspace.sort_key)


def line_stabilizers(group):
    """Element-scan stabilizers of the lines, in ``sorted_lines`` order."""
    return [stabilizer_by_element_filter(group, w)
            for w in sorted_lines(group.field, group.n)]


def naive_subset_sums(group, base, stabilizers):
    """Both alternating sums of the subset-intersection identity, by plain
    powerset enumeration.

    ``stabilizers`` holds the member-id sets of the chosen points'
    stabilizers, one per point, each containing ``base``.  The first sum runs
    over subsets of the distinct stabilizers, the second over subsets of the
    points.  A subset S adds (-1)^|S| when the intersection of its
    stabilizers (all of G for S empty) is strictly bigger than ``base``.
    """
    full = frozenset(range(group.order))

    def alt_sum(sets):
        total = 0
        for r in range(len(sets) + 1):
            for chosen in itertools.combinations(sets, r):
                inter = full
                for s in chosen:
                    inter &= s
                if inter != base.member_ids:
                    total += (-1) ** r
        return total

    return alt_sum(sorted(set(stabilizers), key=sorted)), alt_sum(stabilizers)


def random_poset(rng: random.Random, max_size: int = 10) -> FinitePoset:
    """Random poset: a random DAG on 1..max_size nodes, transitively closed."""
    n = rng.randint(1, max_size)
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                up[i] |= 1 << j
    # transitive closure over the index order (edges only go up in index)
    for i in range(n - 1, -1, -1):
        mask = up[i]
        for j in _bits(mask & ~(1 << i)):
            up[i] |= up[j]
    return FinitePoset(list(range(n)), up)


def random_lattice(rng: random.Random, max_size: int = 10) -> BoundedPoset:
    """Random lattice: a meet-closed family of subsets of a small ground set
    (plus the full set), ordered by inclusion."""
    while True:
        ground = rng.randint(2, 4)
        full = (1 << ground) - 1
        family = {full}
        for _ in range(rng.randint(1, 6)):
            family.add(rng.randint(0, full))
        changed = True
        while changed:
            changed = False
            for a in list(family):
                for b in list(family):
                    if (a & b) not in family:
                        family.add(a & b)
                        changed = True
        if 2 <= len(family) <= max_size:
            break
    members = sorted(family)
    poset = FinitePoset.from_leq(members, lambda a, b: a & b == a)
    return adjoin_bounds(poset, reuse=True)
