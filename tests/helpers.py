"""Naive oracles and seeded generators shared by the test modules.

The poset and complex oracles here are the classical results the package's
own paths are checked against, and nothing in the package runs them: the
number-theoretic Mobius function, the full Mobius table by zeta inversion,
the down-sets of an order, bounded posets, adjoined bounds, coatoms, meets
and crosscut sums (Rota, 1964), downward closure of a face family, order
complexes (Hall's theorem) and alternating face sums.  The group oracles
beside them build groups by matrix products, stabilizers by element scans,
the subgroup lattice by cyclic extension without the package's
normalizer-orbit pruning, overgroup intervals by a coset search that skips
only double cosets, an ideal as the union of one searched interval per
stabilizer, the lattice's containment order by comparing every
pair of member sets and its meet certificate by ANDs of |G|-bit member
masks; invariant subspaces are found by row-reducing every image.
"""

import itertools
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from mobius_lattice.errors import (
    InvalidOrderRelation,
    MobiusLatticeError,
    PowersetTooLarge,
)
from mobius_lattice.group import (
    SubgroupRef,
    _prime_power_cyclic_generators,
    overgroup_interval,
)
from mobius_lattice.linalg import (
    Matrix,
    Subspace,
    apply_row,
    enumerate_subspaces,
)
from mobius_lattice.poset import POWERSET_CAP, FinitePoset, mobius_row
from mobius_lattice.simplicial import SimplicialComplex, _bits


def closure_by_matrix_products(gens):
    """The elements of the group generated by ``gens``, sorted, by a
    breadth-first search that multiplies matrices.

    Independent of the row-code search in ``closure``: each product is a
    ``Matrix.__mul__`` call, and elements are compared by their entries."""
    ident = Matrix.identity(gens[0].field, gens[0].nrows)
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(seen)


def stabilizer_by_element_filter(group, w):
    """Member ids of the stabilizer of W, by a scan of every element of G.

    Independent of the orbit walk in ``stabilizer``.  Every element is
    invertible, so W*g inside W already means W*g = W: only the images of the
    basis rows are tested, with no row reduction."""
    return frozenset(i for i, m in enumerate(group.elements)
                     if all(w._contains_indices(apply_row(group.field, r, m))
                            for r in w.rows))


def lattice_by_unpruned_cyclic_extension(group):
    """Member sets of the whole subgroup lattice by cyclic extension over
    conjugacy-class representatives, each joined with every cyclic subgroup
    of prime-power order it does not contain.

    The package joins a representative K with one such subgroup per
    N_G(K)-orbit; this oracle checks that the pruning loses no subgroup.
    Each new subgroup brings its class, closed under conjugation by G's
    generators."""
    images, inv = group.right_images, group.inv
    # conj[t] = (t g)^-1 g = g^-1 t^-1 g conjugates a subgroup's member set
    conjugations = []
    for m in group.generators:
        g = group.index_of(m)
        conjugations.append(images(map(inv, images(range(group.order), g)),
                                   g))
    trivial = frozenset((group.identity_index,))
    known = {trivial}
    queue = [(trivial, [])]
    cyclic = [generators[0] for generators
              in _prime_power_cyclic_generators(group)[0]]
    while queue:
        current, gens = queue.pop()
        for x in cyclic:
            if x in current:
                continue
            extended = group._join(current, gens, x)
            if extended in known:
                continue
            known.add(extended)
            conjugates = [extended]
            for sub in conjugates:
                for conj in conjugations:
                    image = frozenset(map(conj.__getitem__, sub))
                    if image not in known:
                        known.add(image)
                        conjugates.append(image)
            queue.append((extended, gens + [x]))
    return known


def interval_by_unpruned_coset_search(group, low, top_ids):
    """Member sets of [low, top] by joining every known subgroup K with one
    element g of top per double coset K*g*K outside K, each join run inside
    top.

    The package also covers all of <K, g> when [<K, g> : K] is prime and
    the double cosets of the other generators of <g>, and runs each join
    inside the smallest known overgroup holding g; this oracle checks that
    those rules lose no subgroup."""
    known = {low.member_ids}
    queue = [(low.member_ids, list(low.generator_ids()))]
    while queue:
        current, gens = queue.pop()
        covered = set(current)
        for g in sorted(top_ids):
            if g in covered:
                continue
            extended = group._join(current, gens, g, top_ids)
            covered.update(group._double_coset(current, gens, g))
            if extended not in known:
                known.add(extended)
                queue.append((extended, gens + [g]))
    return known


def ideal_by_interval_union(family) -> set:
    """Member sets of H and of every interval [H, M], one coset search per
    distinct stabilizer M of the family: the ideal ``build_ideal`` assembles
    without a lattice, with no interval carried over by conjugation."""
    subgroup = family.subgroup
    known = {subgroup.member_ids}
    for m in family.distinct_stabilizers:
        known.update(k.member_ids for k in overgroup_interval(
            subgroup.parent, subgroup, top=m))
    return known


def containment_order(subgroups) -> FinitePoset:
    """The containment order on ``subgroups``, sorted by ``sort_key``, from
    a member-set comparison of every pair (``FinitePoset.from_leq``).

    Independent of ``subgroup_lattice``, which reads the order off the
    items that contain each element."""
    return FinitePoset.from_leq(sorted(subgroups, key=SubgroupRef.sort_key),
                                lambda a, b: a.member_ids <= b.member_ids)


def certify_meets_by_bits(group, lattice) -> None:
    """The meet certificate of ``identities.certify_meets`` on |G|-bit
    member masks (``SubgroupRef.member_bits``): the same two conditions with
    the same errors, but K & L is one AND, looked up among the items'
    masks, for every class representative K and item L.  It records
    nothing on the group.

    Independent of ``certify_meets``, which reads K & L off the holder
    lists of K's elements and builds no |G|-bit mask."""
    classes = group._classes
    if classes is None:
        raise RuntimeError("no class orbits recorded; the whole lattice "
                           "was not enumerated")
    items = {k.member_ids: k for k in lattice.items}
    orbits = set().union(*classes)
    if orbits != items.keys() or sum(map(len, classes)) != len(orbits):
        raise RuntimeError(
            "class orbits do not partition the lattice; not closed under "
            "conjugation")
    bits = {k.member_bits for k in lattice.items}
    for orbit in classes:
        rep = items[orbit[0]].member_bits
        if not {rep & b for b in bits} <= bits:
            raise RuntimeError("lattice is not closed under intersection")


def invariant_subspaces_by_rref(matrices, n, proper_nontrivial=False):
    """Subspaces W of GF(q)^n with W*m = W for every matrix, in canonical
    order, by row-reducing each image W*m and comparing it with W.

    Independent of ``invariant_subspaces``, which tests only that each basis
    row's image lies in W and keeps the enumeration between calls."""
    found = [w for w in enumerate_subspaces(matrices[0].field, n)
             if not (proper_nontrivial and (w.is_zero() or w.is_full()))
             and all(w.apply(m) == w for m in matrices)]
    return sorted(found, key=Subspace.sort_key)


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


def moebius_number_theoretic(n):
    # squarefree oracle by trial factorization
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            count += 1
            if n % d == 0:
                return 0
        else:
            d += 1
    if n > 1:
        count += 1
    return (-1) ** count


def to_mask(row: Iterable[int]) -> int:
    """An index row as a bitmask: bit j is set iff j is in ``row``.  The
    package stores the order as rows (``FinitePoset.up``); the oracles
    below read it as masks, through this and ``to_row`` only."""
    mask = 0
    for j in row:
        mask |= 1 << j
    return mask


def to_row(mask: int) -> tuple:
    """The ascending index row of a mask's set bits."""
    return tuple(_bits(mask))


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
    return FinitePoset(list(range(n)), map(to_row, up))


def down_sets(poset: FinitePoset) -> list:
    """The transpose of ``poset.up`` as masks: bit i of the j-th mask is set
    iff items[i] <= items[j].  The package keeps only the up-sets."""
    down = [0] * poset.size
    for i, row in enumerate(poset.up):
        for j in row:
            down[j] |= 1 << i
    return down


class BoundedPoset:
    """A poset together with indices of its bottom and top elements."""

    __slots__ = ("base", "bottom", "top")

    def __init__(self, base: FinitePoset, bottom: int, top: int):
        full = (1 << base.size) - 1
        if (to_mask(base.up[bottom]) != full
                or down_sets(base)[top] != full):
            raise InvalidOrderRelation("claimed bounds do not bound the poset")
        self.base = base
        self.bottom = bottom
        self.top = top

    @property
    def size(self) -> int:
        return self.base.size


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


class NotALattice(MobiusLatticeError):
    """A pair of elements has no unique meet."""


class CoatomsNotCovered(MobiusLatticeError):
    """Crosscut set does not contain every coatom."""


class TopInX(MobiusLatticeError):
    """Crosscut set contains the top element."""


def leq(poset: FinitePoset, i: int, j: int) -> bool:
    return bool((to_mask(poset.up[i]) >> j) & 1)


def lt(poset: FinitePoset, i: int, j: int) -> bool:
    return i != j and leq(poset, i, j)


def covers(poset: FinitePoset) -> list:
    """Cover pairs (i, j) with i < j and nothing strictly between."""
    down = down_sets(poset)
    out = []
    for i in range(poset.size):
        strict = to_mask(poset.up[i]) & ~(1 << i)
        for j in _bits(strict):
            if strict & down[j] & ~(1 << j) == 0:
                out.append((i, j))
    return sorted(out)


def dump(poset: FinitePoset) -> str:
    """Deterministic plain-text dump: labelled elements plus cover pairs."""
    lines = [f"{i}: {poset.items[i]!r}" for i in range(poset.size)]
    lines += [f"cover: {i} < {j}" for i, j in covers(poset)]
    return "\n".join(lines)


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
    """Every row of ``mobius_row`` collected into one table."""
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
    zeta = [[Fraction(1 if leq(poset, i, j) else 0) for j in range(n)]
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
            if leq(poset, i, j):
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


def adjoin_bounds(poset: FinitePoset, reuse: bool = False) -> BoundedPoset:
    """Adjoin a least and a greatest element.

    By default both are fresh even when extrema exist.  With ``reuse`` an
    existing unique minimum/maximum is kept and only missing bounds are added.
    """
    n = poset.size
    full = (1 << n) - 1
    have_bottom = have_top = None
    up = [to_mask(row) for row in poset.up]
    if reuse:
        down = down_sets(poset)
        for i in range(n):
            if up[i] == full:
                have_bottom = i
            if down[i] == full:
                have_top = i
    items = list(poset.items)
    if have_bottom is None:
        # the bottom goes first, so the index order stays a linear extension
        items.insert(0, _Bound("0^"))
        bottom = 0
        up = [(full << 1) | 1] + [mask << 1 for mask in up]
    else:
        bottom = have_bottom
    if have_top is None:
        items.append(_Bound("1^"))
        top = len(items) - 1
        up = [mask | (1 << top) for mask in up]
        up.append(1 << top)
    else:
        # shifted past a fresh bottom
        top = have_top + (have_bottom is None)
    return BoundedPoset(FinitePoset(items, map(to_row, up)), bottom, top)


def coatoms(bp: BoundedPoset) -> list:
    """Elements covered by the top."""
    base, top = bp.base, bp.top
    below_top = down_sets(base)[top]
    out = []
    for x in _bits(below_top & ~(1 << top)):
        between = (to_mask(base.up[x]) & below_top
                   & ~(1 << x) & ~(1 << top))
        if between == 0:
            out.append(x)
    return out


def meets(bp: BoundedPoset) -> dict:
    """The meet of every pair (i, j), i <= j; NotALattice if one has no
    unique greatest common lower bound."""
    base = bp.base
    down = down_sets(base)
    out = {}
    for i in range(base.size):
        for j in range(i, base.size):
            lower = down[i] & down[j]
            m = next((t for t in _bits(lower) if down[t] == lower), None)
            if m is None:
                raise NotALattice(f"elements {i} and {j} have no unique meet")
            out[(i, j)] = m
    return out


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
    meet = meets(bp)
    if bp.top in members:
        raise TopInX("crosscut subset must not contain the top")
    missing = set(coatoms(bp)) - set(members)
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
        nxt = (members[i] if acc is None
               else meet[(min(acc, members[i]), max(acc, members[i]))])
        if nxt == bottom:
            remaining = len(members) - i - 1
            if remaining == 0:
                total += -sign
        else:
            walk(i + 1, -sign, nxt)
        walk(i + 1, sign, acc)

    walk(0, 1, None)
    return total


def closed_complex(vertices: Sequence,
                   faces: Iterable[Iterable]) -> SimplicialComplex:
    """The complex generated by a face family: its downward closure.

    Unlike ``complex_from_faces``, which rejects a family with gaps, this
    adds every subset of every face."""
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    stack = [sum(1 << index[v] for v in set(face)) for face in faces]
    closed = set()
    while stack:
        mask = stack.pop()
        if mask in closed:
            continue
        closed.add(mask)
        for i in _bits(mask):
            stack.append(mask & ~(1 << i))
    return SimplicialComplex(vertices, closed)


def face_sets(c: SimplicialComplex) -> list:
    """Faces as sorted tuples of vertex labels, smallest first."""
    out = [tuple(c.vertices[i] for i in _bits(mask)) for mask in c.faces]
    return sorted(out, key=lambda f: (len(f), [str(v) for v in f]))


def face_alternating_sum(c: SimplicialComplex) -> int:
    """Sum of (-1)^|F| over all faces, the empty face included."""
    return sum((-1) ** bin(mask).count("1") for mask in c.faces)


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """Complex whose faces are the chains of the poset.

    The empty chain is always a face, so the order complex of the empty poset
    is the one-face complex {0} rather than the empty complex; that is the
    convention under which mu of the bounded poset equals the reduced Euler
    characteristic.
    """
    faces = {0}

    def grow(mask: int, last: int) -> None:
        faces.add(mask)
        for j in poset.up[last]:
            if j != last:
                grow(mask | (1 << j), j)

    for i in range(poset.size):
        grow(1 << i, i)
    return SimplicialComplex(poset.items, faces)
