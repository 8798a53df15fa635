"""Stabilizer ideals in irreducible linear groups and the identities that tie
them together.

For an irreducible group G <= GL(n, q) and a subgroup H, five integers are
computed along independent code paths and compared:

* minus the Mobius value, bottom to top, of the ideal of subgroups dominated
  by a subspace stabilizer (with G adjoined as maximum);
* the alternating sum over families of invariant subspaces whose stabilizers
  intersect to something strictly bigger than H;
* the same alternating sum taken over subsets of the distinct stabilizers;
* minus the reduced Euler characteristic of the complex carried by the
  invariant subspaces;
* minus the reduced Euler characteristic of the complex carried by the
  stabilizers.

No quantity is derived from another: the Mobius value comes from the poset
recursion on the ideal's elements of one subgroup lattice, with G adjoined as
maximum, the sums from a pruned powerset walk and the Euler characteristics
from explicit face counts.

Without a whole lattice, the ideal is the union of the intervals
[H, Stab(W)] over H's invariant subspaces W.  For t normalizing H,
Stab(W t) = t^-1 Stab(W) t, so [H, Stab(W t)] is the conjugate of
[H, Stab(W)] by t.  The coset search of each interval joins one element per
new subgroup, and the joined elements that normalize H move the subspaces
about; a W in the orbit of a searched one gets that interval conjugated,
never searched again.  Each conjugation must send H onto H and the source
stabilizer onto the target's member set, or it raises ``RuntimeError``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import (
    IntervalTooLarge,
    NotASubgroup,
    PowersetTooLarge,
    ReducibleAmbientGroup,
    SubgroupNotContained,
)
from .group import (
    INTERVAL_CAP,
    GroupSet,
    SubgroupRef,
    is_irreducible,
    member_mask,
    overgroup_interval,
    stabilizer,
)
# no code here calls invariant_subspaces; bench/spans.py traces it by this name
from .linalg import invariant_subspaces, subspaces_fixed_by
from .poset import POWERSET_CAP, FinitePoset, mobius_row
from .simplicial import SimplicialComplex, complex_from_faces, euler


@dataclass(frozen=True)
class StabilizerFamily:
    """Invariant subspaces of H paired with their stabilizers in G.

    ``pairs`` runs over all proper non-trivial H-invariant subspaces W in
    canonical order; ``distinct_stabilizers`` deduplicates the stabilizers.
    Every stabilizer contains H, because H maps each of its invariant
    subspaces to itself.  ``build_ideal``, ``alternating_sums`` and
    ``build_complexes`` take the family alone: it carries the pair (G, H),
    with H = ``subgroup`` and G = ``subgroup.parent``.
    """

    subgroup: SubgroupRef
    pairs: tuple
    distinct_stabilizers: tuple

    @cached_property
    def subgroup_mask(self) -> int:
        """H's member mask (``member_mask``), which the walks of the sums
        and faces compare against.  It is built on first use and kept with
        the family, one pair's, not on H: in a sweep H is a lattice item,
        and ``member_bits`` would leave a |G|-bit int on every item."""
        return member_mask(self.subgroup.parent, self.subgroup.member_ids)


def _check_pair(group: GroupSet, subgroup: SubgroupRef) -> None:
    if subgroup.parent is not group:
        raise SubgroupNotContained("subgroup handle built on a different group")
    if not is_irreducible(group):
        raise ReducibleAmbientGroup(
            "ambient group fixes a proper non-trivial subspace")


def _fixed_subspaces(group: GroupSet, i: int) -> tuple:
    """The proper non-trivial subspaces that element i fixes, in canonical
    order, from the group's memo ``GroupSet._subspaces``, filled on first
    use.  Each basis row's image is read off i's row action (the code of
    r*i is ``action[codes[r]]``), and an element of a group is invertible,
    so ``subspaces_fixed_by`` runs without ``invariant_subspaces``'
    invertibility check and forms no matrix."""
    found = group._subspaces[i]
    if found is None:
        action, vectors, codes = group._factor(i), group._vectors, group._codes
        found = group._subspaces[i] = tuple(subspaces_fixed_by(
            group.field, group.n, [lambda r: vectors[action[codes[r]]]],
            proper_nontrivial=True))
    return found


def stabilizer_family(group: GroupSet, subgroup: SubgroupRef) -> StabilizerFamily:
    """The family of H = ``subgroup``.  A subspace is H-invariant iff each
    generator of H fixes it, so the invariant subspaces are the first
    generator's, in their canonical order, that every other generator also
    fixes; H = 1, with no generators, reads the identity's."""
    _check_pair(group, subgroup)
    fixed = [_fixed_subspaces(group, i)
             for i in subgroup.generator_ids() or (group.identity_index,)]
    others = [set(found) for found in fixed[1:]]
    invariant = [w for w in fixed[0] if all(w in found for found in others)]
    pairs = []
    for w in invariant:
        stab = stabilizer(group, w)
        if not subgroup.member_ids <= stab.member_ids:
            raise RuntimeError("stabilizer lost the subgroup; action is broken")
        pairs.append((w, stab))
    distinct = {}
    for _, stab in pairs:
        distinct[stab.member_ids] = stab
    stabs = tuple(sorted(distinct.values(), key=SubgroupRef.sort_key))
    return StabilizerFamily(subgroup, tuple(pairs), stabs)


class ReducibleIdeal:
    """The order ideal generated by the stabilizer family, on a lattice.

    ``members`` are the subgroups K with H <= K <= M for some stabilizer M,
    a genuine order ideal of the overgroup interval.  They are read off
    ``lattice``: ``bottom`` is the index of H there, ``indices`` holds the
    members' indices and H's own, ascending.  G, adjoined as maximum, is
    not among them: ``mu_ideal`` adds it by the recursion.  When H has no
    proper invariant subspace the ideal is empty, the indices hold H alone
    and the ideal with G adjoined is the chain {H, G}.
    """

    __slots__ = ("members", "lattice", "bottom", "indices")

    def __init__(self, members: Sequence[SubgroupRef], lattice: FinitePoset,
                 bottom: int, indices: Sequence[int]):
        self.members = tuple(members)
        self.lattice = lattice
        self.bottom = bottom
        self.indices = tuple(indices)


def subgroup_lattice(subgroups: Iterable[SubgroupRef]) -> FinitePoset:
    """The containment order on ``subgroups``, items sorted by ``sort_key``.

    Every item above K holds each member of K, so K's up-set is the list of
    the items that hold any one member x of K, filtered by member set
    containment; it comes out ascending and includes K.  The build counts,
    in one pass over the member sets, how many items hold each element, and
    picks for each K its rarest member, the one with the shortest list.
    Only those members' lists are built, local to the build.  Each entry is
    the ``enumerate`` int of its index, one object per index across rows.
    """
    items = sorted(subgroups, key=SubgroupRef.sort_key)
    sets = [k.member_ids for k in items]
    count = Counter(chain.from_iterable(sets)).__getitem__
    rarest = [min(ids, key=count) for ids in sets]
    holding = {x: [] for x in rarest}
    wanted = holding.keys()
    for j, ids in enumerate(sets):
        for x in wanted & ids:
            holding[x].append(j)
    return FinitePoset(items, [
        tuple(j for j in holding[x] if ids <= sets[j])
        for x, ids in zip(rarest, sets)])


def _holders(items: Sequence[SubgroupRef]) -> dict:
    """Element id -> ascending list of the indices of the items holding it;
    ``store_greedy_generators`` and ``certify_meets`` read it."""
    holding: dict = {}
    for j, k in enumerate(items):
        for x in k.member_ids:
            holding.setdefault(x, []).append(j)
    return holding


def store_greedy_generators(lattice: FinitePoset, holding: dict) -> None:
    """Store on each item of the whole lattice [1, G] the generating set
    ``SubgroupRef.generator_ids`` would find by its joins, read off the
    lattice instead.

    The greedy walk takes H's ids in ascending order and keeps each id i
    not yet in the running subgroup A, which becomes <A, i>.  The items are
    every subgroup sorted by order, so <A, i> is the first item in
    ``holding[i]`` (``_holders`` of the lattice's items) whose member set
    contains A's.

    Only the enumerated [1, G] holds every subgroup; an interval or a
    lattice missing an item can give other sets with no error.  So a family
    whose first item is not 1 or whose last is not G is refused, and a chain
    that does not end at H's own member set raises ``RuntimeError``, as
    ``certify_meets`` does, before any set is stored.
    """
    items = lattice.items
    group = items[0].parent
    if items[0].order != 1 or items[-1].order != group.order:
        raise RuntimeError("greedy generators are read off the whole "
                           "lattice [1, G] only")
    sets = [k.member_ids for k in items]
    found = []
    for k in items:
        members, gens = sets[0], []
        for i in k.ids:
            if i not in members:
                for j in holding[i]:
                    if members <= sets[j]:
                        members = sets[j]
                        break
                gens.append(i)
        if members != k.member_ids:
            raise RuntimeError("greedy chain missed its subgroup; the "
                               "lattice does not hold every subgroup")
        found.append(tuple(gens))
    for k, gens in zip(items, found):
        k._gens = gens


def certify_meets(group: GroupSet, lattice: FinitePoset,
                  holding: dict) -> None:
    """Prove ``lattice`` closed under intersection, once for every ideal
    read off it; ``build_ideal`` then skips its per-ideal meet check on this
    lattice, and only on it.

    The proof reads the class orbits that the group's last whole-lattice
    walk recorded (``overgroup_interval(group, 1)``).  Two conditions give
    closure, since K^g & L = (K & L^(g^-1))^g:

    - the orbits partition the lattice's items, so each item's whole
      conjugacy class is in the lattice;
    - K & L is an item for the first member K of each orbit, its class
      representative, and every item L.

    For the second, L's mask has one bit per element of K & L but the
    identity, read off the holder lists ``holding`` (``_holders``).  An item
    M lies in K iff its mask has |M| - 1 bits, and K & L is an item iff L's
    mask is such an M's; K = G (G & L = L) is skipped.  A failed condition
    raises ``RuntimeError``, as the per-ideal check does: the enumeration
    itself is broken.
    """
    classes = group._classes
    if classes is None:
        raise RuntimeError("no class orbits recorded; the whole lattice "
                           "was not enumerated")
    orbits = set().union(*classes)
    if (orbits != {k.member_ids for k in lattice.items}
            or sum(map(len, classes)) != len(orbits)):
        raise RuntimeError(
            "class orbits do not partition the lattice; not closed under "
            "conjugation")
    sizes = [k.order - 1 for k in lattice.items]
    identity = frozenset((group.identity_index,))
    for orbit in classes:
        if len(orbit[0]) == group.order:
            continue
        masks = [0] * lattice.size
        bit = 1
        # the most held elements take the lowest bits, so most masks are short
        for x in sorted(orbit[0] - identity, key=lambda x: -len(holding[x])):
            for j in holding[x]:
                masks[j] |= bit
            bit <<= 1
        inside = {m for m, size in zip(masks, sizes) if m.bit_count() == size}
        if not inside.issuperset(masks):
            raise RuntimeError("lattice is not closed under intersection")
    group._meet_closed = lattice


def _position(lattice: FinitePoset, subgroup: SubgroupRef) -> int:
    try:
        return lattice.index_of(subgroup)
    except KeyError:
        raise SubgroupNotContained(
            f"subgroup of order {subgroup.order} is not in the lattice") from None


def build_ideal(family: StabilizerFamily,
                lattice: Optional[FinitePoset] = None,
                max_interval: int = INTERVAL_CAP) -> ReducibleIdeal:
    """Assemble the ideal of subgroups dominated by a stabilizer.

    The members are read off ``lattice`` (a subgroup lattice holding H and
    every stabilizer, e.g. the whole lattice of the group) as the elements
    above H whose up-set holds some stabilizer.  Without one, the lattice is
    H and the union of the intervals [H, M] (``_ideal_by_orbits``): one
    interval per orbit of H's invariant subspaces under the normalizing
    elements the searches joined is enumerated directly, and the rest are
    its conjugates, each checked to map H onto H and its top onto the
    target stabilizer.

    The ideal is checked closed under meets (``_validate_meets``) unless
    ``lattice`` is the one ``certify_meets`` proved closed under
    intersection for this group, as ``verify`` does once for a whole
    lattice whose items are its rows: then every ideal read off it is
    closed.  Any other lattice is checked per ideal.
    """
    group, subgroup = family.subgroup.parent, family.subgroup
    _check_pair(group, subgroup)
    if subgroup.order == group.order:
        raise ValueError("the ideal is defined for proper subgroups only")
    stabs = family.distinct_stabilizers
    if lattice is None:
        lattice = subgroup_lattice(_ideal_by_orbits(family, max_interval))
    bottom = _position(lattice, subgroup)
    tops = frozenset(_position(lattice, m) for m in stabs)
    up = lattice.up
    indices = [k for k in up[bottom] if not tops.isdisjoint(up[k])] or [bottom]
    members = [lattice.items[k] for k in indices] if stabs else []
    if len(members) > max_interval:
        raise IntervalTooLarge(
            f"ideal exceeded interval cap {max_interval} subgroups: "
            f"{len(members)} found")
    if lattice is not group._meet_closed:
        _validate_meets(lattice, indices)
    return ReducibleIdeal(members, lattice, bottom, indices)


def _ideal_by_orbits(family: StabilizerFamily, cap: int) -> list:
    """H and the subgroups of the intervals [H, Stab(W)] over the family's
    invariant subspaces W, with one coset search per orbit.

    For t normalizing H, Stab(W t) = t^-1 Stab(W) t, so
    [H, Stab(W t)] = t^-1 [H, Stab(W)] t.  The pairs are taken in
    canonical order.  A W in the orbit of a searched W0 under the
    normalizing elements known so far (``_grow_orbits``) gets W0's interval
    conjugated (``_conjugate_interval``); any other W is searched by
    ``overgroup_interval``, and each element the search joined to find a
    new subgroup is kept as a move when it normalizes H (``_normalizing``),
    once per permutation it induces on the family's subspaces (``apply``).
    A stabilizer shared by two subspaces is taken once.
    """
    subgroup = family.subgroup
    group = subgroup.parent
    spaces = [w for w, _ in family.pairs]
    position = {w: i for i, w in enumerate(spaces)}
    moves: dict = {}
    words: dict = {}
    walked: dict = {}
    found: dict = {}
    for i, (_, stab) in enumerate(family.pairs):
        if stab.member_ids in found:
            continue
        if i in words:
            source, u = words[i]
            top = family.pairs[source][1]
            found[stab.member_ids] = _conjugate_interval(
                subgroup, found[top.member_ids], top, stab, u)
            continue
        joined: list = []
        found[stab.member_ids] = [k.member_ids for k in overgroup_interval(
            group, subgroup, top=stab, cap=cap, joined=joined)]
        words[i] = (i, group.identity_index)
        for t in _normalizing(subgroup, joined):
            m = group.element(t)
            moves.setdefault(
                tuple(position.get(w.apply(m)) for w in spaces), t)
        _grow_orbits(group, words, walked, list(moves.items()))
    refs = {m.member_ids: m for m in family.distinct_stabilizers}
    refs[subgroup.member_ids] = subgroup
    return [refs.get(ids) or SubgroupRef(group, ids)
            for ids in {subgroup.member_ids}.union(*found.values())]


def _normalizing(subgroup: SubgroupRef, joined: Sequence[int]) -> list:
    """The elements g of ``joined`` with g^-1 h g in H for every generator
    h of H = ``subgroup``: then g^-1 H g <= H, and H is finite, so g
    normalizes H."""
    group = subgroup.parent
    members, mul, inv = subgroup.member_ids, group.mul, group.inv
    gens = subgroup.generator_ids()
    return [g for g in joined
            if all(mul(mul(inv(g), h), g) in members for h in gens)]


def _grow_orbits(group: GroupSet, words: dict, walked: dict,
                 moves: Sequence[tuple]) -> None:
    """Extend ``words``, family index j -> (source s, u) with W_s u = W_j,
    breadth-first through ``moves``, each a pair (perm, t): j at position
    i of perm when W_i t = W_j, None when W_i t is not in the family.

    ``moves`` only grows between calls, and ``walked[j]`` counts the moves
    that j has been pushed through, so each entry is pushed through each
    move once: an entry of an earlier call through the moves added since,
    a new one (a source just searched, or an image found here) through all
    of them.  u is the product of the moves along the walk."""
    queue = [j for j in words if walked.get(j, 0) < len(moves)]
    for i in queue:
        source, u = words[i]
        for perm, t in moves[walked.get(i, 0):]:
            j = perm[i]
            if j is not None and j not in words:
                words[j] = (source, group.mul(u, t))
                queue.append(j)
        walked[i] = len(moves)


def _conjugate_interval(subgroup: SubgroupRef, sets: Sequence[frozenset],
                        source: SubgroupRef, target: SubgroupRef,
                        u: int) -> list:
    """The member sets of [H, target] as the conjugates u^-1 K u of the
    member sets K of [H, source].

    The conjugation map c(x) = u^-1 x u is built on source's members one
    left coset x H at a time: c(x) is (u^-1 x) u, and c(x h) = c(x) c(h)
    for each h in H, one pick out of c(h)'s row action, so only the coset
    representatives' actions are built (a map of c over every member
    builds every member's action, and ran ``ideal-gl33`` 7.7% slower,
    with 0.7 MB more peak RSS).  It fails closed with
    ``RuntimeError`` unless c sends H onto H and source onto target: any u
    with W_source u = W_target passes the second test, but only a u
    normalizing H passes the first, and with both c is a lattice
    isomorphism of [H, source] onto [H, target]."""
    group = subgroup.parent
    u_inv, mul, rows, idx = group.inv(u), group.mul, group._rows, group._idx

    def conjugate(x: int) -> int:
        return mul(mul(u_inv, x), u)

    bottom = subgroup.ids
    pairs = [(group._factor(h), group._factor(conjugate(h))) for h in bottom]
    image: dict = {}
    for x in source.member_ids:
        if x not in image:
            c = conjugate(x)
            for h, ch in pairs:
                image[idx[rows[x](h)]] = idx[rows[c](ch)]
    if frozenset(map(image.__getitem__, bottom)) != subgroup.member_ids:
        raise RuntimeError("conjugating element does not normalize the "
                           "subgroup; the interval cannot be carried over")
    if frozenset(image.values()) != target.member_ids:
        raise RuntimeError("conjugating element does not carry the source "
                           "stabilizer onto the target")
    return [frozenset(map(image.__getitem__, k)) for k in sets]


def _validate_meets(lattice: FinitePoset, indices: Sequence[int]) -> None:
    """Meets in the ideal are subgroup intersections; check they are members.

    K1 ^ K2 contains H and sits below any stabilizer dominating K1, so the
    intersection belongs to the ideal whenever K1 does; a miss means the
    enumeration itself is broken.  Member sets are compared as element
    bitmasks (``SubgroupRef.member_bits``), every pair of them.  It runs per
    ideal on every lattice but a certified one (``certify_meets``), whose
    closure under intersection implies that of each of its ideals.
    """
    bits = [lattice.items[i].member_bits for i in indices]
    known = set(bits)
    for i, a in enumerate(bits):
        if not {a & b for b in bits[i + 1:]} <= known:
            raise RuntimeError(
                "ideal is not closed under intersection; not a lattice")


def mu_ideal(ideal: ReducibleIdeal) -> int:
    """Mobius value from H to G adjoined above the ideal, by the recursion:
    minus the sum of mu(H, K) over the ideal's elements K."""
    row = mobius_row(ideal.lattice, ideal.bottom, ideal.indices)
    return -sum(row.values())


@dataclass(frozen=True)
class AlternatingSums:
    """The three alternating sums attached to a stabilizer family.

    ``stabilizer_sum`` runs over subsets of the distinct stabilizers whose
    intersection exceeds H, ``stabilizer_complement_sum`` over those whose
    intersection equals H, and ``subspace_sum`` over subsets of the invariant
    subspaces whose stabilizers intersect to more than H.  The empty
    intersection counts as the whole group, so the empty set always lands in
    the first and third families.
    """

    stabilizer_sum: int
    stabilizer_complement_sum: int
    subspace_sum: int


def _pruned_sums(sets: Sequence[int], ambient: int, target: int):
    """Alternating sums over subsets with intersection != target and == target.

    The sets are element bitmasks (``member_mask``), so an intersection is
    one AND of two ints and a comparison one int compare.  Depth-first walk
    keeping the running intersection.  Intersections only shrink and
    already contain the target, so once the running value hits the target
    the whole branch lies in the complement family; the signs of that
    subtree cancel pairwise except at the full prefix, which is the only
    bookkeeping left.  Cross-checked against naive enumeration in tests.
    """
    not_target = 0
    equals_target = 0

    def walk(i: int, sign: int, inter: int) -> None:
        nonlocal not_target, equals_target
        if i == len(sets):
            not_target += sign
            return
        taken = inter & sets[i]
        if taken == target:
            if i == len(sets) - 1:
                equals_target += -sign
        else:
            walk(i + 1, -sign, taken)
        walk(i + 1, sign, inter)

    if ambient == target:
        raise ValueError("ambient group equals the target subgroup")
    walk(0, 1, ambient)
    return not_target, equals_target


def _check_powerset(family: StabilizerFamily, max_powerset: int) -> None:
    """PowersetTooLarge when either side of the family is over the cap."""
    n_stabs = len(family.distinct_stabilizers)
    n_spaces = len(family.pairs)
    if max(n_stabs, n_spaces) > max_powerset:
        raise PowersetTooLarge(
            f"family sizes ({n_stabs} stabilizers, {n_spaces} subspaces) "
            f"exceed powerset cap {max_powerset}")


def alternating_sums(family: StabilizerFamily,
                     max_powerset: int = POWERSET_CAP) -> AlternatingSums:
    """The three sums of ``AlternatingSums`` for the family's pair (G, H)."""
    group, subgroup = family.subgroup.parent, family.subgroup
    _check_pair(group, subgroup)
    _check_powerset(family, max_powerset)
    ambient = group.full_subgroup().member_bits
    target = family.subgroup_mask
    stab_sets = [m.member_bits for m in family.distinct_stabilizers]
    space_sets = [stab.member_bits for _, stab in family.pairs]
    stab_sum, stab_complement = _pruned_sums(stab_sets, ambient, target)
    space_sum, _ = _pruned_sums(space_sets, ambient, target)
    return AlternatingSums(stab_sum, stab_complement, space_sum)


def _faces(sets: Sequence[int], ambient: int, target: int) -> set:
    """All subsets (as masks) whose intersection differs from the target;
    the sets are element bitmasks, as in ``_pruned_sums``."""
    faces = set()

    def walk(i: int, mask: int, inter: int) -> None:
        if i == len(sets):
            faces.add(mask)
            return
        taken = inter & sets[i]
        if taken != target:
            walk(i + 1, mask | (1 << i), taken)
        walk(i + 1, mask, inter)

    walk(0, 0, ambient)
    return faces


def build_complexes(family: StabilizerFamily,
                    max_powerset: int = POWERSET_CAP):
    """The two complexes carried by a stabilizer family.

    The first has the invariant subspaces with stabilizer bigger than H as
    vertices; a set of subspaces is a face when their stabilizers intersect
    to more than H.  The second lives on the distinct stabilizers other than
    H itself, with faces the subsets intersecting to more than H.  Every
    stabilizer holds H, so it is H iff it has H's order.  Shrinking
    a face can only grow the intersection, so both families are complexes by
    construction; ``complex_from_faces`` checks that on the face masks of
    ``_faces`` and would surface a bug, never repair one.
    """
    group, subgroup = family.subgroup.parent, family.subgroup
    _check_pair(group, subgroup)
    order = subgroup.order
    ambient = group.full_subgroup().member_bits
    target = family.subgroup_mask
    space_pairs = [(w, stab.member_bits) for w, stab in family.pairs
                   if stab.order != order]
    space_vertices = [w for w, _ in space_pairs]
    space_sets = [bits for _, bits in space_pairs]
    stab_vertices = [m for m in family.distinct_stabilizers
                     if m.order != order]
    stab_sets = [m.member_bits for m in stab_vertices]
    if max(len(space_vertices), len(stab_vertices)) > max_powerset:
        raise PowersetTooLarge(
            f"complex vertex sets ({len(space_vertices)} subspaces, "
            f"{len(stab_vertices)} stabilizers) exceed powerset cap "
            f"{max_powerset}")

    stab_labels = [f"M{idx}(order={m.order})"
                   for idx, m in enumerate(stab_vertices)]
    space_faces = _faces(space_sets, ambient, target)
    stab_faces = _faces(stab_sets, ambient, target)
    return (complex_from_faces(space_vertices, space_faces),
            complex_from_faces(stab_labels, stab_faces))


@dataclass(frozen=True)
class IdentityReport:
    """All quantities of the five-way identity for one (G, H) pair."""

    mu_ideal: int
    subspace_sum: int
    stabilizer_sum: int
    stabilizer_complement_sum: int
    subspace_chi_reduced: int
    stabilizer_chi_reduced: int
    mu_full: Optional[int] = None
    decomposition_residual: Optional[int] = None
    # the two complexes the Euler characteristics came from, for face dumps;
    # not part of the report's values, its dict form or its equality
    subspace_complex: Optional[SimplicialComplex] = field(
        default=None, compare=False, repr=False)
    stabilizer_complex: Optional[SimplicialComplex] = field(
        default=None, compare=False, repr=False)

    @property
    def all_equal(self) -> bool:
        return (-self.mu_ideal == self.subspace_sum == self.stabilizer_sum
                == -self.subspace_chi_reduced == -self.stabilizer_chi_reduced)

    def values(self) -> tuple:
        return (-self.mu_ideal, self.subspace_sum, self.stabilizer_sum,
                -self.subspace_chi_reduced, -self.stabilizer_chi_reduced)

    def to_dict(self) -> dict:
        out = {
            "mu_ideal": self.mu_ideal,
            "subspace_sum": self.subspace_sum,
            "stabilizer_sum": self.stabilizer_sum,
            "stabilizer_complement_sum": self.stabilizer_complement_sum,
            "subspace_chi_reduced": self.subspace_chi_reduced,
            "stabilizer_chi_reduced": self.stabilizer_chi_reduced,
            "all_equal": self.all_equal,
        }
        if self.mu_full is not None:
            out["mu_full"] = self.mu_full
        if self.decomposition_residual is not None:
            out["decomposition_residual"] = self.decomposition_residual
        return out


def verify_identities(group: GroupSet, subgroup: SubgroupRef,
                      lattice: Optional[FinitePoset] = None,
                      max_interval: int = INTERVAL_CAP,
                      max_powerset: int = POWERSET_CAP,
                      with_decomposition: bool = False) -> IdentityReport:
    """Compute the five quantities independently and report them together.

    Requires a proper subgroup of an irreducible group.  ``lattice`` is a
    subgroup lattice holding every overgroup of H (see ``subgroup_lattice``);
    without it the intervals needed are enumerated directly.  When
    ``with_decomposition`` is set, the Mobius value over the full overgroup
    interval and the residual of the ideal/complement decomposition are
    attached as well.
    """
    _check_pair(group, subgroup)
    if subgroup.order == group.order:
        raise ValueError("identities are verified for proper subgroups only")
    if lattice is None and with_decomposition:
        lattice = subgroup_lattice(overgroup_interval(group, subgroup,
                                                      cap=max_interval))
    family = stabilizer_family(group, subgroup)
    # the cap is read before the ideal, which for H = 1 is nearly the whole
    # lattice: a pair the sums would skip builds nothing
    _check_powerset(family, max_powerset)
    ideal = build_ideal(family, lattice=lattice, max_interval=max_interval)
    mu_hat = mu_ideal(ideal)
    sums = alternating_sums(family, max_powerset=max_powerset)
    subspace_cx, stab_cx = build_complexes(family, max_powerset=max_powerset)
    chi1 = euler(subspace_cx).chi_reduced
    chi2 = euler(stab_cx).chi_reduced
    mu_full = residual = None
    if with_decomposition:
        mu_full, residual = _decomposition(group, ideal, mu_hat)
    return IdentityReport(mu_hat, sums.subspace_sum, sums.stabilizer_sum,
                          sums.stabilizer_complement_sum, chi1, chi2,
                          mu_full, residual, subspace_cx, stab_cx)


def mobius_between(group: GroupSet, low: SubgroupRef,
                   high: Optional[SubgroupRef] = None,
                   lattice: Optional[FinitePoset] = None,
                   max_interval: int = INTERVAL_CAP) -> int:
    """Mobius value mu(low, high) inside the subgroup lattice of the group.

    ``lattice`` must hold the interval [low, high]; without it the interval
    is enumerated directly.
    """
    if high is None:
        high = group.full_subgroup()
    if not low.member_ids <= high.member_ids:
        raise NotASubgroup("low endpoint is not contained in the high one")
    if lattice is None:
        lattice = subgroup_lattice(overgroup_interval(group, low, top=high,
                                                      cap=max_interval))
    row = mobius_row(lattice, _position(lattice, low))
    return row[_position(lattice, high)]


def _decomposition(group: GroupSet, ideal: ReducibleIdeal, mu_hat: int):
    """mu(H, G) and the residual of its split, from one row of the lattice
    the ideal was read off."""
    top = _position(ideal.lattice, group.full_subgroup())
    row = mobius_row(ideal.lattice, ideal.bottom)
    inside = set(ideal.indices)
    outside = sum(value for k, value in row.items()
                  if k != top and k not in inside)
    return row[top], row[top] - mu_hat + outside
