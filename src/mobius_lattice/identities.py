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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    Orders grow with the index, so the index order is a linear extension and
    only a later item can contain an earlier one.  ``containing[x]``, local
    to the build, holds the bits of the items that contain element x; an
    item's bit is recorded only for the elements some earlier item has,
    since no other element can decide a containment.  Item i's up-set is
    the AND of ``containing[x]`` over the members x of item i, masked to the
    items after i.  Each AND is turned into i's index row at once, its
    entries drawn from one shared ``range`` tuple, and the mask is dropped.
    """
    items = sorted(subgroups, key=SubgroupRef.sort_key)
    containing: dict = {}
    seen: set = set()
    for j, k in enumerate(items):
        bit = 1 << j
        for x in seen.intersection(k.member_ids):
            containing[x] = containing.get(x, 0) | bit
        seen.update(k.member_ids)
    ints = tuple(range(len(items)))
    full = (1 << len(items)) - 1
    up = []
    for i, k in enumerate(items):
        later = full >> (i + 1) << (i + 1)
        if later:
            for x in k.member_ids:
                later &= containing.get(x, 0)
                if not later:
                    break
        # bit j is digit j of the reversed binary string: one C-level
        # search per set bit
        digits = bin(later)[:1:-1]
        row = [ints[i]]
        pos = digits.find("1", i + 1)
        while pos >= 0:
            row.append(ints[pos])
            pos = digits.find("1", pos + 1)
        up.append(tuple(row))
    return FinitePoset(items, up)


def certify_meets(group: GroupSet, lattice: FinitePoset) -> None:
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

    That is classes x N ANDs of ``SubgroupRef.member_bits``.  A failed
    condition raises ``RuntimeError``, as the per-ideal check does: the
    enumeration itself is broken.
    """
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
            raise RuntimeError(
                "lattice is not closed under intersection")
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
    H and the union of the intervals [H, M], enumerated directly.

    The ideal is checked closed under meets (``_validate_meets``) unless
    ``lattice`` is the one ``certify_meets`` proved closed under
    intersection for this group, as ``verify`` does for its whole lattice
    once per run when the per-ideal checks would cost more: then every
    ideal read off it is closed.  An enumerated
    lattice and any lattice a caller builds are checked per ideal.
    """
    group, subgroup = family.subgroup.parent, family.subgroup
    _check_pair(group, subgroup)
    if subgroup.order == group.order:
        raise ValueError("the ideal is defined for proper subgroups only")
    stabs = family.distinct_stabilizers
    if lattice is None:
        lattice = subgroup_lattice({subgroup}.union(*(
            overgroup_interval(group, subgroup, top=m, cap=max_interval)
            for m in stabs)))
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

    The sets are element bitmasks (``SubgroupRef.member_bits``), so an
    intersection is one AND of two ints and a comparison one int compare.
    Depth-first walk keeping the running intersection.  Intersections only
    shrink and already contain the target, so once the running value hits the
    target the whole branch lies in the complement family; the signs of that
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
    target = subgroup.member_bits
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
    H itself, with faces the subsets intersecting to more than H.  Shrinking
    a face can only grow the intersection, so both families are complexes by
    construction; ``complex_from_faces`` checks that on the face masks of
    ``_faces`` and would surface a bug, never repair one.
    """
    group, subgroup = family.subgroup.parent, family.subgroup
    _check_pair(group, subgroup)
    target = subgroup.member_bits
    ambient = group.full_subgroup().member_bits
    space_pairs = [(w, stab.member_bits) for w, stab in family.pairs
                   if stab.member_bits != target]
    space_vertices = [w for w, _ in space_pairs]
    space_sets = [bits for _, bits in space_pairs]
    stab_vertices = [m for m in family.distinct_stabilizers
                     if m.member_bits != target]
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
