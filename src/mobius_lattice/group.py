"""Explicit finite matrix groups.

A ``GroupSet`` comes only from ``closure``, the group its generators
generate; the class is never called.  Groups are stored as deduplicated
element sets with a deterministic index (elements sorted by canonical matrix
entry order at closure time), so member id sets are canonical and subgroup
equality is set equality.  No permutation or polycyclic machinery: the scope
is desk-scale exhaustive verification, and explicit sets make every lattice
operation trivially correct.

Products act on packed rows instead of multiplying matrices.  A row vector
over GF(q) is packed into one integer code (its entries read as base-q
digits), and an element is keyed by the tuple of its n row codes (the bare
code for n = 1).  The right action of an element g on all q^n row codes
turns any product h*g into n list lookups and one probe of the element
index.  Each element's action is built the first time the element is a
right factor, and kept.  Only the generators' actions come from
``apply_row``, in ``closure``.  Every element but the identity was first
reached there as x*s, s a generator, and its action is composed from x's
and s's along that breadth-first tree, since v*(x*s) = (v*x)*s
(``_factor``).  ``mul`` multiplies one pair; ``right_images`` multiplies a
whole list of ids by one right factor, looking its action up once.  Both
read the action through one accessor.

``closure`` runs on the same keys.  It is a breadth-first search over the
Cayley graph of the generators (the orbit algorithm of Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1)
whose every move is a pick out of a generator's row action.  It takes
each level one generator g at a time: the level's keys are read as n
columns of row codes, and the keys of the whole level times g come out of
one list comprehension, one pick per column out of g's action.  They are
distinct, since g is invertible, so the order cap is checked once per such
batch.  It records, as each new key's step, the action of the generator
that first reached it, so the search's tree is kept with no extra pass.
The sorted keys are then indexed once (``GroupSet._from_closure``).  Code
order is the lexicographic order of row vectors, so the ids are those of the
canonical matrix order.  No ``Matrix`` product is formed:
``Matrix.__mul__`` is only the tests' oracle.

Subgroups are grown by one routine, ``GroupSet._join``: <K, g> is built one
right coset of K at a time (Dimino's algorithm), with the generators of K
and g as the only right factors.  Each factor's row action is looked up
once per join; whether a coset times a factor is new is one pick out of it,
and a new coset is one pass over the old.  The join runs inside a subgroup
T known to contain it (G unless the caller knows a smaller one) and stops
once it holds more than |T|/p elements, p the smallest prime dividing
[T:K]: by Lagrange's theorem it is then T.  When [T:K] is p itself, no
subgroup lies strictly between K and T, so the join of K with any g
outside K is T before a single coset is grown.  A caller may also pass
``reach``, elements r known to satisfy <K, r> = T: the join is T at once
when g is one of them, or when the next new coset's representative is, since
<K, g> then holds <K, r>.  Subgroup closures, generating
sets (but those ``verify`` reads off its whole lattice, see
``identities.store_greedy_generators``), stabilizers and overgroup
intervals all go through it; nothing is
memoised beyond the full subgroup, the row actions with the closure's
steps and their inverse permutations, inverses, stabilizers, each element's
proper non-trivial invariant subspaces, the class orbits of the last
whole-lattice walk, the lattice certified closed under intersection and the
tuple of element matrices, which ``elements`` builds from the row keys the
first time it is read (subgroup generators read one matrix at a time,
through ``element``).  The invariant subspaces are a list
indexed by id that ``identities.stabilizer_family`` fills one generator at
a time, reading each basis row's image off the element's row action, so
each element's linear algebra runs once per group however many subgroups
it generates.  Inverses share one memo, a
list indexed by id, and one producer: the power walk ``_cyclic_generators``
takes x, x^2, ..., x^(m-1) and records x^k and x^(m-k) as each other's
inverses.  ``inv`` runs it on a miss; ``_prime_power_cyclic_generators``
runs it over the whole group, after which the lattice reads inverses
straight out of the list.

``stabilizer`` never scans G.  It walks the orbit of the subspace W under
G's generators, keeping one transversal element per image of W, and joins
the Schreier generators that the orbit yields (orbit-stabilizer; Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1).
It fails closed: the order of the stabilizer times the length of the orbit
must be |G|, which also catches generators that do not generate G.  The
same orbit walk gives normalizers, as the stabilizers of subgroups under
conjugation.

``overgroup_interval`` has two strategies.  The whole lattice [1, G] is
enumerated by cyclic extension (Neubüser, 1960) over one subgroup K per
conjugacy class.  Each new K brings its whole class, the orbit of its member
set under conjugation by G's generators, and that orbit's Schreier
generators give N_G(K).  Since <K, C^n> = <K, C>^n for n in N_G(K), K is
joined with one cyclic subgroup C of prime-power order per N_G(K)-orbit
outside K, each orbit walked breadth-first over the permutations that
N_G(K)'s generators induce on those cyclic subgroups, each permutation
built once per walk.  The walk records the class orbits on the group, where
``identities.certify_meets`` reads them to prove the lattice closed under
intersection once per run.  Any other interval [H, M] is searched by
joining each known subgroup K with the elements g of M outside it.  After
a join, the search skips every element x with <K, x> = <K, g>: all of
<K, g> when [<K, g> : K] is prime (each such x outside K generates it with
K), else the double cosets K*g^k*K for every k prime to the order of g
(<K, h*g^k*h'> = <K, g^k> = <K, g> for h, h' in K).  This search is also
the test oracle of the first.

Both searches join at one site, the same for each:

    inside = _least_holding(above, x) or <the top's member set>
    group._join(K, gens, x, inside, _witnesses(reach, inside, merged))

<K, x> lies in every subgroup holding K and x, so a join inside the
smallest known overgroup of K that holds x (``_least_holding``), and inside
G or M only when none does, stops at that subgroup's Lagrange bound instead
of walking all of it.  Both spend most of their time on joins that end at
their bound, and both fill ``reach`` by one exact ancestor rule: if
<A, r> = S and A <= K <= S, then <K, r> = S, so a join <K, g> inside S
that meets r is S.  Both keep witnesses under every bound S their joins
end at: the search keeps the elements a join covered, the walk the
generators of the cyclic subgroup it joined (under G, those of its whole
N_G(K)-orbit).  ``reach`` maps each bound S to a list of witness sets.
Each K copies the lists of the subgroup that queued it, and merges a list
into one set of its own (its id in ``merged``) only when a join inside S
reads it.  K uses its witnesses for the rest of its loop and hands them to
the subgroups it queues, whose loops start only after K's ends.  The
searches differ only in their candidates x, in the elements that become
witnesses, in the order they take the subgroups they queue (the walk the
largest first, the search the last queued) and in the class orbits that
the walk records.
"""

from __future__ import annotations

from array import array
from bisect import insort
from heapq import heappop, heappush
from itertools import chain, product
from math import gcd
from operator import itemgetter, methodcaller
from typing import Collection, Iterable, Optional, Sequence

from .errors import (
    AmbientMismatch,
    IntervalTooLarge,
    NotASubgroup,
    OrderCapExceeded,
    SingularGenerator,
    TableTooLarge,
)
from .gfq import SUBSPACE_CAP, FqField, _smallest_prime_factor
from .linalg import Matrix, Subspace, apply_row, invariant_subspaces

ORDER_CAP = 250_000
INTERVAL_CAP = 100_000
# the default witness set of a join: none, so only Lagrange's bound stops it
_NO_WITNESSES = frozenset()


class GroupSet:
    """A finite matrix group as an explicit, canonically indexed element set."""

    __slots__ = ("field", "n", "_elements", "generators", "order",
                 "_vectors", "_codes", "_keys", "_rows", "_idx",
                 "identity_index", "_actions", "_steps", "_unsteps", "_inv",
                 "_subspaces", "_stab_cache", "_irreducible", "_full",
                 "_full_ref", "_classes", "_meet_closed")

    @classmethod
    def _from_closure(cls, field: FqField, n: int, vectors: list,
                      codes: dict, steps: dict, identity,
                      generators: Sequence[Matrix]) -> "GroupSet":
        """The group ``closure`` found: ``steps`` maps each element's row key
        (``_row_key``) to the row action of the generator that first reached
        it, or to None for ``identity``, the key the search started at;
        ``vectors`` and ``codes`` are its row space (``_row_space``).

        The elements are indexed by their sorted row keys.  Codes follow the
        lexicographic order of row vectors, so this is the order of
        ``Matrix._key``: ids do not depend on how the keys were found.  Once
        the steps are read out, the dict itself becomes the index, each key
        mapped to its id, so no second dict of |G| keys is built.  The class
        is never called: ``__new__`` alone makes the instance."""
        self = cls.__new__(cls)
        self.field = field
        self.n = n
        self._vectors, self._codes = vectors, codes
        self._keys = keys = sorted(steps)
        # _steps[i]: the row action of the generator s with i = x*s that
        # first reached i, None for the identity; _unsteps maps id(action)
        # to the inverse permutation, built once per generator
        self._steps = list(map(steps.__getitem__, keys))
        self._unsteps = {}
        steps.update(zip(keys, range(len(keys))))
        self._idx = steps
        self.generators = tuple(generators)
        self.order = len(keys)
        self._full = frozenset(range(self.order))
        self._elements = None
        self._full_ref = None
        # _rows[i](action) picks the rows of element i out of the row action
        # of an element g: the key of the product i*g
        self._rows = list(map(_row_picker(n), keys))
        self.identity_index = steps[identity]
        self._actions = [None] * self.order
        # _inv[i] is the id of the inverse of i, None until a power walk
        # (_cyclic_generators) through i has run
        self._inv = [None] * self.order
        self._inv[self.identity_index] = self.identity_index
        # _subspaces[i]: the proper non-trivial subspaces element i fixes,
        # None until identities.stabilizer_family first reads them
        self._subspaces = [None] * self.order
        self._stab_cache = {}
        self._irreducible = None
        # the class orbits of the last whole-lattice walk, and the lattice
        # that identities.certify_meets proved closed under intersection
        self._classes = None
        self._meet_closed = None
        return self

    @property
    def elements(self) -> tuple:
        """Every element as a ``Matrix``, in id order, built on first use:
        products, inverses and subgroups never read it."""
        if self._elements is None:
            self._elements = tuple(map(self.element, range(self.order)))
        return self._elements

    def element(self, i: int) -> Matrix:
        """The matrix of element i, read off its row key."""
        key, vectors = self._keys[i], self._vectors
        if self.n == 1:
            data = vectors[key]
        else:
            data = sum(map(vectors.__getitem__, key), ())
        return Matrix(self.field, self.n, self.n, data)

    def _factor(self, j: int) -> list:
        """The row action of j, which multiplies by j on the right: the code
        of v*j for every row vector v, in code order, built on first use.

        An element y that ``closure`` first reached as x*s, s a generator,
        has s's action as its step, and its parent x = y*s^-1 is the pick of
        y's rows out of the inverse of that action.  The walk goes up the
        parents to the nearest element with an action, or to the identity,
        the one element with no step, whose action is the identity
        permutation, built on first use; it composes back down, one pick per
        step, since v*(x*s) = (v*x)*s, and keeps every action on the way."""
        actions = self._actions
        action = actions[j]
        if action is not None:
            return action
        steps, rows, idx = self._steps, self._rows, self._idx
        path = []
        y = j
        while actions[y] is None and steps[y] is not None:
            step = steps[y]
            path.append((y, step))
            y = idx[rows[y](self._unstep(step))]
        action = actions[y]
        if action is None:
            action = actions[y] = list(range(len(self._vectors)))
        for y, step in reversed(path):
            action = actions[y] = list(map(step.__getitem__, action))
        return action

    def _unstep(self, step: list) -> list:
        """The inverse permutation of a step's action, built once."""
        inverse = self._unsteps.get(id(step))
        if inverse is None:
            inverse = self._unsteps[id(step)] = [0] * len(step)
            for v, w in enumerate(step):
                inverse[w] = v
        return inverse

    def mul(self, i: int, j: int) -> int:
        return self._idx[self._rows[i](self._factor(j))]

    def right_images(self, ids: Iterable[int], j: int) -> list:
        """``[mul(i, j) for i in ids]`` with one lookup of j's action for the
        whole list."""
        action, rows, idx = self._factor(j), self._rows, self._idx
        return [idx[rows[i](action)] for i in ids]

    def inv(self, i: int) -> int:
        """The id of i's inverse.  On a miss, the power walk of i
        (``_cyclic_generators``) fills the memo for every power of i."""
        if self._inv[i] is None:
            _cyclic_generators(self, i)
        return self._inv[i]

    def index_of(self, m: Matrix) -> int:
        return self._idx[_row_key(self._codes, self.n, m)]

    # -- subgroups ------------------------------------------------------------

    def subgroup(self, member_ids: Iterable[int]) -> "SubgroupRef":
        ids = frozenset(member_ids)
        if self.identity_index not in ids:
            raise ValueError("subgroup must contain the identity")
        for j in ids:
            if not ids.issuperset(self.right_images(ids, j)):
                raise ValueError("member set is not closed under product")
        return SubgroupRef(self, ids)

    def subgroup_closure(self, seed_ids: Iterable[int]) -> "SubgroupRef":
        return SubgroupRef(self, self._generate(seed_ids)[0])

    def _join(self, members: frozenset, gens: list, g: int,
              top: Optional[frozenset] = None,
              reach: Collection[int] = _NO_WITNESSES) -> frozenset:
        """<K, g> for K = ``members`` generated by ``gens`` (Dimino), inside
        a subgroup ``top`` known to contain it (default: the whole group).

        Let p be the smallest prime dividing [top:K].  A subgroup of top
        containing K has index dividing [top:K] (Lagrange), so a proper one
        has index at least p.  When [top:K] is p itself, K is maximal in
        top and the join of K with any g outside it is ``top``, returned
        before any coset is grown; a g in K gives K.  Otherwise the join is
        ``top`` once it holds more than |top|/p elements.

        ``reach`` holds elements r known to satisfy <K, r> = top.  The join
        is ``top`` at once when g is one of them, and as soon as a new coset
        representative is: <K, g> then holds <K, r> = top.
        """
        top = self._full if top is None else top
        if g in reach:
            return top
        index = len(top) // len(members)
        p = _smallest_prime_factor(index)
        if p == index and g not in members:
            return top
        bound = len(top) // p
        seen = set(members)
        if self._grow_cosets([list(members)], seen, list(gens) + [g], bound,
                             reach):
            return top
        return frozenset(seen)

    def _double_coset(self, members: frozenset, gens: list, g: int) -> set:
        """The double coset K*g*K for K = ``members`` generated by ``gens``:
        the coset K*g closed under right multiplication by K's generators."""
        first = self.right_images(members, g)
        seen = set(first)
        self._grow_cosets([first], seen, gens, self.order)
        return seen

    def _grow_cosets(self, cosets: list, seen: set, factors: list,
                     bound: int,
                     reach: Collection[int] = _NO_WITNESSES) -> bool:
        """Close the right cosets of K in ``cosets``, whose union is
        ``seen``, under right multiplication by ``factors``; True as soon
        as ``seen`` holds more than ``bound`` elements, or as soon as a new
        coset's representative is in ``reach`` (``_join``'s witnesses).

        A coset C times a factor s is the coset K*(c*s), new exactly when
        c*s is not yet seen.  Filling it as C*s, never as K times a new
        representative, keeps the factors the only right factors.  Each
        factor's row action is looked up once per call, and c*s is one pick
        out of it.
        """
        rows, idx = self._rows, self._idx
        factors = [self._factor(s) for s in factors]
        for coset in cosets:
            c = coset[0]
            for f in factors:
                y = idx[rows[c](f)]
                if y not in seen:
                    if y in reach:
                        return True
                    image = [idx[rows[i](f)] for i in coset]
                    seen.update(image)
                    if len(seen) > bound:
                        return True
                    cosets.append(image)
        return False

    def _generate(self, ids: Iterable[int],
                  top: Optional[frozenset] = None) -> tuple:
        """(members, gens) of the subgroup generated by ``ids``, where gens
        are the ids, in the given order, that were not yet members.  Each
        join runs inside ``top`` (default: the whole group), which must
        contain every id."""
        members = frozenset((self.identity_index,))
        gens: list = []
        for i in ids:
            if i not in members:
                members = self._join(members, gens, i, top)
                gens.append(i)
        return members, gens

    def trivial_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, frozenset((self.identity_index,)))

    def full_subgroup(self) -> "SubgroupRef":
        """The whole group as a subgroup: one ref per group, so lookups of
        it compare by identity.  Its member bits are all ones, set at once."""
        if self._full_ref is None:
            self._full_ref = SubgroupRef(self, self._full)
            self._full_ref._bits = (1 << self.order) - 1
        return self._full_ref

    def __repr__(self) -> str:
        # not call syntax: the class is never called
        return (f"<GroupSet order={self.order}, n={self.n}, "
                f"field=GF({self.field.q})>")


class SubgroupRef:
    """Handle to a subgroup of a GroupSet, canonical by its member id set."""

    __slots__ = ("parent", "member_ids", "_sorted", "_gens", "_bits")

    def __init__(self, parent: GroupSet, member_ids: frozenset):
        self.parent = parent
        self.member_ids = member_ids
        self._sorted = None
        self._gens = None
        self._bits = None

    @property
    def order(self) -> int:
        return len(self.member_ids)

    @property
    def ids(self) -> tuple:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.member_ids))
        return self._sorted

    @property
    def member_bits(self) -> int:
        """The member ids as one int (``member_mask``), kept on the ref."""
        if self._bits is None:
            self._bits = member_mask(self.parent, self.member_ids)
        return self._bits

    def matrices(self) -> list:
        return list(map(self.parent.element, self.ids))

    def generator_ids(self) -> tuple:
        """A small deterministic generating set (greedy over the id order).

        The joins run inside H itself, so Lagrange's stop ends the last one
        once it passes |H|/p elements.  On the items of the whole lattice
        [1, G], ``identities.store_greedy_generators`` stores the same set
        read off the lattice, and no join runs."""
        if self._gens is None:
            self._gens = tuple(
                self.parent._generate(self.ids, self.member_ids)[1])
        return self._gens

    def generator_matrices(self) -> list:
        gens = self.generator_ids()
        return list(map(self.parent.element,
                        gens or (self.parent.identity_index,)))

    def __le__(self, other: "SubgroupRef") -> bool:
        if self.parent is not other.parent:
            raise AmbientMismatch("subgroups of different parent groups")
        return self.member_ids <= other.member_ids

    def __eq__(self, other) -> bool:
        """Same parent and same members.  A shared member set decides at
        once, and so does a different order; member sets of one order are
        compared as ``member_bits``, which the sweep builds for the
        lattice's members and stabilizers anyway."""
        if self is other:
            return True
        if (not isinstance(other, SubgroupRef) or self.parent is not other.parent
                or len(self.member_ids) != len(other.member_ids)):
            return False
        return (self.member_ids is other.member_ids
                or self.member_bits == other.member_bits)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.member_ids))

    def sort_key(self):
        return (self.order, self.ids)

    def __repr__(self) -> str:
        return f"SubgroupRef(order={self.order} of {self.parent!r})"


def member_mask(group: GroupSet, ids: Iterable[int]) -> int:
    """The element ids as one int: bit x is set iff x is among them."""
    buf = bytearray((group.order + 7) >> 3)
    for x in ids:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def closure(gens: Sequence[Matrix], cap: int = ORDER_CAP) -> GroupSet:
    """The group generated by the given matrices, as an explicit GroupSet.

    Breadth-first from the identity over the Cayley graph of the generators,
    on row keys: each generator's row action is built once, and the key of
    x*g is the pick of x's row codes out of g's action, so no ``Matrix``
    product is formed.  A level is taken one generator at a time, its keys
    transposed into row-code columns (n > 1) so that the images of the whole
    level are one list comprehension, with no picker built per element.
    The images of one batch are distinct, g being invertible, so the cap is
    checked per batch; past it, the error reports cap + 1 elements found.
    The search maps each new key to the action of the
    generator that first reached it, its step; the steps form the tree
    along which ``GroupSet._factor`` composes every other element's action.
    The final indexing sorts the keys, which is the canonical matrix order,
    so the ids are independent of generator order and discovery schedule.
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
    vectors, codes = _row_space(field, n)
    actions = [_matrix_row_action(field, vectors, codes, g) for g in gens]
    ident = _row_key(codes, n, Matrix.identity(field, n))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        fresh = []
        # the frontier's row codes, one column per row (n > 1)
        columns = list(zip(*frontier)) if n > 1 else None
        for action in actions:
            pick = action.__getitem__
            images = (map(pick, frontier) if n == 1
                      else zip(*[map(pick, column) for column in columns]))
            new = [y for y in images if y not in seen]
            if len(seen) + len(new) > cap:
                raise OrderCapExceeded(f"closure exceeded cap {cap} "
                                       f"elements: {cap + 1} found")
            for y in new:
                seen[y] = action
            fresh += new
        frontier = fresh
    return GroupSet._from_closure(field, n, vectors, codes, seen, ident,
                                  gens)


def _check_row_space(q: int, n: int) -> None:
    """Fail closed when GF(q)^n, q >= 2, has more row vectors than the cap.

    q^n >= 2^n, so an n past the cap's bit length fails before q**n is
    formed, and a count past 64 bits is named by a lower bound, never
    printed in full.  An n below 1 is left to the caller's own check."""
    if n < SUBSPACE_CAP.bit_length() and q ** max(n, 0) <= SUBSPACE_CAP:
        return
    size = q ** n if n * q.bit_length() <= 64 else f"at least 2^{n}"
    raise TableTooLarge(f"row space GF({q})^{n} has {size} vectors, over "
                        f"subspace cap {SUBSPACE_CAP}")


def _row_space(field: FqField, n: int) -> tuple:
    """The row vectors of GF(q)^n in code order, and the code of each."""
    _check_row_space(field.q, n)
    vectors = list(product(range(field.q), repeat=n))
    return vectors, {v: c for c, v in enumerate(vectors)}


def _matrix_row_action(field: FqField, vectors: list, codes: dict,
                       m: Matrix) -> list:
    """Code of v*m for every row vector v, in code order."""
    return [codes[apply_row(field, v, m)] for v in vectors]


def _row_key(codes: dict, n: int, m: Matrix):
    """The tuple of m's row codes; for n = 1 the bare code, as
    ``itemgetter`` of one index returns it."""
    if m.nrows != n or m.ncols != n:
        raise AmbientMismatch(f"{m.nrows}x{m.ncols} matrix in a group "
                              f"of {n}x{n} matrices")
    data = m.data
    if n == 1:
        return codes[data]
    return tuple(codes[data[r * n:(r + 1) * n]] for r in range(n))


def _row_picker(n: int):
    """key -> the function that picks the key of x*g out of g's row action,
    for x the element with that key."""
    return itemgetter if n == 1 else (lambda key: itemgetter(*key))


def is_irreducible(group: GroupSet) -> bool:
    """True iff the group fixes no proper non-trivial subspace."""
    if group._irreducible is None:
        found = invariant_subspaces(list(group.generators), group.n,
                                    proper_nontrivial=True)
        group._irreducible = len(found) == 0
    return group._irreducible


def stabilizer(group: GroupSet, subspace: Subspace) -> SubgroupRef:
    """{g in G : W g = W} for a subspace W of the ambient row space, from
    the Schreier generators of W's orbit under G's generators."""
    if subspace.field != group.field or subspace.ambient_dim != group.n:
        raise AmbientMismatch("subspace does not live in the group's space")
    cached = group._stab_cache.get(subspace)
    if cached is not None:
        return cached
    moves = [(group.index_of(m), methodcaller("apply", m))
             for m in group.generators]
    _, ids, _ = _orbit_stabilizer(group, subspace, moves, "subspaces")
    ref = SubgroupRef(group, ids)
    group._stab_cache[subspace] = ref
    return ref


def _orbit_stabilizer(group: GroupSet, point, moves: list,
                      noun: str) -> tuple:
    """(orbit, stabilizer ids, stabilizer generators) of ``point`` under G.

    ``moves`` pairs each generator s of G with the function that takes a
    point X to X*s.  transversal[X] is an element u with point*u = X, and
    the Schreier generators u*s*u'^-1, u' = transversal[X*s], for every
    point X and generator s generate the stabilizer of ``point``.  Fails
    closed: the stabilizer's order times the orbit's length must be |G|,
    which also catches generators that do not generate G.
    """
    mul, inv = group.mul, group.inv
    transversal = {point: group.identity_index}
    orbit = [point]
    schreier = []
    for x in orbit:
        u = transversal[x]
        for s, move in moves:
            image, us = move(x), mul(u, s)
            known = transversal.get(image)
            if known is None:
                transversal[image] = us
                orbit.append(image)
            else:
                schreier.append(mul(us, inv(known)))
    ids, gens = group._generate(schreier)
    if len(ids) * len(orbit) != group.order:
        raise NotASubgroup(
            f"stabilizer of order {len(ids)} times an orbit of "
            f"{len(orbit)} {noun} is not the group order {group.order}: "
            f"the generators do not generate the element set")
    return orbit, ids, gens


def overgroup_interval(group: GroupSet, low: SubgroupRef,
                       top: Optional[SubgroupRef] = None,
                       cap: int = INTERVAL_CAP, *,
                       joined: Optional[list] = None) -> list:
    """All subgroups K with low <= K <= top (top defaults to the whole group),
    sorted by ``SubgroupRef.sort_key``.

    The whole lattice [1, G] is enumerated by cyclic extension up to
    conjugacy (``_lattice_by_cyclic_extension``); every other interval by
    the coset-pruned search (``_interval_by_coset_search``).  Both return the
    same member sets, and both raise ``IntervalTooLarge`` once more than
    ``cap`` subgroups are known.  The search appends to ``joined``, when
    given, the element it joined to find each new subgroup; the walk of the
    whole lattice leaves it as it is.
    """
    if low.parent is not group:
        raise AmbientMismatch("subgroup belongs to a different group")
    top_ids = group._full if top is None else top.member_ids
    if top is not None and top.parent is not group:
        raise AmbientMismatch("top subgroup belongs to a different group")
    if not low.member_ids <= top_ids:
        raise AmbientMismatch("low is not contained in top")
    if low.order == 1 and len(top_ids) == group.order:
        known = _lattice_by_cyclic_extension(group, cap)
    else:
        known = _interval_by_coset_search(group, low, top_ids, cap,
                                          joined=joined)
    refs = [SubgroupRef(group, ids) for ids in known]
    refs.sort(key=SubgroupRef.sort_key)
    return refs


def _check_cap(known: set, cap: int) -> None:
    if len(known) > cap:
        raise IntervalTooLarge(f"interval exceeded cap {cap} subgroups: "
                               f"{len(known)} found")


def _interval_by_coset_search(group: GroupSet, low: SubgroupRef,
                              top_ids: frozenset, cap: int, *,
                              joined: Optional[list] = None) -> set:
    """Member sets of [low, top] by fixed-point closure.

    Starting from {low}, join every known subgroup K with every element g of
    top outside it; repeat until stable.  Any overgroup is generated by low
    plus finitely many elements, so this reaches them all.  Each subgroup is
    queued with the generators it was found by, so joins never search for
    them.  After a join, every element x with <K, x> = <K, g> is marked
    covered and never joined, by three exact rules:

    - when [<K, g> : K] is prime, all of <K, g> is covered: for x in <K, g>
      outside K, <K, x> lies strictly above K, so it is <K, g>;
    - otherwise the double coset K*g*K is covered, since
      <K, h*g*h'> = <K, g> for h, h' in K; it is grown from K*g by K's
      generators, as a join grows its cosets;
    - and so is K*g^k*K for every k prime to the order of g, since g and
      g^k generate the same cyclic subgroup, so <K, g^k> = <K, g>.

    Joins run at the shared site (module docstring), bounded by top.  The
    witnesses are the elements that a join giving S covered, kept under S:
    <K, r> = S for each of them outside K.

    Each new subgroup <K, g> is queued with generators ``gens + [g]``; when
    ``joined`` is a list, g is appended to it, once per new subgroup, in the
    order they are found.  ``identities.build_ideal`` keeps those that
    normalize ``low`` to carry the interval onto its conjugates.
    """
    candidates = sorted(top_ids)
    known = {low.member_ids}
    queue = [(low.member_ids, list(low.generator_ids()), {})]
    while queue:
        current, gens, inherited = queue.pop()
        size = len(current)
        above = _overgroups(known, current)
        # reach[S]: the sets of witnesses for joins inside S, merged when a
        # join reads them; K's own list, so K appends to it alone
        reach = {s: list(inherited[s]) for s in above if s in inherited}
        merged = set()
        covered = set(current)
        for g in candidates:
            if g in covered:
                continue
            inside = _least_holding(above, g) or top_ids
            extended = group._join(current, gens, g, inside,
                                   _witnesses(reach, inside, merged))
            witnesses = reach.setdefault(extended, [])
            index = len(extended) // size
            if _smallest_prime_factor(index) == index:
                covered.update(extended)
                witnesses.append(extended)
            else:
                for x in _cyclic_generators(group, g)[0]:
                    if x not in covered:
                        coset = group._double_coset(current, gens, x)
                        covered.update(coset)
                        witnesses.append(coset)
            if extended not in known:
                known.add(extended)
                _check_cap(known, cap)
                queue.append((extended, gens + [g], reach))
                if joined is not None:
                    joined.append(g)
                insort(above, extended, key=len)
    return known


def _overgroups(known: Iterable, members: frozenset) -> list:
    """The proper overgroups of ``members`` among the ``known`` member
    sets, smallest first."""
    return sorted(filter(members.__lt__, known), key=len)


def _least_holding(above: list, x: int) -> Optional[frozenset]:
    """The first set in ``above`` (``_overgroups`` of K) that holds x, None
    if none does.  Every set holding K and x holds <K, x>, so this smallest
    one is the tightest known bound for the join of K with x."""
    return next((s for s in above if x in s), None)


def _witnesses(reach: dict, bound: frozenset,
               merged: set) -> Collection[int]:
    """The witnesses in ``reach[bound]`` as one set, merging its list of
    sets in place.  A set the search merged into earlier (its id in
    ``merged``) grows; any other is copied first, since the subgroups queued
    before may share it."""
    sets = reach.get(bound)
    if not sets:
        return _NO_WITNESSES
    if len(sets) > 1:
        first = sets[0]
        if id(first) not in merged:
            first = set(first)
            merged.add(id(first))
        first.update(*sets[1:])
        sets[:] = [first]
    return sets[0]


def _lattice_by_cyclic_extension(group: GroupSet, cap: int) -> set:
    """Member sets of the whole subgroup lattice (Neubüser's cyclic
    extension method, over conjugacy-class representatives).

    Every subgroup is generated by its cyclic subgroups of prime-power
    order, so every subgroup H ends a chain 1 < <C1> < <C1, C2> < ... < H
    of joins with such cyclic subgroups C.  Only one subgroup K per
    conjugacy class is queued; a new join brings its whole class into
    ``known``.  Conjugating a chain by g gives a chain of the same kind, so
    the chain of H is followed through the representatives of its
    conjugates.  For n in N_G(K), <K, C^n> = <K, C>^n lies in the class of
    <K, C>, so K is joined with one C per N_G(K)-orbit outside K.  The orbit
    of K under conjugation by G's generators is its class, and the orbit's
    Schreier generators generate N_G(K).

    Joins run at the shared site (module docstring), bounded by G.
    ``above`` holds K's known proper overgroups by order, read off the
    classes whose order |K| divides; each new class adds its conjugates that
    contain K.  The queue pops the largest representative first (ties in
    push order), so a small K finds more of its overgroups in ``above``
    and its joins stop at tighter bounds.  When <K, x> = S, so is <K, y>
    for every generator y of <x>: those y are the witnesses, kept under S.
    When S = G, so is <K, y> for every generator y of every cyclic subgroup
    in x's N_G(K)-orbit, since <K, x^n> = <K, x>^n = G, and all of them are
    kept under G; for a proper S the other orbit members give the
    conjugates S^n, and are not kept.

    The class orbits are recorded on the group as ``_classes``, a tuple of
    tuples of member sets, each led by its representative and the trivial
    subgroup's class first; ``identities.certify_meets`` reads them.
    """
    images = group.right_images
    # generators_of[c]: every generator of the c-th cyclic subgroup, led by
    # the one the walk joins; the power walk also completes the inverse memo,
    # read below as a list
    generators_of, cyc_of = _prime_power_cyclic_generators(group)
    cyclic = list(map(itemgetter(0), generators_of))
    inv = group._inv.__getitem__
    # conj[t] = g^-1 t^-1 g = (t g)^-1 g: since a subgroup holds the inverse
    # of each of its members, mapping its members through conj conjugates it
    # by g, and the only right factor is g
    moves = []
    for m in group.generators:
        g = group.index_of(m)
        conj = images(map(inv, images(range(group.order), g)), g)
        moves.append((g, lambda sub, conj=conj: frozenset(
            map(conj.__getitem__, sub))))
    # perm_of[g]: how conjugation by g permutes the positions in cyclic
    perm_of = {}
    full = group._full
    trivial = frozenset((group.identity_index,))
    known = {trivial}
    classes = [(trivial,)]
    # each representative K is queued with its generators, N_G(K)'s and the
    # witness lists its parent found; the largest pops first, ties in push
    # order
    queue = [(-1, 0, trivial, [], [g for g, _ in moves], {})]
    pushed = 0
    while queue:
        *_, current, gens, normalizer, inherited = heappop(queue)
        # K's own copy of the lists, so K appends to it alone
        reach = {s: list(sets) for s, sets in inherited.items()}
        merged = set()
        # Lagrange: an overgroup's order is a multiple of |K|, and a class
        # shares one order, so whole classes are skipped at once
        size = len(current)
        above = _overgroups(chain.from_iterable(
            orbit for orbit in classes if len(orbit[0]) % size == 0), current)
        for orbit in _cyclic_orbits(group, normalizer, cyclic, cyc_of,
                                    perm_of):
            x = cyclic[orbit[0]]
            if x in current:
                continue
            inside = _least_holding(above, x) or full
            extended = group._join(current, gens, x, inside,
                                   _witnesses(reach, inside, merged))
            if len(extended) == group.order:
                # <K, y> = <K, x^n> = <K, x>^n = G for n in N_G(K) and every
                # generator y of a cyclic subgroup <x^n> in x's orbit
                reach.setdefault(full, []).extend(
                    map(generators_of.__getitem__, orbit))
            else:
                # <K, y> = <K, x> for every generator y of <x>; the other
                # orbit members give the conjugates of extended
                reach.setdefault(extended, []).append(generators_of[orbit[0]])
            if extended in known:
                continue
            conjugates, _, normalizer = _orbit_stabilizer(
                group, extended, moves, "conjugate subgroups")
            known.update(conjugates)
            classes.append(tuple(conjugates))
            _check_cap(known, cap)
            for conjugate in conjugates:
                if current < conjugate:
                    insort(above, conjugate, key=len)
            # K's loop ends before this child is popped, so by then reach
            # holds every witness K finds
            pushed += 1
            heappush(queue, (-len(extended), pushed, extended, gens + [x],
                             normalizer, reach))
    group._classes = tuple(classes)
    return known


def _cyclic_orbits(group: GroupSet, gens: list, cyclic: list,
                   cyc_of: array, perm_of: dict) -> list:
    """The orbits of the subgroup generated by ``gens``, acting by
    conjugation on the cyclic subgroups that ``cyclic`` generates, as lists
    of positions in ``cyclic``, each led by its least and in the order of
    that least; ``cyc_of`` maps every generator of each to its position.

    Each generator g becomes a permutation of the positions, kept in
    ``perm_of[g]``: the walk shares one such dict across its normalizers,
    whose Schreier generators recur (537 in all but 100 distinct on
    GL(4,2)).  Each orbit is walked breadth-first from the least position
    not yet seen, so it is led by its least.  Inverses are read from the
    group's memo, which ``_prime_power_cyclic_generators`` filled."""
    images, inv = group.right_images, group._inv.__getitem__
    for g in gens:
        if g not in perm_of:
            # (x g)^-1 g = g^-1 x^-1 g generates <x>^g
            perm_of[g] = array("i", map(cyc_of.__getitem__, images(
                map(inv, images(cyclic, g)), g)))
    perms = list(map(perm_of.__getitem__, gens))
    seen = bytearray(len(cyclic))
    orbits = []
    for c in range(len(cyclic)):
        if seen[c]:
            continue
        seen[c] = 1
        orbit = [c]
        for d in orbit:
            for perm in perms:
                e = perm[d]
                if not seen[e]:
                    seen[e] = 1
                    orbit.append(e)
        orbits.append(orbit)
    return orbits


def _prime_power_cyclic_generators(group: GroupSet) -> tuple:
    """(generators_of, cyc_of): for each non-trivial cyclic subgroup of
    prime-power order, in the order of their first generator's id, the list
    of its generators (``_cyclic_generators``), led by that first one; and
    the map from every such generator to its list's position (-1 for the
    other elements).

    Every element is a power of some x walked here, so the walk also
    completes the group's inverse memo ``_inv``."""
    identity = group.identity_index
    # done[y]: y generates a cyclic subgroup whose powers were already taken
    done = bytearray(group.order)
    cyc_of = array("i", [-1]) * group.order
    found = []
    for x in range(group.order):
        if done[x] or x == identity:
            continue
        generators, powers = _cyclic_generators(group, x)
        order = len(powers)
        for y in generators:
            done[y] = 1
        p = _smallest_prime_factor(order)
        while order % p == 0:
            order //= p
        if order == 1:
            for y in generators:
                cyc_of[y] = len(found)
            found.append(generators)
    return found, cyc_of


def _cyclic_generators(group: GroupSet, x: int) -> tuple:
    """(generators, powers): the powers x^k for k prime to the order m of
    x, in increasing k, and all of [1, x, x^2, ..., x^(m-1)].

    x^k and x^(m-k) are each other's inverses, so the walk records the
    inverse of every power in the group's memo ``_inv``."""
    mul, identity, inverse = group.mul, group.identity_index, group._inv
    powers = [identity]
    y = x
    while y != identity:
        powers.append(y)
        y = mul(y, x)
    order = len(powers)
    for k in range(1, order):
        inverse[powers[k]] = powers[order - k]
    return [powers[k] for k in range(1, order) if gcd(k, order) == 1], powers
