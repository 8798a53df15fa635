import collections
import itertools
import math
import random
import sys
import time

import pytest

from mobius_lattice import group as group_module
from mobius_lattice.cli import preset_generators
from mobius_lattice.errors import (
    AmbientMismatch,
    IntervalTooLarge,
    NotASubgroup,
    OrderCapExceeded,
    SingularGenerator,
)
from mobius_lattice.gfq import FqField
from mobius_lattice.group import (
    GroupSet,
    SubgroupRef,
    closure,
    is_irreducible,
    overgroup_interval,
    stabilizer,
)
from mobius_lattice.identities import (
    _fixed_subspaces,
    _holders,
    certify_meets,
    mobius_between,
    stabilizer_family,
    store_greedy_generators,
    subgroup_lattice,
    verify_identities,
)
from mobius_lattice.linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    invariant_subspaces,
)

from helpers import (
    closure_by_matrix_products,
    interval_by_unpruned_coset_search,
    invariant_subspaces_by_rref,
    lattice_by_unpruned_cyclic_extension,
    line_stabilizers,
    naive_subset_sums,
    sorted_lines,
    stabilizer_by_element_filter,
)

F2 = FqField(2)
F3 = FqField(3)


@pytest.fixture(scope="module")
def gl33():
    return closure(preset_generators("GL", 3, FqField(3)))


def gl_order(n, q):
    # independent oracle: product formula for |GL(n, q)|
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def test_closure_of_identity():
    g = closure([Matrix.identity(F2, 2)])
    assert g.order == 1


def test_closure_gl22():
    g = closure([Matrix.from_rows(F2, [[1, 1], [0, 1]]),
                 Matrix.from_rows(F2, [[0, 1], [1, 0]])])
    assert g.order == gl_order(2, 2) == 6


def test_closure_gl23(gl23):
    assert gl23.order == gl_order(2, 3) == 48


def test_closure_is_closed_exhaustively(gl23, gl32):
    for group in (gl23, gl32):  # orders 48 and 168, both under 500
        members = set(range(group.order))
        for i in range(group.order):
            for j in range(group.order):
                assert group.mul(i, j) in members


def test_closure_contains_identity_and_inverses(gl22):
    ident = gl22.identity_index
    for i in range(gl22.order):
        assert gl22.mul(i, gl22.inv(i)) == ident


def _preset(kind, n, p, u=1):
    return closure(preset_generators(kind, n, FqField(p, u)))


@pytest.mark.parametrize("kind,n,p,u", [
    ("GL", 2, 5, 1), ("GL", 3, 2, 1), ("SL", 2, 3, 2), ("GL", 2, 2, 2)])
def test_power_walk_records_every_inverse(kind, n, p, u):
    # the walk over prime-power cyclic subgroups fills the group's inverse
    # memo from x^k * x^(m-k) = 1; checked against Matrix.inverse for every
    # element, and inv reads the same memo
    group = _preset(kind, n, p, u)
    group_module._prime_power_cyclic_generators(group)
    inverse = list(group._inv)
    oracle = [group.index_of(group.element(i).inverse())
              for i in range(group.order)]
    assert inverse == oracle
    assert [group.inv(i) for i in range(group.order)] == oracle


@pytest.mark.parametrize("kind,n,p,sample", [
    ("GL", 2, 3, None), ("SL", 2, 3, None), ("GL", 3, 2, None),
    ("GL", 3, 3, 200)])
def test_inv_walks_powers_on_a_fresh_group(kind, n, p, sample):
    # no power walk ran first: only the identity's inverse is known.  Each
    # inv(i) (every id, or a seeded sample) matches Matrix.inverse, and the
    # one call left the inverse of every power of i in the memo
    group = _preset(kind, n, p)
    assert group._inv.count(None) == group.order - 1
    ids = range(group.order)
    if sample:
        ids = random.Random(0).sample(ids, sample)
    oracle = group.index_of
    for i in ids:
        assert group.inv(i) == oracle(group.element(i).inverse())
        y = i
        while True:
            assert group._inv[y] == oracle(group.element(y).inverse())
            if y == group.identity_index:
                break
            y = group.mul(y, i)


@pytest.mark.parametrize("kind,n,p,u", [
    ("GL", 1, 7, 1), ("GL", 1, 2, 2), ("GL", 2, 3, 1), ("SL", 2, 2, 2),
    ("SL", 2, 3, 2), ("GL", 3, 2, 1), ("GL", 3, 3, 1)])
def test_closure_matches_matrix_product_oracle(kind, n, p, u):
    # same elements in the same order: ids, and so every report byte, do not
    # depend on closing on row codes.  n = 1 keys are bare codes
    gens = preset_generators(kind, n, FqField(p, u))
    assert list(closure(gens).elements) == closure_by_matrix_products(gens)


def test_closure_builds_elements_on_demand():
    # products, inverses, stabilizers, subgroup generators and intervals
    # read at most one matrix at a time: a whole identity run leaves the
    # tuple of all element matrices unbuilt
    gens = preset_generators("GL", 3, F3)
    group = closure(gens)
    torus = group.subgroup_closure(
        group.index_of(Matrix.from_rows(F3, rows)) for rows in (
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
    report = verify_identities(group, torus)
    assert report.all_equal
    assert group._elements is None
    assert list(group.elements) == closure_by_matrix_products(gens)
    assert group.elements is group.elements
    assert [group.element(i) for i in range(group.order)] == \
        list(group.elements)


def test_closure_multiplies_no_matrices(monkeypatch):
    def refuse(self, other):
        raise AssertionError("closure multiplied two matrices")

    gens = preset_generators("GL", 2, F3)
    monkeypatch.setattr(Matrix, "__mul__", refuse)
    assert closure(gens).order == gl_order(2, 3)


def _assert_products_match(group, pairs):
    # oracle: the product of the two matrices, looked up by its entries
    for i, j in pairs:
        expected = group.index_of(group.elements[i] * group.elements[j])
        assert group.mul(i, j) == expected, (i, j)


@pytest.mark.parametrize("kind,n,p,u", [("GL", 2, 3, 1), ("SL", 2, 3, 1),
                                        ("GL", 3, 2, 1), ("GL", 2, 2, 2)])
def test_product_kernel_every_pair(kind, n, p, u):
    group = _preset(kind, n, p, u)
    pairs = itertools.product(range(group.order), repeat=2)
    _assert_products_match(group, pairs)


@pytest.mark.parametrize("kind,n,p,u", [("SL", 2, 3, 2), ("GL", 3, 3, 1)])
def test_product_kernel_seeded_pairs(kind, n, p, u):
    group = _preset(kind, n, p, u)
    rng = random.Random(f"{kind}{n}{p}{u}")
    pairs = [(rng.randrange(group.order), rng.randrange(group.order))
             for _ in range(3000)]
    _assert_products_match(group, pairs)


def _assert_join_matches_closure(group, ids):
    # oracle: the closure of the same elements by matrix products, mapped
    # back by entries, so the join is not checked against the row-action
    # kernel it shares with ``closure``; the generators found by the join
    # must regenerate the subgroup
    sub = group.subgroup_closure(ids)
    oracle = closure_by_matrix_products([group.elements[i] for i in ids])
    assert sub.member_ids == {group.index_of(m) for m in oracle}, ids
    assert group.subgroup_closure(sub.generator_ids()) == sub, ids
    return sub


def test_join_every_pair_gl23(gl23):
    for i, j in itertools.combinations_with_replacement(range(gl23.order), 2):
        _assert_join_matches_closure(gl23, [i, j])


def test_join_seeded_sets_gl33():
    # elements come from the stabilizer of a line or of a plane (order 864
    # each), so the sets generate subgroups of many orders; drawn from all of
    # GL(3,3), most sets generate SL(3,3) or GL(3,3), and the matrix-level
    # oracle would take ~0.3 s for each of them
    group = _preset("GL", 3, 3)
    pools = [stabilizer(group, Subspace.from_vectors(F3, 3, rows)).ids
             for rows in ([[1, 0, 0]], [[1, 0, 0], [0, 1, 0]])]
    rng = random.Random("join-gl33")
    orders = set()
    for _ in range(200):
        pool = rng.choice(pools)
        ids = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        orders.add(_assert_join_matches_closure(group, ids).order)
    assert len(orders) > 10


def _refuse_cosets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a coset was grown")

    monkeypatch.setattr(GroupSet, "_grow_cosets", refuse)


def test_join_at_prime_index_returns_top_at_once(monkeypatch, gl23):
    # every pair K < T of GL(2,3) with [T:K] prime, joined with the least
    # element of T outside K: the join is T with no coset grown, and the
    # closure of K's generators and g by matrix products is T as well
    subs = overgroup_interval(gl23, gl23.trivial_subgroup())
    cases = []
    for k in subs:
        for t in subs:
            index = t.order // k.order
            if (k.member_ids < t.member_ids
                    and all(index % d for d in range(2, index))):
                g = min(t.member_ids - k.member_ids)
                cases.append((k, list(k.generator_ids()), t, g))
    assert len(cases) > 50
    _refuse_cosets(monkeypatch)
    for k, gens, t, g in cases:
        assert gl23._join(k.member_ids, gens, g,
                          t.member_ids) is t.member_ids
    monkeypatch.undo()
    for k, gens, t, g in cases:
        oracle = closure_by_matrix_products(
            [gl23.element(i) for i in (*gens, g)])
        assert {gl23.index_of(m) for m in oracle} == t.member_ids


def test_join_inside_k_or_at_composite_index_grows_cosets(monkeypatch,
                                                          gl23):
    # a g in K gives K back, also at prime index; a composite index [T:K]
    # still grows cosets up to Lagrange's bound
    grown = []
    grow = GroupSet._grow_cosets

    def counted(self, *args):
        grown.append(len(args[1]))
        return grow(self, *args)

    monkeypatch.setattr(GroupSet, "_grow_cosets", counted)
    sl = gl23.subgroup_closure(
        gl23.index_of(Matrix.from_rows(F3, rows))
        for rows in ([[1, 1], [0, 1]], [[1, 0], [1, 1]]))
    assert sl.order == 24
    gens = list(sl.generator_ids())
    grown.clear()
    for g in sl.ids:
        assert gl23._join(sl.member_ids, gens, g) == sl.member_ids
    assert len(grown) == sl.order
    grown.clear()
    trivial = frozenset((gl23.identity_index,))
    x = gl23.index_of(Matrix.from_rows(F3, [[1, 1], [0, 1]]))
    assert gl23._join(trivial, [], x) == {
        gl23.identity_index, x, gl23.mul(x, x)}
    assert grown == [1]


def test_query_builds_few_columns():
    # mu(Borel, GL(2,7)) multiplies by the Borel's generators and a few
    # coset representatives, so few of the 2016 row actions are built
    group = _preset("GL", 2, 7)
    f7 = group.field
    borel = group.subgroup_closure(
        group.index_of(Matrix.from_rows(f7, rows))
        for rows in ([[1, 1], [0, 1]], [[3, 0], [0, 1]], [[1, 0], [0, 3]]))
    assert mobius_between(group, borel, group.full_subgroup()) == -1
    built = sum(action is not None for action in group._actions)
    assert 0 < built < 64


def _assert_actions_read_the_matrices(group, ids, seed):
    """Each id's row action, taken on first use in shuffled order so that
    composition starts from different known ancestors, must be the one
    ``apply_row`` builds from its matrix; and the subspaces it fixes, read
    off that action, must be those both matrix oracles find."""
    ids = list(ids)
    random.Random(seed).shuffle(ids)
    field, n = group.field, group.n
    for j in ids:
        assert group._factor(j) == group_module._matrix_row_action(
            field, group._vectors, group._codes, group.element(j)), j
    for j in ids:
        m = group.element(j)
        fixed = list(_fixed_subspaces(group, j))
        assert fixed == invariant_subspaces([m], n, proper_nontrivial=True)
        assert fixed == invariant_subspaces_by_rref([m], n,
                                                    proper_nontrivial=True)


@pytest.mark.parametrize("kind,n,p,u", [
    ("GL", 2, 3, 1), ("SL", 2, 3, 1), ("GL", 3, 2, 1), ("GL", 2, 2, 2),
    ("GL", 2, 5, 1), ("GL", 1, 5, 1)])
def test_composed_row_actions_match_apply_row(kind, n, p, u):
    # a fresh group has no actions; all but the generators' are composed
    # along closure's tree
    group = _preset(kind, n, p, u)
    assert not any(group._actions)
    _assert_actions_read_the_matrices(group, range(group.order),
                                      f"actions-{kind}{n}{p}{u}")


def test_composed_row_actions_match_apply_row_gl33_sample():
    group = _preset("GL", 3, 3)
    rng = random.Random("actions-gl33")
    _assert_actions_read_the_matrices(
        group, rng.sample(range(group.order), 200), "actions-gl33")


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["GL", "SL"])
def test_slow_composed_row_actions_match_apply_row_n3(kind):
    group = _preset(kind, 3, 3)
    _assert_actions_read_the_matrices(group, range(group.order),
                                      f"actions-{kind}33")


def test_hand_built_group_builds_actions_from_matrices(monkeypatch, gl23):
    # a hand-built group records no closure tree, so every element but the
    # identity is a root whose action apply_row builds from its matrix
    group = GroupSet(F3, 2, gl23.elements, gl23.generators)
    built = []
    original = group_module._matrix_row_action
    monkeypatch.setattr(group_module, "_matrix_row_action",
                        lambda *args: built.append(args[-1]) or original(*args))
    for j in range(group.order):
        assert group._factor(j) == gl23._factor(j)
    assert built == [group.element(j) for j in range(group.order)
                     if j != group.identity_index]


def test_non_closed_element_set_raises():
    t = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    group = GroupSet(F3, 2, [Matrix.identity(F3, 2), t], [t])  # t^2 left out
    ti = group.index_of(t)
    assert group.mul(ti, group.identity_index) == ti
    with pytest.raises(NotASubgroup, match="not closed under product"):
        group.mul(ti, ti)
    assert group.right_images([ti, group.identity_index],
                              group.identity_index) == [ti, group.identity_index]
    with pytest.raises(NotASubgroup, match="not closed under product"):
        group.right_images([group.identity_index, ti], ti)
    # inv walks the powers of t, and t^2 is not in the set
    with pytest.raises(NotASubgroup, match="not closed under product"):
        group.inv(ti)
    # {1, 0} is closed, but the powers of 0 never return to the identity
    zero = Matrix.from_rows(F3, [[0, 0], [0, 0]])
    group = GroupSet(F3, 2, [Matrix.identity(F3, 2), zero], [zero])
    with pytest.raises(NotASubgroup, match="no inverse"):
        group.inv(group.index_of(zero))
    # four elements, t^2 left out: [top : 1] = 4, so Lagrange's stop would
    # fire only past two elements, and growing <t> reaches t*t first
    u = Matrix.from_rows(F3, [[2, 0], [0, 2]])
    group = GroupSet(F3, 2, [Matrix.identity(F3, 2), t, u, t * u], [t, u])
    with pytest.raises(NotASubgroup, match="not closed under product"):
        group._join(frozenset((group.identity_index,)), [],
                    group.index_of(t))


def test_right_images_match_mul_gl23():
    group = _preset("GL", 2, 3)
    ids = list(range(group.order))
    random.Random("images-gl23").shuffle(ids)
    for j in range(group.order):
        assert group.right_images(ids, j) == [group.mul(i, j) for i in ids]
        assert group.right_images(frozenset(ids[:7]), j) == \
            [group.mul(i, j) for i in frozenset(ids[:7])]


def test_right_images_match_mul_gl33(gl33):
    rng = random.Random("images-gl33")
    for _ in range(100):
        ids = [rng.randrange(gl33.order) for _ in range(rng.randint(0, 60))]
        j = rng.randrange(gl33.order)
        assert gl33.right_images(ids, j) == [gl33.mul(i, j) for i in ids]


def test_index_of_rejects_other_shape(gl22):
    with pytest.raises(AmbientMismatch):
        gl22.index_of(Matrix.identity(F2, 3))


def test_singular_generator_rejected():
    with pytest.raises(SingularGenerator):
        closure([Matrix.from_rows(F2, [[1, 1], [1, 1]])])


def test_order_cap():
    with pytest.raises(OrderCapExceeded,
                       match=r"^closure exceeded cap 3 elements: 4 found$"):
        closure([Matrix.from_rows(F2, [[1, 1], [0, 1]]),
                 Matrix.from_rows(F2, [[0, 1], [1, 0]])], cap=3)


def test_order_cap_boundary():
    gens = preset_generators("GL", 2, F3)
    assert closure(gens, cap=48).order == 48
    with pytest.raises(OrderCapExceeded, match=r"cap 47 elements: 48 found"):
        closure(gens, cap=47)


@pytest.mark.parametrize("n,q,order", [(1, 7, 6), (3, 3, 11232)],
                         ids=["GL(1,7)", "GL(3,3)"])
def test_order_cap_boundary_per_batch(n, q, order):
    # the cap is checked once per generator batch of a breadth-first level:
    # a cap of |G| passes, and one element less raises with the cap + 1
    # message; n = 1 keys are bare codes
    gens = preset_generators("GL", n, FqField(q))
    assert closure(gens, cap=order).order == order
    with pytest.raises(OrderCapExceeded,
                       match=rf"^closure exceeded cap {order - 1} elements: "
                             rf"{order} found$"):
        closure(gens, cap=order - 1)


def test_closure_of_repeated_generators_and_identity():
    # a repeated generator and the identity bring no new element: the
    # group, its ids and every row action are those of the plain list
    gens = preset_generators("GL", 2, F3)
    plain = closure(gens)
    padded = closure([gens[0], Matrix.identity(F3, 2), *gens, gens[-1]])
    assert padded.order == plain.order == 48
    assert padded._keys == plain._keys
    for j in range(padded.order):
        assert padded._factor(j) == plain._factor(j)
    assert list(padded.elements) == closure_by_matrix_products(gens)


def test_irreducibility(gl22):
    assert is_irreducible(gl22)
    diag = closure([Matrix.from_rows(F3, [[2, 0], [0, 1]])])
    assert not is_irreducible(diag)
    trivial = closure([Matrix.identity(F2, 2)])
    assert not is_irreducible(trivial)


def test_stabilizer_of_full_space(gl22):
    w = Subspace.full(F2, 2)
    assert stabilizer(gl22, w).order == gl22.order


def test_stabilizer_line_gl22(gl22):
    w = Subspace.from_vectors(F2, 2, [[1, 0]])
    stab = stabilizer(gl22, w)
    expected = {Matrix.identity(F2, 2), Matrix.from_rows(F2, [[1, 0], [1, 1]])}
    assert set(stab.matrices()) == expected


def test_stabilizer_line_gl23(gl23):
    w = Subspace.from_vectors(F3, 2, [[1, 0]])
    stab = stabilizer(gl23, w)
    assert stab.order == 12
    for m in stab.matrices():
        assert m.to_lists()[0][1] == 0  # row action fixes <e1>: lower triangular


def test_stabilizer_matches_image_filter(gl23):
    # oracle: the canonical image W*g compared with W, for every subspace
    for w in enumerate_subspaces(F3, 2):
        expected = {i for i, m in enumerate(gl23.elements) if w.apply(m) == w}
        assert stabilizer(gl23, w).member_ids == expected, w


def test_stabilizer_matches_element_filter_gl33(gl33):
    proper = [w for k in (1, 2) for w in enumerate_subspaces(F3, 3, k)]
    assert len(proper) == 26
    for w in proper:
        expected = stabilizer_by_element_filter(gl33, w)
        assert stabilizer(gl33, w).member_ids == expected, w


def test_stabilizer_matches_element_filter_sl29():
    group = _preset("SL", 2, 3, 2)
    lines = enumerate_subspaces(group.field, 2, 1)
    assert len(lines) == 10
    for w in lines:
        expected = stabilizer_by_element_filter(group, w)
        assert stabilizer(group, w).member_ids == expected, w


def test_stabilizer_rejects_generators_of_a_proper_subgroup(gl23):
    # the elements of GL(2,3), but generators that make only a C3
    t = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    group = GroupSet(F3, 2, gl23.elements, [t])
    for rows in ([[1, 0]], [[0, 1]]):  # orbits of size 3 and 1 under <t>
        with pytest.raises(NotASubgroup, match="do not generate"):
            stabilizer(group, Subspace.from_vectors(F3, 2, rows))


def test_stabilizer_applies_generators_per_orbit_point(monkeypatch, gl33):
    # a fresh GroupSet, so no stabilizer is cached
    group = GroupSet(F3, 3, gl33.elements, gl33.generators)
    calls = []
    apply = Subspace.apply
    monkeypatch.setattr(Subspace, "apply",
                        lambda w, m: calls.append(w) or apply(w, m))
    stab = stabilizer(group, Subspace.from_vectors(F3, 3, [[1, 0, 0]]))
    orbit = group.order // stab.order
    assert orbit == 13  # the lines of GF(3)^3
    assert 0 < len(calls) <= orbit * len(group.generators)


def test_stabilizer_contains_identity_and_closed(gl23):
    w = Subspace.from_vectors(F3, 2, [[1, 1]])
    stab = stabilizer(gl23, w)
    assert gl23.identity_index in stab.member_ids
    for i in stab.member_ids:
        for j in stab.member_ids:
            assert gl23.mul(i, j) in stab.member_ids


def test_interval_from_group_itself(gl22):
    full = gl22.full_subgroup()
    assert overgroup_interval(gl22, full) == [full]


def test_interval_gl22_from_trivial(gl22):
    subs = overgroup_interval(gl22, gl22.trivial_subgroup())
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]


def test_interval_above_c3(gl22):
    c3 = next(s for s in overgroup_interval(gl22, gl22.trivial_subgroup())
              if s.order == 3)
    assert [s.order for s in overgroup_interval(gl22, c3)] == [3, 6]


def test_interval_independent_of_generator_order():
    a = Matrix.from_rows(F2, [[1, 1], [0, 1]])
    b = Matrix.from_rows(F2, [[0, 1], [1, 0]])
    g1 = closure([a, b])
    g2 = closure([b, a])
    subs1 = overgroup_interval(g1, g1.trivial_subgroup())
    subs2 = overgroup_interval(g2, g2.trivial_subgroup())
    assert [s.ids for s in subs1] == [s.ids for s in subs2]


def test_interval_members_distinct_and_contain_low(gl23):
    torus = gl23.subgroup_closure([
        gl23.index_of(Matrix.from_rows(F3, [[2, 0], [0, 1]])),
        gl23.index_of(Matrix.from_rows(F3, [[1, 0], [0, 2]]))])
    subs = overgroup_interval(gl23, torus)
    ids = [s.member_ids for s in subs]
    assert len(ids) == len(set(ids))
    assert all(torus.member_ids <= s for s in ids)


def test_interval_matches_subset_filter(sl23):
    # closure-based enumeration agrees with filtering a full subgroup list
    all_subs = overgroup_interval(sl23, sl23.trivial_subgroup())
    assert len(all_subs) == 15  # 1 + C2 + 4*C3 + 3*C4 + 4*C6 + Q8 + G
    for low in all_subs:
        direct = overgroup_interval(sl23, low)
        filtered = [s for s in all_subs if low.member_ids <= s.member_ids]
        assert {s.member_ids for s in direct} == {s.member_ids for s in filtered}


def test_interval_cap():
    g = closure(list(
        map(lambda r: Matrix.from_rows(F3, r),
            [[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[2, 0], [0, 1]]])))
    with pytest.raises(IntervalTooLarge):
        overgroup_interval(g, g.trivial_subgroup(), cap=3)
    # GL(2,3) has 55 subgroups; the whole lattice adds a conjugacy class at
    # a time, so the cap must still hold at its exact boundary
    assert len(overgroup_interval(g, g.trivial_subgroup(), cap=55)) == 55
    with pytest.raises(IntervalTooLarge, match=r"cap 54 subgroups: 55 found"):
        overgroup_interval(g, g.trivial_subgroup(), cap=54)


def _from_rows(p, rows):
    return closure([Matrix.from_rows(FqField(p), m) for m in rows])


# name: (group builder, its order)
_LATTICE_GROUPS = {
    "GL(2,2)": (lambda: _preset("GL", 2, 2), 6),
    "GL(2,3)": (lambda: _preset("GL", 2, 3), 48),
    "SL(2,3)": (lambda: _preset("SL", 2, 3), 24),
    "GL(3,2)": (lambda: _preset("GL", 3, 2), 168),
    "SL(2,4)": (lambda: _preset("SL", 2, 2, 2), 60),
    "GL(2,4)": (lambda: _preset("GL", 2, 2, 2), 180),
    "GL(2,5)": (lambda: _preset("GL", 2, 5), 480),
    # generator lists as a --gens file gives them, not in the preset's
    # order: GL(2,3) with the diagonal generator first, and SL(2,5) from a
    # lower transvection, a Weyl element and the redundant -I
    "GL(2,3) reordered": (lambda: _from_rows(3, [
        [[2, 0], [0, 1]], [[0, 1], [2, 0]], [[1, 1], [0, 1]]]), 48),
    "SL(2,5) from rows": (lambda: _from_rows(5, [
        [[1, 0], [1, 1]], [[0, 4], [1, 0]], [[4, 0], [0, 4]]]), 120),
}


@pytest.mark.parametrize("name", list(_LATTICE_GROUPS))
def test_cyclic_extension_matches_coset_search(name):
    build, order = _LATTICE_GROUPS[name]
    g = build()
    assert g.order == order
    cap = group_module.INTERVAL_CAP
    by_classes = group_module._lattice_by_cyclic_extension(g, cap)
    by_cosets = group_module._interval_by_coset_search(
        g, g.trivial_subgroup(), frozenset(range(g.order)), cap)
    assert by_classes == by_cosets


def _record_extension_joins(monkeypatch):
    """Record (K, x) for every join <K, x> the extension loop makes from a
    queued representative K, the joins its witnesses decide included.  The
    joins ``_generate`` makes while building a normalizer are not
    recorded."""
    joins = []
    join = GroupSet._join

    def recording_join(self, members, gens, g, top=None,
                       reach=group_module._NO_WITNESSES):
        if sys._getframe(1).f_code.co_name == "_lattice_by_cyclic_extension":
            joins.append((members, g))
        return join(self, members, gens, g, top, reach)

    monkeypatch.setattr(GroupSet, "_join", recording_join)
    return joins


def _record_normalizers(monkeypatch):
    """Record {K: N_G(K) member ids} for every class representative K whose
    class and normalizer the extension loop builds (all but K = 1)."""
    normalizers = {}
    orbit_stabilizer = group_module._orbit_stabilizer

    def recording(group, point, moves, noun):
        orbit, ids, gens = orbit_stabilizer(group, point, moves, noun)
        normalizers[point] = ids
        return orbit, ids, gens

    monkeypatch.setattr(group_module, "_orbit_stabilizer", recording)
    return normalizers


def _conjugation_permutations(g):
    """perms[x][i] = id of x^-1 * g_i * x, by matrix products."""
    out = []
    for x in g.elements:
        x_inv = x.inverse()
        out.append([g.index_of(x_inv * m * x) for m in g.elements])
    return out


def _cyclic_prime_power_subgroups(g):
    """Member sets of the non-trivial cyclic subgroups of prime-power
    order, from the powers of each element by matrix products."""
    found = set()
    for x in g.elements:
        powers = [x]
        while powers[-1] != g.elements[g.identity_index]:
            powers.append(powers[-1] * x)
        order = len(powers)
        if order > 1:
            # order is a prime power iff its least divisor p > 1 is its
            # only prime divisor
            p = next(d for d in range(2, order + 1) if order % d == 0)
            while order % p == 0:
                order //= p
            if order == 1:
                found.add(frozenset(map(g.index_of, powers)))
    return found


def test_cyclic_extension_queues_one_subgroup_per_class(monkeypatch, gl23,
                                                       sl23):
    # oracle: conjugacy classes of subgroups from matrix conjugation by
    # every element of G
    joins = _record_extension_joins(monkeypatch)
    for g in (gl23, sl23):
        joins.clear()
        lattice = group_module._lattice_by_cyclic_extension(
            g, group_module.INTERVAL_CAP)
        queued = {k for k, _ in joins}

        def class_of(members):
            return frozenset(
                frozenset(g.index_of(x.inverse() * g.elements[i] * x)
                          for i in members)
                for x in g.elements)

        # G contains every cyclic subgroup, so it is queued but never joined
        classes = {class_of(k) for k in lattice if len(k) < g.order}
        assert all(k in lattice for c in classes for k in c)
        assert queued <= lattice
        assert {class_of(k) for k in queued} == classes
        assert len(queued) == len(classes)


@pytest.mark.parametrize("name", ["GL(2,3)", "SL(2,3)", "GL(3,2)"])
def test_cyclic_extension_normalizers_and_orbit_joins(monkeypatch, name):
    # oracles by matrix conjugation: N_G(K) = {x : K^x = K}, and the
    # N_G(K)-orbits on the prime-power cyclic subgroups outside K
    build, _ = _LATTICE_GROUPS[name]
    g = build()
    joins = _record_extension_joins(monkeypatch)
    normalizers = _record_normalizers(monkeypatch)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    trivial = frozenset((g.identity_index,))
    full = frozenset(range(g.order))
    joined_from = collections.Counter(k for k, _ in joins)
    # every representative but 1 has its normalizer built; every one but G
    # is joined from
    reps = set(normalizers) | {trivial}
    assert reps == set(joined_from) | {full}
    assert reps <= lattice
    perms = _conjugation_permutations(g)
    cyclics = _cyclic_prime_power_subgroups(g)
    for k in reps:
        normalizer = frozenset(
            x for x, perm in enumerate(perms)
            if frozenset(map(perm.__getitem__, k)) == k)
        if k != trivial:
            assert normalizers[k] == normalizer, sorted(k)
        orbits = {frozenset(frozenset(map(perms[x].__getitem__, c))
                            for x in normalizer)
                  for c in cyclics if not c <= k}
        assert joined_from[k] == len(orbits), sorted(k)


def test_cyclic_extension_normalizer_fails_closed(monkeypatch, gl23):
    # a Schreier join that loses its generators: |N_G(K)| * |class| is then
    # not |G| for the first new class, and the lattice is not returned
    monkeypatch.setattr(
        GroupSet, "_generate",
        lambda self, ids: (frozenset((self.identity_index,)), []))
    with pytest.raises(NotASubgroup, match="conjugate subgroups"):
        group_module._lattice_by_cyclic_extension(
            gl23, group_module.INTERVAL_CAP)


def _bit_set(bits):
    return {x for x in range(bits.bit_length()) if bits >> x & 1}


def test_member_bits_hold_exactly_the_member_ids(gl23, gl25):
    # GL(2,3) has 48 elements over 6 bytes, GL(2,5) 480 over 60; the whole
    # group holds the top id, and the ids 7 and 8 lie across a byte boundary
    for g in (gl23, gl25):
        subs = overgroup_interval(g, g.trivial_subgroup())
        for k in subs:
            assert _bit_set(k.member_bits) == k.member_ids
            assert k.member_bits is k.member_bits
        full = g.full_subgroup()
        assert full.member_bits == (1 << g.order) - 1
        assert full.member_bits >> (g.order - 1) == 1
        for seeds in ([7], [8], [7, 8], [g.order - 1]):
            k = g.subgroup_closure(seeds)
            assert _bit_set(k.member_bits) == k.member_ids


def test_subgroup_equality_by_members(gl23):
    # one full ref per group; equal refs with distinct member sets compare
    # by their bits, so a fresh handle still finds a lattice item
    assert gl23.full_subgroup() is gl23.full_subgroup()
    subs = overgroup_interval(gl23, gl23.trivial_subgroup())
    lattice = {k: i for i, k in enumerate(subs)}
    for i, k in enumerate(subs):
        fresh = gl23.subgroup(set(k.member_ids))
        assert fresh.member_ids is not k.member_ids
        assert fresh == k and k == fresh and lattice[fresh] == i
        assert all(fresh != other for other in subs[:i] + subs[i + 1:])
    assert gl23.full_subgroup() == subs[-1]
    # a different order decides without building either side's bits
    fresh = gl23.subgroup(set(subs[1].member_ids))
    assert all(fresh != k and k != fresh
               for k in subs if k.order != fresh.order)
    assert fresh._bits is None
    assert gl23.trivial_subgroup() != gl23.full_subgroup()
    assert gl23.trivial_subgroup() != gl23.trivial_subgroup().member_ids


def test_cyclic_extension_matches_unpruned_gl25():
    g = _preset("GL", 2, 5)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    assert len(lattice) == 466
    assert lattice == lattice_by_unpruned_cyclic_extension(g)


@pytest.mark.slow
@pytest.mark.parametrize("kind,p,u", [("GL", 7, 1), ("GL", 2, 3),
                                      ("SL", 3, 2)],
                         ids=["GL(2,7)", "GL(2,8)", "SL(2,9)"])
def test_slow_cyclic_extension_matches_unpruned(kind, p, u):
    g = _preset(kind, 2, p, u)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    assert lattice == lattice_by_unpruned_cyclic_extension(g)


def _assert_intervals_match_lattice_filter(g):
    # oracle: {K : H <= K <= M} filtered out of the whole lattice, for every
    # nested pair H <= M; returns the number of pairs
    lattice = overgroup_interval(g, g.trivial_subgroup())
    pairs = 0
    for h in lattice:
        for m in lattice:
            if h <= m:
                expected = [k for k in lattice if h <= k <= m]
                assert overgroup_interval(g, h, top=m) == expected, (h, m)
                pairs += 1
    return pairs


# (kind, n, p): nested pairs H <= M of the group's lattice
_NESTED_PAIRS = {("GL", 2, 3): 365, ("SL", 2, 3): 57, ("GL", 3, 2): 1445,
                 ("SL", 2, 5): 465}


@pytest.mark.parametrize("kind,n,p", list(_NESTED_PAIRS))
def test_interval_within_every_top_matches_lattice_filter(kind, n, p):
    # the coset search stops a join at |M|/p elements and skips whole
    # double cosets; neither may change which subgroups it finds
    pairs = _assert_intervals_match_lattice_filter(_preset(kind, n, p))
    assert pairs == _NESTED_PAIRS[kind, n, p]


def test_interval_within_every_top_row_action_path():
    # every product of the search comes from the row actions, built on
    # first use; a fresh group starts with none of them
    g = _preset("GL", 3, 2)
    assert not any(g._actions)
    assert _assert_intervals_match_lattice_filter(g) == 1445
    assert any(g._actions)


def test_interval_search_joins_few_subgroups(monkeypatch, gl33):
    # [diagonal torus, Stab(<e1>)] in GL(3,3): 16 subgroups.  Joining with
    # one element per right coset, and growing every join to the end, took
    # 383 joins, and the Lagrange stop with double-coset covering 92.
    # Covering all of <K, g> at prime index and the double cosets of g's
    # other generators leave 72, three of them for the torus's generators
    torus = gl33.subgroup_closure(
        gl33.index_of(Matrix.from_rows(F3, rows)) for rows in (
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    stab = stabilizer(gl33, Subspace.from_vectors(F3, 3, [[1, 0, 0]]))
    joins = []
    join = GroupSet._join

    def counting_join(self, *args):
        joins.append(args)
        return join(self, *args)

    monkeypatch.setattr(GroupSet, "_join", counting_join)
    assert len(overgroup_interval(gl33, torus, top=stab)) == 16
    assert len(joins) == 72


# the five subgroups H of GL(3,3) of the ideal-gl33 benchmark workload, by
# their generators; their distinct stabilizers M give 14 intervals [H, M]
_T = [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
      [[1, 0, 0], [0, 1, 0], [0, 0, 2]]]
_E12 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
_E23 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
_GL33_SUBGROUPS = [
    _T + [_E12, _E23],
    [_E12, [[0, 1, 0], [2, 0, 0], [0, 0, 1]], _T[0]],
    _T + [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
    _T,
    [_E12, _E23],
]


def _assert_search_matches_unpruned(group, low, top_ids):
    found = group_module._interval_by_coset_search(
        group, low, top_ids, group_module.INTERVAL_CAP)
    assert found == interval_by_unpruned_coset_search(group, low, top_ids)
    return len(found)


def test_interval_search_matches_unpruned_gl33(gl33):
    pairs = 0
    for gens in _GL33_SUBGROUPS:
        h = gl33.subgroup_closure(
            gl33.index_of(Matrix.from_rows(F3, rows)) for rows in gens)
        for m in stabilizer_family(gl33, h).distinct_stabilizers:
            _assert_search_matches_unpruned(gl33, h, m.member_ids)
            pairs += 1
    assert pairs == 14


def test_interval_search_matches_unpruned_gl27():
    # [reflection, GL(2,7)]: top is G but low is not 1, so the search runs
    f7 = FqField(7)
    g = closure(preset_generators("GL", 2, f7))
    h = g.subgroup_closure([g.index_of(Matrix.from_rows(f7, [[6, 0],
                                                             [0, 1]]))])
    assert _assert_search_matches_unpruned(g, h, g._full) == 76


class _Witnesses(set):
    """A join's witness set that logs each witness a membership test meets:
    a met witness decides the join."""

    def __init__(self, items, log, members, gens, top):
        super().__init__(items)
        self.log, self.join = log, (members, tuple(gens), top)

    def __contains__(self, r):
        hit = set.__contains__(self, r)
        if hit:
            self.log.add((*self.join, r))
        return hit


def _record_decided_joins(monkeypatch):
    """Record (K, K's generators, top, r) for every join that a witness r
    decides."""
    decided = set()
    join = GroupSet._join

    def recording_join(self, members, gens, g, top=None,
                       reach=group_module._NO_WITNESSES):
        if reach:
            reach = _Witnesses(reach, decided, members, gens, top)
        return join(self, members, gens, g, top, reach)

    monkeypatch.setattr(GroupSet, "_join", recording_join)
    return decided


def _assert_witnesses_sound(group, decided):
    # every decision checked by a join with no witnesses, stopped only by
    # Lagrange's bound inside G: <K, r> must be the top it was taken for
    for members, gens, top, r in decided:
        top = group._full if top is None else top
        assert GroupSet._join(group, members, list(gens), r) == top


def _assert_walk_witnesses_sound(monkeypatch, g):
    # returns the decided joins, each checked against a join inside G
    decided = _record_decided_joins(monkeypatch)
    group_module._lattice_by_cyclic_extension(g, group_module.INTERVAL_CAP)
    monkeypatch.undo()
    assert decided
    _assert_witnesses_sound(g, decided)
    return decided


@pytest.mark.parametrize("name", ["GL(2,3)", "SL(2,3)", "GL(3,2)",
                                  "GL(2,5)"])
def test_cyclic_extension_witnesses_generate_g(monkeypatch, name):
    # each representative merges its witness lists into sets of its own: a
    # walk that shares one merge memo across representatives grows a set
    # that siblings hold too, and GL(2,5) then decides a join by an element
    # r with <K, r> != G.  Witnesses are kept under every bound, not only
    # G: on GL(2,5) some decided joins end at a proper subgroup
    build, _ = _LATTICE_GROUPS[name]
    g = build()
    decided = _assert_walk_witnesses_sound(monkeypatch, g)
    if name == "GL(2,5)":
        assert any(top is not None and len(top) < g.order
                   for _, _, top, _ in decided)


@pytest.mark.slow
def test_slow_cyclic_extension_witnesses_sound_gl27(monkeypatch):
    g = _preset("GL", 2, 7)
    decided = _assert_walk_witnesses_sound(monkeypatch, g)
    assert any(top is not None and len(top) < g.order
               for _, _, top, _ in decided)


def test_coset_search_witnesses_generate_their_bound(monkeypatch, gl33):
    # the 14 intervals of the ideal-gl33 workload's five subgroups, and
    # [Borel, GL(2,7)] and [reflection, GL(2,7)]
    f7 = FqField(7)
    gl27 = closure(preset_generators("GL", 2, f7))
    borel = stabilizer(gl27, Subspace.from_vectors(f7, 2, [[1, 0]]))
    reflection = gl27.subgroup_closure(
        [gl27.index_of(Matrix.from_rows(f7, [[6, 0], [0, 1]]))])
    intervals = [(gl27, borel, gl27._full), (gl27, reflection, gl27._full)]
    for gens in _GL33_SUBGROUPS:
        h = gl33.subgroup_closure(
            gl33.index_of(Matrix.from_rows(F3, rows)) for rows in gens)
        intervals.extend(
            (gl33, h, m.member_ids)
            for m in stabilizer_family(gl33, h).distinct_stabilizers)
    assert len(intervals) == 16
    decided = {}
    for g, low, top_ids in intervals:
        log = _record_decided_joins(monkeypatch)
        group_module._interval_by_coset_search(
            g, low, top_ids, group_module.INTERVAL_CAP)
        monkeypatch.undo()
        decided.setdefault(g, set()).update(log)
    assert all(decided.values())
    for g, log in decided.items():
        _assert_witnesses_sound(g, log)


def _assert_planted_witness_loses_subgroups(monkeypatch, g, proper_top):
    # mutation check: one element r with <K, r> != T planted in the walk's
    # witnesses for the join's bound T (K = 1, r of prime order, so <r> is
    # reached from 1 only) must lose a class, and the unpruned oracle must
    # see it; with proper_top, only under a bound T < G
    expected = lattice_by_unpruned_cyclic_extension(g)
    join = GroupSet._join
    planted = []

    def planting_join(self, members, gens, x, top=None,
                      reach=group_module._NO_WITNESSES):
        bound = self.order if top is None else len(top)
        if (not planted and len(members) == 1
                and (bound < self.order or not proper_top)
                and sys._getframe(1).f_code.co_name
                == "_lattice_by_cyclic_extension"):
            order = len(join(self, members, gens, x))
            if 1 < order < bound and all(order % d for d in range(2, order)):
                planted.append(x)
                reach = set(reach) | {x}
        return join(self, members, gens, x, top, reach)

    monkeypatch.setattr(GroupSet, "_join", planting_join)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    assert len(planted) == 1
    assert lattice < expected


def test_cyclic_extension_false_witness_loses_subgroups(monkeypatch):
    _assert_planted_witness_loses_subgroups(
        monkeypatch, _preset("GL", 2, 3), proper_top=False)


def test_cyclic_extension_false_proper_witness_loses_subgroups(monkeypatch):
    _assert_planted_witness_loses_subgroups(
        monkeypatch, _preset("GL", 2, 5), proper_top=True)


def _classes_by_matrix_conjugation(g, lattice):
    """The conjugacy classes of the member sets in ``lattice``, as a set of
    frozensets, by conjugating member sets with matrix products."""
    conjugations = []
    for m in g.generators:
        m_inv = m.inverse()
        conjugations.append([g.index_of(m_inv * e * m) for e in g.elements])
    classes, seen = set(), set()
    for k in lattice:
        if k in seen:
            continue
        orbit = [k]
        seen.add(k)
        for sub in orbit:
            for conj in conjugations:
                image = frozenset(map(conj.__getitem__, sub))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        classes.add(frozenset(orbit))
    return classes


def test_cyclic_extension_walk_grows_pinned_products_gl25(monkeypatch):
    # the element products the walk's extension joins grow as new cosets,
    # counted, not timed: witnesses under every bound and the largest
    # representative first keep it at 19,350.  The order of the walk must
    # not change what it records: the trivial class first, and the class
    # orbits of the lattice
    g = _preset("GL", 2, 5)
    grown = []
    grow = GroupSet._grow_cosets

    def counted(self, cosets, seen, factors, bound,
                reach=group_module._NO_WITNESSES):
        before = len(seen)
        stop = grow(self, cosets, seen, factors, bound, reach)
        if (sys._getframe(2).f_code.co_name
                == "_lattice_by_cyclic_extension"):
            grown.append(len(seen) - before)
        return stop

    monkeypatch.setattr(GroupSet, "_grow_cosets", counted)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    monkeypatch.undo()
    assert sum(grown) == 19_350
    assert g._classes[0] == (frozenset((g.identity_index,)),)
    assert ({frozenset(orbit) for orbit in g._classes}
            == _classes_by_matrix_conjugation(g, lattice))


def _record_bounded_joins(monkeypatch):
    """Record (K, K's generators, x, top, <K, x>) for every extension join
    that the walk runs inside a proper subgroup top, the joins its
    witnesses decide included."""
    bounded = []
    join = GroupSet._join

    def recording_join(self, members, gens, g, top=None,
                       reach=group_module._NO_WITNESSES):
        extended = join(self, members, gens, g, top, reach)
        if (top is not None and len(top) < self.order
                and sys._getframe(1).f_code.co_name
                == "_lattice_by_cyclic_extension"):
            bounded.append((members, tuple(gens), g, top, extended))
        return extended

    monkeypatch.setattr(GroupSet, "_join", recording_join)
    return bounded


def _assert_bounded_joins_exact(monkeypatch, g):
    # every bound holds K and x, so <K, x> lies in it; checked against a
    # join inside G with no witnesses, stopped only by Lagrange's bound
    bounded = _record_bounded_joins(monkeypatch)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    monkeypatch.undo()
    assert bounded
    for members, gens, x, top, extended in bounded:
        assert members < top and x in top
        assert extended <= top and extended in lattice
        assert GroupSet._join(g, members, list(gens), x) == extended
    # some joins return their bound, a subgroup already known: Lagrange's
    # stop ends them at |top|/p elements instead of walking all of it
    assert any(extended == top for *_, top, extended in bounded)


@pytest.mark.parametrize("kind,n,p", [
    ("GL", 2, 3), ("SL", 2, 3), ("GL", 3, 2), ("GL", 2, 5), ("GL", 2, 7),
    pytest.param("SL", 3, 3, marks=pytest.mark.slow)],
    ids=["GL(2,3)", "SL(2,3)", "GL(3,2)", "GL(2,5)", "GL(2,7)",
         "slow-SL(3,3)"])
def test_cyclic_extension_bounds_hold_the_join(monkeypatch, kind, n, p):
    _assert_bounded_joins_exact(monkeypatch, _preset(kind, n, p))


def test_cyclic_extension_bound_without_x_loses_subgroups(monkeypatch):
    # mutation check: a lookup that returns a known proper overgroup of K
    # lacking x, whenever K has one, stops joins at that subgroup's bound;
    # the walk must then lose subgroups, and the unpruned oracle must see it
    g = _preset("GL", 2, 5)
    expected = lattice_by_unpruned_cyclic_extension(g)
    least_holding = group_module._least_holding
    planted = []

    def planting_lookup(above, x):
        wrong = next((s for s in above if x not in s and len(s) < g.order),
                     None)
        if wrong is None:
            return least_holding(above, x)
        planted.append(wrong)
        return wrong

    monkeypatch.setattr(group_module, "_least_holding", planting_lookup)
    lattice = group_module._lattice_by_cyclic_extension(
        g, group_module.INTERVAL_CAP)
    assert planted
    assert lattice < expected


def _orbits_by_conjugating_member_sets(g, gens, cyclic):
    """The orbits of <gens> on the cyclic subgroups <cyclic[c]>, as sets of
    positions, by conjugating member sets with matrix products."""
    identity = g.elements[g.identity_index]
    members = []
    for x in cyclic:
        powers, y = [], g.elements[x]
        while True:
            powers.append(g.index_of(y))
            if y == identity:
                break
            y = y * g.elements[x]
        members.append(frozenset(powers))
    position = {m: c for c, m in enumerate(members)}
    conjugations = []
    for s in gens:
        m, m_inv = g.elements[s], g.elements[s].inverse()
        conjugations.append([g.index_of(m_inv * e * m) for e in g.elements])
    orbits = set()
    for c, m in enumerate(members):
        orbit, frontier = {c}, [m]
        for sub in frontier:
            for conj in conjugations:
                d = position[frozenset(map(conj.__getitem__, sub))]
                if d not in orbit:
                    orbit.add(d)
                    frontier.append(members[d])
        orbits.add(frozenset(orbit))
    return orbits


def _record_orbit_generators(monkeypatch):
    """Record every generator list the walk hands to ``_cyclic_orbits``."""
    lists = []
    cyclic_orbits = group_module._cyclic_orbits

    def recording(group, gens, cyclic, cyc_of, perm_of):
        lists.append(list(gens))
        return cyclic_orbits(group, gens, cyclic, cyc_of, perm_of)

    monkeypatch.setattr(group_module, "_cyclic_orbits", recording)
    return lists


@pytest.mark.parametrize("name", ["GL(2,2)", "GL(2,3)", "SL(2,3)",
                                  "GL(3,2)", "GL(2,5)"])
def test_cyclic_orbits_match_conjugated_member_sets(monkeypatch, name):
    build, _ = _LATTICE_GROUPS[name]
    g = build()
    lists = _record_orbit_generators(monkeypatch)
    group_module._lattice_by_cyclic_extension(g, group_module.INTERVAL_CAP)
    monkeypatch.undo()
    # the walk's first list is G's own generators; N_G(K)'s follow
    generator_ids = [g.index_of(m) for m in g.generators]
    assert lists[0] == generator_ids and len(lists) > 1
    generators_of, cyc_of = group_module._prime_power_cyclic_generators(g)
    cyclic = [gens[0] for gens in generators_of]
    for gens in lists + [[]]:
        got = group_module._cyclic_orbits(g, gens, cyclic, cyc_of, {})
        assert ({frozenset(orbit) for orbit in got}
                == _orbits_by_conjugating_member_sets(g, gens, cyclic))
        assert sum(map(len, got)) == len(cyclic)
        leaders = [orbit[0] for orbit in got]
        assert leaders == [min(orbit) for orbit in got]
        assert leaders == sorted(leaders)


@pytest.mark.slow
def test_slow_interval_search_matches_unpruned_reflection_gl33(gl33):
    # the ten intervals [H, M] of scripts/slow_instance.py, H = GL(1,3) + I_2:
    # M is the stabilizer of <e1>, of <e2, e3>, of one of the four lines
    # inside <e2, e3> or of one of the four planes through <e1>
    h = gl33.subgroup_closure([gl33.index_of(Matrix.from_rows(
        F3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))])
    stabs = stabilizer_family(gl33, h).distinct_stabilizers
    assert len(stabs) == 10
    for m in stabs:
        _assert_search_matches_unpruned(gl33, h, m.member_ids)


@pytest.mark.slow
@pytest.mark.parametrize("kind,n,p,u,size", [("GL", 2, 7, 1, 1704),
                                           ("SL", 2, 3, 2, 588),
                                           ("SL", 3, 3, 1, 6374),
                                           ("GL", 2, 3, 2, 4534)])
def test_slow_lattice_sizes(kind, n, p, u, size):
    g = _preset(kind, n, p, u)
    start = time.perf_counter()
    subs = overgroup_interval(g, g.trivial_subgroup())
    print(f"{kind}({n},{p ** u}): {len(subs)} subgroups in "
          f"{time.perf_counter() - start:.1f} s")
    assert len(subs) == size


@pytest.mark.slow
@pytest.mark.parametrize("kind,n,p,size,classes", [("GL", 3, 3, 21731, 154),
                                                   ("GL", 4, 2, 48337, 137)],
                         ids=["GL(3,3)", "GL(4,2)"])
def test_slow_lattice_class_counts(kind, n, p, size, classes):
    # GL(4,2) is A8, with 48,337 subgroups in 137 classes (OEIS A029725);
    # the GL(3,3) counts are a regression pin.  Read off the walk alone: no
    # order build and no meet certificate
    g = _preset(kind, n, p)
    start = time.perf_counter()
    subs = overgroup_interval(g, g.trivial_subgroup())
    print(f"{kind}({n},{p}): {len(subs)} subgroups in {len(g._classes)} "
          f"classes in {time.perf_counter() - start:.1f} s")
    assert (len(subs), len(g._classes)) == (size, classes)


def _sp42():
    # Sp(4,2), closed from its 15 symplectic transvections x -> x + B(x, v) v
    # of GF(2)^4, B(x, y) = x1 y3 + x2 y4 + x3 y1 + x4 y2: the matrix is
    # I + (J v^T) v, J v^T = (v3, v4, v1, v2)
    gens = []
    for v in itertools.product(range(2), repeat=4):
        if any(v):
            jv = v[2:] + v[:2]
            gens.append(Matrix.from_rows(F2, [
                [int(i == j) ^ (jv[i] & v[j]) for j in range(4)]
                for i in range(4)]))
    return closure(gens)


# name: (group builder, order, subgroups, conjugacy classes of subgroups)
_CLASS_COUNTS = {
    "SL(2,4)": (lambda: _preset("SL", 2, 2, 2), 60, 59, 9),     # A5
    "GL(3,2)": (lambda: _preset("GL", 3, 2), 168, 179, 15),     # PSL(2,7)
    "Sp(4,2)": (_sp42, 720, 1455, 56),                           # S6
}


@pytest.mark.parametrize("name", list(_CLASS_COUNTS))
def test_lattice_records_published_class_counts(name):
    # the published subgroup and class counts of A5, PSL(2,7) and S6 (OEIS
    # A005432 for S6), read off the class orbits the walk records
    build, order, size, classes = _CLASS_COUNTS[name]
    g = build()
    assert g.order == order
    subs = overgroup_interval(g, g.trivial_subgroup())
    assert (len(subs), len(g._classes)) == (size, classes)
    # the orbits partition the lattice: each subgroup in exactly one
    assert collections.Counter(
        k for orbit in g._classes for k in orbit) == collections.Counter(
        k.member_ids for k in subs)
    for orbit in g._classes:
        assert len({len(k) for k in orbit}) == 1
        assert order % len(orbit) == 0
    lattice = subgroup_lattice(subs)
    certify_meets(g, lattice, _holders(lattice.items))
    assert g._meet_closed is lattice


def test_interval_within_top(gl23):
    w = Subspace.from_vectors(F3, 2, [[1, 0]])
    borel = stabilizer(gl23, w)
    h = gl23.subgroup_closure(
        [gl23.index_of(Matrix.from_rows(F3, [[2, 0], [0, 1]]))])
    inside = overgroup_interval(gl23, h, top=borel)
    assert all(s.member_ids <= borel.member_ids for s in inside)
    assert sorted(s.order for s in inside) == [2, 4, 6, 12]


def test_subgroup_validation(gl22):
    order3 = next(i for i in range(gl22.order)
                  if gl22.subgroup_closure([i]).order == 3)
    with pytest.raises(ValueError):
        gl22.subgroup(frozenset({gl22.identity_index, order3}))
    no_identity = frozenset({order3})
    with pytest.raises(ValueError):
        gl22.subgroup(no_identity)
    assert gl22.subgroup(gl22.subgroup_closure([order3]).member_ids).order == 3


def _permutations(group, points):
    return {tuple(points.index(w.apply(m)) for w in points)
            for m in group.elements}


def test_action_on_lines_is_full_symmetric(gl22):
    # faithful on 3 points: all of Sym(3)
    assert len(_permutations(gl22, sorted_lines(F2, 2))) == 6


def test_action_of_trivial_group():
    g = closure([Matrix.identity(F2, 2)])
    assert _permutations(g, sorted_lines(F2, 2)) == {(0, 1, 2)}


def test_action_single_fixed_point(gl22):
    assert _permutations(gl22, [Subspace.full(F2, 2)]) == {(0,)}


def test_subset_sums_empty_points(gl22):
    assert naive_subset_sums(gl22, gl22.trivial_subgroup(), []) == (1, 1)


def test_subset_sums_three_lines(gl22):
    assert naive_subset_sums(gl22, gl22.trivial_subgroup(),
                             line_stabilizers(gl22)) == (-2, -2)


def test_subset_sums_when_all_stabilizers_equal_base(gl22):
    stab = line_stabilizers(gl22)[0]
    assert naive_subset_sums(gl22, gl22.subgroup(stab), [stab]) == (1, 1)


def test_subset_sums_random_instances(gl22, gl23, sl23):
    # seeded sweep over the stabilizers of random sets of lines
    rng = random.Random(20240)
    groups = [gl22, gl23, sl23]
    line_stabs = {id(g): line_stabilizers(g) for g in groups}
    checked = 0
    while checked < 100:
        group = rng.choice(groups)
        stabs = line_stabs[id(group)]
        k = rng.randint(0, len(stabs))
        chosen = sorted(rng.sample(range(len(stabs)), k))
        inter = frozenset(range(group.order))
        for p in chosen:
            inter &= stabs[p]
        members = sorted(inter)
        seed_count = rng.randint(0, min(2, len(members)))
        seeds = rng.sample(members, seed_count)
        base = group.subgroup_closure(seeds)
        if not base.member_ids <= inter:
            continue
        stab_sum, point_sum = naive_subset_sums(
            group, base, [stabs[p] for p in chosen])
        assert stab_sum == point_sum
        checked += 1


@pytest.mark.parametrize("size", range(13))
def test_alternating_subset_cancellation_bruteforce(size):
    # nonempty ground sets cancel: sum over subsets of (-1)^|S| is zero
    total = 0
    for r in range(size + 1):
        total += sum((-1) ** r for _ in itertools.combinations(range(size), r))
    assert total == (1 if size == 0 else 0)


@pytest.mark.parametrize("size", range(1, 21))
def test_alternating_subset_cancellation_binomial(size):
    assert sum((-1) ** k * math.comb(size, k) for k in range(size + 1)) == 0


def _assert_generators_read_off_lattice(group):
    # store_greedy_generators, on fresh handles of the whole lattice, stores
    # on every item the greedy set that the joins inside G find
    subs = overgroup_interval(group, group.trivial_subgroup())
    lattice = subgroup_lattice(SubgroupRef(group, k.member_ids) for k in subs)
    store_greedy_generators(lattice, _holders(lattice.items))
    for k in lattice.items:
        assert k._gens == tuple(group._generate(k.ids)[1])


def test_generators_joined_inside_the_subgroup(corpus, gl25):
    # generator_ids runs each greedy join inside H rather than G; Lagrange's
    # stop then fires at |H|/p, and the joins find the same generators, as
    # does verify's read of them off the whole lattice
    for group in [g for _, g, _ in corpus] + [gl25]:
        for k in overgroup_interval(group, group.trivial_subgroup()):
            assert k.generator_ids() == tuple(group._generate(k.ids)[1])
        _assert_generators_read_off_lattice(group)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["SL", "GL"], ids=["SL(3,3)", "GL(3,3)"])
def test_slow_generators_read_off_lattice_n3(kind):
    _assert_generators_read_off_lattice(_preset(kind, 3, 3))
