import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobius_lattice.errors import InvalidOrderRelation, PowersetTooLarge
from mobius_lattice.poset import FinitePoset, mobius_row

from helpers import (
    BoundedPoset,
    CoatomsNotCovered,
    NotALattice,
    TopInX,
    adjoin_bounds,
    coatoms,
    crosscut_sum,
    dump,
    leq,
    lt,
    mobius,
    mobius_by_zeta_inversion,
    moebius_number_theoretic,
    random_lattice,
    random_poset,
    to_row,
)


def chain(n):
    return FinitePoset.from_leq(list(range(n)), lambda a, b: a <= b)


def boolean_lattice(m):
    items = list(range(1 << m))
    return FinitePoset.from_leq(items, lambda a, b: a & b == a)


def divisor_lattice(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return FinitePoset.from_leq(divisors, lambda a, b: b % a == 0)


def test_mobius_three_chain():
    p = chain(3)
    t = mobius(p)
    assert t.mu(0, 1) == -1
    assert t.mu(0, 2) == 0
    assert t.mu(1, 0) == 0


def test_mobius_boolean_b2():
    p = boolean_lattice(2)
    t = mobius(p)
    assert t.mu_items(0, 3) == 1


def test_mobius_divisor_lattice_of_12():
    p = divisor_lattice(12)
    t = mobius(p)
    assert t.mu_items(1, 12) == 0 == moebius_number_theoretic(12)


@pytest.mark.parametrize("n", range(1, 61))
def test_divisor_lattice_matches_number_theory(n):
    p = divisor_lattice(n)
    assert mobius(p).mu_items(1, n) == moebius_number_theoretic(n)


def test_row_sum_identity_exhaustive():
    rng = random.Random(99)
    for _ in range(30):
        p = random_poset(rng, 8)
        t = mobius(p)
        for i in range(p.size):
            for j in range(p.size):
                if lt(p, i, j):
                    total = sum(t.mu(i, k) for k in range(p.size)
                                if leq(p, i, k) and leq(p, k, j))
                    assert total == 0
                if not leq(p, i, j):
                    assert t.mu(i, j) == 0
                if i == j:
                    assert t.mu(i, j) == 1


def test_recursion_vs_zeta_inversion_200_random_posets():
    rng = random.Random(1234)
    for _ in range(200):
        p = random_poset(rng, 12)
        assert mobius(p).table == mobius_by_zeta_inversion(p).table


def test_relation_naming_unknown_item_rejected():
    with pytest.raises(InvalidOrderRelation, match="unknown item"):
        FinitePoset([0, 1], [(0, 1, 2), (1,)])
    # the unknown item is named whatever else is wrong with the rows:
    # unsorted, duplicate, not reflexive, not transitive, not antisymmetric,
    # or naming an index below its own
    for rows in ([(1, 0, 5), (1,)], [(0, 0, -1), (1,)], [(1, -2), (1,)],
                 [(0, 1), (1, 2), (2, 3)], [(0, 1, 3), (0, 1)],
                 [(0,), (0, 1, 2)]):
        with pytest.raises(InvalidOrderRelation, match="unknown item"):
            FinitePoset(range(len(rows)), rows)


def _is_partial_order(up):
    # the three axioms tested pair by pair and triple by triple
    n = len(up)
    rel = {(i, j) for i in range(n) for j in up[i]}
    return (all((i, i) in rel for i in range(n))
            and all(i == j for i, j in rel if (j, i) in rel)
            and all((i, k) in rel for i, j in rel for j2, k in rel if j == j2))


@given(st.data())
def test_validation_accepts_exactly_the_partial_orders(data):
    # random rows on up to 6 items, by chance kept to the indices at or above
    # their own, made reflexive or transitively closed, so that orders whose
    # index order is a linear extension are drawn often; then, each by
    # chance, an unknown item (negative or past the end), a duplicate entry
    # and an unsorted row
    n = data.draw(st.integers(min_value=0, max_value=6))
    rows = [data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
            for _ in range(n)]
    if data.draw(st.booleans()):
        rows = [{j for j in row if j >= i} for i, row in enumerate(rows)]
    if data.draw(st.booleans()):
        for i, row in enumerate(rows):
            row.add(i)
    if data.draw(st.booleans()):
        for j in range(n):
            for i in range(n):
                if j in rows[i]:
                    rows[i] |= rows[j]
    rows = [sorted(row) for row in rows]
    index = st.integers(min_value=0, max_value=n - 1)
    if n and data.draw(st.booleans()):
        row = rows[data.draw(index)]
        row.insert(data.draw(st.integers(min_value=0, max_value=len(row))),
                   data.draw(st.integers(min_value=-3, max_value=-1)
                             | st.integers(min_value=n, max_value=n + 3)))
    if n and data.draw(st.booleans()):
        row = rows[data.draw(index)]
        if row:
            row.insert(data.draw(st.integers(min_value=0, max_value=len(row))),
                       data.draw(st.sampled_from(row)))
    if n and data.draw(st.booleans()):
        i = data.draw(index)
        rows[i] = data.draw(st.permutations(rows[i]))
    if any(not 0 <= j < n for row in rows for j in row):
        with pytest.raises(InvalidOrderRelation, match="unknown item"):
            FinitePoset(range(n), rows)
    elif any(row != sorted(set(row)) for row in rows):
        with pytest.raises(InvalidOrderRelation, match="strictly ascending"):
            FinitePoset(range(n), rows)
    elif not _is_partial_order(rows):
        with pytest.raises(InvalidOrderRelation):
            FinitePoset(range(n), rows)
    elif all(row[0] == i for i, row in enumerate(rows)):
        assert FinitePoset(range(n), rows).up == tuple(map(tuple, rows))
    else:
        # a partial order, but not indexed along a linear extension
        with pytest.raises(InvalidOrderRelation, match="below its own"):
            FinitePoset(range(n), rows)


def test_adjoin_bounds_to_empty_poset():
    empty = FinitePoset.from_leq([], lambda a, b: True)
    bounded = adjoin_bounds(empty)
    assert bounded.size == 2
    assert mobius_row(bounded.base, bounded.bottom)[bounded.top] == -1


def test_adjoin_bounds_to_antichain_gives_diamond():
    p = FinitePoset.from_leq(["a", "b"], lambda a, b: a == b)
    bounded = adjoin_bounds(p)
    assert bounded.size == 4
    assert mobius_row(bounded.base, bounded.bottom)[bounded.top] == 1


def test_adjoin_bounds_reuse_existing_minimum():
    p = chain(3)
    bounded = adjoin_bounds(p, reuse=True)
    assert bounded.size == 3
    assert bounded.base.items[bounded.bottom] == 0
    assert bounded.base.items[bounded.top] == 2


def test_adjoin_always_adds_fresh_bounds_by_default():
    p = chain(2)
    bounded = adjoin_bounds(p)
    assert bounded.size == 4


def test_coatoms_boolean_b2():
    bp = adjoin_bounds(FinitePoset.from_leq(["x", "y"], lambda a, b: a == b))
    assert sorted(bp.base.items[i] for i in coatoms(bp)) == ["x", "y"]


def test_coatoms_chain():
    bp = adjoin_bounds(chain(3), reuse=True)
    assert coatoms(bp) == [1]


def test_coatoms_three_middle_diamond():
    p = FinitePoset.from_leq(["a", "b", "c"], lambda a, b: a == b)
    bp = adjoin_bounds(p)
    assert len(coatoms(bp)) == 3


def test_crosscut_b2():
    bp = adjoin_bounds(FinitePoset.from_leq(["x", "y"], lambda a, b: a == b))
    assert crosscut_sum(bp, coatoms(bp)) == 1


def test_crosscut_three_chain_middle():
    bp = adjoin_bounds(chain(1))  # 0^ < x < 1^
    middle = [i for i in range(bp.size) if i not in (bp.bottom, bp.top)]
    assert crosscut_sum(bp, middle) == 0
    assert mobius_row(bp.base, bp.bottom)[bp.top] == 0


def test_crosscut_three_coatom_diamond_matches_mobius():
    p = FinitePoset.from_leq(["a", "b", "c"], lambda a, b: a == b)
    bp = adjoin_bounds(p)
    got = crosscut_sum(bp, coatoms(bp))
    assert got == mobius_row(bp.base, bp.bottom)[bp.top] == 2


def test_crosscut_random_lattices_match_mobius():
    rng = random.Random(4242)
    for _ in range(100):
        lat = random_lattice(rng, 10)
        expected = mobius_row(lat.base, lat.bottom)[lat.top]
        assert crosscut_sum(lat, coatoms(lat)) == expected


def test_crosscut_invariant_under_enlarging():
    rng = random.Random(777)
    for _ in range(100):
        lat = random_lattice(rng, 10)
        coatom_set = set(coatoms(lat))
        base_value = crosscut_sum(lat, coatom_set)
        extras = [i for i in range(lat.size)
                  if i not in coatom_set and i != lat.top]
        rng.shuffle(extras)
        enlarged = coatom_set | set(extras[:2])
        assert crosscut_sum(lat, enlarged) == base_value


def test_crosscut_rejects_top_in_subset():
    bp = adjoin_bounds(FinitePoset.from_leq(["x", "y"], lambda a, b: a == b))
    with pytest.raises(TopInX):
        crosscut_sum(bp, list(coatoms(bp)) + [bp.top])


def test_crosscut_requires_all_coatoms():
    bp = adjoin_bounds(FinitePoset.from_leq(["x", "y"], lambda a, b: a == b))
    with pytest.raises(CoatomsNotCovered):
        crosscut_sum(bp, coatoms(bp)[:1])


def test_crosscut_powerset_cap():
    bp = adjoin_bounds(FinitePoset.from_leq(["x", "y"], lambda a, b: a == b))
    with pytest.raises(PowersetTooLarge):
        crosscut_sum(bp, coatoms(bp), max_size=1)


def test_crosscut_rejects_non_lattice():
    # 0 < a,b < c,d < 1 with both a,b below both c,d: meet(c,d) not unique
    items = ["bot", "a", "b", "c", "d", "top"]
    pairs = {("bot", x) for x in items} | {(x, "top") for x in items}
    pairs |= {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    pairs |= {(x, x) for x in items}
    p = FinitePoset.from_leq(items, lambda a, b: (a, b) in pairs)
    bp = BoundedPoset(p, p.index_of("bot"), p.index_of("top"))
    with pytest.raises(NotALattice):
        crosscut_sum(bp, [p.index_of(x) for x in ("a", "b", "c", "d")])


def test_invalid_relation_rejected():
    with pytest.raises(InvalidOrderRelation):
        # not antisymmetric
        FinitePoset.from_leq([0, 1], lambda a, b: True)
    with pytest.raises(InvalidOrderRelation):
        # not transitive: 0<=1, 1<=2 but not 0<=2
        FinitePoset([0, 1, 2], [(0, 1), (1, 2), (2,)])
    with pytest.raises(InvalidOrderRelation, match="2 rows for 3 items"):
        FinitePoset([0, 1, 2], [(0,), (1,)])


def test_dump_is_deterministic():
    p = boolean_lattice(2)
    d = dump(p)
    assert d == dump(boolean_lattice(2))
    assert "cover: 0 < 1" in d


def test_mobius_row_matches_full_table():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poset(rng, 9)
        table = mobius(p)
        for i in range(p.size):
            row = mobius_row(p, i)
            for j, value in row.items():
                assert table.mu(i, j) == value


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
def test_mobius_row_under_mask_matches_induced_subposet(seed, data):
    # the recursion under a mask holding the start is the recursion on the
    # induced subposet; that subposet is rebuilt here from scratch and
    # inverted by the zeta-matrix oracle
    p = random_poset(random.Random(seed), 9)
    start = data.draw(st.integers(min_value=0, max_value=p.size - 1))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << p.size) - 1))
    mask |= 1 << start
    kept = [i for i in range(p.size) if mask >> i & 1]
    sub = FinitePoset.from_leq(kept, lambda a, b: leq(p, a, b))
    table = mobius_by_zeta_inversion(sub)
    assert mobius_row(p, start, kept) == {
        j: table.mu_items(start, j) for j in kept if leq(p, start, j)}


def test_mobius_row_rejects_mask_without_start():
    # the chain 0 < 1 < 2 restricted to {1, 2}: no row from 0 exists there
    p = chain(3)
    with pytest.raises(ValueError, match="within does not hold"):
        mobius_row(p, 0, [1, 2])
    assert mobius_row(p, 1, [1, 2]) == {1: 1, 2: -1}


@pytest.mark.parametrize("within", [None, [0, 1, 2, 3]])
@pytest.mark.parametrize("start", [-1, 3])
def test_mobius_row_rejects_start_outside_poset(start, within):
    # an out-of-range start is named as such, with or without ``within``
    with pytest.raises(ValueError, match="is not an element of the poset"):
        mobius_row(chain(3), start, within)


def _relabelled(poset, perm):
    """The same order with element i renamed perm[i], as masks."""
    n = poset.size
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if leq(poset, i, j):
                up[perm[i]] |= 1 << perm[j]
    return up


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
def test_relabelled_posets_rejected_off_a_linear_extension(seed, data):
    # random_poset's edges only go up in index, so its index order is a
    # linear extension; a relabelling keeps that exactly when it maps every
    # relation i <= j to perm[i] <= perm[j], and is rejected otherwise
    base = random_poset(random.Random(seed), 9)
    perm = data.draw(st.permutations(range(base.size)))
    rows = list(map(to_row, _relabelled(base, perm)))
    if all(perm[i] <= perm[j] for i in range(base.size) for j in base.up[i]):
        p = FinitePoset(range(base.size), rows)
        assert mobius(p).table == mobius_by_zeta_inversion(p).table
    else:
        with pytest.raises(InvalidOrderRelation, match="below its own"):
            FinitePoset(range(base.size), rows)


def test_mobius_rows_from_shuffled_starts_match_zeta_inversion():
    # every row shares the poset's one accumulator list; rows taken from
    # starts in random order, each with and without a mask, must not see
    # what an earlier row left in it
    rng = random.Random(32)
    for _ in range(30):
        p = random_poset(rng, 10)
        table = mobius_by_zeta_inversion(p)
        starts = list(range(p.size)) * 2
        rng.shuffle(starts)
        for start in starts:
            assert mobius_row(p, start) == {
                j: table.mu(start, j) for j in p.up[start]}
            kept = [i for i in range(p.size)
                    if i == start or rng.random() < 0.6]
            sub = mobius_by_zeta_inversion(
                FinitePoset.from_leq(kept, lambda a, b: leq(p, a, b)))
            assert mobius_row(p, start, kept) == {
                j: sub.mu_items(start, j) for j in kept if leq(p, start, j)}


def test_index_tuples_hold_the_set_bits_and_start_at_their_own_index():
    rng = random.Random(31)
    for _ in range(30):
        p = random_poset(rng, 12)
        for t in range(p.size):
            assert p.up[t] == tuple(
                j for j in range(p.size) if leq(p, t, j))
            assert p.up[t][0] == t
    # past the small-int cache, the rows still share their int objects
    p = chain(600)
    assert p.up[0][500] is p.up[400][100] is p.up[500][0]
