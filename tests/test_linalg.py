import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobius_lattice.errors import AmbientMismatch, SingularElement, TooManySubspaces
from mobius_lattice.gfq import FqField
from mobius_lattice.linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    invariant_subspaces,
    rref,
)

from helpers import invariant_subspaces_by_rref

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)


def brute_force_subspaces(field, n):
    """Oracle: canonical row spaces of every subset of vectors."""
    vectors = list(itertools.product(range(field.q), repeat=n))
    seen = set()
    for r in range(n + 1):
        for chosen in itertools.combinations(vectors, r):
            seen.add(Subspace.from_vectors(field, n, list(chosen)))
    return seen


def product_formula(n, k, q):
    # independent reimplementation of the subspace count
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_rref_identity():
    m = Matrix.identity(F2, 3)
    assert rref(m) == m


def test_rref_full_rank_2x2():
    m = Matrix.from_rows(F2, [[1, 1], [0, 1]])
    assert rref(m).to_lists() == [[1, 0], [0, 1]]


def test_rref_dependent_rows_gf3():
    # second row is twice the first over GF(3)
    m = Matrix.from_rows(F3, [[1, 2], [2, 1]])
    assert rref(m).to_lists() == [[1, 2], [0, 0]]


@given(st.sampled_from([F2, F3, F5]),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.data())
def test_rref_idempotent(field, rows, cols, data):
    entries = data.draw(st.lists(
        st.integers(min_value=0, max_value=field.q - 1),
        min_size=rows * cols, max_size=rows * cols))
    m = Matrix.from_rows(field, [entries[i * cols:(i + 1) * cols]
                                 for i in range(rows)])
    once = rref(m)
    assert rref(once) == once


def test_subspace_sum_with_zero():
    a = Subspace.from_vectors(F2, 3, [[1, 0, 0]])
    assert a + Subspace.zero(F2, 3) == a


def test_intersection_under_containment():
    e1 = Subspace.from_vectors(F2, 3, [[1, 0, 0]])
    plane = Subspace.from_vectors(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert (e1 & plane) == e1


def test_sum_spans_everything():
    e1 = Subspace.from_vectors(F2, 2, [[1, 0]])
    e2 = Subspace.from_vectors(F2, 2, [[0, 1]])
    assert (e1 + e2).is_full()


def test_intersection_matches_bruteforce_pairwise():
    # oracle: intersect by scanning all vectors of both spans
    subs = enumerate_subspaces(F3, 3)
    vectors = list(itertools.product(range(3), repeat=3))
    for a, b in itertools.islice(itertools.combinations(subs, 2), 300):
        common = [v for v in vectors
                  if a.contains_vector(v) and b.contains_vector(v)]
        expected = Subspace.from_vectors(F3, 3, common)
        assert (a & b) == expected


def test_enumerate_counts_gf2_dim2():
    assert len(enumerate_subspaces(F2, 2)) == 5
    assert len(brute_force_subspaces(F2, 2)) == 5
    assert len(enumerate_subspaces(F2, 2, 1)) == 3


def test_enumerate_lines_gf3():
    # normalized direction vectors: (3^2 - 1) / (3 - 1) = 4
    directions = {Subspace.from_vectors(F3, 2, [v])
                  for v in itertools.product(range(3), repeat=2) if any(v)}
    assert len(directions) == 4
    assert len(enumerate_subspaces(F3, 2, 1)) == 4


@pytest.mark.parametrize("q,field", [(2, F2), (3, F3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counts_match_product_formula(q, field, n):
    for k in range(n + 1):
        got = len(enumerate_subspaces(field, n, k))
        assert got == product_formula(n, k, q) == gaussian_binomial(n, k, q)


def test_enumerate_matches_bruteforce_gf2_dim3():
    assert set(enumerate_subspaces(F2, 3)) == brute_force_subspaces(F2, 3)


def test_enumeration_is_deterministic_and_unique():
    listed = enumerate_subspaces(F3, 3)
    assert len(listed) == len(set(listed))
    assert listed == enumerate_subspaces(F3, 3)


def test_cap_enforced():
    with pytest.raises(TooManySubspaces):
        enumerate_subspaces(F3, 3, cap=5)


def test_invariant_under_identity_is_everything():
    lattice = invariant_subspaces([Matrix.identity(F2, 2)], 2,
                                  proper_nontrivial=True)
    assert len(lattice) == 3


def test_gl22_has_no_invariant_line(gl22):
    lattice = invariant_subspaces(list(gl22.elements), 2,
                                  proper_nontrivial=True)
    assert len(lattice) == 0


def test_diagonal_subgroup_invariants_gf3():
    mats = [Matrix.from_rows(F3, [[a, 0], [0, 1]]) for a in (1, 2)]
    lattice = invariant_subspaces(mats, 2, proper_nontrivial=True)
    expected = {Subspace.from_vectors(F3, 2, [[1, 0]]),
                Subspace.from_vectors(F3, 2, [[0, 1]])}
    assert set(lattice) == expected


@pytest.mark.parametrize("field,rows_list", [
    (F3, [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    (F3, [[[2, 0], [0, 1]], [[1, 0], [0, 2]]]),
    (F2, [[[1, 0, 0], [0, 0, 1], [0, 1, 0]]]),
    (F2, [[[1, 1], [0, 1]]]),
])
def test_invariant_lattice_closed_under_sum_and_intersection(field, rows_list):
    mats = [Matrix.from_rows(field, rows) for rows in rows_list]
    lattice = invariant_subspaces(mats, mats[0].nrows)
    members = set(lattice)
    for a in lattice:
        for b in lattice:
            assert a + b in members
            assert (a & b) in members


def test_invariance_extends_to_full_group(gl23):
    # check returned subspaces against every element, not just generators
    h_gens = [Matrix.from_rows(F3, [[2, 0], [0, 1]])]
    lattice = invariant_subspaces(h_gens, 2, proper_nontrivial=True)
    ids = [gl23.index_of(g) for g in h_gens]
    full = gl23.subgroup_closure(ids)
    for w in lattice:
        for m in full.matrices():
            assert w.apply(m) == w


def test_singular_matrix_rejected():
    with pytest.raises(SingularElement):
        invariant_subspaces([Matrix.from_rows(F2, [[1, 1], [1, 1]])], 2)


def _random_generators(rng, field, n):
    """One or two invertible matrices, each a random element, an upper
    triangular one, a diagonal one or a scalar, so that the groups they
    generate range from irreducible to fixing every subspace."""
    q = field.q
    out = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["any", "upper", "diagonal", "scalar"])
        while True:
            scalar = rng.randrange(1, q)
            data = []
            for i in range(n):
                for j in range(n):
                    if kind == "any" or (kind == "upper" and j > i):
                        data.append(rng.randrange(q))
                    elif i == j:
                        data.append(scalar if kind == "scalar"
                                    else rng.randrange(1, q))
                    else:
                        data.append(0)
            m = Matrix(field, n, n, tuple(data))
            if m.is_invertible():
                out.append(m)
                break
    return out


@pytest.mark.parametrize("p,u,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                   (5, 1, 2), (2, 3, 2), (3, 2, 2),
                                   (101, 1, 2), (2, 1, 3), (3, 1, 3),
                                   (3, 3, 3)],
                         ids=["GF(2)^2", "GF(3)^2", "GF(4)^2", "GF(5)^2",
                              "GF(8)^2", "GF(9)^2", "GF(101)^2", "GF(2)^3",
                              "GF(3)^3", "GF(27)^3"])
def test_invariant_subspaces_match_rref_oracle(p, u, n):
    # basis-row images inside W against row-reducing W*m and comparing
    field = FqField(p, u)
    rng = random.Random(p * 100 + u * 10 + n)
    sizes = set()
    for _ in range(40):
        gens = _random_generators(rng, field, n)
        for proper in (False, True):
            found = invariant_subspaces(gens, n, proper_nontrivial=proper)
            assert found == invariant_subspaces_by_rref(gens, n, proper)
        sizes.add(len(found))
    # the samples reach both irreducible groups and reducible ones
    assert 0 in sizes and len(sizes) > 1


def test_invariant_subspaces_of_gf97_cubed():
    # 19,016 subspaces and 912,673 vectors: W's RREF rows decide membership,
    # so the cost follows the subspaces, never the vectors
    ident = Matrix.identity(FqField(97), 3)
    assert len(invariant_subspaces([ident], 3)) == 19016
    assert invariant_subspaces([ident], 3, proper_nontrivial=True)[0].dim == 1


def test_invariant_subspaces_checks_run_with_a_warm_cache():
    ident = Matrix.identity(F2, 2)
    assert len(invariant_subspaces([ident], 2)) == 5
    with pytest.raises(SingularElement):
        invariant_subspaces([ident, Matrix.from_rows(F2, [[1, 1], [1, 1]])], 2)
    with pytest.raises(AmbientMismatch):
        invariant_subspaces([ident, Matrix.identity(F2, 3)], 2)
    with pytest.raises(AmbientMismatch):
        invariant_subspaces([ident, Matrix.identity(F3, 2)], 2)


def test_invariant_subspaces_returns_a_fresh_list():
    # the enumeration is kept between calls; a caller's list is its own
    ident = [Matrix.identity(F3, 2)]
    first = invariant_subspaces(ident, 2)
    expected = list(first)
    first.clear()
    assert invariant_subspaces(ident, 2) == expected == sorted(
        enumerate_subspaces(F3, 2), key=Subspace.sort_key)


def test_ambient_mismatch():
    a = Subspace.from_vectors(F2, 2, [[1, 0]])
    b = Subspace.from_vectors(F2, 3, [[1, 0, 0]])
    with pytest.raises(AmbientMismatch):
        a + b
    with pytest.raises(AmbientMismatch):
        a & b


def test_matrix_serialization_round_trip_extension_field():
    f4 = FqField(2, 2)
    m = Matrix.from_rows(f4, [[[0, 1], [1, 0]], [[0, 0], [1, 1]]])
    assert m.to_lists() == [[[0, 1], [1, 0]], [[0, 0], [1, 1]]]
    assert Matrix.from_rows(f4, m.to_lists()) == m


def test_annihilator_dimension():
    w = Subspace.from_vectors(F3, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert w.annihilator().dim == 2
    assert w.annihilator().annihilator() == w


def test_contains_vector_reads_values_in_any_container():
    # over GF(4) the integer 2 is 2 mod 2 = 0, so (1, 2) is the vector
    # (1, 0), outside the line spanned by (x, 1), whether given as a tuple
    # or a list; (1, x + 1) = (x + 1) * (x, 1) is on it in either form
    f4 = FqField(2, 2)
    w = Subspace.from_vectors(f4, 2, [[[0, 1], 1]])
    assert not w.contains_vector((1, 2))
    assert not w.contains_vector([1, 2])
    assert w.contains_vector((1, (1, 1)))
    assert w.contains_vector([[1, 0], [1, 1]])
    assert w.contains_vector([[0, 1], 1])
    with pytest.raises(AmbientMismatch):
        w.contains_vector((1, 0, 0))
