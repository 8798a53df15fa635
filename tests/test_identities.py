import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobius_lattice.errors import (
    IntervalTooLarge,
    PowersetTooLarge,
    ReducibleAmbientGroup,
    SubgroupNotContained,
)
from mobius_lattice.cli import preset_generators
from mobius_lattice.gfq import FqField
from mobius_lattice.group import (
    SubgroupRef,
    closure,
    is_irreducible,
    overgroup_interval,
    stabilizer,
)
from mobius_lattice import identities
from mobius_lattice.identities import (
    StabilizerFamily,
    alternating_sums,
    build_complexes,
    build_ideal,
    certify_meets,
    mobius_between,
    mu_ideal,
    stabilizer_family,
    store_greedy_generators,
    subgroup_lattice,
    verify_identities,
)
from mobius_lattice.linalg import Matrix, Subspace, invariant_subspaces
from mobius_lattice.poset import FinitePoset
from mobius_lattice.simplicial import euler

from helpers import (
    certify_meets_by_bits,
    containment_order,
    ideal_by_interval_union,
    invariant_subspaces_by_rref,
    moebius_number_theoretic,
)

F2 = FqField(2)
F3 = FqField(3)


def naive_sums(group, subgroup, family):
    """Oracle: classify every subset of the family by full enumeration."""
    ambient = frozenset(range(group.order))
    target = subgroup.member_ids

    def classify(sets):
        above = equal = 0
        for r in range(len(sets) + 1):
            for chosen in itertools.combinations(sets, r):
                inter = ambient
                for s in chosen:
                    inter = inter & s
                if inter == target:
                    equal += (-1) ** r
                else:
                    above += (-1) ** r
        return above, equal

    stab_sets = [m.member_ids for m in family.distinct_stabilizers]
    space_sets = [s.member_ids for _, s in family.pairs]
    stab_above, stab_equal = classify(stab_sets)
    space_above, _ = classify(space_sets)
    return stab_above, stab_equal, space_above


def find_subgroup(group, order, predicate=lambda h: True):
    subs = overgroup_interval(group, group.trivial_subgroup())
    for h in subs:
        if h.order == order and predicate(h):
            return h
    raise AssertionError(f"no subgroup of order {order}")


def diag_subgroup(gl23):
    m = Matrix.from_rows(F3, [[2, 0], [0, 1]])
    return gl23.subgroup_closure([gl23.index_of(m)])


def test_family_for_trivial_subgroup(gl22):
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    assert len(fam.pairs) == 3
    assert len(fam.distinct_stabilizers) == 3
    assert all(s.order == 2 for s in fam.distinct_stabilizers)


def test_family_for_irreducible_subgroup(gl22):
    c3 = find_subgroup(gl22, 3)
    fam = stabilizer_family(gl22, c3)
    assert fam.pairs == ()
    assert fam.distinct_stabilizers == ()


def test_family_for_diagonal_subgroup(gl23):
    h = diag_subgroup(gl23)
    fam = stabilizer_family(gl23, h)
    spaces = {w for w, _ in fam.pairs}
    assert spaces == {Subspace.from_vectors(F3, 2, [[1, 0]]),
                      Subspace.from_vectors(F3, 2, [[0, 1]])}
    assert sorted(s.order for s in fam.distinct_stabilizers) == [12, 12]


def test_family_rejects_reducible_ambient():
    borel = closure([Matrix.from_rows(F3, [[2, 0], [0, 1]]),
                     Matrix.from_rows(F3, [[1, 0], [1, 1]])])
    with pytest.raises(ReducibleAmbientGroup):
        stabilizer_family(borel, borel.trivial_subgroup())


def test_family_rejects_foreign_subgroup(gl22, gl23):
    with pytest.raises(SubgroupNotContained):
        stabilizer_family(gl22, gl23.trivial_subgroup())
    # so do the identities, given a lattice that lacks the subgroups read
    short = subgroup_lattice([gl22.full_subgroup()])
    with pytest.raises(SubgroupNotContained):
        verify_identities(gl22, gl22.trivial_subgroup(), lattice=short)
    with pytest.raises(SubgroupNotContained):
        mobius_between(gl22, gl22.trivial_subgroup(), lattice=short)


def test_family_subspaces_match_direct_computation(corpus, gl25):
    # the family intersects the memoised subspaces of H's generators; they
    # must be the subspaces all of H's generators fix, computed at once and
    # by the row-reducing oracle, in the same canonical order
    groups = [(group, subs) for _, group, subs in corpus]
    groups.append((gl25, overgroup_interval(gl25, gl25.trivial_subgroup())))
    for group, subs in groups:
        for h in subs:
            spaces = [w for w, _ in stabilizer_family(group, h).pairs]
            gens = h.generator_matrices()
            assert spaces == invariant_subspaces(
                gens, group.n, proper_nontrivial=True), h.order
            assert spaces == invariant_subspaces_by_rref(
                gens, group.n, proper_nontrivial=True), h.order


def test_subspace_memo_belongs_to_its_group():
    # groups built one after another, each dropped before the next: every
    # new group starts with an empty memo of its own, so no entry of an
    # earlier group, whose id may be reused, can be read for it
    for kind in ("GL", "SL", "GL", "SL"):
        group = closure(preset_generators(kind, 2, F3))
        assert group._subspaces == [None] * group.order
        for h in overgroup_interval(group, group.trivial_subgroup()):
            spaces = [w for w, _ in stabilizer_family(group, h).pairs]
            assert spaces == invariant_subspaces(
                h.generator_matrices(), 2, proper_nontrivial=True)
        for i in group.trivial_subgroup().member_ids:
            assert group._subspaces[i] is not None
        del group


def test_ideal_for_irreducible_subgroup_is_two_chain(gl22):
    c3 = find_subgroup(gl22, 3)
    fam = stabilizer_family(gl22, c3)
    ideal = build_ideal(fam)
    assert ideal.members == ()
    # the indices hold H alone: with G adjoined, the chain {H, G}
    assert ideal.indices == (ideal.bottom,)
    assert mu_ideal(ideal) == -1


def test_ideal_for_trivial_subgroup_gl22(gl22):
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    ideal = build_ideal(fam)
    assert sorted(k.order for k in ideal.members) == [1, 2, 2, 2]
    assert len(ideal.indices) == 4
    # hand recursion: mu(1,1)=1, three mu(1,M)=-1, so mu(1,G) = -(1-3) = 2
    assert mu_ideal(ideal) == 2


def test_ideal_for_maximal_stabilizer(gl22):
    line = Subspace.from_vectors(F2, 2, [[1, 0]])
    h = stabilizer(gl22, line)
    fam = stabilizer_family(gl22, h)
    assert [s.member_ids for s in fam.distinct_stabilizers] == [h.member_ids]
    ideal = build_ideal(fam)
    assert [k.order for k in ideal.members] == [2]
    assert mu_ideal(ideal) == -1
    cx1, cx2 = build_complexes(fam)
    assert cx1.vertices == () and cx1.faces == frozenset({0})
    assert cx2.vertices == () and cx2.faces == frozenset({0})


def test_reducible_subgroup_belongs_to_its_ideal(gl22, gl23):
    for group in (gl22, gl23):
        for h in overgroup_interval(group, group.trivial_subgroup()):
            if h.order == group.order:
                continue
            fam = stabilizer_family(group, h)
            ideal = build_ideal(fam)
            if fam.pairs:
                assert any(k.member_ids == h.member_ids for k in ideal.members)
            else:
                assert ideal.members == ()


def test_ideal_filter_path_matches_direct_path(gl23, sl23, gl25, gl32):
    # without a lattice, build_ideal carries intervals over by conjugation;
    # the H = 1 families of GL(2,5) and GL(3,2) hold 6 and 14 stabilizers
    for group in (gl23, sl23, gl25, gl32):
        subs = overgroup_interval(group, group.trivial_subgroup())
        lattice = subgroup_lattice(subs)
        for h in subs:
            if h.order == group.order:
                continue
            fam = stabilizer_family(group, h)
            direct = build_ideal(fam)
            filtered = build_ideal(fam, lattice=lattice)
            assert [k.member_ids for k in direct.members] == \
                   [k.member_ids for k in filtered.members]
            assert mu_ideal(direct) == mu_ideal(filtered)
            shared = verify_identities(group, h, lattice=lattice,
                                       with_decomposition=True)
            alone = verify_identities(group, h, with_decomposition=True)
            assert shared.to_dict() == alone.to_dict()
            assert shared.mu_full is not None


@pytest.fixture(scope="module")
def gl33():
    return closure(preset_generators("GL", 3, F3))


def _counted_searches(monkeypatch):
    """The tops of the intervals build_ideal searches, as member sets."""
    searched = []
    search = identities.overgroup_interval

    def counted(group, low, top=None, *args, **kwargs):
        searched.append(top.member_ids)
        return search(group, low, top, *args, **kwargs)

    monkeypatch.setattr(identities, "overgroup_interval", counted)
    return searched


_DIAGONAL_TORUS = [[[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
                   [[1, 0, 0], [0, 1, 0], [0, 0, 2]]]
# H = GL(1,3) + I_2 of scripts/slow_instance.py
_REFLECTION = [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]


@pytest.mark.parametrize("gens,stabs,searches,members", [
    (_DIAGONAL_TORUS, 6, 3, 46), (_REFLECTION, 10, 5, 505)])
def test_conjugated_ideal_equals_searched_gl33(monkeypatch, gl33, gens,
                                               stabs, searches, members):
    # the torus's six coordinate subspaces fall in two orbits of its
    # monomial normalizer; the searches find the moves between them
    h = gl33.subgroup_closure(
        gl33.index_of(Matrix.from_rows(F3, rows)) for rows in gens)
    family = stabilizer_family(gl33, h)
    assert len(family.distinct_stabilizers) == stabs
    expected = ideal_by_interval_union(family)
    searched = _counted_searches(monkeypatch)
    ideal = build_ideal(family)
    assert len(set(searched)) == len(searched) == searches
    assert {k.member_ids for k in ideal.lattice.items} == expected
    assert len(ideal.members) == members == len(expected)


def test_ideal_conjugation_fails_closed_on_a_non_normalizer(monkeypatch,
                                                            gl33):
    # t maps <e3>, the first subspace searched, onto <e2>, so it carries
    # Stab(<e3>) onto Stab(<e2>), but it is not monomial and does not
    # normalize the torus: planted among the moves, it must be refused
    h = gl33.subgroup_closure(
        gl33.index_of(Matrix.from_rows(F3, rows)) for rows in _DIAGONAL_TORUS)
    family = stabilizer_family(gl33, h)
    t = gl33.index_of(Matrix.from_rows(F3, [[1, 0, 0], [1, 0, 1], [0, 1, 0]]))
    assert family.pairs[0][0] == Subspace.from_vectors(F3, 3, [[0, 0, 1]])
    assert family.pairs[0][0].apply(gl33.element(t)) == family.pairs[1][0]
    assert not all(gl33.mul(gl33.mul(gl33.inv(t), x), t) in h.member_ids
                   for x in h.member_ids)
    normalizing = identities._normalizing
    monkeypatch.setattr(identities, "_normalizing",
                        lambda subgroup, joined:
                        [t] + normalizing(subgroup, joined))
    with pytest.raises(RuntimeError, match="does not normalize"):
        build_ideal(family)


def test_quantities_invariant_under_conjugation(corpus):
    # H -> H^g carries the stabilizer family of H onto that of H^g (W -> W g),
    # so every quantity of the report must agree; g is a generator of G that
    # does not normalise H, where one exists
    for name, group, subs in corpus:
        lattice = subgroup_lattice(subs)
        for h in subs:
            if h.order == group.order:
                continue
            for g in group.generators:
                g_inv = g.inverse()
                conjugate = group.subgroup(group.index_of(g_inv * m * g)
                                           for m in h.matrices())
                if conjugate != h:
                    break
            else:
                continue
            reports = [verify_identities(group, k, lattice=lattice,
                                         with_decomposition=True).to_dict()
                       for k in (h, conjugate)]
            assert reports[0] == reports[1], (name, h.order)


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    """name -> {member ids of H: report dict} over each corpus group's proper
    subgroups, decomposition included."""
    out = {}
    for name, group, subs in corpus:
        lattice = subgroup_lattice(subs)
        out[name] = {h.member_ids: verify_identities(
            group, h, lattice=lattice, with_decomposition=True).to_dict()
            for h in subs if h.order < group.order}
    return out


@given(data=st.data())
def test_quantities_invariant_under_generator_order(corpus, corpus_reports,
                                                    data):
    # G rebuilt from its generators permuted, some of them repeated: the
    # element ids, the lattice and every report must come out the same,
    # though the orbit walks and the cyclic extension follow the new order
    name, group, subs = data.draw(st.sampled_from(corpus), label="group")
    gens = list(group.generators)
    gens += data.draw(st.lists(st.sampled_from(gens), max_size=2),
                      label="repeated")
    rebuilt = closure(data.draw(st.permutations(gens), label="generators"))
    assert rebuilt._keys == group._keys
    lattice = overgroup_interval(rebuilt, rebuilt.trivial_subgroup())
    assert [k.member_ids for k in lattice] == [k.member_ids for k in subs]
    order = subgroup_lattice(lattice)
    for h in lattice[:-1]:
        report = verify_identities(rebuilt, h, lattice=order,
                                   with_decomposition=True)
        assert report.to_dict() == corpus_reports[name][h.member_ids], \
            (name, h.order)


@pytest.fixture(scope="module")
def singer_gl25(gl25):
    """The GL(2,5) Singer cycle G of order 24, its subgroups, the report
    dict of each proper one, and the x in GL(2,5) with G^x != G."""
    group = closure([Matrix.from_rows(FqField(5), [[0, 1], [3, 1]])])
    subs = overgroup_interval(group, group.trivial_subgroup())
    reports = {h.member_ids: verify_identities(
        group, h, with_decomposition=True).to_dict() for h in subs[:-1]}
    s, = group.generators
    moving = []
    for x in gl25.elements:
        try:
            group.index_of(x.inverse() * s * x)
        except KeyError:
            moving.append(x)
    return group, subs, reports, moving


@given(data=st.data())
def test_quantities_invariant_under_change_of_basis(singer_gl25, data):
    # G and H both conjugated by x in GL(2,5) (W -> W x carries one family
    # onto the other).  G is not normal in GL(2,5) and x is drawn outside
    # its normaliser, so G^x is another group on other matrices, and the
    # reports are computed afresh, not read off G's own lattice as in the
    # conjugation test
    group, subs, reports, moving = singer_gl25
    x = data.draw(st.sampled_from(moving), label="x")
    x_inv = x.inverse()
    moved = closure([x_inv * g * x for g in group.generators])
    assert set(moved.elements) != set(group.elements)
    for h in subs[:-1]:
        image = moved.subgroup(moved.index_of(x_inv * m * x)
                               for m in h.matrices())
        report = verify_identities(moved, image, with_decomposition=True)
        assert report.to_dict() == reports[h.member_ids], h.order


def _inverse_transpose(m):
    inv = m.inverse()
    n = inv.nrows
    return Matrix(inv.field, n, n,
                  tuple(inv.data[j * n + i] for i in range(n) for j in range(n)))


def test_quantities_invariant_under_inverse_transpose(gl32, corpus_reports):
    # g -> g^-T is an outer automorphism of GL(3,2); it carries H's
    # invariant subspaces W onto their annihilators, since
    # (x g^-T) . w = x . (w g^-1), and so the whole stabilizer family
    reports = corpus_reports["GL(3,2)"]
    subs = overgroup_interval(gl32, gl32.trivial_subgroup())
    for h in subs[:-1]:
        image = gl32.subgroup(gl32.index_of(_inverse_transpose(m))
                              for m in h.matrices())
        assert reports[image.member_ids] == reports[h.member_ids], h.order
        spaces = invariant_subspaces(h.generator_matrices(), 3)
        assert invariant_subspaces(image.generator_matrices(), 3) == sorted(
            w.annihilator() for w in spaces), h.order


def _frobenius(m, times):
    # x -> x^p entrywise, ``times`` times over: a field automorphism of
    # GF(p^u), hence an automorphism of GL(n, q)
    field = m.field
    power = []
    for x in range(field.q):
        y = field._one_index
        for _ in range(field.p ** times):
            y = field._mul[y][x]
        power.append(y)
    return Matrix(field, m.nrows, m.ncols, tuple(power[v] for v in m.data))


@pytest.fixture(scope="module")
def frobenius_groups():
    """name -> (G, its proper subgroups, {member ids of H: report dict})
    for groups over GF(4), GF(8) and GF(9)."""
    out = {}
    for kind, p, u in [("SL", 2, 2), ("GL", 2, 2), ("SL", 2, 3),
                       ("SL", 3, 2)]:
        group = closure(preset_generators(kind, 2, FqField(p, u)))
        subs = overgroup_interval(group, group.trivial_subgroup())
        lattice = subgroup_lattice(subs)
        out[f"{kind}(2,{p ** u})"] = (group, subs[:-1], {
            h.member_ids: verify_identities(
                group, h, lattice=lattice, with_decomposition=True).to_dict()
            for h in subs[:-1]})
    return out


@settings(max_examples=8)
@given(data=st.data())
def test_quantities_invariant_under_frobenius(frobenius_groups, data):
    # (d): the Frobenius x -> x^p, applied entrywise, carries H's invariant
    # subspaces W onto their images and so the whole stabilizer family; G
    # is rebuilt from the images of its generators, permuted, and each
    # proper H is matched with its image through the same map
    name = data.draw(st.sampled_from(sorted(frobenius_groups)), label="group")
    group, subs, reports = frobenius_groups[name]
    times = data.draw(st.integers(1, group.field.u - 1), label="times")
    gens = [_frobenius(m, times) for m in group.generators]
    image = closure(data.draw(st.permutations(gens), label="generators"))
    lattice = subgroup_lattice(overgroup_interval(image,
                                                  image.trivial_subgroup()))
    assert lattice.size == len(subs) + 1
    moved = 0
    for h in subs:
        h_image = image.subgroup(image.index_of(_frobenius(m, times))
                                 for m in h.matrices())
        moved += h_image.member_ids != h.member_ids
        report = verify_identities(image, h_image, lattice=lattice,
                                   with_decomposition=True)
        assert report.to_dict() == reports[h.member_ids], (name, h.order)
    # the map moves some subgroups, so the matching is not the identity
    assert moved, name


def test_sums_for_irreducible_subgroup(gl22):
    c3 = find_subgroup(gl22, 3)
    fam = stabilizer_family(gl22, c3)
    sums = alternating_sums(fam)
    assert (sums.stabilizer_sum, sums.stabilizer_complement_sum,
            sums.subspace_sum) == (1, 0, 1)


def test_sums_for_trivial_subgroup_gl22(gl22):
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    sums = alternating_sums(fam)
    assert sums.stabilizer_sum == -2
    assert sums.stabilizer_complement_sum == 2
    assert sums.subspace_sum == -2


def test_pruned_sums_match_naive_everywhere(gl22, gl23, sl23):
    for group in (gl22, gl23, sl23):
        subs = overgroup_interval(group, group.trivial_subgroup())
        for h in subs:
            if h.order == group.order:
                continue
            fam = stabilizer_family(group, h)
            if len(fam.pairs) > 12:
                continue
            sums = alternating_sums(fam)
            above, equal, space_above = naive_sums(group, h, fam)
            assert sums.stabilizer_sum == above
            assert sums.stabilizer_complement_sum == equal
            assert sums.subspace_sum == space_above


def test_sums_and_complexes_keep_no_mask_on_the_subgroup(gl23):
    # in a sweep H is a lattice item: a |G|-bit int kept on each H would
    # stay on every item of the lattice; the family builds H's mask on
    # first use from its three fields, so none is passed in
    for h in overgroup_interval(gl23, gl23.trivial_subgroup())[:-1]:
        fam = stabilizer_family(gl23, h)
        built = StabilizerFamily(h, fam.pairs, fam.distinct_stabilizers)
        assert built == fam
        assert alternating_sums(built) == alternating_sums(fam)
        build_complexes(fam)
        assert h._bits is None
        assert built.subgroup_mask == fam.subgroup_mask == h.member_bits


def test_powerset_cancellation_each_pair(gl23):
    # sums over all subsets cancel unless the family is empty
    subs = overgroup_interval(gl23, gl23.trivial_subgroup())
    for h in subs:
        if h.order == gl23.order:
            continue
        fam = stabilizer_family(gl23, h)
        sums = alternating_sums(fam)
        expected = 1 if not fam.distinct_stabilizers else 0
        assert sums.stabilizer_sum + sums.stabilizer_complement_sum == expected


def test_sums_powerset_cap(gl22):
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    with pytest.raises(PowersetTooLarge):
        alternating_sums(fam, max_powerset=2)


def test_powerset_cap_is_read_before_the_ideal(gl22, gl23, monkeypatch):
    # an over-cap pair is skipped before its ideal is built, so a pair over
    # both caps gives the powerset reason
    def no_ideal(*args, **kwargs):
        raise AssertionError("build_ideal ran on an over-cap pair")

    monkeypatch.setattr(identities, "build_ideal", no_ideal)
    with pytest.raises(PowersetTooLarge, match=r"\(3 stabilizers, "
                                               r"3 subspaces\)"):
        verify_identities(gl22, gl22.trivial_subgroup(), max_powerset=2)
    with pytest.raises(PowersetTooLarge):
        verify_identities(gl23, gl23.trivial_subgroup(), max_interval=16,
                          max_powerset=2)


def test_ideal_cap_names_interval_cap(gl23):
    # each of the four intervals [1, M] holds 16 subgroups, their union 40
    h = gl23.trivial_subgroup()
    fam = stabilizer_family(gl23, h)
    with pytest.raises(IntervalTooLarge,
                       match=r"ideal exceeded interval cap 16 subgroups: "
                             r"40 found"):
        build_ideal(fam, max_interval=16)


def test_complex_cap_names_vertex_counts(gl22):
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    with pytest.raises(PowersetTooLarge,
                       match=r"\(3 subspaces, 3 stabilizers\) exceed "
                             r"powerset cap 2"):
        build_complexes(fam, max_powerset=2)


def test_meet_check_rejects_ideal_missing_a_member(gl23):
    # H = 1: the diagonal torus is the meet of two Borels and no stabilizer;
    # with it taken out of the lattice, the ideal read off the lattice is no
    # longer closed under intersection
    h = gl23.trivial_subgroup()
    fam = stabilizer_family(gl23, h)
    b1, b2 = fam.distinct_stabilizers[:2]
    subs = overgroup_interval(gl23, h)
    torus = next(s for s in subs
                 if s.member_ids == b1.member_ids & b2.member_ids)
    assert torus.order == 4 and torus not in fam.distinct_stabilizers
    short = subgroup_lattice([s for s in subs if s != torus])
    with pytest.raises(RuntimeError, match="not closed under intersection"):
        build_ideal(fam, lattice=short)
    # the full lattice gives a valid ideal holding the torus
    ideal = build_ideal(fam, lattice=subgroup_lattice(subs))
    assert torus in ideal.members


def test_meet_check_rejects_gl25_lattice_missing_a_meet(gl25):
    # H = 1: take two incomparable ideal members whose intersection is
    # neither H nor a stabilizer, and drop that intersection from the
    # lattice; both stay in the ideal, which loses closure under meets
    h = gl25.trivial_subgroup()
    fam = stabilizer_family(gl25, h)
    subs = overgroup_interval(gl25, h)
    ideal = build_ideal(fam, lattice=subgroup_lattice(subs))
    by_members = {k.member_ids: k for k in ideal.members}
    stabs = set(fam.distinct_stabilizers)
    meet = next(by_members[a.member_ids & b.member_ids]
                for a, b in itertools.combinations(ideal.members, 2)
                if not (a <= b or b <= a)
                and by_members[a.member_ids & b.member_ids] not in stabs
                and (a.member_ids & b.member_ids) != h.member_ids)
    short = subgroup_lattice([s for s in subs if s != meet])
    with pytest.raises(RuntimeError, match="not closed under intersection"):
        build_ideal(fam, lattice=short)


def _certify_by_holders(group, lattice):
    certify_meets(group, lattice, identities._holders(lattice.items))


# the package's certificate and its |G|-bit oracle, which raise alike
_CERTIFICATES = (_certify_by_holders, certify_meets_by_bits)


def test_meet_certificate_rejects_lattice_missing_a_conjugate(corpus):
    # one conjugate of a non-normal subgroup dropped: the recorded class
    # orbits no longer partition the lattice, so it is not closed under
    # conjugation and both certificates fail closed
    for name, group, subs in corpus:
        for orbit in group._classes:
            if len(orbit) > 1:
                short = subgroup_lattice([k for k in subs
                                          if k.member_ids != orbit[-1]])
                for certify in _CERTIFICATES:
                    with pytest.raises(RuntimeError, match="do not partition"):
                        certify(group, short)
                assert group._meet_closed is not short, name


def test_meet_certificate_rejects_lattice_missing_an_intersection(
        corpus, monkeypatch):
    # the trivial subgroup's class dropped from both the lattice and the
    # recorded orbits: the orbits still partition the lattice, but two
    # subgroups meeting in 1 have no meet there
    for name, group, subs in corpus:
        trivial = group.trivial_subgroup().member_ids
        monkeypatch.setattr(group, "_classes", tuple(
            orbit for orbit in group._classes if orbit[0] != trivial))
        short = subgroup_lattice(subs[1:])
        for certify in _CERTIFICATES:
            with pytest.raises(RuntimeError,
                               match="not closed under intersection"):
                certify(group, short)
        assert group._meet_closed is not short, name


def _verdict(certify, group, lattice):
    try:
        certify(group, lattice)
    except RuntimeError as exc:
        return str(exc)
    return "closed"


def _one_class_short_verdicts(group, monkeypatch):
    """For each class of the group's whole lattice, dropped from both the
    lattice and the recorded orbits: the verdicts of the holder
    certificate and of its |G|-bit oracle."""
    subs = overgroup_interval(group, group.trivial_subgroup())
    classes = group._classes
    # an accepted lattice is recorded on the group; the fixture's record is
    # put back at teardown
    monkeypatch.setattr(group, "_meet_closed", None)
    verdicts = []
    for dropped in classes:
        monkeypatch.setattr(group, "_classes", tuple(
            orbit for orbit in classes if orbit is not dropped))
        short = subgroup_lattice(k for k in subs
                                 if k.member_ids not in dropped)
        verdicts.append(tuple(_verdict(certify, group, short)
                              for certify in _CERTIFICATES))
    return verdicts


def test_meet_certificate_agrees_with_oracle_on_one_class_short_lattices(
        gl25, gl32, monkeypatch):
    # every lattice of GL(2,5), GL(3,2), GL(2,4) and SL(2,5) with one whole
    # class dropped (48 + 15 + 21 + 12, the classes of 1 and G among them):
    # the holder certificate and the |G|-bit oracle reject the same 53
    # lattices, with the same error, and accept the same 43
    verdicts = []
    for group in (gl25, gl32,
                  closure(preset_generators("GL", 2, FqField(2, 2))),
                  closure(preset_generators("SL", 2, FqField(5)))):
        verdicts += _one_class_short_verdicts(group, monkeypatch)
    assert all(holders == bits for holders, bits in verdicts)
    rejected = sum(holders != "closed" for holders, _ in verdicts)
    assert (len(verdicts), rejected) == (96, 53)


def _fresh(group, subs):
    # new handles of the same subgroups, with no generators cached on them
    return [SubgroupRef(group, k.member_ids) for k in subs]


def test_greedy_generators_refuse_a_family_other_than_the_whole_lattice(
        corpus):
    # an interval [H, G] with H != 1 and the lattice without G are refused
    # outright, before any item's generators are stored
    for name, group, subs in corpus:
        h = next(k for k in subs if k.order > 1)
        for family in (overgroup_interval(group, h),
                       [k for k in subs if k.order < group.order]):
            lattice = subgroup_lattice(_fresh(group, family))
            with pytest.raises(RuntimeError, match=r"\[1, G\] only"):
                store_greedy_generators(
                    lattice, identities._holders(lattice.items))
            assert all(k._gens is None for k in lattice.items), name


def test_greedy_generators_check_where_each_chain_ends(corpus):
    # with one item dropped, some item's chain passes the gap and ends at a
    # larger subgroup; that raises before any generators are stored.  Not
    # every drop is caught, which is why the read runs on [1, G] alone
    caught = 0
    for name, group, subs in corpus:
        for dropped in subs[1:-1]:
            lattice = subgroup_lattice(_fresh(group, [
                k for k in subs if k is not dropped]))
            try:
                store_greedy_generators(
                    lattice, identities._holders(lattice.items))
            except RuntimeError as exc:
                assert "missed its subgroup" in str(exc)
                assert all(k._gens is None for k in lattice.items), name
                caught += 1
    assert caught > 0


def test_meet_certificate_needs_recorded_orbits():
    # a group whose whole lattice was never walked has no orbits to read
    group = closure(preset_generators("GL", 2, F3))
    lattice = subgroup_lattice([group.trivial_subgroup(),
                                group.full_subgroup()])
    for certify in _CERTIFICATES:
        with pytest.raises(RuntimeError, match="no class orbits recorded"):
            certify(group, lattice)
    assert group._meet_closed is None


def test_meet_check_runs_per_ideal_unless_the_lattice_is_certified(
        monkeypatch):
    # only the lattice the certificate ran on skips the per-ideal check: a
    # lattice built from the same subgroup list, and the lattice build_ideal
    # enumerates itself, are still checked ideal by ideal
    group = closure(preset_generators("GL", 2, F3))
    subs = overgroup_interval(group, group.trivial_subgroup())
    certified = subgroup_lattice(subs)
    _certify_by_holders(group, certified)
    assert group._meet_closed is certified
    own = subgroup_lattice(subs)
    validate = identities._validate_meets
    checked = []

    def counted(lattice, indices):
        checked.append(lattice)
        return validate(lattice, indices)

    monkeypatch.setattr(identities, "_validate_meets", counted)
    for h in subs[:-1]:
        fam = stabilizer_family(group, h)
        ideal = build_ideal(fam, lattice=certified)
        assert checked == []
        assert build_ideal(fam, lattice=own).indices == ideal.indices
        assert [k.member_ids for k in build_ideal(fam).members] == [
            k.member_ids for k in ideal.members]
        assert checked[0] is own and checked[1] is not certified
        checked.clear()


def test_ideal_reads_supplied_lattice_without_building_a_poset(gl23,
                                                              monkeypatch):
    # given the run's lattice, the ideal is a mask over it and no second
    # order is built
    lattice = subgroup_lattice(overgroup_interval(gl23,
                                                  gl23.trivial_subgroup()))

    def no_poset(*args):
        raise AssertionError("build_ideal built a poset")

    monkeypatch.setattr(FinitePoset, "__init__", no_poset)
    for h in lattice.items[:-1]:
        ideal = build_ideal(stabilizer_family(gl23, h), lattice=lattice)
        assert ideal.lattice is lattice


def test_ideal_minimum_check_rejects_missing_subgroup(gl22):
    # a supplied lattice without H must fail closed, not report a value
    h = gl22.trivial_subgroup()
    fam = stabilizer_family(gl22, h)
    subs = overgroup_interval(gl22, h)
    short = subgroup_lattice([k for k in subs if k != h])
    with pytest.raises(SubgroupNotContained):
        build_ideal(fam, lattice=short)


def test_complexes_for_trivial_subgroup_gl22(gl22):
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    cx1, cx2 = build_complexes(fam)
    for cx in (cx1, cx2):
        assert len(cx.vertices) == 3
        assert euler(cx).chi_reduced == 2
        assert euler(cx).face_counts == (3,)


def test_identity_report_gl22_trivial(gl22):
    rep = verify_identities(gl22, gl22.trivial_subgroup(),
                            with_decomposition=True)
    assert rep.values() == (-2, -2, -2, -2, -2)
    assert rep.all_equal
    assert rep.mu_full == 3
    assert rep.decomposition_residual == 0


def test_identity_report_irreducible(gl22):
    c3 = find_subgroup(gl22, 3)
    rep = verify_identities(gl22, c3)
    assert rep.values() == (1, 1, 1, 1, 1)


def test_identity_report_diag_gl23(gl23):
    h = diag_subgroup(gl23)
    rep = verify_identities(gl23, h, with_decomposition=True)
    assert rep.all_equal
    assert rep.mu_ideal == 0  # the claimed vanishing instance at (n,q,m)=(2,3,1)
    assert rep.decomposition_residual == 0


def test_identity_report_rejects_full_subgroup(gl22):
    with pytest.raises(ValueError):
        verify_identities(gl22, gl22.full_subgroup())


def test_mobius_between_endpoints_equal(gl22):
    full = gl22.full_subgroup()
    assert mobius_between(gl22, full, full) == 1


def test_mobius_trivial_to_full_gl22(gl22):
    # recursion over all six subgroups: 1 - 3*1 - 1 reversed gives 3
    assert mobius_between(gl22, gl22.trivial_subgroup()) == 3


def test_mobius_matches_divisor_lattice_for_scalar_cyclics():
    # scalar matrices diag(g, g) generate a cyclic group; mu(1, C_n) must
    # agree with the number-theoretic value: mu(4) = 0, mu(6) = 1
    f5 = FqField(5)
    c4 = closure([Matrix.from_rows(f5, [[2, 0], [0, 2]])])
    assert c4.order == 4
    assert mobius_between(c4, c4.trivial_subgroup()) == 0
    f7 = FqField(7)
    c6 = closure([Matrix.from_rows(f7, [[3, 0], [0, 3]])])
    assert c6.order == 6
    assert mobius_between(c6, c6.trivial_subgroup()) == 1


def test_singer_cycle_gl25_closed_forms():
    # the companion matrix of x^2 - x + 2 over GF(5); order 24 = 5^2 - 1
    # makes the polynomial primitive, so G is cyclic and irreducible, and
    # mu(H, G) is the number-theoretic mu(|G : H|) (Hall, 1936)
    f5 = FqField(5)
    group = closure([Matrix.from_rows(f5, [[0, 1], [3, 1]])])
    assert group.order == 24
    assert is_irreducible(group)
    subs = overgroup_interval(group, group.trivial_subgroup())
    assert [h.order for h in subs] == [1, 2, 3, 4, 6, 8, 12, 24]
    for h in subs[:-1]:
        report = verify_identities(group, h, with_decomposition=True)
        assert report.all_equal, h.order
        assert report.mu_full == moebius_number_theoretic(24 // h.order), \
            h.order
    # the order-3 subgroup fixes no line, so its ideal is empty and the
    # ideal with G adjoined is the chain {H, G}
    c3 = subs[2]
    assert stabilizer_family(group, c3).pairs == ()
    report = verify_identities(group, c3)
    assert report.mu_ideal == -1
    assert report.subspace_sum == report.stabilizer_sum == 1


def test_klein_four_mobius_in_gl23(gl23):
    gens = [Matrix.from_rows(F3, [[2, 0], [0, 1]]),
            Matrix.from_rows(F3, [[1, 0], [0, 2]])]
    klein = gl23.subgroup_closure([gl23.index_of(g) for g in gens])
    assert klein.order == 4
    # hand recursion inside [1, V]: mu(1,1)=1, three mu(1,C2)=-1, so mu=2
    assert mobius_between(gl23, gl23.trivial_subgroup(), klein) == 2


def test_residual_zero_for_gl22_trivial(gl22):
    # mu(1,G)=3, mu_ideal=2 and the lone non-ideal proper overgroup is the
    # irreducible C3 with mu(1,C3)=-1: 3 - 2 + (-1) = 0
    rep = verify_identities(gl22, gl22.trivial_subgroup(),
                            with_decomposition=True)
    assert rep.decomposition_residual == 0
    subs = overgroup_interval(gl22, gl22.trivial_subgroup())
    fam = stabilizer_family(gl22, gl22.trivial_subgroup())
    ideal = build_ideal(fam)
    ideal_ids = {k.member_ids for k in ideal.members}
    outside = [s for s in subs
               if s.member_ids not in ideal_ids and 1 < s.order < gl22.order]
    assert [s.order for s in outside] == [3]


def test_residual_zero_for_irreducible(gl22):
    c3 = find_subgroup(gl22, 3)
    rep = verify_identities(gl22, c3, with_decomposition=True)
    assert rep.decomposition_residual == 0


def test_residuals_zero_on_small_sweeps(gl22, sl23):
    for group in (gl22, sl23):
        subs = overgroup_interval(group, group.trivial_subgroup())
        lattice = subgroup_lattice(subs)
        for h in subs:
            if h.order == group.order:
                continue
            rep = verify_identities(group, h, lattice=lattice,
                                    with_decomposition=True)
            assert rep.decomposition_residual == 0


def _assert_order_matches_oracle(subgroups):
    lattice = subgroup_lattice(subgroups)
    oracle = containment_order(subgroups)
    assert lattice.items == oracle.items
    assert lattice.up == oracle.up


def test_whole_lattice_rows_share_their_int_objects(gl25):
    # past the small-int cache, equal entries of different rows are one
    # object: the rows of a lattice hold about one pointer per relation
    lattice = subgroup_lattice(
        overgroup_interval(gl25, gl25.trivial_subgroup()))
    assert lattice.size > 256
    seen = {}
    for row in lattice.up:
        assert all(seen.setdefault(j, j) is j for j in row)
    assert lattice.up[0][-1] is lattice.up[-1][0] == lattice.size - 1


def test_whole_lattice_order_matches_pairwise_order(corpus, gl25):
    # the order read off element membership equals the order from comparing
    # every pair of member sets, on each corpus group and GL(2,5)
    for _, group, subs in corpus:
        _assert_order_matches_oracle(subs)
    _assert_order_matches_oracle(overgroup_interval(gl25,
                                                    gl25.trivial_subgroup()))


@pytest.mark.parametrize("seed", range(4))
def test_subfamily_orders_match_pairwise_order(gl25, gl33_union_families,
                                               seed):
    # any family, passed in any order: an up-row is read off the holders of
    # the item's rarest member, so families lacking the trivial subgroup or
    # G, whose every member set may be rare, must give the same rows.  The
    # families are drawn from the whole lattice of GL(2,5) and from each
    # union lattice that build_ideal builds for the ideal-gl33 subgroups
    subs = overgroup_interval(gl25, gl25.trivial_subgroup())
    assert (subs[0].order, subs[-1].order) == (1, gl25.order)
    rng = random.Random(seed)
    for subs in [subs, *gl33_union_families]:
        families = [[], [subs[-1]], subs[1:], subs[:-1], subs[1:-1]]
        families += [rng.sample(subs, min(size, len(subs)))
                     for size in (1, 2, 7, 60, 300)]
        families += [rng.sample(subs[1:-1], min(size, len(subs) - 2))
                     for size in (3, 40, 200)]
        for family in families:
            family = list(family)
            rng.shuffle(family)
            _assert_order_matches_oracle(family)


@pytest.mark.slow
def test_slow_gl33_order_build_peaks_near_what_it_keeps(gl33):
    # the build's transient memory stays below 2.5x the memory it keeps:
    # an N-bit mask per element peaked at 4.4x on GL(3,3)
    subs = overgroup_interval(gl33, gl33.trivial_subgroup())
    tracemalloc.start()
    try:
        lattice = subgroup_lattice(subs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lattice.size == 21_731
    assert peak < 2.5 * kept, (peak, kept)


@pytest.fixture(scope="module")
def gl33():
    return closure(preset_generators("GL", 3, F3))


_GL33_TORUS = [[[2, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
               [[1, 0, 0], [0, 1, 0], [0, 0, 2]]]
_GL33_E12 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
_GL33_E23 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]


# the five subgroups H of the ideal-gl33 benchmark workload
_GL33_UNION_GENERATORS = {
    "upper-borel": _GL33_TORUS + [_GL33_E12, _GL33_E23],
    "gl23-plus-1": [_GL33_E12, [[0, 1, 0], [2, 0, 0], [0, 0, 1]],
                    _GL33_TORUS[0]],
    "torus-swap": _GL33_TORUS + [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
    "diagonal-torus": _GL33_TORUS,
    "upper-unitriangular": [_GL33_E12, _GL33_E23],
}


def _gl33_union_family(gl33, gens):
    """The lattice build_ideal builds without a whole lattice: H and the
    intervals [H, M] up to each stabilizer M, sorted by ``sort_key``."""
    h = gl33.subgroup_closure([gl33.index_of(Matrix.from_rows(F3, rows))
                               for rows in gens])
    fam = stabilizer_family(gl33, h)
    return sorted({h}.union(*(overgroup_interval(gl33, h, top=m)
                              for m in fam.distinct_stabilizers)),
                  key=SubgroupRef.sort_key)


@pytest.fixture(scope="module")
def gl33_union_families(gl33):
    return [_gl33_union_family(gl33, gens)
            for gens in _GL33_UNION_GENERATORS.values()]


@pytest.mark.parametrize("name", list(_GL33_UNION_GENERATORS))
def test_interval_lattice_order_matches_pairwise_order_gl33(gl33, name):
    _assert_order_matches_oracle(
        _gl33_union_family(gl33, _GL33_UNION_GENERATORS[name]))


def test_two_item_interval_order_matches_pairwise_order():
    # the upper Borel subgroup of GL(2,7) and the whole group
    f7 = FqField(7)
    g = closure(preset_generators("GL", 2, f7))
    borel = g.subgroup_closure([g.index_of(Matrix.from_rows(f7, rows))
                                for rows in ([[1, 1], [0, 1]], [[3, 0], [0, 1]],
                                             [[1, 0], [0, 3]])])
    subs = overgroup_interval(g, borel)
    assert len(subs) == 2
    _assert_order_matches_oracle(subs)


@pytest.mark.slow
@pytest.mark.parametrize("kind,p,u", [("SL", 3, 2), ("GL", 7, 1)],
                         ids=["SL(2,9)", "GL(2,7)"])
def test_slow_whole_lattice_order_matches_pairwise_order(kind, p, u):
    g = closure(preset_generators(kind, 2, FqField(p, u)))
    _assert_order_matches_oracle(overgroup_interval(g, g.trivial_subgroup()))


@pytest.mark.slow
@pytest.mark.parametrize("kind,n,p,relations", [("SL", 3, 3, 144_531),
                                                ("GL", 3, 3, 855_625),
                                                ("GL", 4, 2, 1_988_859)],
                         ids=["SL(3,3)", "GL(3,3)", "GL(4,2)"])
def test_slow_whole_lattice_order_relation_counts(kind, n, p, relations):
    # regression pins, not published values: the number of pairs K <= L
    # in the whole lattice, equal across every build of the order so far;
    # the pairwise oracle is too slow at these sizes
    g = closure(preset_generators(kind, n, FqField(p)))
    lattice = subgroup_lattice(overgroup_interval(g, g.trivial_subgroup()))
    assert sum(map(len, lattice.up)) == relations


@pytest.mark.slow
@pytest.mark.parametrize("kind,n,p,u", [("GL", 2, 7, 1), ("SL", 2, 3, 2),
                                        ("SL", 3, 3, 1), ("GL", 3, 3, 1)],
                         ids=["GL(2,7)", "SL(2,9)", "SL(3,3)", "GL(3,3)"])
def test_slow_lattice_passes_meet_certificate(kind, n, p, u):
    group = closure(preset_generators(kind, n, FqField(p, u)))
    lattice = subgroup_lattice(overgroup_interval(group,
                                                  group.trivial_subgroup()))
    _certify_by_holders(group, lattice)
    assert group._meet_closed is lattice


@pytest.mark.slow
def test_slow_meet_certificate_agrees_with_oracle_on_sl33_short_lattices(
        monkeypatch):
    # each of the 51 lattices of SL(3,3) with one whole class dropped: the
    # holder certificate and the |G|-bit oracle give the same verdict
    group = closure(preset_generators("SL", 3, FqField(3)))
    verdicts = _one_class_short_verdicts(group, monkeypatch)
    assert len(verdicts) == 51
    assert all(holders == bits for holders, bits in verdicts)


@pytest.mark.slow
def test_slow_gl27_rows_on_certified_and_uncertified_lattices():
    # every row of GL(2,7) read off the certified lattice, which skips the
    # per-ideal meet check, equals the row read off a lattice built from
    # the same subgroup list, which runs it
    group = closure(preset_generators("GL", 2, FqField(7)))
    subs = overgroup_interval(group, group.trivial_subgroup())
    certified = subgroup_lattice(subs)
    _certify_by_holders(group, certified)
    uncertified = subgroup_lattice(subs)
    for h in subs[:-1]:
        rows = [verify_identities(group, h, lattice=lattice,
                                  with_decomposition=True).to_dict()
                for lattice in (certified, uncertified)]
        assert rows[0] == rows[1], h.order
