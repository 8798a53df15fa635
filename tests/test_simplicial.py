import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobius_lattice.errors import NotDownwardClosed
from mobius_lattice.poset import FinitePoset, mobius_row
from mobius_lattice.simplicial import (
    SimplicialComplex,
    complex_from_faces,
    euler,
)

from helpers import (
    adjoin_bounds,
    closed_complex,
    face_alternating_sum,
    face_sets,
    order_complex,
    random_poset,
)


def test_empty_face_only_complex():
    c = closed_complex([], [()])
    assert c.faces == frozenset({0})
    report = euler(c)
    assert report.chi == 0
    assert report.chi_reduced == -1
    assert face_alternating_sum(c) == 1


def test_truly_empty_complex():
    c = closed_complex([], [])
    assert c.is_empty()
    assert euler(c).chi_reduced == 0


def test_full_triangle():
    c = closed_complex("abc", [("a", "b", "c")])
    assert len(c.faces) == 8
    report = euler(c)
    assert report.face_counts == (3, 3, 1)
    assert report.chi == 1
    assert report.chi_reduced == 0
    assert face_alternating_sum(c) == 0


def test_strict_mode_rejects_gaps():
    with pytest.raises(NotDownwardClosed):
        complex_from_faces("ab", [0b11])


def test_complex_from_faces_rejects_vertex_without_singleton():
    with pytest.raises(NotDownwardClosed, match="no singleton face"):
        complex_from_faces("ab", [0, 0b01])


def test_strict_mode_accepts_closed_family():
    family = [0, 0b01, 0b10, 0b11]
    c = complex_from_faces("ab", family)
    assert len(c.faces) == 4


def test_complex_keeps_a_frozenset_family_as_given():
    # one face container: no copy in the complex or in its validating build
    family = frozenset({0, 0b01, 0b10, 0b11})
    assert SimplicialComplex("ab", family).faces is family
    assert complex_from_faces("ab", family).faces is family


@pytest.mark.parametrize("mask", [-1, 0b100, 0b111])
def test_complex_from_faces_rejects_mask_outside_vertices(mask):
    # bit 2 names no vertex of "ab"; a negative mask names infinitely many
    with pytest.raises(ValueError, match="names no subset of 2 vertices"):
        complex_from_faces("ab", [0, 0b01, 0b10, 0b11, mask])


def test_three_isolated_vertices():
    c = closed_complex("abc", [("a",), ("b",), ("c",)])
    report = euler(c)
    assert report.chi == 3
    assert report.chi_reduced == 2
    assert face_alternating_sum(c) == -2


def test_triangle_boundary():
    c = closed_complex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    report = euler(c)
    assert report.chi == 0
    assert report.chi_reduced == -1


@given(st.integers(min_value=1, max_value=5), st.data())
def test_alternating_sum_plus_chi_is_one(nverts, data):
    vertices = list(range(nverts))
    nfaces = data.draw(st.integers(min_value=1, max_value=6))
    family = [data.draw(st.lists(st.sampled_from(vertices), max_size=nverts))
              for _ in range(nfaces)]
    c = closed_complex(vertices, family)
    assert face_alternating_sum(c) + euler(c).chi == 1


def test_downward_closure_holds_for_constructed_complexes():
    rng = random.Random(31)
    for _ in range(50):
        nverts = rng.randint(1, 6)
        family = [rng.sample(range(nverts), rng.randint(0, nverts))
                  for _ in range(rng.randint(1, 5))]
        c = closed_complex(range(nverts), family)
        for mask in c.faces:
            sub = mask
            while sub:
                low = sub & -sub
                assert (mask & ~low) in c.faces or mask == low
                sub &= sub - 1
            assert (mask & (mask - 1)) in c.faces or mask.bit_count() <= 1


def test_order_complex_of_antichain():
    p = FinitePoset.from_leq(["a", "b"], lambda a, b: a == b)
    c = order_complex(p)
    assert euler(c).face_counts == (2,)
    assert euler(c).chi_reduced == 1


def test_order_complex_of_two_chain():
    p = FinitePoset.from_leq([0, 1], lambda a, b: a <= b)
    c = order_complex(p)
    assert euler(c).face_counts == (2, 1)
    assert euler(c).chi_reduced == 0


def test_order_complex_of_empty_poset_keeps_empty_face():
    p = FinitePoset.from_leq([], lambda a, b: True)
    c = order_complex(p)
    assert c.faces == frozenset({0})
    assert euler(c).chi_reduced == -1


def test_antichain_mobius_equals_reduced_chi():
    p = FinitePoset.from_leq(["a", "b"], lambda a, b: a == b)
    bounded = adjoin_bounds(p)
    mu = mobius_row(bounded.base, bounded.bottom)[bounded.top]
    assert mu == euler(order_complex(p)).chi_reduced == 1


def test_bounded_mobius_matches_order_complex_on_random_posets():
    rng = random.Random(2718)
    for _ in range(100):
        p = random_poset(rng, 10)
        bounded = adjoin_bounds(p)
        mu = mobius_row(bounded.base, bounded.bottom)[bounded.top]
        assert mu == euler(order_complex(p)).chi_reduced


def test_face_lists_dump():
    c = closed_complex("ab", [("a", "b")])
    dump = c.face_lists()
    assert dump == {-1: [[]], 0: [["a"], ["b"]], 1: [["a", "b"]]}


def test_face_sets_sorted():
    c = closed_complex("ba", [("b", "a")])
    sets = face_sets(c)
    assert sets[0] == ()
    assert len(sets) == 4
