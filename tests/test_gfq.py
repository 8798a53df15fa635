import itertools
import time

import pytest

from mobius_lattice.errors import (
    NonPrimeCharacteristic,
    ReducibleModulus,
    TableTooLarge,
    UnsupportedExtension,
)
from mobius_lattice import gfq
from mobius_lattice.gfq import FqField, primitive_element

ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
         (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]


def test_prime_field_elements():
    f3 = FqField(3)
    assert [f3.rep(i) for i in range(f3.q)] == [0, 1, 2]
    assert f3.q == 3 and f3.p == 3 and f3.u == 1


@pytest.mark.parametrize("p,u", [(3, 1), (2, 2), (3, 2), (2, 3)])
def test_index_and_rep_round_trip(p, u):
    field = FqField(p, u)
    assert [field.index(field.rep(i)) for i in range(field.q)] \
        == list(range(field.q))
    # a residue names the constant coefficient in every field
    assert field.index(1) == field._one_index


def test_gf4_modulus_has_no_root_in_gf2():
    # independent irreducibility oracle for x^2 + x + 1: evaluate at 0 and 1
    coeffs = [1, 1, 1]
    for x in (0, 1):
        assert sum(c * x ** i for i, c in enumerate(coeffs)) % 2 != 0
    f4 = FqField(2, 2, coeffs)
    assert f4.q == 4


def test_composite_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        FqField(4)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        FqField(2, 2, [1, 0, 1])


def test_prime_field_modulus_must_have_degree_one():
    # a modulus of degree 2 over GF(2) names GF(4), not the prime field
    with pytest.raises(ReducibleModulus):
        FqField(2, 1, [1, 1, 1])
    # x + 1 over GF(3): the quotient is GF(3) itself
    assert FqField(3, 1, [1, 1]) == FqField(3)


def test_field_cap_checked_before_primality(monkeypatch):
    # the cap on q^2 table entries comes first, so a huge characteristic
    # fails at once instead of in a trial division up to its square root
    def no_primality_test(p):
        raise AssertionError("primality tested before the cap")

    monkeypatch.setattr(gfq, "SUBSPACE_CAP", 100)
    monkeypatch.setattr(gfq, "_smallest_prime_factor", no_primality_test)
    with pytest.raises(TableTooLarge, match=r"GF\(11\) needs 121 table "
                                            r"entries, over subspace cap 100"):
        FqField(11)


@pytest.mark.parametrize("make", [lambda: FqField(2, 10 ** 9),
                                  lambda: FqField.from_dict(
                                      {"p": 2, "u": 10 ** 9})],
                         ids=["init", "from_dict"])
def test_long_extension_fails_before_its_order_is_formed(make):
    # q >= 2**u, so u alone rejects GF(2^(10^9)); forming 2**(10**9) and
    # its square would take seconds and a 125 MB int before failing
    start = time.perf_counter()
    with pytest.raises(TableTooLarge, match=r"more than 1000000000 bits.*"
                                            r"subspace cap 1000000"):
        make()
    assert time.perf_counter() - start < 1


def test_missing_modulus_for_unknown_extension():
    with pytest.raises(UnsupportedExtension):
        FqField(7, 2)


def test_gf3_product():
    f3 = FqField(3)
    two = f3.index(2)
    assert f3.rep(f3._mul[two][two]) == 1


def test_gf4_x_squared():
    # x * x reduces to x + 1 modulo x^2 + x + 1
    f4 = FqField(2, 2)
    x = f4.index([0, 1])
    assert f4.rep(f4._mul[x][x]) == (1, 1)


def test_gf5_inverse():
    f5 = FqField(5)
    assert f5.rep(f5._inv[f5.index(2)]) == 3


@pytest.mark.parametrize("value", ["a", 1.5, True, [1], [0, 1, 0],
                                   [0, True], None])
def test_element_rejects_non_integer_entries(value):
    # GF(4) entries are integers or lists of 2 integer coefficients
    with pytest.raises(ValueError, match="expected an integer or a list of "
                                         "2 integers"):
        FqField(2, 2).index(value)


@pytest.mark.parametrize("p,u", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, u):
    # associativity, commutativity, distributivity on all triples for q <= 9
    field = FqField(p, u)
    add, mul = field._add, field._mul
    for a, b, c in itertools.product(range(field.q), repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("p,u", ALL_Q)
def test_inverses_exhaustive(p, u):
    field = FqField(p, u)
    for a in range(1, field.q):
        assert field._mul[a][field._inv[a]] == field._one_index


def _unit_order(field, a):
    # the least k >= 1 with a^k = 1, by repeated multiplication in the table
    k, cur = 1, a
    while cur != field._one_index:
        cur = field._mul[cur][a]
        k += 1
    return k


@pytest.mark.parametrize("p,u", ALL_Q)
def test_multiplicative_group_order(p, u):
    # every unit order divides q - 1 and some generator attains it
    field = FqField(p, u)
    orders = [_unit_order(field, a) for a in range(1, field.q)]
    assert all((field.q - 1) % k == 0 for k in orders)
    assert max(orders) == field.q - 1
    g = primitive_element(field)
    assert g == 1 + orders.index(field.q - 1)  # the smallest generator
    powers = set()
    cur = field._one_index
    for _ in range(field.q - 1):
        powers.add(cur)
        cur = field._mul[cur][g]
    assert len(powers) == field.q - 1


def test_config_round_trip():
    for spec in ({"p": 3, "u": 1}, {"p": 2, "u": 2, "modulus": [1, 1, 1]}):
        field = FqField.from_dict(spec)
        again = FqField.from_dict(field.to_dict())
        assert field == again


@pytest.mark.parametrize("spec,entry", [
    ({"p": 2, "u": True}, "field u is True"),
    ({"p": 3.0}, "field p is 3.0"),
    ({"p": 3, "u": "x"}, "field u is 'x'"),
    ({"u": 1}, "field p is None"),
    ({"p": 2, "u": 2, "modulus": "x"}, "field modulus is 'x'"),
    ({"p": 2, "u": 2, "modulus": [1, True, 1]}, "field modulus is"),
    ([3], "field is [3], not an object")])
def test_from_dict_names_the_bad_entry(spec, entry):
    # a bool is no int here: {"p": 2, "u": true} would otherwise be GF(2)
    with pytest.raises(ValueError) as info:
        FqField.from_dict(spec)
    assert str(info.value).startswith(entry)


def test_subtraction_and_pow():
    f7 = FqField(7)
    three, five = f7.index(3), f7.index(5)
    assert f7.rep(f7._add[three][f7._neg[five]]) == 5
    assert _unit_order(f7, three) == 6
