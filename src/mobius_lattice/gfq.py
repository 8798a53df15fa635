"""Exact arithmetic in GF(q), q = p**u, through precomputed index tables.

Every element of a field is identified by an index in 0..q-1; the index order
is the lexicographic order of coefficient vectors (low degree first), so index
0 is always the zero element.  All products and sums are table lookups, which
keeps the linear-algebra layer free of polynomial bookkeeping.  There is no
element object: ``FqField.index`` reads an input value (an integer residue,
or u coefficients for an extension) and ``FqField.rep`` writes an index back
out in the same form.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Optional, Sequence

from .errors import (
    NonPrimeCharacteristic,
    ReducibleModulus,
    TableTooLarge,
    UnsupportedExtension,
)

# the most subspaces, field-table entries or row vectors built in one go;
# larger inputs fail closed before anything is allocated
SUBSPACE_CAP = 10 ** 6

# Irreducible moduli (coefficients low degree first) for the extension orders
# shipped with the package; other extensions need an explicit modulus.
BUILTIN_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),      # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),         # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over GF(2)
    25: (2, 0, 1),        # x^2 + 2 over GF(5)
    27: (1, 2, 0, 1),     # x^3 + 2x + 1 over GF(3)
}


@lru_cache(maxsize=256)
def _smallest_prime_factor(n: int) -> int:
    """The smallest prime dividing n, and 1 for n = 1.  Cached: the
    subgroup searches ask it for a few dozen distinct indices and orders,
    each many times."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _check_table_cap(p: int, u: int = 1) -> None:
    """Fail closed when the q^2-entry tables of GF(q), q = p**u with p >= 2,
    exceed the cap; an unfactored q is passed as p with u = 1.

    q >= 2**u, so a u past the cap's bit length fails before p**u is
    formed, and a q past 64 bits is named by its bit length, never printed
    with its square."""
    if u >= SUBSPACE_CAP.bit_length():
        bits = f"more than {u}"
    else:
        q = p ** u
        if q * q <= SUBSPACE_CAP:
            return
        if q.bit_length() <= 64:
            raise TableTooLarge(f"GF({q}) needs {q * q} table entries, "
                                f"over subspace cap {SUBSPACE_CAP}")
        bits = q.bit_length()
    raise TableTooLarge(f"GF(q) with q of {bits} bits needs q^2 table "
                        f"entries, over subspace cap {SUBSPACE_CAP}")


def _trim(coeffs: Sequence[int]) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_rem(num: Sequence[int], den: Sequence[int], p: int) -> list:
    """Remainder of num mod den, coefficient lists low degree first, over GF(p)."""
    num = _trim(num)
    den = _trim(den)
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) >= len(den):
        factor = (num[-1] * inv_lead) % p
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        num = _trim(num)
    return num


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    deg = len(_trim(coeffs)) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            trial = []
            c = code
            for _ in range(d):
                trial.append(c % p)
                c //= p
            trial.append(1)
            if not _poly_rem(coeffs, trial, p):
                return False
    return True


def _is_integer(value) -> bool:
    # bool is an int subclass, but a JSON true is not a field entry
    return isinstance(value, int) and not isinstance(value, bool)


class FqField:
    """Arithmetic context for GF(q) with q = p**u.

    For u > 1 a modulus (degree-u irreducible polynomial over GF(p), given as
    a coefficient list starting with the constant term) is required unless the
    order has a built-in one.  Instances are immutable and safe to share.
    """

    __slots__ = ("p", "u", "q", "modulus", "_pows", "_add", "_mul", "_neg",
                 "_inv", "_one_index")

    def __init__(self, p: int, u: int = 1, modulus: Optional[Sequence[int]] = None):
        if u < 1:
            raise UnsupportedExtension(f"extension degree must be >= 1, got {u}")
        if p < 2:
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        _check_table_cap(p, u)
        q = p ** u
        if _smallest_prime_factor(p) != p:
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if modulus is None and u > 1:
            if q not in BUILTIN_MODULI:
                raise UnsupportedExtension(
                    f"no built-in modulus for q={q}; supply one explicitly")
            modulus = BUILTIN_MODULI[q]
        if modulus is not None:
            mod = [c % p for c in modulus]
            if len(_trim(mod)) - 1 != u:
                raise ReducibleModulus(
                    f"modulus must have degree {u}, got {_trim(mod)}")
        if u == 1:
            # GF(p)[x]/(a + bx) is GF(p) itself, with the same index order
            mod = None
        else:
            # normalise to a monic representative of the same ideal
            inv_lead = pow(mod[u], p - 2, p)
            mod = tuple((c * inv_lead) % p for c in mod[: u + 1])
            if not _is_irreducible(mod, p):
                raise ReducibleModulus(f"modulus {list(mod)} factors over GF({p})")
        self.p = p
        self.u = u
        self.q = q
        self.modulus = mod
        # index <-> coefficient vector: index = sum c_i * p**(u-1-i), so the
        # index order is the lexicographic order of (c_0, ..., c_{u-1})
        self._pows = tuple(p ** (u - 1 - i) for i in range(u))
        self._build_tables()

    def _coeffs(self, index: int) -> tuple:
        out = []
        for w in self._pows:
            out.append(index // w)
            index %= w
        return tuple(out)

    def _index(self, coeffs: Sequence[int]) -> int:
        return sum((c % self.p) * w for c, w in zip(coeffs, self._pows))

    def _build_tables(self) -> None:
        p, q, u = self.p, self.q, self.u
        vecs = [self._coeffs(i) for i in range(q)]
        add = []
        for a in vecs:
            add.append(tuple(self._index(tuple((x + y) % p for x, y in zip(a, b)))
                             for b in vecs))
        mul = []
        for a in vecs:
            row = []
            for b in vecs:
                if u == 1:
                    row.append((a[0] * b[0]) % p)
                else:
                    prod = _poly_rem(_poly_mul(list(a), list(b), p), self.modulus, p)
                    prod += [0] * (u - len(prod))
                    row.append(self._index(prod))
            mul.append(tuple(row))
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._neg = tuple(self._index(tuple((-c) % p for c in v)) for v in vecs)
        self._one_index = self._index((1,) + (0,) * (u - 1))
        one = self._one_index
        inv = [None] * q
        for i in range(1, q):
            for j in range(1, q):
                if mul[i][j] == one:
                    inv[i] = j
                    break
        self._inv = tuple(inv)

    # -- element access -----------------------------------------------------

    def index(self, value) -> int:
        """Index of an integer residue or of a list or tuple of u integer
        coefficients; ValueError names any other value."""
        if _is_integer(value):
            return self._index((value,) + (0,) * (self.u - 1))
        if (isinstance(value, (list, tuple)) and len(value) == self.u
                and all(map(_is_integer, value))):
            return self._index(value)
        raise ValueError(
            f"{value!r} is not an element of {self!r}: expected an integer "
            f"or a list of {self.u} integer{'s' if self.u > 1 else ''}")

    def rep(self, index: int):
        """Canonical residue of an index: an int for prime fields, a
        coefficient tuple else."""
        if self.u == 1:
            return index
        return self._coeffs(index)

    # -- config plumbing ----------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "FqField":
        """The field of a ``to_dict`` spec: an object whose ``p`` and ``u``
        (default 1) are ints and whose ``modulus``, when given, is a list of
        ints.  Any other spec is a ``ValueError`` naming the bad entry; a
        bool is not read as an int."""
        if not isinstance(spec, dict):
            raise ValueError(f"field is {spec!r}, not an object")
        p, u, modulus = spec.get("p"), spec.get("u", 1), spec.get("modulus")
        for name, value in (("p", p), ("u", u)):
            if type(value) is not int:
                raise ValueError(f"field {name} is {value!r}, not an integer")
        if modulus is not None and not (isinstance(modulus, list) and all(
                type(c) is int for c in modulus)):
            raise ValueError(
                f"field modulus is {modulus!r}, not a list of integers")
        return cls(p, u, modulus)

    def to_dict(self) -> dict:
        out = {"p": self.p, "u": self.u}
        if self.u > 1:
            out["modulus"] = list(self.modulus)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, FqField)
                and (self.p, self.u, self.modulus) == (other.p, other.u, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.u, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def primitive_element(field: FqField) -> int:
    """Index of the smallest element (in canonical index order) generating
    the unit group."""
    one, mul = field._one_index, field._mul
    for i in range(1, field.q):
        k, cur = 1, i
        while cur != one:
            cur = mul[cur][i]
            k += 1
        if k == field.q - 1:
            return i
    raise RuntimeError("no primitive element found; field tables are broken")
