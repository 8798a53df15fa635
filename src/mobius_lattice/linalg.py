"""Row-vector linear algebra over GF(q): matrices, canonical subspaces,
subspace enumeration and invariant subspaces.

Vectors are rows and matrices act on the right (w -> w*g), so the stabilizer
condition for a subspace W is W*g = W.  A subspace is represented by the
reduced row echelon form of a row basis, which is the unique canonical
representative; equality and hashing go through it.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, product
from typing import Callable, Iterable, Optional, Sequence

from .errors import AmbientMismatch, SingularElement, TooManySubspaces
from .gfq import SUBSPACE_CAP, FqField


def _coerce_row(field: FqField, row) -> tuple:
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"expected a list of entries for a row, got {row!r}")
    return tuple(field.index(v) for v in row)


class Matrix:
    """Immutable matrix with entries stored as field element indices."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: FqField, nrows: int, ncols: int, data: tuple):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data

    @classmethod
    def from_rows(cls, field: FqField, rows: Sequence[Sequence]) -> "Matrix":
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"expected a list of rows for a matrix, got {rows!r}")
        rows = [_coerce_row(field, r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, tuple(v for r in rows for v in r))

    @classmethod
    def identity(cls, field: FqField, n: int) -> "Matrix":
        one = field._one_index
        return cls(field, n, n,
                   tuple(one if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i: int) -> tuple:
        return self.data[i * self.ncols:(i + 1) * self.ncols]

    def rows(self) -> list:
        return [self.row(i) for i in range(self.nrows)]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise AmbientMismatch("matrix shapes or fields do not match")
        mul, add = self.field._mul, self.field._add
        n, k, m = self.nrows, self.ncols, other.ncols
        a, b = self.data, other.data
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                acc = 0
                for t in range(k):
                    x = arow[t]
                    if x:
                        acc = add[acc][mul[x][b[t * m + j]]]
                out.append(acc)
        return Matrix(self.field, n, m, tuple(out))

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            return False
        reduced, pivots = _rref(self.field, self.rows(), self.ncols)
        return len(pivots) == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularElement("only square matrices can be inverted")
        n = self.ncols
        one = self.field._one_index
        aug = [self.row(i) + tuple(one if j == i else 0 for j in range(n))
               for i in range(n)]
        reduced, pivots = _rref(self.field, aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) != n:
            raise SingularElement("matrix is singular")
        return Matrix(self.field, n, n, tuple(v for r in reduced for v in r[n:]))

    def to_lists(self) -> list:
        """Nested lists of canonical residues (coefficient lists when u > 1)."""
        u = self.field.u
        out = []
        for i in range(self.nrows):
            row = []
            for v in self.row(i):
                rep = self.field.rep(v)
                row.append(rep if u == 1 else list(rep))
            out.append(row)
        return out

    def _key(self):
        return (self.nrows, self.ncols, self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self._key() == other._key())

    def __lt__(self, other: "Matrix") -> bool:
        return self._key() < other._key()

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.to_lists()} over {self.field!r})"


def apply_row(field: FqField, vec: tuple, m: Matrix) -> tuple:
    """Right action of a matrix on a row vector of element indices."""
    mul, add = field._mul, field._add
    ncols = m.ncols
    data = m.data
    out = [0] * ncols
    for i, x in enumerate(vec):
        if x:
            base = i * ncols
            for j in range(ncols):
                y = data[base + j]
                if y:
                    out[j] = add[out[j]][mul[x][y]]
    return tuple(out)


def _rref(field: FqField, rows: Iterable[tuple], ncols: int):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mul, add, neg, inv = field._mul, field._add, field._neg, field._inv
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = inv[work[r][c]]
        if scale != field._one_index:
            work[r] = [mul[scale][x] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row_r = work[r]
                work[i] = [add[x][neg[mul[f][y]]] for x, y in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rref(m: Matrix) -> Matrix:
    reduced, _ = _rref(m.field, m.rows(), m.ncols)
    reduced += [(0,) * m.ncols] * (m.nrows - len(reduced))
    return Matrix(m.field, m.nrows, m.ncols, tuple(v for r in reduced for v in r))


def _kernel(field: FqField, rows: list, ncols: int) -> list:
    """Basis of {x : M x^T = 0} as rows, from the RREF of M."""
    reduced, pivots = _rref(field, rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    neg = field._neg
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = field._one_index
        for i, p in enumerate(pivots):
            vec[p] = neg[reduced[i][f]]
        basis.append(tuple(vec))
    return basis


class Subspace:
    """Subspace of GF(q)^n, canonical as the RREF of a row basis."""

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: FqField, ambient_dim: int, rows: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_vectors(cls, field: FqField, ambient_dim: int,
                     vectors: Sequence[Sequence]) -> "Subspace":
        rows = [_coerce_row(field, v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise AmbientMismatch("vector length differs from ambient dimension")
        reduced, _ = _rref(field, rows, ambient_dim)
        return cls(field, ambient_dim, tuple(reduced))

    @classmethod
    def zero(cls, field: FqField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: FqField, ambient_dim: int) -> "Subspace":
        one = field._one_index
        return cls(field, ambient_dim,
                   tuple(tuple(one if i == j else 0 for j in range(ambient_dim))
                         for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, vec: Sequence) -> bool:
        """True iff the vector lies in this subspace.  Its entries are field
        values, read as ``from_vectors`` reads them, whatever the container."""
        return self._contains_indices(_coerce_row(self.field, vec))

    def _contains_indices(self, vec: tuple) -> bool:
        """``contains_vector`` for a vector of field indices."""
        v = list(vec)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        mul, add, neg = self.field._mul, self.field._add, self.field._neg
        for row in self.rows:
            lead = next(i for i, x in enumerate(row) if x)
            f = v[lead]
            if f:
                v = [add[x][neg[mul[f][y]]] for x, y in zip(v, row)]
        return not any(v)

    def __le__(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other._contains_indices(r) for r in self.rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        reduced, _ = _rref(self.field, list(self.rows) + list(other.rows),
                           self.ambient_dim)
        return Subspace(self.field, self.ambient_dim, tuple(reduced))

    def annihilator(self) -> "Subspace":
        """The dual space {x : w . x = 0 for all w in self}, as rows."""
        basis = _kernel(self.field, list(self.rows), self.ambient_dim)
        reduced, _ = _rref(self.field, basis, self.ambient_dim)
        return Subspace(self.field, self.ambient_dim, tuple(reduced))

    def __and__(self, other: "Subspace") -> "Subspace":
        # intersection through duality: (A ^ B) = (A* + B*)*
        self._check_ambient(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def apply(self, m: Matrix) -> "Subspace":
        """Canonical image W*m under the right action."""
        if m.field != self.field or m.nrows != self.ambient_dim:
            raise AmbientMismatch("matrix does not act on this ambient space")
        image = [apply_row(self.field, r, m) for r in self.rows]
        reduced, _ = _rref(self.field, image, m.ncols)
        return Subspace(self.field, m.ncols, tuple(reduced))

    def sort_key(self):
        return (self.dim, self.rows)

    def __lt__(self, other: "Subspace") -> bool:
        return self.sort_key() < other.sort_key()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def label(self) -> str:
        """Compact deterministic label for dumps and reports."""
        if self.is_zero():
            return "0"
        body = ";".join(",".join(str(self.field.rep(v)) for v in row)
                        for row in self.rows)
        return f"span[{body}]"

    def __repr__(self) -> str:
        return f"Subspace({self.label()} in GF({self.field.q})^{self.ambient_dim})"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(field: FqField, n: int, k: Optional[int] = None,
                        cap: int = SUBSPACE_CAP) -> list:
    """All subspaces of GF(q)^n (of dimension k if given), each exactly once.

    Subspaces are produced directly in canonical RREF form: for every pivot
    column set the free entries run through all field values in index order,
    so the output order is deterministic.
    """
    dims = range(n + 1) if k is None else [k]
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"dimension {k} out of range for ambient {n}")
    total = sum(gaussian_binomial(n, d, field.q) for d in dims)
    if total > cap:
        raise TooManySubspaces(f"{total} subspaces exceed cap {cap}")
    out = []
    for d in dims:
        for pivots in combinations(range(n), d):
            pivot_set = set(pivots)
            free = [(i, j) for i in range(d)
                    for j in range(pivots[i] + 1, n) if j not in pivot_set]
            for values in product(range(field.q), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field._one_index
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append(Subspace(field, n, tuple(tuple(r) for r in rows)))
    return out


def invariant_subspaces(matrices: Sequence[Matrix], n: Optional[int] = None,
                        proper_nontrivial: bool = False,
                        cap: int = SUBSPACE_CAP) -> list:
    """Subspaces W with W*g = W for every supplied matrix.

    Checking the given matrices suffices for a generating set: the action
    preserves dimension, so invariance under generators extends to the group
    they generate.  With the flag set, 0 and the full space are removed.
    The result is a new list in canonical order (``Subspace.sort_key``).

    Each matrix is checked invertible, then the test is
    ``subspaces_fixed_by``'s, with the image of each distinct RREF row under
    each matrix formed once per call, since the subspaces share few rows.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix to fix the ambient space")
    field = matrices[0].field
    if n is None:
        n = matrices[0].ncols
    for m in matrices:
        if m.field != field or m.nrows != n or m.ncols != n:
            raise AmbientMismatch("matrices must be square over one field")
        if not m.is_invertible():
            raise SingularElement("invariant subspaces need invertible matrices")
    images = [lru_cache(maxsize=None)(partial(apply_row, field, m=m))
              for m in matrices]
    return subspaces_fixed_by(field, n, images, proper_nontrivial, cap)


def subspaces_fixed_by(field: FqField, n: int, images: Sequence[Callable],
                       proper_nontrivial: bool = False,
                       cap: int = SUBSPACE_CAP) -> list:
    """Subspaces W of GF(q)^n with W*g = W for each invertible g, given by
    its ``image``: the function taking a row vector r to r*g.  With the
    flag set, 0 and the full space are removed.  The result is a new list in
    canonical order (``Subspace.sort_key``).

    An invertible g keeps dim W, so W*g = W once the image of every RREF
    row of W lies in W; the caller vouches for invertibility.  Each
    candidate W is tested without row reduction: a vector u lies in W iff
    u = sum u[p] * r over W's RREF rows r, p the pivot column of r.  The
    image agrees with that sum at the pivots by construction, so only the
    free columns are compared.
    """
    subspaces, pivots = _sorted_subspaces(field, n, cap)
    mul, add = field._mul, field._add

    def invariant(w: Subspace, piv: tuple, free: tuple) -> bool:
        rows = w.rows
        for image in images:
            for r in rows:
                u = image(r)
                for j in free:
                    s = 0
                    for p, row in zip(piv, rows):
                        s = add[s][mul[u[p]][row[j]]]
                    if s != u[j]:
                        return False
        return True

    # 0 has no rows and the full space no free columns
    return [w for w, (piv, free) in zip(subspaces, pivots)
            if not (proper_nontrivial and not (w.rows and free))
            and invariant(w, piv, free)]


@lru_cache(maxsize=4)
def _sorted_subspaces(field: FqField, n: int, cap: int) -> tuple:
    """(subspaces, pivots), kept for later calls: every subspace of GF(q)^n
    in canonical order, and each one's (pivot columns, free columns): the
    columns where its RREF rows lead and the others."""
    subspaces = tuple(sorted(enumerate_subspaces(field, n, cap=cap),
                             key=Subspace.sort_key))
    pivots = []
    for w in subspaces:
        piv = tuple(row.index(next(filter(None, row))) for row in w.rows)
        pivots.append((piv, tuple(j for j in range(n) if j not in piv)))
    return subspaces, tuple(pivots)
