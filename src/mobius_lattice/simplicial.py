"""Abstract simplicial complexes and their Euler characteristics.

A complex is its face family: an indexed vertex tuple and one bitmask per
face, bit i standing for vertex i.  Faces are built, checked and counted as
those masks; vertex labels are read only when faces are dumped.  Two
degenerate complexes are kept distinct on purpose: the empty complex (no
faces at all, reduced Euler characteristic 0) and the complex whose only
face is the empty set (reduced Euler characteristic -1).  The second one
shows up naturally as the face family of a vertex-free identity instance
and must contribute an alternating face sum of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotDownwardClosed


def _bits(mask: int):
    """The set bits of a face mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class SimplicialComplex:
    """Explicit complex: an indexed vertex tuple plus a set of face masks."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices: Sequence, faces: Iterable[int]):
        self.vertices = tuple(vertices)
        self.faces = frozenset(faces)

    def is_empty(self) -> bool:
        return not self.faces

    def face_count(self) -> int:
        return len(self.faces)

    def face_lists(self) -> dict:
        """Deterministic dump: faces per dimension as lists of vertex labels."""
        by_dim: dict = {}
        for mask in self.faces:
            labels = sorted(str(self.vertices[i]) for i in _bits(mask))
            by_dim.setdefault(len(labels) - 1, []).append(labels)
        return {dim: sorted(faces) for dim, faces in sorted(by_dim.items())}

    def __repr__(self) -> str:
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.faces)} faces)")


def complex_from_faces(vertices: Sequence,
                       faces: Iterable[int]) -> SimplicialComplex:
    """Build a complex from a family of faces given as masks over
    ``vertices``, bit i standing for ``vertices[i]``.

    The family must already be closed under taking subsets and hold every
    vertex as a singleton face: it is a complex by construction wherever it
    is built, so a gap means a bug upstream and is rejected, never repaired.
    A negative mask, or one naming a vertex past the tuple, is a ValueError.
    """
    vertices = tuple(vertices)
    # the complex keeps this frozenset itself: frozenset(masks) is masks
    masks = frozenset(faces)
    for mask in masks:
        if mask < 0 or mask >> len(vertices):
            raise ValueError(f"face mask {mask} names no subset of "
                             f"{len(vertices)} vertices")
        # every face minus any one of its vertices, lowest bit first
        rest = mask
        while rest:
            low = rest & -rest
            if mask ^ low not in masks:
                raise NotDownwardClosed(f"face {mask:b} lacks a subset")
            rest ^= low
    for i in range(len(vertices)):
        if (1 << i) not in masks:
            raise NotDownwardClosed(
                f"vertex {vertices[i]!r} has no singleton face")
    return SimplicialComplex(vertices, masks)


@dataclass(frozen=True)
class EulerReport:
    """Face counts per dimension i >= 0 plus both characteristics."""

    face_counts: tuple
    chi: int
    chi_reduced: int


def euler(c: SimplicialComplex) -> EulerReport:
    """Exact Euler characteristic and its reduced variant.

    The empty complex has chi = 0 and reduced 0; any nonempty complex (even
    one whose only face is the empty set) has reduced chi = chi - 1.
    """
    counts: dict = {}
    for mask in c.faces:
        dim = mask.bit_count() - 1
        if dim >= 0:
            counts[dim] = counts.get(dim, 0) + 1
    top = max(counts) if counts else -1
    face_counts = tuple(counts.get(i, 0) for i in range(top + 1))
    chi = sum((-1) ** i * f for i, f in enumerate(face_counts))
    chi_reduced = 0 if c.is_empty() else chi - 1
    return EulerReport(face_counts, chi, chi_reduced)
