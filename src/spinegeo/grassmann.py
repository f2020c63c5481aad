"""The ambient Grassmann space: k-subspaces as points, k-pencils as lines.

A k-pencil p(H, B) is the set of k-subspaces U with H < U < B, where
dim H = k-1 and dim B = k+1.  Every pencil extends uniquely to the star
[H) of all k-subspaces over H and to the top (B] of all k-subspaces
inside B; these are the two classes of maximal strong subspaces.

The spine space enumerates its own lines (`spine.SpineSpace`), so nothing
in the pipeline builds on this module.  It is the ambient-space oracle of
the tests: the spine's lines must be exactly the pencils of this space that
keep at least two proper points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import (
    FieldSpec,
    Subspace,
    contains,
    enumerate_between,
    enumerate_subspaces,
    full_subspace,
    zero_subspace,
)


@dataclass(frozen=True)
class GrassmannPencil:
    h: Subspace
    b: Subspace
    points: tuple[Subspace, ...]


@dataclass(frozen=True)
class GrassmannStar:
    h: Subspace
    points: tuple[Subspace, ...]


@dataclass(frozen=True)
class GrassmannTop:
    b: Subspace
    points: tuple[Subspace, ...]


class GrassmannSpace:
    """Points and pencils of the space of k-subspaces of GF(q)^n, 1 < k < n-1.

    Points and pencils carry dense integer ids in enumeration order, so two
    builds with the same parameters are identical object for object.
    """

    def __init__(self, space: FieldSpec, k: int):
        if not 1 < k < space.n - 1:
            raise ValueError(f"need 1 < k < n-1, got k = {k}, n = {space.n}")
        self.space = space
        self.k = k
        self.points = enumerate_subspaces(space, k)
        self.point_id = {p.rows: i for i, p in enumerate(self.points)}
        full = full_subspace(space)
        self.pencils: list[GrassmannPencil] = []
        for h in enumerate_subspaces(space, k - 1):
            for b in enumerate_between(h, full, k + 1):
                pts = tuple(enumerate_between(h, b, k))
                self.pencils.append(GrassmannPencil(h, b, pts))

    def point_count(self) -> int:
        return len(self.points)

    def pencil_count(self) -> int:
        return len(self.pencils)


def build_grassmann(space: FieldSpec, k: int) -> GrassmannSpace:
    return GrassmannSpace(space, k)


def star_of(pencil: GrassmannPencil) -> GrassmannStar:
    """The unique star extending a pencil: all k-subspaces over its h."""
    h = pencil.h
    k = pencil.points[0].dim
    pts = tuple(enumerate_between(h, full_subspace(h.space), k))
    return GrassmannStar(h, pts)


def top_of(pencil: GrassmannPencil) -> GrassmannTop:
    """The unique top extending a pencil: all k-subspaces inside its b."""
    b = pencil.b
    k = pencil.points[0].dim
    pts = tuple(enumerate_between(zero_subspace(b.space), b, k))
    return GrassmannTop(b, pts)


def pencil_through(space: GrassmannSpace, u1: Subspace, u2: Subspace) -> GrassmannPencil | None:
    """The pencil through two distinct points, or None if they are not collinear."""
    from .gf import intersect, subspace_sum

    if u1 == u2:
        raise ValueError("points must be distinct")
    h = intersect(u1, u2)
    b = subspace_sum(u1, u2)
    if h.dim != space.k - 1 or b.dim != space.k + 1:
        return None
    pts = tuple(enumerate_between(h, b, space.k))
    assert contains(b, h)
    return GrassmannPencil(h, b, pts)
