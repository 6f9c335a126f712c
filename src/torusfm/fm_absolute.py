"""Transform of unitary local systems supported on affine subtori.

A rank-r system is r copies of a U(1) system: a support subtorus together
with one holonomy phase (in turns) per canonical direction of the support.
The transform swaps constraint data with holonomy data across the duality
of tori; the twist by the dual of the universal bundle that usually
decorates the inverse is already absorbed in the support swap, so applying
the same map twice is the identity on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import RatVector, _integral, _unchecked, mod1, mod1_vector, rat_vector
from .torus import (
    AffineSubtorus,
    Torus,
    TorusPoint,
    _swap,
    intersect,
    whole_torus,
)


@dataclass(frozen=True)
class SubtorusLocalSystem:
    """Flat unitary system on an affine subtorus.

    holonomy[i] is the phase in turns picked up along the i-th row of the
    support's canonical direction basis.
    """

    support: AffineSubtorus
    holonomy: RatVector
    rank: int

    def __init__(self, support: AffineSubtorus, holonomy, rank: int = 1):
        holonomy = mod1_vector(holonomy)
        if len(holonomy) != support.dim:
            raise ValueError("holonomy dimension mismatch")
        rank = _integral(rank, "rank")
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "holonomy", holonomy)
        object.__setattr__(self, "rank", rank)

    # Wraps a support, a holonomy already reduced into [0, 1), one phase per
    # direction, and a rank.
    _trusted = classmethod(_unchecked)

    @property
    def torus(self) -> Torus:
        return self.support.torus

    def is_skyscraper(self) -> bool:
        return self.support.dim == 0

    def point(self) -> TorusPoint:
        return self.support.single_point()

    def translate(self, shift) -> "SubtorusLocalSystem":
        return SubtorusLocalSystem._trusted(self.support.translate(shift), self.holonomy, self.rank)

    def twist(self, phases) -> "SubtorusLocalSystem":
        """Tensor with the flat system whose holonomy is the given phases."""
        phases = rat_vector(phases)
        if len(phases) != self.support.dim:
            raise ValueError("holonomy dimension mismatch")
        moved = tuple(mod1(h + p) for h, p in zip(self.holonomy, phases))
        return SubtorusLocalSystem._trusted(self.support, moved, self.rank)


def skyscraper(torus: Torus, coords, rank: int = 1) -> SubtorusLocalSystem:
    return SubtorusLocalSystem(torus.point(coords).as_subtorus(), (), rank)


def full_torus_system(torus: Torus, holonomy, rank: int = 1) -> SubtorusLocalSystem:
    return SubtorusLocalSystem(whole_torus(torus), holonomy, rank)


@dataclass(frozen=True)
class TransformResult:
    """Transformed system plus the unique cohomological degree it sits in."""

    system: SubtorusLocalSystem
    wit_index: int


def transform(system: SubtorusLocalSystem) -> TransformResult:
    """Transform of a supported system; concentrated in degree dim(support).

    The directions become the dual constraints with the stored holonomy as
    offset, not reduced again, and the old offsets become the dual holonomy.
    """
    hat, dual_holonomy = _swap(system.support, system.holonomy)
    return TransformResult(
        SubtorusLocalSystem._trusted(hat, dual_holonomy, system.rank), system.support.dim
    )


def restrict_system(system: SubtorusLocalSystem, sub: AffineSubtorus) -> SubtorusLocalSystem:
    """Restriction to a subtorus contained in the support.

    Each closed direction of the subtorus is an integer combination of the
    support's directions and inherits the corresponding phase combination.
    """
    if intersect(system.support, sub) != [sub]:
        raise ValueError("subtorus is not contained in the support")
    coords = map(system.support.direction_coordinates, sub.direction_basis().rows)
    phases = (sum((c * h for c, h in zip(cs, system.holonomy)), Fraction(0)) for cs in coords)
    return SubtorusLocalSystem(sub, phases, system.rank)


def morphism_space_dim(a: SubtorusLocalSystem, b: SubtorusLocalSystem) -> int:
    """Dimension of the space of maps between two supported systems.

    Each connected component of the support intersection contributes
    rank(a) * rank(b) when the two restricted holonomies agree there and
    nothing otherwise.
    """
    if a.torus != b.torus:
        raise ValueError("systems live on different tori")
    total = 0
    for component in intersect(a.support, b.support):
        ra = restrict_system(a, component)
        rb = restrict_system(b, component)
        if ra.holonomy == rb.holonomy:
            total += a.rank * b.rank
    return total
