"""Real tori, affine subtori and the dual-support correspondence.

A subtorus of T = R^g/Z^g is stored by an integer constraint matrix A and a
rational offset c, denoting the image in T of the affine solution set
{y in R^g : A y + c = 0}.  Stored pairs are canonical: A is the Hermite
basis of the saturation of its own row span and c lies in [0,1)^m.  With a
saturated A the image of the affine space coincides with the full mod-1
solution set {[y] : A y + c in Z^m} and is connected, so equal subtori have
equal stored data and dataclass equality is set equality.  One Hermite
form of [A^T | I] gives both the saturation and the directions, and the
offsets are read off columns carried through the saturation (`_lattice`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    RatVector,
    _integral,
    _kernel_hermite,
    _over_denominator,
    _saturation,
    _unchecked,
    hnf,
    kernel_basis,
    mod1,
    mod1_vector,
    rat_vector,
    saturate,
    stack,
)


@dataclass(frozen=True)
class Torus:
    """Flat torus R^g/Z^g with a rational constant metric on the cover."""

    dim: int
    metric: RatMatrix

    def __init__(self, dim: int, metric: RatMatrix | None = None):
        dim = _integral(dim, "torus dimension")
        if dim < 1:
            raise ValueError("torus dimension must be positive")
        if metric is None:
            # The standard torus is self-dual.
            metric = RatMatrix.identity(dim)
            object.__setattr__(self, "_dual", self)
        elif metric.shape != (dim, dim):
            raise ValueError("metric shape does not match the dimension")
        elif not metric.is_positive_definite():
            raise ValueError("metric must be symmetric positive definite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "metric", metric)

    def dual(self) -> "Torus":
        """Dual torus; the induced metric on the dual cover is the inverse.

        Built once per instance and not validated again, since the inverse
        of a symmetric positive definite matrix is one.  The dual links
        back, so t.dual().dual() is t.
        """
        hat = self.__dict__.get("_dual")
        if hat is None:
            hat = _unchecked(Torus, self.dim, self.metric.inverse())
            object.__setattr__(hat, "_dual", self)
            object.__setattr__(self, "_dual", hat)
        return hat

    def point(self, coords: Iterable) -> "TorusPoint":
        return TorusPoint(self, mod1_vector(coords))


@dataclass(frozen=True)
class TorusPoint:
    torus: Torus
    coords: RatVector

    def __post_init__(self):
        if len(self.coords) != self.torus.dim:
            raise ValueError("coordinate count does not match the torus dimension")
        if any(not (0 <= c < 1) for c in self.coords):
            raise ValueError("coordinates must be reduced into [0, 1)")

    def as_subtorus(self) -> "AffineSubtorus":
        """The point as a zero-dimensional subtorus: y - x = 0."""
        g = self.torus.dim
        return AffineSubtorus._canonical(
            self.torus, IntMatrix.identity(g), mod1_vector(-c for c in self.coords)
        )


@dataclass(frozen=True)
class AffineSubtorus:
    """Connected affine subtorus in canonical constraint form.

    The public constructor checks that its data is canonical.  Functions of
    this module whose data is canonical by construction use `_canonical`,
    which skips the check.
    """

    torus: Torus
    eqns: IntMatrix
    offset: RatVector

    _canonical = classmethod(_unchecked)

    def __post_init__(self):
        g = self.torus.dim
        if self.eqns.ncols != g:
            raise ValueError("equation width does not match the torus dimension")
        if len(self.offset) != self.eqns.nrows:
            raise ValueError("one offset per equation row is required")
        if any(not (0 <= c < 1) for c in self.offset):
            raise ValueError("offsets must be reduced into [0, 1)")
        if self.eqns.nrows and saturate(self.eqns) != self.eqns:
            raise ValueError("equations are not in canonical saturated form")

    @property
    def codim(self) -> int:
        return self.eqns.nrows

    @property
    def dim(self) -> int:
        return self.torus.dim - self.eqns.nrows

    def contains(self, point) -> bool:
        coords = point.coords if isinstance(point, TorusPoint) else rat_vector(point)
        if len(coords) != self.torus.dim:
            raise ValueError("dimension mismatch")
        vals = self.eqns.mul_vector(coords)
        return all(mod1(v + c) == 0 for v, c in zip(vals, self.offset))

    def direction_basis(self) -> IntMatrix:
        """Canonical basis of the lattice of closed directions along the subtorus."""
        basis = self.__dict__.get("_directions")
        if basis is None:
            basis = kernel_basis(self.eqns)
            object.__setattr__(self, "_directions", basis)
        return basis

    def direction_coordinates(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Integer coordinates of a lattice direction in the canonical basis.

        The basis is in Hermite form, so each coordinate is read off at its
        row's pivot, and the remainder must vanish.  Raises ValueError if the
        vector is not a Z-combination of the basis.
        """
        if len(vector) != self.torus.dim:
            raise ValueError("dimension mismatch")
        rest = list(vector)
        coeffs = []
        for row in self.direction_basis().rows:
            j = next(j for j, e in enumerate(row) if e)
            q, r = divmod(rest[j], row[j])
            if r:
                raise ValueError("vector is not in the direction lattice")
            rest = [a - q * b for a, b in zip(rest, row)]
            coeffs.append(int(q))
        if any(rest):
            raise ValueError("vector is not in the direction lattice")
        return tuple(coeffs)

    def translate(self, shift: Iterable) -> "AffineSubtorus":
        t = rat_vector(shift)
        if len(t) != self.torus.dim:
            raise ValueError("dimension mismatch")
        moved = tuple(
            mod1(c - v) for c, v in zip(self.offset, self.eqns.mul_vector(t))
        )
        out = AffineSubtorus._canonical(self.torus, self.eqns, moved)
        # A translation keeps the equations, so it shares their direction basis.
        object.__setattr__(out, "_directions", self.direction_basis())
        return out

    def single_point(self) -> TorusPoint:
        """The unique point of a zero-dimensional subtorus."""
        if self.dim != 0:
            raise ValueError("subtorus is not a point")
        # A saturated square system is the identity: y = -offset.
        return self.torus.point(-c for c in self.offset)


def subtorus_from_equations(torus: Torus, rows, offsets) -> AffineSubtorus:
    """Subtorus cut out by integer equations A y + c = 0 on the cover.

    The rows may be any integer vectors with full row rank; the result is
    stored in canonical form.  Rationally dependent rows raise
    ValueError("degenerate equations").

    One Hermite form of [A^T | I] gives the saturation S, the direction
    basis K and, from the columns carried through the saturation, the
    canonical offset of the component of residue t = 0 (`_lattice`), the
    only one computed.
    """
    a = rows if isinstance(rows, IntMatrix) else IntMatrix(rows, torus.dim)
    c = tuple(x if x.__class__ is int else Fraction(x) for x in offsets)
    if a.ncols != torus.dim:
        raise ValueError("equation width does not match the torus dimension")
    if len(c) != a.nrows:
        raise ValueError("one offset per equation row is required")
    return next(_components(torus, a, c))


def _lattice(a: IntMatrix, c, every: bool = False) -> tuple[IntMatrix, IntMatrix, Iterator[RatVector]]:
    """(S, K, offsets) from one Hermite form of [A^T | I], for A of full row rank.

    S is the canonical saturation and K the direction basis
    (`_kernel_hermite`); dependent rows raise ValueError("degenerate
    equations").  With W A^T = [H; 0], H upper triangular with pivots p_k,
    A = H^T S0 (`_saturation`), and S = V S0 for V unimodular.  So
    A y + c in Z^r pins S0 y to (H^T)^-1 (t - c) mod Z^r for one residue
    t in Z^r / H^T Z^r, each class having one t with 0 <= t_k < p_k, and
    the component of t has the canonical offset chi_t = V (H^T)^-1 (c - t)
    mod 1.  For c, ints and Fractions, the columns M c and M I_r, with M
    the lcm of c's denominators times prod(p_k), ride through the
    saturation and end as w = M V (H^T)^-1 c and W = M V (H^T)^-1, both
    integral.  offsets yields chi_t = (w - W t) mod M / M lazily, t being
    the digits of 0, 1, ..., prod(p_k) - 1 in the mixed radix (p_k), so
    t = 0 comes first: that component solves A y + c = 0 itself.  Unless
    every is true, only M c is carried and only chi_0 is yielded.
    """
    r, g = a.nrows, a.ncols
    h, directions = _kernel_hermite(a)
    if len(h) < r:
        raise ValueError("degenerate equations")
    steps = [h[k][k] for k in range(r)]
    denom, n = _over_denominator(c)
    count = math.prod(steps)
    mod = denom * count
    rows = [[*row, nk * count, *(mod if l == k else 0 for l in range(r if every else 0))]
            for k, (row, nk) in enumerate(zip(a.rows, n))]
    s = _saturation(h, rows, g)
    carried = [(row[g], row[g + 1:]) for row in s]

    def offset(i: int) -> RatVector:
        t = []
        for p in steps:
            i, tk = divmod(i, p)
            t.append(tk)
        return tuple(Fraction((w - sum(map(operator.mul, wt, t))) % mod, mod) for w, wt in carried)

    sat = IntMatrix._trusted(tuple(tuple(row[:g]) for row in s), g)
    return sat, directions, map(offset, range(count if every else 1))


def _components(torus: Torus, a: IntMatrix, c, every: bool = False) -> Iterator[AffineSubtorus]:
    """Components of {[y] : A y + c in Z^r}, A of full row rank, by `_lattice`: every one only if every is true."""
    sat, directions, offsets = _lattice(a, c, every)
    for chi in offsets:
        s = AffineSubtorus._canonical(torus, sat, chi)
        object.__setattr__(s, "_directions", directions)
        yield s


def whole_torus(torus: Torus) -> AffineSubtorus:
    return AffineSubtorus._canonical(torus, IntMatrix((), torus.dim), ())


def dual_support(s: AffineSubtorus, xi) -> tuple[AffineSubtorus, RatVector]:
    """Support-and-holonomy swap underlying the transform.

    For a subtorus with constraints (A, chi) carrying holonomy phases xi on
    its canonical direction basis, the dual support lives on the dual torus
    and is cut out by the direction basis itself with offset xi; the dual
    holonomy is chi, carried on the directions of the dual support, which
    are exactly the rows of A.  Applying the map twice returns the input.
    The phases are checked and reduced mod 1 here; `_swap` trusts them.
    """
    xi = mod1_vector(xi)
    if len(xi) != s.dim:
        raise ValueError("holonomy dimension mismatch")
    return _swap(s, xi)


def _swap(s: AffineSubtorus, xi: RatVector) -> tuple[AffineSubtorus, RatVector]:
    """`dual_support` on phases in [0, 1); the dual's directions are the rows of A."""
    hat = AffineSubtorus._canonical(s.torus.dual(), s.direction_basis(), xi)
    object.__setattr__(hat, "_directions", s.eqns)
    return hat, s.offset


def is_normal_to(s: AffineSubtorus, s_hat: AffineSubtorus) -> bool:
    """Whether the dual-torus subtorus is the annihilator-normal image of s.

    True exactly when the closed directions of s_hat form the annihilator of
    the directions of s; under the index-raising pairing the constant metric
    cancels, so this is an exact integer condition on canonical bases.
    """
    if s_hat.torus.dim != s.torus.dim:
        return False
    return s.direction_basis() == s_hat.eqns


def intersect(s1: AffineSubtorus, s2: AffineSubtorus) -> list[AffineSubtorus]:
    """Connected components of the intersection, possibly empty.

    The Hermite form W A = [A'; 0] of the stacked constraints A y + c in
    Z^r splits them into the full-rank system A' y + (W c)' in Z^rank and
    the consistency condition that the rest of W c be integral.  The
    full-rank part goes through the same Hermite form of [A'^T | I] as
    `subtorus_from_equations`: one residue per pivot names a component.
    The components share one saturation and one direction basis, and are
    returned sorted by offset.
    """
    if s1.torus != s2.torus:
        raise ValueError("subtori live on different tori")
    a = stack(s1.eqns, s2.eqns)
    if a.nrows == 0:
        return [whole_torus(s1.torus)]
    h, w = hnf(a)
    rank = sum(1 for row in h.rows if any(row))
    wc = w.mul_vector(s1.offset + s2.offset)
    if any(x.denominator != 1 for x in wc[rank:]):
        return []
    independent = IntMatrix._trusted(h.rows[:rank], a.ncols)
    return sorted(_components(s1.torus, independent, wc[:rank], True), key=lambda s: s.offset)
