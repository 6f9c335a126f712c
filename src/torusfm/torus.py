"""Real tori, affine subtori and the dual-support correspondence.

A subtorus of T = R^g/Z^g is stored by an integer constraint matrix A and a
rational offset c, denoting the image in T of the affine solution set
{y in R^g : A y + c = 0}.  Stored pairs are canonical: A is the Hermite
basis of the saturation of its own row span and c lies in [0,1)^m.  With a
saturated A the image of the affine space coincides with the full mod-1
solution set {[y] : A y + c in Z^m} and is connected, so equal subtori have
equal stored data and dataclass equality is set equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    RatVector,
    _saturated_offset,
    _saturation,
    kernel_basis,
    mod1,
    mod1_vector,
    rat_vector,
    saturate,
    snf,
    solve_particular,
    stack,
)


@dataclass(frozen=True)
class Torus:
    """Flat torus R^g/Z^g with a rational constant metric on the cover."""

    dim: int
    metric: RatMatrix

    def __init__(self, dim: int, metric: RatMatrix | None = None):
        dim = int(dim)
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
            hat = object.__new__(Torus)
            object.__setattr__(hat, "dim", self.dim)
            object.__setattr__(hat, "metric", self.metric.inverse())
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

    @classmethod
    def _canonical(cls, torus: Torus, eqns: IntMatrix, offset: RatVector) -> "AffineSubtorus":
        s = object.__new__(cls)
        object.__setattr__(s, "torus", torus)
        object.__setattr__(s, "eqns", eqns)
        object.__setattr__(s, "offset", offset)
        return s

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

        Raises ValueError if the vector is not a Z-combination of the basis.
        """
        basis = self.direction_basis()
        coeffs = solve_particular(basis.to_rat().transpose(), rat_vector(vector))
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("vector is not in the direction lattice")
        return tuple(int(c) for c in coeffs)

    def translate(self, shift: Iterable) -> "AffineSubtorus":
        t = rat_vector(shift)
        if len(t) != self.torus.dim:
            raise ValueError("dimension mismatch")
        moved = tuple(
            mod1(c - v) for c, v in zip(self.offset, self.eqns.mul_vector(t))
        )
        return AffineSubtorus._canonical(self.torus, self.eqns, moved)

    def single_point(self) -> TorusPoint:
        """The unique point of a zero-dimensional subtorus."""
        if self.dim != 0:
            raise ValueError("subtorus is not a point")
        y = solve_particular(self.eqns.to_rat(), [-c for c in self.offset])
        return self.torus.point(y)


def subtorus_from_equations(torus: Torus, rows, offsets) -> AffineSubtorus:
    """Subtorus cut out by integer equations A y + c = 0 on the cover.

    The rows may be any integer vectors with full row rank; the result is
    stored in canonical form.  Rationally dependent rows raise
    ValueError("degenerate equations").

    With D = U A V in Smith form, invariant factors d_1 | ... | d_r, and
    the saturation sat = U_h B, where B is the rows of U A divided by the
    d_i, the canonical offset is chi = U_h D^-1 U c mod 1.  It is computed
    on one common denominator: with L the lcm of the offset denominators,
    n = L c and M = L d_r, w_i = (U n)_i d_r / d_i mod M and
    chi_j = ((U_h w)_j mod M) / M.
    """
    a = rows if isinstance(rows, IntMatrix) else IntMatrix(rows, torus.dim)
    c = rat_vector(offsets)
    if a.ncols != torus.dim:
        raise ValueError("equation width does not match the torus dimension")
    if len(c) != a.nrows:
        raise ValueError("one offset per equation row is required")
    if a.nrows == 0:
        return whole_torus(torus)
    try:
        sat, u, u_h, divisors = _saturation(a)
    except ValueError:
        raise ValueError("degenerate equations") from None
    n, denom = _numerators(c)
    return AffineSubtorus._canonical(torus, sat, _saturated_offset(u, u_h, divisors, n, denom))


def _numerators(c: RatVector) -> tuple[list[int], int]:
    """Integer numerators of c over the lcm of its denominators, and that lcm."""
    denom = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (denom // x.denominator) for x in c], denom


def whole_torus(torus: Torus) -> AffineSubtorus:
    return AffineSubtorus._canonical(torus, IntMatrix((), torus.dim), ())


def dual_support(s: AffineSubtorus, xi) -> tuple[AffineSubtorus, RatVector]:
    """Support-and-holonomy swap underlying the transform.

    For a subtorus with constraints (A, chi) carrying holonomy phases xi on
    its canonical direction basis, the dual support lives on the dual torus
    and is cut out by the direction basis itself with offset xi; the dual
    holonomy is chi, carried on the directions of the dual support, which
    are exactly the rows of A.  Applying the map twice returns the input.
    """
    xi = rat_vector(xi)
    if len(xi) != s.dim:
        raise ValueError("holonomy dimension mismatch")
    hat = AffineSubtorus._canonical(s.torus.dual(), s.direction_basis(), mod1_vector(xi))
    # The directions of the dual support are the rows of A: the saturated
    # kernel of the saturated kernel of A is A.
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

    Components are found by a Smith reduction of the stacked constraints:
    after the unimodular change of coordinates z = V^-1 y the combined
    system pins each of the first r coordinates of z to finitely many
    values, one component per choice, so there are d_1 * ... * d_r
    components of dimension g - r.
    """
    if s1.torus != s2.torus:
        raise ValueError("subtori live on different tori")
    g = s1.torus.dim
    a = stack(s1.eqns, s2.eqns)
    c = s1.offset + s2.offset
    if a.nrows == 0:
        return [whole_torus(s1.torus)]
    d, u, _ = snf(a)
    r = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0)
    # U c over the common denominator L of c; rows past r must be integral.
    n, denom = _numerators(c)
    un = [sum(e * ni for e, ni in zip(row, n)) for row in u.rows]
    if any(x % denom for x in un[r:]):
        return []
    divisors = [d.rows[i][i] for i in range(r)]
    # Row i of U a is d_i times row i of V^-1.
    rows = IntMatrix._trusted(
        tuple(tuple(e // di for e in row) for row, di in zip((u @ a).rows, divisors)), g
    )
    # One saturation serves every component; only the offsets differ.
    sat, u_rows, u_h, rows_divisors = _saturation(rows)
    top = divisors[-1]
    components = []
    for t in itertools.product(*(range(di) for di in divisors)):
        # Component t solves rows y + ((U c)_i - t_i) / d_i = 0; over the
        # common denominator L d_r its numerators are ((U n)_i - L t_i) d_r / d_i.
        num = [(x - denom * ti) * (top // di) for x, ti, di in zip(un, t, divisors)]
        chi = _saturated_offset(u_rows, u_h, rows_divisors, num, denom * top)
        components.append(AffineSubtorus._canonical(s1.torus, sat, chi))
    return components
