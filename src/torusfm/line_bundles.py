"""Unitary line bundles on tori: factors of automorphy and curvature.

Phases are tracked in turns (full rotations), so a factor value is a point
of U(1) represented by a rational number mod 1 and every cocycle identity
can be checked exactly.  The general factor shape used here is

    a(x, lam) = exp(2 pi i (t.lam + lam^T U lam / 2 + x^T M lam))

with U integer, M rational and t rational, subject to the cocycle condition
M - (U + U^T)/2 being an integer matrix.  The classical pair normal form
(alternating pairing plus semicharacter) produces such a factor, and gauge
moves by quadratic or linear exponentials stay inside the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, pi, sin
from typing import Iterable, Sequence

from .exact_linalg import IntMatrix, RatMatrix, RatVector, dot, mod1, rat_vector
from .expr import Expr, ZERO, diff, var
from .torus import AffineSubtorus


@dataclass(frozen=True)
class UnitCircleValue:
    """Point on the unit circle, stored exactly as a phase in turns."""

    turns: Fraction

    def __init__(self, turns):
        object.__setattr__(self, "turns", mod1(Fraction(turns)))

    def __mul__(self, other: "UnitCircleValue") -> "UnitCircleValue":
        return UnitCircleValue(self.turns + other.turns)

    def inverse(self) -> "UnitCircleValue":
        return UnitCircleValue(-self.turns)

    def __pow__(self, k: int) -> "UnitCircleValue":
        return UnitCircleValue(self.turns * k)

    def to_complex(self) -> complex:
        angle = 2 * pi * float(self.turns)
        return complex(cos(angle), sin(angle))

    @staticmethod
    def one() -> "UnitCircleValue":
        return UnitCircleValue(0)


@dataclass(frozen=True)
class FactorOfAutomorphy:
    """Exponential-of-quadratic factor in the shape described above."""

    dim: int
    upper: IntMatrix
    bilinear: RatMatrix
    char: RatVector

    def __post_init__(self):
        g = self.dim
        if self.upper.shape != (g, g) or self.bilinear.shape != (g, g):
            raise ValueError("matrix data does not match the dimension")
        if len(self.char) != g:
            raise ValueError("one character entry per lattice generator is required")
        for i in range(g):
            for j in range(g):
                residual = (
                    self.bilinear.rows[i][j]
                    - Fraction(self.upper.rows[i][j] + self.upper.rows[j][i], 2)
                )
                if residual.denominator != 1:
                    raise ValueError("cocycle condition fails")

    def phase_turns(self, x: Sequence, lam: Sequence[int]) -> Fraction:
        x = rat_vector(x)
        lam = tuple(int(e) for e in lam)
        if len(x) != self.dim or len(lam) != self.dim:
            raise ValueError("dimension mismatch")
        quad = sum(
            self.upper.rows[i][j] * lam[i] * lam[j]
            for i in range(self.dim)
            for j in range(self.dim)
        )
        lin = dot(self.char, lam)
        mixed = dot(x, self.bilinear.mul_vector(lam))
        return mod1(lin + Fraction(quad, 2) + mixed)

    def __call__(self, x: Sequence, lam: Sequence[int]) -> UnitCircleValue:
        return UnitCircleValue(self.phase_turns(x, lam))

    def is_flat(self) -> bool:
        """Whether the factor is a plain character of the lattice."""
        if any(e != 0 for row in self.bilinear.rows for e in row):
            return False
        u = self.upper.rows
        g = self.dim
        if any(u[i][i] % 2 for i in range(g)):
            return False
        return all((u[i][j] + u[j][i]) % 2 == 0 for i in range(g) for j in range(i))

    def holonomy(self) -> RatVector:
        """Holonomy phases of a flat factor, one per lattice generator."""
        if not self.is_flat():
            raise ValueError("factor is not flat")
        return tuple(
            mod1(t + Fraction(self.upper.rows[i][i], 2)) for i, t in enumerate(self.char)
        )


def flat_factor(holonomy: Iterable) -> FactorOfAutomorphy:
    t = rat_vector(holonomy)
    g = len(t)
    return FactorOfAutomorphy(g, IntMatrix.zero(g, g), RatMatrix.zero(g, g), t)


def same_factor(f1: FactorOfAutomorphy, f2: FactorOfAutomorphy) -> bool:
    """Equality as functions on cover x lattice, checked exactly."""
    if f1.dim != f2.dim:
        return False
    if f1.bilinear != f2.bilinear:
        return False
    g = f1.dim
    d = [
        [f1.upper.rows[i][j] - f2.upper.rows[i][j] for j in range(g)] for i in range(g)
    ]
    s = [f1.char[i] - f2.char[i] for i in range(g)]
    for i in range(g):
        if mod1(s[i] + Fraction(d[i][i], 2)) != 0:
            return False
    return all((d[i][j] + d[j][i]) % 2 == 0 for i in range(g) for j in range(i))


def gauge_transform(
    f: FactorOfAutomorphy,
    quadratic: IntMatrix | None = None,
    linear: Sequence | None = None,
) -> FactorOfAutomorphy:
    """Conjugate the factor by exp(pi i x^T S x) and/or exp(2 pi i v.x).

    The transformed factor is a(x, lam) multiplied by phi(x + lam)/phi(x);
    it describes the same bundle in a different trivialization.
    """
    g = f.dim
    upper, bilinear, char = f.upper, f.bilinear, f.char
    if quadratic is not None:
        if quadratic.shape != (g, g):
            raise ValueError("dimension mismatch")
        upper = IntMatrix(
            tuple(
                tuple(upper.rows[i][j] + quadratic.rows[i][j] for j in range(g))
                for i in range(g)
            ),
            g,
        )
        sym = RatMatrix(
            tuple(
                tuple(
                    Fraction(quadratic.rows[i][j] + quadratic.rows[j][i], 2)
                    for j in range(g)
                )
                for i in range(g)
            ),
            g,
        )
        bilinear = RatMatrix(
            tuple(
                tuple(bilinear.rows[i][j] + sym.rows[i][j] for j in range(g))
                for i in range(g)
            ),
            g,
        )
    if linear is not None:
        v = rat_vector(linear)
        if len(v) != g:
            raise ValueError("dimension mismatch")
        char = tuple(mod1(t + vi) for t, vi in zip(char, v))
    return FactorOfAutomorphy(g, upper, bilinear, char)


def restrict_factor(f: FactorOfAutomorphy, fixed: dict[int, Fraction]) -> FactorOfAutomorphy:
    """Restrict to the coordinate subtorus where the 0-based keys are pinned.

    The remaining coordinates keep their order; the lattice restricts to the
    kept generators, and the pinned values feed the mixed term into the
    character.
    """
    keep = [i for i in range(f.dim) if i not in fixed]
    upper = IntMatrix(tuple(tuple(f.upper.rows[i][j] for j in keep) for i in keep), len(keep))
    bilinear = RatMatrix(
        tuple(tuple(f.bilinear.rows[i][j] for j in keep) for i in keep), len(keep)
    )
    char = tuple(
        f.char[j] + sum((Fraction(v) * f.bilinear.rows[i][j] for i, v in fixed.items()), Fraction(0))
        for j in keep
    )
    return FactorOfAutomorphy(len(keep), upper, bilinear, char)


# ---------------------------------------------------------------- pair form


def _strict_upper(a: IntMatrix) -> IntMatrix:
    g = a.ncols
    return IntMatrix(
        tuple(tuple(a.rows[i][j] if j > i else 0 for j in range(g)) for i in range(g)), g
    )


@dataclass(frozen=True)
class AppellHumbertPair:
    """Alternating integer pairing with a compatible semicharacter.

    The semicharacter is pinned by its phases on the lattice generators;
    the composition law

        c(lam + mu) = c(lam) + c(mu) + pairing(lam, mu)/2   (mod 1)

    then determines it everywhere, with no choices left.
    """

    pairing: IntMatrix
    chi_log: RatVector

    def __post_init__(self):
        g = self.pairing.ncols
        if self.pairing.shape != (g, g):
            raise ValueError("pairing must be square")
        if len(self.chi_log) != g:
            raise ValueError("one semicharacter phase per generator is required")
        for i in range(g):
            if self.pairing.rows[i][i] != 0:
                raise ValueError("pairing must be alternating")
            for j in range(i):
                if self.pairing.rows[i][j] != -self.pairing.rows[j][i]:
                    raise ValueError("pairing must be alternating")

    @property
    def dim(self) -> int:
        return self.pairing.ncols

    def semicharacter_turns(self, lam: Sequence[int]) -> Fraction:
        lam = tuple(int(e) for e in lam)
        g = self.dim
        quad = sum(
            self.pairing.rows[i][j] * lam[i] * lam[j] for i in range(g) for j in range(i + 1, g)
        )
        return mod1(dot(self.chi_log, lam) + Fraction(quad, 2))

    def semicharacter(self, lam: Sequence[int]) -> UnitCircleValue:
        return UnitCircleValue(self.semicharacter_turns(lam))

    def pairing_value(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        return int(dot(lam, self.pairing.mul_vector(mu)))

    def factor(self) -> FactorOfAutomorphy:
        half = RatMatrix(
            tuple(tuple(Fraction(e, 2) for e in row) for row in self.pairing.rows),
            self.dim,
        )
        return FactorOfAutomorphy(self.dim, _strict_upper(self.pairing), half, self.chi_log)


def factor_of_automorphy(pair: AppellHumbertPair) -> FactorOfAutomorphy:
    return pair.factor()


def ah_compose(p1: AppellHumbertPair, p2: AppellHumbertPair) -> AppellHumbertPair:
    """Tensor product of the bundles described by the two pairs."""
    if p1.dim != p2.dim:
        raise ValueError("dimension mismatch")
    pairing = IntMatrix(
        tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(p1.pairing.rows, p2.pairing.rows)
        ),
        p1.dim,
    )
    chi = tuple(mod1(a + b) for a, b in zip(p1.chi_log, p2.chi_log))
    return AppellHumbertPair(pairing, chi)


def ah_inverse(p: AppellHumbertPair) -> AppellHumbertPair:
    pairing = IntMatrix(tuple(tuple(-e for e in row) for row in p.pairing.rows), p.dim)
    return AppellHumbertPair(pairing, tuple(mod1(-t) for t in p.chi_log))


def poincare_pair(g: int) -> AppellHumbertPair:
    """Universal pair on the product of a g-torus with its dual.

    Coordinates are ordered (y_1..y_g, w_1..w_g); the pairing is the
    standard symplectic block form and the semicharacter is trivial on
    generators.
    """
    rows = []
    for i in range(g):
        rows.append(tuple(0 for _ in range(g)) + tuple(-int(i == j) for j in range(g)))
    for i in range(g):
        rows.append(tuple(int(i == j) for j in range(g)) + tuple(0 for _ in range(g)))
    return AppellHumbertPair(IntMatrix(rows, 2 * g), tuple(Fraction(0) for _ in range(2 * g)))


def poincare_gauge(g: int, sign: int = 1) -> IntMatrix:
    """Quadratic gauge exp(sign * pi i y.w) as an integer matrix."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rows = []
    for i in range(g):
        rows.append(tuple(0 for _ in range(g)) + tuple(sign * int(i == j) for j in range(g)))
    for _ in range(g):
        rows.append(tuple(0 for _ in range(2 * g)))
    return IntMatrix(rows, 2 * g)


# ---------------------------------------------------------------- connections

# One- and two-forms live on R^n with coordinates x1..xn; coefficients are
# expressions.  The stored connection coefficient alpha_j is the phase rate
# in turns, i.e. the covariant derivative is d + 2 pi i sum alpha_j dx^j.


@dataclass(frozen=True)
class OneForm:
    coeffs: tuple[Expr, ...]

    @property
    def dim(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric coefficient matrix: the form is sum_{i<j} c_ij dx^i ^ dx^j."""

    entries: tuple[tuple[Expr, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def coefficient(self, i: int, j: int) -> Expr:
        return self.entries[i][j]

    def contract(self, u: Sequence, v: Sequence) -> Expr:
        """Value on the pair of constant tangent vectors u, v."""
        n = self.dim
        total: Expr = ZERO
        for i in range(n):
            for j in range(n):
                total = total + Fraction(u[i]) * Fraction(v[j]) * self.entries[i][j]
        return total


def exterior_derivative(alpha: OneForm) -> TwoForm:
    n = alpha.dim
    entries = tuple(
        tuple(diff(alpha.coeffs[j], i + 1) - diff(alpha.coeffs[i], j + 1) for j in range(n))
        for i in range(n)
    )
    return TwoForm(entries)


def poincare_connection(g: int) -> OneForm:
    """Connection of the universal bundle: sum_j w_j dy^j in turn units."""
    coeffs = tuple(var(g + j + 1) for j in range(g)) + tuple(ZERO for _ in range(g))
    return OneForm(coeffs)


def poincare_curvature(g: int) -> TwoForm:
    return exterior_derivative(poincare_connection(g))


def pairing_vanishes(s: AffineSubtorus, s_hat: AffineSubtorus) -> bool:
    """Whether the universal curvature annihilates all direction pairs.

    Directions u along s (in the first factor) and v along s_hat (in the
    second) feed the constant curvature; vanishing for all pairs is the
    curvature-flatness part of normality and holds exactly when the two
    direction lattices annihilate each other under the dot pairing.
    """
    if s.torus.dim != s_hat.torus.dim:
        return False
    g = s.torus.dim
    f = poincare_curvature(g)
    for u in s.direction_basis().rows:
        for v in s_hat.direction_basis().rows:
            lifted_u = tuple(u) + tuple(0 for _ in range(g))
            lifted_v = tuple(0 for _ in range(g)) + tuple(v)
            value = f.contract(lifted_u, lifted_v)
            if value != ZERO:
                return False
    return True
