"""Unitary line bundles on tori: factors of automorphy and the Poincare bundle.

Phases are tracked in turns (full rotations), so a factor value is a point
of U(1) represented by a rational number mod 1 and every cocycle identity
can be checked exactly.  The general factor shape used here is

    a(x, lam) = exp(2 pi i (t.lam + lam^T U lam / 2 + x^T M lam))

with U integer, M rational and t rational, subject to the cocycle condition
M - (U + U^T)/2 being an integer matrix.  The classical pair normal form
(alternating pairing plus semicharacter) produces such a factor, and gauge
moves by quadratic exponentials stay inside the shape.

The Poincare bundle on T x T-hat is the pair of the standard symplectic
pairing; restricted to T x {w} it is flat with holonomy w, which is the
dual-support condition of the transform (Mukai, Nagoya Math. J. 81, 1981).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linalg import IntMatrix, RatMatrix, RatVector, dot, mod1, rat_vector
from .torus import AffineSubtorus


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
        u = self.upper.rows
        for i, row in enumerate(self.bilinear.rows):
            for j, m in enumerate(row):
                # m - (u_ij + u_ji)/2 is an integer: 2m - u_ij - u_ji is even.
                if (2 * m - u[i][j] - u[j][i]) % 2:
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


def gauge_transform(f: FactorOfAutomorphy, quadratic: IntMatrix) -> FactorOfAutomorphy:
    """Conjugate the factor by exp(pi i x^T S x) for the integer matrix S.

    The transformed factor is a(x, lam) multiplied by phi(x + lam)/phi(x);
    it describes the same bundle in a different trivialization.
    """
    g = f.dim
    if quadratic.shape != (g, g):
        raise ValueError("dimension mismatch")
    s = quadratic.rows
    upper = IntMatrix(
        tuple(tuple(f.upper.rows[i][j] + s[i][j] for j in range(g)) for i in range(g)), g
    )
    bilinear = RatMatrix(
        tuple(
            tuple(f.bilinear.rows[i][j] + Fraction(s[i][j] + s[j][i], 2) for j in range(g))
            for i in range(g)
        ),
        g,
    )
    return FactorOfAutomorphy(g, upper, bilinear, f.char)


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
    m = f.bilinear.rows
    char = tuple(
        f.char[j] + sum(Fraction(v) * m[i][j] for i, v in fixed.items() if m[i][j]) for j in keep
    )
    return FactorOfAutomorphy(len(keep), upper, bilinear, char)


# ---------------------------------------------------------------- pair form


@dataclass(frozen=True)
class AppellHumbertPair:
    """Alternating integer pairing with a compatible semicharacter.

    The semicharacter is pinned by its phases on the lattice generators;
    the composition law

        c(lam + mu) = c(lam) + c(mu) + pairing(lam, mu)/2   (mod 1)

    then determines it everywhere, with no choices left.  It is the value
    of the factor at x = 0.
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

    def pairing_value(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        rows = self.pairing.rows
        return sum(a * sum(p * b for p, b in zip(row, mu)) for a, row in zip(lam, rows))

    def factor(self) -> FactorOfAutomorphy:
        g = self.dim
        p = self.pairing.rows
        strict_upper = IntMatrix(
            tuple(tuple(p[i][j] if j > i else 0 for j in range(g)) for i in range(g)), g
        )
        half = RatMatrix(tuple(tuple(Fraction(e, 2) for e in row) for row in p), g)
        return FactorOfAutomorphy(g, strict_upper, half, self.chi_log)


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
    """Quadratic gauge exp(sign * pi i y.w) as an integer matrix.

    With sign +1 the Poincare factor becomes exp(2 pi i w.m) on the lattice
    vector (m, n), so pinning w leaves the flat bundle with holonomy w on
    the first factor; with sign -1 pinning y leaves holonomy -y on the
    second.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rows = []
    for i in range(g):
        rows.append(tuple(0 for _ in range(g)) + tuple(sign * int(i == j) for j in range(g)))
    for _ in range(g):
        rows.append(tuple(0 for _ in range(2 * g)))
    return IntMatrix(rows, 2 * g)


def pairing_vanishes(s: AffineSubtorus, s_hat: AffineSubtorus) -> bool:
    """Whether the Poincare pairing annihilates all direction pairs.

    Directions u along s (in the first factor) and v along s_hat (in the
    second) are paired by the Chern form of the Poincare bundle, which is
    -u.v; vanishing for all pairs is the curvature-flatness part of
    normality and holds exactly when the two direction lattices annihilate
    each other under the dot pairing.
    """
    if s.torus.dim != s_hat.torus.dim:
        return False
    g = s.torus.dim
    pair = poincare_pair(g)
    zeros = (0,) * g
    return all(
        pair.pairing_value(tuple(u) + zeros, zeros + tuple(v)) == 0
        for u in s.direction_basis().rows
        for v in s_hat.direction_basis().rows
    )
