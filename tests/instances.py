"""Deterministic generators of Lagrangian fibred supports for tests.

Instances are built so that the Lagrangian condition holds by
construction, exactly: the slope matrix is solved from the chosen base
equations through triangular elimination, and the fibre offsets are
taken from a scalar potential, which kills the offset curl.  Both
projection regimes (k below and above g/2) come out of the same recipe.
"""

from fractions import Fraction
import random

from torusfm.exact_linalg import RatMatrix
from torusfm.expr import Expr, ZERO, diff, eval_exact, num, var
from torusfm.fm_relative import LocalSystemData, RelativeSupport, SectionSupport


def _rat(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3)))


def _poly_atom(rng: random.Random, allowed: list[int]) -> Expr:
    """A small polynomial in the allowed variables, possibly zero."""
    if not allowed or rng.random() < 0.3:
        return ZERO
    v = var(rng.choice(allowed))
    c = num(_rat(rng))
    kind = rng.randrange(3)
    if kind == 0:
        return c * v
    if kind == 1:
        return c * (v * var(rng.choice(allowed)))
    return c * (v * v)


def constant_instance(
    g: int, k: int, rng: random.Random
) -> tuple[RelativeSupport, LocalSystemData]:
    """A random constant-coefficient Lagrangian instance.

    The base image is linear with a random integer-free slope; the slope
    matrix of the fibre equations is the unique solution of the
    Lagrangian system for that base image.
    """
    m_free = g - k
    if k == 0:
        s = RelativeSupport(g, 0, tuple(num(_rat(rng)) for _ in range(g)), (), ())
        xi = tuple(_rat(rng) for _ in range(g))
        return s, LocalSystemData((), xi)

    while True:
        gamma = [[_rat(rng) for _ in range(k)] for _ in range(m_free)]
        rows = []
        for jp in range(1, k + 1):
            c = m_free + jp
            if c <= k:
                rows.append([Fraction(1 if j == c else 0) for j in range(1, k + 1)])
            else:
                rows.append(list(gamma[c - k - 1]))
        gt = RatMatrix(rows, k)
        try:
            gt_inv = gt.inverse()
        except ValueError:
            continue
        break

    inv = gt_inv.rows
    a = []
    for jp in range(k):
        a.append([Fraction(0)] * m_free)
    for m in range(1, m_free + 1):
        v = [
            Fraction(1 if m == j else 0)
            if m <= k
            else gamma[m - k - 1][j - 1]
            for j in range(1, k + 1)
        ]
        # solve sum_jp a[jp][m-1] * gt[jp][j] = -v[j]
        sol = [-sum(inv[l][jp] * v[l] for l in range(k)) for jp in range(k)]
        for jp in range(k):
            a[jp][m - 1] = sol[jp]

    zeta = tuple(
        sum((c * var(j) for j, c in enumerate(gamma[i], 1)), ZERO) + num(_rat(rng))
        for i in range(m_free)
    )
    chi = tuple(num(_rat(rng)) for _ in range(k))
    support = RelativeSupport(
        g, k, zeta, tuple(tuple(num(e) for e in row) for row in a), chi
    )
    alpha = tuple(num(_rat(rng)) for _ in range(k))
    xi = tuple(_rat(rng) for _ in range(m_free))
    return support, LocalSystemData(alpha, xi)


def gauged_instance(
    g: int, k: int, rng: random.Random
) -> tuple[RelativeSupport, LocalSystemData]:
    """A constant-slope instance whose fibre offsets come from a potential.

    The offsets are generally non-constant, so the inverse transform
    returns the connection only up to the exact gauge term; the support
    and the holonomies return identically.
    """
    s, system = constant_instance(g, k, rng)
    if k == 0:
        return s, system
    frame = [var(c) for c in range(1, k + 1)] + list(s.zeta)
    zeros = (Fraction(0),) * k
    gt = RatMatrix(
        [
            [
                eval_exact(diff(frame[g - k + jp - 1], j), zeros)
                for j in range(1, k + 1)
            ]
            for jp in range(1, k + 1)
        ],
        k,
    )
    inv = gt.inverse().rows
    psi = num(_rat(rng)) * (var(rng.randint(1, k)) * var(rng.randint(1, k)))
    psi = psi + _poly_atom(rng, list(range(1, k + 1)))
    grad = [diff(psi, j) for j in range(1, k + 1)]
    chi = tuple(
        sum((inv[l][jp] * e for l, e in enumerate(grad)), ZERO) for jp in range(k)
    )
    return RelativeSupport(g, k, s.zeta, s.a, chi), system


def polynomial_instance(
    g: int, k: int, rng: random.Random
) -> tuple[RelativeSupport, LocalSystemData]:
    """A Lagrangian instance with polynomial slopes and offsets.

    Base potentials phi_i define zeta; the block of phi entering the
    solvability matrix is unit triangular, so the slope matrix and the
    offsets from the scalar potential psi come out by back substitution,
    with no division.
    """
    m_free = g - k
    if k == 0 or m_free == 0:
        return constant_instance(g, k, rng)
    n = min(k, m_free)
    r0 = m_free - n
    tail = list(range(m_free + 1, k + 1))

    phi: list[Expr] = []
    for i in range(1, m_free + 1):
        if i <= r0:
            phi.append(_poly_atom(rng, list(range(1, k + 1))))
        else:
            c = i - r0
            allowed = list(range(1, c)) + tail
            phi.append(_poly_atom(rng, allowed) - var(c))

    def w_col(m: int) -> list[Expr]:
        """Column of d/dx_j of the m-th free coordinate function, j = 1..k."""
        if m <= k:
            return [num(1) if j == m else ZERO for j in range(1, k + 1)]
        return [diff(phi[m - k - 1], j) for j in range(1, k + 1)]

    # Gamma-block rows of the solvability matrix, as functions.
    gb = [phi[r0 + i - 1] for i in range(1, n + 1)]

    def solve_last(rhs: list[Expr]) -> list[Expr]:
        """Back substitution for sum_i c_i * d_j gb_i = rhs_j, j = 1..n."""
        out: list[Expr] = [ZERO] * n
        for j in range(n, 0, -1):
            e = -rhs[j - 1]
            for i in range(j + 1, n + 1):
                e = e + out[i - 1] * diff(gb[i - 1], j)
            out[j - 1] = e
        return out

    a_cols: list[list[Expr]] = []
    for m in range(1, m_free + 1):
        v = w_col(m)
        last = solve_last([-x for x in v])
        first = []
        for jpp in range(1, (k - n) + 1):
            col = m_free + jpp
            e = ZERO
            for i in range(1, n + 1):
                e = e - last[i - 1] * diff(gb[i - 1], col)
            first.append(e)
        a_cols.append(first + last)

    a = tuple(
        tuple(a_cols[m][jp] for m in range(m_free)) for jp in range(k)
    )

    psi = _poly_atom(rng, list(range(1, k + 1)))
    grad_psi = [diff(psi, j) for j in range(1, k + 1)]
    chi_last = solve_last(grad_psi[:n])
    chi_first = []
    for jpp in range(1, (k - n) + 1):
        col = m_free + jpp
        e = grad_psi[col - 1]
        for i in range(1, n + 1):
            e = e - chi_last[i - 1] * diff(gb[i - 1], col)
        chi_first.append(e)
    chi = tuple(chi_first + chi_last)

    support = RelativeSupport(g, k, tuple(phi), a, chi)
    alpha = tuple(num(_rat(rng)) for _ in range(k))
    xi = tuple(_rat(rng) for _ in range(m_free))
    return support, LocalSystemData(alpha, xi)


def section_instance(
    g: int, rng: random.Random
) -> tuple[RelativeSupport, LocalSystemData]:
    """A Lagrangian graph over the whole base (k = g), from a scalar potential."""
    pot = _poly_atom(rng, list(range(1, g + 1)))
    eps = tuple(diff(pot, j) + num(_rat(rng)) for j in range(1, g + 1))
    apot = _poly_atom(rng, list(range(1, g + 1)))
    alpha = tuple(diff(apot, j) + num(_rat(rng)) for j in range(1, g + 1))
    return SectionSupport(eps), LocalSystemData(alpha, ())
