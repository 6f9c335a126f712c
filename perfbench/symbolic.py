"""The `symbolic` workload: condition checks and relative transforms.

`expr` and `fm_relative` do most of the work here and `exact_linalg`
almost none.  It is the only workload whose verdicts can be numerical:
C2 rank drops are found by sampling, and sin/cos content that cancels
only through a trig identity is sampled too.

Inputs are built in the benchmark's own polynomial algebra (`poly`) with
known answers and handed to the library as text.  Outputs are read back
through the library's printer and checked in the same algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction

import poly as P
from lattice import constant_slope_instance, det_fraction, random_rational
from workload import Op, Workload

ROUND_TRIP_G = tuple(range(3, 12))
POLYNOMIAL_G = tuple(range(3, 9))
C2_G = (4, 6, 8, 10, 12)
# Two constant-rank instances per rank-drop instance.  A constant-rank check
# costs about twice a rank-drop check, and with equal numbers the median at
# g = 12 would fall in the gap between the two.
C2_VARIANTS = (False, False, True)
TRIG_VARS = (2, 3, 4)
ROUNDS_PER_SECOND = 1.0
NUMERIC_POINTS = 5
NUMERIC_TOL = 1e-9


def params() -> dict:
    return {
        "round_trip_g": list(ROUND_TRIP_G),
        "round_trip_variants": ["constant offsets", "offsets from a quadratic potential"],
        "polynomial_g": list(POLYNOMIAL_G),
        "round_trip_k": "1 + (round + g) mod (g - 1)",
        "polynomial_k": "1 + (round + g) mod (g / 2)",
        "c2_g": list(C2_G),
        "c2_k": "g/2",
        "c2_drop_share": "1 in 3",
        "c2_variants": ["unit lower-bidiagonal multiplier, c*x_i below row i's one, "
                        "times a constant full-rank matrix",
                        "its last row scaled by (x1 - 1/2)"],
        "c2_constant_entries": "-2, -1, 1, 2, full rank",
        "trig_vars": list(TRIG_VARS),
        "trig_variants": ["closed connection", "connection with a curl"],
        "rounds_per_second": ROUNDS_PER_SECOND,
    }


def _rat(rng) -> Fraction:
    return random_rational(rng, 3, (1, 2, 3))


def _texts(lib, polys):
    return tuple(lib.parse(P.to_text(p)) for p in polys)


def _read(lib, exprs):
    return [P.parse(lib.to_str(e)) for e in exprs]


def _read_rows(lib, rows):
    return [_read(lib, row) for row in rows]


def _expect(report, holds: bool, what: str):
    if report.holds != holds:
        strength = "proven" if report.verdict.proven else "numerical"
        return f"{what} {'fails' if holds else 'holds'} ({strength}), construction says otherwise"
    return None


def _sum_verdicts(verdicts) -> tuple:
    proven = sum(1 for v in verdicts if v.proven)
    return proven, len(verdicts) - proven


# ----------------------------------------------------------------- round trip


def _round_trip_op(lib, rng, g: int, k: int, gauged: bool) -> Op:
    m_free = g - k
    gamma, zeta0, a, chi0, b_mat, alpha, xi = constant_slope_instance(rng, g, k, gauged)
    zeta = [P.add(P.const(z0), _linear(row)) for row, z0 in zip(gamma, zeta0)]
    chi = [P.add(P.const(c0), _linear(row)) for row, c0 in zip(b_mat, chi0)]
    s = lib.RelativeSupport(
        g, k, _texts(lib, zeta), tuple(_texts(lib, [P.const(e) for e in row]) for row in a),
        _texts(lib, chi),
    )
    system = lib.LocalSystemData(_texts(lib, [P.const(e) for e in alpha]), tuple(xi))

    def call():
        c1 = lib.check_C1_lagrangian(s)
        c2, c3 = lib.check_C2_C3(s)
        bundle = lib.transform_nontransversal(s, system)
        inv = lib.inverse_transform(lib.dual_input_from_bundle(bundle))
        return c1, c2, c3, bundle, inv

    def check(out):
        c1, c2, c3, bundle, inv = out
        for rep, name in ((c1, "C1"), (c2, "C2"), (c3, "C3")):
            err = _expect(rep, True, name)
            if err:
                return err
        if not bundle.holomorphic.is_zero:
            return "constant slopes reported not holomorphic"
        if _read_rows(lib, bundle.gamma_tilde) != [[P.const(e) for e in row] for row in gamma]:
            return "dual slopes are not the Jacobian of zeta"
        if bundle.wit_index != m_free or inv.wit_index != k:
            return "wrong wit index"
        if _read(lib, inv.support.zeta) != zeta:
            return "inverse changed zeta"
        if _read_rows(lib, inv.support.a) != [[P.const(e) for e in row] for row in a]:
            return "inverse changed the slopes"
        if _read(lib, inv.support.chi) != chi:
            return "inverse changed the fibre offsets"
        if list(inv.system.xi) != list(xi):
            return "inverse changed the holonomy"
        drift = [P.sub(out_j, P.const(in_j)) for out_j, in_j in zip(_read(lib, inv.system.alpha), alpha)]
        if not gauged and any(drift):
            return "inverse changed alpha although the offsets are constant"
        if not _is_pi_gradient(drift):
            return "alpha drift is not an exact gauge term"
        return None

    def verdicts(out):
        c1, c2, c3, bundle, _ = out
        return _sum_verdicts([c1.verdict, c2.verdict, c3.verdict, bundle.holomorphic])

    return Op("round_trip", g, call, check, verdicts)


def _linear(coeffs) -> dict:
    out = P.ZERO
    for j, c in enumerate(coeffs):
        out = P.add(out, P.scale(P.x(j + 1), c))
    return out


def _is_pi_gradient(drift) -> bool:
    """Every term carries pi once and the drift has no curl."""
    for d in drift:
        if any(dict(mono).get(("pi",)) != 1 for mono in d):
            return False
    n = len(drift)
    return all(
        P.diff(drift[j], m + 1) == P.diff(drift[m], j + 1)
        for j in range(n) for m in range(j + 1, n)
    )


# ----------------------------------------------------------------- polynomial


def _poly_atom(rng, allowed) -> dict:
    """A small polynomial in the allowed variables, possibly zero."""
    if not allowed or rng.random() < 0.3:
        return P.ZERO
    v = P.x(rng.choice(allowed))
    c = _rat(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return P.scale(v, c)
    if kind == 1:
        return P.scale(P.mul(v, P.x(rng.choice(allowed))), c)
    return P.scale(P.mul(v, v), c)


def polynomial_instance(rng, g: int, k: int):
    """Lagrangian instance with polynomial slopes, for k <= g - k.

    Mirrors the test suite's construction: the block of base potentials
    entering the solvability matrix is unit triangular, so the slope matrix
    and the offsets come out by back substitution.  Its first k columns
    form a triangular matrix with diagonal -1, so the fibre rank is k
    everywhere: C2 holds, provably.
    """
    m_free = g - k
    n = k
    r0 = m_free - n
    phi = []
    for i in range(1, m_free + 1):
        if i <= r0:
            phi.append(_poly_atom(rng, list(range(1, k + 1))))
        else:
            c = i - r0
            phi.append(P.sub(_poly_atom(rng, list(range(1, c))), P.x(c)))
    gb = phi[r0:r0 + n]

    def solve_last(rhs):
        out = [P.ZERO] * n
        for j in range(n, 0, -1):
            e = P.scale(rhs[j - 1], -1)
            for i in range(j + 1, n + 1):
                e = P.add(e, P.mul(out[i - 1], P.diff(gb[i - 1], j)))
            out[j - 1] = e
        return out

    cols = []
    for m in range(1, m_free + 1):
        v = [P.const(int(j == m)) for j in range(1, k + 1)] if m <= k else \
            [P.diff(phi[m - k - 1], j) for j in range(1, k + 1)]
        cols.append(solve_last([P.scale(e, -1) for e in v]))
    a = [[cols[m][jp] for m in range(m_free)] for jp in range(k)]
    psi = _poly_atom(rng, list(range(1, k + 1)))
    chi = solve_last([P.diff(psi, j) for j in range(1, k + 1)])
    alpha = [P.const(_rat(rng)) for _ in range(k)]
    xi = [_rat(rng) % 1 for _ in range(m_free)]
    return phi, a, chi, alpha, xi


def _hodge_expected(turns):
    n = len(turns)
    dt = [[P.diff(turns[j], m + 1) for j in range(n)] for m in range(n)]
    half_pi = P.scale(P.PI, Fraction(1, 2))
    f20 = [[P.mul(half_pi, P.sub(dt[m][j], dt[j][m])) for j in range(n)] for m in range(n)]
    f11 = [[P.scale(P.mul(half_pi, P.add(dt[m][j], dt[j][m])), -1) for j in range(n)] for m in range(n)]
    f02 = [[P.mul(half_pi, P.sub(dt[j][m], dt[m][j])) for j in range(n)] for m in range(n)]
    return f20, f11, f02


def _polynomial_op(lib, rng, g: int, k: int) -> Op:
    phi, a, chi, alpha, xi = polynomial_instance(rng, g, k)
    s = lib.RelativeSupport(g, k, _texts(lib, phi), tuple(_texts(lib, row) for row in a), _texts(lib, chi))
    system = lib.LocalSystemData(_texts(lib, alpha), tuple(xi))
    slopes_constant = all(P.is_constant(e) for row in a for e in row)
    jacobian = [[P.diff(z, j) for j in range(1, k + 1)] for z in phi]
    jacobian_constant = all(P.is_constant(e) for row in jacobian for e in row)

    def call():
        c1 = lib.check_C1_lagrangian(s)
        c2, c3 = lib.check_C2_C3(s)
        bundle = lib.transform_nontransversal(s, system)
        hodge = lib.curvature_hodge(bundle)
        f02 = lib.check_F02_iff_lagrangian(s, bundle)
        return c1, c2, c3, bundle, hodge, f02

    def check(out):
        c1, c2, c3, bundle, hodge, f02 = out
        for rep, holds, name in ((c1, True, "C1"), (c2, True, "C2"), (c3, slopes_constant, "C3")):
            err = _expect(rep, holds, name)
            if err:
                return err
        if bundle.holomorphic.is_zero != jacobian_constant:
            return "holomorphic verdict contradicts the Jacobian of zeta"
        if _read_rows(lib, bundle.gamma_tilde) != jacobian:
            return "dual slopes are not the Jacobian of zeta"
        turns = _read(lib, bundle.fibre_turns)
        expected = _hodge_expected(turns)
        for got, want, name in zip(hodge, expected, ("F20", "F11", "F02")):
            if _read_rows(lib, got) != want:
                return f"{name} differs from the curvature of the fibre turns"
        if any(e for row in expected[2] for e in row):
            return "F02 of a Lagrangian input is not zero"
        if f02.kind != "proven_zero":
            return f"F02 identity reported {f02.kind}"
        return None

    def verdicts(out):
        c1, c2, c3, bundle, _, f02 = out
        return _sum_verdicts([c1.verdict, c2.verdict, c3.verdict, bundle.holomorphic, f02])

    return Op("polynomial", g, call, check, verdicts)


# ------------------------------------------------------------------------- C2


def _c2_op(lib, rng, g: int, drops: bool) -> Op:
    """C2 alone on k x k slopes, k = g/2: L * C, optionally one row times (x1 - 1/2)."""
    k = g // 2
    while True:
        const = [[Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(k)] for _ in range(k)]
        if det_fraction(const):
            break
    # The multiplier is unit lower bidiagonal with x_i below row i's one.
    # Its pattern is fixed, so instances of one size differ in coefficients
    # only and cost about the same.
    low = [[P.ONE if i == j else P.ZERO for j in range(k)] for i in range(k)]
    for i in range(1, k):
        low[i][i - 1] = P.scale(P.x(i), rng.choice((-2, -1, 1, 2)))
    a = [[_dot([low[i][t] for t in range(k)], [const[t][j] for t in range(k)]) for j in range(k)]
         for i in range(k)]
    if drops:
        a[k - 1] = [P.mul(e, P.sub(P.x(1), P.const(Fraction(1, 2)))) for e in a[k - 1]]
    s = lib.RelativeSupport(g, k, _texts(lib, [P.ZERO] * (g - k)),
                            tuple(_texts(lib, row) for row in a), _texts(lib, [P.ZERO] * k))
    slopes_constant = all(P.is_constant(e) for row in a for e in row)

    def call():
        return lib.check_C2_C3(s)

    def check(out):
        c2, c3 = out
        return _expect(c2, not drops, "C2") or _expect(c3, slopes_constant, "C3")

    def verdicts(out):
        return _sum_verdicts([out[0].verdict, out[1].verdict])

    return Op("c2", g, call, check, verdicts)


def _dot(polys, consts) -> dict:
    out = P.ZERO
    for p, c in zip(polys, consts):
        out = P.add(out, P.scale(p, c))
    return out


# ----------------------------------------------------------------------- trig


def _trig_potential(rng, n: int) -> dict:
    """Two trig terms of linear forms in at least two variables, plus x1*x2."""
    psi = P.scale(P.mul(P.x(1), P.x(2)), _rat(rng))
    for _ in range(2):
        vs = rng.sample(range(1, n + 1), 2)
        form = P.add(P.scale(P.x(vs[0]), rng.randint(1, 3)), P.scale(P.x(vs[1]), rng.choice((-2, -1, 1, 2))))
        c = P.const(Fraction(rng.randint(1, 4), rng.choice((1, 2))))
        psi = P.add(psi, P.mul(c, P.sin(form) if rng.random() < 0.5 else P.cos(form)))
    return psi


def _trig_op(lib, rng, n: int, closed: bool) -> Op:
    psi = _trig_potential(rng, n)
    alpha = [P.diff(psi, j) for j in range(1, n + 1)]
    alpha[0] = P.expand_angles(alpha[0])
    if not closed:
        alpha[0] = P.add(alpha[0], P.scale(P.cos(P.x(2)), rng.randint(1, 3)))
    eps_pot = _trig_potential(rng, n)
    eps = [P.diff(eps_pot, j) for j in range(1, n + 1)]
    eps[0] = P.expand_angles(eps[0])
    alpha_exprs = _texts(lib, alpha)
    section = lib.SectionSupport(_texts(lib, eps))
    hessian = [[P.diff(P.diff(eps_pot, j), m) for j in range(1, n + 1)] for m in range(1, n + 1)]
    points = [[rng.random() for _ in range(n)] for _ in range(NUMERIC_POINTS)]

    def call():
        flat = lib.check_flat(alpha_exprs)
        f20, f11, f02 = lib.curvature_hodge(section)
        zero = [lib.is_zero(e) for grid in (f20, f02) for row in grid for e in row]
        return flat, (f20, f11, f02), zero

    def check(out):
        flat, (f20, f11, f02), zero = out
        err = _expect(flat, closed, "flatness")
        if err:
            return err
        if not closed and "dalpha[1][2]" not in flat.failures:
            return "the curl of alpha is not named"
        if not all(v.is_zero for v in zero):
            return "a (2,0) or (0,2) part of a gradient section was reported nonzero"
        for grid in (f20, f02):
            for row in _read_rows(lib, grid):
                for e in row:
                    if any(abs(P.evaluate(e, p)) > NUMERIC_TOL for p in points):
                        return "a (2,0) or (0,2) entry does not vanish"
        for row, want in zip(_read_rows(lib, f11), hessian):
            for e, h in zip(row, want):
                if any(abs(P.evaluate(e, p) - math.pi * P.evaluate(h, p)) > NUMERIC_TOL * 100 for p in points):
                    return "F11 is not pi times the Hessian"
        return None

    def verdicts(out):
        flat, _, zero = out
        return _sum_verdicts([flat.verdict] + zero)

    return Op("trig", n, call, check, verdicts)


# ---------------------------------------------------------------------- build


def build(lib, rng, seconds: float) -> Workload:
    ops = []
    for r in range(max(2, math.ceil(seconds * ROUNDS_PER_SECOND))):
        round_ops = []
        # Shapes rotate with the round, the same for every seed.
        for i, g in enumerate(ROUND_TRIP_G):
            round_ops.append(_round_trip_op(lib, rng, g, 1 + (r + g) % (g - 1), gauged=(i + r) % 2 == 1))
        for g in POLYNOMIAL_G:
            round_ops.append(_polynomial_op(lib, rng, g, 1 + (r + g) % (g // 2)))
        for g in C2_G:
            for drops in C2_VARIANTS:
                round_ops.append(_c2_op(lib, rng, g, drops))
        for n in TRIG_VARS:
            for closed in (True, False):
                round_ops.append(_trig_op(lib, rng, n, closed))
        # Heavy and light operations are spread through each round, so a
        # run that stops inside a round still sees the round's mix.
        rng.shuffle(round_ops)
        ops.extend(round_ops)

    def flip(report):
        kind = "proven_nonzero" if report.holds else "proven_zero"
        return lib.ConditionReport(report.name, lib.Verdict(kind), report.failures)

    corrupt = {
        "round_trip": lambda out: (flip(out[0]),) + out[1:],
        "polynomial": lambda out: out[:1] + (flip(out[1]),) + out[2:],
        "c2": lambda out: (flip(out[0]), out[1]),
        "trig": lambda out: (flip(out[0]),) + out[1:],
    }
    return Workload(ops, cycle=True, top_g=max(C2_G), tail_percentile=95.0,
                    corrupt=corrupt, params=params())
