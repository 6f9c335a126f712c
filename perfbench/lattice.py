"""The `lattice` workload: absolute round trips and fibre-slice comparisons.

Both kinds of operation spend their time in `exact_linalg` and `torus`; no
expression is built or tested while they are timed.  Every input is
distinct, so only per-torus caching can help, not caching of results.

Checks use the benchmark's own integer and Fraction arithmetic.  A
canonical subtorus is pinned down by properties that are cheap to test and
need no normal-form algorithm: its equations are in Hermite shape, span the
input rows over Z, have gcd 1 among their maximal minors, and the offset
makes a particular solution of the input system lie on it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from workload import Op, Workload

# Entry range of the raw equations by torus dimension.  Smith-form
# multipliers still grow to about 150 bits at g = 6 and 230 at g = 7, but
# no square system takes more than a few ms: with [-3, 3] at g = 7 and
# [-2, 2] at g = 8, about one in 500 to 2000 took seconds.
ENTRY_RANGE = {2: 6, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}
G_RANGE = (2, 8)
# Slices stop at g = 6: at g = 7 and 8 the scaled slice equations make the
# Smith form take seconds, which would turn the slice kind into a deadline
# test.  The round trips still reach g = 8.
SLICE_SHAPES = [(g, k) for g in range(2, 7) for k in range(1, g)]
INSTANCES_PER_SHAPE = 3
ABSOLUTE_PER_SLICE = 2
METRICS_PER_G = 2
# Inputs are generated for this many operations per second of run time.
OPS_PER_SECOND_BOUND = 500
_PRIME = 2_147_483_647


def params() -> dict:
    return {
        "entry_range": ENTRY_RANGE,
        "g_range": list(G_RANGE),
        "slice_shapes": SLICE_SHAPES,
        "instances_per_slice_shape": INSTANCES_PER_SHAPE,
        "absolute_per_slice": ABSOLUTE_PER_SLICE,
        "metrics_per_g": METRICS_PER_G,
        "offset_range": "numerators -5..5, denominators 1..5",
    }


# ------------------------------------------------------------ own arithmetic


def rank_mod_p(rows, ncols: int) -> int:
    """Rank over GF(p); a lower bound on the rank over Q."""
    work = [[e % _PRIME for e in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], _PRIME - 2, _PRIME)
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] * inv % _PRIME
                work[i] = [(a - f * b) % _PRIME for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def det(rows) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve(rows, rhs, ncols: int):
    """One rational solution of rows * y = rhs, or None if inconsistent."""
    aug = [[Fraction(e) for e in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [e * inv for e in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(row[ncols] for row in aug[r:]):
        return None
    y = [Fraction(0)] * ncols
    for row, c in zip(aug, pivots):
        y[c] = row[ncols]
    return y


def hermite_pivots(rows, ncols: int):
    """Pivot columns if the rows are in canonical Hermite shape, else None."""
    pivots = []
    for t, row in enumerate(rows):
        if len(row) != ncols:
            return None
        p = next((j for j, e in enumerate(row) if e), None)
        if p is None or p <= (pivots[-1] if pivots else -1) or row[p] <= 0:
            return None
        for s in range(t):
            if not 0 <= rows[s][p] < row[p]:
                return None
        pivots.append(p)
    return pivots


def in_integer_span(vec, rows, pivots) -> bool:
    rest = list(vec)
    for row, p in zip(rows, pivots):
        q, r = divmod(rest[p], row[p])
        if r:
            return False
        if q:
            rest = [a - q * b for a, b in zip(rest, row)]
    return not any(rest)


def saturated(rows, pivots, ncols: int) -> bool:
    """gcd of the maximal minors is 1; the pivot minor is tried first."""
    r = len(rows)
    if r == 0:
        return True
    g = math.prod(rows[t][p] for t, p in enumerate(pivots))
    if g == 1:
        return True
    for cols in itertools.combinations(range(ncols), r):
        g = math.gcd(g, det([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return True
    return False


def mod1(x) -> Fraction:
    return Fraction(x) % 1


def subtorus_error(eqns, offset, raw_rows, raw_offsets, g: int):
    """Why (eqns, offset) is not the canonical form of raw rows y + c = 0."""
    r = len(raw_rows)
    if len(eqns) != r or len(offset) != r:
        return f"expected {r} canonical equations, got {len(eqns)}"
    if r == 0:
        return None
    pivots = hermite_pivots(eqns, g)
    if pivots is None:
        return "equations are not in Hermite shape"
    if not all(in_integer_span(row, eqns, pivots) for row in raw_rows):
        return "input rows are not in the span of the equations"
    if not saturated(eqns, pivots, g):
        return "equations are not saturated"
    y0 = solve(raw_rows, [-c for c in raw_offsets], g)
    for row, c in zip(eqns, offset):
        if not 0 <= c < 1:
            return "offset not reduced into [0, 1)"
        if (sum(a * y for a, y in zip(row, y0)) + c).denominator != 1:
            return "offset does not pass through the input subtorus"
    return None


def kernel_error(kernel, eqns, g: int):
    """Why `kernel` is not the canonical saturated kernel of `eqns`."""
    if len(kernel) != g - len(eqns):
        return f"kernel has {len(kernel)} rows, expected {g - len(eqns)}"
    if not kernel:
        return None
    pivots = hermite_pivots(kernel, g)
    if pivots is None:
        return "kernel is not in Hermite shape"
    if any(sum(a * b for a, b in zip(k, e)) for k in kernel for e in eqns):
        return "kernel rows are not orthogonal to the equations"
    if not saturated(kernel, pivots, g):
        return "kernel is not saturated"
    return None


def inverse_error(metric, dual_metric, g: int):
    for i in range(g):
        for j in range(g):
            s = sum(metric[i][t] * dual_metric[t][j] for t in range(g))
            if s != (i == j):
                return "dual metric is not the inverse metric"
    return None


# ---------------------------------------------------------------- generators


def random_rational(rng, span=5, dens=(1, 2, 3, 4, 5)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def _metric(rng, g: int):
    """A rational symmetric positive definite matrix: L L^T + I."""
    low = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) if j < i else Fraction(int(i == j))
            for j in range(g)] for i in range(g)]
    return [[sum(low[i][t] * low[j][t] for t in range(g)) + (i == j) for j in range(g)]
            for i in range(g)]


def full_rank_rows(rng, g: int, codim: int):
    span = ENTRY_RANGE[g]
    while True:
        rows = [[rng.randint(-span, span) for _ in range(g)] for _ in range(codim)]
        if rank_mod_p(rows, g) == codim:
            return rows


def constant_slope_instance(rng, g: int, k: int, gauged: bool = True):
    """Lagrangian instance with constant slopes, as plain Fractions.

    Mirrors the construction of the test suite: a random base slope gamma,
    the fibre slope matrix solved from the Lagrangian system for it, and
    fibre offsets chi(x) = chi0 + B x taken from the gradient of a
    quadratic potential, which keeps the offset curl zero.  The offsets
    vary over the base, so every base point gives a different slice;
    with gauged=False they are constant.  Returns (gamma, zeta0, a, chi0, B, alpha, xi).
    """
    m_free = g - k
    while True:
        gamma = [[random_rational(rng, 3, (1, 2, 3)) for _ in range(k)] for _ in range(m_free)]
        gt = []
        for jp in range(1, k + 1):
            c = m_free + jp
            gt.append([Fraction(int(j == c)) for j in range(1, k + 1)] if c <= k else list(gamma[c - k - 1]))
        if det_fraction(gt):
            break
    a = [[Fraction(0)] * m_free for _ in range(k)]
    gtt = [list(col) for col in zip(*gt)]
    for m in range(1, m_free + 1):
        v = [Fraction(int(m == j)) if m <= k else gamma[m - k - 1][j - 1] for j in range(1, k + 1)]
        sol = solve(gtt, [-e for e in v], k)
        for jp in range(k):
            a[jp][m - 1] = sol[jp]
    hess = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            hess[i][j] = hess[j][i] = random_rational(rng, 2, (1, 2)) if gauged else Fraction(0)
    # chi = gt^{-T} (hess x): column l of B solves gt^T b = hess[:, l].
    cols = [solve(gtt, [hess[i][l] for i in range(k)], k) for l in range(k)]
    b_mat = [[cols[l][j] for l in range(k)] for j in range(k)]
    zeta0 = [random_rational(rng, 3, (1, 2, 3)) for _ in range(m_free)]
    chi0 = [random_rational(rng, 3, (1, 2, 3)) for _ in range(k)]
    alpha = [random_rational(rng, 3, (1, 2, 3)) for _ in range(k)]
    xi = [mod1(random_rational(rng, 3, (1, 2, 3))) for _ in range(m_free)]
    return gamma, zeta0, a, chi0, b_mat, alpha, xi


def det_fraction(rows) -> Fraction:
    n = len(rows)
    m = [list(r) for r in rows]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return d


def affine_text(coeffs, c0) -> str:
    """Text of c0 + sum coeffs[j] x<j+1>."""
    terms = [f"({c})*x{j + 1}" for j, c in enumerate(coeffs) if c]
    return " + ".join(terms + [f"({c0})"])


def _integer_rows(rows, offsets):
    out_rows, out_offsets = [], []
    for row, off in zip(rows, offsets):
        scale = math.lcm(*(e.denominator for e in list(row) + [off]))
        out_rows.append([int(e * scale) for e in row])
        out_offsets.append(off * scale)
    return out_rows, out_offsets


# ----------------------------------------------------------------- operations


def _absolute_op(lib, torus, metric, rows, offsets, holonomy) -> Op:
    g = len(metric)
    codim = len(rows)

    def call():
        s = lib.subtorus_from_equations(torus, rows, offsets)
        system = lib.SubtorusLocalSystem(s, holonomy)
        once = lib.transform(system)
        twice = lib.transform(once.system)
        normal = lib.is_normal_to(s, once.system.support)
        return system, once, twice, normal

    def check(out):
        system, once, twice, normal = out
        s = system.support
        eqns = [list(r) for r in s.eqns.rows]
        err = subtorus_error(eqns, list(s.offset), rows, offsets, g)
        if err:
            return err
        if list(system.holonomy) != [mod1(h) for h in holonomy]:
            return "holonomy not reduced mod 1"
        dual = once.system.support
        err = kernel_error([list(r) for r in dual.eqns.rows], eqns, g)
        if err:
            return "dual: " + err
        if once.wit_index != g - codim:
            return "wrong wit index"
        if list(dual.offset) != list(system.holonomy) or list(once.system.holonomy) != list(s.offset):
            return "offset and holonomy did not trade places"
        err = inverse_error(metric, dual.torus.metric.rows, g)
        if err:
            return err
        if twice.system != system or twice.wit_index != codim:
            return "second transform did not return the input"
        if normal is not True:
            return "dual support not reported normal"
        return None

    return Op("absolute", g, call, check, lambda out: (1, 0))


def _slice_op(lib, inst, base) -> Op:
    s, system, bundle, (gamma, zeta0, a, chi0, b_mat, alpha, xi) = inst
    g, k = s.g, s.k
    m_free = g - k

    def call():
        sl_in = lib.fibre_system(s, system, base)
        res = lib.transform(sl_in)
        sl_out = lib.fibre_of_transform(bundle, base)
        normal = lib.is_normal_to(sl_in.support, sl_out.support)
        return sl_in, res, sl_out, normal

    def check(out):
        sl_in, res, sl_out, normal = out
        raw, raw_off = [], []
        for j in range(k):
            raw.append([-a[j][m] for m in range(m_free)] + [Fraction(int(i == j)) for i in range(k)])
            raw_off.append(-chi0[j] - sum(b_mat[j][l] * base[l] for l in range(k)))
        rows, offs = _integer_rows(raw, raw_off)
        eqns = [list(r) for r in sl_in.support.eqns.rows]
        err = subtorus_error(eqns, list(sl_in.support.offset), rows, offs, g)
        if err:
            return "slice: " + err
        kernel = [list(r) for r in res.system.support.eqns.rows]
        err = kernel_error(kernel, eqns, g)
        if err:
            return "sliced transform: " + err
        want = [mod1(sum(d[m] * xi[m] for m in range(m_free))) for d in kernel]
        if list(sl_in.holonomy) != want:
            return "slice holonomy is not xi paired with the directions"
        if list(res.system.support.offset) != want or list(res.system.holonomy) != list(sl_in.support.offset):
            return "sliced transform did not swap offset and holonomy"
        if res.wit_index != m_free:
            return "wrong wit index of the slice"
        if sl_out != res.system:
            return "slice of the transform differs from the transform of the slice"
        if normal is not True:
            return "slices not reported normal"
        return None

    return Op("slice", g, call, check, lambda out: (1, 0))


def _relative_instance(lib, rng, g: int, k: int):
    data = constant_slope_instance(rng, g, k)
    gamma, zeta0, a, chi0, b_mat, alpha, xi = data
    s = lib.RelativeSupport(
        g, k,
        tuple(lib.parse(affine_text(row, z0)) for row, z0 in zip(gamma, zeta0)),
        tuple(tuple(lib.parse(f"({e})") for e in row) for row in a),
        tuple(lib.parse(affine_text(row, c0)) for row, c0 in zip(b_mat, chi0)),
    )
    system = lib.LocalSystemData(tuple(lib.parse(f"({e})") for e in alpha), tuple(xi))
    return s, system, lib.transform_nontransversal(s, system), data


def build(lib, rng, seconds: float) -> Workload:
    metrics = {}
    for g in range(G_RANGE[0], G_RANGE[1] + 1):
        choices = [[[Fraction(int(i == j)) for j in range(g)] for i in range(g)]]
        choices += [_metric(rng, g) for _ in range(METRICS_PER_G - 1)]
        metrics[g] = [(m, lib.Torus(g, lib.RatMatrix(m))) for m in choices]
    instances = {
        shape: [_relative_instance(lib, rng, *shape) for _ in range(INSTANCES_PER_SHAPE)]
        for shape in SLICE_SHAPES
    }

    # Shapes are visited in a fixed rotation, so runs with different seeds
    # differ in their entries, not in their mix of g and codimension.
    shapes = [(g, c) for g in range(G_RANGE[0], G_RANGE[1] + 1) for c in range(g + 1)]
    ops = []
    for i in range(int(seconds * OPS_PER_SECOND_BOUND) + 100):
        turn, slot = divmod(i, ABSOLUTE_PER_SLICE + 1)
        if slot == ABSOLUTE_PER_SLICE:
            inst = rng.choice(instances[SLICE_SHAPES[turn % len(SLICE_SHAPES)]])
            base = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(inst[0].k))
            ops.append(_slice_op(lib, inst, base))
            continue
        g, codim = shapes[(turn * ABSOLUTE_PER_SLICE + slot) % len(shapes)]
        metric, torus = metrics[g][turn % METRICS_PER_G]
        rows = full_rank_rows(rng, g, codim)
        offsets = [random_rational(rng) for _ in range(codim)]
        holonomy = [random_rational(rng) for _ in range(g - codim)]
        ops.append(_absolute_op(lib, torus, metric, rows, offsets, holonomy))

    def wrong_absolute(out):
        system, once, twice, normal = out
        return system, once, once, normal

    def wrong_slice(out):
        sl_in, res, sl_out, normal = out
        return sl_in, res, sl_in, normal

    return Workload(
        ops, cycle=False, top_g=G_RANGE[1], tail_percentile=99.0,
        corrupt={"absolute": wrong_absolute, "slice": wrong_slice}, params=params(),
    )
