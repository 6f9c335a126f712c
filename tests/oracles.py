"""Brute-force reference implementations shared across test modules.

Everything here is deliberately slow and simple: Laplace determinants,
exhaustive minor enumeration, membership tests via rational solves or
integer elimination.  The
library under test must agree with these on small inputs.  Nothing here
imports torusfm: matrices are plain row sequences (a library matrix is
read through its `rows`), expressions are read through their documented
term map, and the Poincare bundle is built here from its factor of
automorphy.  `deadline` bounds the wall time of the tests that time the
library.
"""

import functools
import itertools
import math
import operator
import signal
from contextlib import contextmanager
from fractions import Fraction


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once the wall clock passes the deadline."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def matmul(a, b):
    """The product of two matrices, as a tuple of row tuples, entry by entry."""
    cols = list(zip(*_rows(b)))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in _rows(a))


def naive_det(m):
    """Laplace expansion along the first row."""
    return _laplace(_rows(m))


def _laplace(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j, e in enumerate(rows[0]):
        if e:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            sub = e * _laplace(minor)
            total += -sub if j % 2 else sub
    return total


def leibniz_minor(a, rows, cols):
    """Permutation-sum determinant of the rows x cols submatrix of expressions.

    Built from the expression operators alone, one product per
    permutation, with the sign from its inversion count.  The identity
    permutation comes first, so the sum starts from an even term.
    """
    total = None
    for perm in itertools.permutations(range(len(cols))):
        term = a[rows[0]][cols[perm[0]]]
        for i in range(1, len(rows)):
            term = term * a[rows[i]][cols[perm[i]]]
        odd = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))) % 2
        if total is None:
            total = term
        else:
            total = total - term if odd else total + term
    return total


def sylvester_positive_definite(m):
    """Symmetric, with every leading principal minor positive (Laplace minors).

    Entries may be rational; the matrix is scaled by a positive common
    denominator first, which keeps the sign of every minor.
    """
    rows = _rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows) or any(
        rows[i][j] != rows[j][i] for i in range(n) for j in range(i)
    ):
        return False
    scale = math.lcm(*(Fraction(e).denominator for row in rows for e in row))
    ints = [[int(e * scale) for e in row] for row in rows]
    return all(naive_det([r[:t] for r in ints[:t]]) > 0 for t in range(1, n + 1))


def _rows(m):
    """The rows of a library matrix, or of a plain sequence of rows, as tuples."""
    return tuple(map(tuple, getattr(m, "rows", m)))


def gcd_of_minors(m, k):
    """gcd of all k x k minors, 0 when there are none or all vanish.

    The enumeration stops once the running gcd is 1, which no further
    minor can change.  Each matrix keeps one table of its minors of every
    size, shared by all k, so asking again, or for another size, expands
    no minor twice; the tables of the last few matrices are kept.
    """
    rows = _rows(m)
    return _minor_gcd_table(rows, getattr(m, "ncols", len(rows[0]) if rows else 0))(k)


def gcd_of_minors_with_row(m, vec, k):
    """gcd_of_minors of m with vec appended as its last row, from the table of m's minors.

    A k x k minor either leaves vec out, and is a minor of m, or expands
    along vec into k products of an entry of vec and a (k-1) x (k-1)
    minor of m.
    """
    rows = _rows(m)
    ncols = getattr(m, "ncols", len(rows[0]) if rows else 0)
    table = _minor_gcd_table(rows, ncols)
    g = table(k) if k <= len(rows) else 0
    for rs in itertools.combinations(range(len(rows)), k - 1):
        for cs in itertools.combinations(range(ncols), k):
            if g == 1:
                return 1
            g = math.gcd(g, sum((-1) ** (k - 1 + j) * vec[c] * table.minor(rs, cs[:j] + cs[j + 1 :])
                                for j, c in enumerate(cs) if vec[c]))
    return g


@functools.lru_cache(maxsize=8)
def _minor_gcd_table(rows, ncols):
    """The function k -> gcd of the k x k minors of rows, memoised with every minor; .minor(rs, cs) reads one."""
    minors = {}

    def minor(rs, cs):
        # Laplace expansion along the first column over the memoised minors.
        if not rs:
            return 1
        d = minors.get((rs, cs))
        if d is None:
            d = 0
            for i, r in enumerate(rs):
                e = rows[r][cs[0]]
                if e:
                    sub = minor(rs[:i] + rs[i + 1 :], cs[1:])
                    d += -e * sub if i % 2 else e * sub
            minors[(rs, cs)] = d
        return d

    @functools.cache
    def gcd_of(k):
        g = 0
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(ncols), k):
                g = math.gcd(g, minor(rs, cs))
                if g == 1:
                    return 1
        return g

    gcd_of.minor = minor
    return gcd_of


def is_canonical_hnf(h):
    rows = _rows(h)
    pivots = []
    seen_zero_row = False
    for row in rows:
        nz = [j for j, e in enumerate(row) if e != 0]
        if not nz:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row below a zero row"
        p = nz[0]
        if pivots:
            assert p > pivots[-1], "pivot columns not strictly increasing"
        assert row[p] > 0, "pivot not positive"
        pivots.append(p)
    for r, p in enumerate(pivots):
        for i in range(r):
            assert 0 <= rows[i][p] < rows[r][p], "entry above pivot not reduced"
    return True


def _gauss_jordan(rows, width):
    """Reduced echelon form over Q of the first width columns: (rows, pivots).

    Entries stay as given, ints or Fractions, until a division by a pivot
    other than 1 turns a row into Fractions; zero products are skipped.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = Fraction(rows[r][c])
        if pivot != 1:
            rows[r] = [e / pivot if e else e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rational_rank(rows, ncols):
    """The rank over Q of the first ncols columns of rows of ints or Fractions, by `row_space`."""
    return row_space(rows, ncols)[0]


def rational_inverse(rows):
    """The inverse over Q of a square matrix by Gauss-Jordan on [A | I], or None if singular."""
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots = _gauss_jordan([list(r) + e for r, e in zip(rows, eye)], n)
    return [[Fraction(e) for e in row[n:]] for row in reduced] if len(pivots) == n else None


def rational_solve(rows, rhs, ncols):
    """One solution of rows y = rhs over Q, free coordinates zero, or None.

    Returns None when the system is inconsistent.
    """
    reduced, pivots = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in reduced[len(pivots):]):
        return None
    y = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        y[c] = Fraction(row[ncols])
    return y


def rational_kernel(rows, ncols):
    """A basis over Q of the solutions of rows y = 0, one vector per free column."""
    reduced, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -Fraction(row[f])
        basis.append(v)
    return basis


def in_row_span_z(vec, basis):
    """Membership of an integer vector in the Z-span of the basis rows."""
    rows = _rows(basis)
    if not rows:
        return all(e == 0 for e in vec)
    columns = list(zip(*rows))
    coeffs = rational_solve(columns, vec, len(rows))
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def echelon_z_span(basis):
    """The test vec -> membership of an integer vector in the Z-span of integer rows in echelon form.

    The leading entries of the nonzero rows lie in strictly increasing
    columns, so the rows are independent and, taken in order, each row's
    coefficient is fixed by its leading column: it must be an integer, and
    once every row is subtracted nothing may remain.  Integer arithmetic
    only.
    """
    rows = [row for row in _rows(basis) if any(row)]
    leads = [next(j for j, e in enumerate(row) if e) for row in rows]

    def contains(vec):
        vec = list(vec)
        for row, j in zip(rows, leads):
            y, rest = divmod(vec[j], row[j])
            if rest:
                return False
            if y:
                vec = [a - y * b for a, b in zip(vec, row)]
        return not any(vec)

    return contains


def row_space(rows, ncols):
    """(rank, test vec -> membership of vec in the rational row space), from one reduction.

    Pivots are sought in the first ncols columns.  Each row of ints or
    Fractions is first scaled to integers by its common denominator; then
    fraction-free elimination: each pivot row clears its column from the
    rows below by integer combinations, which keep the row space.  An
    integer vector is in the space exactly when the same steps reduce it to
    zero.
    """
    pending = [_integral(row) for row in rows]
    basis = []
    for c in range(ncols):
        p = next((i for i, row in enumerate(pending) if row[c]), None)
        if p is None:
            continue
        top = pending.pop(p)
        pending = [_cleared(row, top, c) for row in pending]
        basis.append((top, c))

    def contains(vec):
        vec = list(vec)
        for top, c in basis:
            vec = _cleared(vec, top, c)
        return not any(vec)

    # A basis of ncols rows spans every vector.
    return len(basis), (lambda vec: True) if len(basis) == ncols else contains


def _integral(row):
    """row times the lcm of its entries' denominators, as a list of ints."""
    scale = math.lcm(*(e.denominator for e in row))
    return [int(e * scale) for e in row]


def _cleared(row, top, c):
    """top[c]*row - row[c]*top, which is 0 in column c, divided by the gcd of its entries."""
    if not row[c]:
        return row
    out = [top[c] * a - row[c] * b for a, b in zip(row, top)]
    g = math.gcd(*out)
    return [e // g for e in out] if g > 1 else out


def offset_by_particular_solution(sat, rows, offsets, ncols):
    """Canonical offset by a rational particular solution.

    With y0 solving rows y0 = -offsets, the saturated equations sat give
    chi = -sat y0 mod 1; the saturated rows span the same rational space,
    so any solution gives the same chi.
    """
    y0 = rational_solve(rows, [-Fraction(c) for c in offsets], ncols)
    return y0, tuple(-sum(a * y for a, y in zip(row, y0)) % 1 for row in sat)


def random_unimodular(n, rng, steps=12):
    """Product of elementary row operations, so the determinant stays +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return _rows(m)


def evaluate(e, point):
    """Float value of an expression at a point, read from its documented term map.

    Each (monomial, character) key maps to a rational.  A monomial is a
    tuple of (atom, exponent): pi is (0,), x_i is (1, i), fed by
    point[i-1], and an opaque atom is (2, text, "sin" or "cos", argument).
    The character is None for 1, or ("cos" or "sin", frequency), the
    frequency a tuple of (i, a, b) for the coefficient a + b*pi of x_i.
    """
    total = 0.0
    for (mono, char), c in e.terms.items():
        v = float(c)
        for atom, k in mono:
            if atom[0] == 0:
                v *= math.pi**k
            elif atom[0] == 1:
                v *= float(point[atom[1] - 1]) ** k
            else:
                v *= getattr(math, atom[2])(evaluate(atom[3], point)) ** k
        if char is not None:
            phase = sum((a + b * math.pi) * float(point[i - 1]) for i, a, b in char[1])
            v *= getattr(math, char[0])(phase)
        total += v
    return total


# cos(pi*r) for r in [0, 2) with denominator 1, 2 or 3: by Niven's theorem
# the only rational r in [0, 2) with cos(pi*r) rational.
_HALF = Fraction(1, 2)
_COS_PI = {
    Fraction(0): 1, Fraction(1, 3): _HALF, _HALF: 0, Fraction(2, 3): -_HALF,
    Fraction(1): -1, Fraction(4, 3): -_HALF, Fraction(3, 2): 0, Fraction(5, 3): _HALF,
}


def exact_value(e, point, pi):
    """Exact value of an expression at a rational point, with the pi atom read as the rational pi.

    The term map is a ring of functions of x and of the pi atom, whose
    characters multiply by the product-to-sum rules of the true sine and
    cosine, so reading the atom as any rational, and each character at its
    true value, respects sums and products.  A character must have a phase
    pi*r with cos(pi*r) and sin(pi*r) rational; opaque atoms are refused.
    """
    total = Fraction(0)
    for (mono, char), c in e.terms.items():
        v = Fraction(c)
        for atom, k in mono:
            if atom[0] == 2:
                raise ValueError("opaque atoms have no exact value")
            v *= (pi if atom[0] == 0 else Fraction(point[atom[1] - 1])) ** k
        if char is not None:
            if any(a for _, a, _ in char[1]):
                raise ValueError("a character phase with a rational part")
            r = sum(b * Fraction(point[i - 1]) for i, _, b in char[1]) % 2
            v *= _COS_PI[r] if char[0] == "cos" else _COS_PI[(r - Fraction(1, 2)) % 2]
        total += v
    return total


def fd_partial(e, point, i, h=1e-6):
    """Central finite difference of an expression at a float point.

    ``i`` is 1-based to match expression variables.
    """
    return _central(lambda p: [evaluate(e, p)], point, i, h)[0]


def _central(f, point, i, h=1e-6):
    """Central differences of a list-valued float function in coordinate i (1-based)."""
    up = list(point)
    dn = list(point)
    up[i - 1] += h
    dn[i - 1] -= h
    return [(u - d) / (2 * h) for u, d in zip(f(up), f(dn))]


def c1_coefficients(zeta, a, chi, k, point):
    """The symplectic form sum_c dx^c wedge dy_c pulled back to a fibred support.

    The support is parametrized by u = (x^1..x^k, y_1..y_{g-k}) through
    x^{k+i} = zeta[i](x) and y_{g-k+l} = sum_m a[l][m] y_m + chi[l](x).
    Each column of the chart's Jacobian is a central difference of the
    whole chart at (point, y = 0), and the coefficient of du^p wedge du^q
    is sum_c (dx^c/du^p dy_c/du^q - dx^c/du^q dy_c/du^p).  Returns a
    dict from label to value: dy{m}^dx{j} for j = 1..k, m = 1..g-k, then
    dx{j}^dx{m} for j < m.  On y = 0 the terms y_m d(a[l][m]) of the
    dx^dx part drop out, which leaves the offset curl; where every dy^dx
    coefficient vanishes identically, those terms vanish everywhere.
    """
    n = len(zeta)
    g = k + n

    def chart(u):
        x, y = u[:k], u[k:]
        xs = list(x) + [evaluate(z, x) for z in zeta]
        ys = list(y) + [
            sum(evaluate(a[l][m], x) * y[m] for m in range(n)) + evaluate(chi[l], x)
            for l in range(k)
        ]
        return xs + ys

    u0 = list(point) + [0.0] * n
    cols = [_central(chart, u0, p) for p in range(1, g + 1)]

    def omega(p, q):
        return sum(cols[p][c] * cols[q][g + c] - cols[q][c] * cols[p][g + c] for c in range(g))

    out = {}
    for j in range(1, k + 1):
        for m in range(1, n + 1):
            out[f"dy{m}^dx{j}"] = omega(k + m - 1, j - 1)
    for j in range(1, k + 1):
        for m in range(j + 1, k + 1):
            out[f"dx{j}^dx{m}"] = omega(j - 1, m - 1)
    return out


# An element of Q[pi] is a dict from a power of pi to a nonzero Fraction.
# pi is transcendental, so it is zero exactly when the dict is empty.


def qpi(x):
    """An int, a Fraction or a dict {power of pi: rational} as an element of Q[pi]."""
    items = x.items() if isinstance(x, dict) else ((0, x),)
    return {p: Fraction(c) for p, c in items if c}


def _qpi_sum(terms):
    out = {}
    for t in terms:
        for p, c in t.items():
            out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


def _qpi_mul(x, y):
    return _qpi_sum({p + q: c * d} for p, c in x.items() for q, d in y.items())


def c1_affine(zeta_slopes, a, chi_slopes):
    """The nonzero C1 coefficients of a support with affine zeta, constant slopes and affine offsets.

    The support has g = k + n, x^{k+i} = zeta[i] with d zeta[i]/dx^j =
    zeta_slopes[i][j-1] (n rows of k), y_{n+l} = sum_m a[l][m] y_m +
    chi[l] (k rows of n) and d chi[l]/dx^j = chi_slopes[l][j-1] (k rows
    of k).  Entries are ints, Fractions or `qpi` dicts.  The chart's
    Jacobian J has rows e_c for c <= k and zeta_slopes[c-k-1] beyond, and
    the Lagrangian conditions are

        J[m][j] + sum_l a[l][m] J[n+l][j] = 0            (dy{m}^dx{j})
        sum_l chi_slopes[l][m] J[n+l][j] - (j <-> m) = 0  (dx{j}^dx{m}, j < m)

    Returns (label, value in Q[pi]) for each coefficient that is not
    zero, dy{m}^dx{j} by j then m, then dx{j}^dx{m} by j then m.
    """
    k, n = len(a), len(zeta_slopes)
    jac = [[qpi(int(c == j)) for j in range(k)] for c in range(k)]
    jac += [[qpi(e) for e in row] for row in zeta_slopes]
    a = [[qpi(e) for e in row] for row in a]
    b = [[qpi(e) for e in row] for row in chi_slopes]
    out = []
    for j in range(k):
        for m in range(n):
            v = _qpi_sum([jac[m][j], *(_qpi_mul(a[l][m], jac[n + l][j]) for l in range(k))])
            if v:
                out.append((f"dy{m + 1}^dx{j + 1}", v))
    for j in range(k):
        for m in range(j + 1, k):
            minus = ({p: -c for p, c in _qpi_mul(b[l][j], jac[n + l][m]).items()} for l in range(k))
            v = _qpi_sum([*(_qpi_mul(b[l][m], jac[n + l][j]) for l in range(k)), *minus])
            if v:
                out.append((f"dx{j + 1}^dx{m + 1}", v))
    return out


# ------------------------------------------------------------ Poincare bundle
#
# Phases are in turns.  On T x T-hat, with coordinates x = (y, w), the
# Poincare bundle is the line bundle of the standard symplectic pairing
# J = [[0, -I], [I, 0]] (Mukai, Nagoya Math. J. 81, 1981), with the factor
# of automorphy
#
#     a(x, lam) = exp(2 pi i (t.lam + lam^T U lam / 2 + x^T M lam)),
#
# U = the strict upper part of J, M = J/2 and t = 0.  It is a cocycle
# because M - (U + U^T)/2 is an integer matrix.


def _symplectic(g):
    """J = [[0, -I], [I, 0]] on coordinates (y_1..y_g, w_1..w_g)."""
    return [[(r == c + g) - (c == r + g) for c in range(2 * g)] for r in range(2 * g)]


@functools.cache
def _gauged_poincare(g):
    """(U + S, M + (S + S^T)/2), the factor gauged by exp(pi i x^T S x), S = [[0, I], [0, 0]]."""
    n = 2 * g
    j = _symplectic(g)
    s = [[int(c == r + g) for c in range(n)] for r in range(n)]
    u = [[(j[r][c] if c > r else 0) + s[r][c] for c in range(n)] for r in range(n)]
    m = [[Fraction(j[r][c] + s[r][c] + s[c][r], 2) for c in range(n)] for r in range(n)]
    assert all((2 * m[r][c] - u[r][c] - u[c][r]) % 2 == 0 for r in range(n) for c in range(n))
    # Pinning w leaves a flat factor on T: no mixed term and an even quadratic part.
    assert not any(m[r][c] for r in range(g) for c in range(g))
    assert all((u[r][c] + u[c][r]) % 2 == 0 for r in range(g) for c in range(g))
    return u, m


def poincare_holonomy(g, point):
    """Holonomy on T of the Poincare bundle restricted to T x {point}.

    Pinning w = point in the gauged factor leaves on T the block of U on
    the y coordinates and the character t_c + sum_i w_i M[g+i][c]; the
    holonomy of that flat factor along y_c is t_c + U[c][c]/2.
    """
    u, m = _gauged_poincare(g)
    t = [sum(Fraction(w) * m[g + i][c] for i, w in enumerate(point)) for c in range(g)]
    return [t[c] + Fraction(u[c][c], 2) for c in range(g)]


def pairing_vanishes(s, s_hat):
    """Whether the Chern form of the Poincare bundle vanishes on all direction pairs.

    It pairs a direction u of s (in the first factor) with a direction v
    of s_hat (in the second) by J, which gives -u.v.
    """
    if s.torus.dim != s_hat.torus.dim:
        return False
    g = s.torus.dim
    j = _symplectic(g)
    return not any(
        sum(a * j[r][g + c] * b for r, a in enumerate(u) for c, b in enumerate(v))
        for u in s.direction_basis().rows
        for v in s_hat.direction_basis().rows
    )


def poincare_member(system, point):
    """Whether the point lies on the support of the transform of the system.

    It does exactly when L (x) P restricted to S x {point} is trivial
    (Mukai, Nagoya Math. J. 81, 1981): along each direction of the support
    S, the holonomy of the system plus that of P is an integer.
    """
    h = poincare_holonomy(system.support.torus.dim, point)
    return all(
        (xi + sum(a * b for a, b in zip(h, row))).denominator == 1
        for xi, row in zip(system.holonomy, system.support.direction_basis().rows)
    )


def check_poincare(system, dual, rng):
    """Check a transform pair against the Poincare bundle, in both directions.

    Applied to (S, xi) the prediction is the dual support; applied to the
    dual (S-hat, chi) it is S, which checks the dual holonomy as well.
    Each direction tests a predicted member solved by `rational_solve`,
    that member moved along the predicted directions and by a lattice
    vector, a predicted non-member when the support has directions (S or
    its dual always has), and three random points.
    """
    for src, target in ((system, dual), (dual, system)):
        s = src.support
        assert pairing_vanishes(s, target.support)
        g = s.torus.dim
        rows = s.direction_basis().rows
        member = rational_solve(rows, [-x for x in src.holonomy], g)
        moved = list(member)
        for v in rational_kernel(rows, g):
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 7))
            moved = [m + t * e for m, e in zip(moved, v)]
        moved = [m + rng.randint(-2, 2) for m in moved]
        points = [(member, True), (moved, True)]
        if rows:
            nudge = [Fraction(0)] * len(rows)
            nudge[rng.randrange(len(rows))] = Fraction(1, rng.randint(2, 7))
            step = rational_solve(rows, nudge, g)
            points.append(([m + e for m, e in zip(member, step)], False))
        for _ in range(3):
            points.append(([Fraction(rng.randint(0, 11), 12) for _ in range(g)], None))
        for point, predicted in points:
            verdict = poincare_member(src, point)
            assert predicted is None or verdict == predicted
            assert target.support.contains(point) == verdict, (src, point)


def coefficients_are_normal(e) -> bool:
    """Every coefficient an int exactly when it is integral, inside opaque atoms too."""
    for (mono, _), c in e.terms.items():
        if type(c) is not (int if Fraction(c).denominator == 1 else Fraction):
            return False
        if any(a[0] == 2 and not coefficients_are_normal(a[3]) for a, _ in mono):
            return False
    return True
