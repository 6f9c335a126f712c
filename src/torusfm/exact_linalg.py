"""Exact integer and rational linear algebra.

Row convention: lattices and equation systems are stored as rows.  All
arithmetic is exact and runs on Python ints.  Every exact rational rank,
determinant, solve, inverse and definiteness test scales each row by the
lcm of its denominators (`_integer_rows`) and runs one fraction-free
elimination (`_gauss_jordan`), so a Fraction appears only as a final
quotient.  Matrices are immutable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

RatVector = tuple[Fraction, ...]


def rat_vector(entries: Iterable) -> RatVector:
    """The entries as Fractions; a Fraction is passed through, not rebuilt."""
    return tuple(e if e.__class__ is Fraction else Fraction(e) for e in entries)


def mod1(x) -> Fraction:
    """Reduce a rational into the fundamental interval [0, 1), making one Fraction."""
    return (x if type(x) is Fraction else Fraction(x)) % 1


def mod1_vector(v: Iterable) -> RatVector:
    return tuple(map(mod1, v))


def dot(u: Sequence, v: Sequence) -> Fraction:
    """The rational dot product, summed on ints with each vector over its common denominator."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    du, u = _over_denominator([a if a.__class__ is int or a.__class__ is Fraction else Fraction(a) for a in u])
    dv, v = _over_denominator([b if b.__class__ is int or b.__class__ is Fraction else Fraction(b) for b in v])
    return Fraction(sum(map(operator.mul, u, v)), du * dv)


def _integral(e, what: str, i: int | None = None, j: int | None = None) -> int:
    """e as an int; a value that int() would truncate or refuse raises a ValueError naming it.

    i and j, when given, place the value at row i, column j of a matrix.
    """
    if type(e) is int:
        return e
    try:
        v = int(e)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v != e:
        at = "" if i is None else f" at row {i}, column {j}"
        raise ValueError(f"{what} {e!r}{at} is not an integer")
    return v


def _unchecked(cls, *values):
    """The frozen dataclass cls from field values valid by construction, unchecked and unconverted."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    return obj


@dataclass(frozen=True)
class _Matrix:
    """Immutable matrix, stored as a tuple of row tuples."""

    rows: tuple[tuple, ...]
    ncols: int

    def _set(self, rs: tuple[tuple, ...], ncols: int | None) -> None:
        """Store converted rows after the one shape check both matrix types share."""
        width = len(rs[0]) if rs else ncols
        if width is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(r) != width for r in rs):
            raise ValueError("ragged rows")
        if ncols is not None and ncols != width:
            raise ValueError("ncols disagrees with row length")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "ncols", _integral(width, "column count"))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def mul_vector(self, v: Sequence) -> RatVector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(dot(row, v) for row in self.rows)


@dataclass(frozen=True)
class IntMatrix(_Matrix):
    """Integer matrix; an entry that int() would truncate is an error."""

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rs = tuple(
            tuple(_integral(e, "entry", i, j) for j, e in enumerate(row))
            for i, row in enumerate(rows)
        )
        self._set(rs, ncols)

    # Wraps rows that are already a rectangular tuple of int tuples, and ncols.
    _trusted = classmethod(_unchecked)

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def identity(n: int) -> "IntMatrix":
        """The n x n identity, built once per n."""
        return IntMatrix._trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


@dataclass(frozen=True)
class RatMatrix(_Matrix):
    """Rational matrix.  Fraction keeps entries reduced with positive denominators."""

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        self._set(tuple(tuple(Fraction(e) for e in row) for row in rows), ncols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return _unchecked(RatMatrix, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)

    def rank(self) -> int:
        return len(_gauss_jordan(_integer_rows(self.rows), self.ncols)[0])

    def inverse(self) -> "RatMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        x, d = _solve(self.rows, IntMatrix.identity(n).rows)
        return RatMatrix(tuple(tuple(Fraction(e, d) for e in row) for row in x), n)

    def is_positive_definite(self) -> bool:
        """Symmetric with every leading principal minor positive (Sylvester).

        Scaling a row by the positive lcm of its denominators keeps the sign
        of every minor, and an elimination with no row swap has the leading
        principal minors as its pivots, so one pass decides all of them.
        """
        n = self.nrows
        if n != self.ncols or any(
            self.rows[i][j] != self.rows[j][i] for i in range(n) for j in range(i)
        ):
            return False
        pivots, minors, swaps = _gauss_jordan(_integer_rows(self.rows), n)
        return len(pivots) == n and not swaps and all(p > 0 for p in minors)


def _over_denominator(row) -> tuple[int, list[int]]:
    """(d, ints): a row of ints and Fractions times d, the lcm of its denominators."""
    d = math.lcm(*(e.denominator for e in row))
    return d, [e.numerator * (d // e.denominator) for e in row]


def _integer_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators, as a list of ints."""
    return [_over_denominator(row)[1] for row in rows]


def _gauss_jordan(rows: list[list[int]], ncols: int) -> tuple[list[int], list[int], int]:
    """Fraction-free Gauss-Jordan in place, pivoting on the first ncols columns.

    A pivot p in row y turns every other row x into (p*x - f*y) // prev, f
    being x's entry in the pivot column and prev the previous pivot.  Every
    entry is a minor of the input, so the division is exact (Bareiss, Math.
    Comp. 22, 1968; Nakos, Turner and Williams, 1997).  No column left of
    a pivot is read again, so only the columns from each pivot onward are
    updated and stay current; those past ncols end as the last pivot times
    the solution.  Returns (pivot columns, [1, *pivots], row swaps).  With
    no row swap and pivots in the leading columns, the pivots are the
    leading principal minors; the determinant of a square input is the
    last one, signed by the parity of the swaps.
    """
    nrows = len(rows)
    pivots: list[int] = []
    minors = [1]
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if rows[i][col]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            swaps += 1
        top = rows[r]
        p = top[col]
        prev = minors[-1]
        live = top[col:]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], live)]
        minors.append(p)
        pivots.append(col)
    return pivots, minors, swaps


def _det(rows: list[list[int]], n: int) -> int:
    """The determinant d of the first n columns of n integer rows, eliminated in place.

    A nonzero d leaves d * X in the columns past n of each row, X being the
    solution of the first n columns against the columns past them; that
    block is what `_solve` reads.  The first n columns are not kept current.
    """
    pivots, minors, swaps = _gauss_jordan(rows, n)
    if swaps % 2:
        rows[:] = [[-e for e in row] for row in rows]
    return (-1) ** swaps * minors[-1] if len(pivots) == n else 0


def _solve(a, b) -> tuple[list[list[int]], int]:
    """Integer X and d with a @ X = d * b for square rational a; ValueError if a is singular."""
    n = len(a)
    rows = _integer_rows([*ra, *rb] for ra, rb in zip(a, b))
    d = _det(rows, n)
    if not d:
        raise ValueError("singular matrix")
    return [row[n:] for row in rows], d


def _tuples(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows))


def _transpose_rows(rows, ncols: int) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def _echelon(rows: list[list[int]], ncols: int, reduced: int | None = None) -> list[int]:
    """Row Hermite form in place, pivoting on the first ncols columns.

    Pivots are positive, the entries above each pivot lie in [0, pivot),
    and rows that are zero on those columns sink to the bottom.  Columns
    past ncols ride along, so an appended identity block records the row
    operations without any multiplier being kept.  When `reduced` is
    given, a row that holds a pivot is updated on the columns before it
    only, and its later columns are left stale.  Every row from the pivot
    position down is zero left of the pivot column, so only the columns
    from it on are updated.  A Euclidean round reduces the rows below by
    the first entry of least size and ends once a pass leaves no
    remainder.  Returns the pivot columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        best, least = r, 0
        for i in range(r, nrows):
            e = abs(rows[i][col])
            if e and (not least or e < least):
                best, least = i, e
        if not least:
            continue
        # Euclidean reduction below the pivot position until one entry is left.
        while least:
            rows[r], rows[best] = rows[best], rows[r]
            prow = rows[r]
            p = prow[col]
            live = prow[col:]
            least = 0
            for i in range(r + 1, nrows):
                row = rows[i]
                q = row[col] // p
                if q:
                    row[col:] = [a - q * b for a, b in zip(row[col:], live)]
                    e = abs(row[col])
                    if e and (not least or e < least):
                        best, least = i, e
        prow = rows[r]
        if prow[col] < 0:
            prow[col:reduced] = [-a for a in prow[col:reduced]]
        p = prow[col]
        live = prow[col:reduced]
        for i in range(r):
            row = rows[i]
            q = row[col] // p
            if q:
                row[col:reduced] = [a - q * b for a, b in zip(row[col:reduced], live)]
        pivots.append(col)
    return pivots


def _hermite_blocks(left, right, ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Hermite form of [left | right], pivoting on left's ncols columns, in two blocks."""
    rows = [[*a, *b] for a, b in zip(left, right)]
    _echelon(rows, ncols)
    return [r[:ncols] for r in rows], [r[ncols:] for r in rows]


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ m, U unimodular, H in the canonical echelon
    shape: pivots positive, entries above each pivot reduced into [0, pivot),
    zero rows at the bottom.  The canonical form is unique, so two row spans
    over Z are equal exactly when their HNFs agree.  H and U are the two
    blocks of the Hermite form of [m | I], pivoting on the columns of m.
    """
    h, u = _hermite_blocks(m.rows, IntMatrix.identity(m.nrows).rows, m.ncols)
    return IntMatrix._trusted(_tuples(h), m.ncols), IntMatrix._trusted(_tuples(u), m.nrows)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (D, U, V) with D = U @ m @ V, U and V unimodular and D diagonal
    with nonnegative entries satisfying d1 | d2 | ... .

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979).  When some d_i does not
    divide a later d_j, column j is added to column i, which makes the
    next d_i the proper divisor gcd(d_i, d_j), and the alternation goes on.
    Each Hermite form reduces the entries above its pivots, so the entries
    stay bounded.
    """
    nrows, ncols = m.nrows, m.ncols
    d, u, vt = m.rows, IntMatrix.identity(nrows).rows, IntMatrix.identity(ncols).rows
    while True:
        d, u = _hermite_blocks(d, u, ncols)
        dt, vt = _hermite_blocks(_transpose_rows(d, ncols), vt, nrows)
        d = _transpose_rows(dt, nrows)
        if any(e for i, row in enumerate(d) for j, e in enumerate(row) if i != j):
            continue
        diag = [d[k][k] for k in range(min(nrows, ncols)) if d[k][k]]
        pairs = itertools.combinations(range(len(diag)), 2)
        bad = next(((i, j) for i, j in pairs if diag[j] % diag[i]), None)
        if bad is None:
            break
        i, j = bad
        for row in d:
            row[i] += row[j]
        vt[i] = [a + b for a, b in zip(vt[i], vt[j])]
    return (
        IntMatrix._trusted(_tuples(d), ncols),
        IntMatrix._trusted(_tuples(u), nrows),
        IntMatrix._trusted(_tuples(_transpose_rows(vt, ncols)), ncols),
    )


def _kernel_hermite(m: IntMatrix) -> tuple[list[list[int]], IntMatrix]:
    """(H, K): the Hermite form H of m^T and the canonical kernel basis K of m.

    The Hermite form of [m^T | I] on m^T's r columns gives W m^T = [H; 0]
    with W unimodular.  Its top rows, one per unit of rank, keep H only:
    above each pivot they are reduced on H's columns, since their right
    block is never read.  The rows that vanish on m^T carry in their right
    block a basis of the integer kernel of m, whose own Hermite form is K.
    """
    r, g = m.nrows, m.ncols
    rows = [[*c, *e] for c, e in zip(_transpose_rows(m.rows, g), IntMatrix.identity(g).rows)]
    rank = len(_echelon(rows, r, r))
    kernel = [row[r:] for row in rows[rank:]]
    _echelon(kernel, g)
    return [row[:r] for row in rows[:rank]], IntMatrix._trusted(_tuples(kernel), g)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturated integer kernel {v : m @ v = 0}.

    The rows of the Hermite form of [m^T | I] that vanish on m^T carry a
    basis of the full, saturated lattice of integer solutions in their
    right block (Cohen, GTM 138, section 2.4), made Hermite on its own.
    """
    return _kernel_hermite(m)[1]


def _saturation(h: list[list[int]], rows, ncols: int) -> list[list[int]]:
    """Canonical saturation of the rows' first ncols columns, as new rows; the columns past ncols ride along.

    h is H from `_kernel_hermite(m)`, m being those columns.  W m^T = [H; 0]
    with W unimodular, so m = H^T S0 with S0's rows, the first r columns
    of W^-1, a basis of the saturation.  Forward substitution on H^T finds
    S0 = (H^T)^-1 m, each division exact, and the Hermite form V S0 makes
    it canonical.  The columns past ncols end as V (H^T)^-1 times their
    input, so they must keep every division exact.
    """
    s: list[list[int]] = []
    for k, row in enumerate(rows):
        for sl, hl in zip(s, h):
            if hl[k]:
                row = [a - hl[k] * b for a, b in zip(row, sl)]
        s.append([a // h[k][k] for a in row])
    _echelon(s, ncols)
    return s


def saturate(m: IntMatrix) -> IntMatrix:
    """Canonical basis of (Q-span of the rows) intersected with Z^n, by `_saturation`.

    Rows dependent over Q raise ValueError("rank deficient").
    """
    h = _kernel_hermite(m)[0]
    if len(h) < m.nrows:
        raise ValueError("rank deficient")
    return IntMatrix._trusted(_tuples(_saturation(h, m.rows, m.ncols)), m.ncols)


def stack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    if top.ncols != bottom.ncols:
        raise ValueError("dimension mismatch")
    return IntMatrix._trusted(top.rows + bottom.rows, top.ncols)
