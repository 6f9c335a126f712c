"""Exact integer and rational linear algebra.

Row convention: lattices and equation systems are stored as rows.  All
arithmetic is arbitrary precision (Python ints and fractions.Fraction), so
every result is exact.  Matrices are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

RatVector = tuple[Fraction, ...]


def rat_vector(entries: Iterable) -> RatVector:
    return tuple(Fraction(e) for e in entries)


def mod1(x: Fraction) -> Fraction:
    """Reduce a rational into the fundamental interval [0, 1)."""
    return Fraction(x) % 1


def mod1_vector(v: Iterable) -> RatVector:
    return tuple(mod1(Fraction(e)) for e in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _integral(e, i: int, j: int) -> int:
    """The entry as an int; a value that int() would truncate is an error."""
    if type(e) is int:
        return e
    v = int(e)
    if v != e:
        raise ValueError(f"entry {e!r} at row {i}, column {j} is not an integer")
    return v


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rs = tuple(
            tuple(_integral(e, i, j) for j, e in enumerate(row)) for i, row in enumerate(rows)
        )
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "ncols", int(ncols))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """Wrap rows that are already a rectangular tuple of int tuples, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "ncols", ncols)
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._trusted(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n
        )

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix._trusted(
            tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows)), ncols
        )

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix._trusted(tuple(() for _ in range(self.ncols)), 0)
        return IntMatrix._trusted(tuple(zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows
        )
        return IntMatrix._trusted(out, other.ncols)

    def mul_vector(self, v: Sequence) -> RatVector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(dot(row, v) for row in self.rows)

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.ncols)

    def det(self) -> int:
        """Determinant via fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix.  Fraction keeps entries reduced with positive denominators."""

    rows: tuple[tuple[Fraction, ...], ...]
    ncols: int

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rs = tuple(tuple(Fraction(e) for e in row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "ncols", int(ncols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix(tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows)), ncols)

    def transpose(self) -> "RatMatrix":
        if not self.rows:
            return RatMatrix(tuple(() for _ in range(self.ncols)), 0)
        return RatMatrix(tuple(zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = tuple(tuple(dot(row, col) for col in cols) for row in self.rows)
        return RatMatrix(out, other.ncols)

    def mul_vector(self, v: Sequence) -> RatVector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(dot(row, v) for row in self.rows)

    def rank(self) -> int:
        return len(_rref([list(r) for r in self.rows])[1])

    def inverse(self) -> "RatMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(self.rows)]
        reduced, pivots = _rref(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ValueError("singular matrix")
        return RatMatrix(tuple(tuple(row[n:]) for row in reduced), n)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.nrows) for j in range(i)
        )

    def is_positive_definite(self) -> bool:
        """Symmetric elimination without row exchanges; every pivot must be > 0.

        The k-th pivot is the ratio of the k-th to the (k-1)-th leading
        principal minor, so this is Sylvester's criterion in one O(n^3) pass.
        """
        if not self.is_symmetric():
            return False
        work = [list(r) for r in self.rows]
        n = self.nrows
        for k in range(n):
            pivot = work[k][k]
            if pivot <= 0:
                return False
            for i in range(k + 1, n):
                if work[i][k]:
                    factor = work[i][k] / pivot
                    row_i, row_k = work[i], work[k]
                    for j in range(k + 1, n):
                        row_i[j] -= factor * row_k[j]
        return True


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def solve_particular(a: RatMatrix, b: Sequence) -> RatVector:
    """One exact solution of A y = b, free coordinates set to zero.

    Raises ValueError("inconsistent system") when no solution exists.
    """
    if len(b) != a.nrows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [Fraction(bi)] for row, bi in zip(a.rows, (Fraction(e) for e in b))]
    if not aug:
        return tuple()
    reduced, pivots = _rref(aug)
    n = a.ncols
    if any(p == n for p in pivots):
        raise ValueError("inconsistent system")
    y = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        y[p] = row[n]
    return tuple(y)


def _tuples(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows))


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap(rows: list[list[int]], i: int, j: int) -> None:
    rows[i], rows[j] = rows[j], rows[i]


def _addmul_row(rows: list[list[int]], dst: int, src: int, q: int) -> None:
    if q:
        rows[dst] = [a + q * b for a, b in zip(rows[dst], rows[src])]


def _negate_row(rows: list[list[int]], i: int) -> None:
    rows[i] = [-a for a in rows[i]]


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ m, U unimodular, H in the canonical echelon
    shape: pivots positive, entries above each pivot reduced into [0, pivot),
    zero rows at the bottom.  The canonical form is unique, so two row spans
    over Z are equal exactly when their HNFs agree.
    """
    work = [list(r) for r in m.rows]
    u = _identity_rows(m.nrows)
    nrows, ncols = m.nrows, m.ncols
    pivot_row = 0
    pivot_cols: list[int] = []
    for col in range(ncols):
        if pivot_row == nrows:
            break
        # Euclidean reduction below the pivot position until one entry is left.
        while True:
            nz = [i for i in range(pivot_row, nrows) if work[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(work[i][col]))
            if best != pivot_row:
                _swap(work, pivot_row, best)
                _swap(u, pivot_row, best)
            if all(work[i][col] == 0 for i in range(pivot_row + 1, nrows)):
                break
            p = work[pivot_row][col]
            for i in range(pivot_row + 1, nrows):
                if work[i][col] != 0:
                    q = -(work[i][col] // p)
                    _addmul_row(work, i, pivot_row, q)
                    _addmul_row(u, i, pivot_row, q)
        if work[pivot_row][col] == 0:
            continue
        if work[pivot_row][col] < 0:
            _negate_row(work, pivot_row)
            _negate_row(u, pivot_row)
        p = work[pivot_row][col]
        for i in range(pivot_row):
            q = -(work[i][col] // p)
            _addmul_row(work, i, pivot_row, q)
            _addmul_row(u, i, pivot_row, q)
        pivot_cols.append(col)
        pivot_row += 1
    return IntMatrix._trusted(_tuples(work), ncols), IntMatrix._trusted(_tuples(u), nrows)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (D, U, V) with D = U @ m @ V, U and V unimodular and D diagonal
    with nonnegative entries satisfying d1 | d2 | ... .
    """
    work = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    u = _identity_rows(nrows)
    v = _identity_rows(ncols)

    def col_swap(j1: int, j2: int) -> None:
        for row in work:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def col_addmul(dst: int, src: int, q: int) -> None:
        if q:
            for row in work:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

    def col_negate(j: int) -> None:
        for row in work:
            row[j] = -row[j]
        for row in v:
            row[j] = -row[j]

    t = 0
    while t < min(nrows, ncols):
        entries = [(abs(work[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if work[i][j] != 0]
        if not entries:
            break
        _, bi, bj = min(entries)
        if bi != t:
            _swap(work, t, bi)
            _swap(u, t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            # Clear the pivot column, then the pivot row; repeat while remainders appear.
            changed = False
            p = work[t][t]
            for i in range(t + 1, nrows):
                if work[i][t] != 0:
                    q = -(work[i][t] // p)
                    _addmul_row(work, i, t, q)
                    _addmul_row(u, i, t, q)
                    if work[i][t] != 0:
                        _swap(work, t, i)
                        _swap(u, t, i)
                        changed = True
                        p = work[t][t]
            for j in range(t + 1, ncols):
                if work[t][j] != 0:
                    q = -(work[t][j] // p)
                    col_addmul(j, t, q)
                    if work[t][j] != 0:
                        col_swap(t, j)
                        changed = True
                        p = work[t][t]
            if changed:
                continue
            # Divisibility sweep: fold any non-multiple into the pivot's row.
            bad = next(
                ((i, j) for i in range(t + 1, nrows) for j in range(t + 1, ncols) if work[i][j] % p != 0),
                None,
            )
            if bad is None:
                break
            _addmul_row(work, t, bad[0], 1)
            _addmul_row(u, t, bad[0], 1)
        if work[t][t] < 0:
            _negate_row(work, t)
            _negate_row(u, t)
        t += 1
    return (
        IntMatrix._trusted(_tuples(work), ncols),
        IntMatrix._trusted(_tuples(u), nrows),
        IntMatrix._trusted(_tuples(v), ncols),
    )


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturated integer kernel {v : m @ v = 0}.

    Rows form an HNF basis of the full lattice of integer solutions, which is
    saturated by construction (they extend to a basis of Z^n).
    """
    ncols = m.ncols
    if m.nrows == 0:
        return IntMatrix.identity(ncols)
    d, _, v = snf(m)
    rank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0)
    if rank == ncols:
        return IntMatrix._trusted((), ncols)
    basis = tuple(tuple(v.rows[r][j] for r in range(ncols)) for j in range(rank, ncols))
    h, _ = hnf(IntMatrix._trusted(basis, ncols))
    return IntMatrix._trusted(h.rows[: ncols - rank], ncols)


def saturate(m: IntMatrix) -> IntMatrix:
    """Canonical basis of (Q-span of the rows) intersected with Z^n.

    With D = U m V in Smith form and invariant factors d_1 | ... | d_r, the
    first r rows of V^-1 are a basis B of the saturation; row i of U m is
    d_i times row i of B, so no inverse is needed.  The result is the
    Hermite form U_h B.  The input rows must be linearly independent over
    Q; otherwise raises ValueError("rank deficient").

    The multipliers also carry offsets across: the system m y + c = 0 has
    the same solutions mod 1 as sat y + chi = 0 with
    chi = U_h D^-1 U c mod 1 (Cohen, GTM 138, section 2.4).
    """
    return _saturation(m)[0]


def _saturation(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix, list[int]]:
    """saturate(m) together with U, U_h and the divisors d_1 | ... | d_r."""
    d, u, _ = snf(m)
    divisors = [d.rows[i][i] for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0]
    if len(divisors) != m.nrows:
        raise ValueError("rank deficient")
    rows = (u @ m).rows
    basis = tuple(tuple(e // di for e in row) for row, di in zip(rows, divisors))
    sat, u_h = hnf(IntMatrix._trusted(basis, m.ncols))
    return sat, u, u_h, divisors


def _saturated_offset(
    u: IntMatrix, u_h: IntMatrix, divisors: Sequence[int], n: Sequence[int], denom: int
) -> RatVector:
    """chi = U_h D^-1 U (n / denom) mod 1, in integer arithmetic.

    With M = denom * d_r, entry i of D^-1 U n / denom is w_i / M where
    w_i = (U n)_i * d_r / d_i; only w mod M matters, so multiplier growth
    never reaches a Fraction, and one Fraction is built per output entry.
    """
    top = divisors[-1]
    mod = denom * top
    w = [
        sum(a * b for a, b in zip(row, n)) * (top // di) % mod
        for row, di in zip(u.rows, divisors)
    ]
    return tuple(Fraction(sum(a * b for a, b in zip(row, w)) % mod, mod) for row in u_h.rows)


def is_unimodular(m: IntMatrix) -> bool:
    return m.nrows == m.ncols and abs(m.det()) == 1


def stack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    if top.ncols != bottom.ncols:
        raise ValueError("dimension mismatch")
    return IntMatrix._trusted(top.rows + bottom.rows, top.ncols)
