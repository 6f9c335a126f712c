"""Integer and rational linear algebra against brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _gauss_jordan as rational_gauss_jordan
from oracles import (
    gcd_of_minors,
    in_row_span_z,
    is_canonical_hnf,
    matmul,
    naive_det,
    random_unimodular,
    rational_rank,
    sylvester_positive_definite,
)

from torusfm.exact_linalg import (
    IntMatrix,
    RatMatrix,
    _det,
    _gauss_jordan,
    _solve,
    hnf,
    kernel_basis,
    mod1,
    mod1_vector,
    saturate,
    snf,
    stack,
)


def int_matrices(max_dim=4, max_entry=6):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ).map(lambda rows: IntMatrix(rows))
        )
    )


# ---------------------------------------------------------------- hnf


def test_hnf_known_value():
    h, u = hnf(IntMatrix([[2, 4], [6, 8]]))
    assert h.rows == ((2, 0), (0, 4))
    assert abs(naive_det(u)) == 1
    assert matmul(u, [[2, 4], [6, 8]]) == h.rows


def test_hnf_zero_and_empty():
    h, u = hnf(IntMatrix([[0, 0], [0, 0]]))
    assert h.rows == ((0, 0), (0, 0))
    h, u = hnf(IntMatrix((), 3))
    assert h.nrows == 0 and h.ncols == 3


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_hnf_factorization_and_shape(m):
    h, u = hnf(m)
    assert abs(naive_det(u)) == 1
    assert matmul(u, m) == h.rows
    assert is_canonical_hnf(h)
    # A second pass is the identity on already-canonical input.
    h2, _ = hnf(h)
    assert h2 == h


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.integers(0, 10**6))
def test_hnf_is_row_span_invariant(m, seed):
    p = random_unimodular(m.nrows, random.Random(seed))
    h1, _ = hnf(m)
    h2, _ = hnf(IntMatrix(matmul(p, m)))
    assert h1 == h2


# ---------------------------------------------------------------- snf


def test_snf_known_values():
    d, u, v = snf(IntMatrix([[3, 0], [0, 5]]))
    assert d.rows == ((1, 0), (0, 15))
    d, u, v = snf(IntMatrix([[2, 4], [6, 8]]))
    assert d.rows == ((2, 0), (0, 4))


@settings(max_examples=120, deadline=None)
@given(int_matrices(max_dim=3, max_entry=5))
def test_snf_factorization_and_divisibility(m):
    d, u, v = snf(m)
    assert abs(naive_det(u)) == 1 and abs(naive_det(v)) == 1
    assert matmul(matmul(u, m), v) == d.rows
    diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
    for i, row in enumerate(d.rows):
        for j, e in enumerate(row):
            if i != j:
                assert e == 0
    assert all(e >= 0 for e in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # Determinantal characterization: prod of the first k entries equals
    # the gcd of all k-by-k minors.
    prod = 1
    for k, e in enumerate(diag, start=1):
        prod *= e
        assert prod == gcd_of_minors(m, k)


# ---------------------------------------------------------------- kernels


def test_kernel_of_primitive_line():
    for p, q in [(1, 1), (2, 3), (5, 7), (1, 0)]:
        k = kernel_basis(IntMatrix([[q, -p]]))
        assert k.rows == ((p, q),)


def test_kernel_of_empty_system_is_everything():
    assert kernel_basis(IntMatrix((), 3)) == IntMatrix.identity(3)


def test_kernel_of_full_rank_is_trivial():
    k = kernel_basis(IntMatrix([[1, 0], [0, 1]]))
    assert k.nrows == 0 and k.ncols == 2


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_dim=3, max_entry=4))
def test_kernel_members_annihilate_and_saturate(m):
    k = kernel_basis(m)
    for row in k.rows:
        assert all(e == 0 for e in m.mul_vector(row))
    assert k.nrows == m.ncols - rational_rank(m.rows, m.ncols)
    if k.nrows:
        d, _, _ = snf(k)
        assert all(d.rows[i][i] == 1 for i in range(k.nrows))


def test_kernel_exhaustive_small():
    # Every bounded integer solution must lie in the Z-span of the basis.
    m = IntMatrix([[2, 4, 6], [1, 1, 1]])
    k = kernel_basis(m)
    hits = 0
    for v in itertools.product(range(-6, 7), repeat=3):
        if all(e == 0 for e in m.mul_vector(v)):
            assert in_row_span_z(v, k)
            hits += 1
    assert hits > 1


# ---------------------------------------------------------------- saturation


def test_saturate_known_values():
    assert saturate(IntMatrix([[2, 0]])).rows == ((1, 0),)
    assert saturate(IntMatrix([[2, 4], [6, 8]])) == IntMatrix.identity(2)
    assert saturate(IntMatrix([[2, 2, 0]])).rows == ((1, 1, 0),)


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ValueError, match="rank deficient"):
        saturate(IntMatrix([[1, 2], [2, 4]]))


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_dim=3, max_entry=4))
def test_saturate_contains_input_and_is_saturated(m):
    if rational_rank(m.rows, m.ncols) != m.nrows:
        with pytest.raises(ValueError):
            saturate(m)
        return
    s = saturate(m)
    assert s.nrows == m.nrows
    for row in m.rows:
        assert in_row_span_z(row, s)
    d, _, _ = snf(s)
    assert all(d.rows[i][i] == 1 for i in range(s.nrows))
    # Saturating twice changes nothing.
    assert saturate(s) == s


# ---------------------------------------------------------------- determinants


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_bareiss_det_matches_laplace(rows):
    assert _det([list(r) for r in rows], len(rows)) == naive_det(rows)


# ---------------------------------------------------------------- rational solving


def test_rat_inverse():
    a = RatMatrix([[2, 1], [1, 1]])
    inv = a.inverse()
    assert matmul(a, inv) == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="singular"):
        RatMatrix([[1, 2], [2, 4]]).inverse()


_DENOMINATORS = (1, 1, 2, 3, 5, 6, 7, 12)


@st.composite
def square_systems(draw):
    """(a, b): a square rational a up to 8 x 8, b with 0 to 3 columns.

    Entries mix denominators and zeros.  Some leading rows get zero leading
    columns, so the elimination has to swap rows; one draw in two makes a
    singular, by a zero column or by a row that combines two others.
    """
    n = draw(st.integers(1, 8))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENOMINATORS))
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    lead = draw(st.integers(0, n - 1))
    for row in a[: draw(st.integers(0, n - max(lead, 1)))]:
        row[:lead] = [Fraction(0)] * lead
    kind = draw(st.sampled_from(("generic", "generic", "zero column", "combination")))
    if kind == "zero column":
        c = draw(st.integers(0, n - 1))
        for row in a:
            row[c] = Fraction(0)
    elif kind == "combination" and n > 1:
        t = draw(st.integers(0, n - 1))
        others = st.sampled_from([r for r in range(n) if r != t])
        i, j, p, q = draw(others), draw(others), draw(entry), draw(entry)
        a[t] = [p * x + q * y for x, y in zip(a[i], a[j])]
    m = draw(st.integers(0, 3))
    b = [[draw(entry) for _ in range(m)] for _ in range(n)]
    return a, b


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_fraction_free_kernel_matches_rational_arithmetic(system):
    a, b = system
    n = len(a)
    rank = rational_rank(a, n)
    assert RatMatrix(a).rank() == rank
    scaled = [[int(e * math.lcm(*(f.denominator for f in row))) for e in row] for row in a]
    assert _det([list(r) for r in scaled], n) == naive_det(scaled)
    if rank < n:
        with pytest.raises(ValueError, match="singular"):
            _solve(a, b)
        with pytest.raises(ValueError, match="singular"):
            RatMatrix(a).inverse()
        return
    x, d = _solve(a, b)
    sol = [[Fraction(e, d) for e in row] for row in x]
    assert [[sum(a[i][l] * sol[l][j] for l in range(n)) for j in range(len(b[0]))]
            for i in range(n)] == b
    inv = RatMatrix(a).inverse().rows
    assert [[sum(a[i][l] * inv[l][j] for l in range(n)) for j in range(n)] for i in range(n)] == [
        [int(i == j) for j in range(n)] for i in range(n)
    ]


@st.composite
def wide_eliminations(draw):
    """(rows, ncols): integer rows, pivoting on ncols columns, with more columns past them.

    One column is a combination of the columns before it, so it is no
    pivot though later columns are; one row may combine two others, which
    makes the rows rank deficient; and the first row may start with zeros,
    which makes the elimination swap rows.
    """
    n = draw(st.integers(1, 5))
    ncols = draw(st.integers(2, 8))
    width = ncols + draw(st.integers(0, 3))
    entry = st.integers(-6, 6)
    rows = [[draw(entry) for _ in range(width)] for _ in range(n)]
    z = draw(st.integers(0, ncols - 2))
    weights = [draw(st.integers(-2, 2)) for _ in range(z)]
    for row in rows:
        row[z] = sum(w * e for w, e in zip(weights, row))
    if n > 2 and draw(st.booleans()):
        t, i, j = draw(st.permutations(range(n)))[:3]
        p, q = draw(entry), draw(entry)
        rows[t] = [p * x + q * y for x, y in zip(rows[i], rows[j])]
    lead = draw(st.integers(0, ncols - 1))
    rows[0][:lead] = [0] * lead
    return rows, ncols


@settings(max_examples=250, deadline=None)
@given(wide_eliminations())
def test_gauss_jordan_matches_rational_elimination(case):
    rows, ncols = case
    got = [row[:] for row in rows]
    pivots, minors, swaps = _gauss_jordan(got, ncols)
    reduced, oracle_pivots = rational_gauss_jordan(rows, ncols)
    assert pivots == oracle_pivots
    if not swaps:
        for t in range(1, len(pivots) + 1):
            assert minors[t] == naive_det([[row[c] for c in pivots[:t]] for row in rows[:t]])
    # The columns from the last pivot on are current: the last pivot times the reduced rows.
    start = pivots[-1] if pivots else 0
    assert [row[start:] for row in got] == [[minors[-1] * e for e in row[start:]] for row in reduced]


def test_positive_definite():
    assert RatMatrix([[2, 1], [1, 2]]).is_positive_definite()
    assert not RatMatrix([[1, 2], [2, 1]]).is_positive_definite()
    assert not RatMatrix([[1, 2], [3, 4]]).is_positive_definite()


def rational_entries(span=3):
    return st.builds(Fraction, st.integers(-span, span), st.integers(1, 3))


@st.composite
def symmetric_rational_matrices(draw):
    """Random symmetric matrices, singular PSD B B^T, and shifted B B^T."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("symmetric", "gram", "shifted")))
    if kind == "symmetric":
        upper = {(i, j): draw(rational_entries()) for i in range(n) for j in range(i, n)}
        return RatMatrix([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    k = draw(st.integers(0, n))
    b = [[draw(rational_entries()) for _ in range(k)] for _ in range(n)]
    gram = [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]
    shift = draw(st.integers(-2, 2)) if kind == "shifted" else 0
    return RatMatrix(
        [[e + shift * (i == j) for j, e in enumerate(row)] for i, row in enumerate(gram)]
    )


@settings(max_examples=300, deadline=None)
@given(symmetric_rational_matrices())
def test_positive_definite_matches_sylvester_oracle(m):
    assert m.is_positive_definite() == sylvester_positive_definite(m)


def test_positive_definite_reads_the_swaps_not_their_parity():
    # Two [[0, 1], [1, 0]] blocks have eigenvalues 1 and -1.  The
    # elimination meets them with two row swaps and every pivot 1, so a
    # check of the swap parity alone would accept the matrix.
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    pivots, minors, swaps = _gauss_jordan([r[:] for r in rows], 4)
    assert (pivots, minors, swaps) == ([0, 1, 2, 3], [1, 1, 1, 1, 1], 2)
    assert not RatMatrix(rows).is_positive_definite()
    assert not sylvester_positive_definite(RatMatrix(rows))


def test_positive_definite_edge_cases():
    singular_psd = RatMatrix([[1, 1], [1, 1]])
    assert not singular_psd.is_positive_definite()
    assert not sylvester_positive_definite(singular_psd)
    # Leading 1x1 minor positive, the 2x2 minor negative.
    assert not RatMatrix([[1, 0], [0, -1]]).is_positive_definite()
    # A zero first pivot ends the elimination.
    assert not RatMatrix([[0, 1], [1, 2]]).is_positive_definite()
    hilbert = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]])
    assert hilbert.is_positive_definite()


def test_mod1_lands_in_unit_interval():
    assert mod1(Fraction(-3, 2)) == Fraction(1, 2)
    assert mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert mod1(Fraction(2)) == 0
    # Ints, Fractions, negatives and strings give Fraction(x) % 1, as Fractions.
    inputs = [0, 3, -3, Fraction(7, 3), Fraction(-3, 2), Fraction(-4), "5/4", "-1/3", "2", 0.75]
    want = tuple(Fraction(x) % 1 for x in inputs)
    for out in (tuple(map(mod1, inputs)), mod1_vector(inputs), mod1_vector(iter(inputs))):
        assert out == want
        assert all(type(e) is Fraction and 0 <= e < 1 for e in out)


def test_stack():
    s = stack(IntMatrix([[1, 2]]), IntMatrix([[3, 4]]))
    assert s.rows == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        stack(IntMatrix([[1, 2]]), IntMatrix([[1]]))


# ---------------------------------------------------------------- validation


def test_int_matrix_rejects_non_integral_entries():
    with pytest.raises(ValueError, match=r"entry Fraction\(1, 2\) at row 0, column 0"):
        IntMatrix([[Fraction(1, 2), 1.7]])
    with pytest.raises(ValueError, match="entry 1.7 at row 1, column 0"):
        IntMatrix([[1, 2], [1.7, 3]])
    with pytest.raises(ValueError, match="at row 0, column 2"):
        IntMatrix([[0, 0, Fraction(-7, 3)]])
    with pytest.raises(ValueError, match="entry None at row 0, column 1"):
        IntMatrix([[1, None]])
    # int() would truncate an empty matrix's column count to 2.
    with pytest.raises(ValueError, match="column count 2.5 is not an integer"):
        IntMatrix((), 2.5)
    m = IntMatrix([[Fraction(4, 2), -3], [True, Fraction(0)]])
    assert m.rows == ((2, -3), (1, 0))
    assert all(type(e) is int for row in m.rows for e in row)


def test_trusted_results_hold_plain_int_tuples():
    m = IntMatrix([[2, 4, 1], [6, 8, 3]])
    products = [*hnf(m), *snf(m), kernel_basis(m), saturate(m)]
    for p in products:
        assert type(p.rows) is tuple
        assert all(type(r) is tuple and len(r) == p.ncols for r in p.rows)
        assert all(type(e) is int for r in p.rows for e in r)
        assert p == IntMatrix(p.rows, p.ncols)
