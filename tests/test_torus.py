"""Affine subtori: canonical forms, duality, normality, intersections."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    deadline,
    gcd_of_minors,
    in_row_span_z,
    is_canonical_hnf,
    matmul,
    naive_det,
    offset_by_particular_solution,
    pairing_vanishes,
    rational_rank,
)

import torusfm.exact_linalg
import torusfm.torus
from torusfm.exact_linalg import IntMatrix, RatMatrix, kernel_basis, saturate, snf, stack
from torusfm.fm_absolute import SubtorusLocalSystem, restrict_system, transform
from torusfm.torus import (
    AffineSubtorus,
    Torus,
    dual_support,
    intersect,
    is_normal_to,
    subtorus_from_equations,
    whole_torus,
)

F = Fraction
T2 = Torus(2)
T3 = Torus(3)


def rational_grid(g, q):
    return itertools.product([F(i, q) for i in range(q)], repeat=g)


# ---------------------------------------------------------------- canonical form


def test_canonicalization_of_scaled_equation():
    # 2*y1 + 1/2 = 0 on the cover projects to the circle y1 = 3/4.
    s = subtorus_from_equations(T2, [[2, 0]], [F(1, 2)])
    assert s.eqns == IntMatrix([[1, 0]])
    assert s.offset == (F(1, 4),)
    assert s.contains((F(3, 4), F(1, 7)))
    assert not s.contains((F(1, 4), F(0)))
    # The same circle presented with primitive data.
    assert s == subtorus_from_equations(T2, [[1, 0]], [F(1, 4)])


def test_dim_codim_and_whole_torus():
    s = subtorus_from_equations(T3, [[1, 2, 3]], [0])
    assert s.dim == 2 and s.codim == 1
    w = whole_torus(T3)
    assert w.dim == 3 and w.codim == 0
    assert w.contains((F(1, 3), F(1, 5), F(6, 7)))


def test_point_subtorus():
    p = T2.point((F(1, 3), F(2, 5)))
    s = p.as_subtorus()
    assert s.dim == 0
    assert s.contains(p)
    assert not s.contains((F(1, 3), F(3, 5)))
    assert s.single_point() == p


def test_non_integral_equations_rejected():
    # Truncating 1/2 to 0 would silently give the subtorus y2 = 0.
    with pytest.raises(ValueError, match="at row 0, column 0 is not an integer"):
        subtorus_from_equations(T2, [[F(1, 2), 1]], [0])
    with pytest.raises(ValueError, match="at row 1, column 1 is not an integer"):
        subtorus_from_equations(T3, [[1, 0, 0], [0, 2.5, 1]], [0, 0])
    # Integral Fractions are integers.
    s = subtorus_from_equations(T2, [[F(4, 2), 0]], [F(1, 2)])
    assert s == subtorus_from_equations(T2, [[2, 0]], [F(1, 2)])


def test_degenerate_equations_rejected():
    with pytest.raises(ValueError, match="degenerate equations"):
        subtorus_from_equations(T2, [[1, 2], [2, 4]], [0, 0])


def test_constructor_requires_canonical_data():
    with pytest.raises(ValueError):
        AffineSubtorus(T2, IntMatrix([[2, 0]]), (F(0),))
    with pytest.raises(ValueError):
        AffineSubtorus(T2, IntMatrix([[1, 0]]), (F(3, 2),))


def unimodular(n, seed):
    rng = random.Random(seed)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(10):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 4),
    st.data(),
)
def test_presentation_invariance(g, data):
    m = data.draw(st.integers(1, g - 1))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=g, max_size=g), min_size=m, max_size=m
        )
    )
    a = IntMatrix(rows, g)
    if rational_rank(a.rows, g) != m:
        return
    c = [F(data.draw(st.integers(-6, 6)), 4) for _ in range(m)]
    torus = Torus(g)
    s = subtorus_from_equations(torus, a, c)
    p = unimodular(m, data.draw(st.integers(0, 10**6)))
    moved = [sum(e * x for e, x in zip(row, c)) for row in p]
    s2 = subtorus_from_equations(torus, matmul(p, a), moved)
    assert s == s2


@settings(max_examples=35, deadline=None)
@given(st.data())
def test_membership_matches_cover_solutions(data):
    # A torus point lies on the subtorus exactly when one of its lifts to
    # the cover solves the equations on the nose.
    g = 2
    a = IntMatrix([[data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))]], g)
    if rational_rank(a.rows, g) != 1:
        return
    c8 = data.draw(st.integers(0, 7))
    s = subtorus_from_equations(Torus(g), a, [F(c8, 8)])
    # Any solvable lift equation here has a solution with entries in [-8, 8].
    # The oracle runs on the equation times 8: a.(y8 + 8*lam) + c8 = 0 for
    # the grid point y = y8/8 and the lift lam.
    lifts = list(itertools.product(range(-8, 9), repeat=g))
    (row,) = a.rows
    for y8 in itertools.product(range(8), repeat=g):
        has_exact_lift = any(
            sum(e * (yi + 8 * li) for e, yi, li in zip(row, y8, lam)) + c8 == 0 for lam in lifts
        )
        assert s.contains(tuple(F(yi, 8) for yi in y8)) == has_exact_lift


# ---------------------------------------------------------------- offsets


@st.composite
def full_rank_systems(draw):
    """Raw full-rank systems at g <= 8 with scaled rows and wide offsets."""
    g = draw(st.integers(1, 8))
    codim = draw(st.integers(0, g))
    span = 4 if g <= 5 else (2 if g <= 7 else 1)
    rows = draw(st.lists(st.lists(st.integers(-span, span), min_size=g, max_size=g),
                         min_size=codim, max_size=codim))
    assume(rational_rank(rows, g) == codim)
    # Scaled rows are not primitive; the saturation divides them out.
    scales = draw(st.lists(st.sampled_from([1, 1, -1, 2, -3, 6, 35]),
                           min_size=codim, max_size=codim))
    rows = [[k * e for e in row] for k, row in zip(scales, rows)]
    offsets = draw(st.lists(
        st.one_of(
            st.fractions(-10, 10, max_denominator=12),
            st.fractions(-10**12, 10**12, max_denominator=10**15),
        ),
        min_size=codim, max_size=codim,
    ))
    return draw(tori(g)), rows, offsets


def assert_offset_pinned(torus, rows, offsets):
    """The offset against a particular solution found by the oracle."""
    s = subtorus_from_equations(torus, rows, offsets)
    if not rows:
        assert s == whole_torus(torus)
        return
    y0, chi = offset_by_particular_solution(s.eqns.rows, rows, offsets, torus.dim)
    for row, c in zip(rows, offsets):
        assert sum(a * y for a, y in zip(row, y0)) == -c
    for row, x in zip(s.eqns.rows, s.offset):
        assert 0 <= x < 1
        assert (sum(a * y for a, y in zip(row, y0)) + x).denominator == 1
    assert s.offset == chi


@settings(max_examples=150, deadline=None)
@given(full_rank_systems())
def test_offset_matches_a_rational_particular_solution(system):
    assert_offset_pinned(*system)


# Systems on which a Smith reduction that pivots on the smallest entry
# without reducing the others runs for seconds to minutes: the entries of
# its multipliers grow to thousands of bits.
G6_SLICE = [  # a g = 6 fibre slice; no entry exceeds 810
    [60, -90, 75, 0, 0, 0],
    [60, 660, 0, 350, 0, 0],
    [90, -60, 0, 0, 175, 0],
    [-360, -810, 0, 0, 0, 525],
]
HARD_SYSTEMS = {
    "5x5": [
        [-70, -35, 70, 105, 0],
        [-12, -6, -6, 12, 24],
        [-35, -70, -70, 105, 140],
        [-140, 70, 70, 0, 105],
        [-6, 4, 4, 6, -8],
    ],
    "8x8": [  # a nonsingular {-1, 0, 1} matrix with scaled rows
        [k * e for e in row]
        for k, row in zip(
            (2, 35, 6, 6, 2, 6, -3, -3),
            [
                [1, -1, 0, 0, -1, -1, -1, 1],
                [1, 0, 1, 0, 0, -1, 0, 0],
                [-1, 1, 0, 1, 1, 1, -1, -1],
                [1, 1, 1, 1, 0, 1, 1, 1],
                [-1, 0, 0, -1, 0, 0, 0, 0],
                [1, -1, -1, 1, 1, 0, -1, -1],
                [1, -1, 1, 0, 0, -1, 1, 1],
                [1, 1, 1, -1, 1, 0, -1, 1],
            ],
        )
    ],
    "g6 slice": G6_SLICE,
}


def test_offset_survives_huge_smith_multipliers():
    offsets = [-188, 577, 113, 38]
    torus = Torus(6)
    assert_offset_pinned(torus, G6_SLICE, offsets)
    assert_offset_pinned(torus, G6_SLICE, [F(c, 7) for c in offsets])
    assert_offset_pinned(torus, G6_SLICE, [F(-c, 10**9 + 7) + F(1, 3) for c in offsets])


@pytest.mark.parametrize("name", list(HARD_SYSTEMS))
def test_hard_systems_finish_under_a_deadline(name):
    rows = HARD_SYSTEMS[name]
    m = IntMatrix(rows)
    r, g = m.shape
    offsets = [F(k + 1, 7) for k in range(r)]
    with deadline(2):
        s = subtorus_from_equations(Torus(g), rows, offsets)
        sat = saturate(m)
        kernel = kernel_basis(m)
        d, u, v = snf(m)
    assert s.eqns == sat
    assert s.offset == offset_by_particular_solution(sat.rows, rows, offsets, g)[1]
    assert gcd_of_minors(sat, r) == 1
    assert all(in_row_span_z(row, sat) for row in rows)
    assert kernel.nrows == g - r
    assert all(not any(m.mul_vector(row)) for row in kernel.rows)
    if kernel.nrows:
        assert gcd_of_minors(kernel, kernel.nrows) == 1
    assert matmul(matmul(u, m), v) == d.rows
    assert abs(naive_det(u)) == 1 and abs(naive_det(v)) == 1
    diag = [d.rows[i][i] for i in range(r)]
    assert all(d.rows[i][j] == 0 for i in range(r) for j in range(g) if i != j)
    product = 1
    for k, e in enumerate(diag, start=1):
        assert e > 0 and (k == 1 or e % diag[k - 2] == 0)
        product *= e
        assert product == gcd_of_minors(m, k)


# Row scales that give the Hermite form of A^T pivots other than 1, so the
# exact division of the saturation's triangular substitution matters.
ROW_SCALES = (1, -1, 2, -3, 6, 35)


@st.composite
def scaled_systems(draw, max_g=10):
    """Plain integer rows, each a small row times a drawn scale, and offsets."""
    g = draw(st.integers(1, max_g))
    codim = draw(st.integers(0, g))
    scales = draw(st.lists(st.sampled_from(ROW_SCALES), min_size=codim, max_size=codim))
    rows = tuple(
        tuple(k * e for e in draw(st.lists(st.integers(-3, 3), min_size=g, max_size=g)))
        for k in scales
    )
    offsets = tuple(F(draw(st.integers(-6, 6)), draw(st.integers(1, 6))) for _ in rows)
    return g, rows, offsets


def assert_saturation_of(sat, rows, g):
    """sat is the canonical basis of the saturation of the rows, by the oracles alone."""
    assert len(sat) == len(rows)
    assert is_canonical_hnf(sat)
    if rows:
        assert gcd_of_minors(sat, len(rows)) == 1
    assert all(in_row_span_z(row, sat) for row in rows)
    assert rational_rank([*rows, *sat], g) == len(rows)


@settings(max_examples=150, deadline=None)
@given(scaled_systems())
def test_saturation_by_substitution_agrees_with_the_oracles(system):
    g, rows, offsets = system
    if rational_rank(rows, g) < len(rows):
        with pytest.raises(ValueError, match="rank deficient"):
            saturate(IntMatrix(rows, g))
        with pytest.raises(ValueError, match="degenerate equations"):
            subtorus_from_equations(Torus(g), rows, offsets)
        return
    assert_saturation_of(saturate(IntMatrix(rows, g)).rows, rows, g)
    s = subtorus_from_equations(Torus(g), rows, offsets)
    eqns = s.eqns.rows
    assert_saturation_of(eqns, rows, g)
    assert s.offset == offset_by_particular_solution(eqns, rows, offsets, g)[1]
    directions = s.direction_basis()
    assert all(not any(s.eqns.mul_vector(d)) for d in directions.rows)
    assert directions == kernel_basis(s.eqns)


# ---------------------------------------------------------------- duality


def test_dual_of_point_is_whole_torus_with_holonomy():
    x = (F(1, 3), F(2, 5))
    s = T2.point(x).as_subtorus()
    hat, hol = dual_support(s, ())
    assert hat.dim == 2 and hat.codim == 0
    # Dual holonomy is minus the point, one phase per coordinate loop.
    assert hol == (F(2, 3), F(3, 5))


def test_dual_of_whole_torus_is_point():
    xi = (F(1, 4), F(2, 3))
    hat, hol = dual_support(whole_torus(T2), xi)
    assert hat.dim == 0
    assert hat.single_point().coords == (F(3, 4), F(1, 3))
    assert hol == ()


def test_dual_support_involution():
    s = subtorus_from_equations(T3, [[1, 2, 3], [0, 2, 1]], [F(1, 3), F(1, 2)])
    xi = (F(2, 7),)
    hat, hol = dual_support(s, xi)
    assert hat.dim == s.codim
    back, hol2 = dual_support(hat, hol)
    assert back == s
    assert hol2 == xi


def test_holonomy_dimension_mismatch():
    s = subtorus_from_equations(T2, [[1, 0]], [0])
    with pytest.raises(ValueError, match="holonomy dimension mismatch"):
        dual_support(s, (F(1, 2), F(1, 3)))


def test_dual_support_reduces_and_checks_the_phases():
    s = subtorus_from_equations(T3, [[1, 2, 3]], [F(1, 5)])
    hat, hol = dual_support(s, (F(3, 2), F(-1, 3)))
    assert hat.offset == (F(1, 2), F(2, 3))
    assert hol == s.offset
    assert dual_support(s, (3, -1))[0].offset == (0, 0)
    assert dual_support(s, ("5/4", -2))[0].offset == (F(1, 4), 0)
    for bad in ((F(1, 2),), (0, 0, 0)):
        with pytest.raises(ValueError, match="holonomy dimension mismatch"):
            dual_support(s, bad)


@settings(max_examples=60, deadline=None)
@given(scaled_systems(max_g=6), st.data())
def test_transform_swaps_what_dual_support_swaps(system, data):
    g, rows, offsets = system
    assume(rational_rank(rows, g) == len(rows))
    s = subtorus_from_equations(Torus(g), rows, offsets)
    raw = [F(data.draw(st.integers(-12, 12)), 6) for _ in range(s.dim)]
    local = SubtorusLocalSystem(s, raw)
    out = transform(local).system
    assert out.support == dual_support(local.support, local.holonomy)[0]
    assert out.support == dual_support(s, raw)[0]
    assert out.holonomy == s.offset


def test_is_normal_to():
    s = subtorus_from_equations(T3, [[1, 2, 3]], [F(1, 5)])
    hat, _ = dual_support(s, (0, 0))
    assert is_normal_to(s, hat)
    # Normality ignores offsets but pins the direction lattice.
    assert is_normal_to(s.translate((F(1, 7), 0, 0)), hat)
    other = subtorus_from_equations(Torus(3, T3.metric), [[1, 0, 0]], [0])
    assert not is_normal_to(s, other)
    assert not is_normal_to(s, subtorus_from_equations(Torus(2), [[1, 0]], [0]))


def test_pairing_vanishes_matches_normality():
    t = Torus(3)
    s = subtorus_from_equations(t, [[1, 2, 3]], [F(1, 5)])
    hat, _ = dual_support(s, (0, 0))
    assert pairing_vanishes(s, hat)
    assert is_normal_to(s, hat)
    other = subtorus_from_equations(t, [[1, 0, 0]], [0])
    assert not pairing_vanishes(s, other)
    assert not is_normal_to(s, other)
    # Vanishing alone does not pin the dimension; normality does.
    line = subtorus_from_equations(t, [[1, 2, 3], [0, 1, 1]], [0, 0])
    hat_line, _ = dual_support(line, (0,))
    sub_of_hat = subtorus_from_equations(
        Torus(3), hat_line.eqns, hat_line.offset
    )
    assert pairing_vanishes(line, sub_of_hat)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_vanishes_iff_normal_for_dual_pairs(data):
    g = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, g - 1))
    rows = [[data.draw(st.integers(-3, 3)) for _ in range(g)] for _ in range(m)]
    a = IntMatrix(rows, g)
    if rational_rank(a.rows, g) != m:
        return
    s = subtorus_from_equations(Torus(g), a, [0] * m)
    hat, _ = dual_support(s, [0] * s.dim)
    assert pairing_vanishes(s, hat)
    assert is_normal_to(s, hat)


def test_normality_is_metric_independent():
    metric = RatMatrix([[2, 1, 0], [1, 3, 0], [0, 0, 1]])
    t = Torus(3, metric)
    s = subtorus_from_equations(t, [[2, 1, 1]], [0])
    hat, _ = dual_support(s, (0, 0))
    assert hat.torus.metric == metric.inverse()
    assert is_normal_to(s, hat)


# ---------------------------------------------------------------- trusted paths


@st.composite
def tori(draw, g):
    """The standard torus, or a metric L L^T + I with L unit lower triangular."""
    if draw(st.booleans()):
        return Torus(g)
    low = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(g)] for i in range(g)]
    metric = [[sum(low[i][t] * low[j][t] for t in range(g)) + (i == j) for j in range(g)]
              for i in range(g)]
    return Torus(g, RatMatrix(metric))


@st.composite
def raw_systems(draw, max_g=6):
    g = draw(st.integers(1, max_g))
    codim = draw(st.integers(0, g))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=g, max_size=g),
                         min_size=codim, max_size=codim))
    if codim >= 2 and draw(st.integers(0, 3)) == 0:
        # A dependent last row, so the degenerate branch is exercised.
        rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
    offsets = [F(draw(st.integers(-6, 6)), draw(st.integers(1, 6))) for _ in range(codim)]
    return draw(tori(g)), IntMatrix(rows, g), offsets


def revalidated(s):
    """The same subtorus built through the validating public constructor."""
    return AffineSubtorus(s.torus, s.eqns, s.offset)


@settings(max_examples=150, deadline=None)
@given(raw_systems(), st.data())
def test_trusted_paths_build_what_the_constructor_accepts(system, data):
    torus, a, c = system
    g = torus.dim
    if a.nrows and gcd_of_minors(a, a.nrows) == 0:
        with pytest.raises(ValueError, match="degenerate equations"):
            subtorus_from_equations(torus, a, c)
        with pytest.raises(ValueError, match="rank deficient"):
            saturate(a)
        return
    s = subtorus_from_equations(torus, a, c)
    assert s == revalidated(s)
    holonomy = [F(data.draw(st.integers(0, 5)), 6) for _ in range(s.dim)]
    once = transform(SubtorusLocalSystem(s, holonomy)).system.support
    assert once == revalidated(once)
    assert once.direction_basis() == kernel_basis(once.eqns)
    assert transform(SubtorusLocalSystem(once, s.offset)).system.support == s
    moved = s.translate([F(data.draw(st.integers(-4, 4)), 5) for _ in range(g)])
    assert moved == revalidated(moved)
    line = [data.draw(st.integers(-2, 2)) for _ in range(g - 1)] + [1]
    other = subtorus_from_equations(torus, [line], [F(1, 3)])
    for component in intersect(s, other):
        assert component == revalidated(component)
    if s.codim:
        eqns = [list(r) for r in s.eqns.rows]
        scaled = [[2 * e for e in eqns[0]]] + eqns[1:]
        negated = [[-e for e in eqns[0]]] + eqns[1:]
        for bad in (scaled, negated):
            with pytest.raises(ValueError, match="not in canonical saturated form"):
                AffineSubtorus(torus, IntMatrix(bad, g), s.offset)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(tori))
def test_dual_torus_is_cached_inverse_and_links_back(t):
    hat = t.dual()
    assert hat is t.dual()
    assert hat.dual() is t
    assert matmul(t.metric, hat.metric) == tuple(
        tuple(int(i == j) for j in range(t.dim)) for i in range(t.dim)
    )
    assert hat == Torus(t.dim, hat.metric)


def test_torus_dimension_must_be_an_integer():
    # int() would truncate these to the 2-torus.
    with pytest.raises(ValueError, match="torus dimension 2.5 is not an integer"):
        Torus(2.5)
    with pytest.raises(ValueError, match=r"torus dimension Fraction\(5, 2\) is not an integer"):
        Torus(F(5, 2))
    assert Torus(F(4, 2)) == Torus(2) and type(Torus(2.0).dim) is int
    # Values int() refuses, or would parse from text, are named as well.
    for bad in (None, "2", float("inf"), float("nan")):
        with pytest.raises(ValueError, match="torus dimension .* is not an integer"):
            Torus(bad)
    with pytest.raises(ValueError, match="torus dimension must be positive"):
        Torus(0)


def test_public_constructors_still_reject_bad_data():
    with pytest.raises(ValueError, match="symmetric positive definite"):
        Torus(2, RatMatrix([[1, 2], [2, 1]]))
    with pytest.raises(ValueError, match="metric shape"):
        Torus(2, RatMatrix.identity(3))
    with pytest.raises(ValueError, match="not in canonical saturated form"):
        AffineSubtorus(T2, IntMatrix([[0, 1], [1, 0]]), (F(0), F(0)))


# ---------------------------------------------------------------- directions


def test_direction_basis_and_coordinates():
    s = subtorus_from_equations(T3, [[1, 2, 3]], [0])
    basis = s.direction_basis()
    assert basis.nrows == 2
    for i, row in enumerate(basis.rows):
        coords = s.direction_coordinates(row)
        assert coords == tuple(int(i == j) for j in range(2))
    combo = tuple(3 * a - 2 * b for a, b in zip(basis.rows[0], basis.rows[1]))
    assert s.direction_coordinates(combo) == (3, -2)
    with pytest.raises(ValueError):
        s.direction_coordinates((1, 0, 0))
    # Zero at both pivot columns, yet not a direction.
    with pytest.raises(ValueError, match="not in the direction lattice"):
        s.direction_coordinates((0, 0, 1))


def test_translate():
    s = subtorus_from_equations(T2, [[1, 0]], [F(1, 4)])
    t = s.translate((F(1, 2), F(1, 3)))
    assert t.contains((F(1, 4), F(0)))
    assert s.translate((1, 5)) == s  # lattice shifts act trivially
    assert s.translate((F(1, 2), 0)).translate((F(1, 2), 0)) == s


@pytest.mark.parametrize("rows", [[], [[1, 0, 0]], [[2, 1, 0]], [[1, 2, 3], [0, 1, 4]]])
def test_translate_shares_the_direction_basis(rows):
    s = subtorus_from_equations(Torus(3), IntMatrix(rows, 3), [F(1, 3)] * len(rows))
    t = s.translate((F(1, 5), F(2, 7), 0))
    assert t.direction_basis() is s.direction_basis()
    assert t.direction_basis() == kernel_basis(s.eqns)
    assert t.translate((F(1, 2), 0, F(1, 3))).direction_basis() is s.direction_basis()
    moved = SubtorusLocalSystem(s, (0,) * s.dim).translate((F(1, 4), 0, 0))
    assert moved.support.direction_basis() is s.direction_basis()


# ---------------------------------------------------------------- intersection


def brute_points(s, q):
    return {p for p in rational_grid(s.torus.dim, q) if s.contains(p)}


def test_intersect_transverse_lines():
    s1 = subtorus_from_equations(T2, [[2, -1]], [0])
    s2 = subtorus_from_equations(T2, [[2, 1]], [0])
    comps = intersect(s1, s2)
    assert len(comps) == 4
    assert all(c.dim == 0 for c in comps)
    pts = {c.single_point().coords for c in comps}
    assert pts == {
        (F(0), F(0)),
        (F(1, 4), F(1, 2)),
        (F(1, 2), F(0)),
        (F(3, 4), F(1, 2)),
    }


def test_intersect_parallel_disjoint_and_equal():
    s1 = subtorus_from_equations(T2, [[1, 0]], [0])
    s2 = subtorus_from_equations(T2, [[1, 0]], [F(1, 2)])
    assert intersect(s1, s2) == []
    assert intersect(s1, s1) == [s1]


def test_intersect_with_whole_torus():
    s = subtorus_from_equations(T2, [[3, 5]], [F(1, 7)])
    assert intersect(whole_torus(T2), s) == [s]


def test_intersect_count_equals_det_for_complementary_lines():
    for (p1, q1), (p2, q2) in [((1, 2), (1, -1)), ((2, 3), (1, 1)), ((5, 2), (3, 1))]:
        s1 = subtorus_from_equations(T2, [[q1, -p1]], [F(1, 3)])
        s2 = subtorus_from_equations(T2, [[q2, -p2]], [F(1, 5)])
        comps = intersect(s1, s2)
        det = abs(q1 * (-p2) - (-p1) * q2)
        assert len(comps) == det


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intersect_matches_brute_force_membership(data):
    g = data.draw(st.integers(2, 3))
    torus = Torus(g)
    subs = []
    for _ in range(2):
        m = data.draw(st.integers(1, g - 1))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-2, 2), min_size=g, max_size=g),
                min_size=m,
                max_size=m,
            )
        )
        a = IntMatrix(rows, g)
        if rational_rank(a.rows, g) != m:
            return
        c = [F(data.draw(st.integers(0, 3)), 4) for _ in range(m)]
        subs.append(subtorus_from_equations(torus, a, c))
    s1, s2 = subs
    comps = intersect(s1, s2)
    q = 8
    combined = brute_points(s1, q) & brute_points(s2, q)
    points = [brute_points(c, q) for c in comps]
    assert set().union(*points) == combined
    # Components are pairwise disjoint.
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert not (points[i] & points[j])


def components_one_at_a_time(s1, s2):
    """Components built one canonical form at a time, as a fresh system each.

    Sorted by offset, the order `intersect` promises.
    """
    a = stack(s1.eqns, s2.eqns)
    c = s1.offset + s2.offset
    d, u, _ = snf(a)
    r = sum(1 for i in range(min(d.shape)) if d.rows[i][i])
    cprime = [sum(e * ci for e, ci in zip(row, c)) for row in u.rows]
    if any(x.denominator != 1 for x in cprime[r:]):
        return []
    divisors = [d.rows[i][i] for i in range(r)]
    rows = [[e // di for e in row] for row, di in zip(matmul(u, a), divisors)]
    components = [
        subtorus_from_equations(
            s1.torus, rows, [(x - ti) / di for x, ti, di in zip(cprime, t, divisors)]
        )
        for t in itertools.product(*(range(di) for di in divisors))
    ]
    return sorted(components, key=lambda s: s.offset)


def test_intersect_many_components_match_fresh_canonical_forms():
    # Transverse: 29 points.
    s1 = subtorus_from_equations(T3, [[2, 1, 0], [0, 3, 1]], [F(1, 3), F(-2, 5)])
    s2 = subtorus_from_equations(T3, [[1, -2, 4]], [F(3, 7)])
    points = intersect(s1, s2)
    assert len(points) == 29
    assert points == components_one_at_a_time(s1, s2)
    assert len({p.single_point() for p in points}) == 29
    assert all(s1.contains(p.single_point()) and s2.contains(p.single_point()) for p in points)
    # Four rows of rank 3, consistent: 16 circles.
    t4 = Torus(4)
    s1 = subtorus_from_equations(t4, [[1, 0, 3, -1], [-3, 2, 3, 1]], [F(1, 3), F(1, 5)])
    s2 = subtorus_from_equations(t4, [[4, -2, 0, -2], [1, 2, -1, -3]], [F(2, 15), F(2, 7)])
    circles = intersect(s1, s2)
    assert len(circles) == 16 and all(c.dim == 1 for c in circles)
    assert circles == components_one_at_a_time(s1, s2)
    assert len(set(circles)) == 16
    # The same rows with an inconsistent offset meet nowhere.
    s3 = subtorus_from_equations(t4, [[4, -2, 0, -2], [1, 2, -1, -3]], [F(1, 15), F(2, 7)])
    assert intersect(s1, s3) == [] == components_one_at_a_time(s1, s3)


def test_intersect_cost_follows_the_components_not_the_row_order():
    # One transverse point of a line with large coprime coefficients.  A
    # residue enumeration over the stacked rows as given would try about
    # 10^7 classes when the line comes first.
    p = T2.point((F(1, 7), F(2, 7))).as_subtorus()
    line = subtorus_from_equations(T2, [[10**7, 10**7 + 1]], [F(-3 * 10**7 - 2, 7)])
    with deadline(2):
        assert intersect(line, p) == [p] == intersect(p, line)
        assert intersect(line, p.translate((F(1, 3), 0))) == []


def test_library_paths_never_reach_snf(monkeypatch):
    def forbidden(*args):
        raise AssertionError("snf called")

    monkeypatch.setattr(torusfm.exact_linalg, "snf", forbidden)
    monkeypatch.setattr(torusfm.torus, "snf", forbidden, raising=False)
    corpus = [
        (T2, [[2, -1]]),
        (T3, [[2, 1, 0], [0, 3, 1]]),
        (Torus(4), [[1, 0, 3, -1], [-3, 2, 3, 1]]),
        *((Torus(len(rows[0])), rows) for rows in HARD_SYSTEMS.values()),
    ]
    for torus, rows in corpus:
        s = subtorus_from_equations(torus, rows, [F(k + 1, 7) for k in range(len(rows))])
        system = SubtorusLocalSystem(s, [F(1, k + 2) for k in range(s.dim)])
        assert transform(transform(system).system).system == system
        directions = s.direction_basis()
        for k, row in enumerate(directions.rows):
            assert s.direction_coordinates(row) == tuple(int(i == k) for i in range(s.dim))
        assert restrict_system(system, s) == system
        # Fixing the coordinates at the pivots of the Hermite direction basis
        # cuts a subtorus transverse to s, which meets it in points.
        pivots = [next(j for j, e in enumerate(row) if e) for row in directions.rows]
        fixed = [[int(j == p) for j in range(torus.dim)] for p in pivots]
        other = subtorus_from_equations(torus, fixed, [F(1, 3)] * len(fixed))
        points = intersect(s, other)
        assert points and all(p.dim == 0 for p in points)
        assert all(s.contains(p.single_point()) and other.contains(p.single_point())
                   for p in points)
        if directions.nrows:
            cut = subtorus_from_equations(torus, directions.rows[:1], [F(2, 5)])
            for component in intersect(s, cut):
                assert restrict_system(system, component).support == component


def test_intersect_requires_same_torus():
    with pytest.raises(ValueError):
        intersect(whole_torus(T2), whole_torus(T3))
