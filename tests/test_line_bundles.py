"""Factors of automorphy, the universal pair, gauges and the Poincare pairing."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import rational_rank

from torusfm.exact_linalg import IntMatrix, RatMatrix
from torusfm.line_bundles import (
    AppellHumbertPair,
    FactorOfAutomorphy,
    gauge_transform,
    pairing_vanishes,
    poincare_gauge,
    poincare_pair,
    restrict_factor,
)
from torusfm.torus import Torus, dual_support, is_normal_to, subtorus_from_equations

F = Fraction


def alternating(draw, g):
    entries = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            e = draw(st.integers(-3, 3))
            entries[i][j] = e
            entries[j][i] = -e
    return IntMatrix(entries, g)


def random_pair(draw, g):
    chi = tuple(F(draw(st.integers(-4, 4)), 4) % 1 for _ in range(g))
    return AppellHumbertPair(alternating(draw, g), chi)


int_vec = lambda g: st.lists(st.integers(-4, 4), min_size=g, max_size=g)
rat_vec = lambda g: st.lists(
    st.integers(-8, 8).map(lambda n: F(n, 6)), min_size=g, max_size=g
)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.data())
def test_semicharacter_law_is_exact(g, data):
    # The semicharacter is the factor at x = 0.
    p = random_pair(data.draw, g)
    f = p.factor()
    zero = (0,) * g
    lam = data.draw(int_vec(g))
    mu = data.draw(int_vec(g))
    both = [a + b for a, b in zip(lam, mu)]
    lhs = f.phase_turns(zero, both)
    rhs = (
        f.phase_turns(zero, lam) + f.phase_turns(zero, mu) + F(p.pairing_value(lam, mu), 2)
    ) % 1
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.data())
def test_cocycle_identity_exact(g, data):
    f = random_pair(data.draw, g).factor()
    x = data.draw(rat_vec(g))
    lam = data.draw(int_vec(g))
    mu = data.draw(int_vec(g))
    shifted = [xi + li for xi, li in zip(x, lam)]
    both = [a + b for a, b in zip(lam, mu)]
    lhs = (f.phase_turns(shifted, mu) + f.phase_turns(x, lam)) % 1
    assert lhs == f.phase_turns(x, both)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_cocycle_survives_gauges(g, data):
    f = random_pair(data.draw, g).factor()
    s_rows = [[data.draw(st.integers(-2, 2)) for _ in range(g)] for _ in range(g)]
    f = gauge_transform(f, IntMatrix(s_rows, g))
    x = data.draw(rat_vec(g))
    lam = data.draw(int_vec(g))
    mu = data.draw(int_vec(g))
    shifted = [xi + li for xi, li in zip(x, lam)]
    both = [a + b for a, b in zip(lam, mu)]
    assert (f.phase_turns(shifted, mu) + f.phase_turns(x, lam)) % 1 == f.phase_turns(
        x, both
    )


def test_factor_rejects_broken_cocycle_data():
    with pytest.raises(ValueError, match="cocycle"):
        FactorOfAutomorphy(
            1, IntMatrix([[0]]), RatMatrix([[F(1, 2)]]), (F(0),)
        )
    with pytest.raises(ValueError, match="alternating"):
        AppellHumbertPair(IntMatrix([[0, 1], [1, 0]]), (F(0), F(0)))


# ---------------------------------------------------------------- universal pair


def test_poincare_pair_shape():
    p = poincare_pair(2)
    assert p.pairing.rows == (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    assert all(t == 0 for t in p.chi_log)
    # Half-integer phases of the semicharacter, the factor at x = 0, appear
    # only through the cross block.
    f = p.factor()
    assert f.phase_turns((0, 0, 0, 0), (1, 1, 1, 1)) == F(0)
    assert f.phase_turns((0, 0, 0, 0), (1, 0, 1, 0)) == F(1, 2)


def test_poincare_gauges_reach_the_two_standard_forms():
    g = 2
    f = poincare_pair(g).factor()
    plus = gauge_transform(f, poincare_gauge(g, 1))
    # Constant in the first block: phase 2 pi i w.m picks out only the first
    # lattice block against the second coordinate block.
    expected_plus = FactorOfAutomorphy(
        2 * g,
        IntMatrix.zero(2 * g, 2 * g),
        RatMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
        tuple(F(0) for _ in range(2 * g)),
    )
    assert plus == expected_plus
    minus = gauge_transform(f, poincare_gauge(g, -1))
    expected_minus = FactorOfAutomorphy(
        2 * g,
        IntMatrix.zero(2 * g, 2 * g),
        RatMatrix([[0, 0, -1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]]),
        tuple(F(0) for _ in range(2 * g)),
    )
    # The minus gauge leaves an even upper part, so the two agree as
    # functions on cover x lattice, though not as data.
    assert minus != expected_minus
    points = [(0, 0, 0, 0), (F(1, 3), F(1, 5), F(2, 7), F(1, 2))]
    for lam in itertools.product((-1, 0, 1, 2), repeat=2 * g):
        for x in points:
            assert minus.phase_turns(x, lam) == expected_minus.phase_turns(x, lam)


def test_poincare_restriction_is_the_dual_point_holonomy():
    # Pinning the first factor to y in the w-constant gauge leaves the flat
    # bundle with holonomy -y on the dual torus.
    g = 2
    y = (F(1, 3), F(2, 5))
    f = gauge_transform(poincare_pair(g).factor(), quadratic=poincare_gauge(g, -1))
    restricted = restrict_factor(f, {0: y[0], 1: y[1]})
    assert restricted.is_flat()
    assert restricted.holonomy() == (F(2, 3), F(3, 5))


def test_flat_factor_holonomy_round_trip():
    f = FactorOfAutomorphy(2, IntMatrix.zero(2, 2), RatMatrix([[0, 0], [0, 0]]), (F(1, 3), F(1, 2)))
    assert f.is_flat()
    assert f.holonomy() == (F(1, 3), F(1, 2))
    assert f.phase_turns((0, 0), (1, 0)) == F(1, 3)
    assert f.phase_turns((F(1, 7), F(2, 7)), (0, 1)) == F(1, 2)  # independent of x


# ---------------------------------------------------------------- curvature


def test_poincare_curvature_block_structure():
    # The Chern form of the Poincare bundle is its pairing: zero on each
    # factor, the identity from the dual factor to the first.
    g = 3
    p = poincare_pair(g)

    def unit(a):
        return tuple(int(a == b) for b in range(2 * g))

    for i in range(g):
        for j in range(g):
            assert p.pairing_value(unit(i), unit(j)) == 0
            assert p.pairing_value(unit(g + i), unit(g + j)) == 0
            assert p.pairing_value(unit(g + i), unit(j)) == int(i == j)


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
