"""Absolute transform: skyscrapers, flat systems, subtorus systems, Hom spaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import check_poincare, gcd_of_minors, rational_rank

import torusfm
from torusfm.exact_linalg import IntMatrix
from torusfm.fm_absolute import (
    SubtorusLocalSystem,
    full_torus_system,
    morphism_space_dim,
    restrict_system,
    skyscraper,
    transform,
)
from torusfm.torus import Torus, intersect, subtorus_from_equations, whole_torus

F = Fraction
T2 = Torus(2)
T3 = Torus(3)


def line(torus, row, c, xi):
    return SubtorusLocalSystem(subtorus_from_equations(torus, [row], [c]), (xi,))


# ---------------------------------------------------------------- special fibres


def test_skyscraper_becomes_flat_system():
    x = (F(1, 3), F(2, 5))
    res = transform(skyscraper(T2, x, rank=3))
    assert res.wit_index == 0
    out = res.system
    assert out.support == whole_torus(T2.dual())
    assert out.holonomy == (F(2, 3), F(3, 5))  # phases of minus the point
    assert out.rank == 3


def test_flat_system_becomes_skyscraper():
    xi = (F(1, 4), F(2, 3))
    res = transform(full_torus_system(T2, xi))
    assert res.wit_index == 2
    out = res.system
    assert out.is_skyscraper()
    assert out.point().coords == (F(3, 4), F(1, 3))  # located at minus the holonomy


def test_line_system_swaps_data():
    # Support q*y1 - p*y2 + c = 0 has direction (p, q); the transform's
    # support is cut out by that direction with the holonomy as offset.
    p, q = 2, 3
    sys_in = line(T2, [q, -p], F(1, 5), F(3, 7))
    res = transform(sys_in)
    assert res.wit_index == 1
    out = res.system
    assert out.support.eqns == IntMatrix([[p, q]])
    assert out.support.offset == (F(3, 7),)
    assert out.holonomy == (F(1, 5),)
    assert out.support.torus == T2.dual()


def test_transform_involution_explicit():
    sys_in = line(T2, [3, -2], F(1, 5), F(3, 7))
    back = torusfm.inverse_transform_absolute(transform(sys_in).system).system
    assert back.support.torus == T2  # metric of the double dual returns too
    assert back == sys_in


def test_inverse_is_the_transform_itself():
    assert torusfm.inverse_transform_absolute is torusfm.transform


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_transform_involution_random(data):
    g = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, g))
    rows = [[data.draw(st.integers(-4, 4)) for _ in range(g)] for _ in range(m)]
    a = IntMatrix(rows, g)
    if rational_rank(rows, g) != m:
        return
    c = [F(data.draw(st.integers(0, 11)), 12) for _ in range(m)]
    s = subtorus_from_equations(Torus(g), a, c)
    xi = [F(data.draw(st.integers(0, 11)), 12) for _ in range(s.dim)]
    sys_in = SubtorusLocalSystem(s, xi, rank=data.draw(st.integers(1, 3)))
    res = transform(sys_in)
    check_poincare(sys_in, res.system, random.Random(0))
    assert res.wit_index == s.dim
    assert res.system.support.dim == g - s.dim
    back = transform(res.system)
    assert back.system == sys_in
    assert back.wit_index == g - s.dim


def test_translation_becomes_holonomy_twist():
    sys_in = line(T2, [3, -2], F(1, 5), F(3, 7))
    t = (F(1, 4), F(1, 6))
    moved = transform(sys_in.translate(t)).system
    fixed = transform(sys_in).system
    assert moved.support == fixed.support
    shift = sys_in.support.eqns.mul_vector(t)
    assert moved.holonomy == tuple((h - d) % 1 for h, d in zip(fixed.holonomy, shift))


def test_translation_keeps_the_reduced_holonomy():
    t3 = Torus(3)
    s = subtorus_from_equations(t3, [[1, 2, 3]], [F(1, 5)])
    t = (F(1, 7), F(-2, 3), F(5, 4))
    sys_in = SubtorusLocalSystem(s, (F(1, 3), F(3, 4)), rank=2)
    moved = sys_in.translate(t)
    assert moved.holonomy is sys_in.holonomy
    shifted = F(1, 5) - sum(a * x for a, x in zip((1, 2, 3), t))
    fresh = SubtorusLocalSystem(subtorus_from_equations(t3, [[1, 2, 3]], [shifted]), sys_in.holonomy, rank=2)
    assert moved == fresh
    assert transform(moved) == transform(fresh)


def test_holonomy_twist_becomes_translation():
    sys_in = line(T2, [3, -2], F(1, 5), F(3, 7))
    delta = (F(1, 3),)
    twisted = transform(sys_in.twist(delta)).system
    plain = transform(sys_in).system
    assert twisted.support.eqns == plain.support.eqns
    assert twisted.support.offset == ((F(3, 7) + F(1, 3)) % 1,)
    assert twisted.holonomy == plain.holonomy


# ---------------------------------------------------------------- restriction


def test_restrict_system_phases():
    plane = SubtorusLocalSystem(
        subtorus_from_equations(T3, [[1, 0, 0]], [0]), (F(1, 3), F(1, 7))
    )
    axis = subtorus_from_equations(T3, [[1, 0, 0], [0, 1, 0]], [0, 0])
    restricted = restrict_system(plane, axis)
    # The axis direction (0,0,1) is the second direction of the plane.
    assert restricted.holonomy == (F(1, 7),)
    outside = subtorus_from_equations(T3, [[0, 0, 1]], [0])
    with pytest.raises(ValueError, match="not contained"):
        restrict_system(plane, outside)


# ---------------------------------------------------------------- Hom spaces


def test_hom_same_support():
    s = subtorus_from_equations(T2, [[2, -1]], [F(1, 3)])
    a = SubtorusLocalSystem(s, (F(1, 5),), rank=2)
    b = SubtorusLocalSystem(s, (F(1, 5),), rank=3)
    assert morphism_space_dim(a, b) == 6
    c = SubtorusLocalSystem(s, (F(2, 5),), rank=3)
    assert morphism_space_dim(a, c) == 0


def test_hom_transverse_points():
    a = line(T2, [2, -1], 0, F(1, 3))
    b = line(T2, [2, 1], 0, F(1, 5))
    # Four transverse intersection points, no holonomy conditions at points.
    assert morphism_space_dim(a, b) == 4


def test_hom_parallel_disjoint():
    a = line(T2, [1, 0], 0, 0)
    b = line(T2, [1, 0], F(1, 2), 0)
    assert morphism_space_dim(a, b) == 0


def test_hom_positive_dimensional_overlap():
    s1 = SubtorusLocalSystem(
        subtorus_from_equations(T3, [[1, 0, 0]], [0]), (F(1, 3), F(1, 7))
    )
    s2_match = SubtorusLocalSystem(
        subtorus_from_equations(T3, [[0, 1, 0]], [0]), (F(2, 5), F(1, 7))
    )
    s2_differ = SubtorusLocalSystem(
        subtorus_from_equations(T3, [[0, 1, 0]], [0]), (F(2, 5), F(2, 7))
    )
    # The intersection line only sees the third-coordinate phase.
    assert morphism_space_dim(s1, s2_match) == 1
    assert morphism_space_dim(s1, s2_differ) == 0


def test_hom_skyscraper_against_line():
    sky_on = skyscraper(T2, (F(1, 2), F(1, 4)))
    sky_off = skyscraper(T2, (F(1, 2), F(1, 3)))
    sys_line = line(T2, [1, 2], F(0), F(1, 7))  # y1 + 2*y2 = 0
    assert morphism_space_dim(sky_on, sys_line) == 1
    assert morphism_space_dim(sky_off, sys_line) == 0


def random_system(rng, torus):
    """A system on a random subtorus; phases and offsets from small sets, so Hom is often nonzero."""
    g = torus.dim
    codim = rng.randint(0, g)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(codim)]
        if rational_rank(rows, g) == codim:
            break
    offsets = [F(rng.randint(0, 1), rng.choice((1, 2))) for _ in rows]
    support = subtorus_from_equations(torus, rows, offsets)
    holonomy = [F(rng.randint(0, 2), rng.choice((2, 3))) for _ in range(support.dim)]
    return SubtorusLocalSystem(support, holonomy, rng.randint(1, 2))


def random_pair(seed):
    rng = random.Random(seed)
    torus = Torus(rng.randint(1, 4))
    return random_system(rng, torus), random_system(rng, torus)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32).map(random_pair))
@example((line(T2, [2, -1], 0, F(1, 3)), line(T2, [2, 1], 0, F(1, 5))))
@example((line(T2, [1, 0], 0, F(1, 3)), line(T2, [1, 0], 0, F(1, 3))))
@example((skyscraper(T2, (F(1, 3), F(1, 5))), line(T2, [3, 1], F(1, 7), F(1, 2))))
@example((full_torus_system(T2, (F(1, 4), F(1, 5))), line(T2, [2, 3], F(1, 7), F(1, 2))))
def test_transform_preserves_hom_dimensions(pair):
    # The transform is an equivalence on these systems (Sky ~ Loc), so Hom
    # dimensions survive it.
    a, b = pair
    ta, tb = transform(a).system, transform(b).system
    assert morphism_space_dim(a, b) == morphism_space_dim(ta, tb)
    # Hom sums over the components of the support intersection.  When the
    # stacked equations A have full row rank r, {A y + c in Z^r} has
    # [Z^r : A Z^g] components, the gcd of the r x r minors of A.
    stacked = a.support.eqns.rows + b.support.eqns.rows
    g = a.torus.dim
    if rational_rank(stacked, g) == len(stacked):
        count = gcd_of_minors(IntMatrix(stacked, g), len(stacked))
        assert len(intersect(a.support, b.support)) == count


def test_rank_validation():
    with pytest.raises(ValueError, match="rank"):
        SubtorusLocalSystem(whole_torus(T2), (0, 0), rank=0)
    with pytest.raises(ValueError, match="holonomy dimension mismatch"):
        SubtorusLocalSystem(whole_torus(T2), (0, 0, 0))


def test_rank_must_be_an_integer():
    # int() would truncate these to rank 1 and 2.
    with pytest.raises(ValueError, match="rank 1.9 is not an integer"):
        SubtorusLocalSystem(whole_torus(T2), (0, 0), rank=1.9)
    with pytest.raises(ValueError, match=r"rank Fraction\(3, 2\) is not an integer"):
        full_torus_system(T2, (0, 0), rank=F(3, 2))
    assert SubtorusLocalSystem(whole_torus(T2), (0, 0), rank=F(4, 2)).rank == 2


def test_skyscraper_rank_must_be_an_integer():
    with pytest.raises(ValueError, match="rank 2.7 is not an integer"):
        skyscraper(T2, (0, 0), rank=2.7)
    assert skyscraper(T2, (0, 0), rank=3.0) == skyscraper(T2, (0, 0), rank=3)
