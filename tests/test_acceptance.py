"""Acceptance checklist: one test per shipped guarantee, run with -v.

Every test prints a one-line summary with case count and runtime after
its assertions pass; stated time budgets are asserted, not just
reported.  Exactness claims are checked in exact arithmetic or through
proven verdicts, never by float comparison alone, and every derived
expectation is computed by an independent oracle before the library
result is inspected.
"""

import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction

from instances import (
    constant_instance,
    gauged_instance,
    polynomial_instance,
)
from oracles import (
    check_poincare,
    echelon_z_span,
    fd_partial,
    gcd_of_minors,
    gcd_of_minors_with_row,
    is_canonical_hnf,
    matmul,
    naive_det,
    rational_rank,
    row_space,
)

from torusfm.exact_linalg import IntMatrix, hnf, kernel_basis, saturate, snf
from torusfm.expr import PI, ZERO, diff, eval_at, is_zero, num, var
from torusfm.fm_absolute import SubtorusLocalSystem
from torusfm.fm_absolute import transform as absolute_transform
from torusfm.fm_relative import (
    RelativeSupport,
    SectionSupport,
    TransformedBundle,
    check_C1_lagrangian,
    check_C2_C3,
    check_D_conditions,
    check_flat,
    curvature_hodge,
    dual_input_from_bundle,
    fibre_of_transform,
    fibre_system,
    inverse_transform,
    transform_nontransversal,
)
from torusfm.torus import Torus, is_normal_to, subtorus_from_equations, whole_torus

F = Fraction

GRID_COORDS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))

MIXED_SHAPES = [(g, k) for g in range(2, 5) for k in range(1, g)]


def _finish(label, cases, t0, limit=None):
    dt = time.monotonic() - t0
    if limit is not None:
        assert dt < limit, f"{label}: {dt:.2f}s exceeds the {limit:.0f}s budget"
    print(f"PASS {label}: {cases} cases in {dt:.2f}s")


def _rat(rng, span=3):
    return F(rng.randint(-span, span), rng.choice((1, 2, 3)))


def _nonzero_rat(rng, span=3):
    while True:
        c = _rat(rng, span)
        if c:
            return c


def _proven_zero(e):
    v = is_zero(e)
    assert v.kind == "proven_zero", v


def _egcd(a, b):
    if b == 0:
        return 1, 0
    u, v = _egcd(b, a % b)
    return v, u - (a // b) * v


# ------------------------------------------------------- absolute transform


def test_01_grid_point_and_flat_systems_round_trip_exactly():
    # The transform swaps skyscrapers and flat systems, and the grid is
    # closed under it (each coordinate set is stable under x -> 1-x), so
    # a double transform on every grid object exercises both
    # composition orders on every skyscraper/flat pair.
    probe = random.Random(1)
    t0 = time.monotonic()
    cases = 0
    for g in (1, 2, 3):
        torus = Torus(g)
        for coords in itertools.product(GRID_COORDS, repeat=g):
            point_sys = SubtorusLocalSystem(torus.point(coords).as_subtorus(), ())
            flat_sys = SubtorusLocalSystem(whole_torus(torus), coords)
            for sys_in, wit in ((point_sys, 0), (flat_sys, g)):
                res = absolute_transform(sys_in)
                assert res.wit_index == wit
                check_poincare(sys_in, res.system, probe)
                back = absolute_transform(res.system)
                assert back.system == sys_in
                assert back.wit_index == g - wit
                cases += 1
    _finish("grid round trips", cases, t0, limit=10.0)


def test_02_random_subtorus_systems_dualize_and_return():
    rng = random.Random(2001)
    probe = random.Random(2002)  # oracle points, apart from the corpus draws
    t0 = time.monotonic()
    for case in range(500):
        g = rng.randint(1, 6)
        torus = Torus(g)
        codim = rng.randint(0, g)
        while True:
            rows = [[rng.randint(-5, 5) for _ in range(g)] for _ in range(codim)]
            if rational_rank(rows, g) == codim:
                break
        offsets = [F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5))) for _ in rows]
        support = subtorus_from_equations(torus, rows, offsets)
        k = support.dim
        assert k == g - codim
        trivial = case % 5 == 0
        holonomy = tuple(
            F(0) if trivial else F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5)))
            for _ in range(k)
        )
        sys_in = SubtorusLocalSystem(support, holonomy)

        res = absolute_transform(sys_in)
        dual = res.system.support
        check_poincare(sys_in, res.system, probe)
        assert dual.dim == g - k
        assert is_normal_to(support, dual)
        assert absolute_transform(res.system).system == sys_in
        if trivial:
            assert dual.contains((F(0),) * g)
    _finish("random subtorus dualities", 500, t0, limit=30.0)


def test_03_coprime_lines_transform_to_their_annihilator_lines():
    probe = random.Random(3)
    t0 = time.monotonic()
    torus = Torus(2)
    cases = 0
    pairs = [
        (p, q)
        for p in range(1, 8)
        for q in range(1, 8)
        if math.gcd(p, q) == 1
    ]
    for p, q in pairs:
        for b, xi in ((F(1, 5), F(3, 7)), (F(0), F(0)), (F(3, 4), F(1, 6))):
            line = subtorus_from_equations(torus, [[q, -p]], [b])
            sys_in = SubtorusLocalSystem(line, (xi,))
            res = absolute_transform(sys_in)
            dual = res.system.support
            check_poincare(sys_in, res.system, probe)

            # Closed-form expectation: the annihilator line with the
            # input holonomy as offset, carrying the input offset back
            # as holonomy.
            assert dual == subtorus_from_equations(torus.dual(), [[p, q]], [xi])
            assert res.system.holonomy == (line.offset[0],)

            # Brute force, independent of the representation: the dual
            # direction annihilates the input direction, and together
            # they fill the plane.
            for v in line.direction_basis().rows:
                for w in dual.direction_basis().rows:
                    assert sum(a * c for a, c in zip(v, w)) == 0
            assert line.direction_basis().nrows + dual.direction_basis().nrows == 2

            # Fibrewise membership: points with p*w1 + q*w2 + xi integral
            # lie on the dual line, a transverse nudge does not.
            u, v = _egcd(p, q)
            assert u * p + v * q == 1
            w0 = (-u * xi, -v * xi)
            for t in (F(0), F(1, 3), F(5, 7), F(-2, 5)):
                assert dual.contains((w0[0] + t * q, w0[1] - t * p))
            assert not dual.contains((w0[0] + F(1, 143), w0[1]))

            assert absolute_transform(res.system).system == sys_in
            cases += 1
    _finish("coprime annihilator lines", cases, t0)


# -------------------------------------------------------- section curvature


def _potential(rng, g, max_degree=4):
    e = ZERO
    for _ in range(rng.randint(2, 5)):
        c = _rat(rng)
        if not c:
            continue
        term = num(c)
        for _ in range(rng.randint(2, max_degree)):
            term = term * var(rng.randint(1, g))
        e = e + term
    return e


def test_04_section_curvature_types_match_the_jacobian():
    rng = random.Random(2004)
    t0 = time.monotonic()

    for _ in range(100):
        g = rng.randint(1, 4)
        pot = _potential(rng, g)
        eps = tuple(diff(pot, j) + num(_rat(rng)) for j in range(1, g + 1))
        f20, f11, f02 = curvature_hodge(SectionSupport(eps))
        for a in range(g):
            for b in range(g):
                _proven_zero(f20[a][b])
                _proven_zero(f02[a][b])
                _proven_zero(f11[a][b] - PI * diff(eps[a], b + 1))

    two_pi = 2 * math.pi
    for _ in range(100):
        g = rng.randint(2, 4)
        pot = _potential(rng, g)
        eps = [diff(pot, j) + num(_rat(rng)) for j in range(1, g + 1)]
        j0 = rng.randint(1, g)
        m0 = rng.choice([m for m in range(1, g + 1) if m != j0])
        eps[j0 - 1] = eps[j0 - 1] + num(_nonzero_rat(rng)) * var(m0)
        eps = tuple(eps)

        # Oracle first: central differences of the turn row at a sample
        # point; the Hodge grids must reassemble to them.
        turns = tuple(-e for e in eps)
        p = tuple(rng.uniform(0.1, 0.9) for _ in range(g))
        want = [
            [two_pi * fd_partial(turns[b], p, a + 1) for b in range(g)]
            for a in range(g)
        ]

        f20, f11, f02 = curvature_hodge(SectionSupport(eps))
        v = is_zero(f20[j0 - 1][m0 - 1])
        assert v.kind == "proven_nonzero", v
        for a in range(g):
            for b in range(g):
                got = (
                    eval_at(f20[a][b], p)
                    - eval_at(f02[a][b], p)
                    - eval_at(f11[a][b], p)
                    - eval_at(f11[b][a], p)
                )
                assert abs(got - want[a][b]) <= 1e-6
    _finish("section curvature types", 200, t0, limit=60.0)


# ------------------------------------------------------- relative transform


def _polynomial_case(rng, want_varying_slopes, tries=400):
    for _ in range(tries):
        g, k = rng.choice(MIXED_SHAPES)
        s, system = polynomial_instance(g, k, rng)
        c2, c3 = check_C2_C3(s)
        if not c2.holds:
            continue
        if want_varying_slopes and c3.holds:
            continue
        assert check_C1_lagrangian(s).holds
        return s, system
    raise AssertionError("no usable polynomial instance drawn")


def test_05_holomorphic_verdict_tracks_constant_slopes():
    rng = random.Random(2005)
    t0 = time.monotonic()

    for _ in range(100):
        g = rng.randint(2, 4)
        k = rng.randint(1, g - 1)
        s, system = constant_instance(g, k, rng)
        _, c3 = check_C2_C3(s)
        assert c3.holds and c3.verdict.kind == "proven_zero"
        bundle = transform_nontransversal(s, system)
        assert bundle.holomorphic.kind == "proven_zero", bundle.holomorphic

        # Flip a single slope entry to a non-constant expression: the
        # constancy verdict must flip to a proven failure naming it.
        j0 = rng.randrange(k)
        m0 = rng.randrange(g - k)
        bump = num(_nonzero_rat(rng)) * var(rng.randint(1, k))
        a2 = tuple(
            tuple(
                e + bump if (j, m) == (j0, m0) else e
                for m, e in enumerate(row)
            )
            for j, row in enumerate(s.a)
        )
        flipped = RelativeSupport(g, k, s.zeta, a2, s.chi)
        _, c3_flipped = check_C2_C3(flipped)
        assert not c3_flipped.holds
        assert c3_flipped.verdict.kind == "proven_nonzero", c3_flipped.verdict
        assert f"a[{j0 + 1}][{m0 + 1}]" in c3_flipped.failures

    # Supports that stay Lagrangian with genuinely varying slopes reach
    # the transform and come out with a proven non-holomorphic verdict.
    for _ in range(25):
        s, system = _polynomial_case(rng, want_varying_slopes=True)
        bundle = transform_nontransversal(s, system)
        assert bundle.holomorphic.kind == "proven_nonzero", bundle.holomorphic
    _finish("holomorphicity against slope constancy", 125, t0)


def test_06_dual_slopes_are_the_jacobian_of_the_base_map():
    rng = random.Random(2006)
    t0 = time.monotonic()
    bundles = []
    for _ in range(12):
        g, k = rng.choice(MIXED_SHAPES)
        bundles.append(transform_nontransversal(*constant_instance(g, k, rng)))
    for _ in range(12):
        g, k = rng.choice(MIXED_SHAPES)
        bundles.append(transform_nontransversal(*gauged_instance(g, k, rng)))
    for _ in range(12):
        s, system = _polynomial_case(rng, want_varying_slopes=False)
        bundles.append(transform_nontransversal(s, system))

    entries = 0
    for b in bundles:
        assert len(b.zeta) == b.g - b.k
        for i in range(b.g - b.k):
            assert len(b.gamma_tilde[i]) == b.k
            for j in range(b.k):
                _proven_zero(b.gamma_tilde[i][j] - diff(b.zeta[i], j + 1))
                entries += 1
    _finish("dual slope rows", entries, t0)


def test_07_relative_outputs_slice_to_absolute_transforms():
    rng = random.Random(2007)
    t0 = time.monotonic()
    for case in range(50):
        which = case % 3
        if which == 0:
            g, k = rng.choice(MIXED_SHAPES)
            s, system = constant_instance(g, k, rng)
        elif which == 1:
            g, k = rng.choice(MIXED_SHAPES)
            s, system = gauged_instance(g, k, rng)
        else:
            s, system = _polynomial_case(rng, want_varying_slopes=False)
        bundle = transform_nontransversal(s, system)
        for _ in range(5):
            base = tuple(
                F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(s.k)
            )
            sliced_in = fibre_system(s, system, base)
            res = absolute_transform(sliced_in)
            sliced_out = fibre_of_transform(bundle, base)
            assert sliced_out == res.system
            assert res.wit_index == bundle.wit_index
            assert is_normal_to(sliced_in.support, sliced_out.support)
    _finish("fibrewise slices", 250, t0)


def test_08_constant_coefficient_round_trips_are_exact():
    rng = random.Random(2008)
    t0 = time.monotonic()
    for _ in range(200):
        g = rng.randint(2, 4)
        k = rng.randint(1, g - 1)
        s, system = constant_instance(g, k, rng)
        bundle = transform_nontransversal(s, system)
        inv = inverse_transform(dual_input_from_bundle(bundle))

        assert inv.wit_index == k
        assert inv.support.zeta == s.zeta
        for row_in, row_out in zip(s.a, inv.support.a):
            for e_in, e_out in zip(row_in, row_out):
                _proven_zero(e_in - e_out)
        for e_in, e_out in zip(s.chi, inv.support.chi):
            _proven_zero(e_in - e_out)
        assert inv.system.xi == system.xi
        for e_in, e_out in zip(system.alpha, inv.system.alpha):
            _proven_zero(e_in - e_out)

        flat = check_flat(inv.system.alpha)
        assert flat.holds and flat.verdict.proven
    _finish("constant-coefficient round trips", 200, t0, limit=60.0)


# ------------------------------------------------------- condition checkers


def test_09_failed_conditions_are_proven_not_numerical():
    rng = random.Random(2009)
    t0 = time.monotonic()

    # Non-closed connections: a gradient row plus one cross-variable
    # linear bump has a constant nonzero exterior derivative, so the
    # closure check must fail with a proven verdict, never a numerical
    # one, and must name the offending coefficient pair.
    for _ in range(25):
        g = rng.randint(3, 4)
        k = rng.randint(2, g - 1)
        pot = _potential(rng, k, max_degree=3)
        alpha = [diff(pot, j) + num(_rat(rng)) for j in range(1, k + 1)]
        j0 = rng.randint(1, k)
        m0 = rng.choice([m for m in range(1, k + 1) if m != j0])
        alpha[m0 - 1] = alpha[m0 - 1] + num(_nonzero_rat(rng)) * var(j0)
        zeta = []
        for _ in range(g - k):
            e = num(_rat(rng))
            for j in range(1, k + 1):
                e = e + num(_rat(rng)) * var(j)
            zeta.append(e)
        zeta = tuple(zeta)
        paired = TransformedBundle(
            g,
            k,
            zeta,
            tuple(tuple(diff(z, j) for j in range(1, k + 1)) for z in zeta),
            tuple(num(_rat(rng)) for _ in range(g - k)),
            tuple(alpha),
            tuple(_rat(rng) for _ in range(k)),
        )
        d1, d2, _ = check_D_conditions(paired)
        assert d1.holds
        assert not d2.holds
        assert d2.verdict.kind == "proven_nonzero", d2.verdict
        lo, hi = sorted((j0, m0))
        assert f"dalpha[{lo}][{hi}]" in d2.failures

    # Non-Lagrangian supports: bumping one fibre offset by a linear
    # term in a chart variable leaves the angle block untouched and
    # puts a constant nonzero coefficient on one base 2-form, again a
    # proven failure with the exact label.
    for case in range(25):
        g, k = (3, 2) if case % 2 == 0 else (4, 3)
        m_free = g - k
        s, _ = constant_instance(g, k, rng)
        jp0 = rng.randint(1, k - m_free)
        c0 = m_free + jp0
        j0 = rng.choice([j for j in range(1, k + 1) if j != c0])
        chi2 = list(s.chi)
        chi2[jp0 - 1] = chi2[jp0 - 1] + num(_nonzero_rat(rng)) * var(j0)
        bent = RelativeSupport(g, k, s.zeta, s.a, tuple(chi2))
        rep = check_C1_lagrangian(bent)
        assert not rep.holds
        assert rep.verdict.kind == "proven_nonzero", rep.verdict
        lo, hi = sorted((j0, c0))
        assert f"dx{lo}^dx{hi}" in rep.failures
    _finish("proven condition failures", 50, t0)


# ---------------------------------------------------------- integer algebra


def _in_lattice(vec, m, oracle):
    # Membership of vec in the row lattice of m, with possibly dependent
    # rows, so a rational particular solve cannot decide it.  Adjoining
    # a vector of the rational row space keeps the rank; it keeps the gcd
    # of maximal minors, oracle.minors_gcd, exactly when the lattice is
    # unchanged, since for nested lattices of equal rank the index is the
    # ratio of those gcds.  That gcd divides minors_gcd, so it is 1 when
    # minors_gcd is; otherwise the minors with vec expand along it into
    # minors of m, which m's table already holds.
    if oracle.rank == 0:
        return all(x == 0 for x in vec)
    if not oracle.space(vec):
        return False
    return oracle.minors_gcd == 1 or gcd_of_minors_with_row(m, vec, oracle.rank) == oracle.minors_gcd


class _Oracle:
    """The oracle's data for one integer matrix, computed once and shared by the four checks.

    The rank and the rational row space come from one reduction, and the
    gcd of the maximal minors is read once (`gcd_of_minors` memoises the
    other sizes).
    """

    def __init__(self, m):
        self.rank, self.space = row_space(m.rows, m.ncols)
        self.minors_gcd = gcd_of_minors(m, self.rank)


@functools.cache
def _box_solutions(row, box):
    """The vectors of the box [-box, box]^n that row annihilates, n = len(row), by enumeration."""
    return frozenset(v for v in itertools.product(range(-box, box + 1), repeat=len(row))
                     if not sum(map(operator.mul, row, v)))


def _hnf_agrees(m, oracle):
    h, u = hnf(m)
    assert is_canonical_hnf(h)
    assert u.shape == (m.nrows, m.nrows)
    assert abs(naive_det(u)) == 1
    assert matmul(u, m) == h.rows
    in_span = echelon_z_span(h)
    for row in m.rows:
        assert in_span(row)
    for row in h.rows:
        if any(row):
            assert _in_lattice(row, m, oracle)


def _snf_agrees(m, oracle):
    rank = oracle.rank
    d, u, v = snf(m)
    assert abs(naive_det(u)) == 1
    assert abs(naive_det(v)) == 1
    assert matmul(matmul(u, m), v) == d.rows
    diag = [d.rows[i][i] for i in range(min(d.shape))]
    assert all(
        d.rows[i][j] == 0
        for i in range(d.nrows)
        for j in range(d.ncols)
        if i != j
    )
    assert all(x >= 0 for x in diag)
    assert sum(1 for x in diag if x) == rank
    running = 1
    for kk in range(1, rank + 1):
        assert diag[kk - 1] != 0
        if kk >= 2:
            assert diag[kk - 1] % diag[kk - 2] == 0
        running *= diag[kk - 1]
        assert running == gcd_of_minors(m, kk)


def _kernel_agrees(m, oracle, box):
    kb = kernel_basis(m)
    assert kb.ncols == m.ncols
    assert kb.nrows == m.ncols - oracle.rank
    assert is_canonical_hnf(kb)
    # m kills every kernel row: kb times m transposed is zero.
    assert not any(map(any, matmul(kb, list(zip(*m.rows)))))
    if kb.nrows:
        # Saturated: the maximal minors are coprime, so the rows span
        # the full kernel lattice, not a finite-index sublattice.
        assert gcd_of_minors(kb, kb.nrows) == 1
    if box is None:
        return
    # Every in-box solution, the box enumerated once per distinct row.
    in_span = echelon_z_span(kb)
    for v in frozenset.intersection(*(_box_solutions(row, box) for row in m.rows)):
        assert in_span(v)


def _saturate_agrees(m, oracle):
    rank = oracle.rank
    if rank < m.nrows:
        try:
            saturate(m)
        except ValueError:
            return
        raise AssertionError("saturate accepted dependent rows")
    sat = saturate(m)
    assert sat.shape == m.shape
    assert is_canonical_hnf(sat)
    if sat.nrows:
        assert gcd_of_minors(sat, sat.nrows) == 1
    in_span = echelon_z_span(sat)
    for row in m.rows:
        assert in_span(row)
    assert rational_rank(m.rows + sat.rows, m.ncols) == rank


def test_10_integer_linear_algebra_agrees_with_enumeration():
    t0 = time.monotonic()
    cases = 0

    # (rows, cols, entry span, kernel enumeration box).  Shapes with
    # three columns use a tighter entry span to keep full enumeration
    # tractable; the kernel box still certifies completeness because
    # membership is checked for every in-box solution.
    boxes = (
        (1, 1, 3, 3),
        (1, 2, 3, 3),
        (2, 1, 3, 3),
        (2, 2, 3, 3),
        (3, 1, 3, 3),
        (1, 3, 3, 2),
        (2, 3, 1, 2),
        (3, 2, 1, 2),
        (3, 3, 1, 2),
    )
    for nrows, ncols, span, kbox in boxes:
        for entries in itertools.product(
            range(-span, span + 1), repeat=nrows * ncols
        ):
            m = IntMatrix(
                [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)], ncols
            )
            oracle = _Oracle(m)
            _hnf_agrees(m, oracle)
            _snf_agrees(m, oracle)
            _kernel_agrees(m, oracle, kbox)
            _saturate_agrees(m, oracle)
            cases += 1

    rng = random.Random(2010)
    for _ in range(1000):
        nrows = rng.randint(4, 5)
        ncols = rng.randint(4, 5)
        m = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)],
            ncols,
        )
        oracle = _Oracle(m)
        _hnf_agrees(m, oracle)
        _snf_agrees(m, oracle)
        _kernel_agrees(m, oracle, None)
        _saturate_agrees(m, oracle)
        cases += 1
    _finish("integer linear algebra enumeration", cases, t0)
