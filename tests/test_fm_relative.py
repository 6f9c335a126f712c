"""Fibred supports: condition checks, dual bundles, curvature, inverse."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from instances import (
    constant_instance,
    gauged_instance,
    polynomial_instance,
    section_instance,
)
from oracles import (
    c1_affine,
    c1_coefficients,
    coefficients_are_normal,
    deadline,
    exact_value,
    fd_partial,
    leibniz_minor,
    naive_det,
    qpi,
    rational_inverse,
    rational_rank,
)

import torusfm.fm_relative as fm_relative
from torusfm.exact_linalg import IntMatrix, RatMatrix
from torusfm.expr import (
    ONE,
    PI,
    ZERO,
    Expr,
    Verdict,
    _eliminate_constants,
    all_zero,
    cos,
    diff,
    eval_at,
    eval_exact,
    has_opaque,
    is_constant,
    is_zero,
    max_var,
    num,
    parse,
    sin,
    to_str,
    var,
    weyl_points,
)
from torusfm.fm_absolute import SubtorusLocalSystem
from torusfm.fm_absolute import transform as absolute_transform
from torusfm.fm_relative import (
    ConditionError,
    LocalSystemData,
    RelativeSupport,
    SectionSupport,
    TransformedBundle,
    check_C1_lagrangian,
    check_C2_C3,
    check_D_conditions,
    check_F02_iff_lagrangian,
    check_cauchy_riemann,
    curvature_hodge,
    dual_input_from_bundle,
    fibre_of_transform,
    fibre_support,
    fibre_system,
    hodge_components,
    inverse_transform,
    transform_nontransversal,
    wit_index,
)
from torusfm.torus import Torus, is_normal_to, subtorus_from_equations, whole_torus

F = Fraction


def assert_proven_zero(e):
    v = is_zero(e)
    assert v.kind == "proven_zero", v


def exact(e, k):
    return eval_exact(e, (F(0),) * k)


def fibre_turns_of(s):
    """dw-row of the dual connection, respelled from the chart data.

    The dual angle w^{g-k+jp} picks up -chi_jp, and d(w restricted to
    the support) spreads that over the free base coordinates through
    the chart functions.
    """
    frame = [var(c) for c in range(1, s.k + 1)] + list(s.zeta)
    turns = []
    for j in range(1, s.k + 1):
        t = ZERO
        for jp in range(1, s.k + 1):
            t = t + s.chi[jp - 1] * diff(frame[s.g - s.k + jp - 1], j)
        turns.append(-t)
    return tuple(turns)


def gauge_residual(s, sys_in, bundle, inv, j):
    """alpha drift of a round trip minus the predicted exact gauge term."""
    m_free = s.g - s.k
    corr = ZERO
    for l in range(s.k):
        c = m_free + l + 1
        if c > s.k:
            q = exact(bundle.varsigma[c - s.k - 1], s.k)
            corr = corr + num(q) * diff(s.chi[l], j)
    drift = inv.system.alpha[j - 1] - sys_in.alpha[j - 1]
    return drift + num(2) * (PI * corr)


# Line support in a 2-torus fibration: base line x2 = -x1, fibre lines
# y2 = y1 + 1/4, hand-checked end to end.
def antidiagonal_support():
    return RelativeSupport(2, 1, (parse("-x1"),), ((1,),), (F(1, 4),))


ANTIDIAGONAL_SYSTEM = LocalSystemData((0,), (F(1, 3),))


# Surface support with slopes that vary along the base, so the dual
# bundle exists but fails to be holomorphic.
def parabolic_support():
    return RelativeSupport(
        3,
        2,
        (parse("-x1 + 1/2*x2^2"),),
        ((parse("-x2"),), (1,)),
        (parse("-x1*x2"), parse("x1")),
    )


PARABOLIC_SYSTEM = LocalSystemData((0, 0), (F(2, 7),))


# Line support in a 3-torus fibration with constant slopes but a
# quadratic fibre offset: round trips pick up an exact gauge term.
def twisted_line_support():
    return RelativeSupport(
        3, 1, (parse("2*x1"), parse("-x1")), ((1, 2),), (parse("x1^2"),)
    )


TWISTED_SYSTEM = LocalSystemData((parse("3*x1"),), (F(1, 3), F(5, 6)))


# ------------------------------------------------------------- validation


def test_support_shapes_are_checked():
    with pytest.raises(ValueError, match="one base equation"):
        RelativeSupport(2, 1, (), ((1,),), (0,))
    with pytest.raises(ValueError, match="slope matrix must be 1 by 1"):
        RelativeSupport(2, 1, (0,), ((1, 2),), (0,))
    with pytest.raises(ValueError, match="one fibre offset"):
        RelativeSupport(2, 1, (0,), ((1,),), (0, 0))
    with pytest.raises(ValueError, match="need g >= 1"):
        RelativeSupport(2, 3, (0,), ((1,),), (0,))


@pytest.mark.parametrize(
    "g, k, message",
    [(2.5, 1, "g 2.5 is not an integer"), (2, 0.5, "k 0.5 is not an integer"), ("2", 1, "g '2'")],
)
def test_support_and_bundle_dimensions_must_be_integers(g, k, message):
    with pytest.raises(ValueError, match=message):
        RelativeSupport(g, k, (0,), ((1,),), (0,))
    with pytest.raises(ValueError, match=message):
        TransformedBundle(g, k, (0,), ((0,),), (0,), (0,), (0,))


def test_integral_dimensions_are_stored_as_ints():
    s = RelativeSupport(2.0, 1.0, (parse("-x1"),), ((1,),), (0,))
    b = TransformedBundle(2.0, 1.0, (parse("-x1"),), ((-1,),), (0,), (0,), (0,))
    assert type(s.g) is type(s.k) is type(b.g) is type(b.k) is int
    assert check_C1_lagrangian(s).holds
    assert inverse_transform(b).wit_index == 1


def test_support_entries_must_live_on_the_base():
    with pytest.raises(ValueError, match="found x2"):
        RelativeSupport(2, 1, (parse("x2"),), ((1,),), (0,))
    with pytest.raises(ValueError, match="fibre slopes"):
        RelativeSupport(2, 1, (0,), ((parse("x2"),),), (0,))
    with pytest.raises(ValueError, match="fibre offsets"):
        RelativeSupport(2, 1, (0,), ((1,),), (parse("x2"),))


def test_section_support_validation():
    with pytest.raises(ValueError, match="need g >= 1"):
        SectionSupport(())
    with pytest.raises(ValueError, match="found x3"):
        SectionSupport((parse("x3"), 0))


def test_local_system_reduces_holonomy_phases():
    assert LocalSystemData((), (F(7, 3),)).xi == (F(1, 3),)
    assert LocalSystemData((), (F(-1, 4),)).xi == (F(3, 4),)


def test_section_support_is_the_full_graph():
    r = SectionSupport((parse("x1"), parse("x2^2")))
    assert isinstance(r, RelativeSupport)
    assert (r.g, r.k) == (2, 2)
    assert r.zeta == ()
    assert r.a == ((), ())
    assert r.chi == (parse("x1"), parse("x2^2"))
    assert r.fibre_dim == 0


def test_transform_rejects_mismatched_system():
    s = antidiagonal_support()
    with pytest.raises(ValueError, match="one dx-coefficient"):
        transform_nontransversal(s, LocalSystemData((0, 0), (F(1, 3),)))
    with pytest.raises(ValueError, match="holonomy dimension"):
        transform_nontransversal(s, LocalSystemData((0,), ()))


# -------------------------------------------------------- Lagrangian check


def test_lagrangian_check_on_the_line_fixture():
    rep = check_C1_lagrangian(antidiagonal_support())
    assert rep.name == "C1"
    assert rep.holds and rep.verdict.proven
    assert rep.failures == ()


def test_lagrangian_check_names_bad_slope_entries():
    # The slope pairing is 1 - a[1][1] here, so a slope of 2 breaks it.
    s = RelativeSupport(2, 1, (parse("-x1"),), ((2,),), (0,))
    rep = check_C1_lagrangian(s)
    assert not rep.holds and rep.verdict.proven
    assert rep.failures == ("dy1^dx1",)


def test_lagrangian_check_sees_the_offset_curl():
    # Same base and slopes as the parabolic fixture, but the offsets no
    # longer come from a potential: the dx1^dx2 curl survives.
    s = RelativeSupport(
        3,
        2,
        (parse("-x1 + 1/2*x2^2"),),
        ((parse("-x2"),), (1,)),
        (parse("x1*x2"), parse("x1")),
    )
    rep = check_C1_lagrangian(s)
    assert not rep.holds and rep.verdict.proven
    assert rep.failures == ("dx1^dx2",)
    with pytest.raises(ConditionError) as exc:
        transform_nontransversal(s, LocalSystemData((0, 0), (F(1, 2),)))
    assert exc.value.condition == "C1"
    assert "dx1^dx2" in str(exc.value)


def test_parabolic_fixture_is_lagrangian():
    rep = check_C1_lagrangian(parabolic_support())
    assert rep.holds and rep.verdict.proven


C1_DEFECTS = ("none", "slope", "curl", "character", "opaque", "hidden zero")


def c1_case(defect, rng):
    """A seeded Lagrangian support at g <= 8, then one defect added.

    slope adds a constant to one slope entry, curl adds c*x_v*x_w to one
    offset, and character and opaque add c*cos(x_v + 2*x_w) or
    c*sin(x_v^2) to one entry of zeta, a or chi.  hidden zero adds
    c*x_w*(sin(x_v^2)^2 + cos(x_v^2)^2 - 1), zero only numerically, to
    one offset.
    """
    g = rng.randint(2, 8)
    k = rng.randint(1, g - 1) if defect == "slope" else rng.randint(1, g)
    make = polynomial_instance if rng.random() < 0.5 else gauged_instance
    s, _ = make(g, k, rng)
    zeta, a, chi = list(s.zeta), [list(row) for row in s.a], list(s.chi)
    v, w, l = rng.randint(1, k), rng.randint(1, k), rng.randrange(k)
    c = num(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
    if defect == "slope":
        a[l][rng.randrange(g - k)] += c
    elif defect == "curl":
        chi[l] += c * var(v) * var(w)
    elif defect == "hidden zero":
        chi[l] += c * var(w) * parse(f"sin(x{v}^2)^2 + cos(x{v}^2)^2 - 1")
    elif defect != "none":
        term = c * parse(f"cos(x{v} + 2*x{w})" if defect == "character" else f"sin(x{v}^2)")
        slot = rng.randrange(3) if g > k else 2
        if slot == 0:
            zeta[rng.randrange(g - k)] += term
        elif slot == 1:
            a[l][rng.randrange(g - k)] += term
        else:
            chi[l] += term
    return RelativeSupport(g, k, tuple(zeta), tuple(map(tuple, a)), tuple(chi))


def c1_by_triple_loop(s):
    """C1 (verdict, failures) from the frame-by-frame triple loop, one diff per factor.

    This is the formula the check used before it differentiated each
    entry once; its verdicts are the reference the new ones must match.
    """
    k, n = s.k, s.g - s.k
    frame = [var(c) for c in range(1, k + 1)] + list(s.zeta)
    labelled = []
    for j in range(1, k + 1):
        for m in range(1, n + 1):
            e = diff(frame[m - 1], j)
            for l in range(k):
                e = e + s.a[l][m - 1] * diff(frame[n + l], j)
            labelled.append((f"dy{m}^dx{j}", e))
    for j in range(1, k + 1):
        for m in range(j + 1, k + 1):
            e = ZERO
            for l in range(k):
                z, c = frame[n + l], s.chi[l]
                e = e + diff(z, j) * diff(c, m) - diff(z, m) * diff(c, j)
            labelled.append((f"dx{j}^dx{m}", e))
    verdicts = [(label, is_zero(e)) for label, e in labelled]
    return all_zero(v for _, v in verdicts), tuple(lab for lab, v in verdicts if not v.is_zero)


@pytest.mark.parametrize("defect", C1_DEFECTS)
def test_c1_failures_match_the_pullback_oracle(defect):
    rng = random.Random(C1_DEFECTS.index(defect) + 101)
    failing = 0
    for _ in range(10):
        s = c1_case(defect, rng)
        points = [tuple(rng.uniform(0.05, 0.95) for _ in range(s.k)) for _ in range(3)]
        values = [c1_coefficients(s.zeta, s.a, s.chi, s.k, p) for p in points]
        expected = tuple(lab for lab in values[0] if max(abs(v[lab]) for v in values) > 1e-6)
        rep = check_C1_lagrangian(s)
        assert rep.failures == expected
        assert (rep.verdict, rep.failures) == c1_by_triple_loop(s)
        failing += bool(expected)
    if defect in ("none", "hidden zero"):
        assert failing == 0
    else:
        assert failing >= 5


def test_c1_and_c3_differentiate_each_entry_once(monkeypatch):
    calls = []
    real_diff = fm_relative.diff
    monkeypatch.setattr(fm_relative, "diff", lambda e, i: calls.append(i) or real_diff(e, i))
    g, k = 12, 6
    s, _ = polynomial_instance(g, k, random.Random(12))
    rep = check_C1_lagrangian(s)
    assert rep.holds and rep.verdict.proven
    assert 0 < len(calls) <= g * k + k * k

    calls.clear()
    assert not any(has_opaque(e) for row in s.a for e in row)
    _, c3 = check_C2_C3(s)
    assert c3.verdict.proven
    assert calls == []


def qpi_expr(x):
    """An element of Q[pi], as the oracle reads it, as an Expr."""
    return sum((c * PI**p for p, c in qpi(x).items()), ZERO)


def affine_expr(constant, slopes):
    return qpi_expr(constant) + sum((qpi_expr(c) * var(j) for j, c in enumerate(slopes, 1)), ZERO)


def affine_c1_case(kind, rng):
    """((zeta_slopes, a, chi_slopes), support) for the affine C1 oracle, g <= 12.

    lagrangian solves the angle block for a, a^T = -J[1..n] Jl^-1, and sets
    chi_slopes = Jl^-T S with S symmetric, so the curl Jl^T chi_slopes - (.)^T
    vanishes; Jl is the last k rows of the chart's Jacobian J.  perturbed
    then adds a nonzero rational to one entry of zeta_slopes, a or
    chi_slopes.  pi puts pi into the rows k+1..n of J, which only the
    angle block reads, when n > k, and multiplies chi_slopes by pi; half
    of these are perturbed by pi or a rational.  The constant parts of
    zeta and chi, which C1 does not read, are drawn too, those of chi as
    rational multiples of pi.
    """
    while True:
        g = rng.randint(1, 12)
        k = rng.randint(1, g)
        n = g - k
        zr = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(n)]
        zp = [[F(rng.randint(-2, 2), rng.randint(1, 2)) if kind == "pi" and k < c <= n else 0 for _ in range(k)]
              for c in range(k + 1, g + 1)]
        jac = [[int(c == j) for j in range(k)] for c in range(k)] + zr
        jl_inv = rational_inverse(jac[n:])
        if jl_inv is not None:
            break
    # J[m] = JR[m] + pi JP[m], and only rows m < n of JP can be nonzero.
    jp = [[0] * k for _ in range(k)] + zp
    a_t = [[-sum(jac[m][p] * jl_inv[p][l] for p in range(k)) for l in range(k)] for m in range(n)]
    a_pi = [[-sum(jp[m][p] * jl_inv[p][l] for p in range(k)) for l in range(k)] for m in range(n)]
    sym = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            sym[i][j] = sym[j][i] = F(rng.randint(-3, 3), rng.randint(1, 3))
    b = [[sum(jl_inv[p][l] * sym[p][j] for p in range(k)) for j in range(k)] for l in range(k)]

    zeta_slopes = [[{0: zr[i][j], 1: zp[i][j]} for j in range(k)] for i in range(n)]
    a = [[{0: a_t[m][l], 1: a_pi[m][l]} for m in range(n)] for l in range(k)]
    chi_slopes = [[{1: e} if kind == "pi" else e for e in row] for row in b]
    if kind == "perturbed" or (kind == "pi" and rng.random() < 0.5):
        bump = {1: 1} if kind == "pi" and rng.random() < 0.5 else F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        target = rng.choice([t for t, rows in (("zeta", zeta_slopes), ("a", a), ("chi", chi_slopes)) if rows and rows[0]])
        rows = {"zeta": zeta_slopes, "a": a, "chi": chi_slopes}[target]
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        entry, bump = qpi(rows[i][j]), qpi(bump)
        rows[i][j] = {p: entry.get(p, 0) + bump.get(p, 0) for p in {*entry, *bump}}

    zeta = tuple(affine_expr(F(rng.randint(-3, 3), 2), row) for row in zeta_slopes)
    chi = tuple(affine_expr({1: F(rng.randint(-3, 3), 2)}, row) for row in chi_slopes)
    support = RelativeSupport(g, k, zeta, tuple(tuple(qpi_expr(e) for e in row) for row in a), chi)
    return (zeta_slopes, a, chi_slopes), support


@pytest.mark.parametrize("kind", ("lagrangian", "perturbed", "pi"))
def test_c1_matches_the_affine_oracle(kind):
    # Verdict kind and failure labels, in order, against exact arithmetic in
    # Q[pi] that shares no code with the library.  Rational constant data
    # take the integer angle block; pi in the slopes takes the general one.
    rng = random.Random(f"c1-affine:{kind}")
    failing = pi_blocks = 0
    for _ in range(30):
        data, s = affine_c1_case(kind, rng)
        expected = c1_affine(*data)
        rep = check_C1_lagrangian(s)
        assert rep.verdict.kind == ("proven_nonzero" if expected else "proven_zero")
        assert rep.failures == tuple(label for label, _ in expected)
        failing += bool(expected)
        pi_blocks += any(1 in qpi(e) for e in itertools.chain(*data[0], *data[1]))
    if kind == "lagrangian":
        assert failing == 0
    elif kind == "perturbed":
        assert failing >= 20
    else:
        assert 8 <= failing <= 22 and pi_blocks >= 8


def test_the_chart_stays_off_the_support_fields():
    s, _ = polynomial_instance(7, 3, random.Random(71))
    twin = RelativeSupport(s.g, s.k, s.zeta, s.a, s.chi)
    before = (hash(s), repr(s))
    assert check_C1_lagrangian(s).holds
    assert "_chart" in vars(s) and "_chart" not in vars(twin)
    assert s == twin and twin == s
    assert (hash(s), repr(s)) == before == (hash(twin), repr(twin))
    assert len({s, twin}) == 1


def test_trusted_and_section_supports_keep_one_chart():
    s, system = polynomial_instance(6, 2, random.Random(62))
    trusted = RelativeSupport._trusted(s.g, s.k, s.zeta, s.a, s.chi)
    assert check_C1_lagrangian(trusted) == check_C1_lagrangian(s)
    assert fm_relative._chart(trusted) is fm_relative._chart(trusted)
    assert transform_nontransversal(trusted, system) == transform_nontransversal(s, system)

    section, _ = section_instance(4, random.Random(64))
    assert check_C1_lagrangian(section).holds
    chart = fm_relative._chart(section)
    assert chart == ((), tuple(-e for e in section.chi), {})
    assert curvature_hodge(section) == hodge_components((), chart[1])
    assert fm_relative._chart(section) is chart


def test_one_support_differentiates_zeta_once(monkeypatch):
    # C1, the transform, the curvature of the support and the F02 identity
    # all read the one chart of the support.
    calls = []
    real_diff = fm_relative.diff
    monkeypatch.setattr(fm_relative, "diff", lambda e, i: calls.append((id(e), i)) or real_diff(e, i))
    s, system = polynomial_instance(9, 4, random.Random(94))
    assert len({id(z) for z in s.zeta}) == len(s.zeta)
    assert check_C1_lagrangian(s).holds
    bundle = transform_nontransversal(s, system)
    curvature_hodge(s)
    assert check_F02_iff_lagrangian(s, bundle).kind == "proven_zero"
    zeta_ids = {id(z) for z in s.zeta}
    on_zeta = [c for c in calls if c[0] in zeta_ids]
    assert sorted(on_zeta) == sorted((i, j) for i in zeta_ids for j in range(1, s.k + 1))


# ---------------------------------------- constant rank and constant slopes


def test_rank_drop_at_an_isolated_point_is_caught():
    # x1 is 0 at the probe x1 = 0 and 1/2 at x1 = 1/2: two exact ranks.
    s = RelativeSupport(2, 1, (0,), ((parse("x1"),),), (0,))
    c2, _ = check_C2_C3(s)
    assert not c2.holds
    assert c2.verdict.kind == "proven_nonzero"
    with pytest.raises(ConditionError) as exc:
        wit_index(s)
    assert exc.value.condition == "C2"


def test_transform_decides_c2_without_the_c3_check(monkeypatch):
    # The transform and wit_index decide C2 alone; a forced drop then takes
    # the ConditionError path.
    def unused(*args):
        raise AssertionError("check_C2_C3 called")

    monkeypatch.setattr(fm_relative, "check_C2_C3", unused)
    s = antidiagonal_support()
    assert transform_nontransversal(s, ANTIDIAGONAL_SYSTEM).wit_index == wit_index(s) == 1
    drop = Verdict.proven_nonzero()
    monkeypatch.setattr(fm_relative, "_constant_rank_verdict", lambda *args: drop)
    for call in (lambda: transform_nontransversal(s, ANTIDIAGONAL_SYSTEM), lambda: wit_index(s)):
        with pytest.raises(ConditionError) as exc:
            call()
        assert exc.value.condition == "C2"
        assert exc.value.report == fm_relative.ConditionReport("C2", drop)


def test_rank_drop_found_by_sign_change():
    # The determinant is -1/7 at x1 = 0 and 5/14 at x1 = 1/2, so it
    # vanishes in between: a drop proven without finding x1 = 1/7.
    s = RelativeSupport(2, 1, (0,), ((parse("x1 - 1/7"),),), (0,))
    c2, _ = check_C2_C3(s)
    assert not c2.holds
    assert c2.verdict.kind == "proven_nonzero"


def test_rank_without_real_drop_passes_numerically():
    s = RelativeSupport(2, 1, (0,), ((parse("x1^2 + 1"),),), (0,))
    c2, _ = check_C2_C3(s)
    assert c2.holds
    assert not c2.verdict.proven


def test_rank_constant_despite_varying_entries_is_proven():
    # All 2x2 minors vanish identically and one 1x1 minor is the
    # constant 1, so the rank is 1 everywhere, provably.
    s = RelativeSupport(
        4, 2, (0, 0), ((1, parse("x1")), (0, 0)), (0, 0)
    )
    c2, _ = check_C2_C3(s)
    assert c2.holds and c2.verdict.proven


def test_constant_slope_check_names_entries():
    c2, c3 = check_C2_C3(parabolic_support())
    assert c2.holds and c2.verdict.proven
    assert not c3.holds and c3.verdict.proven
    assert c3.failures == ("a[1][1]",)


_FREQ = ("0", "1", "2", "1/3", "pi", "-pi", "(1 + pi)")


@st.composite
def opaque_free_entry(draw, k):
    """Polynomials in x1..xk and pi, times characters of (Q + Q*pi) frequencies."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        factors = [f"{draw(st.sampled_from((-2, -1, 1, 3)))}/{draw(st.integers(1, 3))}"]
        factors += [f"x{draw(st.integers(1, k))}^{draw(st.integers(0, 2))}"
                    for _ in range(draw(st.integers(0, 2)))]
        factors.append(f"pi^{draw(st.integers(0, 1))}")
        if draw(st.booleans()):
            kind = draw(st.sampled_from(("sin", "cos")))
            v, w = draw(st.integers(1, k)), draw(st.integers(1, k))
            f1, f2 = draw(st.sampled_from(_FREQ)), draw(st.sampled_from(_FREQ))
            phase = draw(st.sampled_from(("0", "pi/2", "pi")))
            factors.append(f"{kind}({f1}*x{v} + {f2}*x{w} + {phase})")
        terms.append("*".join(factors))
    return parse(" + ".join(terms) or "0")


def constancy_by_derivatives(labelled, k):
    verdicts = [
        (label, all_zero(is_zero(diff(e, v)) for v in range(1, k + 1))) for label, e in labelled
    ]
    return all_zero(v for _, v in verdicts), tuple(lab for lab, v in verdicts if not v.is_zero)


def assert_c3_and_d1_match_the_derivatives(a, q, k):
    """C3 of slopes a, and D1 of the bundle with P = a^T and Q = q, against `constancy_by_derivatives`."""
    n = len(q)
    _, c3 = check_C2_C3(RelativeSupport(k + n, k, (0,) * n, a, (0,) * k))
    labelled = [(f"a[{j + 1}][{m + 1}]", e) for j, row in enumerate(a) for m, e in enumerate(row)]
    assert (c3.verdict, c3.failures) == constancy_by_derivatives(labelled, k)

    p = tuple(tuple(a[j][i] for j in range(k)) for i in range(n))
    d1, _, _ = check_D_conditions(TransformedBundle(k + n, k, (0,) * n, p, q, (0,) * k, (0,) * k))
    labelled = [(f"P[{i + 1}][{j + 1}]", e) for i, row in enumerate(p) for j, e in enumerate(row)]
    labelled += [(f"Q[{i + 1}]", e) for i, e in enumerate(q)]
    assert (d1.verdict, d1.failures) == constancy_by_derivatives(labelled, k)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_constancy_without_opaque_atoms_matches_the_derivatives(k, n, data):
    a = tuple(tuple(data.draw(opaque_free_entry(k)) for _ in range(n)) for _ in range(k))
    assert not any(has_opaque(e) for row in a for e in row)
    assert_c3_and_d1_match_the_derivatives(a, (ZERO,) * n, k)


# Opaque atoms: varying, constant, cancelling in the derivative, zero only
# by a trig identity (sampled), and times a variable.
_OPAQUE = (
    "sin(x{v}^2)",
    "cos(x{v}*x{w} + 1)",
    "sin(1)",
    "cos(x{v} + 1)^2 + sin(x{v} + 1)^2",
    "sin(2*x{v} + 2) - 2*sin(x{v} + 1)*cos(x{v} + 1)",
    "x{w}*sin(pi*x{v}^2)",
)


@st.composite
def mixed_entry(draw, k):
    """0, or a sum of rational, pi, x_v, character and opaque sin/cos terms, v <= k."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        v, w = draw(st.integers(1, k)), draw(st.integers(1, k))
        kind = draw(st.sampled_from(("rational", "pi", "variable", "character", "opaque")))
        if kind == "variable":
            factor = f"x{v}^{draw(st.integers(1, 2))}"
        elif kind == "character":
            factor = f"{draw(st.sampled_from(('sin', 'cos')))}({draw(st.sampled_from(_FREQ))}*x{v} + pi/2)"
        elif kind == "opaque":
            factor = draw(st.sampled_from(_OPAQUE)).format(v=v, w=w)
        else:
            factor = "pi" if kind == "pi" else "1"
        terms.append(f"{draw(st.sampled_from((-2, -1, 1, 3)))}/{draw(st.integers(1, 3))}*({factor})")
    return parse(" + ".join(terms) or "0")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_one_scan_constancy_matches_the_derivatives(k, n, data):
    # C3, D1 and the holomorphic verdict against the definition: for an
    # entry with opaque atoms, all_zero of is_zero(diff(e, v)) over v <= k,
    # and otherwise whether some diff(e, v) is nonempty; kinds and labels
    # in order.
    a = tuple(tuple(data.draw(mixed_entry(k)) for _ in range(n)) for _ in range(k))
    assert_c3_and_d1_match_the_derivatives(a, tuple(data.draw(mixed_entry(k)) for _ in range(n)), k)

    # A Lagrangian support whose base map has Jacobian [G; -I]: zeta is n
    # drawn entries, then -x1..-xk, and the slopes are [I | G^T], so C1 and
    # C2 hold and the transform's dual slope is that Jacobian.
    zeta = tuple(data.draw(mixed_entry(k)) for _ in range(n)) + tuple(-var(v) for v in range(1, k + 1))
    jacobian = [[diff(z, j) for j in range(1, k + 1)] for z in zeta]
    slopes = tuple(tuple(ONE if m == j else ZERO for m in range(k)) + tuple(row[j] for row in jacobian[:n])
                   for j in range(k))
    s = RelativeSupport(2 * k + n, k, zeta, slopes, (0,) * k)
    bundle = transform_nontransversal(s, LocalSystemData((0,) * k, (0,) * (k + n)))
    assert bundle.gamma_tilde == tuple(map(tuple, jacobian))
    assert bundle.holomorphic == constancy_by_derivatives([("", e) for row in jacobian for e in row], k)[0]


def test_constant_trig_minor_proves_nothing():
    # The 1x1 minor sin(1) is constant, but that it is nonzero is only a
    # numerical fact, so the constant rank is numerical too.
    s = RelativeSupport(3, 1, (0, 0), ((parse("x1"), parse("sin(1)")),), (0,))
    c2, _ = check_C2_C3(s)
    assert c2.holds
    assert c2.verdict.kind == "numerically_zero"


def bidiagonal_times_constant(k, rng, drops=False):
    """Slopes L*C: L unit lower bidiagonal with c*x_i below row i's one, C invertible.

    det(L*C) = det(C) is a nonzero constant.  With drops, the last row is
    multiplied by (x1 - 1/2), so the rank drops on x1 = 1/2.
    """
    while True:
        c = [[rng.choice((-2, -1, 1, 2)) for _ in range(k)] for _ in range(k)]
        if rational_rank(c, k) == k:
            break
    a = []
    for i in range(k):
        lower = num(rng.choice((-2, -1, 1, 2))) * var(i) if i else ZERO
        row = [num(c[i][j]) + (lower * num(c[i - 1][j]) if i else ZERO) for j in range(k)]
        a.append(row)
    if drops:
        a[-1] = [e * parse("x1 - 1/2") for e in a[-1]]
    return RelativeSupport(2 * k, k, (0,) * k, tuple(tuple(row) for row in a), (0,) * k)


@pytest.mark.parametrize("k", range(2, 13))
def test_constant_determinant_of_varying_slopes_is_proven(k, monkeypatch):
    # The `symbolic` benchmark's c2 shape.  With constant rank, the constant
    # pivots eliminate every row, t = k, and no minor is expanded; the drop
    # is proven without minors too.  Rows 2..k are C[i] + c*x_i*C[i-1] with
    # C and c free of zeros, so exactly their entries vary, in both variants.
    def unused(*args):
        raise AssertionError("exact_minors called")

    eliminations = []
    real = fm_relative._eliminate_constants
    monkeypatch.setattr(fm_relative, "_eliminate_constants", lambda a: eliminations.append(real(a)) or eliminations[-1])
    monkeypatch.setattr(fm_relative, "exact_minors", unused)
    varying = tuple(f"a[{i}][{j}]" for i in range(2, k + 1) for j in range(1, k + 1))
    rng = random.Random(k)
    s = bidiagonal_times_constant(k, rng)
    with deadline(2):
        c2, c3 = check_C2_C3(s)
    assert c2.holds and c2.verdict.kind == "proven_zero"
    assert eliminations == [(k, [])]
    assert (c3.verdict.kind, c3.failures) == ("proven_nonzero", varying)
    s = bidiagonal_times_constant(k, rng, drops=True)
    with deadline(2):
        c2, c3 = check_C2_C3(s)
    assert c2.verdict.kind == "proven_nonzero"
    assert (c3.verdict.kind, c3.failures) == ("proven_nonzero", varying)


def test_unit_determinant_with_polynomial_entries_is_proven():
    s = RelativeSupport(4, 2, (0, 0), ((1, parse("x1")), (parse("x2"), parse("x1*x2 + 1"))), (0, 0))
    c2, _ = check_C2_C3(s)
    assert c2.verdict.kind == "proven_zero"


# Rank check from first principles: Leibniz minors, `is_zero`, and the
# points the library documents (Weyl points, then the diagonal and axis
# probes at these coordinates).
_PROBES = (F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4))


def probe_points(nvars):
    points = []
    for t in _PROBES:
        points.append((t,) * nvars)
        points.extend(tuple(t if i == j else F(0) for j in range(nvars)) for i in range(nvars))
    return points


def exact_rank_witness(a, k, m):
    """Whether exact values of the Leibniz minors at the probes prove a rank drop.

    None when some entry has pi, a character or an opaque atom.  The rank
    at a point is the largest size of a minor that is nonzero there.  Two
    different ranks prove a drop, and so do determinants of opposite signs
    when a is square: the determinant has a zero between the two points.
    """
    nvars = max(max_var(e) for row in a for e in row)
    minors = [
        [leibniz_minor(a, rows, cols)
         for rows in itertools.combinations(range(k), r)
         for cols in itertools.combinations(range(m), r)]
        for r in range(1, min(k, m) + 1)
    ]
    try:
        values = [[[eval_exact(d, p) for d in size] for size in minors] for p in probe_points(nvars)]
    except ValueError:
        return None
    ranks = {max((r for r, vals in enumerate(at, 1) if any(vals)), default=0) for at in values}
    signs = {at[-1][0] > 0 for at in values if k == m and at[-1][0]}
    return len(ranks) > 1 or len(signs) > 1


def reference_rank_check(a, k, tol=1e-9, grid=17):
    """(holds, top minors or None, whether all larger minors are proven zero, witness).

    witness is `exact_rank_witness`; a witness decides holds.
    """
    m = len(a[0])
    if all(is_constant(e) for row in a for e in row):
        return True, None, True, False
    witness = exact_rank_witness(a, k, m)
    larger_proven = True
    for r in range(min(k, m), 0, -1):
        minors = [
            leibniz_minor(a, rows, cols)
            for rows in itertools.combinations(range(k), r)
            for cols in itertools.combinations(range(m), r)
        ]
        verdicts = [is_zero(d, tol, grid) for d in minors]
        if any(not v.is_zero for v in verdicts):
            break
        larger_proven = larger_proven and all(v.proven for v in verdicts)
    else:
        return not witness, None, larger_proven, witness
    nvars = max([max_var(d) for d in minors] + [1])
    points = weyl_points(nvars, grid) + probe_points(nvars)
    table = [[eval_at(d, p) for p in points] for d in minors]
    if witness or any(all(abs(vals[i]) <= tol for vals in table) for i in range(len(points))):
        return False, minors, larger_proven, witness
    # A sign change proves a zero when every other top minor vanishes identically.
    live = [vals for vals, v in zip(table, verdicts) if v.kind != "proven_zero"]
    if len(live) == 1 and min(live[0]) < -tol and max(live[0]) > tol:
        return False, minors, larger_proven, witness
    return True, minors, larger_proven, witness


def _in_q_pi(e):
    return e != ZERO and is_constant(e) and not has_opaque(e)


@st.composite
def slope_matrices(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    xs = st.integers(1, k).map(lambda i: f"x{i}")
    factor = st.one_of(
        st.integers(-2, 2).map(str),
        st.just("pi"),
        xs,
        st.tuples(xs, xs).map("*".join),
        xs.map(lambda x: f"({x} - 1/2)"),
    )
    poly = st.lists(st.tuples(st.integers(-2, 2), factor), min_size=1, max_size=2).map(
        lambda terms: " + ".join(f"({c})*{f}" for c, f in terms)
    )
    trig = st.tuples(st.sampled_from(("sin", "cos")), xs, st.sampled_from(("", " + x1", " - 1", "*2"))).map(
        lambda t: f"{t[0]}({t[1]}{t[2]})"
    )
    entry = st.one_of(st.just("0"), poly, poly, st.tuples(poly, trig).map(" + ".join), st.just("sin(1)"))
    rows = []
    for _ in range(k):
        if rows and draw(st.integers(0, 3)) == 0:
            f = parse(draw(poly))
            rows.append([f * e for e in draw(st.sampled_from(rows))])
        else:
            rows.append([parse(draw(entry)) for _ in range(m)])
    return k, m, tuple(tuple(row) for row in rows)


_XS = st.sampled_from(("x1", "x2", "x3", "x4"))
# Polynomials in x1..x4 of degree at most 2.
_POLY = st.lists(
    st.tuples(st.integers(-2, 2), st.one_of(st.just("1"), _XS, st.tuples(_XS, _XS).map("*".join))),
    min_size=1,
    max_size=2,
).map(lambda terms: " + ".join(f"({c})*{m}" for c, m in terms))
_NONZERO = st.sampled_from((-2, -1, 1, 2))
_RATIONAL = st.builds(F, st.integers(-3, 3), st.integers(1, 3)).map(num)
# Entries that are never pivots: polynomials, and pi or cos(2*pi*x1) plus one.
_VARYING = st.one_of(
    _POLY.map(parse),
    st.tuples(_NONZERO, _POLY).map(lambda t: parse(f"{t[0]}*pi + {t[1]}")),
    st.tuples(_NONZERO, _POLY).map(lambda t: parse(f"{t[0]}*cos(2*pi*x1) + {t[1]}")),
    st.sampled_from(("pi", "cos(2*pi*x1)")).map(parse),
)


@st.composite
def elimination_row(draw, m):
    """A row of rational constants, or a mixed row in which constants are rarer."""
    if draw(st.booleans()):
        return [draw(_RATIONAL) for _ in range(m)]
    return [draw(st.one_of(_RATIONAL, _VARYING, _VARYING)) for _ in range(m)]


# Rational points of x1..x4, each with a rational reading of the pi atom.
# cos(2*pi*n*x1) is rational at every x1 here, a multiple of 1/4 or 1/6.
_ELIMINATION_POINTS = (
    ((F(0), F(0), F(0), F(0)), F(3)),
    ((F(1, 4), F(1, 2), F(-3), F(2)), F(22, 7)),
    ((F(1, 3), F(2, 3), F(1, 4), F(-1)), F(-1, 2)),
    ((F(1, 6), F(-1), F(5, 2), F(1, 3)), F(355, 113)),
    ((F(3, 4), F(2), F(-1, 3), F(1, 2)), F(0)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_constant_pivot_elimination_keeps_rank_and_determinant(n, m, data):
    # The block keeps the rank at every point and, for square slopes, the
    # determinant up to one constant factor, so the sign of the product of
    # the two determinants is the same wherever neither vanishes.  pi and
    # cos(2*pi*x1) are never pivots; their exact values at these points,
    # with the pi atom read as any rational, respect the ring operations
    # the elimination performs (`oracles.exact_value`).
    a = [data.draw(elimination_row(m)) for _ in range(n)]
    t, block = _eliminate_constants(a)
    signs = set()
    for p, pi in _ELIMINATION_POINTS:
        at = [[exact_value(e, p, pi) for e in row] for row in a]
        rest = [[exact_value(e, p, pi) for e in row] for row in block]
        assert rational_rank(at, m) == t + (rational_rank(rest, m - t) if rest else 0)
        if n == m:
            product = naive_det(RatMatrix(at)) * naive_det(RatMatrix(rest, m - t))
            if product:
                signs.add(product > 0)
    assert len(signs) <= 1


@settings(max_examples=150, deadline=None)
@given(slope_matrices())
def test_constant_rank_agrees_with_leibniz_minors(case):
    k, m, a = case
    c2, _ = check_C2_C3(RelativeSupport(k + m, k, (0,) * m, a, (0,) * k))
    holds, top, larger_proven, witness = reference_rank_check(a, k)
    assert c2.holds == holds
    zero_provable = all(is_constant(e) for row in a for e in row) or (
        larger_proven and (top is None or any(_in_q_pi(d) for d in top))
    )
    # A constant rank that the expanded top minors prove stays proven, and
    # a drop that exact probe values witness is proven.  Any other proof is
    # of a drop whose witness the reference cannot evaluate: pivots removed
    # the pi, characters or opaque atoms from what the library evaluates.
    if zero_provable:
        assert c2.verdict.kind == "proven_zero"
    if witness:
        assert c2.verdict.kind == "proven_nonzero"
    if c2.verdict.proven and not zero_provable:
        assert c2.verdict.kind == "proven_nonzero"
        assert witness in (True, None)


def test_sign_change_of_the_one_live_minor_is_a_rank_drop():
    # The zero column adds a 1x1 minor that vanishes identically; the
    # other, x1 - 1/7, changes sign, so the rank drops at x1 = 1/7.
    s = RelativeSupport(3, 1, (0, 0), ((parse("x1 - 1/7"), 0),), (0,))
    c2, _ = check_C2_C3(s)
    assert c2.verdict.kind == "numerically_nonzero"
    holds, *_, witness = reference_rank_check(s.a, 1)
    assert holds is False and witness is False


@pytest.mark.parametrize(
    "rows,kind",
    [
        # The pivot 1 leaves the 1x1 block x1, rational although pi is not.
        ((("1", "pi"), ("2", "2*pi + x1")), "proven_nonzero"),
        # Here b = -(1 + x1^3 + x2^6)*(x1 + x2 + x1*x2) three times has 27
        # terms, the slopes 25: they are evaluated first and have no exact
        # values, so only b proves the drop at 0.
        ((("1",) + ("pi + x1 + x2 + x1*x2",) * 3,
          ("1 + x1^3 + x2^6",) + ("pi*(1 + x1^3 + x2^6)",) * 3), "proven_nonzero"),
        # Rank 1 at every probe, and x1 = 1 lies outside them.
        ((("(x1 - 1)^2",),), "numerically_zero"),
        # pi and opaque atoms have no exact values: sampled as before.
        ((("pi*(x1 - 1/7)",),), "numerically_nonzero"),
        ((("sin(x1^2)",),), "numerically_nonzero"),
        # det = -2*x1 - 1 < 0 on the base; at x1 = 0 the pivots move to the
        # off-diagonal, and the determinant keeps its sign only if the
        # elimination counts the permutation.
        ((("x1", "x1 + 1"), ("x1 + 1", "x1")), "numerically_zero"),
    ],
    ids=["pi-cancels", "pi-cancels-in-a-larger-b", "double-root", "pi", "opaque", "fixed-sign"],
)
def test_exact_rank_witnesses_need_exact_values(rows, kind):
    k, m = len(rows), len(rows[0])
    a = tuple(tuple(parse(e) for e in row) for row in rows)
    c2, _ = check_C2_C3(RelativeSupport(k + m, k, (0,) * m, a, (0,) * k))
    assert c2.verdict.kind == kind


def test_wit_index_is_the_fibre_dimension():
    assert wit_index(antidiagonal_support()) == 1
    assert wit_index(twisted_line_support()) == 2
    assert wit_index(SectionSupport((parse("x1"),))) == 0
    point_base = RelativeSupport(2, 0, (F(1, 3), F(1, 2)), (), ())
    assert wit_index(point_base) == 2


# ------------------------------------------------------- forward transform


def test_line_fixture_transforms_to_the_expected_bundle():
    b = transform_nontransversal(antidiagonal_support(), ANTIDIAGONAL_SYSTEM)
    assert (b.g, b.k, b.wit_index) == (2, 1, 1)
    assert exact(b.gamma_tilde[0][0], 1) == -1
    assert exact(b.varsigma[0], 1) == F(-1, 3)
    assert exact(b.fibre_turns[0], 1) == F(1, 4)
    assert b.holomorphic.kind == "proven_zero"
    assert b.alpha == ANTIDIAGONAL_SYSTEM.alpha


def test_fibre_trace_with_no_equations_is_the_whole_torus():
    whole = whole_torus(Torus(3))
    assert fm_relative._fibre_trace(Torus(3), 2, (), (), (F(1, 2), F(1, 3)))[0] == whole
    # The support slice at k = 0 and the dual slice at k = g have no equations.
    point_base = RelativeSupport(3, 0, (F(1, 3), F(1, 2), F(0)), (), ())
    assert fibre_support(point_base, ()) == whole
    section = SectionSupport(tuple(parse(f"x{j}") for j in (1, 2, 3)))
    bundle = transform_nontransversal(section, LocalSystemData((0, 0, 0), ()))
    assert fibre_of_transform(bundle, (F(1, 5), F(2, 3), F(3, 4))).support == whole
    with pytest.raises(ValueError, match="one coordinate per free base direction"):
        fibre_of_transform(bundle, (F(1, 5),))


def test_line_fixture_slices_match_the_absolute_transform():
    s = antidiagonal_support()
    b = transform_nontransversal(s, ANTIDIAGONAL_SYSTEM)
    base = (F(1, 5),)
    sl_in = fibre_system(s, ANTIDIAGONAL_SYSTEM, base)
    assert sl_in.support.eqns == IntMatrix([[1, -1]])
    assert sl_in.support.offset == (F(1, 4),)
    assert sl_in.holonomy == (F(1, 3),)

    res = absolute_transform(sl_in)
    sl_out = fibre_of_transform(b, base)
    assert sl_out == res.system
    assert res.wit_index == b.wit_index == 1
    assert sl_out.support.eqns == IntMatrix([[1, 1]])
    assert sl_out.support.offset == (F(1, 3),)
    assert sl_out.holonomy == (F(1, 4),)
    assert is_normal_to(sl_in.support, sl_out.support)


def test_parabolic_fixture_bundle_data():
    s = parabolic_support()
    b = transform_nontransversal(s, PARABOLIC_SYSTEM)
    assert b.wit_index == 1
    # Jacobian row of the base equation.
    assert_proven_zero(b.gamma_tilde[0][0] + num(1))
    assert_proven_zero(b.gamma_tilde[0][1] - parse("x2"))
    # The offset pairs the holonomy with the constant Jacobian column.
    assert exact(b.varsigma[0], 2) == F(-2, 7)
    assert_proven_zero(b.varsigma[0] - num(F(-2, 7)))
    # dw-row from the chart rewrite of the fibre offsets.
    assert_proven_zero(b.fibre_turns[0] - parse("x1"))
    assert_proven_zero(b.fibre_turns[1])
    for t1, t2 in zip(b.fibre_turns, fibre_turns_of(s)):
        assert_proven_zero(t1 - t2)
    # Varying slopes mean the dual support is not complex.
    assert b.holomorphic.kind == "proven_nonzero"


def test_parabolic_fixture_slices_match_the_absolute_transform():
    s = parabolic_support()
    b = transform_nontransversal(s, PARABOLIC_SYSTEM)
    for base in ((F(1, 3), F(1, 5)), (F(0), F(0)), (F(-2, 3), F(7, 5))):
        sl_in = fibre_system(s, PARABOLIC_SYSTEM, base)
        res = absolute_transform(sl_in)
        sl_out = fibre_of_transform(b, base)
        assert sl_out == res.system
        assert is_normal_to(sl_in.support, sl_out.support)


def test_point_base_transforms_to_a_point_fibre():
    # Base image a single point, fibres the whole angle torus: the dual
    # fibre is the single point located at the holonomy phases.
    s = RelativeSupport(2, 0, (F(1, 3), F(1, 2)), (), ())
    sys_in = LocalSystemData((), (F(1, 4), F(2, 3)))
    b = transform_nontransversal(s, sys_in)
    assert (b.k, b.wit_index) == (0, 2)
    assert b.gamma_tilde == ((), ())
    assert b.fibre_turns == ()
    assert b.holomorphic.kind == "proven_zero"
    assert [exact(e, 0) for e in b.varsigma] == [F(-1, 4), F(-2, 3)]

    sl_in = fibre_system(s, sys_in, ())
    assert sl_in.support.dim == 2
    res = absolute_transform(sl_in)
    sl_out = fibre_of_transform(b, ())
    assert sl_out == res.system
    # Located at minus the holonomy, as for the flat-to-point transform.
    assert sl_out.support.single_point().coords == (F(3, 4), F(1, 3))


def test_bundle_shape_validation():
    with pytest.raises(ValueError, match="one dual fibre equation"):
        TransformedBundle(
            2, 1, (), ((ZERO,),), (ZERO,), (ZERO,), (ZERO,),
            Verdict.proven_zero(),
        )
    with pytest.raises(ValueError, match="one connection coefficient"):
        TransformedBundle(
            2, 1, (ZERO,), ((ZERO,),), (ZERO,), (), (ZERO,),
            Verdict.proven_zero(),
        )


def test_bundle_given_as_input_is_validated():
    with pytest.raises(ValueError, match="need g >= 1"):
        TransformedBundle(2, 3, (), (), (), (), ())
    with pytest.raises(ValueError, match="dual fibre coefficients may depend on x1..x1 only"):
        TransformedBundle(2, 1, (0,), ((parse("x2"),),), (0,), (0,), (0,))
    with pytest.raises(ValueError, match="connection coefficients"):
        TransformedBundle(2, 1, (0,), ((0,),), (0,), (0,), (parse("x2"),))
    b = TransformedBundle(3, 1, (0, 0), ((0,), (0,)), (0, 0), (0,), (0,))
    assert b.holomorphic is None
    assert b.wit_index == 2
    assert dual_input_from_bundle(b) is b


# ------------------------------------------------------------------ sections


def test_section_transform_matches_the_fibred_view():
    # Point fibre traces: the dual support is the whole dual fibration and
    # the dw-row is -epsilon.
    epsilon = (parse("x2 + 2*x1"), parse("x1"))
    sys_in = LocalSystemData((parse("x1"), 0), ())
    b = transform_nontransversal(SectionSupport(epsilon), sys_in)
    assert b.k == 2
    assert b.wit_index == 0
    assert b.zeta == b.gamma_tilde == b.varsigma == ()
    assert b.alpha == sys_in.alpha
    for t, e in zip(b.fibre_turns, epsilon, strict=True):
        assert_proven_zero(t + e)
    assert b.holomorphic.kind == "proven_zero"


def test_section_slice_is_its_graph_point():
    s = SectionSupport((parse("x2 + 2*x1"), parse("x1")))
    sup = fibre_support(s, (F(1, 3), F(1, 7)))
    assert sup.dim == 0
    assert sup.single_point().coords == (F(17, 21), F(1, 3))


def test_section_with_asymmetric_jacobian_is_rejected():
    s = SectionSupport((parse("x2^2"), 0))
    with pytest.raises(ConditionError) as exc:
        transform_nontransversal(s, LocalSystemData((0, 0), ()))
    assert exc.value.condition == "C1"
    assert exc.value.report.failures == ("dx1^dx2",)


def test_section_with_nonclosed_connection_is_rejected():
    s = SectionSupport((parse("x1"), parse("x2")))
    with pytest.raises(ConditionError) as exc:
        transform_nontransversal(s, LocalSystemData((parse("x2"), 0), ()))
    assert exc.value.condition == "flat"
    assert exc.value.report.failures == ("dalpha[1][2]",)


def test_section_round_trip():
    s = SectionSupport((parse("x2 + 2*x1"), parse("x1")))
    sys_in = LocalSystemData((parse("x1"), 0), ())
    b = transform_nontransversal(s, sys_in)
    inv = inverse_transform(dual_input_from_bundle(b))
    assert inv.wit_index == 2
    assert inv.support.zeta == ()
    assert inv.support.a == ((), ())
    assert inv.system.xi == ()
    for c, e in zip(inv.support.chi, s.chi):
        assert_proven_zero(c - e)
    for a_out, a_in in zip(inv.system.alpha, sys_in.alpha):
        assert_proven_zero(a_out - a_in)


@pytest.mark.parametrize(
    "s",
    [RelativeSupport(3, 2, (parse("-x1"),), ((0,), (1,)), (0, 0)), SectionSupport((0, 0))],
    ids=["k=2", "section"],
)
def test_transform_rejects_a_nonclosed_connection(s):
    sys_in = LocalSystemData((parse("x2"), 0), (F(1, 3),) * s.fibre_dim)
    assert check_C1_lagrangian(s).holds
    with pytest.raises(ConditionError) as exc:
        transform_nontransversal(s, sys_in)
    assert exc.value.condition == "flat"
    assert exc.value.report.failures == ("dalpha[1][2]",)


# ---------------------------------------------------------------- curvature


def test_hodge_components_of_an_antisymmetric_turn_row():
    f20, f11, f02 = hodge_components((), (parse("x2"), 0))
    p = (0.3, 0.8)
    half_pi = math.pi / 2
    assert abs(eval_at(f20[1][0], p) - half_pi) < 1e-12
    assert abs(eval_at(f20[0][1], p) + half_pi) < 1e-12
    assert abs(eval_at(f11[1][0], p) + half_pi) < 1e-12
    assert abs(eval_at(f11[0][1], p) + half_pi) < 1e-12
    for a in range(2):
        for b in range(2):
            assert_proven_zero(f02[a][b] + f20[a][b])
            assert_proven_zero(f20[a][a])


def test_gradient_section_curvature_is_pure_f11():
    # epsilon is the gradient of x1*x2 + x1^2, so the Jacobian is
    # symmetric and the only surviving type is (1,1), pi times it.
    s = SectionSupport((parse("x2 + 2*x1"), parse("x1")))
    f20, f11, f02 = curvature_hodge(s)
    p = (0.42, 0.17)
    want = [[2 * math.pi, math.pi], [math.pi, 0.0]]
    for a in range(2):
        for b in range(2):
            assert_proven_zero(f20[a][b])
            assert_proven_zero(f02[a][b])
            assert abs(eval_at(f11[a][b], p) - want[a][b]) < 1e-12


def test_curvature_reassembles_to_finite_differences():
    # Oracle first: central differences of the dw-row at a sample point
    # give 2 pi d(turns); the three Hodge grids must reassemble to it.
    s = SectionSupport((parse("x2^2"), 0))
    turns = tuple(-e for e in s.chi)
    p = (0.35, 0.81)
    want = [
        [2 * math.pi * fd_partial(turns[b], p, a + 1) for b in range(2)]
        for a in range(2)
    ]
    f20, f11, f02 = curvature_hodge(s)
    for a in range(2):
        for b in range(2):
            got = (
                eval_at(f20[a][b], p)
                - eval_at(f02[a][b], p)
                - eval_at(f11[a][b], p)
                - eval_at(f11[b][a], p)
            )
            assert abs(got - want[a][b]) < 1e-6
    v = is_zero(f02[1][0])
    assert not v.is_zero


def test_curvature_rejects_nonclosed_dx_row():
    with pytest.raises(ConditionError) as exc:
        hodge_components((parse("x2"), 0), (0, 0))
    assert exc.value.condition == "flat"


def test_f02_tracks_the_lagrangian_curl():
    # For a Lagrangian input the curl vanishes and so does F02.
    s = parabolic_support()
    b = transform_nontransversal(s, PARABOLIC_SYSTEM)
    assert check_F02_iff_lagrangian(s, b).kind == "proven_zero"
    _, _, f02 = curvature_hodge(b)
    for row in f02:
        for e in row:
            assert_proven_zero(e)

    # For a non-Lagrangian input the identity still holds, with both
    # sides nonzero: F02 is pi/2 times the curl, entry by entry.
    s_bad = RelativeSupport(
        3,
        2,
        s.zeta,
        s.a,
        (parse("x1*x2"), parse("x1")),
    )
    manual = TransformedBundle(
        g=3,
        k=2,
        zeta=s_bad.zeta,
        gamma_tilde=((num(-1), parse("x2")),),
        varsigma=(ZERO,),
        alpha=(ZERO, ZERO),
        fibre_turns=fibre_turns_of(s_bad),
        holomorphic=Verdict.proven_nonzero(),
    )
    assert check_F02_iff_lagrangian(s_bad, manual).kind == "proven_zero"
    _, _, f02 = curvature_hodge(manual)
    p = (0.3, 0.6)
    assert abs(eval_at(f02[1][0], p) + math.pi * p[1]) < 1e-12


def test_f02_check_rejects_a_bundle_of_another_shape():
    rng = random.Random(31)
    line, line_system = polynomial_instance(3, 1, rng)
    line_bundle = transform_nontransversal(line, line_system)
    section, section_system = section_instance(3, rng)
    section_bundle = transform_nontransversal(section, section_system)
    wide, wide_system = polynomial_instance(4, 1, rng)
    wide_bundle = transform_nontransversal(wide, wide_system)
    for s, bundle in ((section, line_bundle), (line, section_bundle), (line, wide_bundle), (wide, line_bundle)):
        with pytest.raises(ValueError, match="must match"):
            check_F02_iff_lagrangian(s, bundle)
    for s, bundle in ((line, line_bundle), (section, section_bundle), (wide, wide_bundle)):
        assert check_F02_iff_lagrangian(s, bundle).kind == "proven_zero"


@pytest.mark.parametrize("data", [None, (parse("x1"),), LocalSystemData((0,), ())])
def test_curvature_needs_a_support_or_a_bundle(data):
    with pytest.raises(ValueError, match="RelativeSupport or a TransformedBundle"):
        curvature_hodge(data)


# ------------------------------------------------- dual-side conditions


def test_dual_conditions_on_a_transformed_bundle():
    b = transform_nontransversal(twisted_line_support(), TWISTED_SYSTEM)
    d1, d2, d3 = check_D_conditions(dual_input_from_bundle(b))
    assert d1.name == "D1" and d1.holds and d1.verdict.proven
    assert d2.name == "D2" and d2.holds
    assert d3.name == "D3" and d3.verdict.kind == "proven_zero"


def test_dual_condition_failures_are_named():
    bad_p = TransformedBundle(
        2, 1, (0,), ((parse("x1"),),), (0,), (0,), (0,)
    )
    d1, _, _ = check_D_conditions(bad_p)
    assert not d1.holds
    assert d1.failures == ("P[1][1]",)

    bad_q = TransformedBundle(
        2, 1, (0,), ((0,),), (parse("x1"),), (0,), (0,)
    )
    d1, _, _ = check_D_conditions(bad_q)
    assert d1.failures == ("Q[1]",)

    bad_alpha = TransformedBundle(
        3, 2, (0,), ((0, 0),), (0,), (parse("x2"), 0), (0, 0)
    )
    _, d2, _ = check_D_conditions(bad_alpha)
    assert not d2.holds
    assert d2.failures == ("dalpha[1][2]",)
    with pytest.raises(ConditionError) as exc:
        inverse_transform(bad_alpha)
    assert exc.value.condition == "D2"


def test_inverse_rejects_varying_fibre_coefficients():
    b = transform_nontransversal(parabolic_support(), PARABOLIC_SYSTEM)
    with pytest.raises(ConditionError) as exc:
        inverse_transform(dual_input_from_bundle(b))
    assert exc.value.condition == "D1"
    assert "P[1][2]" in exc.value.report.failures


def test_inverse_needs_rational_coefficients():
    b = TransformedBundle(2, 1, (0,), ((PI,),), (0,), (0,), (0,))
    with pytest.raises(ValueError, match="rational constant"):
        inverse_transform(b)


def test_inverse_raises_the_first_failing_check():
    # Each bundle fails two checks; the one named is D1, then D2, then
    # the need for rational constants, then the chart.
    curled, closed = (parse("x2"), 0), (parse("x1"), parse("x2"))
    varying_p = TransformedBundle(3, 2, (0,), ((parse("x1"), 0),), (0,), curled, (0, 0))
    pi_in_p = TransformedBundle(3, 2, (0,), ((PI, 0),), (0,), curled, (0, 0))
    for b, condition in ((varying_p, "D1"), (pi_in_p, "D2")):
        with pytest.raises(ConditionError) as exc:
            inverse_transform(b)
        assert exc.value.condition == condition
    # M_last = [[0, 0], [1, 5/2]] is singular for P = ((0, 5/2),).
    pi_in_q = TransformedBundle(3, 2, (0,), ((0, F(5, 2)),), (PI,), closed, (0, 0))
    with pytest.raises(ValueError, match="rational constant") as exc:
        inverse_transform(pi_in_q)
    assert not isinstance(exc.value, ConditionError)
    singular = TransformedBundle(3, 2, (0,), ((0, F(5, 2)),), (F(1, 3),), closed, (0, 0))
    with pytest.raises(ConditionError) as exc:
        inverse_transform(singular)
    assert exc.value.condition == "chart"


def test_the_flat_verdict_stays_off_the_bundle_fields():
    s, system = gauged_instance(5, 3, random.Random(53))
    b = transform_nontransversal(s, system)
    twin = TransformedBundle(b.g, b.k, b.zeta, b.gamma_tilde, b.varsigma, b.alpha, b.fibre_turns, b.holomorphic)
    assert vars(b)["_flat"].kind == "proven_zero" and "_flat" not in vars(twin)
    assert b == twin and twin == b
    assert (hash(b), repr(b)) == (hash(twin), repr(twin))
    assert len({b, twin}) == 1


def test_d2_reuses_only_a_proven_flatness(monkeypatch):
    s, system = gauged_instance(5, 3, random.Random(35))
    calls = []
    real = fm_relative._closure_report

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fm_relative, "_closure_report", counted)
    b = transform_nontransversal(s, system)
    assert len(calls) == 1
    inverse_transform(b, 1e-6, 5)
    assert check_D_conditions(b, 1e-6, 5)[1] == fm_relative.ConditionReport("D2", Verdict.proven_zero())
    assert len(calls) == 1
    # A numerical verdict is recomputed, with the caller's tol and grid.
    object.__setattr__(b, "_flat", Verdict.numerically_zero(1e-9))
    inverse_transform(b, 1e-6, 5)
    assert calls[1:] == [(b.alpha, 1e-6, 5, "D2")]
    # So is a missing one: a hand-built bundle with a curl still fails D2.
    curled = TransformedBundle(b.g, b.k, b.zeta, b.gamma_tilde, b.varsigma, (parse("x2"), 0, 0), b.fibre_turns)
    with pytest.raises(ConditionError) as exc:
        inverse_transform(curled)
    assert exc.value.condition == "D2" and exc.value.report.failures == ("dalpha[1][2]",)


def test_cauchy_riemann_check():
    b = dual_input_from_bundle(
        transform_nontransversal(twisted_line_support(), TWISTED_SYSTEM)
    )
    rep = check_cauchy_riemann(b)
    assert rep.name == "cauchy-riemann"
    assert rep.holds and rep.verdict.proven

    skew = TransformedBundle(
        3, 1, (parse("2*x1"), parse("-x1")), ((2,), (0,)), (0, 0), (0,), (0,)
    )
    rep = check_cauchy_riemann(skew)
    assert not rep.holds
    assert rep.failures == ("P[2][1]",)


def test_flat_dual_support_is_not_a_graph():
    # Zero slopes and offsets with k < g: the dual fibre equations
    # degenerate and no solved-form support exists on the other side.
    b = TransformedBundle(2, 1, (0,), ((0,),), (0,), (0,), (0,))
    with pytest.raises(ConditionError) as exc:
        inverse_transform(b)
    assert exc.value.condition == "chart"
    assert "graph over the angles" in str(exc.value)


def test_trivial_bundle_inverts_to_the_zero_section():
    # With k = g there are no angle constraints to re-solve and the
    # trivial bundle comes back as the zero section with no twist.
    b = TransformedBundle(2, 2, (), (), (), (0, 0), (0, 0))
    inv = inverse_transform(b)
    assert inv.wit_index == 2
    assert inv.support.a == ((), ())
    assert inv.system.xi == ()
    for e in inv.support.chi:
        assert_proven_zero(e)
    for e in inv.system.alpha:
        assert_proven_zero(e)


# ------------------------------------------------------------- round trips


def test_line_fixture_round_trip_is_exact():
    s = antidiagonal_support()
    b = transform_nontransversal(s, ANTIDIAGONAL_SYSTEM)
    inv = inverse_transform(dual_input_from_bundle(b))
    assert inv.support.zeta == s.zeta
    assert inv.wit_index == 1
    assert exact(inv.support.a[0][0], 1) == 1
    assert exact(inv.support.chi[0], 1) == F(1, 4)
    assert inv.system.xi == (F(1, 3),)
    assert_proven_zero(inv.system.alpha[0] - ANTIDIAGONAL_SYSTEM.alpha[0])


def test_twisted_line_round_trip_shifts_by_an_exact_gauge_term():
    s = twisted_line_support()
    b = transform_nontransversal(s, TWISTED_SYSTEM)
    assert b.holomorphic.kind == "proven_zero"
    assert [exact(e, 1) for e in b.varsigma] == [F(-1, 6), F(-1, 3)]
    assert_proven_zero(b.fibre_turns[0] - parse("x1^2"))

    inv = inverse_transform(dual_input_from_bundle(b))
    assert inv.support.zeta == s.zeta
    assert exact(inv.support.a[0][0], 1) == 1
    assert exact(inv.support.a[0][1], 1) == 2
    assert_proven_zero(inv.support.chi[0] - parse("x1^2"))
    assert inv.system.xi == (F(1, 3), F(5, 6))
    # The connection drifts by exactly -2 pi sum Q_c d chi_c, nothing else.
    assert_proven_zero(gauge_residual(s, TWISTED_SYSTEM, b, inv, 1))
    assert_proven_zero(
        inv.system.alpha[0] - TWISTED_SYSTEM.alpha[0] - num(F(4, 3)) * (PI * parse("x1"))
    )


def test_twisted_line_double_transform_reproduces_the_bundle():
    s = twisted_line_support()
    b = transform_nontransversal(s, TWISTED_SYSTEM)
    inv = inverse_transform(dual_input_from_bundle(b))
    b2 = transform_nontransversal(inv.support, inv.system)
    for e1, e2 in zip(b.varsigma, b2.varsigma):
        assert_proven_zero(e1 - e2)
    for e1, e2 in zip(b.fibre_turns, b2.fibre_turns):
        assert_proven_zero(e1 - e2)
    base = (F(1, 7),)
    assert fibre_of_transform(b2, base) == fibre_of_transform(b, base)


# ----------------------------------------------------- generated instances


CONSTANT_SHAPES = [(g, k) for g in range(1, 5) for k in range(0, g + 1)]
MIXED_SHAPES = [(g, k) for g in range(2, 5) for k in range(1, g)]


def rational_base_point(rng, k):
    return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(k))


def assert_slices_match(s, sys_in, bundle, base):
    sl_in = fibre_system(s, sys_in, base)
    res = absolute_transform(sl_in)
    sl_out = fibre_of_transform(bundle, base)
    assert sl_out == res.system
    assert res.wit_index == bundle.wit_index
    assert is_normal_to(sl_in.support, sl_out.support)


def _slice_from_fractions(g, slopes, offsets, base, phases):
    """The slice y_{g-n+i} = sum_j slopes[i][j] y_j + offsets[i] at base, from Fraction values.

    Each row is scaled to integers by the lcm of its denominators and
    canonicalised by the public constructor; each direction's holonomy
    is its pairing with the phases.
    """
    n = len(offsets)
    rows, shifts = [], []
    for i, (row, c) in enumerate(zip(slopes, offsets)):
        vals = [-eval_exact(e, base) for e in row] + [F(int(i == l)) for l in range(n)]
        shift = -eval_exact(c, base)
        d = math.lcm(*(v.denominator for v in vals), shift.denominator)
        rows.append([int(v * d) for v in vals])
        shifts.append(shift * d)
    sup = subtorus_from_equations(Torus(g), IntMatrix(rows, g), shifts)
    hol = [sum(x * p for x, p in zip(d, phases)) for d in sup.direction_basis().rows]
    return SubtorusLocalSystem(sup, hol)


def _degree(e):
    return max((sum(k for _, k in mono) for mono, _ in e.terms), default=0)


def _slice_instances():
    """Polynomial instances with varying slopes and offsets of degree 2 or more, and k = 0, g."""
    for g, k in ((3, 2), (4, 2), (4, 3), (5, 3), (6, 3), (6, 4)):
        for seed in itertools.count():
            s, system = polynomial_instance(g, k, random.Random(seed))
            if (
                any(not is_constant(e) for row in s.a for e in row)
                and max(map(_degree, s.chi)) >= 2
                and check_C2_C3(s)[0].holds
            ):
                yield s, system
                break
    for g in (1, 3, 5):
        yield constant_instance(g, 0, random.Random(g))
        yield section_instance(g, random.Random(g))


def test_slices_equal_slices_built_from_fraction_values():
    bases = [(F(1, 3), F(-2, 7), F(5, 9), F(4, 11)), (F(7, 5), F(1, 6), F(-3, 13), F(2, 3))]
    cases = 0
    for s, system in _slice_instances():
        bundle = transform_nontransversal(s, system)
        for base in bases:
            base = base[: s.k] + (F(1, 3),) * (s.k - len(base))
            sl_in = fibre_system(s, system, base)
            assert sl_in == _slice_from_fractions(s.g, s.a, s.chi, base, system.xi)
            assert fibre_support(s, base) == sl_in.support
            turns = [eval_exact(e, base) for e in bundle.fibre_turns]
            sl_out = fibre_of_transform(bundle, base)
            assert sl_out == _slice_from_fractions(s.g, bundle.gamma_tilde, bundle.varsigma, base, turns)
            assert absolute_transform(sl_in).system == sl_out
            cases += 1
    assert cases == 2 * (6 + 6)


# (maker, g, k): constant slopes with varying offsets, polynomial slopes that
# are constant for some seeds and vary for others, k = 0 and sections.
RESLICE_SHAPES = [
    (gauged_instance, 3, 2), (gauged_instance, 5, 3), (polynomial_instance, 3, 2),
    (polynomial_instance, 4, 2), (polynomial_instance, 5, 3), (polynomial_instance, 4, 1),
    (constant_instance, 3, 0), (constant_instance, 4, 0), (section_instance, 2, 2), (section_instance, 3, 3),
]
_BASE_ENTRY = st.builds(F, st.integers(-6, 6), st.integers(1, 7))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(RESLICE_SHAPES),
    st.integers(0, 10**6),
    st.lists(st.tuples(*[_BASE_ENTRY] * 3), min_size=5, max_size=10, unique=True),
)
def test_repeated_slices_of_one_support_equal_slices_from_fractions(shape, seed, bases):
    """One support and its transform sliced at several base points in turn.

    A fibre lattice kept from an earlier point must serve a later one only
    when the slopes are rational constants.
    """
    make, g, k = shape
    s, system = make(g, random.Random(seed)) if make is section_instance else make(g, k, random.Random(seed))
    bundle = transform_nontransversal(s, system)
    for base in bases:
        base = base[:k]
        sl_in = fibre_system(s, system, base)
        assert sl_in == _slice_from_fractions(g, s.a, s.chi, base, system.xi)
        turns = [eval_exact(e, base) for e in bundle.fibre_turns]
        sl_out = fibre_of_transform(bundle, base)
        assert sl_out == _slice_from_fractions(g, bundle.gamma_tilde, bundle.varsigma, base, turns)
    for holder, slopes in ((s, s.a), (bundle, bundle.gamma_tilde)):
        lattice = vars(holder)["_slices"][2]
        assert (lattice is not None) == all(is_constant(e) for row in slopes for e in row)


def test_a_kept_fibre_lattice_stays_off_the_fields():
    s, system = gauged_instance(5, 3, random.Random(24))
    bundle = transform_nontransversal(s, system)
    twins = (
        RelativeSupport(s.g, s.k, s.zeta, s.a, s.chi),
        TransformedBundle(*(getattr(bundle, f) for f in ("g", "k", "zeta", "gamma_tilde", "varsigma", "alpha",
                                                          "fibre_turns", "holomorphic"))),
    )
    base = (F(1, 3), F(-2, 5), F(4, 7))
    fibre_system(s, system, base)
    fibre_of_transform(bundle, base)
    for kept, twin in zip((s, bundle), twins):
        assert "_slices" in vars(kept) and "_slices" not in vars(twin)
        assert kept == twin and twin == kept
        assert (hash(kept), repr(kept)) == (hash(twin), repr(twin))
        assert len({kept, twin}) == 1


def _twins(s, bundle):
    """New copies of a support and a bundle, with nothing kept on them."""
    return (
        RelativeSupport(s.g, s.k, s.zeta, s.a, s.chi),
        TransformedBundle(*(getattr(bundle, f) for f in ("g", "k", "zeta", "gamma_tilde", "varsigma", "alpha",
                                                          "fibre_turns", "holomorphic"))),
    )


@functools.cache
def _kept_instances():
    """Constant, polynomial and degree-2 offset instances, k = 0 and sections, with their transforms."""
    made = [gauged_instance(g, k, random.Random(g + k)) for g, k in ((3, 1), (4, 2), (5, 3))]
    made += list(_slice_instances())
    return [(s, system, transform_nontransversal(s, system)) for s, system in made]


@settings(max_examples=30, deadline=None)
@given(st.data(), st.lists(st.tuples(*[_BASE_ENTRY] * 5), min_size=3, max_size=6, unique=True))
def test_kept_slice_tables_give_the_slices_of_fresh_copies(data, bases):
    """One support and its transform keep their tables across base points; new copies start afresh."""
    s, system, bundle = data.draw(st.sampled_from(_kept_instances()))
    for base in bases:
        base = base[: s.k]
        fresh, fresh_bundle = _twins(s, bundle)
        assert fibre_system(s, system, base) == fibre_system(fresh, system, base)
        assert fibre_of_transform(bundle, base) == fibre_of_transform(fresh_bundle, base)
    for holder, slopes in ((s, s.a), (bundle, bundle.gamma_tilde)):
        lattice = vars(holder)["_slices"][2]
        assert (lattice is not None) == all(is_constant(e) for row in slopes for e in row)


def test_slices_without_exact_values_raise_and_keep_nothing():
    """pi or a sin in an offset or a turn: the same ValueError on every slice, and no kept tables."""
    base = (F(1, 3), F(-2, 5))
    zeta, slopes = (var(1), var(2)), ((F(1, 2), 3), (-1, F(2, 3)))
    for bad in (PI * var(1), sin(var(2)), num(F(1, 2)) + cos(PI * var(1))):
        s = RelativeSupport(4, 2, zeta, slopes, (bad, var(1)))
        holders = [(s, lambda b, s=s: fibre_support(s, b))]
        for varsigma, turns in (((var(2), bad), (ONE, ZERO)), ((var(2), ZERO), (ONE, bad))):
            bundle = TransformedBundle(4, 2, zeta, slopes, varsigma, (ZERO, ZERO), turns)
            holders.append((bundle, lambda b, bundle=bundle: fibre_of_transform(bundle, b)))
        for holder, slicer in holders:
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError) as caught:
                    slicer(base)
                messages.append(str(caught.value))
                assert "_slices" not in vars(holder)
            assert messages[0] == messages[1]


def bundle_expressions(bundle):
    for row in bundle.gamma_tilde:
        yield from row
    yield from bundle.varsigma
    yield from bundle.fibre_turns


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONSTANT_SHAPES), st.integers(0, 10**6))
def test_constant_instances_round_trip_exactly(shape, seed):
    g, k = shape
    rng = random.Random(seed)
    s, sys_in = constant_instance(g, k, rng)
    c1 = check_C1_lagrangian(s)
    assert c1.holds and c1.verdict.proven
    c2, c3 = check_C2_C3(s)
    assert c2.holds and c3.holds

    bundle = transform_nontransversal(s, sys_in)
    assert bundle.holomorphic.kind == "proven_zero"
    assert bundle.wit_index == g - k
    assert all(max_var(e) <= k for e in bundle_expressions(bundle))
    assert_slices_match(s, sys_in, bundle, rational_base_point(rng, k))

    inv = inverse_transform(dual_input_from_bundle(bundle))
    assert inv.wit_index == k
    assert inv.support.zeta == s.zeta
    assert inv.system.xi == sys_in.xi
    for row_in, row_out in zip(s.a, inv.support.a):
        for e_in, e_out in zip(row_in, row_out):
            assert_proven_zero(e_in - e_out)
    for e_in, e_out in zip(s.chi, inv.support.chi):
        assert_proven_zero(e_in - e_out)
    for e_in, e_out in zip(sys_in.alpha, inv.system.alpha):
        assert_proven_zero(e_in - e_out)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MIXED_SHAPES), st.integers(0, 10**6))
def test_polynomial_instances_transform_fibrewise(shape, seed):
    g, k = shape
    rng = random.Random(seed)
    s, sys_in = polynomial_instance(g, k, rng)
    c1 = check_C1_lagrangian(s)
    assert c1.holds and c1.verdict.proven
    c2, c3 = check_C2_C3(s)
    assume(c2.holds)

    bundle = transform_nontransversal(s, sys_in)
    # The dual support is complex exactly when the slopes are constant.
    assert bundle.holomorphic.is_zero == c3.holds
    assert all(max_var(e) <= k for e in bundle_expressions(bundle))
    assert check_F02_iff_lagrangian(s, bundle).kind == "proven_zero"
    assert_slices_match(s, sys_in, bundle, rational_base_point(rng, k))


def test_inverse_returns_the_gauge_term_it_subtracts():
    s = twisted_line_support()
    inv = inverse_transform(transform_nontransversal(s, TWISTED_SYSTEM))
    # 2 pi d(Q_3 chi_1) with Q_3 = -1/3 and chi_1 = x1^2.
    assert_proven_zero(inv.system.alpha[0] - (TWISTED_SYSTEM.alpha[0] - parse("-4/3*pi*x1")))
    # Constant offsets: no gauge term, alpha comes back unchanged.
    inv = inverse_transform(transform_nontransversal(antidiagonal_support(), ANTIDIAGONAL_SYSTEM))
    assert inv.system.alpha == ANTIDIAGONAL_SYSTEM.alpha


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(g, k) for g in range(1, 5) for k in range(1, g + 1)]),
       st.integers(0, 10**6))
def test_gauged_instances_return_up_to_the_gauge_term(shape, seed):
    g, k = shape
    rng = random.Random(seed)
    s, sys_in = gauged_instance(g, k, rng)
    c1 = check_C1_lagrangian(s)
    assert c1.holds and c1.verdict.proven

    bundle = transform_nontransversal(s, sys_in)
    assert bundle.holomorphic.kind == "proven_zero"
    assert_slices_match(s, sys_in, bundle, rational_base_point(rng, k))

    inv = inverse_transform(dual_input_from_bundle(bundle))
    assert inv.support.zeta == s.zeta
    assert inv.system.xi == sys_in.xi
    assert all(max_var(e) <= k for e in inv.support.chi)
    for row_in, row_out in zip(s.a, inv.support.a):
        for e_in, e_out in zip(row_in, row_out):
            assert_proven_zero(e_in - e_out)
    for e_in, e_out in zip(s.chi, inv.support.chi):
        assert_proven_zero(e_in - e_out)
    for j in range(1, k + 1):
        assert_proven_zero(gauge_residual(s, sys_in, bundle, inv, j))


def seeded_constant_bundle(g, k, rng):
    """A bundle with constant rational P and Q and its data: (bundle, P, Q, alpha, beta).

    alpha is a closed linear form plus constants, so D1 and D2 hold; beta
    mixes polynomials, pi and characters, so the offsets and the gauge term
    vary.  About one entry of P in four is 0, which makes some charts
    singular.
    """
    m_free = g - k

    def rat():
        if rng.random() < 0.25:
            return 0
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 7)))

    p = [[rat() for _ in range(k)] for _ in range(m_free)]
    q = [rat() for _ in range(m_free)]
    xs = [var(j) for j in range(1, k + 1)]
    sym = [[rat() for _ in range(k)] for _ in range(k)]
    alpha = [num(rat()) + sum((sym[min(i, j)][max(i, j)] * xs[i] for i in range(k)), ZERO)
             for j in range(k)]
    beta = []
    for _ in range(k):
        i, j = rng.randrange(k), rng.randrange(k)
        e = num(rat()) + rat() * xs[i] * xs[j] + rat() * PI * xs[j]
        e = e + rat() * (sin(xs[i]) if rng.random() < 0.5 else cos(2 * PI * xs[j]))
        beta.append(e)
    zeta = [sum((c * x for c, x in zip(row, xs)), num(rat())) for row in p]
    bundle = TransformedBundle(g, k, zeta, p, q, alpha, beta)
    return bundle, p, q, alpha, beta


def textbook_inverse(g, k, p, q, alpha, beta):
    """(a, chi, xi, alpha) of the inverse transform by the formulas, or None for no chart.

    M[l][c] = delta + P^c_l; the inverse of its last k columns comes from
    the oracle's Gauss-Jordan, a = -M_last^-1 M_free and chi = -M_last^-1 beta;
    xi_m = -Q_(m+1) - sum_l Q_(g-k+l+1) a[l][m] mod 1, and alpha loses
    2 pi d_j(sum_l Q_(g-k+l+1) chi_l), where Q_c is 0 for c <= k.
    """
    m_free = g - k
    m = [[int(c == l) + (p[c - k - 1][l - 1] if c > k else 0) for c in range(1, g + 1)]
         for l in range(1, k + 1)]
    inv = rational_inverse([row[m_free:] for row in m])
    if inv is None:
        return None
    a = [[-sum(inv[l][i] * m[i][c] for i in range(k)) for c in range(m_free)] for l in range(k)]
    chi = [sum((-inv[l][i] * beta[i] for i in range(k)), ZERO) for l in range(k)]

    def q_of(c):
        return q[c - k - 1] if c > k else 0

    xi = [(-q_of(c + 1) - sum(q_of(m_free + l + 1) * a[l][c] for l in range(k))) % 1
          for c in range(m_free)]
    potential = sum((q_of(m_free + l + 1) * chi[l] for l in range(k)), ZERO)
    alpha_out = [e - 2 * PI * diff(potential, j) for j, e in enumerate(alpha, 1)]
    return a, chi, xi, alpha_out


@pytest.mark.parametrize("g", range(3, 12))
def test_inverse_matches_the_textbook_formula(g):
    charts = 0
    for k in range(1, g):
        for seed in range(3):
            rng = random.Random(1000 * g + 10 * k + seed)
            bundle, p, q, alpha, beta = seeded_constant_bundle(g, k, rng)
            ref = textbook_inverse(g, k, p, q, alpha, beta)
            if ref is None:
                with pytest.raises(ConditionError) as exc:
                    inverse_transform(bundle)
                assert exc.value.condition == "chart"
                continue
            charts += 1
            a, chi, xi, alpha_out = ref
            inv = inverse_transform(bundle)
            assert [[to_str(e) for e in row] for row in inv.support.a] == [
                [to_str(num(e)) for e in row] for row in a
            ]
            assert [to_str(e) for e in inv.support.chi] == [to_str(e) for e in chi]
            assert list(inv.system.xi) == xi
            assert [to_str(e) for e in inv.system.alpha] == [to_str(e) for e in alpha_out]
    assert charts >= g - 1


def _negative_determinant_bundles():
    """Bundles with Q over mixed denominators whose chart block M_last has a negative determinant."""
    x1, x2, x3 = var(1), var(2), var(3)
    f = Fraction
    # g = 2, k = 1: M_last = [[P11]].
    yield TransformedBundle(2, 1, [2 * x1], [[f(-3, 2)]], [f(5, 6)], [x1], [x1 ** 2 + sin(x1)])
    # g = 5, k = 2: M_last = [[P21, P31], [P22, P32]].
    p = [[f(1, 2), f(2, 3)], [f(-3, 5), f(1, 7)], [f(2, 3), f(5, 2)]]
    yield TransformedBundle(
        5, 2, [x1 - x2, 3 * x2, num(f(1, 4))], p, [f(1, 2), f(-2, 3), f(3, 5)],
        [x2, x1], [PI * x1 * x2, cos(2 * PI * x2) + f(1, 3)],
    )
    # g = 4, k = 3: det M_last = P11.
    yield TransformedBundle(
        4, 3, [x3 - x1], [[f(-7, 4), f(1, 6), 2]], [f(-5, 9)],
        [num(1), x3, x2], [x1 * x3, f(2, 5) * x2, sin(x1) - 1],
    )


def test_trusted_inverse_outputs_equal_validated_copies():
    bundles = [
        seeded_constant_bundle(g, k, random.Random(1000 * g + 10 * k + seed))[0]
        for g in range(3, 12) for k in range(1, g) for seed in range(3)
    ]
    special = list(_negative_determinant_bundles())
    for b in special:
        m_free = b.g - b.k
        last = [[int(c == l) + (b.gamma_tilde[c - b.k - 1][l - 1] if c > b.k else ZERO)
                 for c in range(m_free + 1, b.g + 1)] for l in range(1, b.k + 1)]
        assert naive_det(RatMatrix([[eval_exact(e, ()) for e in row] for row in last])) < 0
        assert len({eval_exact(q, ()).denominator for q in b.varsigma}) == len(b.varsigma)
    inverses = 0
    for b in bundles + special:
        try:
            inv = inverse_transform(b)
        except ConditionError as exc:
            assert exc.condition == "chart"
            continue
        inverses += 1
        s, sy = inv.support, inv.system
        assert RelativeSupport(s.g, s.k, s.zeta, s.a, s.chi) == s
        assert LocalSystemData(sy.alpha, sy.xi) == sy
        assert all(type(x) is Fraction and 0 <= x < 1 for x in sy.xi)
        exprs = [*s.zeta, *(e for row in s.a for e in row), *s.chi, *sy.alpha]
        assert all(type(e) is Expr and coefficients_are_normal(e) for e in exprs)
    assert inverses >= len(special) + 100
    # The special bundles against the formulas too.
    for b in special:
        p = [[eval_exact(e, ()) for e in row] for row in b.gamma_tilde]
        q = [eval_exact(e, ()) for e in b.varsigma]
        a, chi, xi, alpha_out = textbook_inverse(b.g, b.k, p, q, b.alpha, b.fibre_turns)
        inv = inverse_transform(b)
        assert inv.support.a == tuple(tuple(num(e) for e in row) for row in a)
        assert inv.support.chi == tuple(chi)
        assert list(inv.system.xi) == xi
        assert inv.system.alpha == tuple(alpha_out)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_section_instances_transform_and_return(g, seed):
    rng = random.Random(seed)
    s, sys_in = section_instance(g, rng)
    epsilon = s.chi
    b = transform_nontransversal(s, sys_in)
    assert (b.k, b.wit_index) == (g, 0)
    for t, e in zip(b.fibre_turns, epsilon, strict=True):
        assert_proven_zero(t + e)

    inv = inverse_transform(dual_input_from_bundle(b))
    assert inv.system.xi == ()
    for c, e in zip(inv.support.chi, epsilon, strict=True):
        assert_proven_zero(c - e)
    for a_out, a_in in zip(inv.system.alpha, sys_in.alpha):
        assert_proven_zero(a_out - a_in)
