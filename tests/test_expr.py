"""Expression grammar, calculus and the four-valued zero test."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusfm.expr import (
    MAX_DEPTH,
    PI,
    Cos,
    Mul,
    Num,
    ParseError,
    Pow,
    Sin,
    Var,
    Verdict,
    add,
    all_zero,
    cos_,
    diff,
    eval_at,
    eval_exact,
    is_constant,
    is_zero,
    linear_combination,
    mul,
    neg,
    normal_form,
    num,
    parse,
    pow_,
    sin_,
    sub,
    substitute,
    to_str,
    var,
    vars_of,
    weyl_points,
)

leaf = st.one_of(
    st.builds(lambda p, q: num(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 9)),
    st.just(PI),
    st.integers(1, 3).map(var),
)


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda t: add(*t)),
        pair.map(lambda t: sub(*t)),
        pair.map(lambda t: mul(*t)),
        children.map(neg),
        st.tuples(children, st.integers(0, 3)).map(lambda t: pow_(*t)),
        children.map(sin_),
        children.map(cos_),
    )


exprs = st.recursive(leaf, _extend, max_leaves=12)


# ---------------------------------------------------------------- parse/print


def test_parse_basics():
    assert parse("3/2") == Num(Fraction(3, 2))
    assert parse("-3/2") == Num(Fraction(-3, 2))
    assert parse("x1 + 2*x2") == add(var(1), mul(num(2), var(2)))
    assert parse("sin(pi*x1)^2") == pow_(sin_(mul(PI, var(1))), 2)
    assert parse("x12") == Var(12)
    assert parse("(x1 - x2)*x3") == mul(sub(var(1), var(2)), var(3))
    # Smart constructors fold what can be folded at parse time.
    assert parse("x1^0") == Num(1)
    assert parse("0*x1") == Num(0)
    assert parse("sin(0)") == Num(0)
    assert parse("cos(0)") == Num(1)


def test_parse_division_is_literal_only():
    assert parse("x1/2") == mul(var(1), num(Fraction(1, 2)))
    with pytest.raises(ParseError):
        parse("x1/x2")
    with pytest.raises(ParseError):
        parse("1/0")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as e:
        parse("x1 + y2")
    assert e.value.offset == 5
    with pytest.raises(ParseError) as e:
        parse("x1 @ x2")
    assert e.value.offset == 3
    with pytest.raises(ParseError) as e:
        parse("x0")
    assert e.value.offset == 0
    with pytest.raises(ParseError) as e:
        parse("(x1")
    assert "expected ')'" in str(e.value)
    with pytest.raises(ParseError):
        parse("x1 x2")
    with pytest.raises(ParseError):
        parse("x1^x2")
    with pytest.raises(ParseError):
        parse("")


def deep_text(shape, n):
    """An expression n levels of one shape deep."""
    if shape == "parentheses":
        return "(" * n + "x1" + ")" * n
    if shape == "minus signs":
        return "-" * n + "x1"
    return "+".join(["x1"] * n)


@pytest.mark.parametrize(
    "shape, offset",
    [("parentheses", MAX_DEPTH), ("minus signs", 3000 - MAX_DEPTH), ("sum", 3 * MAX_DEPTH - 1)],
)
def test_deep_expressions_raise_parse_error(shape, offset):
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as e:
        parse(deep_text(shape, 3000))
    assert e.value.offset == offset


@pytest.mark.parametrize(
    "shape, deepest", [("parentheses", MAX_DEPTH - 1), ("minus signs", MAX_DEPTH - 1), ("sum", MAX_DEPTH)]
)
def test_depth_limit_is_exact(shape, deepest):
    parse(deep_text(shape, deepest))
    with pytest.raises(ParseError, match="nested deeper"):
        parse(deep_text(shape, deepest + 1))


@pytest.mark.parametrize(
    "text",
    [
        "+".join(["x1"] * MAX_DEPTH),
        "*".join(["x1"] * MAX_DEPTH),
        "sin(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1),
    ],
    ids=["sum", "product", "nested sin"],
)
def test_tree_walkers_handle_the_deepest_accepted_tree(text):
    e = parse(text)
    assert parse(to_str(e)) == e
    d = diff(e, 1)
    assert normal_form(d) and normal_form(e)
    assert abs(eval_at(e, (0.5,))) > 0
    assert not is_zero(e).is_zero
    if "sin" not in text:
        assert eval_exact(e, (1,)) == (MAX_DEPTH if "+" in text else 1)
        assert eval_exact(d, (1,)) == MAX_DEPTH


def test_nested_trig_normal_forms_grow_linearly():
    # Each sin atom holds the key of its argument's normal form; escaping
    # that key anew at every level would double its size per level.
    def nested(n):
        return parse("sin(" * n + "x1" + ")" * n)

    sizes = [len(repr(normal_form(nested(n)))) for n in (10, 20)]
    assert sizes[1] < 3 * sizes[0]
    e = nested(20)
    assert is_zero(add(sin_(neg(e)), sin_(e))).kind == "proven_zero"
    assert is_zero(sub(cos_(neg(e)), cos_(e))).kind == "proven_zero"


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_print_parse_round_trip(e):
    assert parse(to_str(e)) == e


def test_printer_parenthesization():
    assert to_str(add(var(1), num(-3))) == "x1 + (-3)"
    assert to_str(mul(var(1), add(var(2), num(1)))) == "x1*(x2 + 1)"
    assert to_str(pow_(add(var(1), var(2)), 2)) == "(x1 + x2)^2"
    assert to_str(neg(mul(var(1), var(2)))) == "-(x1*x2)"
    assert to_str(sub(var(1), sub(var(2), var(3)))) == "x1 - (x2 - x3)"


# ---------------------------------------------------------------- calculus


def _nf_equal(a, b):
    return normal_form(sub(a, b)) == {}


def test_diff_known_values():
    x1, x2 = var(1), var(2)
    assert diff(pow_(x1, 3), 1) == Mul(num(3), Pow(x1, 2))
    assert diff(pow_(x1, 3), 2) == Num(0)
    assert _nf_equal(diff(sin_(mul(num(2), x1)), 1), mul(num(2), cos_(mul(num(2), x1))))
    assert _nf_equal(diff(cos_(x1), 1), neg(sin_(x1)))
    assert _nf_equal(diff(mul(x1, x2), 1), x2)
    assert diff(PI, 1) == Num(0)


@settings(max_examples=150, deadline=None)
@given(exprs, st.integers(1, 3))
def test_diff_matches_central_difference(e, j):
    point = [0.31, 0.67, 0.43]
    h = 1e-5
    up = list(point)
    dn = list(point)
    up[j - 1] += h
    dn[j - 1] -= h
    fd = (eval_at(e, up) - eval_at(e, dn)) / (2 * h)
    exact = eval_at(diff(e, j), point)
    scale = 1.0 + abs(exact) + abs(eval_at(e, point))
    assert abs(fd - exact) <= 1e-5 * scale


def test_substitute_and_eval():
    e = parse("x1^2 + sin(x2)")
    assert substitute(e, {2: num(0)}) == pow_(var(1), 2)
    assert eval_exact(parse("x1^2 - 1/3"), [Fraction(1, 2)]) == Fraction(-1, 12)
    with pytest.raises(ValueError, match="not a rational expression"):
        eval_exact(parse("pi*x1"), [Fraction(1)])
    with pytest.raises(ValueError, match="unbound variable"):
        eval_at(parse("x3"), [0.1, 0.2])


def test_vars_and_constant():
    assert vars_of(parse("x1*sin(x3) + pi")) == frozenset({1, 3})
    assert is_constant(parse("pi^2 - 3"))
    assert not is_constant(parse("cos(x2)"))


def test_linear_combination():
    e = linear_combination([Fraction(1, 2), 0, -2], [var(1), var(2), var(3)])
    assert _nf_equal(e, parse("x1/2 - 2*x3"))


# ---------------------------------------------------------------- zero test


def test_verdict_proven_zero_on_polynomials():
    assert is_zero(parse("x1 - x1")).kind == "proven_zero"
    assert is_zero(parse("(x1 + 1)^2 - x1^2 - 2*x1 - 1")).kind == "proven_zero"
    assert is_zero(parse("pi*x1 - x1*pi")).kind == "proven_zero"


def test_verdict_proven_nonzero_on_polynomials():
    assert is_zero(parse("pi*x1")).kind == "proven_nonzero"
    assert is_zero(parse("1/1000000")).kind == "proven_nonzero"
    assert is_zero(parse("x1*x2 - x3")).kind == "proven_nonzero"


def test_verdict_numerical_with_trig():
    v = is_zero(parse("sin(x1)^2 + cos(x1)^2 - 1"))
    assert v.kind == "numerically_zero"
    assert v.tol == 1e-9
    assert is_zero(parse("sin(x1)")).kind == "numerically_nonzero"
    assert is_zero(parse("sin(pi)")).kind == "numerically_zero"
    assert is_zero(parse("sin(2*x1) - 2*sin(x1)*cos(x1)")).kind == "numerically_zero"
    assert is_zero(parse("sin(2*x1) - 2*sin(x1)*cos(x1)"), tol=1e-30).kind in (
        "numerically_zero",
        "numerically_nonzero",
    )


def test_trig_parity_is_structural():
    assert is_zero(parse("sin(-x1) + sin(x1)")).kind == "proven_zero"
    assert is_zero(parse("cos(-x1) - cos(x1)")).kind == "proven_zero"
    assert is_zero(parse("sin(x2 + x1) - sin(x1 + x2)")).kind == "proven_zero"


@settings(max_examples=120, deadline=None)
@given(exprs, exprs)
def test_normal_form_sees_ring_identities(a, b):
    assert normal_form(sub(mul(a, b), mul(b, a))) == {}
    assert normal_form(sub(add(a, b), add(b, a))) == {}
    assert normal_form(sub(sub(a, b), neg(sub(b, a)))) == {}


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_is_zero_of_self_difference(e):
    assert is_zero(sub(e, e)).kind == "proven_zero"


def test_weyl_points_deterministic_and_in_cube():
    pts = weyl_points(3, 17)
    assert pts == weyl_points(3, 17)
    assert len(pts) == 17
    assert len(set(pts)) == 17
    assert all(0 <= c < 1 for p in pts for c in p)
    assert weyl_points(0, 5) == [()]


def test_all_zero_combination():
    pz = Verdict.proven_zero()
    nz = Verdict.numerically_zero(1e-9)
    pn = Verdict.proven_nonzero()
    nn = Verdict.numerically_nonzero(1e-9)
    assert all_zero([]) == pz
    assert all_zero([pz, pz]) == pz
    assert all_zero([pz, nz]) == nz
    assert all_zero([nz, nn, pn]) == pn
    assert all_zero([pz, nn]) == nn
    assert all_zero([Verdict.numerically_zero(1e-9), Verdict.numerically_zero(1e-6)]).tol == 1e-6
