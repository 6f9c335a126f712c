"""Expression grammar, canonical forms, calculus and the four-valued zero test."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coefficients_are_normal

from torusfm.expr import (
    MAX_COEFFICIENT_BITS,
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_TERMS,
    MAX_VARIABLE,
    ONE,
    PI,
    ZERO,
    ParseError,
    Verdict,
    _eliminate_constants,
    _integer_values,
    _mul,
    _products,
    all_zero,
    cos,
    diff,
    eval_at,
    eval_exact,
    is_constant,
    is_zero,
    num,
    parse,
    sin,
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
        pair.map(lambda t: t[0] + t[1]),
        pair.map(lambda t: t[0] - t[1]),
        pair.map(lambda t: t[0] * t[1]),
        children.map(lambda e: -e),
        st.tuples(children, st.integers(0, 3)).map(lambda t: t[0] ** t[1]),
        children.map(sin),
        children.map(cos),
    )


exprs = st.recursive(leaf, _extend, max_leaves=12)


# ---------------------------------------------------------------- parse/print


def test_parse_basics():
    assert parse("3/2") == num(Fraction(3, 2))
    assert parse("-3/2") == num(Fraction(-3, 2))
    assert parse("x1 + 2*x2") == var(1) + 2 * var(2)
    assert parse("sin(pi*x1)^2") == sin(PI * var(1)) ** 2
    assert parse("x12") == var(12)
    assert parse("(x1 - x2)*x3") == (var(1) - var(2)) * var(3)
    # Canonical forms fold what can be folded at parse time.
    assert parse("x1^0") == num(1)
    assert parse("0*x1") == num(0)
    assert parse("sin(0)") == num(0)
    assert parse("cos(0)") == num(1)


def test_parse_division_is_literal_only():
    assert parse("x1/2") == var(1) * num(Fraction(1, 2))
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


@pytest.mark.parametrize(
    "text, offset",
    [("*x1", 0), ("()", 1), ("sin()", 4), ("x1 + * 2", 5), (",", 0)],
)
def test_punctuation_in_place_of_an_operand_is_a_missing_expression(text, offset):
    with pytest.raises(ParseError, match=f"^expected an expression at offset {offset}$"):
        parse(text)


def test_variable_indices_are_bounded():
    assert parse(f"x{MAX_VARIABLE}") == var(MAX_VARIABLE)
    message = f"variable index exceeds {MAX_VARIABLE}"
    for text, offset in ((f"x{MAX_VARIABLE + 1}", 0), ("x1 + x100001", 5), ("x" + "9" * 5000, 0)):
        with pytest.raises(ParseError, match=f"^{message} at offset {offset}$"):
            parse(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        var(MAX_VARIABLE + 1)


def deep_text(shape, n):
    """An expression of n nested groups or calls, or a flat chain of n."""
    if shape == "parentheses":
        return "(" * n + "x1" + ")" * n
    if shape == "nested sin":
        return "sin(" * n + "x1" + ")" * n
    if shape == "minus signs":
        return "-" * n + "x1"
    return "+".join(["x1"] * n)


# Only groups and calls nest: the token past MAX_DEPTH - 1 of them is refused.
@pytest.mark.parametrize(
    "shape, offset", [("parentheses", MAX_DEPTH), ("nested sin", 4 * MAX_DEPTH)]
)
def test_deep_expressions_raise_parse_error(shape, offset):
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as e:
        parse(deep_text(shape, 3000))
    assert e.value.offset == offset


@pytest.mark.parametrize(
    "shape, deepest", [("parentheses", MAX_DEPTH - 1), ("nested sin", MAX_DEPTH - 1)]
)
def test_depth_limit_is_exact(shape, deepest):
    parse(deep_text(shape, deepest))
    with pytest.raises(ParseError, match="nested deeper"):
        parse(deep_text(shape, deepest + 1))


@pytest.mark.parametrize(
    "shape, value", [("sum", 3000 * var(1)), ("minus signs", var(1))], ids=["sum", "minus signs"]
)
def test_long_flat_chains_parse(shape, value):
    # Chains are parsed by loops, so their length is bounded by the term
    # and size limits alone, not by the depth limit.
    t0 = time.monotonic()
    assert parse(deep_text(shape, 3000)) == value
    assert time.monotonic() - t0 < 2.0


@pytest.mark.parametrize(
    "shape, value", [("sum", 200 * var(1)), ("minus signs", -var(1))], ids=["sum", "minus signs"]
)
def test_flat_chains_add_no_depth(shape, value):
    # A chain of the old limit's length inside the deepest accepted groups
    # still parses; one more group is refused, as without the chain.
    n = MAX_DEPTH if shape == "sum" else MAX_DEPTH - 1
    chain = deep_text(shape, n)
    assert parse(deep_text("parentheses", MAX_DEPTH - 1).replace("x1", chain, 1)) == value
    with pytest.raises(ParseError, match="nested deeper"):
        parse(deep_text("parentheses", MAX_DEPTH).replace("x1", chain, 1))


def test_printed_long_sums_parse_back():
    # 210 terms: the printed flat sum once counted as 210 levels deep.
    e = parse("(x1 + x2 + x3 + x4 + 1)^6")
    assert len(e.terms) == 210
    assert parse(to_str(e)) == e


# 40 terms squared: 1,600 pairs of terms, although only 820 survive.
_SQUARE = "(" + " + ".join(f"x{i}" for i in range(1, 41)) + ")^2"


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("(x1 + x2 + 1)^400", f"product expands to more than {MAX_TERMS} terms", 13),
        ("2^99999", f"exponent exceeds {MAX_EXPONENT}", 2),
        ("x1^1001", f"exponent exceeds {MAX_EXPONENT}", 3),
        ("(2^1000)^5", f"coefficient exceeds {MAX_COEFFICIENT_BITS} bits", 8),
        ("9" * 2000 + "*x1", f"coefficient exceeds {MAX_COEFFICIENT_BITS} bits", 0),
        (_SQUARE, f"product expands to more than {MAX_TERMS} terms", _SQUARE.index("^")),
    ],
    ids=["power of a sum", "huge exponent", "exponent", "coefficient", "literal", "square"],
)
def test_oversized_expressions_raise_parse_error_naming_the_limit(text, message, offset):
    with pytest.raises(ParseError, match=message) as e:
        parse(text)
    assert e.value.offset == offset


def test_expressions_within_the_limits_parse():
    assert parse(f"x1^{MAX_EXPONENT}") == var(1) ** MAX_EXPONENT
    assert len(parse("(x1 + x2 + x3 + 1)^6").terms) == 84
    assert eval_exact(parse("(2^1000)^4"), ()) == 2**4000


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
    assert d != ZERO and e != ZERO
    assert abs(eval_at(e, (0.5,))) > 0
    assert not is_zero(e).is_zero
    if "sin" not in text:
        assert eval_exact(e, (1,)) == (MAX_DEPTH if "+" in text else 1)
        assert eval_exact(d, (1,)) == MAX_DEPTH


def test_printed_derivative_of_a_long_product_parses_back():
    # The product rule once printed one nested sum per factor, past the
    # depth limit; the canonical derivative is the single term 120*x1^119.
    e = parse("*".join(["x1"] * 120))
    d = diff(e, 1)
    assert to_str(d) == "120*x1^119"
    assert parse(to_str(d)) == d


def test_nested_trig_normal_forms_grow_linearly():
    # Each opaque atom holds the printed text of its argument; escaping
    # that text anew at every level would double its size per level.
    def nested(n):
        return parse("sin(" * n + "x1" + ")" * n)

    sizes = [len(repr(nested(n).terms)) for n in (10, 20)]
    assert sizes[1] < 3 * sizes[0]
    e = nested(20)
    assert is_zero(sin(-e) + sin(e)).kind == "proven_zero"
    assert is_zero(cos(-e) - cos(e)).kind == "proven_zero"


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_print_parse_round_trip(e):
    assert parse(to_str(e)) == e


def test_printer_parenthesization():
    # Printed forms are flat sums of products, with the same values as the
    # nested forms once printed for these inputs.
    cases = [
        (var(1) + num(-3), "x1 - 3", "x1 + (-3)"),
        (var(1) * (var(2) + num(1)), "x1*x2 + x1", "x1*(x2 + 1)"),
        ((var(1) + var(2)) ** 2, "x1^2 + 2*x1*x2 + x2^2", "(x1 + x2)^2"),
        (-(var(1) * var(2)), "-x1*x2", "-(x1*x2)"),
        (var(1) - (var(2) - var(3)), "x1 - x2 + x3", "x1 - (x2 - x3)"),
    ]
    for e, text, nested_text in cases:
        assert to_str(e) == text
        assert parse(nested_text) == e


def test_characters_print_as_sums_of_sines_and_cosines():
    assert to_str(parse("2*sin(x1)*cos(x1)")) == "sin(2*x1)"
    assert to_str(parse("cos(x1 + pi/2)")) == "-sin(x1)"
    assert to_str(parse("sin(-x1 + pi*x2)")) == "-sin(x1 - pi*x2)"
    assert to_str(parse("sin(-x2 + pi*x1)")) == "sin(pi*x1 - x2)"
    assert to_str(parse("cos(-x1^2) + sin(1 - x1)")) == "-sin(x1 - 1) + cos(x1^2)"


# ---------------------------------------------------------------- calculus


def test_diff_known_values():
    x1, x2 = var(1), var(2)
    assert diff(x1**3, 1) == 3 * x1**2
    assert diff(x1**3, 2) == num(0)
    assert diff(sin(2 * x1), 1) == 2 * cos(2 * x1)
    assert diff(cos(x1), 1) == -sin(x1)
    assert diff(x1 * x2, 1) == x2
    assert diff(PI, 1) == num(0)
    assert diff(sin(x1**2), 1) == 2 * x1 * cos(x1**2)
    assert diff(cos(PI * x1 + x2), 1) == -PI * sin(PI * x1 + x2)


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
    assert eval_exact(parse("x1^2 - 1/3"), [Fraction(1, 2)]) == Fraction(-1, 12)
    with pytest.raises(ValueError, match="not a rational expression"):
        eval_exact(parse("pi*x1"), [Fraction(1)])
    with pytest.raises(ValueError, match="unbound variable"):
        eval_at(parse("x3"), [0.1, 0.2])


def test_vars_and_constant():
    assert vars_of(parse("x1*sin(x3) + pi")) == frozenset({1, 3})
    assert vars_of(parse("sin(x2^2)")) == frozenset({2})
    assert is_constant(parse("pi^2 - 3"))
    assert is_constant(parse("sin(1)"))
    assert not is_constant(parse("cos(x2)"))


def test_linear_terms_share_the_variable_term_key():
    # One Expr per index, so linear terms built from it hold its key, not a copy.
    assert var(3) is var(3) and var(3) is not var(4)
    (key,) = var(3).terms
    for e in (parse("2*x3 + 1"), parse("x1 - x3/2"), 5 * var(3)):
        assert any(t is key for t in e.terms)


def test_linear_combination():
    e = Fraction(1, 2) * var(1) + 0 * var(2) + (-2) * var(3)
    assert e == parse("x1/2 - 2*x3")


_factors = st.one_of(
    st.recursive(leaf, _extend, max_leaves=6),
    st.fractions(-5, 5, max_denominator=6),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_factors, _factors), max_size=6), st.booleans())
def test_sum_of_products_equals_the_chained_sum(pairs, cancel):
    # Polynomials, characters, opaque atoms and plain rationals; with cancel
    # every product appears once more negated, so the sum is ZERO.
    if cancel:
        pairs = pairs + [(-a, b) for a, b in reversed(pairs)]
    chained = sum((a * b for a, b in pairs), ZERO)
    out = _products([[a for a, _ in pairs]], [[b for _, b in pairs]])[0][0]
    assert out == chained
    # The same term order keeps evaluation sums bit for bit the same.
    assert list(out.terms) == list(chained.terms)
    if cancel:
        assert out == ZERO


_entries = st.one_of(st.none(), _factors)


@st.composite
def _matrix_factors(draw):
    """(rows, columns): n rows and m columns of length l, with None for gaps."""
    n, m, l = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(_entries, min_size=l, max_size=l), min_size=n, max_size=n))
    columns = draw(st.lists(st.lists(_entries, min_size=l, max_size=l), min_size=m, max_size=m))
    return rows, columns


@settings(max_examples=150, deadline=None)
@given(_matrix_factors())
def test_products_equal_the_chained_sums(factors):
    # Each entry against the operators alone, skipping the gaps.
    rows, columns = factors
    out = _products(rows, columns)
    assert len(out) == len(rows)
    for row, line in zip(rows, out):
        assert len(line) == len(columns)
        for column, e in zip(columns, line):
            chained = ZERO
            for a, b in zip(row, column):
                if a is not None and b is not None:
                    chained = chained + a * b
            assert e == chained
            assert list(e.terms) == list(chained.terms)
            assert hash(e) == hash(chained)
            assert coefficients_are_normal(e)


_rationals = st.one_of(
    st.none(), st.integers(-4, 4), st.fractions(-5, 5, max_denominator=7), st.sampled_from([ZERO, ONE])
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6), st.data())
def test_rational_products_equal_the_chained_sums(n, m, l, data):
    # Every entry a rational constant or a gap: the products run on ints.
    rows = data.draw(st.lists(st.lists(_rationals, min_size=l, max_size=l), min_size=n, max_size=n))
    columns = data.draw(st.lists(st.lists(_rationals, min_size=l, max_size=l), min_size=m, max_size=m))
    out = _products(rows, columns)
    assert [len(line) for line in out] == [m] * n
    for row, line in zip(rows, out):
        for column, e in zip(columns, line):
            chained = sum((a * b for a, b in zip(row, column) if a is not None and b is not None), ZERO)
            assert e == chained
            assert coefficients_are_normal(e)


@settings(max_examples=200, deadline=None)
@given(exprs, exprs, st.integers(1, 3))
def test_coefficients_are_ints_exactly_when_integral(a, b, j):
    made = [a, b, a + b, a - b, a * b, -a, a * Fraction(2, 3), Fraction(3, 2) * a * 2, diff(a, j)]
    made += [parse(to_str(e)) for e in made]
    made += [cos(var(1)) * cos(var(1)), sin(var(1) * Fraction(1, 2)) ** 2 * 4, parse("x1/2*2 + 3/3")]
    # Halves that meet in one term of a product: x1 gets 1/2 + 1/2.
    made.append(parse("(x1/2 + 1/2)*(x1 + 1)"))
    made += [e for row in _eliminate_constants([[a, num(2)], [b, num(Fraction(1, 3))]])[1] for e in row]
    for e in made:
        assert coefficients_are_normal(e), to_str(e)
    assert type(eval_exact(num(2) + var(1), [3])) is Fraction
    assert type(eval_exact(num(0), ())) is Fraction
    # The same value by different routes: equal maps and equal hashes.
    halves = (a * Fraction(1, 2) + Fraction(1, 2) * a, a)
    for x, y in ((a * 2 * Fraction(1, 2), a), halves, (parse(to_str(a * b)), b * a)):
        assert x == y
        assert hash(x) == hash(y)


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
    # Sines and cosines of (Q + Q pi)-linear forms are characters, so their
    # identities are proven whatever the tolerance.
    assert is_zero(parse("sin(x1)^2 + cos(x1)^2 - 1")).kind == "proven_zero"
    assert is_zero(parse("sin(x1)")).kind == "proven_nonzero"
    assert is_zero(parse("sin(pi)")).kind == "proven_zero"
    assert is_zero(parse("sin(2*x1) - 2*sin(x1)*cos(x1)")).kind == "proven_zero"
    assert is_zero(parse("sin(2*x1) - 2*sin(x1)*cos(x1)"), tol=1e-30).kind == "proven_zero"
    # Opaque atoms stay numerical.
    assert is_zero(parse("sin(x1^2)")).kind == "numerically_nonzero"
    v = is_zero(parse("sin(x1 + 1)^2 + cos(x1 + 1)^2 - 1"))
    assert v.kind == "numerically_zero"
    assert v.tol == 1e-9
    assert is_zero(parse("sin(x1 + 1)^2 + cos(x1 + 1)^2 - 1"), tol=1e-30).kind in (
        "numerically_zero",
        "numerically_nonzero",
    )


def test_trig_parity_is_structural():
    assert is_zero(parse("sin(-x1) + sin(x1)")).kind == "proven_zero"
    assert is_zero(parse("cos(-x1) - cos(x1)")).kind == "proven_zero"
    assert is_zero(parse("sin(x2 + x1) - sin(x1 + x2)")).kind == "proven_zero"
    assert is_zero(parse("sin(-x1^2) + sin(x1^2)")).kind == "proven_zero"


@settings(max_examples=120, deadline=None)
@given(exprs, exprs)
def test_normal_form_sees_ring_identities(a, b):
    assert a * b - b * a == ZERO
    assert (a + b) - (b + a) == ZERO
    assert (a - b) - (-(b - a)) == ZERO


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_is_zero_of_self_difference(e):
    assert is_zero(e - e).kind == "proven_zero"


# Soundness of proven verdicts against Python's own arithmetic.  The
# strategy draws pairs of texts for one function, related by ring
# identities, angle addition, Pythagoras, quarter-turn shifts and parity,
# over polynomial, pi, affine-trig and non-affine-trig content; sometimes
# the second text is replaced by an unrelated one.  The oracle evaluates
# the text itself with `eval` over `math`.

_RNG = random.Random(7)
_SEEDED_POINTS = [tuple(_RNG.uniform(-2, 2) for _ in range(3)) for _ in range(6)]


def _value(text, point):
    names = {"sin": math.sin, "cos": math.cos, "pi": math.pi}
    names.update({f"x{i + 1}": v for i, v in enumerate(point)})
    return eval(text.replace("^", "**"), {"__builtins__": {}}, names)


_leaf_pairs = st.one_of(
    st.builds(lambda p, q: (f"({p}/{q})",) * 2, st.integers(-5, 5), st.integers(1, 4)),
    st.just(("pi", "pi")),
    st.sampled_from([("x1",) * 2, ("x2",) * 2, ("x3",) * 2]),
)
# Linear forms with coefficients in Q + Q*pi and phases in (pi/2)*Z, the
# arguments whose sines and cosines are characters.
_linear_pairs = st.builds(
    lambda terms, phase: (" + ".join(f"({c})*{x}" for c, x in terms) + phase,) * 2,
    st.lists(st.tuples(st.sampled_from(["1", "2", "-1", "1/2", "pi", "-2*pi"]),
                       st.sampled_from(["x1", "x2", "x3"])), min_size=1, max_size=3),
    st.sampled_from(["", "", " + pi/2", " - pi"]),
)

# Arguments whose sines and cosines stay opaque.
_opaque_arguments = st.sampled_from(["x1^2", "x2 + 1", "1", "x1*x3 - 1/3"]).map(lambda t: (t, t))


def _pair_rules(children):
    two = st.tuples(children, children)
    arg = st.one_of(_linear_pairs, _linear_pairs, _linear_pairs, _opaque_arguments)
    two_args = st.tuples(arg, arg)
    return st.one_of(
        two.map(lambda t: (f"{t[0][0]} + {t[1][0]}", f"{t[1][1]} + {t[0][1]}")),
        two.map(lambda t: (f"({t[0][0]})*({t[1][0]})", f"({t[1][1]})*({t[0][1]})")),
        two.map(lambda t: (f"({t[0][0]}) - ({t[1][0]})", f"-({t[1][1]}) + {t[0][1]}")),
        children.map(lambda p: (f"({p[0]})^2", f"({p[1]})*({p[1]})")),
        two_args.map(lambda t: (f"sin({t[0][0]} + {t[1][0]})",
                                f"sin({t[0][1]})*cos({t[1][1]}) + cos({t[0][1]})*sin({t[1][1]})")),
        two_args.map(lambda t: (f"cos({t[0][0]} + {t[1][0]})",
                                f"cos({t[0][1]})*cos({t[1][1]}) - sin({t[0][1]})*sin({t[1][1]})")),
        arg.map(lambda p: (f"sin({p[0]})^2 + cos({p[0]})^2", "1")),
        arg.map(lambda p: (f"sin({p[0]} + pi/2)", f"cos({p[1]})")),
        arg.map(lambda p: (f"sin(-({p[0]}))", f"-sin({p[1]})")),
        arg.map(lambda p: (f"cos(-({p[0]}))", f"cos({p[1]})")),
    )


_same_function = st.recursive(_leaf_pairs, _pair_rules, max_leaves=6)


@st.composite
def _difference_texts(draw):
    p, q = draw(_same_function)
    if draw(st.booleans()):
        q = draw(_same_function)[1]
    return p, q


@settings(max_examples=300, deadline=None)
@given(_difference_texts())
def test_proven_verdicts_agree_with_python_arithmetic(texts):
    p, q = texts
    text = f"({p}) - ({q})"
    verdict = is_zero(parse(text))
    values = [_value(text, pt) for pt in _SEEDED_POINTS]
    scale = max(abs(_value(p, pt)) + abs(_value(q, pt)) for pt in _SEEDED_POINTS)
    if verdict.kind == "proven_zero":
        assert max(map(abs, values)) <= 1e-9 * (1 + scale)
    elif verdict.kind == "proven_nonzero":
        assert max(map(abs, values)) > 1e-12 * (1 + scale)


def test_weyl_points_deterministic_and_in_cube():
    pts = weyl_points(3, 17)
    assert pts == weyl_points(3, 17)
    assert len(pts) == 17
    assert len(set(pts)) == 17
    assert all(0 <= c < 1 for p in pts for c in p)
    assert weyl_points(0, 5) == [()]


def test_weyl_points_reach_past_sixteen_variables():
    # The first 16 coordinates stay on the square roots of the first 16
    # primes, so no verdict on fewer variables moves.
    first = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    pts = weyl_points(40, 17)
    assert [p[:16] for p in pts] == [
        tuple(((i + 1) * math.sqrt(q)) % 1.0 for q in first) for i in range(17)
    ]
    assert len(set(p[39] for p in pts)) == 17
    assert is_zero(parse("sin(x17^2)")).kind == "numerically_nonzero"
    assert is_zero(parse("sin(x17^2)^2 + cos(x17^2)^2 - 1")).is_zero


def _primes_by_trial_division(n):
    primes = []
    p = 1
    while len(primes) < n:
        p += 1
        if all(p % q for q in primes if q * q <= p):
            primes.append(p)
    return primes


@pytest.mark.parametrize("nvars", [1, 16, 17, 200])
def test_weyl_points_use_the_first_primes(nvars):
    roots = [math.sqrt(p) for p in _primes_by_trial_division(nvars)]
    assert weyl_points(nvars, 17) == [
        tuple(((i + 1) * r) % 1.0 for r in roots) for i in range(17)
    ]


def test_opaque_zero_test_in_a_high_variable_is_fast():
    start = time.perf_counter()
    assert is_zero(parse("sin(x100000^2)")).kind == "numerically_nonzero"
    assert time.perf_counter() - start < 2


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


def _all_zero_on_lists(verdicts):
    """The list-based definition of all_zero, kept as the reference."""
    vs = list(verdicts)
    nonzero = [v for v in vs if not v.is_zero]
    if nonzero:
        for v in nonzero:
            if v.proven:
                return v
        return nonzero[0]
    if all(v.proven for v in vs):
        return Verdict("proven_zero")
    tols = [v.tol for v in vs if v.tol is not None]
    return Verdict.numerically_zero(max(tols))


# Shared constants and fresh instances of the proven kinds, and numerical
# kinds whose tolerances often tie.
_tolerances = st.one_of(st.sampled_from([1e-9, 1e-6]), st.floats(1e-15, 1.0))
_verdicts = st.one_of(
    st.sampled_from([Verdict.proven_zero(), Verdict.proven_nonzero()]),
    st.builds(Verdict, st.sampled_from(["proven_zero", "proven_nonzero"])),
    st.builds(Verdict.numerically_zero, _tolerances),
    st.builds(Verdict.numerically_nonzero, _tolerances),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_verdicts, max_size=8))
def test_all_zero_agrees_with_the_list_definition(verdicts):
    ref = _all_zero_on_lists(verdicts)
    out = all_zero(iter(verdicts))
    assert out == ref
    if not ref.is_zero:
        # The member itself: the first proven nonzero, else the first nonzero.
        assert out is ref
    assert Verdict.proven_zero() is Verdict.proven_zero()
    assert Verdict.proven_nonzero() is Verdict.proven_nonzero()


def test_products_keep_the_chained_order_when_a_partial_sum_cancels():
    # x1*x2 is made by the first product; the second makes -x1*x2 before
    # +x1*x2, so the running sum passes through zero, and the chained sum
    # keeps x1*x2 first.  In the last pair the second product cancels it.
    x1, x2 = var(1), var(2)
    cases = [
        ([x1, x1 + x2], [x2, x1 - x2]),
        ([cos(x1), cos(x1) + sin(x1)], [cos(x2), cos(x2) - sin(x2)]),
        ([3 * x1 * x2 + 1, 2 + x1, -x1], [1, x2 - x1, 2 * x2]),
        ([x1, -x1], [x2, x2]),
    ]
    for a, b in cases:
        out = _products([a], [b])[0][0]
        chained = sum((p * q for p, q in zip(a, b)), ZERO)
        assert out == chained
        assert list(out.terms) == list(chained.terms)
        assert coefficients_are_normal(out)
    acc = {}
    assert _mul(x1.terms, x2.terms, acc) is acc
    assert _mul((-x1).terms, x2.terms, acc) == {}


# A polynomial as (coefficient, variable indices) terms: each index list is
# a monomial of total degree at most 3 in up to 4 variables.
_coefficients = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_polynomials = st.lists(
    st.tuples(_coefficients, st.lists(st.integers(1, 4), max_size=3)), max_size=4
)


def _poly_expr(terms):
    e = ZERO
    for c, idx in terms:
        m = num(c)
        for i in idx:
            m = m * var(i)
        e = e + m
    return e


def _poly_value(terms, point):
    """The polynomial at the point, in Fractions, from its own term list."""
    total = Fraction(0)
    for c, idx in terms:
        v = Fraction(c)
        for i in idx:
            v *= point[i - 1]
        total += v
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_polynomials, min_size=1, max_size=4), min_size=1, max_size=3),
    st.lists(st.builds(Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 5, 7, 12))),
             min_size=4, max_size=6),
)
def test_integer_values_are_positive_multiples_of_the_exact_values(rows, point):
    out = _integer_values([[_poly_expr(p) for p in row] for row in rows], point)
    assert len(out) == len(rows)
    for row, ints in zip(rows, out):
        assert len(ints) == len(row) and all(type(v) is int for v in ints)
        exact = [_poly_value(p, point) for p in row]
        if not any(exact):
            assert not any(ints)
            continue
        j = next(j for j, v in enumerate(exact) if v)
        scale = ints[j] / exact[j]
        assert scale > 0
        assert ints == [scale * v for v in exact]
        assert math.gcd(*ints) == 1


def test_integer_values_scale_by_the_top_degree_and_reject_non_rational_terms():
    # x = (1/2, 2/3) is (3, 4)/6 and the top degree is 2, so the row is
    # 36 * (4/3, 1/2, 1) = (48, 18, 36), divided by its gcd 6.
    point = (Fraction(1, 2), Fraction(2, 3))
    assert _integer_values([[parse("1 + x1*x2"), parse("x1"), num(1)]], point) == [[8, 3, 6]]
    assert _integer_values([[ZERO, ZERO], []], point) == [[0, 0], []]
    for bad in (PI, parse("sin(x1)"), parse("cos(pi*x1)*x2"), parse("sin(1)"), parse("sin(x1^2)"), var(3)):
        with pytest.raises(ValueError):
            _integer_values([[num(1)], [var(1), bad]], point)
        with pytest.raises(ValueError):
            eval_exact(bad, point)
