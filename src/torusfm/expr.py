"""Symbolic coefficient expressions over the rationals.

The grammar covers what coefficient data in this package needs: rational
literals, the constant pi, variables x1, x2, ..., sums, differences,
products, integer powers, sin and cos.  Expressions are immutable trees;
the module-level constructor functions fold constants so that parsing,
differentiation and algebra all land on the same normal shapes.

Zero testing is four-valued.  An expression whose expanded normal form is
empty is zero, proven.  A nonempty normal form built only from variables
and pi is a nonzero polynomial (pi is transcendental), so it is nonzero,
proven.  Anything involving trig atoms falls back to sampling on a Weyl
low-discrepancy grid and the verdict is only numerical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, printed as x1, x2, ...


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Sin:
    argument: "Expr"


@dataclass(frozen=True)
class Cos:
    argument: "Expr"


Expr = Union[Num, Pi, Var, Neg, Add, Sub, Mul, Pow, Sin, Cos]

PI = Pi()
ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def num(value) -> Num:
    return Num(Fraction(value))


def var(index: int) -> Var:
    if index < 1:
        raise ValueError("variable indices start at 1")
    return Var(index)


def neg(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    if isinstance(e, Neg):
        return e.operand
    return Neg(e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and a.value == 0:
        return neg(b)
    if a == b:
        return ZERO
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0:
            return ZERO
        if a.value == 1:
            return b
        if a.value == -1:
            return neg(b)
    if isinstance(b, Num):
        if b.value == 0:
            return ZERO
        if b.value == 1:
            return a
        if b.value == -1:
            return neg(a)
    return Mul(a, b)


def pow_(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent < 0:
        raise ValueError("exponents must be nonnegative integers")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Num):
        return Num(base.value**exponent)
    return Pow(base, exponent)


def sin_(e: Expr) -> Expr:
    if isinstance(e, Num) and e.value == 0:
        return ZERO
    return Sin(e)


def cos_(e: Expr) -> Expr:
    if isinstance(e, Num) and e.value == 0:
        return ONE
    return Cos(e)


def linear_combination(coeffs: Sequence, exprs: Sequence[Expr]) -> Expr:
    """Sum of coeff * expr with rational coefficients."""
    total: Expr = ZERO
    for c, e in zip(coeffs, exprs):
        total = add(total, mul(num(c), e))
    return total


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|[()+\-*/^,])")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# Deepest expression the parser accepts.  The depth of an atom is 1; each
# operator, unary minus, sin/cos and parenthesized group adds one level on
# top of its deepest operand, so the tree built is never deeper.  The tree
# walkers recurse once per level and the parser three times per group, which
# keeps both well inside Python's default recursion limit of 1000.
MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.last_start = 0
        self.groups = 0  # parenthesized groups open at the current position

    def error(self, message: str, offset: int | None = None) -> ParseError:
        return ParseError(message, self.pos if offset is None else offset)

    def nested(self, depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def match(self):
        """The match of the next token, or None at the end of the input."""
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos :]
            stripped = rest.lstrip()
            if stripped:
                raise self.error(
                    f"unexpected character {stripped[0]!r}",
                    self.pos + len(rest) - len(stripped),
                )
        return m

    def peek_token(self):
        m = self.match()
        return m and m[1]

    def next_token(self):
        m = self.match()
        if m is None:
            return None
        self.pos = m.end()
        self.last_start = m.start(1)
        return m[1]

    def expect(self, token: str):
        got = self.next_token()
        if got != token:
            raise self.error(f"expected {token!r}", self.last_start if got else self.pos)

    def parse(self) -> Expr:
        e, _ = self.parse_sum()
        if self.next_token() is not None:
            raise self.error("trailing input", self.last_start)
        return e

    # Each parse_* method returns the expression and its depth.

    def parse_sum(self) -> tuple[Expr, int]:
        e, d = self.parse_term()
        while (tok := self.peek_token()) in ("+", "-"):
            self.next_token()
            at = self.last_start
            r, rd = self.parse_term()
            e = add(e, r) if tok == "+" else sub(e, r)
            d = self.nested(max(d, rd) + 1, at)
        return e, d

    def parse_term(self) -> tuple[Expr, int]:
        e, d = self.parse_factor()
        while (tok := self.peek_token()) in ("*", "/"):
            self.next_token()
            at = self.last_start
            r, rd = self.parse_factor()
            if tok == "/":
                if not isinstance(r, Num) or r.value == 0:
                    raise self.error("denominator must be a nonzero rational literal")
                r = Num(1 / r.value)
            e = mul(e, r)
            d = self.nested(max(d, rd) + 1, at)
        return e, d

    def parse_factor(self) -> tuple[Expr, int]:
        """Unary minus signs, an atom or parenthesized group, an exponent."""
        signs = []
        while self.peek_token() == "-":
            self.next_token()
            signs.append(self.last_start)
        tok = self.next_token()
        if tok is None:
            raise self.error("unexpected end of input")
        at = self.last_start
        if tok in ("(", "sin", "cos"):
            if tok != "(":
                self.expect("(")
            # Checked on the way in as well, so deep nesting cannot exhaust
            # the stack before its depth is known.
            self.groups += 1
            self.nested(self.groups, at)
            e, d = self.parse_sum()
            self.expect(")")
            self.groups -= 1
            e = sin_(e) if tok == "sin" else cos_(e) if tok == "cos" else e
            d = self.nested(d + 1, at)
        elif tok.isdigit():
            e, d = Num(Fraction(int(tok))), 1
        elif tok == "pi":
            e, d = PI, 1
        elif vm := re.fullmatch(r"x([1-9][0-9]*)", tok):
            e, d = Var(int(vm.group(1))), 1
        else:
            raise self.error(f"unknown name {tok!r}", at)
        if self.peek_token() == "^":
            self.next_token()
            at = self.last_start
            exp_tok = self.next_token()
            if exp_tok is None or not exp_tok.isdigit():
                raise self.error("expected a nonnegative integer exponent")
            e, d = pow_(e, int(exp_tok)), self.nested(d + 1, at)
        for at in reversed(signs):
            e, d = neg(e), self.nested(d + 1, at)
        return e, d


def parse(text: str) -> Expr:
    """Parse one expression; raises ParseError with a byte offset on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- printing

_ATOMIC = (Var, Pi, Sin, Cos)


def _needs_parens_in_sum_rhs(e: Expr) -> bool:
    return isinstance(e, (Add, Sub)) or (isinstance(e, Num) and e.value < 0) or isinstance(e, Neg)


def _needs_parens_in_product(e: Expr, right: bool) -> bool:
    if isinstance(e, (Add, Sub)):
        return True
    if isinstance(e, Num):
        # "a*(2/3)": an unparenthesized fraction literal on the right would
        # re-associate as (a*2)/3; negative literals read better wrapped too.
        return right and (e.value < 0 or e.value.denominator != 1)
    if right and isinstance(e, (Mul, Neg)):
        return True
    return False


def to_str(e: Expr) -> str:
    """Canonical text form; parse(to_str(e)) reproduces e exactly.

    The printed form may nest deeper than e itself, by its parentheses;
    parse rejects it when that exceeds MAX_DEPTH.
    """
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        inner = to_str(e.operand)
        if isinstance(e.operand, _ATOMIC) or isinstance(e.operand, Pow):
            return f"-{inner}"
        return f"-({inner})"
    if isinstance(e, Add):
        lhs = to_str(e.left)
        rhs = to_str(e.right)
        if _needs_parens_in_sum_rhs(e.right):
            rhs = f"({rhs})"
        return f"{lhs} + {rhs}"
    if isinstance(e, Sub):
        lhs = to_str(e.left)
        rhs = to_str(e.right)
        if _needs_parens_in_sum_rhs(e.right):
            rhs = f"({rhs})"
        return f"{lhs} - {rhs}"
    if isinstance(e, Mul):
        lhs = to_str(e.left)
        rhs = to_str(e.right)
        if _needs_parens_in_product(e.left, right=False):
            lhs = f"({lhs})"
        if _needs_parens_in_product(e.right, right=True):
            rhs = f"({rhs})"
        return f"{lhs}*{rhs}"
    if isinstance(e, Pow):
        base = to_str(e.base)
        if not isinstance(e.base, _ATOMIC):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Sin):
        return f"sin({to_str(e.argument)})"
    if isinstance(e, Cos):
        return f"cos({to_str(e.argument)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------- calculus

def diff(e: Expr, index: int) -> Expr:
    """Partial derivative with respect to x<index>."""
    if isinstance(e, (Num, Pi)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == index else ZERO
    if isinstance(e, Neg):
        return neg(diff(e.operand, index))
    if isinstance(e, Add):
        return add(diff(e.left, index), diff(e.right, index))
    if isinstance(e, Sub):
        return sub(diff(e.left, index), diff(e.right, index))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, index), e.right), mul(e.left, diff(e.right, index)))
    if isinstance(e, Pow):
        return mul(mul(num(e.exponent), pow_(e.base, e.exponent - 1)), diff(e.base, index))
    if isinstance(e, Sin):
        return mul(cos_(e.argument), diff(e.argument, index))
    if isinstance(e, Cos):
        return neg(mul(sin_(e.argument), diff(e.argument, index)))
    raise TypeError(f"not an expression: {e!r}")


def vars_of(e: Expr) -> frozenset[int]:
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, (Num, Pi)):
        return frozenset()
    if isinstance(e, (Neg, Sin, Cos)):
        child = e.operand if isinstance(e, Neg) else e.argument
        return vars_of(child)
    if isinstance(e, Pow):
        return vars_of(e.base)
    return vars_of(e.left) | vars_of(e.right)


def max_var(e: Expr) -> int:
    used = vars_of(e)
    return max(used) if used else 0


def is_constant(e: Expr) -> bool:
    return not vars_of(e)


def substitute(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """Replace variables by expressions, refolding constants as it goes."""
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, (Num, Pi)):
        return e
    if isinstance(e, Neg):
        return neg(substitute(e.operand, mapping))
    if isinstance(e, Add):
        return add(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Sub):
        return sub(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Mul):
        return mul(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Sin):
        return sin_(substitute(e.argument, mapping))
    if isinstance(e, Cos):
        return cos_(substitute(e.argument, mapping))
    raise TypeError(f"not an expression: {e!r}")


def eval_at(e: Expr, point: Sequence) -> float:
    """Numeric value at a point; point[i-1] feeds x<i>."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        if e.index > len(point):
            raise ValueError(f"unbound variable x{e.index}")
        return float(point[e.index - 1])
    if isinstance(e, Neg):
        return -eval_at(e.operand, point)
    if isinstance(e, Add):
        return eval_at(e.left, point) + eval_at(e.right, point)
    if isinstance(e, Sub):
        return eval_at(e.left, point) - eval_at(e.right, point)
    if isinstance(e, Mul):
        return eval_at(e.left, point) * eval_at(e.right, point)
    if isinstance(e, Pow):
        return eval_at(e.base, point) ** e.exponent
    if isinstance(e, Sin):
        return math.sin(eval_at(e.argument, point))
    if isinstance(e, Cos):
        return math.cos(eval_at(e.argument, point))
    raise TypeError(f"not an expression: {e!r}")


def eval_exact(e: Expr, point: Sequence) -> Fraction:
    """Exact value at a rational point; rejects pi, sin and cos."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(point):
            raise ValueError(f"unbound variable x{e.index}")
        return Fraction(point[e.index - 1])
    if isinstance(e, Neg):
        return -eval_exact(e.operand, point)
    if isinstance(e, Add):
        return eval_exact(e.left, point) + eval_exact(e.right, point)
    if isinstance(e, Sub):
        return eval_exact(e.left, point) - eval_exact(e.right, point)
    if isinstance(e, Mul):
        return eval_exact(e.left, point) * eval_exact(e.right, point)
    if isinstance(e, Pow):
        return eval_exact(e.base, point) ** e.exponent
    raise ValueError("not a rational expression")


# ---------------------------------------------------------------- normal form

# A monomial is a sorted tuple of (atom, exponent) pairs.  Atoms are
# ("v", i), ("pi",) or ("sin"/"cos", canonical-argument-key).
_NF = dict


def _nf_scale(nf, c: Fraction):
    if c == 0:
        return {}
    return {m: c * v for m, v in nf.items()}


def _nf_add(a, b):
    out = dict(a)
    for m, v in b.items():
        s = out.get(m, 0) + v
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mono_mul(ma, mb):
    exps = dict(ma)
    for atom, k in mb:
        exps[atom] = exps.get(atom, 0) + k
    return tuple(sorted(exps.items()))


def _nf_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _nf_sub(a, b):
    return _nf_add(a, _nf_scale(b, -1))


def _atom_key(atom) -> str:
    return f"x{atom[1]}" if atom[0] == "v" else "pi" if atom[0] == "pi" else f"{atom[0]}[{atom[1]}]"


def _nf_key(nf) -> str:
    # Nested trig keys sit between brackets, which appear nowhere else, so
    # the key is injective and grows linearly with the nesting depth.
    return " ".join(
        f"{c}" + "".join(f"*{_atom_key(a)}^{k}" for a, k in mono)
        for mono, c in sorted(nf.items())
    )


def normal_form(e: Expr):
    """Fully expanded form: monomials in variable, pi and trig atoms."""
    if isinstance(e, Num):
        return {(): e.value} if e.value else {}
    if isinstance(e, Pi):
        return {((("pi",), 1),): Fraction(1)}
    if isinstance(e, Var):
        return {((("v", e.index), 1),): Fraction(1)}
    if isinstance(e, Neg):
        return _nf_scale(normal_form(e.operand), Fraction(-1))
    if isinstance(e, Add):
        return _nf_add(normal_form(e.left), normal_form(e.right))
    if isinstance(e, Sub):
        return _nf_add(normal_form(e.left), _nf_scale(normal_form(e.right), Fraction(-1)))
    if isinstance(e, Mul):
        return _nf_mul(normal_form(e.left), normal_form(e.right))
    if isinstance(e, Pow):
        out = {(): Fraction(1)}
        base = normal_form(e.base)
        for _ in range(e.exponent):
            out = _nf_mul(out, base)
        return out
    if isinstance(e, (Sin, Cos)):
        arg = normal_form(e.argument)
        if not arg:
            return {} if isinstance(e, Sin) else {(): Fraction(1)}
        # Odd/even symmetry: normalize the argument sign so sin(-u) and
        # -sin(u) share an atom, likewise cos(-u) and cos(u).
        lead = min(arg)
        sign = Fraction(1)
        if arg[lead] < 0:
            arg = _nf_scale(arg, Fraction(-1))
            sign = Fraction(-1)
        key = _nf_key(arg)
        if isinstance(e, Sin):
            return {((("sin", key), 1),): sign}
        return {((("cos", key), 1),): Fraction(1)}
    raise TypeError(f"not an expression: {e!r}")


# Atoms of a polynomial over Q: nonzero polynomials in them are nonzero
# functions, since pi is transcendental.
POLYNOMIAL_ATOMS = frozenset(("v", "pi"))


def atom_kinds(nf) -> frozenset[str]:
    """Kinds of atom in a normal form: a subset of "v", "pi", "sin", "cos"."""
    return frozenset(atom[0] for mono in nf for atom, _ in mono)


def laplace_minors(m, zero, add_, sub_, mul_):
    """Minors of the matrix m as a function (rows, cols) -> determinant.

    rows and cols are increasing index tuples of one length.  Each minor is
    a Laplace expansion along its first column, memoized on (rows, cols),
    so minors of every size share their sub-minors.  Only the ring
    operations are used, never division: m may hold normal forms (see
    `nf_minors`), trig atoms included, or numbers.  Entries that test
    false are zero and skipped.
    """
    memo = {}

    def minor(rows, cols):
        d = memo.get((rows, cols))
        if d is None:
            if len(rows) == 1:
                d = m[rows[0]][cols[0]]
            else:
                d = zero
                rest = cols[1:]
                for i, r in enumerate(rows):
                    e = m[r][cols[0]]
                    if e:
                        t = mul_(e, minor(rows[:i] + rows[i + 1 :], rest))
                        d = add_(d, t) if i % 2 == 0 else sub_(d, t)
            memo[(rows, cols)] = d
        return d

    return minor


def nf_minors(nfs):
    """Exact minors of a matrix of normal forms, as `laplace_minors` gives them.

    Each row is first scaled by the common denominator of its coefficients,
    so the shared expansion runs on integers; a minor is divided by the
    scales of its rows when it is handed out.
    """
    scales = []
    scaled = []
    for row in nfs:
        d = math.lcm(*(c.denominator for nf in row for c in nf.values()))
        scales.append(d)
        scaled.append([{m: int(c * d) for m, c in nf.items()} for nf in row])
    minor = laplace_minors(scaled, {}, _nf_add, _nf_sub, _nf_mul)

    def exact(rows, cols):
        d = math.prod(scales[r] for r in rows)
        return {m: Fraction(c, d) for m, c in minor(rows, cols).items()}

    return exact


# ---------------------------------------------------------------- zero test

_ZERO_KINDS = ("proven_zero", "numerically_zero")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a zero test: proven or numerical, zero or nonzero."""

    kind: str
    tol: float | None = None

    @property
    def is_zero(self) -> bool:
        return self.kind in _ZERO_KINDS

    @property
    def proven(self) -> bool:
        return self.kind in ("proven_zero", "proven_nonzero")

    @staticmethod
    def proven_zero() -> "Verdict":
        return Verdict("proven_zero")

    @staticmethod
    def proven_nonzero() -> "Verdict":
        return Verdict("proven_nonzero")

    @staticmethod
    def numerically_zero(tol: float) -> "Verdict":
        return Verdict("numerically_zero", tol)

    @staticmethod
    def numerically_nonzero(tol: float) -> "Verdict":
        return Verdict("numerically_nonzero", tol)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def weyl_points(nvars: int, n: int) -> list[tuple[float, ...]]:
    """n equidistributed points in the unit cube (Weyl sequence on sqrt primes)."""
    if nvars == 0:
        return [()]
    if nvars > len(_PRIMES):
        raise ValueError("too many variables for the sampling grid")
    roots = [math.sqrt(p) for p in _PRIMES[:nvars]]
    return [tuple(((i + 1) * r) % 1.0 for r in roots) for i in range(n)]


def is_zero(e: Expr, tol: float = 1e-9, grid: int = 17) -> Verdict:
    """Decide whether e vanishes identically as a function.

    Polynomial content (variables and pi) is decided exactly from the
    expanded normal form.  Trig content falls back to evaluation at `grid`
    Weyl points with tolerance `tol`.
    """
    nf = normal_form(e)
    if not nf:
        return Verdict.proven_zero()
    if atom_kinds(nf) <= POLYNOMIAL_ATOMS:
        return Verdict.proven_nonzero()
    points = weyl_points(max_var(e), grid)
    worst = max(abs(eval_at(e, p)) for p in points)
    if worst <= tol:
        return Verdict.numerically_zero(tol)
    return Verdict.numerically_nonzero(tol)


def all_zero(verdicts: Iterable[Verdict]) -> Verdict:
    """Conjunction: zero only if every member is zero.

    A proven nonzero member dominates any numerical one; among all-zero
    results the certainty is the weakest member's.
    """
    vs = list(verdicts)
    nonzero = [v for v in vs if not v.is_zero]
    if nonzero:
        for v in nonzero:
            if v.proven:
                return v
        return nonzero[0]
    if all(v.proven for v in vs):
        return Verdict.proven_zero()
    tols = [v.tol for v in vs if v.tol is not None]
    return Verdict.numerically_zero(max(tols))
