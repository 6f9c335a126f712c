"""Symbolic coefficient expressions over the rationals, in one canonical form.

The grammar: rational literals, pi, variables x1, x2, ..., sums,
differences, products, division by a rational constant, nonnegative integer
powers, sin and cos.

An `Expr` is canonical when it is built: a sparse map from terms to nonzero
rationals, ints when integral and Fractions otherwise, so two expressions
are equal exactly when their maps are.  A term
is a monomial in the variables, pi and opaque atoms, times a real character.

- The character is 1, cos(w.x) or sin(w.x).  The frequency w is a nonzero
  linear form with coefficients in Q + Q*pi, signed so that its first
  nonzero rational coefficient is positive; this pairs w with -w, so values
  stay real.  Products of characters reduce by the product-to-sum rules.
- sin or cos of w.x + b with b in (pi/2)*Z becomes a character, up to a sign
  or a swap of sin and cos, so sin(pi) is exactly 0.  Any other sin or cos,
  such as sin(x1^2), sin(x1 + 1) or sin(1), is an opaque atom keyed by its
  argument, signed so that sin(-u) = -sin(u) and cos(-u) = cos(u).

Zero testing is four-valued.  The empty map is zero, proven.  A nonempty map
without opaque atoms is nonzero, proven: each coefficient of a character is
a polynomial in x and pi, pi is transcendental, and characters with distinct
frequencies are linearly independent over polynomials.  What this proves is
therefore every identity among polynomials in x and pi times characters of
(Q + Q*pi)-linear frequencies.  A map with opaque atoms is sampled on a Weyl
low-discrepancy grid and the verdict is only numerical: identities among
such functions are undecidable in general (Richardson, J. Symb. Logic 33,
1968).

`parse` bounds what it builds.  A sum may not exceed MAX_TERMS terms, nor a
product MAX_TERMS pairs of terms; exponents are at most MAX_EXPONENT,
coefficients below 2**MAX_COEFFICIENT_BITS and variable indices at most
MAX_VARIABLE.  Parenthesized groups and
sin/cos calls nest at most MAX_DEPTH - 1 deep; flat chains of operators and
minus signs may be of any length.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# A monomial is a sorted tuple of (atom, exponent) pairs.  Atoms sort as
# pi (0,), then the variables x_i (1, i), then opaque sin and cos atoms
# (`_Opaque`).  A character is None for 1, or (kind, frequency) with the
# frequency a tuple of (i, a, b) for the coefficient a + b*pi of x_i, by
# increasing i.
_PI = (0,)


class Expr:
    """An immutable sum of terms; `terms` maps (monomial, character) to a rational.

    Every coefficient is an int when it is integral and a Fraction
    otherwise, so integer arithmetic carries most of the work.

    Build expressions with `parse`, `num`, `var`, `PI`, `sin`, `cos` and the
    arithmetic operators, which accept ints and Fractions too.  `terms` is
    read-only.
    """

    __slots__ = ("terms", "_hash", "_text")

    def __new__(cls, terms: dict):
        self = object.__new__(cls)
        self.terms = terms
        self._hash = None
        self._text = None
        return self

    def __add__(self, other):
        other = as_expr(other)
        return Expr(_add(self.terms, other.terms)) if isinstance(other, Expr) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        other = as_expr(other)
        return Expr(_add(self.terms, other.terms, -1)) if isinstance(other, Expr) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Expr({t: -c for t, c in self.terms.items()})

    def __mul__(self, other):
        other = as_expr(other)
        return Expr(_mul(self.terms, other.terms)) if isinstance(other, Expr) else NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("exponents must be nonnegative integers")
        out = ONE
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == other.terms if isinstance(other, Expr) else NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return f"parse({to_str(self)!r})"


def as_expr(value):
    """An int or Fraction as a constant Expr; any other value unchanged."""
    if isinstance(value, Expr):  # before Fraction, whose isinstance check is slow
        return value
    return num(value) if isinstance(value, (int, Fraction)) else value


def _exact(c):
    """An int or Fraction c as an int when it is integral."""
    return c if c.__class__ is int or c.denominator != 1 else c.numerator


def num(value) -> Expr:
    c = value if value.__class__ is int else _exact(Fraction(value))
    return Expr({((), None): c} if c else {})


def var(index: int) -> Expr:
    if index < 1:
        raise ValueError("variable indices start at 1")
    if index > MAX_VARIABLE:
        raise ValueError(f"variable index exceeds {MAX_VARIABLE}")
    return _variable(index)


@functools.lru_cache(maxsize=1024)
def _variable(index: int) -> Expr:
    """x<index>, one Expr per index: every linear term in x<index> built from it shares its term key."""
    return Expr({((((1, index), 1),), None): 1})


ZERO = Expr({})
ONE = num(1)
PI = Expr({(((_PI, 1),), None): 1})


# ---------------------------------------------------------------- term maps
#
# Sums and products of raw term maps.  Coefficients are ints or Fractions,
# ints whenever integral; `_products`, `exact_minors` and
# `_eliminate_constants` run them on ints scaled by a common denominator.


def _put(out: dict, t, c, kept: int = 0, held: list | None = None) -> None:
    """Add c to the coefficient of t, dropping t when the sum is zero.

    `_mul` passes the number of keys out had before its product as kept: a
    zero sum on one of those stays in place as 0 and is listed in held.
    """
    s = out.get(t)
    if s is None:
        out[t] = c
    else:
        s += c
        if s:
            out[t] = s if s.__class__ is int or s.denominator != 1 else s.numerator
        elif kept and t in itertools.islice(out, kept):
            out[t] = 0
            held.append(t)
        else:
            del out[t]


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign*b for sign = 1 or -1."""
    out = dict(a)
    for t, c in b.items():
        s = out.get(t)
        if s is None:
            out[t] = c if sign > 0 else -c
        else:
            s = s + c if sign > 0 else s - c
            if s:
                out[t] = s if s.__class__ is int or s.denominator != 1 else s.numerator
            else:
                del out[t]
    return out


def _mono_mul(ma: tuple, mb: tuple) -> tuple:
    if not ma:
        return mb
    if not mb:
        return ma
    exps = dict(ma)
    for atom, k in mb:
        exps[atom] = exps.get(atom, 0) + k
    return tuple(sorted(exps.items()))


def _mul(a: dict, b: dict, out: dict | None = None) -> dict:
    """The term map a*b; with out, out + a*b, added into out in place.

    The terms keep the order of the chained sum out + a*b: a term of out
    stays in place when a partial sum of the product passes through zero,
    and goes only if the sum ends at zero.
    """
    if len(a) == 1 and ((), None) in a:
        a, b = b, a
    if len(b) == 1 and ((), None) in b:
        k = b[((), None)]
        if out is None:
            return dict(a) if k == 1 else {t: _exact(c * k) for t, c in a.items()}
        for t, c in a.items():
            _put(out, t, c if k == 1 else _exact(c * k))
        return out
    out = {} if out is None else out
    kept, held = len(out), []
    for (ma, xa), ca in a.items():
        for (mb, xb), cb in b.items():
            m = _mono_mul(ma, mb)
            c = ca * cb
            if c.__class__ is not int and c.denominator == 1:
                c = c.numerator
            if xa is None or xb is None:
                _put(out, (m, xa or xb), c, kept, held)
            else:
                # Each piece of a product of characters carries a factor +-1/2.
                for x, s in _char_mul(xa, xb):
                    h = c * s
                    _put(out, (m, x), h // 2 if h.__class__ is int and not h & 1 else Fraction(h, 2), kept, held)
    for t in held:
        if not out.get(t, 1):
            del out[t]
    return out


def _denominator(maps) -> int:
    """The lcm of the coefficient denominators of the term maps; None counts as zero."""
    return math.lcm(*(c.denominator for m in maps if m for c in m.values()))


def _times(maps, d: int) -> list:
    """Each term map times d, a multiple of their common denominator, so with int coefficients."""
    if d == 1:
        return list(maps)
    return [
        m and {t: c * d if c.__class__ is int else c.numerator * (d // c.denominator) for t, c in m.items()}
        for m in maps
    ]


def _divided(m: dict, d: int) -> dict:
    """The term map m over the int d, each coefficient an int when it is integral."""
    if d == 1:
        return m
    return {t: c // d if not c % d else Fraction(c, d) for t, c in m.items()}


_UNIT = ((), None)


def _rationals(matrix) -> list[list] | None:
    """The value of every entry of the matrix, when each is a rational constant, else None.

    Entries are Exprs, ints, Fractions or None, which reads as 0; ints and
    Fractions are their own values.
    """
    out = []
    for row in matrix:
        values = []
        for e in row:
            if e.__class__ is Expr:
                m = e.terms
                if len(m) > 1 or m and _UNIT not in m:
                    return None
                e = m.get(_UNIT)
            values.append(e or 0)
        out.append(values)
    return out


def _products(rows, columns) -> list[list[Expr]]:
    """The matrix product: out[i][j] = sum over l of rows[i][l] * columns[j][l].

    Entries are Exprs, ints, Fractions or None, which stands for zero.
    When every entry is a rational constant, each rational is read once,
    the rows and the columns are put over one denominator each as ints,
    and every entry is an int dot product divided once by the two scales.
    Otherwise zero entries are skipped; each row, and the columns together,
    are scaled once to int term maps over the lcm of their denominators;
    the column scale is doubled when the columns hold characters, so that
    the halves of character products stay ints.  The products are then
    added as ints into one map per entry, in the term order of the chained
    sum rows[i][0] * columns[j][0] + rows[i][1] * columns[j][1] + ..., and
    each output coefficient is divided once, by the two scales.
    """
    col_values = _rationals(columns)
    if col_values is not None and (row_values := _rationals(rows)) is not None:
        dr, row_ints = _integer_scaled(row_values)
        dc, col_ints = _integer_scaled(col_values)
        d = dr * dc
        out = []
        for row in row_ints:
            line = []
            for col in col_ints:
                s = sum(map(operator.mul, row, col))
                line.append(Expr({_UNIT: s // d if not s % d else Fraction(s, d)}) if s else ZERO)
            out.append(line)
        return out
    cols = [[None if e is None else as_expr(e).terms for e in col] for col in columns]
    rows = [[None if e is None else as_expr(e).terms for e in row] for row in rows]
    dc = _denominator(m for col in cols for m in col)
    if any(x is not None for col in cols for m in col if m for _, x in m):
        dc *= 2
    cols = [_times(col, dc) for col in cols]
    out = []
    for row in rows:
        dr = _denominator(row)
        row = _times(row, dr)
        line = []
        for col in cols:
            acc: dict = {}
            for a, b in zip(row, col):
                if a and b:
                    _mul(a, b, acc)
            line.append(Expr(_divided(acc, dr * dc)))
        out.append(line)
    return out


def _integer_scaled(values) -> tuple[int, list[list[int]]]:
    """(d, ints): a matrix of ints and Fractions times d, the lcm of its denominators."""
    d = math.lcm(*(c.denominator for row in values for c in row))
    return d, [[c * d if c.__class__ is int else c.numerator * (d // c.denominator) for c in row] for row in values]


def _freq_combine(u: tuple, v: tuple, sign: int) -> tuple:
    """The frequency u + sign*v, zero coefficients dropped."""
    acc = {i: (a, b) for i, a, b in u}
    for i, a, b in v:
        p, q = acc.get(i, (0, 0))
        acc[i] = (_exact(p + sign * a), _exact(q + sign * b))
    return tuple((i, a, b) for i, (a, b) in sorted(acc.items()) if a or b)


def _character(kind: str, freq: tuple):
    """(character, sign) with kind(freq.x) = sign * character; sign 0 for sin(0)."""
    if not freq:
        return None, 0 if kind == "sin" else 1
    _, a, b = freq[0]
    if (a or b) < 0:
        freq = tuple((i, -p, -q) for i, p, q in freq)
        return (kind, freq), -1 if kind == "sin" else 1
    return (kind, freq), 1


def _char_mul(xa, xb) -> list:
    """The product of two characters as (character, s) pairs, each piece s/2 times its character."""
    (ka, fa), (kb, fb) = xa, xb
    plus, minus = _freq_combine(fa, fb, 1), _freq_combine(fa, fb, -1)
    if ka == kb:
        pieces = (("cos", minus, 1), ("cos", plus, 1 if ka == "cos" else -1))
    else:
        pieces = (("sin", plus, 1), ("sin", minus, 1 if ka == "sin" else -1))
    out = []
    for kind, freq, s in pieces:
        x, sign = _character(kind, freq)
        if sign:
            out.append((x, s * sign))
    return out


# ---------------------------------------------------------------- sin and cos


class _Opaque(tuple):
    """An opaque atom (2, printed argument, "sin" or "cos", argument).

    The printed argument is canonical, so it and the kind identify the
    atom.  Comparing only them keeps equality and hashing flat however
    deeply atoms nest.
    """

    __slots__ = ()

    def __eq__(self, other):
        return self[:3] == other[:3]

    def __hash__(self):
        return hash(self[:3])


def _affine(terms: dict):
    """(frequency, q) when terms is w.x + q*pi/2 with q an integer, else None."""
    coeffs: dict = {}
    quarter = 0
    for (mono, x), c in terms.items():
        if x is not None:
            return None
        if mono == ((_PI, 1),):
            if (2 * c).denominator != 1:
                return None
            quarter = int(2 * c)
            continue
        if len(mono) == 1 and mono[0][0][0] == 1 and mono[0][1] == 1:
            slot = 0
        elif len(mono) == 2 and mono[0] == (_PI, 1) and mono[1][0][0] == 1 and mono[1][1] == 1:
            slot = 1
        else:
            return None
        coeffs.setdefault(mono[-1][0][1], [0, 0])[slot] = c
    return tuple((i, a, b) for i, (a, b) in sorted(coeffs.items())), quarter


def _trig(kind: str, arg: Expr) -> Expr:
    affine = _affine(arg.terms)
    if affine is not None:
        freq, quarter = affine
        # kind(t + q*pi/2) is sin(t + q'*pi/2) with q' = q, or q + 1 for cos,
        # which is +sin, +cos, -sin, -cos of t as q' mod 4 is 0, 1, 2, 3.
        q = (quarter + (kind == "cos")) % 4
        x, sign = _character(("sin", "cos")[q % 2], freq)
        sign *= (1, 1, -1, -1)[q]
        return Expr({((), x): sign} if sign else {})
    sign = 1
    if min(arg.terms.items(), key=_term_key)[1] < 0:
        arg, sign = -arg, -1 if kind == "sin" else 1
    return Expr({(((_Opaque((2, to_str(arg), kind, arg)), 1),), None): sign})


def sin(e: Expr) -> Expr:
    return _trig("sin", e)


def cos(e: Expr) -> Expr:
    return _trig("cos", e)


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|[()+\-*/^,])")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# Deepest expression the parser accepts.  A token lies at depth 1 plus the
# number of parenthesized groups and sin/cos calls around it; chains of
# operators and minus signs are parsed by loops and add nothing.  The parser
# recurses three times per group and the calculus once or twice per nested
# sin or cos, which keeps both well inside Python's default recursion limit
# of 1000.
MAX_DEPTH = 200
# Bounds on what parsing builds, so that the text's size bounds the work:
# the terms of a sum and the pairs of terms a product expands, the value of
# an exponent, the bits of a coefficient's numerator and denominator, and
# the index of a variable, since a sampled zero test builds one coordinate
# per index up to the largest in use.  `var` refuses the same indices.
MAX_TERMS = 1000
MAX_EXPONENT = 1000
MAX_COEFFICIENT_BITS = 4096
MAX_VARIABLE = 100_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.last_start = 0
        self.groups = 0  # parenthesized groups open at the current position

    def error(self, message: str, offset: int | None = None) -> ParseError:
        return ParseError(message, self.pos if offset is None else offset)

    def bounded(self, e: Expr, changed, offset: int) -> Expr:
        """e, once its size and its coefficients at the terms changed are checked."""
        if len(e.terms) > MAX_TERMS:
            raise self.error(f"expression has more than {MAX_TERMS} terms", offset)
        for t in changed:
            c = e.terms.get(t)
            if c is not None and max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
                raise self.error(f"coefficient exceeds {MAX_COEFFICIENT_BITS} bits", offset)
        return e

    def product(self, a: Expr, b: Expr, offset: int) -> Expr:
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise self.error(f"product expands to more than {MAX_TERMS} terms", offset)
        e = a * b
        return self.bounded(e, e.terms, offset)

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
        e = self.parse_sum()
        if self.next_token() is not None:
            raise self.error("trailing input", self.last_start)
        return e

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while (tok := self.peek_token()) in ("+", "-"):
            self.next_token()
            at = self.last_start
            r = self.parse_term()
            e = self.bounded(e + r if tok == "+" else e - r, r.terms, at)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while (tok := self.peek_token()) in ("*", "/"):
            self.next_token()
            at = self.last_start
            r = self.parse_factor()
            if tok == "/":
                c = r.terms.get(((), None))
                if c is None or len(r.terms) != 1:
                    raise self.error("denominator must be a nonzero rational literal")
                e = Expr({t: _exact(Fraction(v, c)) for t, v in e.terms.items()})
                e = self.bounded(e, e.terms, at)
            else:
                e = self.product(e, r, at)
        return e

    def parse_factor(self) -> Expr:
        """Unary minus signs, an atom or parenthesized group, an exponent."""
        negate = False
        while self.peek_token() == "-":
            self.next_token()
            negate = not negate
        tok = self.next_token()
        if tok is None:
            raise self.error("unexpected end of input")
        at = self.last_start
        # Checked before any recursion, so deep nesting cannot exhaust the
        # stack before it is refused.
        if self.groups >= MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", at)
        if tok in ("(", "sin", "cos"):
            if tok != "(":
                self.expect("(")
            self.groups += 1
            e = self.parse_sum()
            self.expect(")")
            self.groups -= 1
            e = sin(e) if tok == "sin" else cos(e) if tok == "cos" else e
        elif tok.isdigit():
            # A literal of more than bits/3 digits is at least 2**bits.
            if len(tok) > MAX_COEFFICIENT_BITS // 3 or int(tok).bit_length() > MAX_COEFFICIENT_BITS:
                raise self.error(f"coefficient exceeds {MAX_COEFFICIENT_BITS} bits", at)
            e = num(int(tok))
        elif tok == "pi":
            e = PI
        elif vm := re.fullmatch(r"x([1-9][0-9]*)", tok):
            # Compared as text first: int() refuses very long digit strings.
            digits = vm.group(1)
            if len(digits) > len(str(MAX_VARIABLE)) or int(digits) > MAX_VARIABLE:
                raise self.error(f"variable index exceeds {MAX_VARIABLE}", at)
            e = var(int(digits))
        elif tok[0].isalpha():
            raise self.error(f"unknown name {tok!r}", at)
        else:
            raise self.error("expected an expression", at)
        if self.peek_token() == "^":
            self.next_token()
            at = self.last_start
            exp_tok = self.next_token()
            if exp_tok is None or not exp_tok.isdigit():
                raise self.error("expected a nonnegative integer exponent")
            # Compared as text first: int() refuses very long digit strings.
            digits = exp_tok.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise self.error(f"exponent exceeds {MAX_EXPONENT}", self.last_start)
            power = ONE
            for _ in range(int(digits)):
                power = self.product(power, e, at)
            e = power
        return -e if negate else e


def parse(text: str) -> Expr:
    """Parse one expression; raises ParseError with a byte offset on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- printing


def _term_key(item) -> tuple:
    """Print order of (term, coefficient) items: polynomial terms first, then
    by character, by falling degree in the variables, by the variables and
    opaque atoms, then by pi."""
    (mono, x), _ = item
    pi = mono[0][1] if mono and mono[0][0] == _PI else 0
    rest = mono[1:] if pi else mono
    degree = sum(k for a, k in rest if a[0] == 1)
    return (x is not None, x or (), -degree, tuple((a, -k) for a, k in rest), pi)


def _atom_text(atom) -> str:
    return "pi" if atom[0] == 0 else f"x{atom[1]}" if atom[0] == 1 else f"{atom[2]}({atom[1]})"


def _freq_terms(freq: tuple) -> dict:
    out = {}
    for i, a, b in freq:
        if a:
            out[((((1, i), 1),), None)] = a
        if b:
            out[(((_PI, 1), ((1, i), 1)), None)] = b
    return out


def _format(terms: dict) -> str:
    if not terms:
        return "0"
    out = []
    for (mono, x), c in sorted(terms.items(), key=_term_key) if len(terms) > 1 else terms.items():
        factors = [_atom_text(a) if k == 1 else f"{_atom_text(a)}^{k}" for a, k in mono]
        if x is not None:
            factors.append(f"{x[0]}({_format(_freq_terms(x[1]))})")
        n, d = c.numerator, c.denominator
        negative = n < 0
        if negative:
            n = -n
        if n != 1 or d != 1 or not factors:
            factors.insert(0, str(n) if d == 1 else f"{n}/{d}")
        sign = ("-" if negative else "") if not out else " - " if negative else " + "
        out.append(sign + "*".join(factors))
    return "".join(out)


def to_str(e: Expr) -> str:
    """Canonical text form, a flat sum of products; parse(to_str(e)) == e."""
    if e._text is None:
        e._text = _format(e.terms)
    return e._text


# ---------------------------------------------------------------- calculus


def diff(e: Expr, index: int) -> Expr:
    """Partial derivative with respect to x<index>."""
    out: dict = {}
    for (mono, x), c in e.terms.items():
        for pos, (a, k) in enumerate(mono):
            if a[0] == 0 or (a[0] == 1 and a[1] != index):
                continue
            rest = mono[:pos] + (((a, k - 1),) if k > 1 else ()) + mono[pos + 1 :]
            if a[0] == 1:
                _put(out, (rest, x), _exact(c * k) if k > 1 else c)
                continue
            # d sin(u) = cos(u) du and d cos(u) = -sin(u) du, on the same u.
            du = diff(a[3], index)
            if du.terms:
                other = _Opaque((2, a[1], "cos" if a[2] == "sin" else "sin", a[3]))
                scale = _exact(c * k if a[2] == "sin" else -c * k)
                for t, v in _mul({(_mono_mul(rest, ((other, 1),)), x): scale}, du.terms).items():
                    _put(out, t, v)
        if x is not None:
            # d cos(w.x) = -w_i sin(w.x) dx_i and d sin(w.x) = w_i cos(w.x) dx_i.
            for i, p, q in x[1]:
                if i == index:
                    turned = ("sin" if x[0] == "cos" else "cos", x[1])
                    s = -c if x[0] == "cos" else c
                    if p:
                        _put(out, (mono, turned), _exact(s * p))
                    if q:
                        _put(out, (_mono_mul(mono, ((_PI, 1),)), turned), _exact(s * q))
    return Expr(out) if out else ZERO


def vars_of(e: Expr) -> frozenset[int]:
    """Indices of the variables e depends on, inside opaque atoms too."""
    out: set = set()
    for mono, x in e.terms:
        for a, _ in mono:
            if a[0] == 1:
                out.add(a[1])
            elif a[0] == 2:
                out |= vars_of(a[3])
        if x is not None:
            out.update(i for i, _, _ in x[1])
    return frozenset(out)


def max_var(e: Expr) -> int:
    used = vars_of(e)
    return max(used) if used else 0


def is_constant(e: Expr) -> bool:
    return not vars_of(e)


def has_opaque(e: Expr) -> bool:
    """Whether some term holds an opaque sin or cos, which only sampling decides."""
    return any(a[0] == 2 for mono, _ in e.terms for a, _ in mono)


def _coordinate(point: Sequence, index: int):
    if index > len(point):
        raise ValueError(f"unbound variable x{index}")
    return point[index - 1]


def eval_at(e: Expr, point: Sequence) -> float:
    """Numeric value at a point; point[i-1] feeds x<i>."""
    total = 0.0
    for (mono, x), c in e.terms.items():
        v = float(c)
        for a, k in mono:
            if a[0] == 0:
                v *= math.pi**k
            elif a[0] == 1:
                v *= float(_coordinate(point, a[1])) ** k
            else:
                u = eval_at(a[3], point)
                v *= (math.sin(u) if a[2] == "sin" else math.cos(u)) ** k
        if x is not None:
            phase = sum((p + q * math.pi) * float(_coordinate(point, i)) for i, p, q in x[1])
            v *= math.sin(phase) if x[0] == "sin" else math.cos(phase)
        total += v
    return total


def _rational_factors(term) -> tuple:
    """A term's monomial if all its atoms are variables; rejects pi, characters and opaque atoms."""
    mono, x = term
    if x is None and all(a[0] == 1 for a, _ in mono):
        return mono
    raise ValueError("not a rational expression")


def eval_exact(e: Expr, point: Sequence) -> Fraction:
    """Exact value at a rational point; rejects pi, sin and cos."""
    total = None
    for term, c in e.terms.items():
        for a, k in _rational_factors(term):
            v = Fraction(_coordinate(point, a[1]))
            c *= v if k == 1 else v**k
        total = c if total is None else total + c
    return Fraction(0 if total is None else total)


def _integer_values(rows, point: Sequence) -> list[list[int]]:
    """Each row of expressions at a rational point as ints, a positive multiple of its values.

    The point holds ints or Fractions.  With x_i = n_i/D over one
    denominator D and the row's term maps scaled to ints by the lcm L of
    their coefficient denominators, a row of top total degree m is evaluated
    times L*D^m, a term c*prod x^k of degree e giving c*prod n^k*D^(m-e),
    then divided by the gcd of its entries.  Rejects what `eval_exact` does.
    """
    d = math.lcm(*(x.denominator for x in point))
    nums = [x.numerator * (d // x.denominator) for x in point]
    out = []
    for row in rows:
        maps = [e.terms for e in row]
        top = max((sum(k for _, k in mono) for m in maps for mono, _ in m), default=0)
        values = []
        for m in _times(maps, _denominator(maps)):
            v = 0
            for term, c in m.items():
                deg = top
                for a, k in _rational_factors(term):
                    c *= _coordinate(nums, a[1]) ** k
                    deg -= k
                v += c * d**deg
            values.append(v)
        g = math.gcd(*values)
        out.append([v // g for v in values] if g > 1 else values)
    return out


def _scaled_term_rows(matrix) -> tuple[list[int], list[list[dict]]]:
    """(scales, rows): each row as term maps times the common denominator of its coefficients."""
    maps = [[e.terms for e in row] for row in matrix]
    scales = [_denominator(row) for row in maps]
    return scales, [_times(row, d) for row, d in zip(maps, scales)]


def _eliminate_constants(matrix) -> tuple[int, list[list[Expr]]]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on constant pivots.

    On the rows scaled to integer term maps, as in `exact_minors`, the next
    pivot p is the first nonzero rational constant entry, row by row.  Each
    other entry e of the block becomes (p*e - f*g)/q, with f and g the
    entries in the pivot's column and row and q the previous pivot: f*g is
    subtracted in place from the one new map p*e, which is divided once.
    After t pivots rank(matrix) = t + rank(block) at every point, and the
    two determinants, when square, differ by a constant factor.  Returns (t, block).
    """
    rows = _scaled_term_rows(matrix)[1]
    t, q = 0, 1
    while pivot := next(
        ((i, j) for i, row in enumerate(rows) for j, e in enumerate(row)
         if len(e) == 1 and _UNIT in e),
        None,
    ):
        i, j = pivot
        top = rows.pop(i)
        p = top.pop(j)[_UNIT]
        block = []
        for row in rows:
            minus_f = {u: -c for u, c in row.pop(j).items()}
            line = []
            for e, g in zip(row, top):
                out = {u: c * p for u, c in e.items()}
                if minus_f and g:
                    _mul(minus_f, g, out)
                line.append(_divided(out, q))
            block.append(line)
        rows, q, t = block, p, t + 1
    return t, [[Expr(e) for e in row] for row in rows]


def exact_minors(matrix):
    """Exact minors of a matrix of expressions as a function (rows, cols) -> Expr.

    rows and cols are increasing index tuples of one length.  Each minor is
    a Laplace expansion along its first column, memoized on (rows, cols),
    so minors of every size share their sub-minors.  Each row is first
    scaled by the common denominator of its coefficients, so the expansion
    runs on integer term maps; a minor is divided by the scales of its rows
    when it is handed out.
    """
    scales, scaled = _scaled_term_rows(matrix)
    memo: dict = {}

    def minor(rows, cols) -> dict:
        d = memo.get((rows, cols))
        if d is None:
            if len(rows) == 1:
                d = scaled[rows[0]][cols[0]]
            else:
                d = {}
                for i, r in enumerate(rows):
                    e = scaled[r][cols[0]]
                    if e:
                        t = _mul(e, minor(rows[:i] + rows[i + 1 :], cols[1:]))
                        d = _add(d, t, -1 if i % 2 else 1)
            memo[(rows, cols)] = d
        return d

    def exact(rows, cols) -> Expr:
        return Expr(_divided(minor(rows, cols), math.prod(scales[r] for r in rows)))

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
        """The proven zero: one shared instance, since a Verdict is frozen."""
        return _PROVEN_ZERO

    @staticmethod
    def proven_nonzero() -> "Verdict":
        """The proven nonzero: one shared instance, since a Verdict is frozen."""
        return _PROVEN_NONZERO

    @staticmethod
    def numerically_zero(tol: float) -> "Verdict":
        return Verdict("numerically_zero", tol)

    @staticmethod
    def numerically_nonzero(tol: float) -> "Verdict":
        return Verdict("numerically_nonzero", tol)


_PROVEN_ZERO = Verdict("proven_zero")
_PROVEN_NONZERO = Verdict("proven_nonzero")


def weyl_points(nvars: int, n: int) -> list[tuple[float, ...]]:
    """n equidistributed points in the unit cube (Weyl sequence on sqrt primes).

    The first nvars primes come from a sieve up to nvars(ln nvars + ln ln
    nvars), which exceeds the nvars-th prime for nvars >= 6 (Rosser,
    1941); for fewer variables it runs to 13, the sixth prime.
    """
    if nvars == 0:
        return [()]
    bound = 13 if nvars < 6 else int(nvars * (math.log(nvars) + math.log(math.log(nvars)))) + 1
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    primes = itertools.compress(range(bound + 1), sieve)
    roots = [math.sqrt(p) for p in itertools.islice(primes, nvars)]
    return [tuple(((i + 1) * r) % 1.0 for r in roots) for i in range(n)]


def is_zero(e: Expr, tol: float = 1e-9, grid: int = 17) -> Verdict:
    """Decide whether e vanishes identically as a function.

    The empty map is a proven zero and a map without opaque atoms a proven
    nonzero.  Opaque atoms fall back to evaluation at `grid` Weyl points
    with tolerance `tol`.
    """
    if not e.terms:
        return Verdict.proven_zero()
    if not has_opaque(e):
        return Verdict.proven_nonzero()
    points = weyl_points(max_var(e), grid)
    worst = max(abs(eval_at(e, p)) for p in points)
    if worst <= tol:
        return Verdict.numerically_zero(tol)
    return Verdict.numerically_nonzero(tol)


def all_zero(verdicts: Iterable[Verdict]) -> Verdict:
    """Conjunction: zero only if every member is zero.

    A proven nonzero member dominates any numerical one: the first is
    returned as soon as it is seen, else the first nonzero member.  Among
    all-zero results the certainty is the weakest member's.
    """
    first = tol = None
    numerical = False
    for v in verdicts:
        if v is _PROVEN_ZERO:
            continue
        if v.tol is not None:
            tol = v.tol if tol is None else max(tol, v.tol)
        if v.is_zero:
            numerical = numerical or not v.proven
        elif v.proven:
            return v
        elif first is None:
            first = v
    return first or (Verdict.numerically_zero(tol) if numerical else _PROVEN_ZERO)
