"""The benchmark's own exact algebra, used to build inputs and to check outputs.

A polynomial is a dict from monomials to nonzero Fractions.  A monomial is
a sorted tuple of (atom, exponent) pairs, and an atom is ("x", i), ("pi",)
or ("sin", key) / ("cos", key), where key is the canonical form of the
argument polynomial.  The argument's sign is normalized so that
sin(-u) = -sin(u) and cos(-u) = cos(u) share atoms.  This is enough to
decide equality of everything the workloads build: pi is treated as an
independent symbol, and trig atoms as independent functions of their
arguments.

`parse` reads the text the library prints (`torusfm.expr.to_str`), so
checks never walk the library's expression objects.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

ZERO: dict = {}
ONE = {(): Fraction(1)}
PI = {((("pi",), 1),): Fraction(1)}


def const(c) -> dict:
    c = Fraction(c)
    return {(): c} if c else {}


def x(i: int) -> dict:
    return {((("x", i), 1),): Fraction(1)}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {m: v * c for m, v in a.items()} if c else {}


def sub(a: dict, b: dict) -> dict:
    return add(a, scale(b, -1))


def _mono_mul(ma, mb):
    exps = dict(ma)
    for atom, k in mb:
        exps[atom] = exps.get(atom, 0) + k
    return tuple(sorted(exps.items()))


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(a: dict, n: int) -> dict:
    out = ONE
    for _ in range(n):
        out = mul(out, a)
    return out


def _key(a: dict):
    return tuple(sorted(a.items()))


def _trig(kind: str, arg: dict) -> dict:
    if not arg:
        return ZERO if kind == "sin" else ONE
    sign = 1
    if arg[min(arg)] < 0:
        arg, sign = scale(arg, -1), -1
    if kind == "cos":
        sign = 1
    return {(((kind, _key(arg)), 1),): Fraction(sign)}


def sin(arg: dict) -> dict:
    return _trig("sin", arg)


def cos(arg: dict) -> dict:
    return _trig("cos", arg)


def diff(a: dict, i: int) -> dict:
    """Partial derivative with respect to x<i>."""
    out: dict = {}
    for mono, c in a.items():
        for pos, (atom, k) in enumerate(mono):
            if atom[0] == "x":
                if atom[1] != i:
                    continue
                inner = ONE
            elif atom[0] in ("sin", "cos"):
                arg = dict(atom[1])
                inner = diff(arg, i)
                if not inner:
                    continue
                if atom[0] == "sin":
                    inner = mul(inner, cos(arg))
                else:
                    inner = scale(mul(inner, sin(arg)), -1)
            else:
                continue
            rest = mono[:pos] + ((atom, k - 1),) + mono[pos + 1:] if k > 1 else mono[:pos] + mono[pos + 1:]
            out = add(out, mul({rest: c * k}, inner))
    return out


def is_constant(a: dict) -> bool:
    """True when no variable occurs, also inside trig arguments."""
    return not variables(a)


def variables(a: dict) -> set:
    found = set()
    for mono in a:
        for atom, _ in mono:
            if atom[0] == "x":
                found.add(atom[1])
            elif atom[0] in ("sin", "cos"):
                found |= variables(dict(atom[1]))
    return found


def evaluate(a: dict, point) -> float:
    """Floating-point value at a point, trig content included."""
    total = 0.0
    for mono, c in a.items():
        term = float(c)
        for atom, k in mono:
            if atom[0] == "x":
                v = float(point[atom[1] - 1])
            elif atom[0] == "pi":
                v = math.pi
            else:
                inner = evaluate(dict(atom[1]), point)
                v = math.sin(inner) if atom[0] == "sin" else math.cos(inner)
            term *= v ** k
        total += term
    return total


def expand_angles(a: dict) -> dict:
    """Rewrite each sin/cos of a sum u + v by the angle addition formula.

    The result equals the input as a function but not atom by atom, so only
    a trig identity shows that their difference vanishes.
    """
    out: dict = {}
    for mono, c in a.items():
        piece = {(): c}
        for atom, k in mono:
            arg = dict(atom[1]) if atom[0] in ("sin", "cos") else None
            if arg is None or len(arg) < 2:
                piece = mul(piece, {((atom, k),): Fraction(1)})
                continue
            first = min(arg)
            u, v = {first: arg[first]}, {m: e for m, e in arg.items() if m != first}
            if atom[0] == "sin":
                f = add(mul(sin(u), cos(v)), mul(cos(u), sin(v)))
            else:
                f = sub(mul(cos(u), cos(v)), mul(sin(u), sin(v)))
            piece = mul(piece, power(f, k))
        out = add(out, piece)
    return out


def to_text(a: dict) -> str:
    """Text in the library's expression grammar."""
    if not a:
        return "0"
    terms = []
    for mono, c in sorted(a.items()):
        factors = [_atom_text(atom) + (f"^{k}" if k > 1 else "") for atom, k in mono]
        if not factors:
            terms.append((c < 0, str(abs(c))))
            continue
        lead = [] if abs(c) == 1 else [f"({abs(c)})" if c.denominator != 1 else str(abs(c))]
        terms.append((c < 0, "*".join(lead + factors)))
    text = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, t in terms[1:]:
        text += (" - " if neg else " + ") + t
    return text


def _atom_text(atom) -> str:
    if atom[0] == "x":
        return f"x{atom[1]}"
    if atom[0] == "pi":
        return "pi"
    return f"{atom[0]}({to_text(dict(atom[1]))})"


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([()+\-*/^]))")


def parse(text: str) -> dict:
    """Parse one expression in the library's grammar into a polynomial."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    p = _Parser(tokens)
    out = p.sum()
    if p.i != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


class _Parser:
    def __init__(self, tokens):
        self.t = tokens
        self.i = 0

    def peek(self):
        return self.t[self.i] if self.i < len(self.t) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def sum(self) -> dict:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = add(out, rhs) if op == "+" else sub(out, rhs)
        return out

    def term(self) -> dict:
        out = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                out = mul(out, rhs)
            else:
                if set(rhs) != {()}:
                    raise ValueError("division by a non-rational")
                out = scale(out, 1 / rhs[()])
        return out

    def unary(self) -> dict:
        if self.peek() == "-":
            self.take()
            return scale(self.unary(), -1)
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return power(base, int(self.take()))
        return base

    def atom(self) -> dict:
        tok = self.take()
        if tok.isdigit():
            return const(int(tok))
        if tok == "(":
            out = self.sum()
            self.take(")")
            return out
        if tok == "pi":
            return PI
        if tok in ("sin", "cos"):
            self.take("(")
            arg = self.sum()
            self.take(")")
            return sin(arg) if tok == "sin" else cos(arg)
        if tok[0] == "x" and tok[1:].isdigit():
            return x(int(tok[1:]))
        raise ValueError(f"unknown token {tok!r}")


def parse_list(text: str) -> list:
    """Parse "[e1, e2, ...]" as printed by the command line reports."""
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise ValueError(f"not a list: {text!r}")
    inner = inner[1:-1].strip()
    return [parse(part) for part in _split_top(inner)] if inner else []


def parse_matrix(text: str) -> list:
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise ValueError(f"not a matrix: {text!r}")
    inner = inner[1:-1].strip()
    return [parse_list(part) for part in _split_top(inner)] if inner else []


def _split_top(text: str) -> list:
    """Split on commas outside brackets and parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]
