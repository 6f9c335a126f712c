"""Transform for local systems fibred over a Lagrangian torus fibration.

The total space carries base coordinates x^1..x^g and fibre angles
y_1..y_g; the dual side replaces the angles by w^1..w^g.  A support that
projects onto a k-dimensional graph in the base is stored in solved form:
the base image is x^{k+i} = zeta^{k+i}(x^1..x^k) and each fibre trace is
the affine subtorus

    y_{g-k+j} = sum_m a[j][m] y_m + chi[j],    j = 1..k,

with every coefficient a function of the free base coordinates alone.
Symbols x1..xk in stored expressions always mean those free coordinates;
nothing may depend on the angles, which keeps invariance under the
fibrewise torus action structural rather than checked.  A section, the
graph y_j = epsilon[j](x^1..x^g) over the whole base, is the case k = g:
no base equations, point fibre traces and chi = epsilon
(`SectionSupport`).

The transform dualizes fibre by fibre, exactly as `fm_absolute` does for
a single torus: each fibre trace is traded for its annihilator subtorus
on the dual side, holonomy and offset changing places.  Assembled over
the base this produces a dual support

    x^{k+i} = zeta^{k+i},    w^{k+i} = sum_j gamma[i][j] w^j + varsigma[i],

whose slope gamma is the Jacobian of zeta, together with a connection
written as one row of dx-coefficients and one row of dw-coefficients.
The transform needs the support Lagrangian (C1), the fibre dimension
constant (C2) and the connection on the support closed (flat).
The dual support is a complex submanifold for z^j = x^j + i w^j exactly
when gamma is constant, and the (0,2) Hodge component of the curvature
vanishes exactly when the input support was Lagrangian.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact_linalg import (
    IntMatrix,
    _gauss_jordan,
    _integer_rows,
    _integral,
    _solve,
    _unchecked,
    mod1,
    rat_vector,
)
from .expr import (
    ONE,
    PI,
    ZERO,
    _UNIT,
    Expr,
    Verdict,
    _divided,
    _eliminate_constants,
    _compiled,
    _evaluated,
    _products,
    _rationals,
    all_zero,
    as_expr,
    diff,
    eval_at,
    exact_minors,
    has_opaque,
    is_constant,
    is_zero,
    max_var,
    vars_of,
    weyl_points,
)
from .fm_absolute import SubtorusLocalSystem
from .torus import AffineSubtorus, Torus, _lattice

__all__ = [
    "ConditionError",
    "ConditionReport",
    "InverseResult",
    "LocalSystemData",
    "RelativeSupport",
    "SectionSupport",
    "TransformedBundle",
    "check_C1_lagrangian",
    "check_C2_C3",
    "check_D_conditions",
    "check_F02_iff_lagrangian",
    "check_cauchy_riemann",
    "curvature_hodge",
    "dual_input_from_bundle",
    "fibre_of_transform",
    "fibre_support",
    "fibre_system",
    "hodge_components",
    "inverse_transform",
    "transform_nontransversal",
    "wit_index",
]

_HALF_PI = Fraction(1, 2) * PI
_TWO_PI = 2 * PI


def _check_base_only(entries, k: int, what: str) -> None:
    for e in entries:
        v = max_var(e)
        if v > k:
            raise ValueError(
                f"{what} may depend on x1..x{k} only, found x{v}"
            )


def _check_dimensions(data) -> None:
    """Store data.g and data.k as ints; a ValueError names a non-integer or g < 1, k outside [0, g]."""
    g, k = _integral(data.g, "g"), _integral(data.k, "k")
    if g < 1 or not 0 <= k <= g:
        raise ValueError("need g >= 1 and 0 <= k <= g")
    data.__dict__.update(g=g, k=k)


# ------------------------------------------------------------- condition data


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one named condition check.

    The verdict tests the obstruction, so the condition holds exactly
    when verdict.is_zero; failures names the offending components.
    """

    name: str
    verdict: Verdict
    failures: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict.is_zero


class ConditionError(ValueError):
    """A precondition of a transform does not hold."""

    def __init__(
        self,
        condition: str,
        report: ConditionReport | None = None,
        message: str | None = None,
    ):
        if message is None:
            message = f"condition {condition} does not hold"
            if report is not None and report.failures:
                message += ": " + ", ".join(report.failures)
        super().__init__(message)
        self.condition = condition
        self.report = report


def _report(name: str, labelled_verdicts) -> ConditionReport:
    pairs = list(labelled_verdicts)
    zero = Verdict.proven_zero()
    failures = tuple(label for label, v in pairs if v is not zero and not v.is_zero)
    return ConditionReport(name, all_zero(v for _, v in pairs), failures)


def _entries(name: str, values):
    """(label, entry) for a vector or a matrix: name[i] or name[i][j], 1-based, row by row."""
    for i, v in enumerate(values, 1):
        if isinstance(v, (tuple, list)):
            for j, e in enumerate(v, 1):
                yield f"{name}[{i}][{j}]", e
        else:
            yield f"{name}[{i}]", v


def _differences(name: str, got, want):
    """`_entries` of got - want, for two vectors or matrices of one shape."""
    diff = [[e - w for e, w in zip(g, h)] if isinstance(g, (tuple, list)) else g - h for g, h in zip(got, want)]
    return _entries(name, diff)


def _gather(name: str, labelled, tol: float, grid: int) -> ConditionReport:
    """Zero-test each labelled expression; failures name the nonzero ones."""
    return _report(name, ((label, is_zero(e, tol, grid)) for label, e in labelled))


def _constancy(name: str, labelled, k: int, tol: float, grid: int) -> ConditionReport:
    """Test each labelled expression for constancy in x1..xk.

    In one scan of e's terms: an empty map is a proven zero; an opaque atom
    sends e to a zero test of each partial derivative; otherwise e is proven
    nonconstant exactly when some x_v, v <= k, is in a monomial or character,
    that is (canonical-form theorem of `expr`) when diff(e, v) is nonempty.
    """

    def verdict(e: Expr) -> Verdict:
        varies = False
        for mono, x in e.terms:
            for atom, _ in mono:
                if atom[0] == 2:
                    return all_zero(is_zero(diff(e, v), tol, grid) for v in range(1, k + 1))
                varies = varies or atom[0] == 1 and atom[1] <= k
            varies = varies or x is not None and any(i <= k for i, _, _ in x[1])
        return Verdict.proven_nonzero() if varies else Verdict.proven_zero()

    return _report(name, ((label, verdict(e)) for label, e in labelled))


def _exterior(row):
    """(j, m, c) for j < m, where c is the dx^j wedge dx^m coefficient of d(sum row[i] dx^i)."""
    n = len(row)
    for j in range(1, n + 1):
        for m in range(j + 1, n + 1):
            yield j, m, diff(row[m - 1], j) - diff(row[j - 1], m)


# ------------------------------------------------------------------ supports


@dataclass(frozen=True)
class RelativeSupport:
    """Support fibred over a k-dimensional graph in the base.

    zeta holds the g-k functions cutting the base image as
    x^{k+i} = zeta[i](x^1..x^k).  Row j of the slope matrix gives the
    fibre equation y_{g-k+j} = sum_m a[j][m] y_m + chi[j]; the free
    angles are y_1..y_{g-k}.  Entries may be Expr, int or Fraction.
    """

    g: int
    k: int
    zeta: tuple[Expr, ...]
    a: tuple[tuple[Expr, ...], ...]
    chi: tuple[Expr, ...]

    _trusted = classmethod(_unchecked)

    def __post_init__(self):
        _check_dimensions(self)
        object.__setattr__(self, "zeta", tuple(as_expr(e) for e in self.zeta))
        object.__setattr__(
            self, "a", tuple(tuple(as_expr(e) for e in row) for row in self.a)
        )
        object.__setattr__(self, "chi", tuple(as_expr(e) for e in self.chi))
        m = self.g - self.k
        if len(self.zeta) != m:
            raise ValueError("one base equation per constrained base coordinate")
        if len(self.a) != self.k or any(len(row) != m for row in self.a):
            raise ValueError(f"slope matrix must be {self.k} by {m}")
        if len(self.chi) != self.k:
            raise ValueError("one fibre offset per constrained angle")
        _check_base_only(self.zeta, self.k, "base equations")
        _check_base_only((e for row in self.a for e in row), self.k, "fibre slopes")
        _check_base_only(self.chi, self.k, "fibre offsets")

    @property
    def fibre_dim(self) -> int:
        return self.g - self.k


def SectionSupport(epsilon) -> RelativeSupport:
    """The graph y_j = epsilon[j](x^1..x^g) over the whole base: the support with k = g.

    The base image is everything and the fibre traces are points, so there
    is no base equation, the slope matrix is empty and chi is epsilon.
    """
    epsilon = tuple(as_expr(e) for e in epsilon)
    _check_base_only(epsilon, len(epsilon), "section components")
    return RelativeSupport(len(epsilon), len(epsilon), (), ((),) * len(epsilon), epsilon)


@dataclass(frozen=True)
class LocalSystemData:
    """Unitary rank-one data on a fibred support.

    alpha lists the dx-coefficients of the connection in the free base
    coordinates (phase convention: the connection form is
    i * sum alpha[j] dx^j).  xi lists constant holonomy phases in [0,1)
    along the free angle directions y_1..y_{g-k} of each fibre.
    """

    alpha: tuple[Expr, ...]
    xi: tuple[Fraction, ...]

    _trusted = classmethod(_unchecked)

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(as_expr(e) for e in self.alpha))
        object.__setattr__(
            self, "xi", tuple(mod1(Fraction(x)) for x in self.xi)
        )


# --------------------------------------------------------- coordinate frame
#
# On the support chart x^c is the coordinate itself for c <= k and
# zeta[c-k-1] beyond, so the chart's Jacobian is the identity over the
# Jacobian gamma of zeta.  Only gamma is found by differentiation.


def _frame(k: int, gamma) -> list[list]:
    """The chart's Jacobian by columns: column j lists d x^c/dx^j over c = 1..g.

    That is the identity, None where it is zero, over gamma.
    """
    return [[ONE if c == j else None for c in range(1, k + 1)] + [row[j - 1] for row in gamma]
            for j in range(1, k + 1)]


def _chart(s: RelativeSupport):
    """(gamma, -theta, curl), computed once per support and kept on it.

    gamma is the Jacobian of zeta and theta_j = sum_c chi_c d x^c/dx^j
    over c = g-k+1..g.  curl maps (j, m), j < m, to the coefficient
    d_m theta_j - d_j theta_m where it is not zero; callers only read it.
    The support is frozen, so the triple is stored on it, as
    `AffineSubtorus.direction_basis` stores its basis; its fields, and so
    its equality, hash and repr, stay as they were.
    """
    chart = s.__dict__.get("_chart")
    if chart is None:
        gamma = tuple(tuple(diff(z, j) for j in range(1, s.k + 1)) for z in s.zeta)
        theta = _products([(None,) * (s.g - s.k) + s.chi], _frame(s.k, gamma))[0]
        turns = tuple(-e for e in theta)
        chart = gamma, turns, {(j, m): e for j, m, e in _exterior(turns) if e.terms}
        object.__setattr__(s, "_chart", chart)
    return chart


def check_C1_lagrangian(
    s: RelativeSupport, tol: float = 1e-9, grid: int = 17
) -> ConditionReport:
    """Whether the support is Lagrangian for sum dx^c wedge dy_c.

    Pulls the symplectic form back along the chart and tests each wedge
    coefficient; failures are labelled by the coefficient, dy{m}^dx{j}
    for the angle block and dx{j}^dx{m} for the offset curl.

    Up to sign, the dy^m wedge dx^j coefficient is d x^m/dx^j +
    sum_l a[l][m] d x^c/dx^j over the constrained angles c = g-k+l, so
    the angle block is one matrix product, [I | a^T] times the chart's
    Jacobian; with constant slopes and affine zeta it runs on ints.  The
    dx wedge dx part is sum_c dx^c wedge d chi_c = -d theta, because
    d(dx^c) = 0, with theta_j = sum_c chi_c d x^c/dx^j; its dx{j}^dx{m}
    coefficient is d_m theta_j - d_j theta_m.  -theta is the dw-row of
    the transform, so the curl is its (0,2) curvature over pi/2.  The
    chart, with the curl, is computed once per support (`_chart`), so
    zeta and theta are differentiated once however many checks and
    transforms read them.  Labels are formatted for nonzero coefficients
    only.
    """
    gamma, _, curl = _chart(s)
    n = s.g - s.k
    rows = [(*(ONE if c == m else None for c in range(1, n + 1)), *col) for m, col in enumerate(zip(*s.a), 1)]
    block = _products(rows, _frame(s.k, gamma))
    labelled = [
        (f"dy{m}^dx{j}", row[j - 1])
        for j in range(1, s.k + 1)
        for m, row in enumerate(block, 1)
        if row[j - 1].terms
    ]
    labelled.extend((f"dx{j}^dx{m}", e) for (j, m), e in curl.items())
    return _gather("C1", labelled, tol, grid)


def check_C2_C3(
    s: RelativeSupport, tol: float = 1e-9, grid: int = 17
) -> tuple[ConditionReport, ConditionReport]:
    """Constant fibre dimension (C2) and constant slope matrix (C3).

    C2 asks that the rank of the slope matrix not drop anywhere on the base
    [0,1]^k.  Each entry's variables are read once.  C2 is proven when every
    entry is constant, or when elimination on the nonzero rational constant
    entries, each block entry updated in place, leaves a block B that is empty
    or zero: rank = (pivots) + rank B at every point.  A drop is proven by
    exact values at two rational probes, of the slopes or of B, whichever has
    fewer terms and exact values: two ranks, or for square slopes determinants
    of both signs.  Only then are the minors expanded exactly, largest size
    first, until one does not vanish; C2 is proven when some minor of that top
    size is a nonzero element of Q[pi] while every larger minor vanishes
    identically.  Otherwise the verdict is numerical: the top minors are
    sampled at Weyl points and the probes for a common zero, or for a sign
    change when only one of them does not vanish identically.  C3 asks that
    every entry be constant, naming offending entries a[j][m], 1-based; one
    scan of an entry's terms decides it.
    """
    c3 = _constancy("C3", _entries("a", s.a), s.k, tol, grid)
    return _c2_report(s, tol, grid), c3


def _c2_report(s: RelativeSupport, tol: float, grid: int) -> ConditionReport:
    return ConditionReport("C2", _constant_rank_verdict(s.a, s.k, tol, grid))


# Simple rational probes on the diagonal and on each axis of [0,1]^k:
# generic sampling misses drops on sets of measure zero.  They are exact,
# so the same points serve the rational rank witnesses and the sampling.
_PROBES = tuple(Fraction(n, d) for n, d in ((0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)))


def _rank_witness(b, points) -> bool | None:
    """Whether exact values of b at two points prove that its rank varies.

    Two ranks prove it, and so do determinants of both signs for square b,
    by the intermediate value theorem on the segment between the points.
    b's rows are compiled to int tables once (`_compiled`) and evaluated
    at each point.  None when an entry has no exact value (pi, a
    character, an opaque atom).
    """
    try:
        tables = _compiled(b)
    except ValueError:
        return None
    square = len(b) == len(b[0])
    seen = set()
    for p in points:
        values = _evaluated(tables, p)
        # (rank, determinant > 0); rows scaled by positive ints keep its sign.
        pivots, minors, swaps = _gauss_jordan(values, len(b[0]))
        full = square and len(pivots) == len(b)
        seen.add((len(pivots), full and (minors[-1] > 0) == (swaps % 2 == 0)))
        if len(seen) > 1:
            return True
    return False


def _constant_rank_verdict(a, k: int, tol: float, grid: int) -> Verdict:
    m_free = len(a[0]) if a else 0
    nvars = max((max(vars_of(e), default=0) for row in a for e in row), default=0)
    if not nvars:
        return Verdict.proven_zero()
    # rank a = t + rank b at every point, so b = 0 proves the rank constant.
    _, b = _eliminate_constants(a)
    if not any(e.terms for row in b for e in row):
        return Verdict.proven_zero()
    probes = [(t,) * nvars for t in _PROBES]
    probes += [(0,) * i + (t,) + (0,) * (nvars - i - 1) for t in _PROBES for i in range(nvars)]
    # The constant pivots keep ranks and determinant signs, so a and b have
    # the same witnesses.  The one with fewer terms is evaluated; the other
    # only when it has no exact values, since pi in a may cancel in b.
    first, second = sorted((a, b), key=lambda x: sum(len(e.terms) for row in x for e in row))
    witness = _rank_witness(first, probes)
    if witness is None:
        witness = _rank_witness(second, probes)
    if witness:
        return Verdict.proven_nonzero()

    minor = exact_minors(a)
    points = weyl_points(nvars, grid) + [tuple(map(float, p)) for p in probes]

    def values(rows, cols) -> list[float]:
        """The minor at every point; the first `grid` are the Weyl points."""
        d = minor(rows, cols)
        return [eval_at(d, p) for p in points]

    # Minors are decided from their canonical forms, largest size first: an
    # empty form is a proven zero, a form without opaque atoms a proven
    # nonzero, and a form with opaque atoms is sampled.  The top size is the
    # largest with a nonzero minor; a nonzero constant in Q[pi] there
    # proves the rank constant.
    larger_sizes_proven = True
    for r in range(min(k, m_free), 0, -1):
        live = []
        nonzero = False
        for rows in itertools.combinations(range(k), r):
            for cols in itertools.combinations(range(m_free), r):
                d = minor(rows, cols)
                if d == ZERO:
                    continue
                if is_constant(d) and not has_opaque(d):
                    return (
                        Verdict.proven_zero()
                        if larger_sizes_proven
                        else Verdict.numerically_zero(tol)
                    )
                live.append((rows, cols))
                if not has_opaque(d) or max(map(abs, values(rows, cols)[:grid])) > tol:
                    nonzero = True
        if nonzero:
            break
        larger_sizes_proven = larger_sizes_proven and not live
    else:
        return Verdict.proven_zero() if larger_sizes_proven else Verdict.numerically_zero(tol)

    # Search for a common zero of the top minors, where the rank drops.  When
    # every other top minor vanishes identically, a sign change of the one
    # left implies a zero between two samples.
    table = [values(*rc) for rc in live]
    for i in range(len(points)):
        if all(abs(vals[i]) <= tol for vals in table):
            return Verdict.numerically_nonzero(tol)
    if len(table) == 1:
        vals = table[0]
        if min(vals) < -tol and max(vals) > tol:
            return Verdict.numerically_nonzero(tol)
    return Verdict.numerically_zero(tol)


def wit_index(s: RelativeSupport, tol: float = 1e-9, grid: int = 17) -> int:
    """Index of the single nonvanishing transform degree: the fibre dimension.

    Requires constant fibre dimension; raises ConditionError otherwise.
    """
    c2 = _c2_report(s, tol, grid)
    if not c2.holds:
        raise ConditionError("C2", c2)
    return s.g - s.k


# ------------------------------------------------------------ transform data


_BUNDLE_FIELDS = ("zeta", "gamma_tilde", "varsigma", "alpha", "fibre_turns")


@dataclass(frozen=True)
class TransformedBundle:
    """Bundle data on the dual side: transform output and inverse input.

    The support is x^{k+i} = zeta[i] together with
    w^{k+i} = sum_j gamma_tilde[i][j] w^j + varsigma[i]; the connection
    form is i * sum alpha[j] dx^j + 2 pi i * sum fibre_turns[j] dw^j.
    holomorphic records whether gamma_tilde is constant, which is the
    Cauchy-Riemann condition for the support in z^j = x^j + i w^j; the
    transforms set it, and it is None on bundles given as input.  The
    inverse transform needs gamma_tilde and varsigma constant; that is
    checked, not assumed.

    The public constructor validates its data.  The transforms, whose
    data is valid by construction, use `_trusted`, which skips the check.
    """

    g: int
    k: int
    zeta: tuple[Expr, ...]
    gamma_tilde: tuple[tuple[Expr, ...], ...]
    varsigma: tuple[Expr, ...]
    alpha: tuple[Expr, ...]
    fibre_turns: tuple[Expr, ...]
    holomorphic: Verdict | None = None

    _trusted = classmethod(_unchecked)

    def __post_init__(self):
        _check_dimensions(self)
        for name in _BUNDLE_FIELDS:
            val = getattr(self, name)
            if name == "gamma_tilde":
                conv = tuple(tuple(as_expr(e) for e in row) for row in val)
            else:
                conv = tuple(as_expr(e) for e in val)
            object.__setattr__(self, name, conv)
        m = self.g - self.k
        if len(self.zeta) != m or len(self.gamma_tilde) != m or len(self.varsigma) != m:
            raise ValueError("one dual fibre equation per constrained coordinate")
        if any(len(row) != self.k for row in self.gamma_tilde):
            raise ValueError(f"slope matrix must be {m} by {self.k}")
        if len(self.alpha) != self.k or len(self.fibre_turns) != self.k:
            raise ValueError("one connection coefficient per free coordinate")
        _check_base_only(self.zeta, self.k, "base equations")
        _check_base_only(
            itertools.chain((e for row in self.gamma_tilde for e in row), self.varsigma),
            self.k,
            "dual fibre coefficients",
        )
        _check_base_only(self.alpha, self.k, "connection coefficients")
        _check_base_only(self.fibre_turns, self.k, "connection coefficients")

    @property
    def wit_index(self) -> int:
        """Index of the nonvanishing transform degree: the fibre dimension g - k."""
        return self.g - self.k


def _validate_system(s: RelativeSupport, system: LocalSystemData) -> None:
    if len(system.alpha) != s.k:
        raise ValueError("one dx-coefficient per free base coordinate")
    if len(system.xi) != s.g - s.k:
        raise ValueError("holonomy dimension mismatch")
    _check_base_only(system.alpha, s.k, "connection coefficients")


def transform_nontransversal(
    s: RelativeSupport,
    system: LocalSystemData,
    tol: float = 1e-9,
    grid: int = 17,
) -> TransformedBundle:
    """Fibrewise dual of a local system on a fibred Lagrangian support.

    Each fibre trace is dualized exactly as in `fm_absolute`: the dual
    fibre trace is the annihilator subtorus offset by the holonomy xi,
    and the offsets chi become dw-coefficients of the connection.  The
    support must be Lagrangian with constant fibre dimension, and the
    connection i * sum alpha[j] dx^j must be closed; the slope of the dual
    fibre equations comes out as the Jacobian of zeta.  A section (k = g)
    has point fibre traces, so its dual support is the whole dual
    fibration and its dw-row is -epsilon.

    Constancy of the slope matrix is not required.  When it fails, the
    support data and every fibrewise slice are still exact, but the
    stored dx-row keeps the input alpha: the chart rewrite would add
    dx-terms (derivatives of varsigma and of the slope against the dual
    angles) that this representation cannot carry.  The holomorphic
    verdict flags exactly these inputs.

    zeta is differentiated once.  Its Jacobian gamma is the dual slope,
    and it pairs the offsets into theta_j = sum_c chi_c d x^c/dx^j, whose
    negation is the dw-row fibre_turns and whose exterior derivative is
    the curl that C1 tests (see `check_C1_lagrangian`).  The holomorphic
    verdict is the constancy of gamma, which one scan of each entry decides
    without a further derivative unless it holds opaque atoms.  The flatness
    verdict is kept on the bundle, off its fields, for D2 of the inverse.
    """
    _validate_system(s, system)
    c1 = check_C1_lagrangian(s, tol, grid)
    if not c1.holds:
        raise ConditionError("C1", c1)
    c2 = _c2_report(s, tol, grid)
    if not c2.holds:
        raise ConditionError("C2", c2)
    closed = _closure_report(system.alpha, tol, grid)
    if not closed.holds:
        raise ConditionError("flat", closed)

    g, k = s.g, s.k
    m_free = g - k
    gamma, turns, _ = _chart(s)

    # Offset of the dual fibre equation for w^{k+1+i}, fixed by requiring
    # each base slice to agree with the absolute transform of that fibre:
    # sum_{j < min(k, g-k)} xi_j gamma[i][j], less xi_{k+i} when k+i < g-k.
    n = min(k, m_free)
    xi = (*system.xi[:n], *(-x for x in system.xi[k:]))
    varsigma = _products(
        [xi], [[*gamma[i][:n], *(ONE if l == i else None for l in range(m_free - k))] for i in range(m_free)]
    )[0]

    holomorphic = _constancy(
        "holomorphic", (("", e) for row in gamma for e in row), k, tol, grid
    )
    bundle = TransformedBundle._trusted(
        g, k, s.zeta, gamma, tuple(varsigma), system.alpha, turns, holomorphic.verdict
    )
    object.__setattr__(bundle, "_flat", closed.verdict)
    return bundle


def check_flat(alpha, tol: float = 1e-9, grid: int = 17) -> ConditionReport:
    """Whether i * sum alpha[j] dx^j is a flat connection, i.e. closed."""
    return _closure_report(tuple(as_expr(e) for e in alpha), tol, grid)


def _closure_report(alpha, tol: float, grid: int, name: str = "flat") -> ConditionReport:
    """Whether d(sum alpha[j] dx^j) vanishes; a failing pair j < m is dalpha[j][m]."""
    return _gather(name, ((f"dalpha[{j}][{m}]", e) for j, m, e in _exterior(alpha)), tol, grid)


# ------------------------------------------------------------------ curvature


def _hodge_from_turns(turns):
    """Hodge components of d(2 pi i sum t_j dw^j) for z^j = x^j + i w^j.

    Substituting dx = (dz + conj dz)/2 and dw = (dz - conj dz)/(2i) into
    2 pi i sum dt_j wedge dw^j sorts the curvature into types; the three
    returned matrices are the dz^m dz^j, dz^m conj-dz^j and conj-dz^m
    conj-dz^j coefficient grids.
    """
    n = len(turns)
    dt = [[diff(turns[j], m + 1) for j in range(n)] for m in range(n)]
    f20 = tuple(
        tuple(_HALF_PI * (dt[m][j] - dt[j][m]) for j in range(n))
        for m in range(n)
    )
    f11 = tuple(
        tuple(-_HALF_PI * (dt[m][j] + dt[j][m]) for j in range(n))
        for m in range(n)
    )
    f02 = tuple(tuple(-e for e in row) for row in f20)
    return f20, f11, f02


def hodge_components(
    alpha, turns, tol: float = 1e-9, grid: int = 17
):
    """Hodge type decomposition of the curvature of a dual-side connection.

    The dx-part must be closed: a closed i * sum alpha[j] dx^j is flat
    and contributes nothing, while a non-closed one would add imaginary
    terms this real representation cannot carry, so that case raises
    ConditionError("flat").
    """
    alpha = tuple(as_expr(e) for e in alpha)
    turns = tuple(as_expr(e) for e in turns)
    if len(alpha) not in (0, len(turns)):
        raise ValueError("coefficient rows must have matching length")
    if alpha:
        closed = _closure_report(alpha, tol, grid)
        if not closed.holds:
            raise ConditionError("flat", closed)
    return _hodge_from_turns(turns)


def curvature_hodge(data, tol: float = 1e-9, grid: int = 17):
    """Hodge components (F20, F11, F02) for a transformed bundle.

    Accepts a TransformedBundle or, directly, a RelativeSupport, read
    as the dual connection with dw-row -theta (-epsilon for a section)
    and no dx-part; no condition on the support is checked.  Anything
    else is a ValueError.
    """
    if isinstance(data, RelativeSupport):
        return hodge_components((), _chart(data)[1], tol, grid)
    if isinstance(data, TransformedBundle):
        return hodge_components(data.alpha, data.fibre_turns, tol, grid)
    raise ValueError(f"curvature_hodge needs a RelativeSupport or a TransformedBundle, not {type(data).__name__}")


def check_F02_iff_lagrangian(
    s: RelativeSupport,
    bundle: TransformedBundle,
    tol: float = 1e-9,
    grid: int = 17,
) -> Verdict:
    """Whether F02 of the bundle equals the Lagrangian curl of s.

    The (0,2) curvature of the transform is pi/2 times the dx^dx curl
    obstruction of the input support, entry by entry; this checks that
    identity symbolically, so it holds whether or not s is Lagrangian.
    The curl is d_m theta_j - d_j theta_m, the one the C1 check reads
    from the support's chart.  The bundle must have the support's g and k; a
    mismatch is a ValueError.
    """
    if (bundle.g, bundle.k) != (s.g, s.k):
        raise ValueError(
            f"the bundle has g = {bundle.g}, k = {bundle.k} and the support g = {s.g}, k = {s.k}; they must match"
        )
    _, _, f02 = _hodge_from_turns(bundle.fibre_turns)
    curl = _chart(s)[2]
    return all_zero(
        is_zero(f02[m - 1][j - 1] - _HALF_PI * curl.get((j, m), ZERO), tol, grid)
        for j, m in itertools.combinations(range(1, s.k + 1), 2)
    )


# ------------------------------------------------------------------- inverse


def dual_input_from_bundle(bundle: TransformedBundle) -> TransformedBundle:
    """The bundle unchanged: a transform output is already an inverse input.

    Kept as a name that existing callers use.
    """
    return bundle


def check_D_conditions(
    bundle: TransformedBundle, tol: float = 1e-9, grid: int = 17
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """The three dual-side conditions, one report each.

    D1: the dual fibre equations have constant coefficients, so the
    support is affine along the fibres; offending entries of gamma_tilde
    and varsigma are named P[j][i] and Q[j], 1-based.  D2: the dx-part
    of the connection is closed.  D3: no coefficient depends on the dual
    angles, which the representation enforces, so it is reported proven.
    """
    entries = itertools.chain(_entries("P", bundle.gamma_tilde), _entries("Q", bundle.varsigma))
    d1 = _constancy("D1", entries, bundle.k, tol, grid)
    d3 = ConditionReport("D3", Verdict.proven_zero())
    return d1, _d2_report(bundle, tol, grid), d3


def _d2_report(bundle: TransformedBundle, tol: float, grid: int) -> ConditionReport:
    """D2, reusing the flatness verdict `transform_nontransversal` kept on the bundle only if it is proven."""
    flat = bundle.__dict__.get("_flat")
    return ConditionReport("D2", flat) if flat and flat.proven else _closure_report(bundle.alpha, tol, grid, "D2")


def check_cauchy_riemann(
    bundle: TransformedBundle, tol: float = 1e-9, grid: int = 17
) -> ConditionReport:
    """Whether the dual support is complex for z^j = x^j + i w^j.

    Requires the w-slope gamma_tilde to equal the Jacobian of the base
    equations, entry by entry; offending entries are named P[j][i],
    1-based.
    """
    jacobian = [[diff(z, i) for i in range(1, bundle.k + 1)] for z in bundle.zeta]
    return _gather("cauchy-riemann", _differences("P", bundle.gamma_tilde, jacobian), tol, grid)


class InverseResult(NamedTuple):
    support: RelativeSupport
    system: LocalSystemData
    wit_index: int


def inverse_transform(
    bundle: TransformedBundle, tol: float = 1e-9, grid: int = 17
) -> InverseResult:
    """Local system on the original side whose transform is the bundle.

    Write P = gamma_tilde, Q = varsigma and beta = fibre_turns.
    Dualizing the fibre equations w^{k+j} = sum_i P[j][i] w^i + Q[j]
    back gives, with M = (delta_{l,c} + P^c_l), the support equations
    sum_c M[l][c] y_c + beta_l = 0, re-solved for the last k angles; the
    dw-coefficients beta return to fibre offsets and the constants Q
    return to holonomy phases: one fraction-free solve of M_last X =
    [M_free | I] gives a = -M_last^-1 M_free and chi = -M_last^-1 beta,
    and a singular M_last has no chart.  The outputs come from the integer
    X and d directly, each phase xi one Fraction over E*d with E the lcm
    of the denominators of Q, and are built valid, with `_trusted`.  The
    wit_index reported is that of the input bundle, the dimension k of its
    fibre traces.

    D1 is decided by reading P and Q once: rational constants prove it
    and feed the solve.  Otherwise `check_D_conditions` names the failing
    entries: D1 is raised first, then D2, then the need for rationals.

    The returned alpha is the chart form of the induced connection: the
    dx-row of the bundle minus the exact gauge term
    2 pi d_j(sum_c Q_c chi_c) of `gauge_term`.  For constant offsets chi
    the gauge term is zero and the round trip is an identity.
    """
    values = _rationals((*bundle.gamma_tilde, bundle.varsigma))
    reports = check_D_conditions(bundle, tol, grid)[:2] if values is None else (_d2_report(bundle, tol, grid),)
    for report in reports:
        if not report.holds:
            raise ConditionError(report.name, report)
    if values is None:
        raise ValueError("inverse transform needs rational constant fibre coefficients")

    g, k = bundle.g, bundle.k
    m_free = g - k
    *p_val, q_val = values
    # M = [I_k | P^T]: M[l][c] = delta + P^c_l over c = 1..g, split into the
    # free block (columns 1..g-k) and the block of the angles being solved for.
    m_rows = [[int(c == l) for c in range(k)] + [row[l] for row in p_val] for l in range(k)]
    try:
        x, d = _solve(
            [row[m_free:] for row in m_rows],
            [row[:m_free] + [int(i == j) for j in range(k)] for i, row in enumerate(m_rows)],
        )
    except ValueError:
        raise ConditionError(
            "chart",
            message=(
                "the inverse support is not a graph over the angles "
                f"y_1..y_{m_free}; it has no equations of the solved form"
            ),
        )

    a_rows = tuple(tuple(Expr(_divided({_UNIT: -e}, d)) if e else ZERO for e in row[:m_free]) for row in x)
    chi_rows = _products([[-e for e in row[m_free:]] for row in x], [bundle.fibre_turns])
    chi_out = tuple(Expr(_divided(r[0].terms, d)) for r in chi_rows)
    # xi_m = -Q_m + sum_l Q_{m_free+l} X[l][m] / d mod 1, over E*d; q[c - 1] = E*Q_c, 0 for c <= k.
    *q, e = _integer_rows([[*q_val, 1]])[0]
    q = [0] * k + q
    xi_out = tuple(
        Fraction((-q[m] * d + sum(q[m_free + l] * x[l][m] for l in range(k))) % (e * d), e * d)
        for m in range(m_free)
    )

    alpha_out = tuple(a - t if t.terms else a for a, t in zip(bundle.alpha, gauge_term(q_val, chi_out)))

    # zeta is the bundle's, a constant, chi and alpha base-only, xi in [0, 1).
    support = RelativeSupport._trusted(g, k, bundle.zeta, a_rows, chi_out)
    system = LocalSystemData._trusted(alpha_out, xi_out)
    return InverseResult(support, system, k)


def gauge_term(varsigma, chi) -> tuple[Expr, ...]:
    """The exact term 2 pi d_j(sum_c Q_c chi_c), j = 1..k, of a round trip.

    Q = varsigma holds the constant coefficients Q_c of the angles
    c = k+1..g, with no Q_c for c <= k, and chi[l] is the fibre offset of
    the angle c = g-k+l+1.  The inverse transform subtracts this term from
    alpha; `roundtrip` predicts it from the data it starts from.
    """
    k, m_free = len(chi), len(varsigma)
    q = [varsigma[m_free + l - k] if m_free + l >= k else None for l in range(k)]
    total = _products([q], [chi])[0][0]
    return tuple(_TWO_PI * t if (t := diff(total, j)).terms else ZERO for j in range(1, k + 1))


# ------------------------------------------------------------- fibre slices


@functools.cache
def _standard_torus(g: int) -> Torus:
    """One standard torus per dimension, shared by every slice that needs one."""
    return Torus(g)


def _fibre_trace(
    torus: Torus, k: int, slopes, offsets, b: tuple, holder=None, turns=None
) -> tuple[AffineSubtorus, list[int] | None]:
    """The subtorus y_{g-n+i} = sum_j slopes[i][j](b) y_j + offsets[i](b), i < n, at base b.

    n is the number of offsets and b the k free base coordinates as
    Fractions.  The rows [*slopes[i], 1], [*offsets, 1] and, when turns are
    given, [*turns, 1] are compiled to int tables (`_compiled`), kept on
    the holder from its first slice on, off its fields, as `_chart` is,
    together with the fibre lattice when the slopes are rational
    constants.  An expression with no exact value raises ValueError and
    keeps nothing.  Each slice reads b once and evaluates the tables on
    ints (`_evaluated`).  The rows [-slopes(b) | I_n] give the saturation S
    and directions K (`torus._lattice`), recomputed at each point only when
    the slopes vary.  y0 = (0, ..., 0, offsets(b)) solves the equations, so
    the canonical offset is -S y0 mod 1, read on ints over one scale.
    Returns the subtorus and the turns row [*m, q] at b, or None.
    """
    if len(b) != k:
        raise ValueError("one coordinate per free base direction")
    kept = holder.__dict__.get("_slices") if holder is not None else None
    if kept is None:
        slope_tables = _compiled([*row, ONE] for row in slopes)
        tables = _compiled([[*offsets, ONE]] if turns is None else [[*offsets, ONE], [*turns, ONE]])
        lattice = None
        if _rationals(slopes) is not None:
            lattice = _fibre_lattice(torus, _evaluated(slope_tables, b))
        kept = slope_tables, tables, lattice
        if holder is not None:
            object.__setattr__(holder, "_slices", kept)
    slope_tables, tables, lattice = kept
    values = _evaluated(tables if lattice is not None else [*tables, *slope_tables], b)
    sat, directions = lattice if lattice is not None else _fibre_lattice(torus, values[len(tables):])
    *point, scale = values[0]
    first = torus.dim - len(point)
    chi = tuple(Fraction(-sum(e * v for e, v in zip(row[first:], point)) % scale, scale) for row in sat.rows)
    out = AffineSubtorus._canonical(torus, sat, chi)
    object.__setattr__(out, "_directions", directions)
    return out, (values[1] if turns is not None else None)


def _fibre_lattice(torus: Torus, values) -> tuple:
    """(S, K) of the slice rows [-s | q e_i] from the evaluated slope rows [*s, q] (`torus._lattice`)."""
    rows = tuple((*(-e for e in v[:-1]), *(v[-1] if l == i else 0 for l in range(len(values))))
                 for i, v in enumerate(values))
    return _lattice(IntMatrix._trusted(rows, torus.dim), (0,) * len(values))[:2]


def _paired(sup: AffineSubtorus, phases: list[int]) -> SubtorusLocalSystem:
    """The system on sup pairing each canonical direction's leading angles with m/q, phases = [*m, q]."""
    *m, q = phases
    hol = tuple(Fraction(sum(x * p for x, p in zip(d, m)) % q, q) for d in sup.direction_basis().rows)
    return SubtorusLocalSystem._trusted(sup, hol, 1)


def fibre_support(s: RelativeSupport, base: Sequence) -> AffineSubtorus:
    """The fibre trace of the support over a rational base point.

    base gives the free coordinates x^1..x^k.  The slope and offset rows
    are compiled to int tables on the first slice and kept on the support,
    with the fibre lattice when the slopes are rational constants
    (`_fibre_trace`), so a reslice pays only the evaluation from the second
    base point on.
    """
    return _fibre_trace(_standard_torus(s.g), s.k, s.a, s.chi, rat_vector(base), s)[0]


def fibre_system(s: RelativeSupport, system: LocalSystemData, base: Sequence) -> SubtorusLocalSystem:
    """The sliced local system on the fibre trace over a base point.

    Holonomy along a canonical direction of the slice is the pairing of
    xi with the free-angle part of that direction.
    """
    _validate_system(s, system)
    return _paired(fibre_support(s, base), _integer_rows([[*system.xi, 1]])[0])


def fibre_of_transform(bundle: TransformedBundle, base: Sequence) -> SubtorusLocalSystem:
    """The dual-side slice of a transformed bundle over a base point.

    The support equations are the dual fibre equations evaluated as integer
    rows, as in `fibre_support`; the holonomy along a canonical direction
    is its pairing with the dw-coefficient row, evaluated with them.  The
    bundle keeps the compiled slope, offset and turn tables from its first
    slice on, off its fields (`_fibre_trace`).
    """
    # The standard torus is self-dual.
    sup, phases = _fibre_trace(
        _standard_torus(bundle.g), bundle.k, bundle.gamma_tilde, bundle.varsigma, rat_vector(base), bundle,
        bundle.fibre_turns,
    )
    return _paired(sup, phases)
