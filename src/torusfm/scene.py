"""Scene files: a sectioned text format describing one transform input.

A scene holds exactly one [torus] section and either a [support]
section, optionally accompanied by a [system] section, or a [bundle]
section.  Symbolic values use the expression grammar, numeric values
are reduced fractions like 2/3; lists separate entries with ';' and
matrix rows separate their entries with ','.

    [torus]
    g = 2

    [support]
    kind = subtorus
    equations = 3 -2
    offset = 1/5

    [system]
    holonomy = 3/7

Support kinds and their keys:

    skyscraper   coords; [system] may set rank
    subtorus     equations, offset; [system] may set holonomy, rank
    section      epsilon; [system] may set alpha
    relative     k, zeta, a, chi; [system] may set alpha, xi

A section is read as the relative support with k = g and chi = epsilon.

A [bundle] section instead carries dual-side data under the keys k,
zeta, P, Q, alpha, beta; P, Q and beta fill the gamma_tilde, varsigma
and fibre_turns fields of a TransformedBundle.  Keys whose shape is
determined by g and k default to zeros when omitted.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import RatMatrix
from .expr import Expr, parse
from .fm_absolute import SubtorusLocalSystem, skyscraper
from .fm_relative import (
    LocalSystemData,
    RelativeSupport,
    SectionSupport,
    TransformedBundle,
)
from .torus import Torus, subtorus_from_equations

__all__ = ["Scene", "load_scene", "parse_scene"]


_SECTIONS = ("torus", "support", "system", "bundle")

_SUPPORT_KEYS = {
    "skyscraper": frozenset({"kind", "coords"}),
    "subtorus": frozenset({"kind", "equations", "offset"}),
    "section": frozenset({"kind", "epsilon"}),
    "relative": frozenset({"kind", "k", "zeta", "a", "chi"}),
}

_SYSTEM_KEYS = {
    "skyscraper": frozenset({"rank"}),
    "subtorus": frozenset({"holonomy", "rank"}),
    "section": frozenset({"alpha"}),
    "relative": frozenset({"alpha", "xi"}),
}

_BUNDLE_KEYS = frozenset({"k", "zeta", "P", "Q", "alpha", "beta"})


@dataclass(frozen=True)
class Scene:
    """One parsed scene: a torus plus exactly one input object.

    kind is the support kind, or "bundle" for dual-side scenes.  The
    absolute field is set for skyscraper and subtorus scenes, support
    and system for section and relative scenes, bundle for bundle
    scenes; the fields for the other kinds stay None.
    """

    torus: Torus
    kind: str
    absolute: SubtorusLocalSystem | None = None
    support: RelativeSupport | None = None
    system: LocalSystemData | None = None
    bundle: TransformedBundle | None = None


def _int(value: str, where: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ValueError(f"{where}: expected an integer, got {value!r}") from None


def _fractions(value: str, where: str) -> tuple[Fraction, ...]:
    tokens = value.replace(",", " ").split()
    try:
        return tuple(Fraction(t) for t in tokens)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where}: expected rationals, got {value!r}") from None


def _int_rows(value: str, where: str) -> tuple[tuple[int, ...], ...]:
    if not value.strip():
        return ()
    rows = []
    for part in value.split(";"):
        tokens = part.replace(",", " ").split()
        try:
            rows.append(tuple(int(t) for t in tokens))
        except ValueError:
            raise ValueError(
                f"{where}: expected integer rows, got {part.strip()!r}"
            ) from None
    return tuple(rows)


def _fraction_rows(value: str, where: str) -> tuple[tuple[Fraction, ...], ...]:
    if not value.strip():
        return ()
    return tuple(_fractions(part, where) for part in value.split(";"))


def _expr(text: str, where: str) -> Expr:
    text = text.strip()
    if not text:
        raise ValueError(f"{where}: empty expression entry")
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _exprs(value: str, where: str) -> tuple[Expr, ...]:
    if not value.strip():
        return ()
    return tuple(_expr(part, where) for part in value.split(";"))


def _expr_rows(value: str, where: str, nrows: int) -> tuple[tuple[Expr, ...], ...]:
    """Rows split at ';' and entries at ','; an empty value is nrows rows of no entries."""
    if not value.strip():
        return ((),) * nrows
    return tuple(
        tuple(_expr(entry, where) for entry in part.split(","))
        for part in value.split(";")
    )


def _require(mapping: dict, key: str, section: str) -> str:
    if key not in mapping:
        raise ValueError(f"[{section}] needs a {key} key")
    return mapping[key]


def _optional(mapping: dict, key: str, section: str, read, default, *args):
    """The value under key read by read(value, "[section] key", *args), or default without it."""
    return read(mapping[key], f"[{section}] {key}", *args) if key in mapping else default


def _reject_unknown(mapping: dict, allowed: frozenset, section: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in [{section}]")


def _check_length(values: tuple, n: int, where: str) -> None:
    if len(values) != n:
        raise ValueError(f"{where} needs {n} {'entry' if n == 1 else 'entries'}, got {len(values)}")


def _zeros(n: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * n


def _parse_torus(mapping: dict) -> Torus:
    _reject_unknown(mapping, frozenset({"g", "metric"}), "torus")
    g = _int(_require(mapping, "g", "torus"), "[torus] g")
    if "metric" not in mapping:
        return Torus(g)
    rows = _fraction_rows(mapping["metric"], "[torus] metric")
    return Torus(g, RatMatrix(rows, g))


def _parse_support(torus: Torus, sup: dict, sysd: dict) -> Scene:
    kind = sup.get("kind", "").strip()
    if kind not in _SUPPORT_KEYS:
        raise ValueError(
            "[support] kind must be skyscraper, subtorus, section or relative"
        )
    _reject_unknown(sup, _SUPPORT_KEYS[kind], "support")
    _reject_unknown(sysd, _SYSTEM_KEYS[kind], "system")
    g = torus.dim

    if kind == "skyscraper":
        coords = _fractions(_require(sup, "coords", "support"), "[support] coords")
        rank = _int(sysd.get("rank", "1"), "[system] rank")
        return Scene(torus, kind, absolute=skyscraper(torus, coords, rank))

    if kind == "subtorus":
        rows = _int_rows(sup.get("equations", ""), "[support] equations")
        offset = _optional(sup, "offset", "support", _fractions, _zeros(len(rows)))
        support = subtorus_from_equations(torus, rows, offset)
        holonomy = _optional(sysd, "holonomy", "system", _fractions, _zeros(support.dim))
        rank = _int(sysd.get("rank", "1"), "[system] rank")
        return Scene(
            torus, kind, absolute=SubtorusLocalSystem(support, holonomy, rank)
        )

    if kind == "section":
        epsilon = _exprs(_require(sup, "epsilon", "support"), "[support] epsilon")
        if len(epsilon) != g:
            raise ValueError("[support] epsilon needs one component per coordinate")
        alpha = _optional(sysd, "alpha", "system", _exprs, _zeros(g))
        _check_length(alpha, g, "[system] alpha")
        return Scene(
            torus,
            kind,
            support=SectionSupport(epsilon),
            system=LocalSystemData(alpha, ()),
        )

    k = _int(_require(sup, "k", "support"), "[support] k")
    if not 0 <= k <= g:
        raise ValueError("[support] k must lie between 0 and g")
    m = g - k
    zeta = _optional(sup, "zeta", "support", _exprs, _zeros(m))
    a = _optional(sup, "a", "support", _expr_rows, (_zeros(m),) * k, k)
    chi = _optional(sup, "chi", "support", _exprs, _zeros(k))
    alpha = _optional(sysd, "alpha", "system", _exprs, _zeros(k))
    xi = _optional(sysd, "xi", "system", _fractions, _zeros(m))
    _check_length(alpha, k, "[system] alpha")
    _check_length(xi, m, "[system] xi")
    return Scene(
        torus,
        kind,
        support=RelativeSupport(g, k, zeta, a, chi),
        system=LocalSystemData(alpha, xi),
    )


def _parse_bundle(torus: Torus, bd: dict) -> Scene:
    _reject_unknown(bd, _BUNDLE_KEYS, "bundle")
    g = torus.dim
    k = _int(_require(bd, "k", "bundle"), "[bundle] k")
    if not 0 <= k <= g:
        raise ValueError("[bundle] k must lie between 0 and g")
    m = g - k
    zeta = _optional(bd, "zeta", "bundle", _exprs, _zeros(m))
    p = _optional(bd, "P", "bundle", _expr_rows, (_zeros(k),) * m, m)
    q = _optional(bd, "Q", "bundle", _exprs, _zeros(m))
    alpha = _optional(bd, "alpha", "bundle", _exprs, _zeros(k))
    beta = _optional(bd, "beta", "bundle", _exprs, _zeros(k))
    return Scene(
        torus, "bundle", bundle=TransformedBundle(g, k, zeta, p, q, alpha, beta)
    )


def parse_scene(text: str) -> Scene:
    """Parse scene text; malformed scenes raise ValueError."""
    cp = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=None,
        interpolation=None,
        strict=True,
    )
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"scene syntax: {exc}") from None

    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")
    if not cp.has_section("torus"):
        raise ValueError("a scene needs exactly one [torus] section")
    torus = _parse_torus(dict(cp.items("torus")))

    has_support = cp.has_section("support")
    has_bundle = cp.has_section("bundle")
    if has_support and has_bundle:
        raise ValueError("a scene cannot hold both [support] and [bundle]")
    if not has_support and not has_bundle:
        raise ValueError("a scene needs a [support] or [bundle] section")
    if has_bundle:
        if cp.has_section("system"):
            raise ValueError("bundle scenes keep alpha and beta in [bundle]")
        return _parse_bundle(torus, dict(cp.items("bundle")))
    sysd = dict(cp.items("system")) if cp.has_section("system") else {}
    return _parse_support(torus, dict(cp.items("support")), sysd)


def load_scene(path) -> Scene:
    """Read and parse one scene file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())
