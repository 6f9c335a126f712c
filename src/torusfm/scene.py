"""Scene files: a sectioned text format describing one transform input.

Each line, stripped of surrounding whitespace, is blank, a comment
starting with '#', a [section] header alone on its line, or key = value,
split at the first '='; key and value are stripped.  Any other line, a
repeated section and a repeated key within a section are syntax errors
naming the line.  There are no continuation lines, no inline comments
and no defaults section.

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

[torus] takes g, at most MAX_DIMENSION, and an optional metric.
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

# The largest torus dimension a scene may ask for: the standard metric
# alone holds g * g entries, so a larger g is refused before it is built.
MAX_DIMENSION = 256


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


def _sections(text: str) -> dict[str, dict[str, str]]:
    """The keys and values of each section of the scene text, in the grammar above."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for n, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]" and len(line) > 2:
            if line[1:-1] in sections:
                raise ValueError(f"scene syntax: line {n}: repeated section {line}")
            current = sections[line[1:-1]] = {}
            continue
        key, eq, value = line.partition("=")
        key = key.rstrip()
        if not eq or not key or key[0] == "[":
            raise ValueError(f"scene syntax: line {n}: expected [section] or key = value, got {line!r}")
        if current is None:
            raise ValueError(f"scene syntax: line {n}: {key!r} comes before the first [section]")
        if key in current:
            raise ValueError(f"scene syntax: line {n}: repeated key {key!r}")
        current[key] = value.lstrip()
    return sections


def _int(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{where}: expected an integer, got {value!r}") from None


def _fractions(value: str, where: str) -> tuple[Fraction, ...]:
    tokens = value.replace(",", " ").split()
    try:
        return tuple(Fraction(t) for t in tokens)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where}: expected rationals, got {value!r}") from None


def _int_rows(value: str, where: str) -> tuple[tuple[int, ...], ...]:
    if not value:
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
    if not value:
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
    if not value:
        return ()
    return tuple(_expr(part, where) for part in value.split(";"))


def _expr_rows(value: str, where: str, nrows: int) -> tuple[tuple[Expr, ...], ...]:
    """Rows split at ';' and entries at ','; an empty value is nrows rows of no entries."""
    if not value:
        return ((),) * nrows
    return tuple(
        tuple(_expr(entry, where) for entry in part.split(","))
        for part in value.split(";")
    )


def _require(mapping: dict, key: str, section: str) -> str:
    """The value under key, taken out of the section's mapping."""
    if key not in mapping:
        raise ValueError(f"[{section}] needs a {key} key")
    return mapping.pop(key)


def _optional(mapping: dict, key: str, section: str, read, default, *args):
    """The value under key, taken out and read by read(value, "[section] key", *args), or default without it."""
    return read(mapping.pop(key), f"[{section}] {key}", *args) if key in mapping else default


def _k(mapping: dict, section: str, g: int) -> int:
    """The fibre dimension k of a relative or bundle section, 0 <= k <= g."""
    k = _int(_require(mapping, "k", section), f"[{section}] k")
    if not 0 <= k <= g:
        raise ValueError(f"[{section}] k must lie between 0 and g")
    return k


def _check_length(values: tuple, n: int, where: str) -> None:
    if len(values) != n:
        raise ValueError(f"{where} needs {n} {'entry' if n == 1 else 'entries'}, got {len(values)}")


def _zeros(n: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * n


def _parse_torus(mapping: dict) -> Torus:
    g = _int(_require(mapping, "g", "torus"), "[torus] g")
    if g > MAX_DIMENSION:
        raise ValueError(f"[torus] g exceeds {MAX_DIMENSION}")
    rows = _optional(mapping, "metric", "torus", _fraction_rows, None)
    torus = Torus(g)
    if rows is None:
        return torus
    try:
        return Torus(g, RatMatrix(rows, g))
    except ValueError as exc:
        raise ValueError(f"[torus] metric: {exc}") from None


def _parse_support(torus: Torus, sup: dict, sysd: dict) -> Scene:
    kind = sup.pop("kind", "")
    g = torus.dim

    if kind == "skyscraper":
        coords = _fractions(_require(sup, "coords", "support"), "[support] coords")
        rank = _optional(sysd, "rank", "system", _int, 1)
        return Scene(torus, kind, absolute=skyscraper(torus, coords, rank))

    if kind == "subtorus":
        rows = _optional(sup, "equations", "support", _int_rows, ())
        offset = _optional(sup, "offset", "support", _fractions, _zeros(len(rows)))
        support = subtorus_from_equations(torus, rows, offset)
        holonomy = _optional(sysd, "holonomy", "system", _fractions, _zeros(support.dim))
        rank = _optional(sysd, "rank", "system", _int, 1)
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

    if kind != "relative":
        raise ValueError(
            "[support] kind must be skyscraper, subtorus, section or relative"
        )
    k = _k(sup, "support", g)
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
    g = torus.dim
    k = _k(bd, "bundle", g)
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
    sections = _sections(text)
    for name in sections:
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")
    if "torus" not in sections:
        raise ValueError("a scene needs exactly one [torus] section")
    torus = _parse_torus(sections["torus"])

    if "support" in sections and "bundle" in sections:
        raise ValueError("a scene cannot hold both [support] and [bundle]")
    if "bundle" in sections:
        if "system" in sections:
            raise ValueError("bundle scenes keep alpha and beta in [bundle]")
        scene = _parse_bundle(torus, sections["bundle"])
    elif "support" in sections:
        scene = _parse_support(torus, sections["support"], sections.get("system", {}))
    else:
        raise ValueError("a scene needs a [support] or [bundle] section")
    # Each reader took out the keys it read; a key left over is unknown.
    for name in _SECTIONS:
        if sections.get(name):
            raise ValueError(f"unknown key {min(sections[name])!r} in [{name}]")
    return scene


def load_scene(path) -> Scene:
    """Read and parse one scene file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())
