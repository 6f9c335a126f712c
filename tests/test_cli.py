"""Scene parsing and command line driver tests."""

import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusfm.cli
from torusfm import (
    LocalSystemData,
    RelativeSupport,
    SectionSupport,
    TransformedBundle,
    parse_scene,
)
from torusfm.cli import main
from torusfm.expr import MAX_EXPONENT, MAX_TERMS, MAX_VARIABLE, parse
from torusfm.scene import MAX_DIMENSION

from oracles import deadline

SCENES = Path(__file__).resolve().parent.parent / "scenes"

SKYSCRAPER = """
[torus]
g = 2

[support]
kind = skyscraper
coords = 1/3 2/5
"""

LINE = """
[torus]
g = 2

[support]
kind = subtorus
equations = 3 -2
offset = 1/5

[system]
holonomy = 3/7
"""

SECTION = """
[torus]
g = 2

[support]
kind = section
epsilon = x2 + 2*x1; x1

[system]
alpha = x1; 0
"""

RELATIVE = """
[torus]
g = 2

[support]
kind = relative
k = 1
zeta = -x1
a = 1
chi = 1/4

[system]
xi = 1/3
"""

BUNDLE = """
[torus]
g = 2

[bundle]
k = 1
zeta = -x1
P = -1
Q = -1/3
beta = 1/4
"""


# ------------------------------------------------------------ scene parsing


def test_parse_skyscraper_scene():
    scene = parse_scene(SKYSCRAPER)
    assert scene.kind == "skyscraper"
    assert scene.torus.dim == 2
    sys = scene.absolute
    assert sys.support.dim == 0
    assert sys.support.single_point().coords == (F(1, 3), F(2, 5))
    assert sys.holonomy == ()
    assert sys.rank == 1


def test_parse_subtorus_scene():
    scene = parse_scene(LINE)
    sys = scene.absolute
    assert sys.support.eqns.rows == ((3, -2),)
    assert sys.support.offset == (F(1, 5),)
    assert sys.holonomy == (F(3, 7),)


def test_subtorus_defaults_are_zero():
    scene = parse_scene("[torus]\ng = 3\n[support]\nkind = subtorus\nequations = 1 0 0")
    sys = scene.absolute
    assert sys.support.offset == (F(0),)
    assert sys.holonomy == (F(0), F(0))
    assert sys.rank == 1


def test_omitted_equations_give_the_whole_torus():
    scene = parse_scene(
        "[torus]\ng = 2\n[support]\nkind = subtorus\n[system]\nholonomy = 1/2 0"
    )
    assert scene.absolute.support.dim == 2
    assert scene.absolute.holonomy == (F(1, 2), F(0))


def test_parse_section_scene():
    scene = parse_scene(SECTION)
    assert scene.support == SectionSupport((parse("x2 + 2*x1"), parse("x1")))
    assert (scene.support.g, scene.support.k) == (2, 2)
    assert scene.support.chi == (parse("x2 + 2*x1"), parse("x1"))
    assert scene.system.alpha == (parse("x1"), parse("0"))
    assert scene.system.xi == ()


def test_parse_relative_scene():
    scene = parse_scene(RELATIVE)
    s = scene.support
    assert isinstance(s, RelativeSupport)
    assert (s.g, s.k) == (2, 1)
    assert s.zeta == (parse("-x1"),)
    assert s.a == ((parse("1"),),)
    assert s.chi == (parse("1/4"),)
    assert scene.system.alpha == (parse("0"),)
    assert scene.system.xi == (F(1, 3),)


def test_relative_defaults_fill_every_shape():
    scene = parse_scene("[torus]\ng = 3\n[support]\nkind = relative\nk = 2")
    s = scene.support
    assert s.zeta == (parse("0"),)
    assert s.a == ((parse("0"),), (parse("0"),))
    assert s.chi == (parse("0"), parse("0"))
    assert scene.system.alpha == (parse("0"), parse("0"))
    assert scene.system.xi == (F(0),)


def test_parse_bundle_scene():
    scene = parse_scene(BUNDLE)
    b = scene.bundle
    assert isinstance(b, TransformedBundle)
    assert (b.g, b.k) == (2, 1)
    assert b.gamma_tilde == ((parse("-1"),),)
    assert b.varsigma == (parse("-1/3"),)
    assert b.alpha == (parse("0"),)
    assert b.fibre_turns == (parse("1/4"),)


def test_parse_torus_metric():
    scene = parse_scene(
        "[torus]\ng = 2\nmetric = 2 0; 0 1/2\n[support]\nkind = skyscraper\ncoords = 0 0"
    )
    assert scene.torus.metric.rows == ((F(2), F(0)), (F(0), F(1, 2)))


@pytest.mark.parametrize(
    "text, phrase",
    [
        ("[support]\nkind = skyscraper\ncoords = 0", "exactly one [torus]"),
        ("[torus]\ng = 2", "[support] or [bundle]"),
        (
            "[torus]\ng = 2\n[support]\nkind = skyscraper\ncoords = 0 0\n"
            "[bundle]\nk = 1",
            "both [support] and [bundle]",
        ),
        ("[torus]\ng = 2\n[mystery]\nx = 1", "unknown section"),
        ("[torus]\ng = 2\n[support]\nkind = graph", "kind must be"),
        (
            "[torus]\ng = 2\n[support]\nkind = skyscraper\ncoords = 0 0\nzeta = x1",
            "unknown key",
        ),
        ("[torus]\ng = 2\n[support]\nkind = skyscraper", "needs a coords key"),
        ("[torus]\ng = two\n[support]\nkind = skyscraper\ncoords = 0 0", "integer"),
        (
            "[torus]\ng = 2\n[support]\nkind = skyscraper\ncoords = 1/0 0",
            "rationals",
        ),
        (
            "[torus]\ng = 2\n[support]\nkind = section\nepsilon = x1",
            "one component per coordinate",
        ),
        (
            "[torus]\ng = 2\n[support]\nkind = relative\nk = 5",
            "between 0 and g",
        ),
        (
            "[torus]\ng = 2\n[bundle]\nk = 1\n[system]\nalpha = 0",
            "in [bundle]",
        ),
        ("[torus]\ng = 2\n[torus]\ng = 3\n[support]\nkind = skyscraper", "syntax"),
        ("g = 2", "syntax"),
        (
            "[torus]\ng = 2\nmetric = 1 0 0; 0 1 0\n[support]\nkind = skyscraper\ncoords = 0 0",
            "[torus] metric: ncols disagrees with row length",
        ),
        (
            "[torus]\ng = 2\nmetric = 1 0; 0\n[support]\nkind = skyscraper\ncoords = 0 0",
            "[torus] metric: ragged rows",
        ),
        (
            "[torus]\ng = 2\nmetric = 1 2; 2 1\n[support]\nkind = skyscraper\ncoords = 0 0",
            "[torus] metric: metric must be symmetric positive definite",
        ),
    ],
)
def test_malformed_scenes_raise_value_error(text, phrase):
    with pytest.raises(ValueError, match=None) as err:
        parse_scene(text)
    assert phrase in str(err.value)


def test_a_bad_dimension_is_not_blamed_on_the_metric():
    with pytest.raises(ValueError) as err:
        parse_scene("[torus]\ng = 0\nmetric = 1\n[support]\nkind = skyscraper\ncoords = 0")
    assert str(err.value) == "torus dimension must be positive"


def test_expression_errors_keep_the_byte_offset():
    text = "[torus]\ng = 2\n[support]\nkind = section\nepsilon = x1 +; x2"
    with pytest.raises(ValueError, match="at offset 4"):
        parse_scene(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # An indented line is read like any other: here it is no key = value.
        ("[torus]\ng = 4\n[support]\nkind = subtorus\nequations = 1 0\n  0 1",
         "scene syntax: line 6: expected [section] or key = value, got '0 1'"),
        ("[torus]\ng: 2", "scene syntax: line 2: expected [section] or key = value, got 'g: 2'"),
        ("[torus] g = 2", "scene syntax: line 1: expected [section] or key = value"),
        ("[]\n[torus]\ng = 2", "scene syntax: line 1: expected [section] or key = value, got '[]'"),
        ("[torus]\n = 2", "scene syntax: line 2: expected [section] or key = value, got '= 2'"),
        ("# g first\n\ng = 2\n[torus]", "scene syntax: line 3: 'g' comes before the first [section]"),
        ("[torus]\ng = 2\n[torus]\ng = 3\n[support]\nkind = skyscraper",
         "scene syntax: line 3: repeated section [torus]"),
        ("[torus]\ng = 2\n\n# again\ng = 3", "scene syntax: line 5: repeated key 'g'"),
        ("[DEFAULT]\nrank = 2\n[torus]\ng = 2\n[support]\nkind = skyscraper\ncoords = 0 0",
         "unknown section [DEFAULT]"),
    ],
)
def test_syntax_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_scene(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "text",
    [
        "[torus]\ng = 2\nmetric = 2 0; 0 1/2\n[support]\nkind = skyscraper\ncoords = 1/3 2/5\n"
        "[system]\nrank = 2",
        "[torus]\ng = 2\nmetric = 2 0; 0 1/2\n[support]\nkind = subtorus\nequations = 3 -2\n"
        "offset = 1/5\n[system]\nholonomy = 3/7\nrank = 2",
        "[torus]\ng = 2\nmetric = 2 0; 0 1/2\n[support]\nkind = section\nepsilon = x2 + 2*x1; x1\n"
        "[system]\nalpha = x1; 1",
        "[torus]\ng = 3\nmetric = 2 0 0; 0 1/2 0; 0 0 1\n[support]\nkind = relative\nk = 2\n"
        "zeta = -x1\na = 1; x2\nchi = 1/4; x1\n[system]\nalpha = 0; 1\nxi = 1/3",
        "[torus]\ng = 3\nmetric = 2 0 0; 0 1/2 0; 0 0 1\n[bundle]\nk = 2\nzeta = -x1\nP = 1, 2\n"
        "Q = 1/3\nalpha = 0; 1\nbeta = 1/4; 1/5",
    ],
    ids=["skyscraper", "subtorus", "section", "relative", "bundle"],
)
def test_every_documented_key_is_read(text):
    scene = parse_scene(text)
    assert scene.torus.metric.rows[0][0] == 2
    if scene.absolute is not None:
        assert scene.absolute.rank == 2
        assert scene.kind == "skyscraper" or scene.absolute.holonomy == (F(3, 7),)
    elif scene.bundle is not None:
        b = scene.bundle
        assert (b.gamma_tilde, b.varsigma, b.fibre_turns) == (
            ((parse("1"), parse("2")),), (parse("1/3"),), (parse("1/4"), parse("1/5")))
    else:
        assert scene.system.alpha[-1] == parse("1")
        if scene.kind == "relative":
            assert scene.support.a == ((parse("1"),), (parse("x2"),))
            assert scene.support.chi == (parse("1/4"), parse("x1"))
            assert scene.system.xi == (F(1, 3),)


def _sections_of(text):
    """[(header, [(key, value), ...]), ...] of a well-formed scene, comments and blanks dropped."""
    sections = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            sections.append((line, []))
        elif line and not line.startswith("#"):
            key, _, value = line.partition("=")
            sections[-1][1].append((key.strip(), value.strip()))
    return sections


_padding = st.sampled_from(["", " ", "  ", "\t"])
_filler = st.lists(st.sampled_from(["", "   ", "# a comment", "  # key = value", "#"]), max_size=2)


@settings(max_examples=40, deadline=2000)
@given(st.sampled_from(sorted(SCENES.glob("*.scene"))), st.data())
def test_rewritten_example_scenes_parse_the_same(path, data):
    text = path.read_text()
    lines = data.draw(_filler)
    for header, pairs in _sections_of(text):
        lines += [data.draw(_padding) + header] + data.draw(_filler)
        for key, value in data.draw(st.permutations(pairs)):
            lines.append(f"{data.draw(_padding)}{key}{data.draw(_padding)}={data.draw(_padding)}{value}"
                         f"{data.draw(_padding)}")
            lines += data.draw(_filler)
    assert parse_scene("\n".join(lines)) == parse_scene(text)


def test_a_huge_torus_dimension_is_refused_before_any_torus_is_built():
    text = "[torus]\ng = 1000000\n[support]\nkind = skyscraper\ncoords = 0"
    with deadline(1), pytest.raises(ValueError, match=f"\\[torus\\] g exceeds {MAX_DIMENSION}"):
        parse_scene(text)


# ---------------------------------------------------------------- driver


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_transform_reports_the_dual_line(tmp_path, capsys):
    assert main(["transform", write(tmp_path, "line.scene", LINE)]) == 0
    out = capsys.readouterr().out
    assert "output.equations: [[2, 3]]" in out
    assert "output.offset: [3/7]" in out
    assert "output.holonomy: [1/5]" in out
    assert "wit_index: 1" in out


def test_transform_of_a_line_with_a_pivot_of_ten_to_the_eight(tmp_path, capsys):
    text = LINE.replace("equations = 3 -2", "equations = 100000000 200000000")
    with deadline(2):
        assert main(["transform", write(tmp_path, "big.scene", text)]) == 0
    out = capsys.readouterr().out
    assert "output.holonomy: [1/500000000]" in out


def test_transform_json_is_valid_and_ordered(tmp_path, capsys):
    assert main(["transform", write(tmp_path, "s.scene", SKYSCRAPER), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "transform"
    assert report["output.holonomy"] == "[2/3, 3/5]"
    assert report["warnings"] == []
    assert list(report)[:3] == ["command", "kind", "torus.dim"]


def test_check_names_the_failing_component(tmp_path, capsys):
    text = SECTION.replace("epsilon = x2 + 2*x1; x1", "epsilon = x2^2; x1")
    assert main(["check", write(tmp_path, "bad.scene", text)]) == 0
    out = capsys.readouterr().out
    assert "lagrangian: fails (proven) [dx1^dx2]" in out
    assert "flat: holds (proven)" in out


def test_check_reports_relative_conditions(tmp_path, capsys):
    assert main(["check", write(tmp_path, "r.scene", RELATIVE)]) == 0
    out = capsys.readouterr().out
    for line in ("C1: holds (proven)", "C2: holds (proven)", "C3: holds (proven)"):
        assert line in out
    assert "wit_index: 1" in out


def test_check_reports_dual_conditions(tmp_path, capsys):
    assert main(["check", write(tmp_path, "b.scene", BUNDLE)]) == 0
    out = capsys.readouterr().out
    assert "D1: holds (proven)" in out
    assert "cauchy-riemann: holds (proven)" in out


def test_roundtrip_seed_adds_slice_lines(tmp_path, capsys):
    assert main(["roundtrip", write(tmp_path, "r.scene", RELATIVE), "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "a: exact (proven)" in out
    assert "chi: exact (proven)" in out
    assert "alpha: exact (proven)" in out
    assert "xi: exact" in out
    assert "seed: 11" in out
    assert out.count("matches the sliced transform") == 3


def test_roundtrip_of_a_bundle_scene(tmp_path, capsys):
    assert main(["roundtrip", write(tmp_path, "b.scene", BUNDLE), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "P: exact (proven)" in out
    assert "Q: exact (proven)" in out
    assert "beta: exact (proven)" in out
    assert out.count("matches the sliced transform") == 3


# Q holds the offsets of the dual fibre equations, angles mod 1: the
# forward transform may return them shifted by an integer.
@pytest.mark.parametrize(
    "text",
    [BUNDLE.replace("Q = -1/3", "Q = 2/3"), "[torus]\ng = 2\n\n[bundle]\nk = 0\nQ = 1/5; 0\n"],
    ids=["k1", "k0"],
)
def test_roundtrip_reads_q_mod_1(tmp_path, capsys, text):
    assert main(["roundtrip", write(tmp_path, "b.scene", text), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Q: exact (proven)" in out
    assert out.count("matches the sliced transform") == 3


# Fibre offsets that vary along the base: the inverse returns alpha shifted
# by the exact gauge term 2 pi d(sum_c Q_c chi_c), here -(4/3) pi x1 dx1.
GAUGED_RELATIVE = """
[torus]
g = 3

[support]
kind = relative
k = 1
zeta = 2*x1; -x1
a = 1, 2
chi = x1^2

[system]
alpha = 0
xi = 1/3 5/6
"""

GAUGED_BUNDLE = """
[torus]
g = 3

[bundle]
k = 1
zeta = 2*x1; -x1
P = 2; -1
Q = -1/6; -1/3
alpha = x1
beta = x1^2
"""


def test_roundtrip_of_a_relative_scene_up_to_the_gauge_term(tmp_path, capsys):
    assert main(["roundtrip", write(tmp_path, "r.scene", GAUGED_RELATIVE), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "a: exact (proven)" in out
    assert "chi: exact (proven)" in out
    assert "alpha: exact up to the gauge term (proven)" in out
    assert "xi: exact" in out
    assert out.count("matches the sliced transform") == 3
    assert out.endswith("warnings: none\n")


def test_roundtrip_of_a_bundle_scene_up_to_the_gauge_term(tmp_path, capsys):
    assert main(["roundtrip", write(tmp_path, "b.scene", GAUGED_BUNDLE), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for line in ("P: exact (proven)", "Q: exact (proven)", "beta: exact (proven)"):
        assert line in out
    assert "alpha: exact up to the gauge term (proven)" in out
    assert out.count("matches the sliced transform") == 3
    assert out.endswith("warnings: none\n")


def test_roundtrip_alpha_line_catches_a_wrong_inverse(tmp_path, capsys, monkeypatch):
    # An inverse that shifts alpha by pi*x1, an exact term like the gauge
    # term, must show on the alpha line, which predicts the gauge term itself.
    real = torusfm.cli.inverse_transform
    shift = parse("pi*x1")

    def shifted(bundle, tol, grid):
        inv = real(bundle, tol, grid)
        alpha = (inv.system.alpha[0] + shift,) + inv.system.alpha[1:]
        return inv._replace(system=LocalSystemData(alpha, inv.system.xi))

    monkeypatch.setattr(torusfm.cli, "inverse_transform", shifted)
    for name, text in (("r.scene", GAUGED_RELATIVE), ("b.scene", GAUGED_BUNDLE)):
        assert main(["roundtrip", write(tmp_path, name, text)]) == 0
        assert "alpha: differs [alpha[1]]" in capsys.readouterr().out


def _shifted_support(s, a=None, chi=None):
    """s with a[j][m] or chi[j] raised by one; each argument is a 0-based index."""
    rows = [list(row) for row in s.a]
    offsets = list(s.chi)
    if a is not None:
        rows[a[0]][a[1]] += 1
    if chi is not None:
        offsets[chi] += 1
    return RelativeSupport(s.g, s.k, s.zeta, rows, offsets)


@pytest.mark.parametrize(
    "name, text, a, chi, lines",
    [
        ("r.scene", GAUGED_RELATIVE, (0, 0), 0, ["a: differs [a[1][1]]", "chi: differs [chi[1]]"]),
        ("r.scene", GAUGED_RELATIVE, (0, 1), None, ["a: differs [a[1][2]]", "chi: exact (proven)"]),
        ("s.scene", SECTION, None, 0, ["epsilon: differs [epsilon[1]]"]),
        ("s.scene", SECTION, None, 1, ["epsilon: differs [epsilon[2]]"]),
    ],
)
def test_roundtrip_names_the_entries_a_wrong_inverse_breaks(
    tmp_path, capsys, monkeypatch, name, text, a, chi, lines
):
    real = torusfm.cli.inverse_transform

    def shifted(bundle, tol, grid):
        inv = real(bundle, tol, grid)
        return inv._replace(support=_shifted_support(inv.support, a, chi))

    monkeypatch.setattr(torusfm.cli, "inverse_transform", shifted)
    assert main(["roundtrip", write(tmp_path, name, text)]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out


@pytest.mark.parametrize(
    "entry, shift, lines",
    [
        ((0, 0), "1/2", ["P: differs [P[1][1]]", "Q: differs [Q[1]]", "beta: differs [beta[1]]"]),
        ((1, 0), "1/2", ["P: differs [P[2][1]]", "Q: differs [Q[2]]", "beta: differs [beta[1]]"]),
        # Q is compared mod 1: a whole turn added to Q[1] is no difference.
        ((0, 0), "3", ["P: differs [P[1][1]]", "Q: exact (proven)", "beta: differs [beta[1]]"]),
    ],
)
def test_roundtrip_names_the_entries_a_wrong_forward_transform_breaks(
    tmp_path, capsys, monkeypatch, entry, shift, lines
):
    real = torusfm.cli.transform_nontransversal
    c = parse(shift)
    j, i = entry

    def shifted(s, system, tol, grid):
        b = real(s, system, tol, grid)
        p = [list(row) for row in b.gamma_tilde]
        p[j][i] += 1
        q = list(b.varsigma)
        q[j] += c
        beta = [e + c for e in b.fibre_turns]
        return TransformedBundle(b.g, b.k, b.zeta, p, q, b.alpha, beta, b.holomorphic)

    monkeypatch.setattr(torusfm.cli, "transform_nontransversal", shifted)
    assert main(["roundtrip", write(tmp_path, "b.scene", GAUGED_BUNDLE)]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out


def test_curvature_of_a_gradient_section(tmp_path, capsys):
    assert main(["curvature", write(tmp_path, "s.scene", SECTION)]) == 0
    out = capsys.readouterr().out
    assert "F20.vanishes: zero (proven)" in out
    assert "F11.vanishes: nonzero (proven)" in out
    assert "F02.vanishes: zero (proven)" in out


def test_curvature_accepts_asymmetric_sections(tmp_path, capsys):
    text = SECTION.replace("epsilon = x2 + 2*x1; x1", "epsilon = x2^2; 0")
    text = text.replace("alpha = x1; 0", "alpha = 0; 0")
    assert main(["curvature", write(tmp_path, "a.scene", text)]) == 0
    out = capsys.readouterr().out
    assert "F20.vanishes: nonzero (proven)" in out


def test_malformed_expression_exits_1_with_offset(tmp_path, capsys):
    text = "[torus]\ng = 2\n[support]\nkind = section\nepsilon = x1 +; x2"
    assert main(["transform", write(tmp_path, "bad.scene", text)]) == 1
    assert "at offset 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "epsilon, offset",
    [("(" * 3000 + "x1" + ")" * 3000, 200), ("sin(" * 3000 + "x1" + ")" * 3000, 800)],
    ids=["parentheses", "nested sin"],
)
def test_too_deep_expression_exits_1_with_offset(tmp_path, capsys, epsilon, offset):
    text = f"[torus]\ng = 1\n[support]\nkind = section\nepsilon = {epsilon}\n"
    assert main(["check", write(tmp_path, "deep.scene", text)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: [support] epsilon: expression nested deeper than 200 levels at offset {offset}\n"
    )


@pytest.mark.parametrize(
    "epsilon", ["-" * 3000 + "x1", "+".join(["x1"] * 3000)], ids=["minus signs", "sum"]
)
def test_long_flat_chain_scene_exits_0(tmp_path, capsys, epsilon):
    text = f"[torus]\ng = 1\n[support]\nkind = section\nepsilon = {epsilon}\n"
    assert main(["check", write(tmp_path, "long.scene", text)]) == 0
    assert "lagrangian: holds (proven)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, epsilon, message",
    [
        ("check", "(x1 + x2 + 1)^400; x1", f"product expands to more than {MAX_TERMS} terms at offset 13"),
        ("transform", "2^99999; x1", f"exponent exceeds {MAX_EXPONENT} at offset 2"),
    ],
    ids=["power of a sum", "huge exponent"],
)
def test_oversized_expression_exits_1_naming_the_limit(tmp_path, capsys, command, epsilon, message):
    text = SECTION.replace("epsilon = x2 + 2*x1; x1", f"epsilon = {epsilon}")
    start = time.perf_counter()
    assert main([command, write(tmp_path, "big.scene", text)]) == 1
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == f"error: [support] epsilon: {message}\n"


def test_variable_index_past_the_bound_exits_1(tmp_path, capsys):
    text = SECTION.replace("epsilon = x2 + 2*x1; x1", f"epsilon = x2; x{MAX_VARIABLE + 1}")
    assert main(["check", write(tmp_path, "far.scene", text)]) == 1
    assert capsys.readouterr().err == (
        f"error: [support] epsilon: variable index exceeds {MAX_VARIABLE} at offset 0\n"
    )


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["transform", str(tmp_path / "absent.scene")]) == 1
    assert "error:" in capsys.readouterr().err


def test_failed_precondition_exits_2_naming_the_condition(tmp_path, capsys):
    text = SECTION.replace("epsilon = x2 + 2*x1; x1", "epsilon = x2^2; x1")
    assert main(["transform", write(tmp_path, "bad.scene", text)]) == 2
    err = capsys.readouterr().err
    assert "precondition failed [C1]" in err
    assert "dx1^dx2" in err


# A Lagrangian relative support whose connection x2 dx1 is not closed.
NONFLAT_RELATIVE = """
[torus]
g = 3

[support]
kind = relative
k = 2
zeta = -x1
a = 0; 1
chi = 0; 0

[system]
alpha = x2; 0
xi = 1/3
"""


@pytest.mark.parametrize("command", ["transform", "roundtrip"])
def test_nonclosed_relative_connection_exits_2_naming_flat(tmp_path, capsys, command):
    assert main([command, write(tmp_path, "r.scene", NONFLAT_RELATIVE)]) == 2
    err = capsys.readouterr().err
    assert err == "precondition failed [flat]: condition flat does not hold: dalpha[1][2]\n"


def test_check_reports_a_nonclosed_relative_connection(tmp_path, capsys):
    assert main(["check", write(tmp_path, "r.scene", NONFLAT_RELATIVE)]) == 0
    out = capsys.readouterr().out
    assert "C3: holds (proven)\nflat: fails (proven) [dalpha[1][2]]\n" in out


@pytest.mark.parametrize(
    "text,message",
    [
        (SECTION.replace("alpha = x1; 0", "alpha = x1"), "[system] alpha needs 2 entries, got 1"),
        (NONFLAT_RELATIVE.replace("alpha = x2; 0", "alpha = x2"), "[system] alpha needs 2 entries, got 1"),
        (NONFLAT_RELATIVE.replace("xi = 1/3", "xi = 1/3 1/2"), "[system] xi needs 1 entry, got 2"),
    ],
    ids=["section-alpha", "relative-alpha", "relative-xi"],
)
@pytest.mark.parametrize("command", ["check", "transform"])
def test_system_lengths_are_checked(tmp_path, capsys, text, message, command):
    assert main([command, write(tmp_path, "s.scene", text)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


EMPTY_SLOPES = """
[torus]
g = 2

[support]
kind = relative
k = 2
a =
chi = x1; 0

[system]
alpha = 0; 0
"""

EMPTY_DUAL_SLOPES = """
[torus]
g = 2

[bundle]
k = 0
zeta = 1/2; 1/3
P =
Q = -1/5; 0
"""


@pytest.mark.parametrize("text", [EMPTY_SLOPES, EMPTY_DUAL_SLOPES], ids=["relative-a", "bundle-P"])
@pytest.mark.parametrize("command", ["check", "transform", "roundtrip", "curvature"])
def test_empty_slope_matrix_is_rows_of_no_entries(tmp_path, capsys, text, command):
    # The k x 0 slopes of a relative scene at k = g, and the (g - k) x 0
    # dual slopes of a bundle scene at k = 0, are written as an empty value.
    scene = parse_scene(text)
    assert (scene.support.a if scene.bundle is None else scene.bundle.gamma_tilde) == ((), ())
    assert main([command, write(tmp_path, "s.scene", text)]) == 0
    assert capsys.readouterr().err == ""


def test_curvature_of_a_skyscraper_exits_2(tmp_path, capsys):
    assert main(["curvature", write(tmp_path, "s.scene", SKYSCRAPER)]) == 2
    assert "precondition failed [curvature]" in capsys.readouterr().err


def test_degenerate_bundle_chart_exits_2(tmp_path, capsys):
    text = "[torus]\ng = 2\n[bundle]\nk = 1"
    assert main(["transform", write(tmp_path, "flatb.scene", text)]) == 2
    err = capsys.readouterr().err
    assert "precondition failed [chart]" in err
    assert "graph over the angles" in err


def test_nonclosed_alpha_fails_curvature_with_exit_2(tmp_path, capsys):
    text = SECTION.replace("alpha = x1; 0", "alpha = x2; 0")
    assert main(["curvature", write(tmp_path, "na.scene", text)]) == 2
    assert "precondition failed [flat]" in capsys.readouterr().err


def test_reports_are_byte_deterministic(tmp_path):
    scene = write(tmp_path, "r.scene", RELATIVE)
    outs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        code = main(
            ["roundtrip", scene, "--seed", "7", "--format", "json",
             "--output", str(target)]
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_output_flag_writes_the_report_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["check", write(tmp_path, "r.scene", RELATIVE), "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "C1: holds (proven)" in target.read_text()


def test_directory_mode_collects_every_scene(tmp_path, capsys):
    write(tmp_path, "a_line.scene", LINE)
    write(tmp_path, "b_bad.scene", "[torus]\ng = 2")
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "== a_line.scene ==" in out
    assert "== b_bad.scene ==" in out
    assert "[support] or [bundle]" in out


def test_directory_mode_json_keys_are_file_names(tmp_path, capsys):
    write(tmp_path, "a_line.scene", LINE)
    write(tmp_path, "b_rel.scene", RELATIVE)
    assert main(["transform", str(tmp_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["a_line.scene", "b_rel.scene"]
    assert report["b_rel.scene"]["wit_index"] == 1


def test_empty_directory_exits_1(tmp_path, capsys):
    assert main(["transform", str(tmp_path)]) == 1
    assert "no .scene files" in capsys.readouterr().err


# The phase 1 keeps sin(x1 + x2 + 1) opaque, so flatness stays numerical.
TRIG_SECTION = SECTION.replace(
    "alpha = x1; 0", "alpha = sin(x1 + x2 + 1); sin(x1 + 1)*cos(x2) + cos(x1 + 1)*sin(x2)"
)


@pytest.mark.parametrize(
    "flag,value",
    [("--grid", "0"), ("--grid", "-2"), ("--grid", "1.5"), ("--grid", "many"),
     ("--tol", "inf"), ("--tol", "-inf"), ("--tol", "nan"), ("--tol", "-1"),
     ("--tol", "0"), ("--tol", "tiny")],
)
def test_meaningless_flag_values_are_usage_errors(tmp_path, capsys, flag, value):
    scene = write(tmp_path, "trig.scene", TRIG_SECTION)
    with pytest.raises(SystemExit) as exc:
        main(["check", scene, f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


def test_smallest_valid_grid_and_tol_are_accepted(tmp_path, capsys):
    scene = write(tmp_path, "trig.scene", TRIG_SECTION)
    assert main(["check", scene, "--grid", "1", "--tol", "1e-300"]) == 0
    assert "flat: holds (numerical, tol 1e-300)" in capsys.readouterr().out


# ------------------------------------------------------------ fuzzing

# Expressions shaped by the grammar, some past the parser's limits, and
# token soup that mostly is not.
_grammar_exprs = st.recursive(
    st.sampled_from(["x1", "x2", "x1", "pi", "0", "3", "1/2", "x17", "99999999999"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["2", "3", "0", "x1"])).map(lambda t: f"({t[0]})/{t[1]}"),
        st.tuples(st.sampled_from(["sin(", "cos(", "(", "-("]), inner).map(lambda t: f"{t[0]}{t[1]})"),
        st.tuples(inner, st.sampled_from([0, 2, 3, 2, 400, 1001])).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)
_token_soup = st.lists(
    st.sampled_from(["x1", "x0", "y", "pi", "sin", "(", ")", "+", "-", "*", "/", "^", "2", "@", ",", ";", " "]),
    max_size=12,
).map("".join)
_entries = st.one_of(_grammar_exprs, _grammar_exprs, _grammar_exprs, _token_soup)


def _polynomials(k):
    """Well-formed entries in x1..xk, so that relative scenes get past the parser."""
    leaves = st.sampled_from(["0", "1/2", "3", "-2", "pi"] + [f"x{i}" for i in range(1, k + 1)])
    return st.recursive(
        leaves,
        lambda inner: st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        max_leaves=4,
    )


_fraction = st.sampled_from(["1/3", "0", "-2", "5/7", "1/3", "x", "1/0"])
_fractions = st.lists(_fraction, max_size=3).map(" ".join)


@st.composite
def _scenes(draw):
    """Scene text, mostly of the right shape for its kind, sometimes not."""
    g = draw(st.sampled_from([1, 2, 2, 3, 3, 0]))

    def row(n, entries=_entries):
        return "; ".join(draw(st.lists(entries, min_size=n, max_size=n)))

    def matrix(rows, cols, entries=_entries):
        return "; ".join(", ".join(draw(st.lists(entries, min_size=cols, max_size=cols)))
                         for _ in range(rows))

    kind = draw(st.sampled_from(["section", "relative", "bundle", "section", "relative", "subtorus",
                                 "skyscraper"]))
    k = draw(st.integers(0, max(g, 1)))
    m = max(g - k, 0)
    if kind == "bundle":
        lines = ["[bundle]", f"k = {k}", f"zeta = {row(m)}", f"P = {matrix(m, k)}", f"Q = {row(m)}",
                 f"alpha = {row(k)}", f"beta = {row(k)}"]
    elif kind == "section":
        lines = ["[support]", "kind = section", f"epsilon = {row(g)}", "[system]", f"alpha = {row(g)}"]
    elif kind == "relative":
        # Entries are mostly polynomials in the base coordinates, and xi has
        # g - k entries, but one draw in eight is one too many or too few.
        # A k x 0 slope matrix is written `a =`.
        p = _polynomials(k)
        e = st.one_of(p, p, p, _entries)
        n = max(m + draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1])), 0)
        xi = " ".join(draw(st.lists(_fraction, min_size=n, max_size=n)))
        lines = ["[support]", "kind = relative", f"k = {k}", f"zeta = {row(m, e)}"]
        lines += [f"a = {matrix(k, m, e) if m else ''}"]
        lines += [f"chi = {row(k, e)}", "[system]", f"alpha = {row(k, e)}", f"xi = {xi}"]
    elif kind == "subtorus":
        lines = ["[support]", "kind = subtorus",
                 f"equations = {draw(st.sampled_from(['3 -2', '1 0; 0 1', '0 0', '1 x', '2']))}",
                 f"offset = {draw(_fractions)}"]
    else:
        lines = ["[support]", "kind = skyscraper", f"coords = {draw(_fractions)}"]
    lines = ["[torus]", f"g = {g}"] + lines
    # One draw in eight garbles the layout: a line dropped or soup inserted.
    if draw(st.integers(0, 7)) == 3:
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.integers(0, 7)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), draw(_token_soup))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=2000)
@given(_scenes())
def test_parse_scene_raises_only_value_errors(text):
    try:
        parse_scene(text)
    except ValueError:  # ParseError and ConditionError included
        pass


@settings(max_examples=60, deadline=2000)
@given(_scenes(), st.sampled_from(["transform", "check", "roundtrip", "curvature"]),
       st.sampled_from(["text", "json"]))
def test_main_returns_documented_exit_codes(text, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scene"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(("error: ", "precondition failed ["))
