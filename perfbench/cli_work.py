"""The `cli` workload: `torusfm.cli.main(argv)` in-process on scene files.

This is the only workload where scene parsing, the command-line glue and
the printing side of `expr` are a material share.  Set-up writes seeded
small-g scenes of all five kinds to a directory inside the checkout; the
five example scenes are used where they are.  Each scene runs with all
four commands in both formats and with `roundtrip --seed`, and each
command runs once on the whole directory.  Scenes repeat across commands,
so inputs are shared here, unlike in `lattice`.

Reports are checked against the scene's own data, which the benchmark
reads with configparser and its own algebra, never through the library.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import lattice as L
import poly as P
from workload import Op, Workload

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "scenes"
SCRATCH = ROOT / ".bench_tmp"
KINDS = ("skyscraper", "subtorus", "section", "relative", "bundle")
SEEDED_G = (2, 3, 4)
COMMANDS = ("transform", "check", "roundtrip", "curvature")
ROUNDTRIP_SEED = 7


def params() -> dict:
    return {
        "example_scenes": sorted(p.name for p in EXAMPLES.glob("*.scene")),
        "seeded_kinds": list(KINDS),
        "seeded_g": list(SEEDED_G),
        "seeded_shape": "codimension or k = g // 2; relative offsets affine in the base",
        "commands": list(COMMANDS),
        "formats": ["text", "json"],
        "roundtrip_seed": ROUNDTRIP_SEED,
        "directory_format": "json",
    }


# ------------------------------------------------------------ scene writing


def _frac(x) -> str:
    return str(Fraction(x))


def _fracs(xs) -> str:
    return " ".join(_frac(x) for x in xs)


def _exprs(polys) -> str:
    return "; ".join(P.to_text(p) for p in polys)


def _expr_rows(rows) -> str:
    return "; ".join(", ".join(P.to_text(e) for e in row) for row in rows)


def _scene(g: int, sections: dict) -> str:
    out = [f"[torus]\ng = {g}\n"]
    for name, items in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in items.items())
        out.append("")
    return "\n".join(out)


def _potential(rng, g: int) -> dict:
    p = P.ZERO
    for _ in range(2):
        i, j = rng.randint(1, g), rng.randint(1, g)
        p = P.add(p, P.scale(P.mul(P.x(i), P.x(j)), L.random_rational(rng, 3, (1, 2, 3))))
    return p


def seeded_scene(rng, kind: str, g: int) -> str:
    rat = lambda: L.random_rational(rng, 3, (1, 2, 3))  # noqa: E731
    if kind == "skyscraper":
        coords = [Fraction(rng.randrange(d), d) for d in (rng.choice((2, 3, 5, 7)) for _ in range(g))]
        return _scene(g, {"support": {"kind": kind, "coords": _fracs(coords)}})
    if kind == "subtorus":
        codim = g // 2
        rows = L.full_rank_rows(rng, g, codim)
        return _scene(g, {
            "support": {"kind": kind, "equations": "; ".join(" ".join(map(str, r)) for r in rows),
                        "offset": _fracs(rat() for _ in rows)},
            "system": {"holonomy": _fracs(rat() for _ in range(g - codim))},
        })
    if kind == "section":
        pot, apot = _potential(rng, g), _potential(rng, g)
        eps = [P.add(P.diff(pot, j), P.const(rat())) for j in range(1, g + 1)]
        alpha = [P.add(P.diff(apot, j), P.const(rat())) for j in range(1, g + 1)]
        return _scene(g, {"support": {"kind": kind, "epsilon": _exprs(eps)},
                          "system": {"alpha": _exprs(alpha)}})
    k = g // 2
    gamma, zeta0, a, chi0, b_mat, alpha, xi = L.constant_slope_instance(rng, g, k)
    zeta = [P.parse(L.affine_text(row, z0)) for row, z0 in zip(gamma, zeta0)]
    if kind == "relative":
        chi = [P.parse(L.affine_text(row, c0)) for row, c0 in zip(b_mat, chi0)]
        return _scene(g, {
            "support": {"kind": kind, "k": str(k), "zeta": _exprs(zeta),
                        "a": _expr_rows([[P.const(e) for e in row] for row in a]), "chi": _exprs(chi)},
            "system": {"alpha": _exprs(P.const(e) for e in alpha), "xi": _fracs(xi)},
        })
    # A dual-side bundle: the forward image of a constant instance.  Its Q
    # comes from a holonomy in [0, 1), so the round trip returns it
    # exactly; other Q agree with their round trip only modulo the lattice.
    n = min(k, g - k)
    q = [sum(xi[j] * gamma[i][j] for j in range(n)) - (xi[k + i] if k + 1 + i <= g - k else 0)
         for i in range(g - k)]
    beta = [rat() for _ in range(k)]
    return _scene(g, {"bundle": {
        "k": str(k), "zeta": _exprs(zeta), "P": _expr_rows([[P.const(e) for e in row] for row in gamma]),
        "Q": _exprs(P.const(e) for e in q), "alpha": _exprs(P.const(e) for e in alpha),
        "beta": _exprs(P.const(e) for e in beta),
    }})


# --------------------------------------------------------------- scene data


class SceneData:
    """The scene file as the benchmark reads it, independently of the library."""

    def __init__(self, path: Path):
        cp = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       interpolation=None)
        cp.optionxform = str
        cp.read(path, encoding="utf-8")
        self.path = path
        self.g = int(cp["torus"]["g"])
        if cp.has_section("bundle"):
            self.kind = "bundle"
            self.values = dict(cp["bundle"])
        else:
            self.values = dict(cp["support"])
            self.kind = self.values["kind"].strip()
            if cp.has_section("system"):
                self.values.update(cp["system"])

    def fracs(self, key: str, n: int):
        raw = self.values.get(key)
        return [Fraction(t) for t in raw.replace(",", " ").split()] if raw else [Fraction(0)] * n

    def exprs(self, key: str, n: int):
        raw = self.values.get(key)
        return [P.parse(t) for t in raw.split(";")] if raw and raw.strip() else [P.ZERO] * n


# ------------------------------------------------------------------ checks


def parse_text_report(text: str) -> dict:
    out = {"warnings": []}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "warning":
            out["warnings"].append(value)
        elif key == "warnings":
            continue
        else:
            out[key] = value
    return out


def _normalize(report: dict) -> dict:
    return {k: (v if k == "warnings" else str(v)) for k, v in report.items()}


def _int_matrix(text: str):
    return [[int(e) for e in row] for row in json.loads(text)]


def _frac_list(text: str):
    inner = text.strip()[1:-1].strip()
    return [Fraction(t.strip()) for t in inner.split(",")] if inner else []


def _verdict_counts(report: dict) -> tuple:
    values = [v for k, v in report.items() if k != "warnings"]
    return (sum("(proven" in v for v in values), sum("(numerical" in v for v in values))


def _absolute_error(data: SceneData, report: dict, prefix):
    """Check the canonical input, if reported, and the dual under `prefix`."""
    g = data.g
    if data.kind == "skyscraper":
        coords = data.fracs("coords", g)
        raw = [[int(i == j) for j in range(g)] for i in range(g)]
        raw_off, hol = [-c for c in coords], []
    else:
        raw = [[int(t) for t in part.replace(",", " ").split()] for part in data.values["equations"].split(";")]
        raw_off = data.fracs("offset", len(raw))
        hol = data.fracs("holonomy", g - len(raw))
    hol = [L.mod1(h) for h in hol]
    offset = None
    if "input.equations" in report:
        eqns = _int_matrix(report["input.equations"])
        offset = _frac_list(report["input.offset"])
        err = L.subtorus_error(eqns, offset, raw, raw_off, g)
        if err:
            return "input: " + err
        if _frac_list(report["input.holonomy"]) != hol:
            return "input holonomy not reduced"
    if prefix is None:
        return None
    # Orthogonality to the raw rows is orthogonality to their saturation.
    err = L.kernel_error(_int_matrix(report[f"{prefix}.equations"]), raw, g)
    if err:
        return f"{prefix}: {err}"
    if _frac_list(report[f"{prefix}.offset"]) != hol:
        return f"{prefix} offset is not the input holonomy"
    if offset is not None and _frac_list(report[f"{prefix}.holonomy"]) != offset:
        return f"{prefix} holonomy is not the input offset"
    if report[f"{prefix}.support_dim"] != str(len(raw)):
        return f"{prefix} support has the wrong dimension"
    return None


def _expect_values(report: dict, wanted: dict):
    for key, prefix in wanted.items():
        value = report.get(key)
        if value is None or not value.startswith(prefix):
            return f"{key} is {value!r}, expected {prefix!r}"
    return None


def _no_mismatch(report: dict):
    for key, value in report.items():
        if key != "warnings" and ("MISMATCH" in value or value.startswith("differs")):
            return f"{key}: {value}"
    return None


def _hodge_error(report: dict, turns):
    n = len(turns)
    dt = [[P.diff(turns[j], m + 1) for j in range(n)] for m in range(n)]
    half_pi = P.scale(P.PI, Fraction(1, 2))
    want = {
        "F20": [[P.mul(half_pi, P.sub(dt[m][j], dt[j][m])) for j in range(n)] for m in range(n)],
        "F11": [[P.scale(P.mul(half_pi, P.add(dt[m][j], dt[j][m])), -1) for j in range(n)] for m in range(n)],
        "F02": [[P.mul(half_pi, P.sub(dt[j][m], dt[m][j])) for j in range(n)] for m in range(n)],
    }
    for name, grid in want.items():
        if P.parse_matrix(report[name]) != grid:
            return f"{name} differs from the curvature of the fibre turns"
        zero = not any(e for row in grid for e in row)
        if not report[f"{name}.vanishes"].startswith("zero" if zero else "nonzero"):
            return f"{name}.vanishes is {report[f'{name}.vanishes']!r}"
    return None


def report_error(data: SceneData, command: str, report: dict):
    """Why a command's report on a scene is wrong, or None."""
    if report.get("command") != command or report.get("kind") != data.kind \
            or report.get("torus.dim") != str(data.g):
        return "report header does not match the scene"
    err = _no_mismatch(report)
    if err:
        return err
    kind, g = data.kind, data.g
    if kind in ("skyscraper", "subtorus"):
        if command == "transform":
            return _absolute_error(data, report, "output") or _expect_values(
                report, {"wit_index": str(g - len(_int_matrix(report["input.equations"])))})
        if command == "check":
            return _absolute_error(data, report, None) or _expect_values(report, {"conditions": "none apply"})
        if command == "roundtrip":
            return _expect_values(report, {"roundtrip": "exact", "dual.normal_to_input": "true"}) \
                or _absolute_error(data, report, "dual")
        return "curvature succeeded on an absolute scene"
    if kind == "section":
        eps = data.exprs("epsilon", g)
        if command == "transform":
            if P.parse_list(report["output.fibre_turns"]) != [P.scale(e, -1) for e in eps]:
                return "fibre turns are not -epsilon"
            return _expect_values(report, {"output.holomorphic": "zero (proven)", "wit_index": "0"})
        if command == "check":
            return _expect_values(report, {"lagrangian": "holds (proven)", "flat": "holds (proven)"})
        if command == "roundtrip":
            return _expect_values(report, {"epsilon": "exact", "alpha": "exact", "xi": "exact"})
        return _hodge_error(report, [P.scale(e, -1) for e in eps])
    if kind == "relative":
        k = int(data.values["k"])
        if command == "transform":
            zeta = data.exprs("zeta", g - k)
            jac = [[P.diff(z, j) for j in range(1, k + 1)] for z in zeta]
            if P.parse_matrix(report["output.gamma_tilde"]) != jac:
                return "dual slopes are not the Jacobian of zeta"
            return _expect_values(report, {"output.holomorphic": "zero (proven)", "wit_index": str(g - k)})
        if command == "check":
            return _expect_values(report, {"C1": "holds (proven)", "C2": "holds (proven)",
                                           "C3": "holds (proven)", "wit_index": str(g - k)})
        if command == "roundtrip":
            return _expect_values(report, {"forward.holomorphic": "zero (proven)", "zeta": "exact",
                                           "a": "exact", "chi": "exact", "alpha": "exact", "xi": "exact"})
        return _hodge_error(report, P.parse_list(report["fibre_turns"]))
    k = int(data.values["k"])
    if command == "transform":
        if P.parse_list(report["output.zeta"]) != data.exprs("zeta", g - k):
            return "inverse changed zeta"
        return _expect_values(report, {"wit_index": str(k)})
    if command == "check":
        return _expect_values(report, {"D1": "holds (proven)", "D2": "holds (proven)",
                                       "D3": "holds (proven)", "cauchy-riemann": "holds (proven)"})
    if command == "roundtrip":
        return _expect_values(report, {"zeta": "exact", "P": "exact", "Q": "exact",
                                       "beta": "exact", "alpha": "exact"})
    if P.parse_list(report["fibre_turns"]) != data.exprs("beta", k):
        return "fibre turns are not beta"
    return _hodge_error(report, data.exprs("beta", k))


def _slices_error(report: dict):
    for i in (1, 2, 3):
        if report.get(f"slice{i}.fibre") != "matches the sliced transform":
            return f"slice{i} does not match"
    if report.get("seed") != str(ROUNDTRIP_SEED):
        return "seed not echoed"
    return None


# -------------------------------------------------------------- operations


def _invoke(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _scene_op(lib, data: SceneData, command: str, fmt: str, seed: bool) -> Op:
    argv = [command, str(data.path), "--format", fmt]
    if seed:
        argv += ["--seed", str(ROUNDTRIP_SEED)]
    absolute = data.kind in ("skyscraper", "subtorus")

    def call():
        return _invoke(lib, argv)

    def check(out):
        code, stdout, stderr = out
        if command == "curvature" and absolute:
            if code != 2 or not stderr.startswith("precondition failed [curvature]") or stdout:
                return f"curvature on a {data.kind} scene gave exit {code}, expected 2"
            return None
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        report = _normalize(json.loads(stdout)) if fmt == "json" else parse_text_report(stdout)
        sliced = seed and not absolute
        return report_error(data, command, report) or (_slices_error(report) if sliced else None)

    def verdicts(out):
        code, stdout, _ = out
        if code != 0:
            return (0, 0)
        report = _normalize(json.loads(stdout)) if fmt == "json" else parse_text_report(stdout)
        return _verdict_counts(report)

    return Op(f"{command}", data.g, call, check, verdicts)


def _directory_op(lib, directory: Path, scenes: dict, command: str) -> Op:
    argv = [command, str(directory), "--format", "json"]
    expected_code = 2 if command == "curvature" else 0

    def call():
        return _invoke(lib, argv)

    def check(out):
        code, stdout, _ = out
        if code != expected_code:
            return f"exit {code} on the directory, expected {expected_code}"
        reports = json.loads(stdout)
        if sorted(reports) != sorted(scenes):
            return "directory report does not list every scene"
        for name, report in reports.items():
            data = scenes[name]
            if "error" in report and len(report) == 1:
                if command == "curvature" and data.kind in ("skyscraper", "subtorus") \
                        and report["error"].startswith("precondition failed [curvature]"):
                    continue
                return f"{name}: {report['error']}"
            err = report_error(data, command, _normalize(report))
            if err:
                return f"{name}: {err}"
        return None

    def verdicts(out):
        code, stdout, _ = out
        counts = [_verdict_counts(_normalize(r)) for r in json.loads(stdout).values()]
        return (sum(c[0] for c in counts), sum(c[1] for c in counts))

    return Op(f"dir-{command}", 0, call, check, verdicts)


def build(lib, rng, seconds: float) -> Workload:
    SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
    examples = sorted(EXAMPLES.glob("*.scene"))
    scenes = []
    for path in examples:
        shutil.copyfile(path, directory / path.name)
        scenes.append(SceneData(path))
    for kind in KINDS:
        for g in SEEDED_G:
            path = directory / f"seeded-{kind}-{g}.scene"
            path.write_text(seeded_scene(rng, kind, g), encoding="utf-8")
            scenes.append(SceneData(path))
    ops = []
    for data in scenes:
        for command in COMMANDS:
            for fmt in ("text", "json"):
                ops.append(_scene_op(lib, data, command, fmt, seed=False))
        ops.append(_scene_op(lib, data, "roundtrip", "text", seed=True))
    in_directory = {p.name: SceneData(p) for p in sorted(directory.glob("*.scene"))}
    for command in COMMANDS:
        ops.append(_directory_op(lib, directory, in_directory, command))

    def wrong_exit(out):
        code, stdout, stderr = out
        return (1 if code == 0 else 0), stdout, stderr

    def cleanup():
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    corrupt = {name: wrong_exit for name in COMMANDS + tuple(f"dir-{c}" for c in COMMANDS)}
    return Workload(ops, cycle=True, top_g=max(SEEDED_G), tail_percentile=99.0,
                    corrupt=corrupt, params=params(), cleanup=cleanup)
