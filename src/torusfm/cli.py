"""Command line front end over the transform and the condition checks.

Four subcommands share one scene argument and one flag set:

    torusfm transform scene.scene [--format json] [--output report]
    torusfm check     scene.scene [--tol 1e-9] [--grid 17]
    torusfm roundtrip scene.scene [--seed 7]
    torusfm curvature scene.scene

The scene argument may also name a directory, in which case every
*.scene file inside is processed in sorted order.  Reports are plain
key-value lines under --format text and a JSON object under --format
json, byte-identical across runs for fixed inputs and flags.  Exit
status is 0 on success, 1 for unreadable or malformed scenes, 2 for a
usage error such as an invalid flag value, or when a named precondition
of the requested operation fails.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from .expr import ZERO, Expr, Verdict, eval_exact, to_str
from .fm_absolute import SubtorusLocalSystem, transform as absolute_transform
from .fm_relative import (
    ConditionError,
    ConditionReport,
    TransformedBundle,
    _differences,
    _gather,
    check_C1_lagrangian,
    check_C2_C3,
    check_D_conditions,
    check_cauchy_riemann,
    check_flat,
    fibre_of_transform,
    fibre_system,
    gauge_term,
    hodge_components,
    inverse_transform,
    transform_nontransversal,
)
from .scene import Scene, load_scene
from .torus import is_normal_to

__all__ = ["main"]


# ------------------------------------------------------------- formatting


def _text(value) -> str:
    """A report value: an Expr by `to_str`, a tuple or list as a bracketed list, anything else by str."""
    if isinstance(value, Expr):
        return to_str(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(map(_text, value)) + "]"
    return str(value)


def _put(out: dict, prefix: str, **fields) -> None:
    """Write prefix.key for each field in the order given; ints stay ints, the rest is text."""
    for key, value in fields.items():
        out[f"{prefix}.{key}"] = value if isinstance(value, int) else _text(value)


def _strength(v: Verdict) -> str:
    return "proven" if v.proven else f"numerical, tol {v.tol:g}"


def _note(warnings: list, label: str, v: Verdict) -> None:
    if not v.proven:
        warnings.append(f"{label} decided numerically (tol {v.tol:g})")


def _put_verdict(out: dict, warnings: list, key: str, v: Verdict) -> None:
    out[key] = ("zero" if v.is_zero else "nonzero") + f" ({_strength(v)})"
    _note(warnings, key, v)


def _put_condition(out: dict, warnings: list, key: str, rep: ConditionReport) -> None:
    text = ("holds" if rep.holds else "fails") + f" ({_strength(rep.verdict)})"
    out[key] = text + (" [" + ", ".join(rep.failures) + "]" if rep.failures else "")
    _note(warnings, key, rep.verdict)


def _differs(rep: ConditionReport) -> str:
    return "differs [" + ", ".join(rep.failures) + "]"


def _equality(key, got, want, tol, grid, warnings, drift=lambda e: e) -> str:
    """Zero-test drift(got - want) entry by entry; the outcome as one report value."""
    rep = _gather(key, ((label, drift(e)) for label, e in _differences(key, got, want)), tol, grid)
    _note(warnings, key, rep.verdict)
    return f"exact ({_strength(rep.verdict)})" if rep.holds else _differs(rep)


def _put_absolute(out: dict, prefix: str, system: SubtorusLocalSystem) -> None:
    sup = system.support
    _put(
        out, prefix, equations=sup.eqns.rows, offset=sup.offset,
        holonomy=system.holonomy, rank=system.rank, support_dim=sup.dim,
    )


def _put_fibred_input(out: dict, scene: Scene) -> None:
    """Input keys of a section or relative scene; a section prints chi as epsilon."""
    s, system = scene.support, scene.system
    if scene.kind == "section":
        _put(out, "input", epsilon=s.chi, alpha=system.alpha)
    else:
        _put(
            out, "input", k=s.k, zeta=s.zeta, a=s.a, chi=s.chi,
            alpha=system.alpha, xi=system.xi,
        )


def _put_dual_input(out: dict, b: TransformedBundle) -> None:
    _put(
        out, "input", k=b.k, zeta=b.zeta, P=b.gamma_tilde, Q=b.varsigma,
        alpha=b.alpha, beta=b.fibre_turns,
    )


def _put_hodge(out: dict, alpha, turns, tol, grid, warnings: list) -> None:
    f20, f11, f02 = hodge_components(alpha, turns, tol, grid)
    for name, grid_ in (("F20", f20), ("F11", f11), ("F02", f02)):
        out[name] = _text(grid_)
        v = _gather(name, ((name, e) for row in grid_ for e in row), tol, grid).verdict
        _put_verdict(out, warnings, f"{name}.vanishes", v)


def _angle_drift(e):
    """e, or zero when it is an integer constant: angles are equal mod 1."""
    try:
        return ZERO if eval_exact(e, ()).denominator == 1 else e
    except ValueError:
        return e


def _alpha_comparison(alpha_out, alpha_in, varsigma, chi, tol, grid, warnings) -> str:
    """Compare alpha exactly, then up to the gauge term of varsigma and chi.

    The term is predicted from the data the round trip starts from, not
    taken from the inverse's report, so a wrong inverse cannot hide.
    """
    drift = list(_differences("alpha", alpha_out, alpha_in))
    gauged = [(label, e + t) for (label, e), t in zip(drift, gauge_term(varsigma, chi))]
    for labelled, how in ((drift, "exact"), (gauged, "exact up to the gauge term")):
        rep = _gather("alpha", labelled, tol, grid)
        if rep.holds:
            _note(warnings, "alpha", rep.verdict)
            return f"{how} ({_strength(rep.verdict)})"
    return _differs(rep)


# ------------------------------------------------------------- subcommands


def _cmd_transform(scene: Scene, args, out: dict, warnings: list) -> None:
    tol, grid = args.tol, args.grid
    if scene.kind in ("skyscraper", "subtorus"):
        res = absolute_transform(scene.absolute)
        _put_absolute(out, "input", scene.absolute)
        _put_absolute(out, "output", res.system)
        out["wit_index"] = res.wit_index
    elif scene.kind in ("section", "relative"):
        _put_fibred_input(out, scene)
        b = transform_nontransversal(scene.support, scene.system, tol, grid)
        _put(
            out, "output", k=b.k, zeta=b.zeta, gamma_tilde=b.gamma_tilde,
            varsigma=b.varsigma, alpha=b.alpha, fibre_turns=b.fibre_turns,
        )
        _put_verdict(out, warnings, "output.holomorphic", b.holomorphic)
        out["wit_index"] = b.wit_index
    else:
        _put_dual_input(out, scene.bundle)
        inv = inverse_transform(scene.bundle, tol, grid)
        _put(
            out, "output", zeta=inv.support.zeta, a=inv.support.a,
            chi=inv.support.chi, alpha=inv.system.alpha, xi=inv.system.xi,
        )
        out["wit_index"] = inv.wit_index


def _cmd_check(scene: Scene, args, out: dict, warnings: list) -> None:
    tol, grid = args.tol, args.grid
    if scene.kind in ("skyscraper", "subtorus"):
        _put_absolute(out, "input", scene.absolute)
        out["conditions"] = (
            "none apply; flat systems on affine subtori transform unconditionally"
        )
        return
    if scene.kind == "bundle":
        b = scene.bundle
        reports = [*check_D_conditions(b, tol, grid), check_cauchy_riemann(b, tol, grid)]
    else:
        s = scene.support
        reports = [check_C1_lagrangian(s, tol, grid)]
        if scene.kind == "relative":
            reports += check_C2_C3(s, tol, grid)
        reports.append(check_flat(scene.system.alpha, tol, grid))
    for rep in reports:
        # A section reports C1 under the name of what it asks: a Lagrangian graph.
        key = "lagrangian" if scene.kind == "section" and rep.name == "C1" else rep.name
        _put_condition(out, warnings, key, rep)
    if scene.kind == "relative" and reports[1].holds:
        out["wit_index"] = s.g - s.k


def _slices(out, seed, s, system, bundle) -> None:
    """Three seeded rational base points; each slice of the output bundle
    must equal the absolute transform of the sliced input."""
    out["seed"] = seed
    rng = random.Random(seed)
    for i in range(1, 4):
        base = tuple(
            Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
            for _ in range(s.k)
        )
        sl_in = fibre_system(s, system, base)
        res = absolute_transform(sl_in)
        sl_out = fibre_of_transform(bundle, base)
        agree = (
            sl_out == res.system
            and res.wit_index == bundle.wit_index
            and is_normal_to(sl_in.support, sl_out.support)
        )
        out[f"slice{i}.base"] = _text(base)
        out[f"slice{i}.fibre"] = "matches the sliced transform" if agree else "MISMATCH"


def _cmd_roundtrip(scene: Scene, args, out: dict, warnings: list) -> None:
    tol, grid = args.tol, args.grid
    if scene.kind in ("skyscraper", "subtorus"):
        once = absolute_transform(scene.absolute)
        twice = absolute_transform(once.system)
        _put_absolute(out, "dual", once.system)
        out["dual.wit_index"] = once.wit_index
        out["dual.normal_to_input"] = str(
            is_normal_to(scene.absolute.support, once.system.support)
        ).lower()
        out["roundtrip"] = (
            "exact" if twice.system == scene.absolute else "MISMATCH"
        )
        return

    if scene.kind in ("section", "relative"):
        # A section prints its offsets as epsilon and omits the keys that
        # are trivial at k = g.
        relative = scene.kind == "relative"
        s, system = scene.support, scene.system
        bundle = transform_nontransversal(s, system, tol, grid)
        inv = inverse_transform(bundle, tol, grid)
        if relative:
            _put_verdict(out, warnings, "forward.holomorphic", bundle.holomorphic)
        out["forward.wit_index"] = bundle.wit_index
        out["inverse.wit_index"] = inv.wit_index
        if relative:
            out["zeta"] = "exact" if inv.support.zeta == s.zeta else "MISMATCH"
            out["a"] = _equality("a", inv.support.a, s.a, tol, grid, warnings)
        chi = "chi" if relative else "epsilon"
        out[chi] = _equality(chi, inv.support.chi, s.chi, tol, grid, warnings)
        out["alpha"] = _alpha_comparison(
            inv.system.alpha, system.alpha, bundle.varsigma, s.chi, tol, grid, warnings
        )
        out["xi"] = "exact" if inv.system.xi == system.xi else "MISMATCH"
        if args.seed is not None:
            _slices(out, args.seed, s, system, bundle)
        return

    b = scene.bundle
    inv = inverse_transform(b, tol, grid)
    fwd = transform_nontransversal(inv.support, inv.system, tol, grid)
    out["inverse.wit_index"] = inv.wit_index
    out["forward.wit_index"] = fwd.wit_index
    out["zeta"] = "exact" if fwd.zeta == b.zeta else "MISMATCH"
    out["P"] = _equality("P", fwd.gamma_tilde, b.gamma_tilde, tol, grid, warnings)
    out["Q"] = _equality("Q", fwd.varsigma, b.varsigma, tol, grid, warnings, _angle_drift)
    out["beta"] = _equality("beta", fwd.fibre_turns, b.fibre_turns, tol, grid, warnings)
    out["alpha"] = _alpha_comparison(
        fwd.alpha, b.alpha, b.varsigma, inv.support.chi, tol, grid, warnings
    )
    if args.seed is not None:
        _slices(out, args.seed, inv.support, inv.system, fwd)


def _cmd_curvature(scene: Scene, args, out: dict, warnings: list) -> None:
    tol, grid = args.tol, args.grid
    if scene.kind in ("skyscraper", "subtorus"):
        raise ConditionError(
            "curvature",
            message=(
                "the curvature command needs a section, relative or bundle "
                f"scene; a {scene.kind} scene has no dual fibre data"
            ),
        )
    if scene.kind == "bundle":
        _put_dual_input(out, scene.bundle)
        alpha, turns = scene.bundle.alpha, scene.bundle.fibre_turns
    else:
        # A section's curvature is read off epsilon without the transform's
        # preconditions, so a non-Lagrangian graph still reports its F02.
        _put_fibred_input(out, scene)
        alpha = scene.system.alpha
        if scene.kind == "section":
            turns = tuple(-e for e in scene.support.chi)
        else:
            turns = transform_nontransversal(scene.support, scene.system, tol, grid).fibre_turns
    out["fibre_turns"] = _text(turns)
    _put_hodge(out, alpha, turns, tol, grid, warnings)


_BUILDERS = {
    "transform": _cmd_transform,
    "check": _cmd_check,
    "roundtrip": _cmd_roundtrip,
    "curvature": _cmd_curvature,
}


# ------------------------------------------------------------------ driver


def _command_report(scene: Scene, args) -> dict:
    out = {"command": args.command, "kind": scene.kind, "torus.dim": scene.torus.dim}
    warnings: list[str] = []
    _BUILDERS[args.command](scene, args, out, warnings)
    out["warnings"] = warnings
    return out


def _render(report: dict, fmt: str) -> str:
    """The report as JSON, or as key: value lines; a failed scene's report holds only its error."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = []
    for key, value in report.items():
        if key == "error":
            lines.append(value)
        elif key == "warnings":
            lines.extend([f"warning: {w}" for w in value] or ["warnings: none"])
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _run(args) -> tuple[str, int]:
    path = Path(args.scene)
    if not path.is_dir():
        return _render(_command_report(load_scene(path), args), args.format), 0

    files = sorted(path.glob("*.scene"))
    if not files:
        raise ValueError(f"no .scene files in {path}")
    code = 0
    reports = {}
    for f in files:
        try:
            reports[f.name] = _command_report(load_scene(f), args)
        except ConditionError as exc:
            reports[f.name] = {"error": f"precondition failed [{exc.condition}]: {exc}"}
            code = max(code, 2)
        except (ValueError, OSError) as exc:
            reports[f.name] = {"error": str(exc)}
            code = max(code, 1)
    if args.format == "json":
        return _render(reports, "json"), code
    return "\n".join(f"== {name} ==\n" + _render(report, "text") for name, report in reports.items()), code


def _grid_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _tolerance(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return x


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusfm",
        description="Exact transforms of U(1) local systems on real tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "transform": "transform the scene's input to its dual data",
        "check": "report the condition verdicts for the scene's input",
        "roundtrip": "transform forward then back and compare exactly",
        "curvature": "Hodge components of the dual-side curvature",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("scene", help="scene file, or a directory of .scene files")
        sp.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report rendering (default text)",
        )
        sp.add_argument(
            "--tol", type=_tolerance, default=1e-9,
            help="numerical tolerance for zero tests (default 1e-9)",
        )
        sp.add_argument(
            "--grid", type=_grid_count, default=17,
            help="total number of sample points for numerical zero tests (default 17)",
        )
        sp.add_argument(
            "--seed", type=int, default=None,
            help="roundtrip only: seed for the fibre slice spot checks",
        )
        sp.add_argument(
            "--output", default=None,
            help="write the report to this file instead of stdout",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rendered, code = _run(args)
    except ConditionError as exc:
        print(f"precondition failed [{exc.condition}]: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
