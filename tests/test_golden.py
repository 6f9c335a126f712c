"""Scene reports compared byte for byte with committed golden files.

Every scene in scenes/ goes through the four commands in both formats, and
through `roundtrip --seed 7`.  For each case tests/golden/ holds the
standard output (<case>.out), the standard error when there is any
(<case>.err), and the exit code (exit_codes.json).  After a report change
that CHANGES.md declares, rewrite the files from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from torusfm.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("transform", "check", "roundtrip", "curvature")
FORMATS = ("text", "json")


def cases():
    """(case name, argv) for every scene, command and format."""
    out = []
    for scene in sorted(SCENES.glob("*.scene")):
        for fmt in FORMATS:
            for command in COMMANDS:
                argv = [command, str(scene), "--format", fmt]
                out.append((f"{scene.stem}.{command}.{fmt}", argv))
            argv = ["roundtrip", str(scene), "--format", fmt, "--seed", "7"]
            out.append((f"{scene.stem}.roundtrip-seed7.{fmt}", argv))
    return out


def run(argv):
    """(exit code, stdout bytes, stderr bytes) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in cases():
        code, stdout, stderr = run(argv)
        codes[name] = code
        (GOLDEN / f"{name}.out").write_bytes(stdout)
        if stderr:
            (GOLDEN / f"{name}.err").write_bytes(stderr)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


def test_every_case_has_a_golden_exit_code():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(name for name, _ in cases())


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_matches_golden(name, argv):
    code, stdout, stderr = run(argv)
    err_file = GOLDEN / f"{name}.err"
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert stderr == (err_file.read_bytes() if err_file.exists() else b"")
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


if __name__ == "__main__":
    write_golden()
