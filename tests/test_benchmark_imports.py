"""Every library name the benchmark harness binds or traces must exist.

`perfbench/run.py` looks its names up in `LIBRARY` when it loads the
package, and `perfbench/tracing.py` reads its per-layer metrics at the
boundaries in `EXPECTED`.  Reading both here, without running the
harness, turns a renamed or deleted function into a test failure instead
of an empty benchmark run or a metric reported missing.  The test oracles,
for their part, must import nothing from the library.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN = PERFBENCH / "run.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
TRACING = PERFBENCH / "tracing.py"


def _constant(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no {name}")


def benchmark_library() -> dict:
    return _constant(RUN, "LIBRARY")


def test_every_name_the_benchmark_binds_resolves():
    library = benchmark_library()
    assert "fm_relative" in library
    missing = [
        f"torusfm.{module}.{name}"
        for module, names in library.items()
        for name in names
        if not hasattr(importlib.import_module(f"torusfm.{module}"), name)
    ]
    assert missing == []


def test_every_boundary_the_tracer_expects_resolves():
    expected = _constant(TRACING, "EXPECTED")
    assert "exact_linalg.RatMatrix.rank" in expected
    missing = []
    for key in expected:
        module, *path = key.split(".")
        obj = importlib.import_module(f"torusfm.{module}")
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(key)
    assert missing == []


def test_the_oracles_import_nothing_from_the_library():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "math" in imported
    assert [name for name in imported if name.split(".")[0] in ("torusfm", "")] == []
