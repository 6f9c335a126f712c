"""Every library name the benchmark harness binds must exist.

`perfbench/run.py` looks its names up in `LIBRARY` when it loads the
package.  Reading that mapping here, without running the harness, turns
a renamed or deleted function into a test failure instead of an empty
benchmark run.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def benchmark_library() -> dict:
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LIBRARY" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} defines no LIBRARY mapping")


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
