"""Operations and workloads shared by the three workload modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One timed call sequence into the library, with its independent check.

    `call` returns the library's outputs; `check` returns None when they are
    right and a reason otherwise; `verdicts` counts the (proven, numerical)
    verdicts among the outputs.
    """

    kind: str
    g: int
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    verdicts: Callable[[Any], tuple]


@dataclass
class Workload:
    ops: list
    cycle: bool
    top_g: int
    tail_percentile: float
    corrupt: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    cleanup: Callable[[], None] = lambda: None
