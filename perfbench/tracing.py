"""Layer spans for the traced run.

The tracer wraps every public function of a layer module where another
module, or the benchmark, has bound it by name, and the methods written in
the source of the layer's public classes.  Calls inside a module through
its own globals are not wrapped, so recursion inside `expr` stays
untraced.  The exceptions are the algorithm entry points in OWN_MODULE:
the per-layer counts are about them, and they mostly run on behalf of
other functions of their own module.  Each span records its duration and
the time of its traced children; self time is the difference.  The
benchmark's own operation is the root span, so its self time is the part
no layer accounts for.
"""

from __future__ import annotations

import functools
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exact_linalg", "torus", "fm_absolute", "expr", "fm_relative", "scene", "cli")

# Boundaries the per-layer metrics read.  One that no longer exists is
# reported as missing rather than read as zero.
EXPECTED = (
    "exact_linalg.snf", "exact_linalg.hnf", "exact_linalg.saturate",
    "exact_linalg.kernel_basis", "exact_linalg.RatMatrix.rank",
    "exact_linalg.RatMatrix.inverse",
    "torus.AffineSubtorus.__post_init__", "torus.subtorus_from_equations",
    "torus.Torus.dual",
    "fm_absolute.transform",
    "expr.is_zero", "expr.diff", "expr.eval_at", "expr.parse", "expr.to_str",
    "fm_relative.check_C1_lagrangian", "fm_relative.check_C2_C3",
    "fm_relative.transform_nontransversal", "fm_relative.inverse_transform",
    "fm_relative.curvature_hodge", "fm_relative.fibre_system",
    "fm_relative.fibre_of_transform",
    "scene.parse_scene", "scene.load_scene",
    "cli.main",
)

_WRAPPED_DUNDERS = ("__init__", "__post_init__", "__matmul__")

# Functions also traced when their own module calls them.  None recurses.
OWN_MODULE = {
    "exact_linalg": ("snf", "hnf", "kernel_basis", "saturate"),
    "scene": ("parse_scene",),
}


class Tracer:
    def __init__(self, modules: dict, callers: list):
        self.active = False
        self.stack: list = []
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.links: Counter = Counter()
        self.root_self = 0.0
        self.hook_s = 0.0
        self.snf_max_bits = 0
        self.saturate_noop = 0
        self.dual_repeat = 0
        self.is_zero_numerical = 0
        self._seen_tori: set = set()
        self._patched: list = []
        self.wrapped: list = []
        self._install(modules, callers)

    # -------------------------------------------------------------- install

    def _install(self, modules: dict, callers: list) -> None:
        hooks = {
            "exact_linalg.snf": self._snf_hook,
            "exact_linalg.saturate": self._saturate_hook,
            "torus.Torus.dual": self._dual_hook,
            "expr.is_zero": self._is_zero_hook,
        }
        targets = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    targets[id(obj)] = (mod, self._wrap(key, obj, hooks.get(key)))
                    self.wrapped.append(key)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, mod, name, obj, hooks)
        own = {id(getattr(modules[layer], name)) for layer, names in OWN_MODULE.items()
               for name in names if hasattr(modules[layer], name)}
        for ns in callers:
            space = vars(ns)
            for attr, val in list(space.items()):
                hit = targets.get(id(val))
                if hit is None or (hit[0] is ns and id(val) not in own):
                    continue
                self._patched.append((ns, attr, val))
                setattr(ns, attr, hit[1])

    def _wrap_class(self, layer, mod, cname, cls, hooks) -> None:
        for name, val in list(vars(cls).items()):
            if name.startswith("_") and name not in _WRAPPED_DUNDERS:
                continue
            static = isinstance(val, staticmethod)
            fn = val.__func__ if static else val
            if not isinstance(fn, types.FunctionType) or fn.__code__.co_filename != mod.__file__:
                continue
            key = f"{layer}.{cname}.{name}"
            wrapper = self._wrap(key, fn, hooks.get(key))
            self._patched.append((cls, name, val))
            setattr(cls, name, staticmethod(wrapper) if static else wrapper)
            self.wrapped.append(key)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def _wrap(self, key, fn, hook):
        tracer = self
        stats = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                parent[1] += elapsed
                tracer.links[(parent[0], key)] += 1
            if hook is not None:
                h0 = perf_counter()
                hook(args, result)
                spent = perf_counter() - h0
                parent[1] += spent
                tracer.hook_s += spent
            return result

        return wrapper

    # ---------------------------------------------------------------- hooks

    def _snf_hook(self, args, result) -> None:
        bits = max(
            (abs(e).bit_length() for m in result[1:] for row in m.rows for e in row),
            default=0,
        )
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _saturate_hook(self, args, result) -> None:
        self.saturate_noop += result == args[0]

    def _dual_hook(self, args, result) -> None:
        torus = args[0]
        self.dual_repeat += torus in self._seen_tori
        self._seen_tori.add(torus)

    def _is_zero_hook(self, args, result) -> None:
        self.is_zero_numerical += not result.proven

    # ----------------------------------------------------------------- runs

    def run(self, fn):
        """Run one operation as a root span; returns (result, elapsed)."""
        frame = ["bench", 0.0]
        self.stack = [frame]
        self.active = True
        t0 = perf_counter()
        try:
            return fn(), perf_counter() - t0
        finally:
            elapsed = perf_counter() - t0
            self.active = False
            self.root_self += elapsed - frame[1]

    # -------------------------------------------------------------- results

    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.split(".")[0] == layer)

    def missing(self) -> list:
        return [k for k in EXPECTED if k not in self.wrapped]

    def never_called(self) -> list:
        return sorted(k for k in self.wrapped if self.calls(k) == 0)

    def metrics(self, total: float, overhead: float) -> dict:
        """Per-layer metrics; `total` is the traced time of all operations."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            own = self.layer_self(layer)
            put(f"{layer}.self_s", own, "s")
            put(f"{layer}.share", own / total if total else 0.0, "ratio")
        for fn in ("snf", "hnf", "saturate", "kernel_basis"):
            put(f"exact_linalg.{fn}.calls", self.calls(f"exact_linalg.{fn}"), "count")
        put("exact_linalg.rank.calls", self.calls("exact_linalg.RatMatrix.rank"), "count")
        put("exact_linalg.inverse.calls", self.calls("exact_linalg.RatMatrix.inverse"), "count")
        sat = self.calls("exact_linalg.saturate")
        put("exact_linalg.saturate.noop_share", self.saturate_noop / sat if sat else 0.0, "ratio")
        put("exact_linalg.snf.max_bits", self.snf_max_bits, "bits")
        put("torus.validate.calls", self.calls("torus.AffineSubtorus.__post_init__"), "count")
        put("torus.subtorus_from_equations.calls", self.calls("torus.subtorus_from_equations"), "count")
        dual = self.calls("torus.Torus.dual")
        put("torus.dual.calls", dual, "count")
        put("torus.dual.repeat_share", self.dual_repeat / dual if dual else 0.0, "ratio")
        put("fm_absolute.transform.calls", self.calls("fm_absolute.transform"), "count")
        for fn in ("is_zero", "diff", "eval_at", "parse", "to_str"):
            put(f"expr.{fn}.calls", self.calls(f"expr.{fn}"), "count")
        zero = self.calls("expr.is_zero")
        put("expr.is_zero.numerical_share", self.is_zero_numerical / zero if zero else 0.0, "ratio")
        for fn in ("check_C1_lagrangian", "check_C2_C3", "transform_nontransversal",
                   "inverse_transform", "curvature_hodge", "fibre_system", "fibre_of_transform"):
            put(f"fm_relative.{fn}.s", self.stats[f"fm_relative.{fn}"][1], "s")
        c2 = self.calls("fm_relative.check_C2_C3")
        child = self.links[("fm_relative.check_C2_C3", "expr.is_zero")]
        put("fm_relative.check_C2_C3.is_zero_calls", child / c2 if c2 else 0.0, "count")
        put("scene.parse_scene.calls", self.calls("scene.parse_scene"), "count")
        put("scene.load_scene.calls", self.calls("scene.load_scene"), "count")
        put("unattributed.self_s", self.root_self, "s")
        put("unattributed.share", self.root_self / total if total else 0.0, "ratio")
        put("trace.overhead_share", overhead, "ratio")
        put("trace.hook_s", self.hook_s, "s")
        put("trace.missing", len(self.missing()), "count")
        put("trace.never_called", len(self.never_called()), "count")
        return out
