"""Benchmark of torusfm: three closed-loop workloads, each one client in one thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run imports `torusfm` from `src/`, builds its inputs from the seed,
warms up, and then times calls into the public library for `--seconds`
seconds of operation time.  Every output is checked by the benchmark's own
arithmetic outside the timed interval; an operation fails on a wrong
output, an unexpected exception or exit code, or a missed deadline.  With
`--trace 1` the same operations run again with layer spans recorded, and
the per-layer metrics replace the end-to-end ones.

A report with the machine, the generator parameters, quartiles and every
failed operation is printed first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("lattice", "symbolic", "cli")
SETUP_REPEATS = 5

# Shared machines change speed by up to 1.8x for seconds at a time
# (contention from neighbours, seen in CPU time as well as wall time).
# Every timed interval is therefore bracketed by a fixed probe of integer
# and Fraction work, and reported times are rescaled to a machine on which
# the probe takes REFERENCE_PROBE_S.  Raw times are in the report too.
REFERENCE_PROBE_S = 250e-6
# Per-operation deadlines, at least 20 times the slowest operation seen.
DEADLINE_S = {"lattice": 1.0, "symbolic": 10.0, "cli": 2.0}

# (metric, unit) in the order they are printed.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("top_g_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("correct_share", "ratio"),
    ("proven_share", "ratio"),
)

# Names the workloads call, bound into one namespace the tracer can patch.
LIBRARY = {
    "exact_linalg": ("RatMatrix",),
    "torus": ("Torus", "subtorus_from_equations", "is_normal_to"),
    "fm_absolute": ("SubtorusLocalSystem", "transform"),
    "expr": ("parse", "to_str", "is_zero", "Verdict"),
    "fm_relative": (
        "RelativeSupport", "LocalSystemData", "SectionSupport", "ConditionReport",
        "check_C1_lagrangian", "check_C2_C3", "transform_nontransversal",
        "inverse_transform", "dual_input_from_bundle", "curvature_hodge",
        "check_F02_iff_lagrangian", "check_flat", "fibre_system", "fibre_of_transform",
    ),
    "scene": (),
    "cli": ("main",),
}


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


def load_library():
    """Import torusfm from this checkout afresh.

    Returns the namespace of names the workloads call, the layer modules and
    the package.
    """
    for name in [n for n in sys.modules if n == "torusfm" or n.startswith("torusfm.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("torusfm")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"torusfm was imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"torusfm.{name}") for name in LIBRARY}
    lib = types.SimpleNamespace()
    for mod, names in LIBRARY.items():
        for name in names:
            setattr(lib, name, getattr(modules[mod], name))
    return lib, modules, package


def workload_module(name: str):
    return importlib.import_module({"cli": "cli_work"}.get(name, name))


# -------------------------------------------------------------------- timing


_PROBE_MATRIX = [[(3 * i + 5 * j) % 11 - 5 + (i == j) * 7 + 10**30 * ((i * j) % 3) for j in range(7)]
                 for i in range(7)]


def probe() -> float:
    """Seconds taken by a fixed mix of big-integer, Fraction and container work."""
    t0 = time.perf_counter()
    for _ in range(2):
        m = [list(row) for row in _PROBE_MATRIX]
        prev = 1
        for k in range(6):
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(i % 7 + 1, i % 13 + 1)
    table = {}
    for i in range(300):
        table[(i, i % 7)] = [i] * 4
    sorted(table.items())
    return time.perf_counter() - t0


def scales(probes):
    """Speed factor of each interval between consecutive probes."""
    return [2 * REFERENCE_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]


def timed_call(op, deadline: float):
    """Run op.call under an in-process deadline; returns (output, seconds, error)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = op.call()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, elapsed, None
    except Deadline:
        return None, time.perf_counter() - t0, f"missed the {deadline:g} s deadline"
    except Exception as exc:  # an operation must not end the run
        return None, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"


def check_output(op, out):
    """(error, proven, numerical) for one output, never raising."""
    try:
        err = op.check(out)
        if err is not None:
            return err, 0, 0
        proven, numerical = op.verdicts(out)
        return None, proven, numerical
    except Exception as exc:  # a checker crash is a failed operation
        return f"check raised {type(exc).__name__}: {exc}", 0, 0


def setup(name: str, seed: int, seconds: float):
    """Import, generate, and warm up on the smallest op of each kind.

    Warm-up and self-check take their operations from the end of the list,
    which a run without cycling does not reach, so no timed input repeats.
    Returns (namespace, modules, package, workload, seconds spent).
    """
    t0 = time.perf_counter()
    lib, modules, package = load_library()
    wl = workload_module(name).build(lib, random.Random(seed), seconds)
    warm = {}
    for op in reversed(wl.ops):
        if op.g < warm.get(op.kind, (op.g + 1,))[0]:
            warm[op.kind] = (op.g, op)
    for _, op in warm.values():
        op.call()
    return lib, modules, package, wl, time.perf_counter() - t0


def self_check(wl) -> dict:
    """Each kind's last output must pass its check and a corrupted copy must fail."""
    results = {}
    for op in reversed(wl.ops):
        if op.kind in results:
            continue
        out = op.call()
        good = check_output(op, out)[0]
        corrupt = wl.corrupt.get(op.kind)
        bad = check_output(op, corrupt(out))[0] if corrupt else None
        results[op.kind] = {
            "true_output_passes": good is None,
            "wrong_output_fails": bad is not None,
            "reason": good or bad,
        }
    return results


def run_ops(wl, seconds: float, deadline: float):
    """Closed loop over the workload's operations for `seconds` of operation time.

    Returns one record per operation: (index, kind, g, rescaled seconds,
    error, proven verdicts, numerical verdicts, raw seconds).
    """
    raw = []
    probes = [probe()]
    spent = 0.0
    i = 0
    while spent < seconds and (wl.cycle or i < len(wl.ops)):
        index = i % len(wl.ops)
        op = wl.ops[index]
        out, elapsed, err = timed_call(op, deadline)
        probes.append(probe())
        spent += elapsed
        proven = numerical = 0
        if err is None:
            err, proven, numerical = check_output(op, out)
        raw.append((index, op.kind, op.g, elapsed, err, proven, numerical))
        i += 1
    return [r[:3] + (r[3] * f,) + r[4:] + (r[3],) for r, f in zip(raw, scales(probes))], probes


# ------------------------------------------------------------------- metrics


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return [v, v, v]
    return statistics.quantiles(values, n=4)


def percentile(sorted_values, p: float):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_values)
    rank = max(1, min(n, -(-n * p // 100)))
    value = sorted_values[int(rank) - 1]
    beyond = sum(1 for v in sorted_values if v > value)
    return value, beyond


def end_to_end(records, probes, setups, raw_setups, wl):
    attempted = len(records)
    failed = [r for r in records if r[4] is not None]
    lat = sorted(r[3] for r in records)
    total = sum(lat)
    completed = attempted - len(failed)
    tail, beyond = percentile(lat, wl.tail_percentile)
    top = [r[3] for r in records if r[2] == wl.top_g]
    proven = sum(r[5] for r in records)
    numerical = sum(r[6] for r in records)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / total,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "top_g_p50_ms": statistics.median(top) * 1e3 if top else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_share": completed / attempted,
        "proven_share": proven / (proven + numerical) if proven + numerical else 1.0,
    }
    windows = [records[i::10] for i in range(10)] if attempted >= 10 else [records]
    rates = [len(w) / sum(r[3] for r in w) for w in windows]
    raw_lat = [r[7] for r in records]
    detail = {
        "timed_s": sum(raw_lat),
        "rescaled_timed_s": total,
        "probe": {"reference_s": REFERENCE_PROBE_S, "samples": len(probes),
                  "quartiles_s": quartiles(probes)},
        "raw": {"setup_s": statistics.median(raw_setups), "ops_per_s": completed / sum(raw_lat),
                "latency_p50_ms": statistics.median(raw_lat) * 1e3},
        "setup_s": {"runs": setups, "raw_runs": raw_setups, "quartiles": quartiles(setups)},
        "ops_per_s": {"interleaved_windows": len(rates), "quartiles": quartiles(rates)},
        "latency_ms": {"samples": attempted, "quartiles": [q * 1e3 for q in quartiles(lat)]},
        "latency_tail": {"percentile": wl.tail_percentile, "samples_beyond": beyond,
                         "at_least_ten_beyond": beyond >= 10},
        "top_g": {"g": wl.top_g, "samples": len(top),
                  "quartiles_ms": [q * 1e3 for q in quartiles(top)] if top else []},
        "verdicts": {"proven": proven, "numerical": numerical},
        "by_kind": _by_kind(records),
        "failed_operations": [
            {"index": r[0], "kind": r[1], "g": r[2], "raw_ms": r[7] * 1e3, "reason": r[4]}
            for r in failed
        ],
    }
    return values, detail, attempted, len(failed)


def _by_kind(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r[1], []).append(r)
    out = {}
    for kind, rs in sorted(kinds.items()):
        lat = [r[3] * 1e3 for r in rs]
        out[kind] = {
            "attempted": len(rs),
            "failed": sum(1 for r in rs if r[4] is not None),
            "latency_ms_quartiles": quartiles(lat),
            "g_values": sorted({r[2] for r in rs}),
            "numerical_verdicts": sum(r[6] for r in rs),
        }
    return out


# ------------------------------------------------------------------- tracing


DOMINANT = {
    "lattice": ("together", ("exact_linalg", "torus"), 0.5),
    "symbolic": ("together", ("expr", "fm_relative"), 0.5),
    "cli": ("each", ("scene", "cli"), 0.1),
}


def traced_pass(name, lib, modules, package, wl, records, deadline):
    """Re-run the operations of the untraced pass with layer spans."""
    import tracing

    callers = [package, lib] + [m for n, m in sys.modules.items() if n.startswith("torusfm.")]
    tracer = tracing.Tracer(modules, callers)
    untraced = sum(r[3] for r in records)
    elapsed = []
    probes = [probe()]
    try:
        for index, *_ in records:
            op = wl.ops[index]
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline * 4)
                try:
                    elapsed.append(tracer.run(op.call)[1])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                elapsed.append(deadline * 4)
            except Exception:  # already recorded as failed in the untraced pass
                elapsed.append(0.0)
            probes.append(probe())
    finally:
        tracer.uninstall()
    total = sum(elapsed)
    rescaled = sum(e * f for e, f in zip(elapsed, scales(probes)))
    overhead = rescaled / untraced - 1 if untraced else 0.0
    metrics = tracer.metrics(total, overhead)
    mode, layers, floor = DOMINANT[name]
    shares = {layer: metrics[f"{layer}.share"]["value"] for layer in tracing.LAYERS}
    if mode == "together":
        holds = sum(shares[l] for l in layers) >= floor
        claim = f"{' and '.join(layers)} together take at least {floor:.0%} of traced time"
    else:
        holds = all(shares[l] >= floor for l in layers)
        claim = f"{' and '.join(layers)} each take at least {floor:.0%} of traced time"
    links = sorted(tracer.links.items(), key=lambda kv: -kv[1])[:25]
    report = {
        "traced_s": total,
        "rescaled_traced_s": rescaled,
        "rescaled_untraced_s": untraced,
        "overhead_share": overhead,
        "layer_self_s": {l: tracer.layer_self(l) for l in tracing.LAYERS},
        "layer_share": shares,
        "unattributed_s": tracer.root_self,
        "hook_s": tracer.hook_s,
        "predicted_dominance": {"claim": claim, "holds": holds},
        "top_parent_links": [{"parent": p, "child": c, "calls": n} for (p, c), n in links],
        "missing_boundaries": tracer.missing(),
        "never_called_boundaries": tracer.never_called(),
    }
    return metrics, report


# ---------------------------------------------------------------------- main


def machine() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def revision() -> dict:
    """Commit when the checkout is a git tree, and a digest of src/ always."""
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_one(args) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    deadline = DEADLINE_S[args.workload]
    setups, raw_setups = [], []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.cleanup()
        before = probe()
        lib, modules, package, wl, spent = setup(args.workload, args.seed, args.seconds)
        raw_setups.append(spent)
        setups.append(spent * scales([before, probe()])[0])
    try:
        checks = self_check(wl)
        # The generated inputs are long-lived; keep the collector from
        # re-scanning them during timed calls.
        gc.collect()
        gc.freeze()
        records, probes = run_ops(wl, args.seconds, deadline)
        values, detail, attempted, failed = end_to_end(records, probes, setups, raw_setups, wl)
        self_ok = all(c["true_output_passes"] and c["wrong_output_fails"] for c in checks.values())
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed, one client, one thread",
            "deadline_s": deadline,
            "revision": revision(),
            "machine": machine(),
            "generator": wl.params,
            "self_check": checks,
            "runs": {"setups": SETUP_REPEATS, "operations": attempted, "distinct_inputs": len(wl.ops),
                     "cycled": wl.cycle, "inputs_exhausted": not wl.cycle and attempted == len(wl.ops)},
            "end_to_end": values,
            "detail": detail,
        }
        if args.trace:
            metrics, report["trace_report"] = traced_pass(
                args.workload, lib, modules, package, wl, records, deadline)
        else:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        wl.cleanup()
    print(json.dumps(report, indent=1, default=str))
    wrong = [f for f in detail["failed_operations"] if not f["reason"].startswith("missed the")]
    print(json.dumps({
        "correct": self_ok and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each end-to-end metric by name and unit."""
    rows = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in rows.items():
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>14.6g} {entry['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "torusfm" / "__init__.py").is_file():
        print(f"error: no torusfm sources under {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
