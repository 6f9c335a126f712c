"""Time the absolute round trip at g = 8 to 128 and fibre slices at g = 8 to 64.

For each g the script draws REPEATS systems of g/2 equations from
random.Random(f"{seed}:{g}"): integer entries in [-3, 3], offsets and
holonomy phases n/d with n in [-5, 5] and d in 1..5.  Systems that are not
of full row rank are drawn again.  One timed call canonicalises the
system with `subtorus_from_equations` and applies `transform` twice, the
path of the `lattice` benchmark's absolute round trip.  Each row prints
the kind (round, point, slice, reslice or reslice-poly), g, the
codimension and the median and quartiles of the call's wall time, so the
rows show how each path scales with g.  The round rows at g = 96 and 128
time one call each, and print that time as the median and both quartiles.

Each point row does the same with square systems of g equations drawn
from random.Random(f"{seed}:point:{g}"), so the subtorus is a point whose
offset has a denominator up to |det A|; the rows stop at g = 32.

The slice rows time one `fibre_system` call, the slice path of the
benchmark's `lattice` workload, on fibred supports with k = g/2 free base
coordinates drawn from random.Random(f"{seed}:slice:{g}"): constant slopes
n/d with n in [-3, 3] and d in 1..3, integer-linear offsets
c + sum b_l x_l with b_l in [-3, 3], c and the holonomy phases n/d with n
in [-5, 5] and d in 1..5, and base coordinates n/d with n in [-6, 6] and
d in 1..7.  A slice does not check the Lagrangian condition, so the
supports need not satisfy it.  Each slice row times a new support at a new
base point, so it includes compiling the slope and offset rows to int tables
and the fibre lattice, which the support keeps when its slopes are rational
constants.  Each reslice row draws one support the same way from
random.Random(f"{seed}:reslice:{g}"), slices it once untimed, and then
times it at new base points: only the offset is evaluated there.  Each
reslice-poly row does the same from random.Random(f"{seed}:reslice-poly:{g}")
with polynomial slopes n/d + c x_l + e x_m^2, c in [1, 3] with either sign,
e in [-2, 2] and l, m free base coordinates, so the slopes vary: the kept
tables are evaluated at each new point and the fibre lattice is recomputed.

    PYTHONPATH=src python scripts/lattice_table.py --seed 0
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from torusfm import (
    LocalSystemData,
    RelativeSupport,
    SubtorusLocalSystem,
    Torus,
    fibre_system,
    parse,
    subtorus_from_equations,
    transform,
)

DIMENSIONS = (8, 16, 32, 48, 64)
# Round trips timed once each, past DIMENSIONS.
ONE_CALL = (96, 128)
KIND_DIMENSIONS = {"round": DIMENSIONS + ONE_CALL, "point": (8, 16, 32)}
REPEATS = 21


def random_rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def timed_round_trip(rng, torus, codim):
    g = torus.dim
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(codim)]
        offsets = [random_rational(rng) for _ in range(codim)]
        holonomy = [random_rational(rng) for _ in range(g - codim)]
        start = time.perf_counter()
        try:
            s = subtorus_from_equations(torus, rows, offsets)
        except ValueError:  # dependent rows: draw again
            continue
        once = transform(SubtorusLocalSystem(s, holonomy))
        transform(once.system)
        return time.perf_counter() - start


def random_slope(rng, k, polynomial):
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if not polynomial:
        return c
    return parse(f"{c} + {rng.choice((-1, 1)) * rng.randint(1, 3)}*x{rng.randint(1, k)}"
                 f" + {rng.randint(-2, 2)}*x{rng.randint(1, k)}^2")


def random_slice(rng, g, polynomial=False):
    """A support with k = g/2, constant or polynomial slopes and integer-linear offsets, and a system on it."""
    k = g // 2
    slopes = [[random_slope(rng, k, polynomial) for _ in range(g - k)] for _ in range(k)]
    offsets = [
        parse(" + ".join([str(random_rational(rng))] + [f"{rng.randint(-3, 3)}*x{l + 1}" for l in range(k)]))
        for _ in range(k)
    ]
    support = RelativeSupport(g, k, [0] * (g - k), slopes, offsets)
    return support, LocalSystemData([0] * k, [random_rational(rng) for _ in range(g - k)])


def timed_slice(rng, support, system):
    base = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(support.k)]
    start = time.perf_counter()
    fibre_system(support, system, base)
    return time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description="absolute round-trip and fibre-slice times by torus dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"seed: {args.seed}")
    print(f"{'kind':>12} {'g':>3} {'codim':>5} {'median_ms':>10} {'q1_ms':>8} {'q3_ms':>8}")
    for kind in ("round", "point", "slice", "reslice", "reslice-poly"):
        for g in KIND_DIMENSIONS.get(kind, DIMENSIONS):
            rng = random.Random(f"{args.seed}:{g}" if kind == "round" else f"{args.seed}:{kind}:{g}")
            repeats = 1 if g in ONE_CALL else REPEATS
            codim = g if kind == "point" else g // 2
            if kind in ("round", "point"):
                torus = Torus(g)
                ms = [1e3 * timed_round_trip(rng, torus, codim) for _ in range(repeats)]
            elif kind == "slice":
                ms = [1e3 * timed_slice(rng, *random_slice(rng, g)) for _ in range(repeats)]
            else:
                support, system = random_slice(rng, g, polynomial=kind == "reslice-poly")
                timed_slice(rng, support, system)
                ms = [1e3 * timed_slice(rng, support, system) for _ in range(repeats)]
            q1, median, q3 = statistics.quantiles(ms, n=4) if repeats > 1 else ms * 3
            print(f"{kind:>12} {g:>3} {codim:>5} {median:>10.3f} {q1:>8.3f} {q3:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
