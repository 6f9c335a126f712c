"""Time the absolute round trip and fibre slices at g = 8, 16, 32, 48 and 64.

For each g the script draws REPEATS systems of g/2 equations from
random.Random(f"{seed}:{g}"): integer entries in [-3, 3], offsets and
holonomy phases n/d with n in [-5, 5] and d in 1..5.  Systems that are not
of full row rank are drawn again.  One timed call canonicalises the
system with `subtorus_from_equations` and applies `transform` twice, the
path of the `lattice` benchmark's absolute round trip.  Each row prints
the kind (round, slice or reslice), g, the codimension and the median and
quartiles of the call's wall time, so the rows show how each path scales
with g.

The slice rows time one `fibre_system` call, the slice path of the
benchmark's `lattice` workload, on fibred supports with k = g/2 free base
coordinates drawn from random.Random(f"{seed}:slice:{g}"): constant slopes
n/d with n in [-3, 3] and d in 1..3, integer-linear offsets
c + sum b_l x_l with b_l in [-3, 3], c and the holonomy phases n/d with n
in [-5, 5] and d in 1..5, and base coordinates n/d with n in [-6, 6] and
d in 1..7.  A slice does not check the Lagrangian condition, so the
supports need not satisfy it.  Each slice row times a new support at a new
base point, so it includes the fibre lattice, which the support keeps when
its slopes are rational constants.  Each reslice row draws one support the
same way from random.Random(f"{seed}:reslice:{g}"), slices it once untimed,
and then times it at new base points: only the offset is computed there.

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


def random_slice(rng, g):
    """A support with k = g/2, constant slopes and integer-linear offsets, and a system on it."""
    k = g // 2
    slopes = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g - k)] for _ in range(k)]
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
    print(f"{'kind':>6} {'g':>3} {'codim':>5} {'median_ms':>10} {'q1_ms':>8} {'q3_ms':>8}")
    for kind in ("round", "slice", "reslice"):
        for g in DIMENSIONS:
            rng = random.Random(f"{args.seed}:{g}" if kind == "round" else f"{args.seed}:{kind}:{g}")
            if kind == "round":
                torus = Torus(g)
                ms = [1e3 * timed_round_trip(rng, torus, g // 2) for _ in range(REPEATS)]
            elif kind == "slice":
                ms = [1e3 * timed_slice(rng, *random_slice(rng, g)) for _ in range(REPEATS)]
            else:
                support, system = random_slice(rng, g)
                timed_slice(rng, support, system)
                ms = [1e3 * timed_slice(rng, support, system) for _ in range(REPEATS)]
            q1, median, q3 = statistics.quantiles(ms, n=4)
            print(f"{kind:>6} {g:>3} {g // 2:>5} {median:>10.3f} {q1:>8.3f} {q3:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
