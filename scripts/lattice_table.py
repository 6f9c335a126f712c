"""Time the absolute round trip on random integer systems at g = 8, 16 and 32.

For each g the script draws REPEATS systems of g/2 equations from
random.Random(f"{seed}:{g}"): integer entries in [-3, 3], offsets and
holonomy phases n/d with n in [-5, 5] and d in 1..5.  Systems that are not
of full row rank are drawn again.  One timed call canonicalises the
system with `subtorus_from_equations` and applies `transform` twice, the
path of the `lattice` benchmark's absolute round trip.  Each row prints g,
the codimension and the median and quartiles of the call's wall time, so
the rows show how the round trip scales with g.

    PYTHONPATH=src python scripts/lattice_table.py --seed 0
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from torusfm import SubtorusLocalSystem, Torus, subtorus_from_equations, transform

DIMENSIONS = (8, 16, 32)
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


def main(argv=None):
    ap = argparse.ArgumentParser(description="absolute round-trip times by torus dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"seed: {args.seed}")
    print(f"{'g':>3} {'codim':>5} {'median_ms':>10} {'q1_ms':>8} {'q3_ms':>8}")
    for g in DIMENSIONS:
        rng = random.Random(f"{args.seed}:{g}")
        torus = Torus(g)
        ms = [1e3 * timed_round_trip(rng, torus, g // 2) for _ in range(REPEATS)]
        q1, median, q3 = statistics.quantiles(ms, n=4)
        print(f"{g:>3} {g // 2:>5} {median:>10.3f} {q1:>8.3f} {q3:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
