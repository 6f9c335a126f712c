"""Time the relative round trip at g = 12, 16, 24, 32, 48 and 64, with k = g/2.

For each g the script draws REPEATS constant holomorphic bundles from
random.Random(f"{seed}:{g}"): slopes P, dual fibre offsets Q, a connection
alpha and fibre turns beta, all constants n/d with n in [-3, 3] and d in
1..3, and base equations zeta = P x + c with c drawn the same way.  The
inverse transform of such a bundle is a support that is Lagrangian with
constant slopes by construction, together with a local system on it;
bundles whose inverse has no chart are drawn again.  One timed call runs
the round trip on that support and system: C1, C2/C3, the forward
transform and the inverse transform, the path of the `symbolic`
benchmark's round trips.  Every round trip is checked to return its input.
Each row prints g, k and the median and quartiles of the call's wall time,
so the rows show how the round trip scales with g.

    PYTHONPATH=src python scripts/roundtrip_table.py --seed 0
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from torusfm import (
    ConditionError,
    TransformedBundle,
    check_C1_lagrangian,
    check_C2_C3,
    inverse_transform,
    transform_nontransversal,
)
from torusfm.expr import num, var

DIMENSIONS = (12, 16, 24, 32, 48, 64)
REPEATS = 21


def constant(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def seeded_input(rng, g, k):
    """(support, system): the inverse of a seeded constant holomorphic bundle."""
    xs = [var(j) for j in range(1, k + 1)]
    while True:
        p = [[constant(rng) for _ in range(k)] for _ in range(g - k)]
        zeta = [sum((c * x for c, x in zip(row, xs)), num(constant(rng))) for row in p]
        q = [constant(rng) for _ in range(g - k)]
        bundle = TransformedBundle(
            g, k, zeta, p, q, [constant(rng) for _ in range(k)], [constant(rng) for _ in range(k)]
        )
        try:
            inv = inverse_transform(bundle)
        except ConditionError:  # no chart: draw again
            continue
        return inv.support, inv.system


def timed_round_trip(support, system):
    start = time.perf_counter()
    c1 = check_C1_lagrangian(support)
    c2, c3 = check_C2_C3(support)
    back = inverse_transform(transform_nontransversal(support, system))
    elapsed = time.perf_counter() - start
    assert c1.holds and c2.holds and c3.holds, "a condition fails on a constructed input"
    assert back.support == support and back.system == system, "the round trip changed its input"
    return elapsed


def main(argv=None):
    ap = argparse.ArgumentParser(description="relative round-trip times by torus dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"seed: {args.seed}")
    print(f"{'g':>3} {'k':>3} {'median_ms':>10} {'q1_ms':>8} {'q3_ms':>8}")
    for g in DIMENSIONS:
        rng = random.Random(f"{args.seed}:{g}")
        k = g // 2
        ms = [1e3 * timed_round_trip(*seeded_input(rng, g, k)) for _ in range(REPEATS)]
        q1, median, q3 = statistics.quantiles(ms, n=4)
        print(f"{g:>3} {k:>3} {median:>10.3f} {q1:>8.3f} {q3:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
