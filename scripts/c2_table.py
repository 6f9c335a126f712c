"""Time the constant fibre dimension check (C2) on dense and on bidiagonal slope matrices.

Dense rows: each k x m slope matrix comes from random.Random(f"{seed}:{k}x{m}"):
every entry is, with probability 1/2, an integer constant in [-3, 3], and
otherwise an integer-linear form c1*x1 + ... + ck*xk with each c_i in
[-2, 2].  The shapes are 4x4 to 8x8 and 5x12.  Such slopes have no
structure that keeps their minors small, so they show how C2 scales with
the fibre size.  Each dense row prints the wall time of one `check_C2_C3`
call.

Bidiagonal rows: the shape of the `symbolic` benchmark's C2 operations,
past the sizes it runs.  The k x k slopes are L*C, from
random.Random(f"{seed}:bidiagonal:{k}"): L is unit lower bidiagonal with
c*x_i below row i's one, c in {-2, -1, 1, 2}, and C is a full-rank constant
matrix with entries in {-2, -1, 1, 2}.  det(L*C) = det(C), so the rank
holds, and the elimination on constant pivots proves it.  The drop row
multiplies the last row by (x1 - 1/2), so the rank drops on x1 = 1/2.
k is 4, 6, 8, 12 and 16; each bidiagonal row prints the median wall time
of REPEATS calls on one support.

    PYTHONPATH=src python scripts/c2_table.py --seed 0
"""

import argparse
import random
import statistics
import sys
import time

from torusfm import RelativeSupport, check_C2_C3
from torusfm.exact_linalg import RatMatrix
from torusfm.expr import ZERO, num, parse, var

SHAPES = ((4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (5, 12))
BIDIAGONAL_K = (4, 6, 8, 12, 16)
REPEATS = 9


def random_entry(rng, k):
    if rng.random() < 0.5:
        return num(rng.randint(-3, 3))
    out = ZERO
    for i in range(1, k + 1):
        out = out + rng.randint(-2, 2) * var(i)
    return out


def random_slopes(seed, k, m):
    rng = random.Random(f"{seed}:{k}x{m}")
    return tuple(tuple(random_entry(rng, k) for _ in range(m)) for _ in range(k))


def bidiagonal_slopes(seed, k, drops):
    """L*C as above; with drops, the last row times (x1 - 1/2)."""
    rng = random.Random(f"{seed}:bidiagonal:{k}")
    while True:
        c = [[rng.choice((-2, -1, 1, 2)) for _ in range(k)] for _ in range(k)]
        if RatMatrix(c).rank() == k:
            break
    rows = [[num(e) for e in c[0]]]
    for i in range(1, k):
        lower = rng.choice((-2, -1, 1, 2)) * var(i)
        rows.append([num(c[i][j]) + lower * c[i - 1][j] for j in range(k)])
    if drops:
        rows[-1] = [e * parse("x1 - 1/2") for e in rows[-1]]
    return tuple(tuple(row) for row in rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description="C2 verdicts and times on dense and bidiagonal slopes")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"seed: {args.seed}")
    print(f"{'shape':>6} {'kind':<8} {'verdict':<20} {'seconds':>8}")
    for k, m in SHAPES:
        s = RelativeSupport(k + m, k, (0,) * m, random_slopes(args.seed, k, m), (0,) * k)
        start = time.perf_counter()
        c2, _ = check_C2_C3(s)
        seconds = time.perf_counter() - start
        print(f"{f'{k}x{m}':>6} {'dense':<8} {c2.verdict.kind:<20} {seconds:>8.3f}", flush=True)
    for k in BIDIAGONAL_K:
        for drops in (False, True):
            s = RelativeSupport(2 * k, k, (0,) * k, bidiagonal_slopes(args.seed, k, drops), (0,) * k)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                c2, _ = check_C2_C3(s)
                times.append(time.perf_counter() - start)
            kind = "drop" if drops else "bidiag"
            print(f"{f'{k}x{k}':>6} {kind:<8} {c2.verdict.kind:<20} {statistics.median(times):>8.5f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
