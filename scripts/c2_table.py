"""Time the constant fibre dimension check (C2) on dense random slope matrices.

Each k x m slope matrix comes from random.Random(f"{seed}:{k}x{m}"): every
entry is, with probability 1/2, an integer constant in [-3, 3], and
otherwise an integer-linear form c1*x1 + ... + ck*xk with each c_i in
[-2, 2].  The shapes are 4x4 to 8x8 and 5x12.  Such slopes have no
structure that keeps their minors small, so they show how C2 scales with
the fibre size.  Each row prints the shape, the C2 verdict and the wall
time of one `check_C2_C3` call.

    PYTHONPATH=src python scripts/c2_table.py --seed 0
"""

import argparse
import random
import sys
import time

from torusfm import RelativeSupport, check_C2_C3
from torusfm.expr import ZERO, num, var

SHAPES = ((4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (5, 12))


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


def main(argv=None):
    ap = argparse.ArgumentParser(description="C2 verdicts and times on dense random slopes")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"seed: {args.seed}")
    print(f"{'shape':>6} {'verdict':<20} {'seconds':>8}")
    for k, m in SHAPES:
        s = RelativeSupport(k + m, k, (0,) * m, random_slopes(args.seed, k, m), (0,) * k)
        start = time.perf_counter()
        c2, _ = check_C2_C3(s)
        seconds = time.perf_counter() - start
        print(f"{f'{k}x{m}':>6} {c2.verdict.kind:<20} {seconds:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
