"""Shear a gradient section and watch the curvature types respond.

Starts from a random potential, whose gradient section has symmetric
Jacobian and therefore purely (1,1) dual curvature, then mixes in a
linear shear of growing strength on one component.  At strength zero
the (2,0) and (0,2) parts are proven zero; afterwards they are proven
nonzero and their sampled magnitude grows linearly with the shear.
Deterministic for a fixed seed.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from torusfm import SectionSupport, curvature_hodge
from torusfm.expr import ZERO, diff, eval_at, is_zero, num, var


def random_potential(rng, g, terms=4, degree=4):
    e = ZERO
    for _ in range(terms):
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        if not c:
            continue
        t = num(c)
        for _ in range(rng.randint(2, degree)):
            t = t * var(rng.randint(1, g))
        e = e + t
    return e


def grid_abs_max(rows, point):
    return max(abs(eval_at(e, point)) for row in rows for e in row)


def verdict_text(rows):
    worst = None
    for row in rows:
        for e in row:
            v = is_zero(e)
            if not v.is_zero:
                return f"nonzero ({'proven' if v.proven else 'numerical'})"
            if worst is None or (worst.proven and not v.proven):
                worst = v
    return f"zero ({'proven' if worst.proven else 'numerical'})"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="curvature types of a sheared gradient section"
    )
    ap.add_argument("--dim", type=int, default=3, metavar="G",
                    help="base dimension (default 3)")
    ap.add_argument("--steps", type=int, default=6, metavar="N",
                    help="number of shear strengths after zero (default 6)")
    ap.add_argument("--shear", type=Fraction, default=Fraction(1, 2),
                    metavar="P/Q", help="largest shear coefficient (default 1/2)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    args = ap.parse_args(argv)
    if args.dim < 2:
        ap.error("--dim must be at least 2 so two components can shear")
    if args.steps < 1:
        ap.error("--steps must be positive")

    rng = random.Random(args.seed)
    g = args.dim
    pot = random_potential(rng, g)
    base = [diff(pot, j) for j in range(1, g + 1)]
    j0 = rng.randint(1, g)
    m0 = rng.choice([m for m in range(1, g + 1) if m != j0])
    point = tuple(rng.uniform(0.1, 0.9) for _ in range(g))

    rows = []
    for step in range(args.steps + 1):
        c = args.shear * step / args.steps
        eps = list(base)
        if c:
            eps[j0 - 1] = eps[j0 - 1] + c * var(m0)
        f20, f11, f02 = curvature_hodge(SectionSupport(tuple(eps)))
        rows.append(
            {
                "shear": str(c),
                "F20": verdict_text(f20),
                "F02": verdict_text(f02),
                "|F20|": round(grid_abs_max(f20, point), 9),
                "|F11|": round(grid_abs_max(f11, point), 9),
            }
        )

    meta = {
        "dim": g,
        "sheared.component": j0,
        "shear.variable": f"x{m0}",
        "sample.point": [round(x, 6) for x in point],
    }
    if args.format == "json":
        json.dump({"sweep": meta, "rows": rows}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    for key, val in meta.items():
        print(f"{key}: {val}")
    header = f"{'shear':>8} {'F20 verdict':<20} {'F02 verdict':<20} {'|F20|':>12} {'|F11|':>12}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['shear']:>8} {r['F20']:<20} {r['F02']:<20}"
            f" {r['|F20|']:>12} {r['|F11|']:>12}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
