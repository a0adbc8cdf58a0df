#!/usr/bin/env python3
"""Stress the relation suite on randomly generated principal seeds.

Generates skew-symmetrizable exchange matrices with bounded entries and
symmetrizers, then runs every direct, reversed-side, and minimal
higher-order relation check on each.  --kind zero (the default) draws
principal seeds whose Lambda has a zero mutable block; --kind lambda11
then also draws a random nonzero mutable block, so every relation carries
the twist its plan reads from Lambda.  Exits 0 when every relation holds
and 1 when one fails.  A negative --count, or a bound that
`random_principal_seed` refuses (--max-d below 1, a negative
--max-entry), prints one `error: ...` line to stderr and exits 2.
"""

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qcluster.relations import full_suite
from qcluster.seeds import random_principal_seed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50, help="number of random seeds")
    parser.add_argument("--rank", type=int, choices=(2, 3, 4), default=None,
                        help="mutable rank n (default: mix of 2 and 3)")
    parser.add_argument("--max-entry", type=int, default=3)
    parser.add_argument("--max-d", type=int, default=3)
    parser.add_argument("--rng-seed", type=int, default=0)
    parser.add_argument("--kind", choices=("zero", "lambda11"), default="zero",
                        help="the mutable block of Lambda: zero, or a random skew block")
    args = parser.parse_args()
    if args.count < 0:
        parser.exit(2, f"error: --count must be >= 0, got {args.count}\n")

    rng = random.Random(args.rng_seed)
    started = time.perf_counter()
    total = 0
    failures = 0
    for index in range(args.count):
        rank = args.rank or rng.choice([2, 3])
        try:
            seed = random_principal_seed(rng, rank, max_entry=args.max_entry, max_d=args.max_d,
                                         mutable_block=args.kind == "lambda11")
        except ValueError as exc:
            parser.exit(2, f"error: {exc}\n")
        certificates = full_suite(seed)
        total += len(certificates)
        bad = [c for c in certificates if not c.ok]
        failures += len(bad)
        flat = ";".join(f"{row}" for row in seed.exchange.principal_part())
        status = "ok" if not bad else "FAIL"
        print(f"seed {index:3d}  n={rank}  d={list(seed.d)}  B={flat}  "
              f"{len(certificates) - len(bad)}/{len(certificates)} {status}")
        for cert in bad:
            print("  " + cert.render().replace("\n", "\n  "))
    elapsed = time.perf_counter() - started
    print(f"\n{args.count} seeds, {total} certificates, {failures} failures, {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
