#!/usr/bin/env python3
"""Scan a grid of higher-order relation parameters, including out-of-range ones.

For a chosen pair (i, j) this expands the order-l alternating sum for
every l and outer exponent m in a grid and reports which instances
vanish.  An instance is in range when `higher_verify` accepts it, and
then it must vanish; `higher_verify` rejects an out-of-range instance
with ValueError before expanding anything, and only then is it expanded
with the exploratory flag, so each instance is expanded once.
Out-of-range instances usually leave a remainder, which makes the
admissibility boundary visible.  A seed that does not load or is not
principal, an index pair that is not two distinct mutable indices, or an
empty grid (--max-l below 1 or --max-m below 0) prints one `error: ...`
line to stderr and exits 2.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qcluster.relations import higher_verify
from qcluster.seeds import load_seed

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default=str(FIXTURES / "exam1.json"))
    parser.add_argument("--i", type=int, default=2)
    parser.add_argument("--j", type=int, default=1)
    parser.add_argument("--max-l", type=int, default=3)
    parser.add_argument("--max-m", type=int, default=8)
    args = parser.parse_args()

    if args.max_l < 1 or args.max_m < 0:
        parser.exit(2, f"error: need --max-l >= 1 and --max-m >= 0, got --max-l {args.max_l}, --max-m {args.max_m}\n")
    try:
        seed = load_seed(args.seed)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    if not seed.is_principal:
        parser.exit(2, "error: seed is not principal (m = 2n with identity coefficient block)\n")
    if not (1 <= args.i <= seed.n and 1 <= args.j <= seed.n) or args.i == args.j:
        parser.exit(2, f"error: need two distinct indices in [1, {seed.n}], got i={args.i}, j={args.j}\n")
    b = seed.b_entry(args.i, args.j)
    size = abs(b)
    print(f"b_{args.i}{args.j} = {b}; admissible: l <= {size}, m >= l*{size}")
    print(f"{'l':>3} {'m':>3}  in-range  vanishes")
    for l in range(1, args.max_l + 1):
        for m in range(args.max_m + 1):
            try:
                cert = higher_verify(seed, args.i, args.j, l, m)
                in_range = True
            except ValueError:
                cert = higher_verify(seed, args.i, args.j, l, m, exploratory=True)
                in_range = False
            marker = "yes" if in_range else " no"
            print(f"{l:>3} {m:>3}      {marker}       {'yes' if cert.ok else ' no'}")
            if in_range and not cert.ok:
                print("UNEXPECTED nonzero remainder:", cert.residue)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
