#!/usr/bin/env python3
"""Decide every order plan of a box of pair integers, with no seed built.

An order plan of a pair (i, j) of a principal seed is a function of five
integers, (d_i, d_j, b_ij, b_ji, pi) with pi = lambda(g(y_j), g(y_i)),
and of (l, m).  The seed only supplies the basis that places the keys
that survive the kernel, and distinct keys go to distinct exponents.
So a plan's sum vanishes exactly when `relations._keys`, the helper every
check runs, returns no key, and walking a box of those integers decides
the verdict of every pair of every principal seed, at any rank, whose
integers lie in it.  `_keys` first walks each line on its spans alone
(`lattice._line_dies`) and runs the kernel only for a plan with a live
line.

The box is every (d_i, d_j, b_ij, b_ji, pi) with d <= 4, |b| <= 6,
|pi| <= 4 and d_i*b_ij = -d_j*b_ji (compatibility).  For each tuple and
each order l = 1 .. max(|b_ij|, 1), the plan at m = l*|b_ij| must vanish,
and when b_ij != 0 the plan at m = l*|b_ij| - 1 must not, which pins that
the bound is sharp.  Every admissible plan must also be decided on its
spans alone; one that needs the kernel counts as unexpected.  The
script also counts, with no verdict attached,
the exploratory plans l = |b_ij| + 1 that vanish at m = l*|b_ij|, although
`higher_verify` labels every l > |b_ij| exploratory.

Lemma plans are left to the seed sweeps: their middle x_i^(step-1) pairs
with g(y_i) by lambda(e_i, g(y_i)), which is not among the five integers.

Prints the counts and exits 1 on any unexpected verdict or any admissible
plan that needs the kernel, 0 otherwise.
"""

import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qcluster.relations import _has_live_line, _keys, _order_plan

MAX_D, MAX_B, MAX_PI = 4, 6, 4


def plan_of(d_i, d_j, b_ij, b_ji, pi, l, m_exp):
    """The order plan (l, m_exp) of these integers; its basis is never
    read, so it is left empty."""
    return _order_plan((None, d_i, d_j, b_ij, b_ji, pi, None, None, None, None), l, m_exp, exploratory=True)


def main():
    started = time.perf_counter()
    tuples = plans = unexpected = admissible = on_spans = 0
    exploratory = exploratory_vanished = 0
    span = range(1, MAX_D + 1)
    for d_i, d_j, b_ij, pi in itertools.product(span, span, range(-MAX_B, MAX_B + 1), range(-MAX_PI, MAX_PI + 1)):
        b_ji, rest = divmod(-d_i * b_ij, d_j)
        if rest or abs(b_ji) > MAX_B:
            continue
        tuples += 1
        size = abs(b_ij)
        for l in range(1, max(size, 1) + 1):
            expected = [(l * size, True)] + ([(l * size - 1, False)] if size else [])
            for m_exp, verdict in expected:
                plans += 1
                plan = plan_of(d_i, d_j, b_ij, b_ji, pi, l, m_exp)
                where = f"d=({d_i}, {d_j}) b=({b_ij}, {b_ji}) pi={pi} l={l} m={m_exp}"
                if (not _keys(plan)) != verdict:
                    unexpected += 1
                    print(f"unexpected: {where} {'leaves a remainder' if verdict else 'vanishes'}")
                if verdict:
                    admissible += 1
                    if _has_live_line(plan):
                        unexpected += 1
                        print(f"unexpected: {where} needs the kernel")
                    else:
                        on_spans += 1
        if size:
            exploratory += 1
            exploratory_vanished += not _keys(plan_of(d_i, d_j, b_ij, b_ji, pi, size + 1, (size + 1) * size))
    elapsed = time.perf_counter() - started
    print(f"{tuples} pair tuples (d <= {MAX_D}, |b| <= {MAX_B}, |pi| <= {MAX_PI}), "
          f"{plans} plans, {unexpected} unexpected verdicts, {elapsed:.2f}s")
    print(f"admissible plans decided on spans alone: {on_spans} of {admissible}")
    print(f"exploratory l = |b_ij| + 1 at m = l*|b_ij|: {exploratory_vanished} of {exploratory} vanish")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
