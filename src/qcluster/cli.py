"""Command-line front end.

Subcommand parameters mirror the index conventions of the underlying
formulas one-to-one (k for the mutation direction, i/j for a pair of
mutable indices, l/m for the higher-order relation).  Exit status: 0 when
every requested check passes, 1 when a verification fails, 2 for
malformed input, 141 (128 + SIGPIPE, as shells report) when the reader
closes standard output before the report is written, and 70 (EX_SOFTWARE)
with one "error: internal error:" line for any other exception.  Each
subcommand returns its report lines and its verdict, and `main` alone
writes them, so a run that exits 2 or 70 writes nothing to standard
output, while one that exits 1 still writes every record.  Reports are
byte-deterministic unless --timings is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .relations import (
    VerificationCertificate,
    full_suite,
    higher_verify,
    lemma_sum_check,
    one_step_variables,
    serre_verify,
    serre_verify_opposite,
)
from .seeds import (
    dump_seed,
    load_seed,
    mutate,
    seed_to_dict,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_CLOSED_STDOUT = 141
EXIT_INTERNAL = 70

# A subcommand's report lines, which main writes, and whether every check passed.
Report = tuple[list[str], bool]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call and shared by every later one, so main
    # must treat it as read-only.  Shared flags are accepted both before and
    # after the subcommand; the SUPPRESS defaults keep a subparser from
    # clobbering a value parsed by the main parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                        help="report style: human text or one JSON record per line")
    common.add_argument("--timings", action="store_true", default=argparse.SUPPRESS,
                        help="include wall-clock times (makes output nondeterministic)")

    parser = argparse.ArgumentParser(
        prog="qcluster",
        description="Quantum seed mutation and exact relation verification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help_text: str, seed: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        cmd.set_defaults(run=run)
        if seed:
            cmd.add_argument("--seed", required=True, help="seed file (JSON)")
        return cmd

    command("validate", _cmd_validate, "check every seed-file invariant")

    cmd = command("mutate", _cmd_mutate, "mutate the seed in one direction and print the result")
    cmd.add_argument("--k", type=int, required=True, help="mutation direction in [1, n]")
    cmd.add_argument("--out", help="write the mutated seed to this file")

    command("vars", _cmd_vars, "print the one-step variables y_1 .. y_n")

    cmd = command("verify-serre", _cmd_verify_serre, "verify the fundamental relation for one pair")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--opposite", action="store_true",
                     help="also verify the reversed-side relation (needs b_ij <= 0)")

    cmd = command("verify-higher", _cmd_verify_higher, "verify a higher-order relation")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--l", type=int, required=True, help="order (power of y_j)")
    cmd.add_argument("--m", type=int, required=True, help="outer exponent")
    cmd.add_argument("--exploratory", action="store_true",
                     help="expand an out-of-range instance and report its remainder")

    cmd = command("verify-lemmas", _cmd_verify_lemmas, "verify the vanishing-sum lemmas for one pair")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--variant", choices=("L32", "L41"), default="L32")
    cmd.add_argument("--m", type=int, default=None, help="outer exponent (L41)")
    cmd.add_argument("--t", type=int, default=None, help="inner shift (L41)")

    cmd = command("identities", _cmd_identities, "run q-identity checks", seed=False)
    cmd.add_argument("--family", help="one family tag (default: sweep them all)")
    cmd.add_argument("--params", help="comma-separated integer parameters")

    command("suite", _cmd_suite, "validate plus the full relation suite")
    return parser


def _certificates(certs: Sequence[VerificationCertificate], args) -> Report:
    line = VerificationCertificate.summary_json if args.format == "json" else VerificationCertificate.render
    return [line(cert, args.timings) for cert in certs], all(c.ok for c in certs)


def _cmd_validate(args) -> Report:
    # load_seed rejects every seed that breaks an invariant (exit 2).
    seed = load_seed(args.seed)
    if args.format == "json":
        return [json.dumps({"check": "validate", "ok": True, "n": seed.n, "m": seed.m})], True
    return [f"valid seed: n={seed.n}, m={seed.m}, d={list(seed.d)}"], True


def _cmd_mutate(args) -> Report:
    mutated = mutate(load_seed(args.seed), args.k)
    if args.out:
        dump_seed(mutated, args.out)
    if args.format == "json":
        return [json.dumps(seed_to_dict(mutated))], True
    lines = []
    for title, rows in (("Lambda'", mutated.form.rows()), ("Btilde'", mutated.exchange.btilde)):
        width = max(len(str(v)) for row in rows for v in row)
        lines += [f"{title}:"] + ["  " + " ".join(str(v).rjust(width) for v in row) for row in rows]
    return lines, True


def _cmd_vars(args) -> Report:
    # Imported when the subcommand runs, as the identity oracle is: a
    # request that prints no torus element loads no ring.
    from .qtorus import render_torus_elem

    texts = [render_torus_elem(y) for y in one_step_variables(load_seed(args.seed))]
    if args.format == "json":
        return [json.dumps({"k": k, "y": text}) for k, text in enumerate(texts, start=1)], True
    return [f"y{k} = {text}" for k, text in enumerate(texts, start=1)], True


def _cmd_verify_serre(args) -> Report:
    seed = load_seed(args.seed)
    # the reversed side refuses b_ij > 0 before serre(i, j) is expanded
    opposite = [serre_verify_opposite(seed, args.i, args.j)] if args.opposite else []
    return _certificates([serre_verify(seed, args.i, args.j)] + opposite, args)


def _cmd_verify_higher(args) -> Report:
    seed = load_seed(args.seed)
    return _certificates([higher_verify(seed, args.i, args.j, args.l, args.m, exploratory=args.exploratory)], args)


def _cmd_verify_lemmas(args) -> Report:
    seed = load_seed(args.seed)
    return _certificates([lemma_sum_check(seed, args.i, args.j, variant=args.variant, m_exp=args.m, t_shift=args.t)], args)


def _cmd_identities(args) -> Report:
    # Imported here, not at the top, so that no other subcommand pays for
    # loading the oracle; the absolute form is the cheapest to repeat, as
    # it skips resolving a relative name on every call.
    import qcluster.identities as identities

    if args.family is not None and args.params is not None:
        try:
            params = tuple(int(v) for v in args.params.split(",")) if args.params else ()
        except ValueError:
            raise ValueError(
                f"--params must be comma-separated integers, got {args.params!r}"
            ) from None
        reports = [identities.check_identity(args.family, params)]
    elif args.params is not None:
        raise ValueError("--params needs --family: parameters belong to one family")
    else:
        reports = identities.sweep_reports([args.family] if args.family is not None else None)
    if args.format == "json":
        lines = [json.dumps({"family": r.family, "params": list(r.params), "ok": r.verdict}) for r in reports]
    else:
        lines = [r.render() for r in reports]
    return lines, all(r.verdict for r in reports)


def _cmd_suite(args) -> Report:
    lines, ok = _certificates(full_suite(load_seed(args.seed)), args)
    return ['{"check": "validate", "ok": true}' if args.format == "json" else "validate: PASS"] + lines, ok


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The shared flags use SUPPRESS defaults so that a subparser cannot
    # clobber a value parsed before the subcommand; fill the defaults here.
    args.format = getattr(args, "format", "text")
    args.timings = getattr(args, "timings", False)
    try:
        # The one write to stdout, after the command has returned: a run
        # that raises writes nothing.  The lines are streamed, not joined,
        # so a reader that closes the pipe early is met during the write.
        lines, ok = args.run(args)
        sys.stdout.writelines([f"{line}\n" for line in lines])
        sys.stdout.flush()  # so a closed pipe is met here, not at exit
        return EXIT_OK if ok else EXIT_FAIL
    except BrokenPipeError:
        # Pointed at devnull, the flush at exit cannot print "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a fault of the program, never "a relation failed"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
