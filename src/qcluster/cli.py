"""Command-line front end.

Subcommand parameters mirror the index conventions of the underlying
formulas one-to-one (k for the mutation direction, i/j for a pair of
mutable indices, l/m for the higher-order relation).  Exit status: 0 when
every requested check passes, 1 when a verification fails, 2 for
malformed input, 141 (128 + SIGPIPE, as shells report) when the reader
closes standard output before the report is written.  Reports are
byte-deterministic unless --timings is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .identities import check_identity, sweep_reports
from .qtorus import render_torus_elem
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

    def seed_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        cmd.add_argument("--seed", required=True, help="seed file (JSON)")
        return cmd

    seed_cmd("validate", "check every seed-file invariant")

    cmd = seed_cmd("mutate", "mutate the seed in one direction and print the result")
    cmd.add_argument("--k", type=int, required=True, help="mutation direction in [1, n]")
    cmd.add_argument("--out", help="write the mutated seed to this file")

    seed_cmd("vars", "print the one-step variables y_1 .. y_n")

    cmd = seed_cmd("verify-serre", "verify the fundamental relation for one pair")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--opposite", action="store_true",
                     help="also verify the reversed-side relation (needs b_ij <= 0)")

    cmd = seed_cmd("verify-higher", "verify a higher-order relation")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--l", type=int, required=True, help="order (power of y_j)")
    cmd.add_argument("--m", type=int, required=True, help="outer exponent")
    cmd.add_argument("--exploratory", action="store_true",
                     help="expand an out-of-range instance and report its remainder")

    cmd = seed_cmd("verify-lemmas", "verify the vanishing-sum lemmas for one pair")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--variant", choices=("L32", "L41"), default="L32")
    cmd.add_argument("--m", type=int, default=None, help="outer exponent (L41)")
    cmd.add_argument("--t", type=int, default=None, help="inner shift (L41)")

    cmd = sub.add_parser("identities", help="run q-identity checks", parents=[common])
    cmd.add_argument("--family", help="one family tag (default: sweep them all)")
    cmd.add_argument("--params", help="comma-separated integer parameters")

    seed_cmd("suite", "validate plus the full relation suite")
    return parser


def _emit_certificates(certs: Sequence[VerificationCertificate], args) -> int:
    for cert in certs:
        if args.format == "json":
            print(cert.summary_json(timings=args.timings))
        else:
            print(cert.render(timings=args.timings))
    return EXIT_OK if all(c.ok for c in certs) else EXIT_FAIL


def _print_matrix(title: str, rows) -> None:
    print(f"{title}:")
    width = max(len(str(v)) for row in rows for v in row)
    for row in rows:
        print("  " + " ".join(str(v).rjust(width) for v in row))


def _cmd_validate(args) -> int:
    # load_seed rejects every seed that breaks an invariant (exit 2).
    seed = load_seed(args.seed)
    if args.format == "json":
        print(json.dumps({"check": "validate", "ok": True, "n": seed.n, "m": seed.m}))
    else:
        print(f"valid seed: n={seed.n}, m={seed.m}, d={list(seed.d)}")
    return EXIT_OK


def _cmd_mutate(args) -> int:
    seed = load_seed(args.seed)
    mutated = mutate(seed, args.k)
    # Write the file first, so a run that cannot write it prints nothing.
    if args.out:
        dump_seed(mutated, args.out)
    if args.format == "json":
        print(json.dumps(seed_to_dict(mutated)))
    else:
        _print_matrix("Lambda'", mutated.form.rows())
        _print_matrix("Btilde'", mutated.exchange.btilde)
    return EXIT_OK


def _cmd_vars(args) -> int:
    seed = load_seed(args.seed)
    variables = one_step_variables(seed)
    for k, value in enumerate(variables, start=1):
        text = render_torus_elem(value)
        if args.format == "json":
            print(json.dumps({"k": k, "y": text}))
        else:
            print(f"y{k} = {text}")
    return EXIT_OK


def _cmd_verify_serre(args) -> int:
    seed = load_seed(args.seed)
    # the reversed side refuses b_ij > 0 before serre(i, j) is expanded
    opposite = [serre_verify_opposite(seed, args.i, args.j)] if args.opposite else []
    return _emit_certificates([serre_verify(seed, args.i, args.j)] + opposite, args)


def _cmd_verify_higher(args) -> int:
    seed = load_seed(args.seed)
    cert = higher_verify(seed, args.i, args.j, args.l, args.m, exploratory=args.exploratory)
    return _emit_certificates([cert], args)


def _cmd_verify_lemmas(args) -> int:
    seed = load_seed(args.seed)
    cert = lemma_sum_check(seed, args.i, args.j, variant=args.variant, m_exp=args.m, t_shift=args.t)
    return _emit_certificates([cert], args)


def _cmd_identities(args) -> int:
    if args.family is not None and args.params is not None:
        try:
            params = tuple(int(v) for v in args.params.split(",")) if args.params else ()
        except ValueError:
            raise ValueError(
                f"--params must be comma-separated integers, got {args.params!r}"
            ) from None
        reports = [check_identity(args.family, params)]
    elif args.params is not None:
        raise ValueError("--params needs --family: parameters belong to one family")
    else:
        reports = sweep_reports([args.family] if args.family is not None else None)
    for report in reports:
        if args.format == "json":
            print(json.dumps({
                "family": report.family,
                "params": list(report.params),
                "ok": report.verdict,
            }))
        else:
            print(report.render())
    return EXIT_OK if all(r.verdict for r in reports) else EXIT_FAIL


def _cmd_suite(args) -> int:
    seed = load_seed(args.seed)
    # Run the suite first, so a seed it refuses prints nothing.
    certs = full_suite(seed)
    if args.format == "json":
        print(json.dumps({"check": "validate", "ok": True}))
    else:
        print("validate: PASS")
    return _emit_certificates(certs, args)


_COMMANDS = {
    "validate": _cmd_validate,
    "mutate": _cmd_mutate,
    "vars": _cmd_vars,
    "verify-serre": _cmd_verify_serre,
    "verify-higher": _cmd_verify_higher,
    "verify-lemmas": _cmd_verify_lemmas,
    "identities": _cmd_identities,
    "suite": _cmd_suite,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The shared flags use SUPPRESS defaults so that a subparser cannot
    # clobber a value parsed before the subcommand; fill the defaults here.
    args.format = getattr(args, "format", "text")
    args.timings = getattr(args, "timings", False)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe is met here, not at exit
        return status
    except BrokenPipeError:
        # Pointed at devnull, the flush at exit cannot print "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
