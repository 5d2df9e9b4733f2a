"""Command-line driver.

Subcommands::

    frobcoho verify appendix --p P [--maxdeg D] [--format text|json] [--no-fixture]
    frobcoho verify props --p P [--format text|json]
    frobcoho table {g1,b1,u1} --p P [--maxdeg D] [--format tsv|json]
    frobcoho decomp {sym,tsym} --p P --n N
    frobcoho cohomology --target {u1,b1} --p P --n N --deg D

Exit codes: 0 all checks pass, 1 failures, 2 only the documented flagged
discrepancies, 3 usage error, also for a fixture file that is missing,
unreadable or malformed.  Primes are capped at 13 to keep the
p^3-dimensional modules desk-scale; FROBCOHO_FIXTURES overrides the
fixture directory.
"""

from __future__ import annotations

import argparse
import json
import sys

# lazy submodules (see __init__): a command executes only what it calls,
# so `table` never runs verify.py and a usage error loads no numpy
from . import characters, cohomology, lie, verify, wmodules

MAX_PRIME = 13
USAGE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="frobcoho", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    suites = sub.add_parser("verify", help="run a verification suite")
    vsub = suites.add_subparsers(dest="suite", required=True)
    va = vsub.add_parser("appendix", help="check the reference tables")
    va.add_argument("--p", type=int, required=True)
    va.add_argument("--maxdeg", type=int, default=8)
    va.add_argument("--format", choices=("text", "json"), default="text")
    va.add_argument("--no-fixture", action="store_true",
                    help="recompute reference rows for a prime without a shipped fixture")
    vp = vsub.add_parser("props", help="check the standalone propositions")
    vp.add_argument("--p", type=int, required=True)
    vp.add_argument("--format", choices=("text", "json"), default="text")

    table = sub.add_parser("table", help="emit a cohomology table")
    table.add_argument("target", choices=("g1", "b1", "u1"))
    table.add_argument("--p", type=int, required=True)
    table.add_argument("--maxdeg", type=int, default=8)
    table.add_argument("--format", choices=("tsv", "json"), default="tsv")

    decomp = sub.add_parser("decomp", help="label the summands of a symmetric power")
    decomp.add_argument("kind", choices=("sym", "tsym"))
    decomp.add_argument("--p", type=int, required=True)
    decomp.add_argument("--n", type=int, required=True)

    coh = sub.add_parser("cohomology",
                         help="one kernel-cohomology group of a graded piece of Sbar(sl2)")
    coh.add_argument("--target", choices=("u1", "b1"), required=True)
    coh.add_argument("--p", type=int, required=True)
    coh.add_argument("--n", type=int, required=True)
    coh.add_argument("--deg", type=int, required=True)
    return parser


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not characters.is_prime(args.p) or args.p > MAX_PRIME:
        print(f"error: --p must be a prime <= {MAX_PRIME}, got {args.p}",
              file=sys.stderr)
        return USAGE_EXIT
    if getattr(args, "maxdeg", 0) < 0:
        print("error: --maxdeg must be nonnegative", file=sys.stderr)
        return USAGE_EXIT

    if args.command == "verify":
        if args.suite == "appendix":
            if args.p not in verify.FIXTURE_PRIMES and not args.no_fixture:
                print(f"error: no shipped fixture for p={args.p}; "
                      "pass --no-fixture to recompute the rows", file=sys.stderr)
                return USAGE_EXIT
            try:
                report = verify.verify_appendix(args.p, maxdeg=args.maxdeg,
                                                allow_synth=args.no_fixture)
            except (OSError, verify.FixtureError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return USAGE_EXIT
        else:
            report = verify.verify_propositions(args.p)
        sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
        return report.exit_code()

    if args.command == "table":
        tab = cohomology.hh_table(args.target, args.p, args.maxdeg)
        if args.format == "json":
            sys.stdout.write(json.dumps(tab.to_json_dict(), indent=2) + "\n")
        else:
            sys.stdout.write(tab.to_tsv())
        return 0

    if args.command == "decomp":
        g = lie.sl2(args.p)
        if args.kind == "tsym":
            top = 3 * (args.p - 1)
            if not 0 <= args.n <= top:
                print(f"error: --n must lie in [0, {top}]", file=sys.stderr)
                return USAGE_EXIT
            dec = wmodules.summand_labels(wmodules.truncated_sym(g, args.n))
        else:
            # ordinary symmetric powers are tilting exactly for n <= p-1
            if not 0 <= args.n <= args.p - 1:
                print(f"error: --n must lie in [0, {args.p - 1}] for sym",
                      file=sys.stderr)
                return USAGE_EXIT
            dec = wmodules.summand_labels(wmodules.sym_power(g, args.n))
        print(dec.format())
        return 0

    if args.command == "cohomology":
        top = 3 * (args.p - 1)
        if not 0 <= args.n <= top or args.deg < 0:
            print(f"error: need 0 <= --n <= {top} and --deg >= 0", file=sys.stderr)
            return USAGE_EXIT
        piece = wmodules.truncated_sym(lie.sl2(args.p), args.n)
        char = cohomology.u1_cohomology(piece, args.deg)
        if args.target == "b1":
            char = cohomology.t1_invariants(char, args.p)
        print(f"dim={char.dim()} character={char.serialize()}")
        return 0

    return USAGE_EXIT


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
