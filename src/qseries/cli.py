"""Command-line front end: list identities, run verification campaigns,
evaluate single sides at explicit points."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ParseError, QSeriesError, UnknownIdentityError
from .harness import (RunConfig, full_registry, render_json, render_text,
                      report_passed, run)
from .params import parse_param
from .precision import PrecisionCtx, real_str, to_real
from .qcore import QPoint

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _default_digits() -> int:
    env = os.environ.get("QSERIES_DIGITS")
    if env is None:
        return 40
    try:
        return int(env)
    except ValueError:
        raise SystemExit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default already exits 2; keep explicit
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qseries",
                     description="Numerical verification of q-series identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list identity ids, domains, and references")

    def add_point_flags(p):
        p.add_argument("--set", action="append", default=[], metavar="NAME=EXPR",
                       help="explicit parameter, e.g. --set a=-q^1/2 (repeatable)")
        p.add_argument("--q", dest="q", default=None,
                       help="base q in (0,1) for the explicit point")
        p.add_argument("--digits", type=int, default=None,
                       help="working precision in decimal digits (default 40, "
                            "or QSERIES_DIGITS)")

    verify = sub.add_parser("verify", help="verify identities over sampled points")
    verify.add_argument("--identity", default="all",
                        help="identity id or 'all' (default)")
    verify.add_argument("--points", type=int, default=5,
                        help="points per identity (default 5)")
    verify.add_argument("--seed", type=int, default=1, help="PRNG seed")
    verify.add_argument("--tol", type=float, default=None,
                        help="override tolerance (default: per identity)")
    verify.add_argument("--report", choices=("json", "text"), default="text")
    verify.add_argument("--out", default=None, help="write report to this path")
    add_point_flags(verify)

    ev = sub.add_parser("eval", help="evaluate one side of an identity")
    ev.add_argument("--identity", required=True)
    ev.add_argument("--side", choices=("lhs", "rhs"), required=True)
    add_point_flags(ev)
    return parser


def _explicit_point(args, ctx: PrecisionCtx) -> QPoint | None:
    if not args.set and args.q is None:
        return None
    if args.q is None:
        print("qseries: error: --set requires --q", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    # decimals are converted under the working precision, so an explicit
    # point carries every digit typed rather than the nearest double
    try:
        with ctx.working():
            q = to_real(args.q)
    except ValueError:
        print(f"qseries: error: invalid --q value {args.q!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    params = {}
    for item in args.set:
        name, sep, expr_text = item.partition("=")
        if not sep or not name:
            print(f"qseries: error: --set expects NAME=EXPR, got {item!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        try:
            params[name] = parse_param(expr_text).eval(q, ctx)
        except ParseError as exc:
            print(f"qseries: error: bad expression for {name!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    try:
        return QPoint(q, params)
    except QSeriesError as exc:
        print(f"qseries: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cmd_list() -> int:
    for entry in full_registry():
        print(f"{entry.id:10s} {entry.domain_desc:45s} {entry.paper_ref}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    digits = args.digits if args.digits is not None else _default_digits()
    ctx = PrecisionCtx(digits=digits)
    point = _explicit_point(args, ctx)
    if point is not None and args.identity == "all":
        print("qseries: error: explicit points require a single --identity",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        config = RunConfig(
            identities=("all",) if args.identity == "all" else (args.identity,),
            points_per_identity=args.points,
            seed=args.seed,
            digits=digits,
            tolerance=args.tol,
            explicit_points=(point,) if point is not None else (),
            report_format=args.report,
        )
        report = run(config)
    except (UnknownIdentityError, ValueError) as exc:
        print(f"qseries: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = render_json(report) if args.report == "json" else render_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if report_passed(report) else EXIT_FAIL


def _cmd_eval(args) -> int:
    digits = args.digits if args.digits is not None else _default_digits()
    ctx = PrecisionCtx(digits=digits)
    point = _explicit_point(args, ctx)
    if point is None:
        print("qseries: error: eval requires --q (and --set for each parameter)",
              file=sys.stderr)
        return EXIT_USAGE
    registry = full_registry()
    entry = next((e for e in registry if e.id == args.identity), None)
    if entry is None:
        print(f"qseries: error: unknown identity id {args.identity!r}",
              file=sys.stderr)
        return EXIT_USAGE
    missing = [n for n in entry.param_names if n not in point.params]
    if missing:
        print(f"qseries: error: missing --set for {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_USAGE
    side = entry.lhs if args.side == "lhs" else entry.rhs
    try:
        with ctx.working():
            value = side(point, ctx)
    except QSeriesError as exc:
        print(f"qseries: error: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(real_str(value.value, digits))
    return EXIT_PASS


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())
