"""Command-line front end: list identities, run verification campaigns,
evaluate single sides at explicit points."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .errors import (ParseError, QDomainError, QSeriesError,
                     UnknownIdentityError)
from .harness import (RunConfig, full_registry, render_json, render_text,
                      report_passed, run)
from .params import parse_param
from .precision import PrecisionCtx, real_str, to_real
from .qcore import QPoint
from .registry import _lookup

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _Failure(Exception):
    """Ends a command: `main` prints the message as one `qseries: error:`
    line and returns the exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _ctx(args) -> PrecisionCtx:
    """The context of --digits, else of QSERIES_DIGITS, else of 40 digits;
    a precision that is not an integer >= 10 is a usage error."""
    digits = args.digits
    if digits is None:
        env = os.environ.get("QSERIES_DIGITS", "40")
        try:
            digits = int(env)
        except ValueError:
            raise _Failure(f"QSERIES_DIGITS must be an integer, got {env!r}")
    return PrecisionCtx(digits=digits)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Failure(message)


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
                        help="override tolerance (default: 10^(5 - digits))")
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
        raise _Failure("--set requires --q")
    # decimals are converted under the working precision, so an explicit
    # point carries every digit typed rather than the nearest double, and
    # each parameter reaches the primitives as the exact monomial typed
    try:
        with ctx.working():
            q = to_real(args.q)
    except QDomainError:
        raise _Failure(f"invalid --q value {args.q!r}")
    params = {}
    for item in args.set:
        name, sep, expr_text = item.partition("=")
        if not sep or not name:
            raise _Failure(f"--set expects NAME=EXPR, got {item!r}")
        try:
            params[name] = parse_param(expr_text)
        except ParseError as exc:
            raise _Failure(f"bad expression for {name!r}: {exc}")
    with ctx.working():
        return QPoint(q, params)


def _cmd_list() -> int:
    for entry in full_registry():
        print(f"{entry.id:10s} {entry.domain_desc:45s} {entry.paper_ref}")
    return EXIT_PASS


def _cmd_verify(args, ctx: PrecisionCtx, point: QPoint | None) -> int:
    if point is not None and args.identity == "all":
        raise _Failure("explicit points require a single --identity")
    config = RunConfig(
        identities=(args.identity,),
        points_per_identity=args.points,
        seed=args.seed,
        digits=ctx.digits,
        tolerance=args.tol,
        explicit_points=(point,) if point is not None else (),
    )
    # opened before the campaign, so an unwritable path costs no evaluation
    try:
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise _Failure(f"cannot write --out {args.out!r}: {exc.strerror}")
    with out as fh:
        report = run(config)
        fh.write(render_json(report) if args.report == "json"
                 else render_text(report))
    return EXIT_PASS if report_passed(report) else EXIT_FAIL


def _cmd_eval(args, ctx: PrecisionCtx, point: QPoint | None) -> int:
    if point is None:
        raise _Failure("eval requires --q (and --set for each parameter)")
    entry = _lookup(args.identity, full_registry())
    violations = entry.domain(point, ctx)
    if violations:
        raise _Failure(f"{entry.id}: {'; '.join(violations)}", EXIT_FAIL)
    side = entry.lhs if args.side == "lhs" else entry.rhs
    try:
        value = side(point, ctx)
    except QSeriesError as exc:
        raise _Failure(f"evaluation failed: {exc}", EXIT_FAIL)
    print(real_str(value.value, ctx.digits))
    return EXIT_PASS


def main(argv=None) -> int:
    """Run one command and return its exit code; every error is printed
    here, as one `qseries: error:` line."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        ctx = _ctx(args)
        command = _cmd_verify if args.command == "verify" else _cmd_eval
        return command(args, ctx, _explicit_point(args, ctx))
    except _Failure as exc:
        message, code = str(exc), exc.code
    except (UnknownIdentityError, QDomainError, ValueError) as exc:
        # the library refusing an input: an id, a precision, q or tolerance
        message, code = str(exc), EXIT_USAGE
    print(f"qseries: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
