"""Command-line interface: parse, call the library, write what ``render`` gives.

Each command returns its exit code and ``render``'s lines; ``main`` writes
them in one place, with the interpreter's int-to-str digit cap lifted for
the write alone and restored on every exit. The one other line written is
the error line of a ``ValueError``, raised before the cap is lifted. Exit
codes: 0 on success (and all replay items passing), 1 when a replay item
or sweep finds a mismatch, 2 on usage or domain errors, 141 (128 +
SIGPIPE) when stdout is closed before the output is written, as by
``| head``; that case prints nothing to stderr.
"""

import argparse
import os
import sys

from . import render
from .factoring import factor_mersenne
from .forms import generalized_class, primitive_class
from .kernel import isqrt
from .mersenne import flt_sweep, mersenne, order
from .perfect import frenicle_scan
from .primes import _walk_refusal, primes_in_classes
from .replay import SCENARIOS, replay_all


def _parse_bases(text):
    try:
        bases = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad base list: {text!r}")
    if not bases:
        raise argparse.ArgumentTypeError("base list is empty")
    return bases


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fermatkit",
        description="Mersenne-number toolkit: orders, divisor forms, "
        "restricted trial factoring, perfect numbers, and historical "
        "replays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor 2**n - 1 with a trace")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=None,
                   help="largest candidate value to trial-divide")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--refined", dest="refined", action="store_true",
                       default=True)
    group.add_argument("--unrefined", dest="refined", action="store_false")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("order", help="multiplicative order of a base mod m")
    p.add_argument("m", type=int)
    p.add_argument("--base", type=int, default=2)

    p = sub.add_parser(
        "verify-flt",
        help="power-residue and order-divisibility sweep over primes",
    )
    p.add_argument("--max-p", type=int, required=True)
    p.add_argument("--bases", type=_parse_bases,
                   default=list(range(2, 51)))

    p = sub.add_parser("candidates",
                       help="candidate divisor primes for 2**q - 1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--refined", action="store_true")

    p = sub.add_parser("perfect", help="scan for a large perfect number")
    p.add_argument("--min-digits", type=int, default=20)
    p.add_argument("--max-exponent", type=int, default=37)

    p = sub.add_parser("replay", help="historical reproductions")
    p.add_argument("scenario", choices=sorted(SCENARIOS) + ["all"])
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_factor(args):
    fact, trace = factor_mersenne(args.n, args.budget, args.refined)
    lines_of = render.factor_json if args.json else render.factor_lines
    return 0, lines_of(args.n, fact, trace)


def _cmd_order(args):
    record = order(args.base, args.m)
    return 0, render.order_text(record)


def _cmd_verify_flt(args):
    sweep = flt_sweep(args.max_p, args.bases)
    return 1 if sweep.counterexamples else 0, render.sweep_lines(sweep)


def _cmd_candidates(args):
    cls = primitive_class(args.q) if args.refined else generalized_class(args.q)
    limit = args.limit
    if limit is None:
        # isqrt(2**q - 1) has (q + 1) // 2 bits and takes time of order q**2.
        # Past 4 bits per digit of str()'s cap (0: none) it has more digits
        # than str() writes, and a walk to it is refused by that bit length:
        # q alone decides it, and no limit is formed.
        bits = (args.q + 1) // 2
        if bits > 4 * sys.get_int_max_str_digits() > 0:
            raise _walk_refusal(bits)
        limit = isqrt(mersenne(args.q))
    found = primes_in_classes(limit, cls)
    return 0, render.candidates_lines(args.q, cls, limit, found)


def _cmd_perfect(args):
    return 0, render.challenge_text(frenicle_scan(args.min_digits, args.max_exponent))


def _cmd_replay(args):
    if args.scenario == "all":
        reports = replay_all()
    else:
        reports = [SCENARIOS[args.scenario]()]
    lines = render.reports_json(reports) if args.json else render.render_report(reports)
    return 0 if all(r.overall for r in reports) else 1, lines


_COMMANDS = {
    "factor": _cmd_factor,
    "order": _cmd_order,
    "verify-flt": _cmd_verify_flt,
    "candidates": _cmd_candidates,
    "perfect": _cmd_perfect,
    "replay": _cmd_replay,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = sys.get_int_max_str_digits()
    try:
        code, lines = _COMMANDS[args.command](args)
        # A number past the interpreter's int-to-str digit cap, as M_n is
        # from n = 14,285 on, is written whole: the cap is lifted for the
        # write alone, after the command has run.
        sys.set_int_max_str_digits(0)
        sys.stdout.writelines(lines)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so
        # the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
