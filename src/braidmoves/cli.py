"""Command-line front end.

Every operation of the library is reachable as a subcommand, with plain
text or JSON output.  Exit codes: 0 success (and found, for detection),
10 not-found-within-depth, 2 bad input, 70 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import detect as _detect
from .homology import fox_x, fox_y
from .krammer import entry, is_identity, tau_plus
from .laurent import LaurentPoly
from .magnus import burau_block, tau
from .pairing import pair
from .words import BraidWord, FreeWord, WordError

EXIT_OK = 0
EXIT_NOT_FOUND = 10
EXIT_USAGE = 2
EXIT_INTERNAL = 70


def _emit(args, payload_json, payload_text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload_json, sort_keys=True))
    else:
        print(payload_text)


def _cmd_matrix(args) -> int:
    n = args.n
    if args.rep == "tau-plus":
        m = tau_plus(BraidWord.parse(args.word, n))
        _emit(args, m.to_json(), "\n\n".join(
            "block (%d, %d):\n%s" % (i, j, m.block(i, j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if not m.block(i, j).is_zero()
        ))
        return EXIT_OK
    if args.rep == "burau":
        m = burau_block(tau(BraidWord.parse(args.word, n)))
    else:
        word = (
            FreeWord.parse(args.word, n)
            if "x" in args.word
            else BraidWord.parse(args.word, n)
        )
        m = tau(word)
        if args.rep == "rho":
            # tau and rho differ by the scalar q^deg; undo it
            d = word.exponent_sum() if isinstance(word, FreeWord) else 0
            m = m.scale(LaurentPoly.monomial(-d, 0))
    _emit(args, m.to_json(), str(m))
    return EXIT_OK


def _cmd_act(args) -> int:
    b = BraidWord.parse(args.braid, args.n)
    w = FreeWord.parse(args.word, args.n)
    img = b(w)
    _emit(args, {"word": str(img)}, str(img))
    return EXIT_OK


def _cmd_fox(args) -> int:
    w = FreeWord.parse(args.word, args.n)
    cls = fox_y(w) if args.basis == "y" else fox_x(w)
    _emit(args, {"class": str(cls)}, str(cls))
    return EXIT_OK


def _cmd_pair(args) -> int:
    yw = FreeWord.parse(args.y, args.n)
    xw = FreeWord.parse(args.x, args.n)
    value = pair(fox_y(yw), fox_x(xw))
    zero = value.is_zero()
    _emit(
        args,
        {"symbolic": str(value.symbolic), "zero": zero},
        f"{value.symbolic}\nzero: {zero}",
    )
    return EXIT_OK


def _cmd_detect_reduce(args) -> int:
    b = BraidWord.parse(args.word, args.n)
    result = _detect.detect_reducing(b, args.depth)
    _emit(args, result.to_json(), _describe(result))
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def _cmd_detect_exchange(args) -> int:
    if args.rewrite_depth is not None and args.rewrite_depth < 0:
        raise WordError("rewrite depth must be >= 0")
    b = BraidWord.parse(args.word, args.n)
    result = _detect.detect_exchange(b, args.depth)
    if result.found and args.rewrite:
        # realizing braids typically need length about |b| beyond the
        # detection depth; the pair-orbit search dedups heavily, so this
        # stays cheap
        rewrite_depth = (
            args.rewrite_depth
            if args.rewrite_depth is not None
            else args.depth + len(b) + 2
        )
        rewritten = _detect.rewrite_exchange(b, result, rewrite_depth)
        if rewritten is not None:
            result = dataclasses.replace(result, rewritten=rewritten)
    _emit(args, result.to_json(), _describe(result))
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def _describe(result: _detect.DetectionResult) -> str:
    if not result.found:
        return f"not found within depth {result.depth_searched}"
    lines = [f"found: {result.kind}"]
    for sc in result.witnesses:
        lines.append(f"  witness loop {sc.word}  (braid: {sc.witness or '1'})")
    if result.rewritten is not None:
        lines.append(f"  rewritten braid: {result.rewritten}")
    return "\n".join(lines)


def _cmd_entry(args) -> int:
    b = BraidWord.parse(args.word, args.n)
    m = entry(b, args.i, args.j)
    _emit(args, m.to_json(), str(m))
    return EXIT_OK


def _cmd_is_identity(args) -> int:
    b = BraidWord.parse(args.word, args.n)
    res = is_identity(b)
    _emit(args, {"identity": res}, str(res).lower())
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    classes = _detect.enumerate_simple(args.n, args.depth)
    payload = [{"word": str(sc.word), "braid": str(sc.witness)} for sc in classes]
    _emit(args, payload, "\n".join(str(sc.word) for sc in classes))
    return EXIT_OK


def _cmd_special_forms(args) -> int:
    b = BraidWord.parse(args.word, args.n)
    report = _detect.special_form_tests(b)
    text = [
        f"r_(n,n) = 0 (reduction form): {report.reduction_form}",
        f"r_(n,n-1) = 0 (exchange form): {report.exchange_form}",
        "zero blocks: " + (", ".join(f"({i},{j})" for i, j in report.zero_entries) or "none"),
    ]
    _emit(args, report.to_json(), "\n".join(text))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidmoves",
        description="Exact braid representations, intersection pairing, and move detection.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for harness compatibility; detection output never depends on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth=False):
        p.add_argument("-n", type=int, required=True, help="strand/puncture count")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if depth:
            p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser("matrix", help="rho/tau/tau-plus/burau matrix of a word")
    common(p)
    p.add_argument("--rep", choices=("rho", "tau", "tau-plus", "burau"), default="tau")
    p.add_argument("word")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("act", help="apply a braid automorphism to a free word")
    common(p)
    p.add_argument("braid")
    p.add_argument("word")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("fox", help="homology class of a loop word")
    common(p)
    p.add_argument("--basis", choices=("x", "y"), default="x")
    p.add_argument("word")
    p.set_defaults(func=_cmd_fox)

    p = sub.add_parser("pair", help="pairing of two loop words (y-side first)")
    common(p)
    p.add_argument("--y", required=True, help="loop word for the y-based class")
    p.add_argument("--x", required=True, help="loop word for the x-based class")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("detect-reduce", help="search for a reducing-move certificate")
    common(p, depth=True)
    p.add_argument("word")
    p.set_defaults(func=_cmd_detect_reduce)

    p = sub.add_parser("detect-exchange", help="search for an exchange-move certificate")
    common(p, depth=True)
    p.add_argument("--rewrite", action="store_true", help="also compute the exchanged braid")
    p.add_argument(
        "--rewrite-depth",
        type=int,
        default=None,
        help="length bound for the realizing braids (default: depth + |word| + 2)",
    )
    p.add_argument("word")
    p.set_defaults(func=_cmd_detect_exchange)

    p = sub.add_parser("entry", help="single block of the braid's block matrix")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(func=_cmd_entry)

    p = sub.add_parser("is-identity", help="decide triviality of a braid word")
    common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_is_identity)

    p = sub.add_parser("enumerate-simple", help="simple classes up to a depth")
    common(p, depth=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("special-forms", help="zero-block special form report")
    common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_special_forms)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # WordError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
