"""Command line interface.

Exit codes follow scripting conventions: 0 for success (and for "equal"),
1 for a semantic "no" (``eq`` on inequivalent terms), 2 for any input
error (unparsable term, malformed JSON or JSON nested too deeply for the
decoder, bad weights), 3 for an internal or resource failure on
well-formed input (a failed exactness check, running out of memory, or a
``RecursionError`` should any walk still recurse).
Errors print one ``error: ...`` line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .convexsets import from_generators, pne_d_map_then_base, set_from_obj, set_to_obj
from .distributions import d_unit, dist_make, dist_to_obj
from .errors import CslError, DecodeError
from .terms import canon, decide_eq, iota, parse_term, print_term, rewrite_np


def dumps(obj) -> str:
    """Canonical JSON: compact separators, insertion-ordered keys."""
    return json.dumps(obj, separators=(",", ":"))


def cmd_normalize(args) -> int:
    np = rewrite_np(parse_term(args.term))
    if args.json:
        print(dumps({
            "normal_form": print_term(np.term()),
            "summands": [print_term(s) for s in np.summands],
        }))
    else:
        print(print_term(np.term()))
    return 0


def cmd_canon(args) -> int:
    c = canon(parse_term(args.term))
    if args.json:
        print(dumps({"canonical": print_term(c)}))
    else:
        print(print_term(c))
    return 0


def cmd_eval(args) -> int:
    print(dumps(set_to_obj(iota(parse_term(args.term)))))
    return 0


def cmd_eq(args) -> int:
    equal = decide_eq(parse_term(args.term1), parse_term(args.term2))
    if args.json:
        print(dumps({"equal": equal}))
    else:
        print("equal" if equal else "not-equal")
    return 0 if equal else 1


def cmd_base(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except ValueError as exc:  # not UTF-8, not JSON, or a number past int()'s digits
        raise DecodeError(str(exc)) from None
    except RecursionError:  # json.loads recurses once per level of nesting
        raise DecodeError("JSON nested too deeply") from None
    s = set_from_obj(obj)
    print(dumps(set_to_obj(s)))
    return 0


def cmd_demo(args) -> int:
    # A three-atom set whose base extraction does not commute with mapping
    # atoms: x and y collapse to a, z goes to b.
    half = Fraction(1, 2)
    rename = {"x": "a", "y": "a", "z": "b"}.__getitem__
    gens = [
        dist_make([("x", half), ("y", half)]),
        dist_make([("x", half), ("z", half)]),
        d_unit("z"),
    ]
    source = from_generators(gens)
    raw, mapped = pne_d_map_then_base(rename, source.base)

    # Structural sanity of the demo itself; failing here is a bug.
    assert list(source.base) == sorted(gens)
    assert set(mapped.base) < set(raw)

    print("f maps x -> a, y -> a, z -> b")
    print("base of the source set:")
    print(dumps(set_to_obj(source)))
    print("raw images of the base under f (no closure):")
    print(dumps({"generators": [dist_to_obj(d) for d in raw]}))
    print("base of the mapped set:")
    print(dumps(set_to_obj(mapped)))
    print("raw image equals mapped base: no")
    print("mapped base contained in raw image: yes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csl",
        description="Convex sets of exact probability distributions and "
        "their choice/mix term calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    normalize = sub.add_parser("normalize", help="rewrite a term to n-p form")
    normalize.add_argument("term")
    normalize.add_argument("--json", action="store_true", help="machine-readable output")
    normalize.set_defaults(func=cmd_normalize)

    canon_cmd = sub.add_parser("canon", help="canonical representative of a term")
    canon_cmd.add_argument("term")
    canon_cmd.add_argument("--json", action="store_true", help="machine-readable output")
    canon_cmd.set_defaults(func=cmd_canon)

    eval_cmd = sub.add_parser("eval", help="evaluate a term to its convex set")
    eval_cmd.add_argument("term")
    eval_cmd.set_defaults(func=cmd_eval)

    eq = sub.add_parser("eq", help="decide semantic equality of two terms")
    eq.add_argument("term1")
    eq.add_argument("term2")
    eq.add_argument("--json", action="store_true", help="machine-readable output")
    eq.set_defaults(func=cmd_eq)

    base = sub.add_parser("base", help="unique base of a generator set (JSON)")
    base.add_argument("--file", default="-", help="JSON input path, or - for stdin")
    base.set_defaults(func=cmd_base)

    demo = sub.add_parser("demo", help="built-in demonstrations")
    demo.add_argument("what", choices=["non-natural"])
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CslError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
