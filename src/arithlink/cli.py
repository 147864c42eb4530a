"""Command-line front end.

Subcommands: symbol, solve, magnus, verify.  Exit codes: 0 ok, 1 for a
mathematical obstruction, failed verification, exhausted search bound or
internal inconsistency, 2 for usage/parse errors.
Output is deterministic; --json switches to a machine-readable rendering
with the same values.
"""

import argparse
import json
import sys

from . import arithmetic, linking, verify
from .errors import (ConsistencyError, InputError, ParseError,
                     SearchBoundError)
from .magnus import eps, magnus_matrix
from .rings import ResidueRing
from .unitriangular import filtration_depth
from .words import parse_word

USAGE_EXIT = 2
OBSTRUCTION_EXIT = 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arithlink",
        description="Arithmetic linking invariants: unitriangular groups, "
                    "Magnus coefficients, Legendre and Redei symbols.")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p_symbol = sub.add_parser("symbol", help="evaluate a classical symbol")
    p_symbol.add_argument("kind", choices=["legendre", "mu", "redei"])
    p_symbol.add_argument("primes", nargs="+", type=int)

    p_solve = sub.add_parser("solve", help="solve a presentation file")
    p_solve.add_argument("path")

    p_magnus = sub.add_parser("magnus", help="Magnus matrix and coefficient")
    p_magnus.add_argument("word")
    p_magnus.add_argument("--idx", required=True,
                          help="comma-separated index labels, e.g. 1,2")
    p_magnus.add_argument("--q", type=int, default=2)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES))
    p_verify.add_argument("--max", type=int, default=200)
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--q", type=int, default=2)
    p_verify.add_argument("--samples", type=int, default=100)

    return parser


def _emit(args, payload, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _matrix_payload(mat):
    return {"n": mat.n, "q": mat.ring.q,
            "entries": [[k, l, v] for (k, l), v in mat.data]}


def cmd_symbol(args):
    expected = {"legendre": 2, "mu": 2, "redei": 3}[args.kind]
    if len(args.primes) != expected:
        raise InputError(
            f"symbol {args.kind} takes {expected} integers, got {len(args.primes)}")
    if args.kind == "legendre":
        a, p = args.primes
        value = arithmetic.legendre(a, p)
        payload = {"status": "ok", "kind": "legendre", "args": [a, p],
                   "value": value, "mod2": 1 if value == -1 else 0}
        lines = [f"legendre({a}, {p}) = {value:+d}"]
    elif args.kind == "mu":
        pi, pj = args.primes
        value = arithmetic.mu_linking_number(pi, pj)
        payload = {"status": "ok", "kind": "mu", "args": [pi, pj],
                   "value": value, "mod2": value}
        lines = [f"mu({pi}, {pj}) = {value}"]
    else:
        p1, p2, p3 = args.primes
        result = arithmetic.redei_symbol(p1, p2, p3)
        payload = {"status": "ok", "kind": "redei", "args": [p1, p2, p3],
                   "value": result.value,
                   "mod2": 0 if result.value == 1 else 1,
                   "witnesses": dict(result.witnesses)}
        lines = [f"redei[{p1}, {p2}, {p3}] = {result.value:+d}"]
        lines += arithmetic.format_symbol_result(result).splitlines()[1:]
    _emit(args, payload, lines)
    return 0


def cmd_solve(args):
    with open(args.path, encoding="utf-8") as fh:
        pres = linking.parse_presentation(fh.read())
    outcome = linking.build_globalization(pres)
    if isinstance(outcome, linking.Obstruction):
        payload = {"status": "obstruction",
                   "failures": [
                       {"relator": str(rel.word), "depth": depth,
                        "image": _matrix_payload(image)}
                       for rel, image, depth in outcome.failures]}
        lines = ["obstruction", outcome.describe()]
        _emit(args, payload, lines)
        return OBSTRUCTION_EXIT
    lines = [f"ok: globalization into U_{pres.n} over Z/{pres.ring.q}"]
    gens = {}
    for label, mat in outcome.assignment:
        gens[label] = _matrix_payload(mat)
        lines.append(f"generator {label}:")
        lines.append(str(mat))
    depths = {}
    for slot in pres.slots:
        if slot.sigma is not None:
            depth = filtration_depth(outcome.matrix(slot.sigma))
            depths[slot.sigma] = depth
            lines.append(f"sigma {slot.sigma}: filtration depth {depth}")
    payload = {"status": "ok", "n": pres.n, "q": pres.ring.q,
               "generators": gens, "sigma_depths": depths}
    _emit(args, payload, lines)
    return 0


def cmd_magnus(args):
    word = parse_word(args.word)
    labels = []
    for tok in args.idx.split(","):
        tok = tok.strip()
        if not tok:
            raise InputError("empty index label")
        labels.append(f"t{tok}" if tok.isdigit() else tok)
    ring = ResidueRing(args.q)
    mat = magnus_matrix(word, labels, ring)
    coefficient = eps(word, labels, ring)
    payload = {"status": "ok", "word": str(word), "index": labels,
               "q": args.q, "eps": coefficient,
               "matrix": _matrix_payload(mat)}
    lines = [f"Magnus matrix in U_{len(labels)} over Z/{args.q}:",
             str(mat), f"eps = {coefficient}"]
    _emit(args, payload, lines)
    return 0


def cmd_verify(args):
    suite = verify.SUITES[args.suite]
    if args.suite == "reciprocity":
        summary = suite(max_p=args.max)
    elif args.suite == "fiber":
        summary = suite(n=args.n, q=args.q)
    else:
        summary = suite(n=args.n, q=args.q, samples=args.samples)
    ok = summary["failures"] == 0
    summary["status"] = "ok" if ok else "failed"
    lines = [f"{args.suite}: {summary['cases']} cases, "
             f"{summary['failures']} failures "
             f"[{'pass' if ok else 'FAIL'}]"]
    _emit(args, summary, lines)
    return 0 if ok else OBSTRUCTION_EXIT


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"symbol": cmd_symbol, "solve": cmd_solve,
                "magnus": cmd_magnus, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (ConsistencyError, SearchBoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return OBSTRUCTION_EXIT


if __name__ == "__main__":
    sys.exit(main())
