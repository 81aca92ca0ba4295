"""Command-line front end.

Presentations are accepted inline (text starting with "<" or an angle
bracket) or as file paths; ``-`` reads standard input.  Exit codes:
0 success, 1 domain failure (overflow, not covered, failed check),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .abelian import abelian_invariants
from .catalog import build, parse_tag
from .classify import NotCovered, classify
from .coset_table import MAX_COSETS, Overflow, todd_coxeter
from .dsl import ParseError, parse_presentation, parse_word
from .geometry import CombinatorialType, load_script, run_script, validate_combinatorial_type
from .presentations import Presentation, format_presentation
from .schreier import simplify, subgroup_presentation
from .verify import ALL_CHECKS, SuiteConfig, run_suite, suite_json
from .derive import MAX_STATES


def _read_presentation(source: str) -> Presentation:
    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith(("<", "⟨")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_presentation(text)


def _cmd_ab(args) -> int:
    p = _read_presentation(args.presentation)
    inv = abelian_invariants(p)
    if args.json:
        print(json.dumps(inv.to_json(), sort_keys=True))
    else:
        print(inv.display())
    return 0


def _overflow(result: Overflow) -> int:
    """Print which enumeration budget ran out; returns the exit code 1."""
    print(f"overflow: {result}; index may be infinite", file=sys.stderr)
    return 1


def _cmd_tc(args) -> int:
    p = _read_presentation(args.presentation)
    extra = []
    for w in args.quotient_by or []:
        extra.append(parse_word(p, w))
    if extra:
        p = Presentation(p.generators, list(p.relators) + extra)
    subgroup = [parse_word(p, w) for w in args.subgroup or []]
    result = todd_coxeter(p, subgroup, args.max_cosets)
    if args.stats:
        s = result.stats
        print(
            f"stats: {s.allocated} cosets allocated, {s.dead} dead, "
            f"{s.scan_steps} scan steps, {s.skipped} scans skipped, "
            f"{s.peak_live} peak live, {s.compactions} compactions",
            file=sys.stderr,
        )
    if isinstance(result, Overflow):
        return _overflow(result)
    if args.json:
        print(json.dumps(result.to_json(p), sort_keys=True))
    else:
        print(result.n)
    return 0


def _cmd_rs(args) -> int:
    p = _read_presentation(args.presentation)
    subgroup = [parse_word(p, w) for w in args.subgroup]
    result = todd_coxeter(p, subgroup, args.max_cosets)
    if isinstance(result, Overflow):
        return _overflow(result)
    sp = subgroup_presentation(p, result)
    if not args.raw:
        sp = simplify(sp)
    if args.json:
        print(json.dumps({"index": result.n, "presentation": sp.to_json()}, sort_keys=True))
    else:
        print(f"index: {result.n}")
        print(format_presentation(sp))
    return 0


def _cmd_catalog(args) -> int:
    p = build(parse_tag(args.tag))
    if args.json:
        print(json.dumps(p.to_json(), sort_keys=True))
    else:
        print(format_presentation(p))
    return 0


def _cmd_blowup(args) -> int:
    script = load_script(args.script)
    ledger, report = run_script(script)
    doc = {
        "case": script.get("case"),
        "self_intersections": dict(sorted(ledger.self_int.items())),
        "exceptional_divisors": len(ledger.exceptional),
        "criterion": {
            "rows": [
                {"component": cid, "self_intersection": cc, "two_r": two_r, "pass": ok}
                for cid, cc, two_r, ok in report.rows
            ],
            "overall": report.overall,
            "d_nodal_only": report.d_nodal_only,
            "d_e_transverse": report.d_e_transverse,
            "notes": list(report.notes),
        },
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for cid, cc, two_r, ok in report.rows:
            print(f"{cid}: self-intersection {cc} > {two_r} -> {'pass' if ok else 'FAIL'}")
        print(f"exceptional divisors: {len(ledger.exceptional)}")
        print(f"criterion: {'pass' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def _cmd_classify(args) -> int:
    with open(args.type, "r", encoding="utf-8") as fh:
        ct = CombinatorialType.from_json(json.load(fh))
    report = validate_combinatorial_type(ct)
    if not report.ok:
        print(f"invalid combinatorial type: {report.violations}", file=sys.stderr)
        return 1
    result = classify(ct)
    if isinstance(result, NotCovered):
        if args.json:
            print(json.dumps({"not_covered": result.key, "reason": result.reason}, sort_keys=True))
        else:
            print(f"not covered: {result.key} ({result.reason})", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True, ensure_ascii=False))
    else:
        print(result.display())
    return 0


def _cmd_verify(args) -> int:
    selection = None
    if args.only is not None:
        selection = [s.strip() for s in args.only.split(",") if s.strip()]
    reports = run_suite(selection, SuiteConfig(args.max_cosets, args.budget))
    if args.json:
        sys.stdout.write(suite_json(reports))
    else:
        for r in reports:
            print(f"{r.id:4} {r.status.upper():13} {r.elapsed:7.2f}s  {r.detail}")
        n_pass = sum(r.passed for r in reports)
        print(f"{n_pass}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


_JSON = ("--json", dict(action="store_true", help="emit JSON"))
_MAX_COSETS = ("--max-cosets", dict(
    type=int, default=MAX_COSETS, metavar="N",
    help="coset budget of each enumeration; dead cosets are compacted away when it fills "
    "(default %(default)s)",
))

# each command: its help line, what runs it, and its arguments
_COMMANDS = {
    "ab": ("abelian invariants of a presentation", _cmd_ab, [
        ("presentation", dict(help="inline DSL, file path, or - for stdin")), _JSON,
    ]),
    "tc": ("coset enumeration", _cmd_tc, [
        ("presentation", dict(nargs="?", default="-")),
        ("--subgroup", dict(action="append", metavar="WORD", help="subgroup generator word (repeatable)")),
        ("--quotient-by", dict(action="append", metavar="WORD", help="extra relator to impose (repeatable)")),
        _MAX_COSETS,
        ("--stats", dict(action="store_true", help="print the enumeration's work counts to stderr")),
        _JSON,
    ]),
    "rs": ("subgroup presentation by rewriting", _cmd_rs, [
        ("presentation", {}),
        ("--subgroup", dict(action="append", required=True, metavar="WORD")),
        ("--raw", dict(action="store_true", help="skip simplification")),
        _MAX_COSETS, _JSON,
    ]),
    "catalog": ("named group presentations", _cmd_catalog, [
        ("tag", dict(help="e.g. toric:3,4 artin:333 quintic:C4_3A2 free:1*braid:3")), _JSON,
    ]),
    "blowup": ("replay a blow-up script", _cmd_blowup, [("--script", dict(required=True)), _JSON]),
    "classify": ("classify a combinatorial type", _cmd_classify, [
        ("--type", dict(required=True, help="JSON file")), _JSON,
    ]),
    "verify": ("run the verification suite", _cmd_verify, [
        ("--only", dict(metavar="IDS", help=f"comma-separated from {','.join(ALL_CHECKS)}")),
        ("--budget", dict(type=int, default=MAX_STATES, metavar="N",
                          help="state budget of each derivation search (default %(default)s)")),
        _MAX_COSETS, _JSON,
    ]),
}


@functools.cache
def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser with the subparser of ``command`` only, or of
    every command without one, built once per process.  ``main`` builds
    the full parser only when no known command comes first, since most of
    a parser's cost is building it, and the full one builds eight.  Ask
    for it as ``make_parser()``: the cache keys ``make_parser(None)``
    apart, and would build it twice.  A parser with one subparser names
    all the commands in its usage line, so its messages read as the full
    parser's.  Parsing starts each call from a fresh namespace, so no
    value of one call reaches the next."""
    parser = argparse.ArgumentParser(
        prog="curvepi",
        description=(
            "Finitely presented group toolkit and plane-curve complement "
            "classifier (degree <= 5)."
        ),
    )
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if command is None else every)
    for name, (help_line, run, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(fn=run)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # an unknown or missing command gets the full parser and its messages
    parser = make_parser(argv[0]) if argv and argv[0] in _COMMANDS else make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a power under MAX_LETTERS letters can still be too long to build
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
