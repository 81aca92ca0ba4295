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


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing starts each call from a fresh
    namespace, so no value of one call reaches the next."""
    parser = argparse.ArgumentParser(
        prog="curvepi",
        description=(
            "Finitely presented group toolkit and plane-curve complement "
            "classifier (degree <= 5)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    def add_max_cosets(p):
        p.add_argument("--max-cosets", type=int, default=MAX_COSETS, metavar="N",
                       help="coset budget of each enumeration; dead cosets are compacted "
                       "away when it fills (default %(default)s)")

    p_ab = sub.add_parser("ab", help="abelian invariants of a presentation")
    p_ab.add_argument("presentation", help="inline DSL, file path, or - for stdin")
    add_json(p_ab)
    p_ab.set_defaults(fn=_cmd_ab)

    p_tc = sub.add_parser("tc", help="coset enumeration")
    p_tc.add_argument("presentation", nargs="?", default="-")
    p_tc.add_argument("--subgroup", action="append", metavar="WORD",
                      help="subgroup generator word (repeatable)")
    p_tc.add_argument("--quotient-by", action="append", metavar="WORD",
                      help="extra relator to impose (repeatable)")
    add_max_cosets(p_tc)
    p_tc.add_argument("--stats", action="store_true",
                      help="print the enumeration's work counts to stderr")
    add_json(p_tc)
    p_tc.set_defaults(fn=_cmd_tc)

    p_rs = sub.add_parser("rs", help="subgroup presentation by rewriting")
    p_rs.add_argument("presentation")
    p_rs.add_argument("--subgroup", action="append", required=True, metavar="WORD")
    p_rs.add_argument("--raw", action="store_true", help="skip simplification")
    add_max_cosets(p_rs)
    add_json(p_rs)
    p_rs.set_defaults(fn=_cmd_rs)

    p_cat = sub.add_parser("catalog", help="named group presentations")
    p_cat.add_argument("tag", help="e.g. toric:3,4 artin:333 quintic:C4_3A2 free:1*braid:3")
    add_json(p_cat)
    p_cat.set_defaults(fn=_cmd_catalog)

    p_blow = sub.add_parser("blowup", help="replay a blow-up script")
    p_blow.add_argument("--script", required=True)
    add_json(p_blow)
    p_blow.set_defaults(fn=_cmd_blowup)

    p_cls = sub.add_parser("classify", help="classify a combinatorial type")
    p_cls.add_argument("--type", required=True, help="JSON file")
    add_json(p_cls)
    p_cls.set_defaults(fn=_cmd_classify)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--only", metavar="IDS", help=f"comma-separated from {','.join(ALL_CHECKS)}")
    p_ver.add_argument("--budget", type=int, default=MAX_STATES, metavar="N",
                       help="state budget of each derivation search (default %(default)s)")
    add_max_cosets(p_ver)
    add_json(p_ver)
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
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


if __name__ == "__main__":
    sys.exit(main())
