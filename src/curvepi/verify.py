"""Machine verification of the group-theoretic facts behind the degree-<=5
classification: twelve independent checks, each producing a report with a
replayable artifact trail.

Reports are deterministic; the JSON rendering excludes timings so that two
runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import abelian_invariants, curve_abelianization
from .catalog import build, parse_tag, quintic_presentation
from .classify import CASES, ClassificationEntry, classify, lookup_case
from .coset_table import (
    MAX_COSETS,
    Overflow,
    table_from_action,
    todd_coxeter,
    validate_table,
)
from .derive import MAX_STATES, Inconclusive, derive_relator
from .dsl import parse_presentation, parse_word
from .geometry import load_script, run_script
from .homomorphisms import (
    IsomorphismReport,
    Refuted,
    SubstitutionMap,
    check_homomorphism,
    verify_isomorphism,
)
from .presentations import Presentation, substitute
from .schreier import simplify, subgroup_presentation
from .words import Word

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class SuiteConfig:
    """The two budgets of the checks: the cosets of each enumeration and the
    states of each derivation search.  Both are checked here, before any
    check runs."""

    def __init__(self, max_cosets: int = MAX_COSETS, max_states: int = MAX_STATES):
        if min(max_cosets, max_states) < 1:
            raise ValueError("budget fields must be positive")
        self.max_cosets = max_cosets
        self.max_states = max_states


class LemmaReport:
    def __init__(self, check_id: str, status: str, detail: str, artifacts: dict, elapsed: float):
        self.id = check_id
        self.status = status  # "pass" | "fail" | "inconclusive"
        self.detail = detail
        self.artifacts = artifacts
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        # no timings: reports must be byte-identical across runs
        return {
            "id": self.id,
            "status": self.status,
            "detail": self.detail,
            "artifacts": self.artifacts,
        }

    def __repr__(self) -> str:
        return f"LemmaReport({self.id}, {self.status})"


class _CheckFailed(Exception):
    def __init__(self, detail: str, artifacts: dict | None = None):
        super().__init__(detail)
        self.artifacts = artifacts or {}


class _CheckInconclusive(Exception):
    pass


def _require(cond: bool, detail: str, artifacts: dict | None = None) -> None:
    if not cond:
        raise _CheckFailed(detail, artifacts)


def _settle(result, what: str):
    """Decide a check's outcome from an engine result by its type: a
    CosetTable or Overflow, a ProofTrace or Inconclusive, a Verified, Refuted
    or Inconclusive map check, or an IsomorphismReport.  Any Refuted fails
    the check; otherwise any Overflow or Inconclusive leaves it
    inconclusive; either way the detail ends with ``str(result)``.  Returns
    the result when neither applies."""
    parts = result.results if isinstance(result, IsomorphismReport) else (result,)
    if any(isinstance(r, Refuted) for r in parts):
        raise _CheckFailed(f"{what}: {result}")
    if any(isinstance(r, (Overflow, Inconclusive)) for r in parts):
        raise _CheckInconclusive(f"{what}: {result}")
    return result


def _enumerated(p: Presentation, subgroup: Sequence[Word], cfg: SuiteConfig, what: str, n: int):
    """The coset table of ``subgroup`` in ``p``, enumerated within the budget,
    of index ``n`` and accepted by ``validate_table``: the index rests on a
    checked table, not on the enumerator's word."""
    t = _settle(todd_coxeter(p, subgroup, cfg.max_cosets), what)
    _require(t.n == n, f"{what}: expected {n} cosets, got {t.n}", {"cosets": t.n})
    report = validate_table(p, subgroup, t)
    _require(report.passed, f"{what}: table certificate failed: {report.failures}")
    return t


def _abelianization(p: Presentation, expected: str, what: str) -> str:
    """The display of the abelianization of ``p``, required to be
    ``expected``."""
    got = abelian_invariants(p).display()
    _require(got == expected, f"{what}: abelianization {got} != {expected}")
    return got


def _map(
    src: Presentation, dst: Presentation, images: Sequence[str]
) -> Tuple[SubstitutionMap, Dict[str, str]]:
    """The substitution sending the generators of ``src`` to the words
    ``images`` over ``dst``, and the same map as written, for the report."""
    m = SubstitutionMap(src, dst, [parse_word(dst, w) for w in images])
    return m, dict(zip(src.generators, images))


def _isomorphic(src, dst, forward, backward, cfg: SuiteConfig, what: str):
    """Certify that the maps given by the image words ``forward`` (over
    ``dst``) and ``backward`` (over ``src``) are inverse isomorphisms;
    returns both maps as written, for the report."""
    fwd, fwd_text = _map(src, dst, forward)
    bwd, bwd_text = _map(dst, src, backward)
    _settle(verify_isomorphism(fwd, bwd, cfg.max_states), what)
    return fwd_text, bwd_text


# ---------------------------------------------------------------------------
# the twelve checks


def check_v1(cfg: SuiteConfig) -> Tuple[str, dict]:
    """Order 320: the three-A4 quintic group is finite of order 320 with
    abelianization Z/5."""
    p = quintic_presentation("C5_3A4")
    t = _enumerated(p, [], cfg, "C5(3A4) enumeration", 320)
    return "order 320 with abelianization Z/5", {
        "cosets": t.n,
        "abelianization": _abelianization(p, "Z/5", "C5(3A4)"),
        "table": t.to_json(p),
    }


def check_v2(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The (2,3,5) quotient has order 60 and trivial abelianization.  The
    table of the trivial subgroup, checked by ``_enumerated``, is the regular
    action, so its permutation image has order ``t.n``."""
    q = parse_presentation("<a,b,c | a^2, b^3, c^5, abc>")
    t = _enumerated(q, [], cfg, "Gr<2,3,5>/a^2 enumeration", 60)
    inv = _abelianization(q, "0", "Gr<2,3,5>/a^2")
    return "order 60, trivial abelianization", {
        "cosets": t.n,
        "abelianization": inv,
        "permutation_order": t.n,
    }


def _psl2_elements(p: int):
    def canon(m):
        neg = tuple((-x) % p for x in m)
        return min(m, neg)

    elems = sorted(
        {
            canon((a, b, c, d))
            for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p == 1
        }
    )

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return canon(
            ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)
        )

    return elems, mul, canon((1, 0, 0, 1))


def _find_237_pair(elems, mul, identity):
    """First pair (x, y) in enumeration order with orders (2, 3) and product
    of order 7.  Whether it generates the group is left to
    ``table_from_action``, which rejects an action that is not transitive."""

    def order(m):
        k, acc = 1, m
        while acc != identity:
            acc = mul(acc, m)
            k += 1
        return k

    orders = {m: order(m) for m in elems}
    for x in elems:
        if orders[x] != 2:
            continue
        for y in elems:
            if orders[y] == 3 and orders[mul(x, y)] == 7:
                return x, y
    return None


def check_v3(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The kernel of the (2,3,7) triangle group acting on the 168-element
    projective matrix group over the 7-element field abelianizes to Z^6
    (a genus-3 surface group)."""
    elems, mul, identity = _psl2_elements(7)
    _require(len(elems) == 168, f"projective group has {len(elems)} elements")
    pair = _find_237_pair(elems, mul, identity)
    _require(pair is not None, "no (2,3,7) pair found")
    x, y = pair
    index = {m: i for i, m in enumerate(elems)}
    fa = [index[mul(m, x)] for m in elems]
    fb = [index[mul(m, y)] for m in elems]
    delta = parse_presentation("<a,b | a^2, b^3, (ab)^7>")
    t = table_from_action(delta, [fa, fb])
    raw = subgroup_presentation(delta, t)
    slim = simplify(raw)
    inv = _abelianization(slim, "Z^6", "simplified kernel")
    _abelianization(raw, "Z^6", "raw kernel")
    return "index-168 kernel abelianizes to Z^6", {
        "generating_pair": [list(x), list(y)],
        "index": t.n,
        "raw_generators": len(raw.generators),
        "raw_relators": len(raw.relators),
        "simplified_generators": len(slim.generators),
        "simplified_relators": len(slim.relators),
        "abelianization": inv,
    }


def check_v4(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The central quotient of the A6+3A2 quintic group is the (2,3,7)
    triangle group (isomorphism certified both ways)."""
    pi = quintic_presentation("C5_A6_3A2")
    # the quotient by the central u^3, in its displayed form
    q = parse_presentation("<u,v | u^3, v^7, (u v^2)^2>")
    q_raw = Presentation(pi.generators, list(pi.relators) + [parse_word(pi, "u^3")])
    _isomorphic(q_raw, q, q.generators, q.generators, cfg, "quotient normalization")
    delta = parse_presentation("<a,b | a^2, b^3, (ab)^7>")
    forward, backward = _isomorphic(
        delta, q, ("u v^2", "u"), ("b", "(ab)^3"), cfg, "quotient vs triangle group"
    )
    return "central quotient is the (2,3,7) triangle group", {"forward": forward, "backward": backward}


def check_v5(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The C4(3A2)+{x2,x2} group is the triangle Artin group on labels
    (3,3,3), via x = b c b^-1."""
    pi = quintic_presentation("C4_3A2")
    art = parse_presentation("<a,b,x | aba=bab, bxb=xbx, axa=xax>")
    forward, backward = _isomorphic(
        art, pi, ("a", "b", "b c b^-1"), ("a", "b", "b^-1 x b"), cfg, "Art_333 isomorphism"
    )
    return "isomorphic to Art_333 via x = b c b^-1", {"forward": forward, "backward": backward}


def check_v6(cfg: SuiteConfig) -> Tuple[str, dict]:
    """T_{2,2r} facts for r in {2, 3}: the quotient by (ab)^r is Z * Z/r
    (via c = ab), and T_{2,2r} abelianizes to Z^2."""
    artifacts = {}
    for r in (2, 3):
        t22r = build(parse_tag(f"toriceven:{r}"))
        inv = _abelianization(t22r, "Z^2", f"T_(2,{2*r})")
        q = Presentation(
            t22r.generators, list(t22r.relators) + [parse_word(t22r, f"(ab)^{r}")]
        )
        free_prod = parse_presentation(f"<a,c | c^{r}>")
        _isomorphic(q, free_prod, ("a", "a^-1 c"), ("a", "a b"), cfg, f"T_(2,{2*r}) quotient")
        artifacts[f"r={r}"] = {"abelianization": inv, "quotient": f"Z * Z/{r}"}
    return "toric T_{2,2r} quotients and abelianizations verified", artifacts


def check_v7(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The cubic-conic group: b^3 is central (derivation), and the quotient
    by a^3, b^3 is covered by the order-12 group <x,y | x^3, y^3, (xy)^2>,
    an index-2 subgroup of the order-24 triangle reflection group."""
    pi = quintic_presentation("C3_C2")
    central = _settle(
        derive_relator(pi, parse_word(pi, "a b^3 a^-1 b^-3"), cfg.max_states),
        "b^3 centrality derivation",
    )
    q = Presentation(
        pi.generators, list(pi.relators) + [parse_word(pi, "a^3"), parse_word(pi, "b^3")]
    )
    s = parse_presentation("<x,y | x^3, y^3, (xy)^2>")
    hom, _ = _map(s, q, ("a", "b^-1"))
    _settle(check_homomorphism(hom, cfg.max_states), "surjection check")
    onto = _enumerated(q, list(hom.images), cfg, "image subgroup index", 1)
    ts = _enumerated(s, [], cfg, "source order", 12)
    tc = _enumerated(build(parse_tag("coxeter:2,3,3")), [], cfg, "reflection group order", 24)
    return "quotient finite: covered by the order-12 rotation subgroup", {
        "centrality_steps": len(central.steps),
        "source_order": ts.n,
        "reflection_group_order": tc.n,
        "image_subgroup_index": onto.n,
    }


def check_v8(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The conic-plus-three-lines group has an index-2 right-angled Artin
    kernel: five generators, six commutator relators, complete bipartite
    commutation graph {b, b'} x {a, a', t}, abelianization Z^5."""
    pi = quintic_presentation("C2_3C1_A")
    free_abx = Presentation(["a", "b", "x"])
    to_abx, _ = _map(pi, free_abx, ("a", "b", "b^-1 x"))
    hnn = Presentation(["a", "b", "x"], [substitute(to_abx, r) for r in pi.relators])
    _isomorphic(pi, hnn, ("a", "b", "b^-1 x"), ("a", "b", "b c"), cfg, "x = bc rewriting")
    kernel_words = [
        parse_word(hnn, w) for w in ("a", "b", "x a x^-1", "x b x^-1", "x^2")
    ]
    t = _enumerated(hnn, kernel_words, cfg, "kernel index", 2)
    raw = subgroup_presentation(hnn, t)
    slim = simplify(raw)
    _require(len(slim.generators) == 5, f"{len(slim.generators)} generators != 5")
    _require(len(slim.relators) == 6, f"{len(slim.relators)} relators != 6")
    edges = set()
    for w in slim.relators:
        pair = _commutator_pair(w)
        _require(pair is not None, f"relator {w!r} is not a commutator")
        edges.add(tuple(sorted(pair)))
    _require(len(edges) == 6, "commutation graph does not have six distinct edges")
    names = slim.generators
    b_idx = {i for i, n in enumerate(names) if n.endswith("_b")}
    other = set(range(len(names))) - b_idx
    _require(len(b_idx) == 2 and len(other) == 3, "unexpected generator split")
    expected_edges = {tuple(sorted((i, j))) for i in b_idx for j in other}
    _require(
        edges == expected_edges,
        f"commutation graph is not the complete bipartite {{b,b'}} x {{a,a',t}}: {edges}",
    )
    return "index-2 kernel is the K(2,3) right-angled Artin group", {
        "kernel_generators": list(names),
        "relators": len(slim.relators),
        "bipartition": [sorted(names[i] for i in b_idx), sorted(names[i] for i in other)],
        "abelianization": _abelianization(slim, "Z^5", "kernel"),
    }


def _commutator_pair(w: Word) -> Optional[Tuple[int, int]]:
    """If w is a commutator of two distinct single letters (up to rotation),
    the 0-based generator pair."""
    if len(w.letters) != 4:
        return None
    ls = w.letters
    for k in range(4):
        r = ls[k:] + ls[:k]
        if r[0] == -r[2] and r[1] == -r[3] and abs(r[0]) != abs(r[1]):
            return (abs(r[0]) - 1, abs(r[1]) - 1)
    return None


_V9_GOLDENS = [
    ("free:1", "Z"),
    ("free:2", "Z^2"),
    ("free:3", "Z^3"),
    ("free:4", "Z^4"),
    ("braid:3", "Z"),
    ("braid:4", "Z"),
    ("toric:3,4", "Z"),
    ("toriceven:2", "Z^2"),
    ("toriceven:3", "Z^2"),
    ("gpolymod:3;1,1", "Z"),
    ("gpolymod:5;1,1", "Z"),
    ("gpoly:-1,0,1", "Z^2"),
    ("gpoly:-1,0,0,1", "Z^2"),
    ("gr:2,3,5", "0"),
    ("gr:2,3,5*free:1", "Z"),
    ("free:1*braid:3", "Z^2"),
    ("surface:1", "Z^2"),
    ("surface:2", "Z^4"),
    ("surface:3", "Z^6"),
    ("surfext:3,2", "Z^6 + Z/2"),
    ("spherebraid3", "Z/4"),
    ("artin:3,3,3", "Z"),
    ("artin:2,3,4", "Z^2"),
    ("artin:2,4,4", "Z^3"),
    ("coxeter:2,3,3", "Z/2"),
    ("quintic:C5_3A4", "Z/5"),
    ("quintic:C5_A6_3A2", "Z/5"),
    ("quintic:C4_3A2", "Z"),
    ("quintic:C3_C2", "Z"),
    ("quintic:C3_A2_x3_x2x1", "Z^2"),
    ("quintic:C2_3C1_A", "Z^3"),
    ("quintic:C2_3C1_B", "Z^3"),
]


def check_v9(cfg: SuiteConfig) -> Tuple[str, dict]:
    """Golden abelianization table for the catalog."""
    results = {}
    for tag_text, expected in _V9_GOLDENS:
        results[tag_text] = _abelianization(build(parse_tag(tag_text)), expected, tag_text)
    return f"{len(_V9_GOLDENS)} catalog abelianizations match", results


def check_v10(cfg: SuiteConfig) -> Tuple[str, dict]:
    """Blow-up replay: each fixture's expected self-intersections, 2r and
    criterion verdict (the paper's thirteen printed values), exactly."""
    results = {}
    directory = os.path.join(DATA_DIR, "blowup")
    for name in sorted(os.listdir(directory)):
        case = name[: -len(".json")]
        script = load_script(os.path.join(directory, name))
        ledger, report = run_script(script)
        rows = {cid: [cc, two_r] for cid, cc, two_r, _ in report.rows}
        got = {
            "self_int": {cid: cc for cid, (cc, _) in rows.items()},
            "two_r": {cid: two_r for cid, (_, two_r) in rows.items()},
            "nori": report.overall,
            "exceptional": len(ledger.exceptional),
        }
        # one exceptional curve per blow-up unless the fixture says otherwise
        expect = {"exceptional": len(script["steps"]), **script["expect"]}
        _require(got == expect, f"case {case}: replay gives {got}, the fixture expects {expect}")
        results[case] = {"self_intersections": rows, "nori": report.overall}
    _require(len(results) == 13, f"{len(results)} blow-up fixtures, not the paper's thirteen")
    return "all thirteen blow-up values and inequalities reproduced", results


def check_v11(cfg: SuiteConfig) -> Tuple[str, dict]:
    """Classifier goldens: keyed rows classify from their reference types;
    the table is complete; every presentation's abelianization matches the
    component-degree formula; finite orders are certified by enumeration."""
    expected_labels = {
        "1.1", "1.2", "1.3",
        "2.1.1", "2.1.2", "2.1.3",
        "2.2.1", "2.2.2", "2.2.3", "2.2.4", "2.2.5",
        "2.3.1", "2.3.2", "2.3.3", "2.3.4", "2.3.5",
        "3.1", "3.2", "3.3", "3.4", "3.5",
        "4.1", "4.2", "4.3", "4.4", "4.5",
        "C4(3A2)",
        "C5(3A4)", "C5(A6+3A2)", "C4(3A2)+{x2,x2}",
        "C4+C1:B3", "C4+C1:B4", "C4+C1:G3(t+1)", "C4+C1:G5(t+1)",
        "C4+C1:Gr(2,3,5)xZ", "C4+C1:T(3,4)",
        "C3+C2",
        "C3+2C1:ZxB3", "C3+2C1:G(t^2-1)", "C3+2C1:G(t^3-1)",
        "C3+2C1:T(2,4)", "C3+2C1:T(2,6)", "C3(A2)+{x3}+{x2,x1}",
        "2C2+C1:F2", "2C2+C1:T(2,4)", "2C2+C1:ZxB3",
        "C2+3C1:ZxF2", "C2+3C1:ZxT(2,4)", "C2+3C1:Pi", "C2+3C1:Art244",
        "5C1:F4", "5C1:ZxF3", "5C1:F2xF2", "5C1:Z2xF2",
    }
    missing = expected_labels - set(CASES)
    _require(not missing, f"table rows missing: {sorted(missing)}")
    consistency = {}
    for label, row in CASES.items():
        entry = lookup_case(label)
        if row.type is not None:
            got = classify(row.type)
            _require(
                isinstance(got, ClassificationEntry) and got.group_name == entry.group_name,
                f"{label}: got {got!r}, expected {entry.group_name!r}",
            )
        if entry.presentation is None:
            continue
        want = curve_abelianization(row.degrees).display()
        consistency[label] = _abelianization(entry.presentation, want, label)
        if entry.finite_order is not None:
            _enumerated(entry.presentation, [], cfg, f"{label} order", entry.finite_order)
    return "classifier table complete and consistent with the degree formula", {
        "rows": len(CASES),
        "keyed_rows": sum(row.key is not None for row in CASES.values()),
        "abelianizations": consistency,
    }


def check_v12(cfg: SuiteConfig) -> Tuple[str, dict]:
    """The three-cusped-quartic group (sphere braid group on three strands)
    has order 12."""
    p = build(parse_tag("spherebraid3"))
    t = _enumerated(p, [], cfg, "sphere braid group order", 12)
    return "sphere braid group on three strands has order 12", {"cosets": t.n}


_CHECKS: Dict[str, Tuple[Callable, str]] = {
    "V1": (check_v1, "order-320 quintic group"),
    "V2": (check_v2, "Gr<2,3,5> quotient is the order-60 group"),
    "V3": (check_v3, "(2,3,7) kernel is a genus-3 surface group"),
    "V4": (check_v4, "central quotient is the (2,3,7) triangle group"),
    "V5": (check_v5, "C4(3A2)+{x2,x2} group is Art_333"),
    "V6": (check_v6, "toric link group quotients"),
    "V7": (check_v7, "cubic-conic group is virtually Z^2 (finite quotient data)"),
    "V8": (check_v8, "index-2 right-angled Artin kernel"),
    "V9": (check_v9, "catalog abelianization goldens"),
    "V10": (check_v10, "blow-up arithmetic replay"),
    "V11": (check_v11, "classifier goldens"),
    "V12": (check_v12, "sphere braid group order 12"),
}

ALL_CHECKS = list(_CHECKS)


def run_suite(
    selection: Optional[Sequence[str]] = None,
    config: Optional[SuiteConfig] = None,
) -> List[LemmaReport]:
    """Run the checks named in ``selection``, every check when it is None;
    an empty selection, or one that names a check twice, is an error, not
    an empty or a doubled report."""
    cfg = config or SuiteConfig()
    chosen = ALL_CHECKS if selection is None else list(selection)
    known = ", ".join(ALL_CHECKS)
    if not chosen:
        raise ValueError(f"no check selected; known: {known}")
    for i, check_id in enumerate(chosen):
        if check_id not in _CHECKS:
            raise KeyError(f"unknown check {check_id!r}; known: {known}")
        if check_id in chosen[:i]:
            raise ValueError(f"check {check_id!r} selected twice")
    reports = []
    for check_id in chosen:
        fn, _ = _CHECKS[check_id]
        start = time.perf_counter()
        try:
            detail, artifacts = fn(cfg)
            status = "pass"
        except _CheckFailed as exc:
            status, detail, artifacts = "fail", str(exc), exc.artifacts
        except _CheckInconclusive as exc:
            status, detail, artifacts = "inconclusive", str(exc), {}
        except Exception as exc:  # one broken check must not sink the report
            status, detail, artifacts = "fail", f"{type(exc).__name__}: {exc}", {}
        reports.append(LemmaReport(check_id, status, detail, artifacts, time.perf_counter() - start))
    return reports


def suite_json(reports: Sequence[LemmaReport]) -> str:
    doc = {
        "suite": [r.to_json() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
