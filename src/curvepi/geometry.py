"""Combinatorial types of plane curves and blow-up bookkeeping.

Singularity kinds are the ones the degree-<=5 case analysis uses.  One
table, ``_KINDS``, holds each kind's local data: how many branches a
singularity of that kind lists (one owning component each), the
delta-invariant of the first listed branch (a cusp A_2k costs k; a node or
cusp that a line passes through is listed as one branch of delta 1), and
the local intersection number of each pair of listed branches.  Pairs on
distinct components make up the Bezout sums.  A component's share of the
genus bound is the standard delta = sum of the branches' deltas + sum over
pairs of their intersection numbers, over the branches that lie on it
(Wall, Singular Points of Plane Curves, 2004): a self-node A1 (C, C) costs
C one, an ordinary m-fold self-point m(m-1)/2.  A decorated kind (A1T, A1*,
A2T, A2*, A3T) may list one component twice; its branch pairs on that
component then count toward the component's delta.

Blow-up scripts are explicit fixtures: each step names a point; the ledger
applies the self-intersection drop m^2 per incident component (a point
names each component once) and counts the exceptional divisor.  One table,
``_POINT_KINDS``, holds each point kind's check of its parties'
multiplicities and its blow-up rule, the point left after the blow-up
(cusp -> tangency with the new exceptional curve, tangency of order k ->
order k-1, order 2 -> ordinary triple point with that curve).  Nodes and
ordinary multiple points have no rule: "resolved" means "no blow-up rule".
Anything outside that vocabulary is rejected.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Sequence, Tuple


# ---------------------------------------------------------------------------
# combinatorial types

# kind -> (listed branches, delta of the first branch, ((i, j, m), ...)),
# m the local intersection number of listed branches i and j
_Kind = Tuple[int, int, Tuple[Tuple[int, int, int], ...]]


def _ordinary(n: int) -> _Kind:
    """An ordinary n-fold point: n pairwise transverse smooth branches."""
    return n, 0, tuple((i, j, 1) for i in range(n) for j in range(i + 1, n))


_KINDS: Dict[str, _Kind] = {
    # two smooth branches with contact k: a node (A1), a simple tangency
    # (A3), an inflectional one (A5), two conics meeting at one point (A7)
    "A1": (2, 0, ((0, 1, 1),)),
    "A3": (2, 0, ((0, 1, 2),)),
    "A5": (2, 0, ((0, 1, 3),)),
    "A7": (2, 0, ((0, 1, 4),)),
    "A9": (2, 0, ((0, 1, 5),)),
    # cusps of one component (e.g. the quintic with three A4 points)
    "A2": (1, 1, ()),
    "A4": (1, 2, ()),
    "A6": (1, 3, ()),
    # a line through a node (A1) or a cusp (A2), transverse or tangent (*)
    "A1T": (2, 1, ((0, 1, 2),)),
    "A1*": (2, 1, ((0, 1, 3),)),
    "A2T": (2, 1, ((0, 1, 2),)),
    "A2*": (2, 1, ((0, 1, 3),)),
    # tangency of branches 0 and 1, branch 2 transverse to both
    "A3T": (3, 0, ((0, 1, 2), (0, 2, 1), (1, 2, 1))),
    "O3": _ordinary(3),
    "O4": _ordinary(4),
    "O5": _ordinary(5),
}

# contact order d of a tangency, written "xd", as the A-kind it is
_TANGENCY_MARKER = {"x1": "A1", "x2": "A3", "x3": "A5", "x4": "A7", "x5": "A9"}


class Singularity:
    """kind, a location id, and the owning components (one entry per
    branch, so a self-node lists its component twice)."""

    __slots__ = ("kind", "at", "owners")

    def __init__(self, kind: str, at: str, owners: Sequence[str]):
        kind = _TANGENCY_MARKER.get(kind, kind)
        if kind not in _KINDS:
            raise ValueError(f"unsupported singularity kind {kind!r}")
        owners = tuple(owners)
        if kind == "O3" and len(owners) == 3 and len(set(owners)) == 2:
            # a triple point of two components is a node of the one listed
            # twice with a line through it, transverse to both branches: the
            # same delta and intersection numbers, spelled one way
            kind = "A1T"
            owners = tuple(sorted(set(owners), key=owners.count, reverse=True))
        self.kind = kind
        self.at = at
        self.owners = owners

    def __repr__(self) -> str:
        return f"Singularity({self.kind!r}, {self.at!r}, {self.owners!r})"


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _shaped(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (dict, list, str or int), else a
    ValueError: a document of the wrong shape is bad input, like bad JSON."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} is not a JSON {_JSON_TYPES[kind]}")
    return value


def _field(doc: dict, key: str, of: str):
    """``doc[key]``; a missing field is bad input too, named with ``of``,
    the object that lacks it."""
    if key not in doc:
        raise ValueError(f'{of} has no "{key}" field')
    return doc[key]


def _items(doc: dict, key: str, of: str, what: str) -> List[dict]:
    """The objects of the array ``doc[key]``; ``what`` names one of them."""
    items = _shaped(_field(doc, key, of), list, key)
    return [_shaped(x, dict, f"{what} {i}") for i, x in enumerate(items)]


def _strings(value, what: str) -> List[str]:
    return [_shaped(x, str, f"an entry of {what}") for x in _shaped(value, list, what)]


def _pairs(value, what: str) -> List[Tuple[str, int]]:
    """The [id, multiplicity] entries of a JSON array."""
    pairs = []
    for x in _shaped(value, list, what):
        if not (isinstance(x, list) and len(x) == 2):
            raise ValueError(f"an entry of {what} is not an [id, multiplicity] array")
        cid = _shaped(x[0], str, f"an id in {what}")
        pairs.append((cid, _shaped(x[1], int, f"a multiplicity in {what}")))
    return pairs


def _components(doc: dict, of: str) -> List[Tuple[str, int]]:
    """The (id, degree) pairs of a document's "components" array."""
    return [
        (
            _shaped(_field(c, "id", f"component {i}"), str, f"id of component {i}"),
            _shaped(_field(c, "degree", f"component {i}"), int, f"degree of component {i}"),
        )
        for i, c in enumerate(_items(doc, "components", of, "component"))
    ]


class CombinatorialType:
    __slots__ = ("components", "singularities")

    def __init__(
        self,
        components: Sequence[Tuple[str, int]],
        singularities: Sequence[Singularity] = (),
    ):
        comps = []
        seen = set()
        for cid, deg in components:
            if cid in seen:
                raise ValueError(f"duplicate component id {cid!r}")
            seen.add(cid)
            comps.append((cid, int(deg)))
        self.components = tuple(comps)
        self.singularities = tuple(singularities)

    @property
    def degrees(self) -> List[int]:
        return [d for _, d in self.components]

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    @classmethod
    def from_json(cls, data: dict) -> "CombinatorialType":
        what = "a combinatorial type"
        _shaped(data, dict, what)
        sings = [
            Singularity(
                _shaped(_field(s, "kind", f"singularity {i}"), str, f"kind of singularity {i}"),
                _shaped(s.get("at", f"p{i}"), str, f'"at" of singularity {i}'),
                _strings(_field(s, "owners", f"singularity {i}"), f"owners of singularity {i}"),
            )
            for i, s in enumerate(_items(data, "singularities", what, "singularity"))
        ]
        return cls(_components(data, what), sings)

    def __repr__(self) -> str:
        return f"CombinatorialType(degrees={self.degrees}, singularities={len(self.singularities)})"


class TypeReport:
    __slots__ = ("violations",)

    def __init__(self, violations: Sequence[Tuple[str, object]]):
        self.violations = tuple(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return f"TypeReport(ok={self.ok}, violations={list(self.violations)})"


def _pairwise_contacts(s: Singularity) -> Dict[Tuple[str, str], int]:
    """Local intersection numbers this singularity contributes to each
    unordered pair of distinct components."""
    out: Dict[Tuple[str, str], int] = {}
    for i, j, m in _KINDS[s.kind][2]:
        a, b = sorted((s.owners[i], s.owners[j]))
        if a != b:
            out[a, b] = out.get((a, b), 0) + m
    return out


def _self_delta(s: Singularity, cid: str) -> int:
    """Delta-invariant this singularity charges against component cid: the
    first branch's delta if it lies on cid, plus m over every listed pair
    of branches that both lie on cid."""
    _, delta, pairs = _KINDS[s.kind]
    o = s.owners
    return (delta if o[0] == cid else 0) + sum(m for i, j, m in pairs if o[i] == o[j] == cid)


def validate_combinatorial_type(ct: CombinatorialType) -> TypeReport:
    """Checks: at least one component, degrees positive, total degree
    flagged above 5, singularity arities and owner references, pairwise
    Bezout sums, and the genus bound sum(delta) <= (d-1)(d-2)/2 per
    component."""
    violations: List[Tuple[str, object]] = []
    if not ct.components:
        violations.append(("type has no components", 0))
    ids = {c for c, _ in ct.components}
    for c, d in ct.components:
        if d < 1:
            violations.append(("component degree must be positive", c))
    if ct.total_degree > 5:
        violations.append(("total degree exceeds 5", ct.total_degree))
    for s in ct.singularities:
        branches = _KINDS[s.kind][0]
        if len(s.owners) != branches:
            violations.append(
                (f"{s.kind} expects {branches} branches", (s.at, len(s.owners)))
            )
            continue
        for o in s.owners:
            if o not in ids:
                violations.append(("unknown component in singularity", (s.at, o)))
    if violations:
        return TypeReport(violations)
    # Bezout: for each pair of distinct components the listed local
    # intersection numbers must sum to the product of the degrees
    totals: Dict[Tuple[str, str], int] = {}
    for s in ct.singularities:
        for pair, m in _pairwise_contacts(s).items():
            totals[pair] = totals.get(pair, 0) + m
    comps = list(ct.components)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            a, b = comps[i][0], comps[j][0]
            want = comps[i][1] * comps[j][1]
            got = totals.get((min(a, b), max(a, b)), 0)
            if got != want:
                violations.append(
                    ("pairwise intersection numbers violate Bezout", (a, b, got, want))
                )
    # genus bound per component
    for c, d in ct.components:
        delta = sum(_self_delta(s, c) for s in ct.singularities)
        bound = (d - 1) * (d - 2) // 2
        if delta > bound:
            violations.append(("genus bound violated", (c, delta, bound)))
    return TypeReport(violations)


# ---------------------------------------------------------------------------
# blow-up ledger

def _curve_then_lines(lines: int):
    """One (C, 2) party, then at least ``lines`` smooth ones."""
    return lambda ms: len(ms) > lines and ms[0] == 2 and all(m == 1 for m in ms[1:])


def _cusp_rule(ids: List[str], order: int, e: str):
    # the cusp's curve comes out smooth and tangent to E, to order 2
    return "tangency", [ids[0], e], 2


# point kind -> (check of its parties' multiplicities, the message when it
# fails, blow-up rule).  A rule maps the point's party ids, its order and the
# new exceptional curve E to the kind, party ids (all smooth) and order of
# the one point left.  A kind without a rule (None) is resolved.
_POINT_KINDS = {
    "node": (lambda ms: ms.count(2) <= 1, "a node has at most one doubled component", None),
    "multiple": (lambda ms: all(m == 1 for m in ms), "multiple branches are smooth (m = 1)", None),
    "cusp": (_curve_then_lines(0), "cusp expects parties (C, 2) then lines (L, 1)", _cusp_rule),
    "cusp_tangent_line": (
        _curve_then_lines(1),
        "cusp_tangent_line needs a line through the point: parties (C, 2) then lines (L, 1)",
        _cusp_rule,
    ),
    # the two branches separate; the tangent line, the branch it was
    # tangent to, and E form an ordinary triple point
    "node_tangent_line": (
        _curve_then_lines(1),
        "node_tangent_line needs a line through the point: parties (C, 2) then lines (L, 1)",
        lambda ids, order, e: ("multiple", [ids[0], ids[1], e], 0),
    ),
    # order k > 2 drops to k - 1; order 2 becomes a triple point with E
    "tangency": (
        lambda ms: ms == [1, 1],
        "a tangency has two branches, both smooth (m = 1)",
        lambda ids, order, e: (
            ("tangency", ids, order - 1) if order > 2 else ("multiple", ids + [e], 0)
        ),
    ),
}


def _parties(parties, what: str) -> Tuple[Tuple[str, int], ...]:
    """(id, multiplicity) pairs that name at least one component, none twice."""
    out = tuple((str(c), int(m)) for c, m in parties)
    if not out:
        raise ValueError(f"{what} must lie on at least one component")
    ids = [c for c, _ in out]
    if len(set(ids)) < len(ids):
        raise ValueError(f"{what} names {max(ids, key=ids.count)!r} twice")
    return out


class Point:
    """A remembered point of the arrangement: parties are
    (component-or-exceptional id, local multiplicity) pairs.  Only a
    tangency has an order, its contact order (>= 2)."""

    __slots__ = ("id", "kind", "parties", "order")

    def __init__(self, pid: str, kind: str, parties: Sequence[Tuple[str, int]], order: int = 0):
        if kind not in _POINT_KINDS:
            raise ValueError(f"unsupported point kind {kind!r}")
        if (order < 2) if kind == "tangency" else (order != 0):
            raise ValueError("tangency order must be >= 2; other points have none")
        for _, m in parties:
            if m not in (1, 2):
                raise ValueError("local multiplicities are 1 (smooth) or 2 (node/cusp)")
        self.parties = _parties(parties, f"point {pid!r}")
        check, message, _ = _POINT_KINDS[kind]
        if not check([m for _, m in self.parties]):
            raise ValueError(message)
        self.id = pid
        self.kind = kind
        self.order = order

    def __repr__(self) -> str:
        return f"Point({self.id!r}, {self.kind!r}, parties={self.parties}, order={self.order})"


class BlowUpLedger:
    """Immutable snapshot: per-component self-intersection, remaining
    points, and the exceptional divisor count."""

    __slots__ = ("self_int", "points", "exceptional")

    def __init__(
        self,
        self_int: Dict[str, int],
        points: Sequence[Point],
        exceptional: Sequence[str] = (),
    ):
        self.self_int = dict(self_int)
        self.points = tuple(points)
        self.exceptional = tuple(exceptional)
        # blow_up names its curves E1, E2, ... and finds a point by its id
        for c in self.self_int:
            if re.fullmatch("E[0-9]+", c):
                raise ValueError(f"component id {c!r} is reserved for exceptional curves")
        ids = set()
        for pt in self.points:
            if pt.id in ids:
                raise ValueError(f"two points have the id {pt.id!r}")
            ids.add(pt.id)

    def node_count(self, cid: str) -> int:
        """Remaining self-nodes on a component (the r of the Nori test)."""
        return sum(pt.kind == "node" and (cid, 2) in pt.parties for pt in self.points)

    def __repr__(self) -> str:
        return (
            f"BlowUpLedger(self_int={self.self_int}, pending={len(self.points)}, "
            f"exceptional={len(self.exceptional)})"
        )


def blow_up(ledger: BlowUpLedger, at) -> BlowUpLedger:
    """Blow up at a pending point (by id) or at a fresh smooth point given
    as (component, 1) parties.  Returns a new ledger; the input is unchanged."""
    new_e = f"E{len(ledger.exceptional) + 1}"
    if isinstance(at, str):
        pt = next((p for p in ledger.points if p.id == at), None)
        if pt is None:
            raise KeyError(f"no pending point {at!r}")
        parties = pt.parties
        remaining = [p for p in ledger.points if p.id != at]
        rule = _POINT_KINDS[pt.kind][2]
        if rule:
            kind, ids, order = rule([c for c, _ in parties], pt.order, new_e)
            remaining.append(Point(pt.id + ".1", kind, [(c, 1) for c in ids], order))
    else:
        parties = _parties(at, "blow-up point")
        if any(m != 1 for _, m in parties):
            raise ValueError("free-form blow-ups are at smooth points (m = 1)")
        remaining = list(ledger.points)
    live = set(ledger.self_int) | set(ledger.exceptional)
    for c, _ in parties:
        if c not in live:
            raise ValueError(f"blow-up point references unknown component {c!r}")
    drop = dict(parties)  # one party per id; exceptional curves are not tracked
    self_int = {c: n - drop.get(c, 0) ** 2 for c, n in ledger.self_int.items()}
    return BlowUpLedger(self_int, remaining, ledger.exceptional + (new_e,))


class NoriReport:
    """Per-component inequality C.C > 2 r(C) plus the hypothesis flags."""

    __slots__ = ("rows", "overall", "notes")

    # nori_check reports only on a resolved ledger, with no cusp or tangency
    # left: D is nodal and meets the exceptional curves transversally
    d_nodal_only = True
    d_e_transverse = True

    def __init__(self, rows, overall, notes):
        self.rows = tuple(rows)
        self.overall = overall
        self.notes = tuple(notes)

    def __repr__(self) -> str:
        return f"NoriReport(overall={self.overall}, rows={list(self.rows)})"


def nori_check(ledger: BlowUpLedger, d_components: Sequence[str]) -> NoriReport:
    """Evaluate the criterion exactly.  Rejects unresolved ledgers: any
    remaining point whose kind has a blow-up rule (a cusp or tangency)
    means the crossings are not yet normal."""
    pending = [p.id for p in ledger.points if _POINT_KINDS[p.kind][2]]
    if pending:
        raise ValueError(f"ledger not resolved; pending: {pending}")
    rows = []
    for cid in d_components:
        if cid not in ledger.self_int:
            raise KeyError(f"unknown component {cid!r}")
        cc, two_r = ledger.self_int[cid], 2 * ledger.node_count(cid)
        rows.append((cid, cc, two_r, cc > two_r))
    multiples = [p.id for p in ledger.points if p.kind == "multiple"]
    notes = ["pairwise-transverse multiple points remain: " + ", ".join(multiples)]
    return NoriReport(rows, all(ok for *_, ok in rows), notes if multiples else [])


# ---------------------------------------------------------------------------
# scripted replay

def run_script(script: dict) -> Tuple[BlowUpLedger, NoriReport]:
    """Execute a blow-up script (parsed JSON document): build the initial
    ledger, apply the steps, and run the final criterion check."""
    what = "a blow-up script"
    _shaped(script, dict, what)
    points = [
        Point(
            _shaped(_field(p, "id", f"point {i}"), str, f"id of point {i}"),
            _shaped(_field(p, "kind", f"point {i}"), str, f"kind of point {i}"),
            _pairs(_field(p, "parties", f"point {i}"), f"parties of point {i}"),
            _shaped(p.get("order", 0), int, f"order of point {i}"),
        )
        for i, p in enumerate(_items(script, "points", what, "point") if "points" in script else [])
    ]
    ledger = BlowUpLedger({c: d * d for c, d in _components(script, what)}, points)
    for i, step in enumerate(_items(script, "steps", what, "step")):
        at = _field(step, "blow", f"step {i}")
        ledger = blow_up(ledger, at if isinstance(at, str) else _pairs(at, f"blow of step {i}"))
    report = nori_check(ledger, _strings(_field(script, "d", what), "d"))
    return ledger, report


def load_script(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
