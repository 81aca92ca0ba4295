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
applies the self-intersection drop m^2 per incident component, counts the
exceptional divisor, and rewrites the point into its successor (cusp ->
tangency with the new exceptional curve, tangency of order k -> order k-1,
order-2 tangency -> ordinary triple point with the exceptional curve,
nodes and ordinary multiple points -> resolved).  Anything outside that
vocabulary is rejected.
"""

from __future__ import annotations

import json
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

    def to_json(self) -> dict:
        return {
            "components": [{"id": c, "degree": d} for c, d in self.components],
            "singularities": [
                {"kind": s.kind, "at": s.at, "owners": list(s.owners)}
                for s in self.singularities
            ],
        }

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

_BLOCKING_KINDS = {"cusp", "tangency", "node_tangent_line", "cusp_tangent_line"}
_POINT_KINDS = _BLOCKING_KINDS | {"node", "multiple"}


class Point:
    """A remembered point of the arrangement: parties are
    (component-or-exceptional id, local multiplicity) pairs."""

    __slots__ = ("id", "kind", "parties", "order")

    def __init__(self, pid: str, kind: str, parties: Sequence[Tuple[str, int]], order: int = 0):
        if kind not in _POINT_KINDS:
            raise ValueError(f"unsupported point kind {kind!r}")
        if kind == "tangency" and order < 2:
            raise ValueError("tangency order must be >= 2")
        for _, m in parties:
            if m not in (1, 2):
                raise ValueError("local multiplicities are 1 (smooth) or 2 (node/cusp)")
        mults = [m for _, m in parties]
        if kind in ("cusp", "cusp_tangent_line", "node_tangent_line"):
            if not mults or mults[0] != 2 or any(m != 1 for m in mults[1:]):
                raise ValueError(f"{kind} expects parties (C, 2) then lines (L, 1)")
            if kind != "cusp" and len(mults) < 2:
                raise ValueError(f"{kind} needs a line through the point")
        elif kind in ("tangency", "multiple"):
            if any(m != 1 for m in mults):
                raise ValueError(f"{kind} branches are smooth (m = 1)")
            if kind == "tangency" and len(mults) != 2:
                raise ValueError("a tangency has two branches")
        elif kind == "node":
            if sum(1 for m in mults if m == 2) > 1:
                raise ValueError("a node has at most one doubled component")
        self.id = pid
        self.kind = kind
        self.parties = tuple((str(c), int(m)) for c, m in parties)
        self.order = order

    def __repr__(self) -> str:
        return f"Point({self.id!r}, {self.kind!r}, parties={self.parties}, order={self.order})"


class BlowUpLedger:
    """Immutable snapshot: per-component self-intersection, remaining
    points, and the exceptional divisor count."""

    __slots__ = ("self_int", "points", "exceptional", "component_ids")

    def __init__(
        self,
        self_int: Dict[str, int],
        points: Sequence[Point],
        exceptional: Sequence[str] = (),
    ):
        self.self_int = dict(self_int)
        self.points = tuple(points)
        self.exceptional = tuple(exceptional)
        self.component_ids = frozenset(self.self_int)

    @classmethod
    def from_type_data(
        cls, components: Sequence[Tuple[str, int]], points: Sequence[Point]
    ) -> "BlowUpLedger":
        return cls({c: d * d for c, d in components}, points)

    def live_ids(self) -> frozenset:
        return self.component_ids | frozenset(self.exceptional)

    def point(self, pid: str) -> Point:
        for pt in self.points:
            if pt.id == pid:
                return pt
        raise KeyError(f"no pending point {pid!r}")

    def node_count(self, cid: str) -> int:
        """Remaining self-nodes on a component (the r of the Nori test)."""
        return sum(
            1
            for pt in self.points
            if pt.kind == "node" and any(c == cid and m == 2 for c, m in pt.parties)
        )

    def blocking_points(self) -> List[Point]:
        return [pt for pt in self.points if pt.kind in _BLOCKING_KINDS]

    def __repr__(self) -> str:
        return (
            f"BlowUpLedger(self_int={self.self_int}, pending={len(self.points)}, "
            f"exceptional={len(self.exceptional)})"
        )


def _successors(pt: Point, new_exceptional: str) -> List[Point]:
    """The local picture after blowing up at the point."""
    if pt.kind in ("node", "multiple"):
        return []
    if pt.kind == "node_tangent_line":
        # the two branches separate; the tangent line, the branch it was
        # tangent to, and the exceptional curve form an ordinary triple point
        comp, line = pt.parties[0][0], pt.parties[1][0]
        return [
            Point(pt.id + ".1", "multiple", [(comp, 1), (line, 1), (new_exceptional, 1)])
        ]
    if pt.kind in ("cusp", "cusp_tangent_line"):
        comp = pt.parties[0][0]
        return [
            Point(pt.id + ".1", "tangency", [(comp, 1), (new_exceptional, 1)], order=2)
        ]
    if pt.kind == "tangency":
        a, b = pt.parties[0][0], pt.parties[1][0]
        if pt.order > 2:
            return [Point(pt.id + ".1", "tangency", [(a, 1), (b, 1)], order=pt.order - 1)]
        return [Point(pt.id + ".1", "multiple", [(a, 1), (b, 1), (new_exceptional, 1)])]
    raise AssertionError(pt.kind)


def blow_up(ledger: BlowUpLedger, at) -> BlowUpLedger:
    """Blow up at a pending point (by id) or at a fresh smooth point given
    as (component, 1) parties.  Returns a new ledger; the input is unchanged."""
    new_e = f"E{len(ledger.exceptional) + 1}"
    if isinstance(at, str):
        pt = ledger.point(at)
        parties = pt.parties
        remaining = [p for p in ledger.points if p.id != at]
        successors = _successors(pt, new_e)
    else:
        parties = tuple((str(c), int(m)) for c, m in at)
        if not parties:
            raise ValueError("blow-up point must lie on at least one component")
        if any(m != 1 for _, m in parties):
            raise ValueError("free-form blow-ups are at smooth points (m = 1)")
        remaining = list(ledger.points)
        successors = []
    live = ledger.live_ids()
    for c, _ in parties:
        if c not in live:
            raise ValueError(f"blow-up point references unknown component {c!r}")
    self_int = dict(ledger.self_int)
    for c, m in parties:
        if c in self_int:  # exceptional curves are not tracked
            self_int[c] -= m * m
    return BlowUpLedger(self_int, remaining + successors, ledger.exceptional + (new_e,))


class NoriReport:
    """Per-component inequality C.C > 2 r(C) plus the hypothesis flags."""

    __slots__ = ("rows", "overall", "d_nodal_only", "d_e_transverse", "notes")

    def __init__(self, rows, overall, d_nodal_only, d_e_transverse, notes):
        self.rows = tuple(rows)
        self.overall = overall
        self.d_nodal_only = d_nodal_only
        self.d_e_transverse = d_e_transverse
        self.notes = tuple(notes)

    def __repr__(self) -> str:
        return f"NoriReport(overall={self.overall}, rows={list(self.rows)})"


def nori_check(ledger: BlowUpLedger, d_components: Sequence[str]) -> NoriReport:
    """Evaluate the criterion exactly.  Rejects unresolved ledgers: any
    remaining cusp or tangency means the crossings are not yet normal."""
    blocking = ledger.blocking_points()
    if blocking:
        raise ValueError(f"ledger not resolved; pending: {[p.id for p in blocking]}")
    rows = []
    overall = True
    for cid in d_components:
        if cid not in ledger.self_int:
            raise KeyError(f"unknown component {cid!r}")
        cc = ledger.self_int[cid]
        r = ledger.node_count(cid)
        ok = cc > 2 * r
        overall = overall and ok
        rows.append((cid, cc, 2 * r, ok))
    d_set = set(d_components)
    d_nodal_only = not any(
        pt.kind in ("cusp", "cusp_tangent_line", "node_tangent_line")
        and any(c in d_set for c, _ in pt.parties)
        for pt in ledger.points
    )
    d_e_transverse = not any(
        pt.kind == "tangency" and any(c in d_set for c, _ in pt.parties)
        for pt in ledger.points
    )
    notes = []
    multiples = [p for p in ledger.points if p.kind == "multiple"]
    if multiples:
        notes.append(
            "pairwise-transverse multiple points remain: "
            + ", ".join(p.id for p in multiples)
        )
    return NoriReport(rows, overall, d_nodal_only, d_e_transverse, notes)


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
    ledger = BlowUpLedger.from_type_data(_components(script, what), points)
    for i, step in enumerate(_items(script, "steps", what, "step")):
        at = _field(step, "blow", f"step {i}")
        ledger = blow_up(ledger, at if isinstance(at, str) else _pairs(at, f"blow of step {i}"))
    report = nori_check(ledger, _strings(_field(script, "d", what), "d"))
    return ledger, report


def load_script(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
