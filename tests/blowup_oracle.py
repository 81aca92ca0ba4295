"""The earlier blow-up points, kept verbatim (but for the imports and the
unused ``BlowUpLedger.from_type_data``) as the oracle for the point kind
table of ``curvepi.geometry``: the per-kind checks of ``Point.__init__``,
``_successors`` and the ledger arithmetic of ``blow_up`` and
``nori_check``."""

from typing import Dict, List, Sequence, Tuple

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
