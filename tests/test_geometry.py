import json
import os
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import blowup_oracle
from curvepi.geometry import (
    BlowUpLedger,
    CombinatorialType,
    Point,
    Singularity,
    _KINDS,
    _POINT_KINDS,
    _pairwise_contacts,
    _self_delta,
    blow_up,
    load_script,
    nori_check,
    run_script,
    validate_combinatorial_type,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "curvepi", "data", "blowup")
TYPES = os.path.join(os.path.dirname(__file__), "..", "src", "curvepi", "data", "types")


def ct(components, sings):
    return CombinatorialType(
        components,
        [Singularity(k, f"p{i}", owners) for i, (k, owners) in enumerate(sings)],
    )


# ---------------------------------------------------------------------------
# combinatorial type validation


def test_smooth_conic_passes():
    assert validate_combinatorial_type(ct([("C", 2)], [])).ok


def test_quartic_with_four_singular_points_fails_genus_bound():
    bad = ct([("C", 4)], [("A1", ("C", "C"))] * 4)
    report = validate_combinatorial_type(bad)
    assert not report.ok
    assert any("genus" in v[0] for v in report.violations)


def test_three_cusped_quartic_passes_exactly_at_the_bound():
    assert validate_combinatorial_type(ct([("C", 4)], [("A2", ("C",))] * 3)).ok
    assert validate_combinatorial_type(ct([("C", 5)], [("A4", ("C",))] * 3)).ok


def test_cubic_line_bezout():
    good = ct([("C", 3), ("L", 1)], [("A1", ("C", "L"))] * 3)
    assert validate_combinatorial_type(good).ok
    # intersection multiplicities must total deg C * deg L
    bad = ct([("C", 3), ("L", 1)], [("A1", ("C", "L"))] * 2)
    report = validate_combinatorial_type(bad)
    assert any("Bezout" in v[0] for v in report.violations)


def test_tangency_markers_count_with_multiplicity():
    # x3 + transverse line crossing would overshoot Bezout for a cubic
    bad = ct([("C", 3), ("L", 1)], [("x3", ("C", "L")), ("A1", ("C", "L"))])
    assert not validate_combinatorial_type(bad).ok
    good = ct([("C", 3), ("L", 1)], [("x3", ("C", "L"))])
    assert validate_combinatorial_type(good).ok


def test_decorated_kinds():
    # line through the node of a cubic: multiplicity 2 plus a transverse point
    good = ct([("C", 3), ("L", 1)], [("A1T", ("C", "L")), ("A1", ("C", "L"))])
    assert validate_combinatorial_type(good).ok
    # tangent through the node uses all three intersections
    good2 = ct([("C", 3), ("L", 1)], [("A1*", ("C", "L"))])
    assert validate_combinatorial_type(good2).ok


def test_a_tacnode_with_a_line_through_it_counts_toward_the_genus_bound():
    # a quartic with a tacnode (delta 2) and two cusps has used up its
    # genus 3, whether or not the line passes through the tacnode
    cusps = [("A2", ("C",))] * 2
    plain = [("A3", ("C", "C"))] + cusps + [("A1", ("C", "L"))] * 4
    with_line = [("A3T", ("C", "C", "L"))] + cusps + [("A1", ("C", "L"))] * 2
    for sings in (plain, with_line):
        report = validate_combinatorial_type(ct([("C", 4), ("L", 1)], sings))
        assert report.violations == (("genus bound violated", ("C", 4, 3)),)


# kind -> (owners, local intersection numbers of distinct owners, nonzero deltas)
PINNED_KINDS = {
    "A1": ("PQ", {"PQ": 1}, {}),
    "A2": ("P", {}, {"P": 1}),
    "A3": ("PQ", {"PQ": 2}, {}),
    "A4": ("P", {}, {"P": 2}),
    "A5": ("PQ", {"PQ": 3}, {}),
    "A6": ("P", {}, {"P": 3}),
    "A7": ("PQ", {"PQ": 4}, {}),
    "A9": ("PQ", {"PQ": 5}, {}),
    "A1T": ("PQ", {"PQ": 2}, {"P": 1}),
    "A1*": ("PQ", {"PQ": 3}, {"P": 1}),
    "A2T": ("PQ", {"PQ": 2}, {"P": 1}),
    "A2*": ("PQ", {"PQ": 3}, {"P": 1}),
    "A3T": ("PQR", {"PQ": 2, "PR": 1, "QR": 1}, {}),
    "O3": ("PQR", {a + b: 1 for a, b in combinations("PQR", 2)}, {}),
    "O4": ("PQRS", {a + b: 1 for a, b in combinations("PQRS", 2)}, {}),
    "O5": ("PQRST", {a + b: 1 for a, b in combinations("PQRST", 2)}, {}),
}


def test_every_kind_has_its_pinned_bezout_sums_and_delta():
    assert set(PINNED_KINDS) == set(_KINDS)
    for kind, (owners, contacts, deltas) in PINNED_KINDS.items():
        s = Singularity(kind, "p", tuple(owners))
        assert {a + b: m for (a, b), m in _pairwise_contacts(s).items()} == contacts, kind
        assert {c: _self_delta(s, c) for c in owners if _self_delta(s, c)} == deltas, kind
    # a self-node, a self-tangency and an ordinary triple point of one component
    for kind, owners, delta in (("A1", "CC", 1), ("A3", "CC", 2), ("O3", "CCC", 3)):
        s = Singularity(kind, "p", tuple(owners))
        assert (_pairwise_contacts(s), _self_delta(s, "C")) == ({}, delta), kind


def test_only_a_three_branch_o3_of_two_components_is_respelled():
    # an O3 listing one component twice is A1T; one of the wrong arity is
    # left for the validator to reject
    assert Singularity("O3", "p", ("L", "C", "L")).owners == ("L", "C")
    for owners in ("CL", "CCLL"):
        s = Singularity("O3", "p", tuple(owners))
        assert (s.kind, s.owners) == ("O3", tuple(owners))
        report = validate_combinatorial_type(CombinatorialType([("C", 3), ("L", 1)], [s]))
        assert report.violations == (("O3 expects 3 branches", ("p", len(owners))),)


def test_a_type_without_components_is_invalid():
    report = validate_combinatorial_type(ct([], []))
    assert report.violations == (("type has no components", 0),)


def test_total_degree_flagged():
    report = validate_combinatorial_type(ct([("C", 5), ("L", 1)], []))
    assert any("degree exceeds" in v[0] for v in report.violations)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Singularity("E8", "p", ("C",))


def test_tangency_markers_name_their_a_kind():
    # "xd" is a tangency of contact order d, the A_(2d-1) point
    kinds = [Singularity(f"x{d}", "p", ("C", "L")).kind for d in range(1, 6)]
    assert kinds == ["A1", "A3", "A5", "A7", "A9"]
    # a marker with no supported kind is named as written, not converted
    with pytest.raises(ValueError) as err:
        Singularity("x6", "p", ("C", "L"))
    assert str(err.value) == "unsupported singularity kind 'x6'"


def test_arity_checked():
    report = validate_combinatorial_type(ct([("C", 3)], [("A2", ("C", "C"))]))
    assert not report.ok


def test_json_round_trip():
    # from_json keeps each document's components in order and reads each
    # singularity's kind, location and owners as the constructor takes them
    docs = [{
        "components": [{"id": "C", "degree": 3}, {"id": "L", "degree": 1}],
        "singularities": [
            {"kind": "A2", "at": "p0", "owners": ["C"]},
            {"kind": "x3", "at": "p1", "owners": ["C", "L"]},
        ],
    }]
    for name in sorted(os.listdir(TYPES)):
        with open(os.path.join(TYPES, name), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    assert len(docs) > 5
    for doc in docs:
        c = CombinatorialType.from_json(doc)
        assert c.components == tuple((d["id"], d["degree"]) for d in doc["components"])
        expected = [Singularity(d["kind"], d["at"], d["owners"]) for d in doc["singularities"]]
        assert [(s.kind, s.at, s.owners) for s in c.singularities] == [
            (s.kind, s.at, s.owners) for s in expected
        ]


# ---------------------------------------------------------------------------
# blow-up ledger


def test_blow_up_drops_by_m_squared():
    # cuspidal cubic: blowing the cusp drops 9 to 5
    ledger = BlowUpLedger({"C": 9}, [Point("q", "cusp", [("C", 2)])])
    after = blow_up(ledger, "q")
    assert after.self_int["C"] == 5
    assert len(after.exceptional) == 1
    # smooth conic at a smooth point: 4 to 3
    conic = BlowUpLedger({"C": 4}, [])
    assert blow_up(conic, [("C", 1)]).self_int["C"] == 3


def test_ledger_is_immutable_value():
    ledger = BlowUpLedger({"C": 9}, [Point("q", "cusp", [("C", 2)])])
    blow_up(ledger, "q")
    assert ledger.self_int["C"] == 9
    assert len(ledger.points) == 1


def test_cusp_resolution_chain():
    # cusp -> tangency with the exceptional curve -> triple point -> done
    ledger = BlowUpLedger({"C": 9}, [Point("q", "cusp", [("C", 2)])])
    l1 = blow_up(ledger, "q")
    assert [p.kind for p in l1.points] == ["tangency"]
    l2 = blow_up(l1, "q.1")
    assert [p.kind for p in l2.points] == ["multiple"]
    l3 = blow_up(l2, "q.1.1")
    assert not l3.points
    assert l3.self_int["C"] == 9 - 4 - 1 - 1


def test_smooth_point_sequences_drop_by_one_each():
    for k in range(1, 5):
        ledger = BlowUpLedger({"C": 9}, [])
        for _ in range(k):
            ledger = blow_up(ledger, [("C", 1)])
        assert ledger.self_int["C"] == 9 - k
        assert len(ledger.exceptional) == k


def test_free_form_blow_up_validation():
    ledger = BlowUpLedger({"C": 4}, [])
    with pytest.raises(ValueError):
        blow_up(ledger, [("missing", 1)])
    with pytest.raises(ValueError):
        blow_up(ledger, [])
    with pytest.raises(ValueError):
        blow_up(ledger, [("C", 2)])  # free-form blow-ups are smooth points


def test_point_needs_the_branches_its_blow_up_reads():
    # blowing up such a point read a second party that was not there
    with pytest.raises(ValueError, match="a tangency has two branches"):
        Point("p", "tangency", [("C", 1)], order=2)
    for kind in ("node_tangent_line", "cusp_tangent_line"):
        with pytest.raises(ValueError, match=f"{kind} needs a line through the point"):
            Point("p", kind, [("C", 2)])
    assert Point("p", "cusp", [("C", 2)]).parties == (("C", 2),)


def test_a_point_names_each_component_once():
    # a self-node of C written (C, 1), (C, 1) gave r = 0 where (C, 2) gives
    # r = 1, so C.C = 2 passed the criterion (test_nori_boundary_case)
    with pytest.raises(ValueError, match="point 'n' names 'C' twice"):
        Point("n", "node", [("C", 1), ("C", 1)])
    with pytest.raises(ValueError, match="point 'm' names 'L' twice"):
        Point("m", "multiple", [("L", 1), ("C", 1), ("L", 1)])


def test_a_free_form_blow_up_names_each_component_once():
    # it dropped C.C by 1 + 1 = 2 where one point of multiplicity 2 drops 4
    ledger = BlowUpLedger({"C": 9}, [])
    with pytest.raises(ValueError, match="blow-up point names 'C' twice"):
        blow_up(ledger, [("C", 1), ("C", 1)])


def test_a_point_lies_on_a_component():
    for kind in ("node", "multiple"):
        with pytest.raises(ValueError, match="point 'n' must lie on at least one component"):
            Point("n", kind, [])


def test_only_a_tangency_has_an_order():
    for kind in ("node", "multiple", "cusp"):
        with pytest.raises(ValueError, match="tangency order must be >= 2; other points have none"):
            Point("x", kind, [("C", 2)], order=7)
    with pytest.raises(ValueError, match="tangency order must be >= 2"):
        Point("x", "tangency", [("C", 1), ("L", 1)])
    assert Point("x", "tangency", [("C", 1), ("L", 1)], order=3).order == 3


def test_two_points_never_share_an_id():
    # blow_up dropped every point with the id it blew up, so the second
    # self-node q of a conic vanished and C ended with r = 0, not 1
    nodes = [Point("q", "node", [("C", 2)]), Point("q", "node", [("C", 2)])]
    with pytest.raises(ValueError, match="^two points have the id 'q'$"):
        BlowUpLedger({"C": 4}, nodes)
    # a declared C-L node named q.1 and the tangency left by blowing up the
    # cusp q: blowing up q.1 then dropped the tangency, and the ledger read
    # as resolved
    ledger = BlowUpLedger(
        {"C": 9, "L": 1},
        [Point("q", "cusp", [("C", 2)]), Point("q.1", "node", [("C", 1), ("L", 1)])],
    )
    with pytest.raises(ValueError, match=r"^two points have the id 'q\.1'$"):
        blow_up(ledger, "q")
    assert blow_up(ledger, "q.1").points == ledger.points[:1]


def test_component_ids_of_exceptional_curves_are_reserved():
    # a line named E1 was charged the drop of the first exceptional curve
    for cid in ("E1", "E0", "E12"):
        with pytest.raises(ValueError, match=f"^component id '{cid}' is reserved"):
            BlowUpLedger({"C": 9, cid: 1}, [])
    for cid in ("E", "E1a", "e1", "L1", "xE1"):
        assert blow_up(BlowUpLedger({cid: 1}, []), [(cid, 1)]).self_int == {cid: 0}


def test_nori_rejects_unresolved():
    ledger = BlowUpLedger({"C": 9}, [Point("q", "cusp", [("C", 2)])])
    with pytest.raises(ValueError):
        nori_check(ledger, ["C"])


def test_nori_boundary_case():
    # C.C = 2 with one node: 2 > 2 is false
    ledger = BlowUpLedger({"C": 2}, [Point("n", "node", [("C", 2)])])
    report = nori_check(ledger, ["C"])
    assert not report.overall
    assert report.rows[0][1:3] == (2, 2)


def test_nori_monotone():
    # increasing C.C or decreasing r never flips pass -> fail
    for cc in range(-1, 6):
        for r in range(0, 3):
            points = [Point(f"n{i}", "node", [("C", 2)]) for i in range(r)]
            report = nori_check(BlowUpLedger({"C": cc}, points), ["C"])
            if report.overall:
                better = nori_check(BlowUpLedger({"C": cc + 1}, points), ["C"])
                assert better.overall
                if r:
                    fewer = nori_check(BlowUpLedger({"C": cc}, points[:-1]), ["C"])
                    assert fewer.overall


PRINTED_VALUES = {
    "2.1.2": ("C3", 6), "2.1.3": ("C3", 7), "2.2.2": ("C3", 7), "2.2.3": ("C3", 6),
    "2.2.4": ("C3", 5), "2.2.5": ("C3", 4), "2.3.1": ("C3", 4), "2.3.2": ("C3", 1),
    "2.3.5": ("C3", 3), "3.2": ("C2a", 1), "4.2": ("C2", 3), "4.3": ("C2", 2),
    "example1": ("C", 1),
}


@pytest.mark.parametrize("case", sorted(name[: -len(".json")] for name in os.listdir(DATA)))
def test_scripted_replays(case):
    script = load_script(os.path.join(DATA, f"{case}.json"))
    ledger, report = run_script(script)
    comp, expected = PRINTED_VALUES[case]
    assert ledger.self_int[comp] == expected
    assert report.overall
    assert report.d_nodal_only and report.d_e_transverse
    # the exceptional count equals the script length
    assert len(ledger.exceptional) == len(script["steps"])
    # the fixture's own expect block
    expect = script["expect"]
    assert {cid: cc for cid, cc, _, _ in report.rows} == expect["self_int"]
    assert {cid: two_r for cid, _, two_r, _ in report.rows} == expect["two_r"]
    assert report.overall == expect["nori"]
    if "exceptional" in expect:
        assert len(ledger.exceptional) == expect["exceptional"]


def test_example1_details():
    script = load_script(os.path.join(DATA, "example1.json"))
    ledger, report = run_script(script)
    assert ledger.self_int["C"] == 9 - 4 - 1 - 1 - 1 - 1
    assert len(ledger.exceptional) == 5
    [(cid, cc, two_r, ok)] = report.rows
    assert (cc, two_r, ok) == (1, 0, True)


def test_case_2_2_2_keeps_its_node():
    script = load_script(os.path.join(DATA, "2.2.2.json"))
    ledger, report = run_script(script)
    assert ledger.node_count("C3") == 1
    [(cid, cc, two_r, ok)] = report.rows
    assert (cc, two_r) == (7, 2) and ok


def test_case_2_3_1_leaves_a_transverse_triple_point():
    script = load_script(os.path.join(DATA, "2.3.1.json"))
    ledger, report = run_script(script)
    assert any(p.kind == "multiple" for p in ledger.points)
    assert report.notes


# ---------------------------------------------------------------------------
# the point kind table against the earlier per-kind rules (blowup_oracle)

_ORACLE_KINDS = sorted(blowup_oracle._POINT_KINDS)

# the table holds one message per kind, so where the earlier rules had two
# checks for a kind, the one message names both
_RENAMED = {
    "tangency order must be >= 2": "tangency order must be >= 2; other points have none",
    "tangency branches are smooth (m = 1)": "a tangency has two branches, both smooth (m = 1)",
    "a tangency has two branches": "a tangency has two branches, both smooth (m = 1)",
    **{
        old: f"{kind} needs a line through the point: parties (C, 2) then lines (L, 1)"
        for kind in ("cusp_tangent_line", "node_tangent_line")
        for old in (
            f"{kind} expects parties (C, 2) then lines (L, 1)",
            f"{kind} needs a line through the point",
        )
    },
}


def test_the_table_has_the_earlier_point_kinds():
    assert sorted(_POINT_KINDS) == _ORACLE_KINDS
    assert {k for k, (_, _, rule) in _POINT_KINDS.items() if rule} == blowup_oracle._BLOCKING_KINDS


def _newly_rejected(kind, parties, order):
    """Inputs the earlier rules took and the table rejects: a point on no
    component, and an order on a kind other than a tangency."""
    return not parties or (kind != "tangency" and order != 0)


def _made(make, *args):
    try:
        return make(*args), None
    except Exception as exc:  # compared by type and message
        return None, exc


def _state(points):
    return [(p.id, p.kind, p.parties, p.order) for p in points]


_IDS = ["C0", "C1", "C2", "C3"]


@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from(_ORACLE_KINDS + ["smooth"]),
    st.lists(st.sampled_from(_IDS), max_size=4, unique=True),
    st.lists(st.sampled_from([0, 1, 2, 3]), min_size=4, max_size=4),
    st.integers(0, 5),
)
def test_point_checks_and_rules_agree_with_the_earlier_rules(kind, ids, mults, order):
    parties = list(zip(ids, mults))
    if _newly_rejected(kind, parties, order):
        with pytest.raises(ValueError):
            Point("p", kind, parties, order)
        return
    got, error = _made(Point, "p", kind, parties, order)
    want, oracle_error = _made(blowup_oracle.Point, "p", kind, parties, order)
    if oracle_error:
        assert type(error) is type(oracle_error)
        assert str(error) == _RENAMED.get(str(oracle_error), str(oracle_error))
        return
    assert error is None
    assert _state([got]) == _state([want])
    after = blow_up(BlowUpLedger({c: 9 for c in ids}, [got]), "p")
    assert _state(after.points) == _state(blowup_oracle._successors(want, "E1"))


@st.composite
def _ledger_pair(draw):
    """The same ledger built twice, with the table's points and with the
    oracle's, on points that both accept."""
    comps = draw(st.lists(st.sampled_from(_IDS), min_size=1, unique=True))
    self_int = {c: draw(st.integers(1, 5)) ** 2 for c in comps}
    points, oracle_points = [], []
    for i in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(_ORACLE_KINDS))
        ids = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=3, unique=True))
        mults = draw(st.lists(st.sampled_from([1, 2]), min_size=len(ids), max_size=len(ids)))
        order = draw(st.integers(2, 5)) if kind == "tangency" else 0
        want, oracle_error = _made(blowup_oracle.Point, f"p{i}", kind, list(zip(ids, mults)), order)
        if oracle_error is None:
            points.append(Point(f"p{i}", kind, list(zip(ids, mults)), order))
            oracle_points.append(want)
    return BlowUpLedger(self_int, points), blowup_oracle.BlowUpLedger(self_int, oracle_points)


@settings(max_examples=300, deadline=None)
@given(_ledger_pair(), st.data())
def test_blowing_up_until_resolved_agrees_with_the_earlier_rules(ledgers, data):
    ledger, oracle = ledgers
    comps = sorted(ledger.self_int)
    extra = data.draw(st.integers(0, 3))  # steps once the ledger is resolved
    while True:
        pending = [p.id for p in ledger.points if _POINT_KINDS[p.kind][2]]
        if not pending:
            if not extra:
                break
            extra -= 1
        at = data.draw(st.sampled_from(pending or [p.id for p in ledger.points] + ["smooth point"]))
        if at == "smooth point":
            on = data.draw(st.lists(st.sampled_from(comps), min_size=1, unique=True))
            at = [(c, 1) for c in on]
        ledger, oracle = blow_up(ledger, at), blowup_oracle.blow_up(oracle, at)
        assert ledger.self_int == oracle.self_int
        assert ledger.exceptional == oracle.exceptional
        assert _state(ledger.points) == _state(oracle.points)
    d = data.draw(st.lists(st.sampled_from(comps), unique=True))
    report, want = nori_check(ledger, d), blowup_oracle.nori_check(oracle, d)
    assert (report.rows, report.overall, report.notes) == (want.rows, want.overall, want.notes)
    assert report.d_nodal_only == want.d_nodal_only and report.d_e_transverse == want.d_e_transverse
