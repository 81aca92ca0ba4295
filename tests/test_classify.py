import json
import os
import random

import pytest

from curvepi.abelian import abelian_invariants, curve_abelianization
from curvepi.classify import CASES, ClassificationEntry, NotCovered, canonical_key, classify, lookup_case
from curvepi.geometry import CombinatorialType, Singularity, validate_combinatorial_type

SMOOTH_QUINTIC = CombinatorialType([("C", 5)])


def relabeled(ct, rng):
    """Permute components and rename ids/locations."""
    ids = [c for c, _ in ct.components]
    perm = ids[:]
    rng.shuffle(perm)
    mapping = dict(zip(ids, perm))
    comps = [(mapping[c], d) for c, d in ct.components]
    rng.shuffle(comps)
    sings = list(ct.singularities)
    rng.shuffle(sings)
    sings = [
        Singularity(s.kind, f"loc{rng.randrange(10**6)}", [mapping[o] for o in s.owners])
        for s in sings
    ]
    return CombinatorialType(comps, sings)


# the key of every keyed row, written out so that a change to a row's
# reference type or to canonical_key shows here
KEYS = {
    "1.1": "1+1+1+1;6×A1",
    "1.2": "1+1+1+1;3×A1+O3",
    "1.3": "1+1+1+1;O4",
    "2.1.1": "1+3;3×A1",
    "2.1.2": "1+3;A5",
    "2.1.3": "1+3;A1+A3",
    "2.2.1": "1+3;4×A1",
    "2.2.2": "1+3;2×A1+A3",
    "2.2.3": "1+3;A1+A5",
    "2.2.4": "1+3;A1+A1T",
    "2.2.5": "1+3;A1*",
    "2.3.1": "1+3;3×A1+A2",
    "2.3.2": "1+3;A1+A2+A3",
    "2.3.3": "1+3;A2+A5",
    "2.3.4": "1+3;A1+A2+A3",
    "2.3.5": "1+3;A2*",
    "3.1": "2+2;A7",
    "3.2": "2+2;A1+A5",
    "3.3": "2+2;2×A1+A3",
    "3.4": "2+2;2×A3",
    "3.5": "2+2;4×A1",
    "4.1": "1+1+2;5×A1",
    "4.2": "1+1+2;2×A1+O3",
    "4.3": "1+1+2;3×A1+A3",
    "4.4": "1+1+2;A1+A3T",
    "4.5": "1+1+2;A1+2×A3",
    "C4(3A2)": "4;3×A2",
    "C5(3A4)": "5;3×A4",
    "C5(A6+3A2)": "5;3×A2+A6",
    "C4(3A2)+{x2,x2}": "1+4;3×A2+2×A3",
    "C3(A2)+{x3}+{x2,x1}": "1+1+3;2×A1+A2+A3+A5",
    "5C1:F4": "1+1+1+1+1;O5",
    "3C1:concurrent": "1+1+1;O3",
}


def test_keyed_rows_have_the_stated_keys_and_valid_reference_types():
    keyed = {label: row for label, row in CASES.items() if row.key is not None}
    assert {label: row.key for label, row in keyed.items()} == KEYS
    for label, row in keyed.items():
        assert validate_combinatorial_type(row.type).ok, label
        assert row.degrees == sorted(row.type.degrees), label


def test_canonical_key_examples():
    assert canonical_key(CASES["1.1"].type) == "1+1+1+1;6×A1"
    assert canonical_key(CASES["3.4"].type) == "2+2;2×A3"
    assert canonical_key(CASES["C4(3A2)"].type) == "4;3×A2"


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(42)
    for label in KEYS:
        ct = CASES[label].type
        key = canonical_key(ct)
        for _ in range(5):
            assert canonical_key(relabeled(ct, rng)) == key


def test_classify_invariant_under_relabeling():
    rng = random.Random(43)
    for label in ("1.2", "2.3.3", "3.4", "4.5", "C4(3A2)+{x2,x2}"):
        ct = CASES[label].type
        want = classify(ct).group_name
        for _ in range(3):
            assert classify(relabeled(ct, rng)).group_name == want


GOLDEN = [
    ("1.1", "Z^3", True),
    ("1.2", "F_2 x Z", False),
    ("1.3", "F_3", False),
    ("2.1.1", "Z", True),
    ("2.2.2", "Z", True),
    ("2.3.3", "B_3", False),
    ("2.3.5", "Z", True),
    ("3.1", "Z * Z/2", False),
    ("3.4", "Z * Z/2", False),
    ("3.5", "Z + Z/2", True),
    ("4.1", "Z^2", True),
    ("4.2", "virtually abelian", False),
    ("4.5", "F_2 x| Z", False),
    ("C4(3A2)", "B_3(S^2)", False),
    ("C5(3A4)", "order-320 group", False),
    ("C5(A6+3A2)", "Z-central extension of T(2,3,7)", False),
    ("C4(3A2)+{x2,x2}", "Art_333", False),
    ("C3(A2)+{x3}+{x2,x1}", "Art_234", False),
    ("5C1:F4", "F_4", False),
    ("3C1:concurrent", "F_2", False),
]


@pytest.mark.parametrize("label,group,abelian", GOLDEN)
def test_classify_goldens(label, group, abelian):
    entry = classify(CASES[label].type)
    assert isinstance(entry, ClassificationEntry)
    assert entry.group_name == group
    assert entry.abelian == abelian
    assert entry.case_label == label


def test_smooth_quintic_is_z5():
    entry = classify(SMOOTH_QUINTIC)
    assert entry.group_name == "Z/5"
    assert entry.invariants == curve_abelianization([5])
    assert entry.finite_order == 5


def test_nodal_rule_any_degree():
    # conic + chord: nodal, abelian Z
    ct = CombinatorialType(
        [("C", 2), ("L", 1)],
        [Singularity("A1", "p", ("C", "L")), Singularity("A1", "q", ("C", "L"))],
    )
    entry = classify(ct)
    assert entry.abelian and entry.group_name == "Z"
    assert entry.case_label == "nodal"


def test_irreducible_quartic_fallback():
    ct = CombinatorialType([("C", 4)], [Singularity("A2", "p", ("C",))])
    entry = classify(ct)
    assert entry.group_name == "Z/4"
    assert entry.finite_order == 4


def test_irreducible_quintic_fallback():
    ct = CombinatorialType([("C", 5)], [Singularity("A2", "p", ("C",))])
    entry = classify(ct)
    assert entry.group_name == "Z/5"


def _abelian_json(case, key, group, free_rank, torsion, gens, relators, finite_order, notes):
    return {
        "case": case,
        "key": key,
        "group": group,
        "tag": None,
        "presentation": {"generators": gens, "relators": relators},
        "abelian": True,
        "virtually_abelian": True,
        "finite_order": finite_order,
        "invariants": {"free_rank": free_rank, "torsion": torsion},
        "linear": "asserted",
        "virtually_polyfree": "asserted",
        "notes": notes,
    }


@pytest.mark.parametrize(
    "ct,expected",
    [
        (
            SMOOTH_QUINTIC,
            _abelian_json("smooth", "5;", "Z/5", 0, [5], ["t1"], [[["t1", 1]] * 5], 5,
                          "smooth curve: complement group is abelian"),
        ),
        (
            CombinatorialType(
                [("C", 2), ("L", 1)],
                [Singularity("A1", "p", ("C", "L")), Singularity("A1", "q", ("C", "L"))],
            ),
            _abelian_json("nodal", "1+2;2×A1", "Z", 1, [], ["x1"], [], None,
                          "only nodes: complement group is abelian"),
        ),
        (
            CombinatorialType([("C", 4)], [Singularity("A2", "p", ("C",))]),
            _abelian_json("irreducible quartic", "4;A2", "Z/4", 0, [4], ["t1"], [[["t1", 1]] * 4], 4,
                          "irreducible quartic, not three-cusped: abelian"),
        ),
        (
            CombinatorialType([("C", 5)], [Singularity("A2", "p", ("C",))]),
            _abelian_json("irreducible quintic", "5;A2", "Z/5", 0, [5], ["t1"], [[["t1", 1]] * 5], 5,
                          "irreducible quintic outside the nonabelian list: abelian"),
        ),
    ],
    ids=["smooth-quintic", "nodal-conic-chord", "irreducible-quartic", "irreducible-quintic"],
)
def test_fallback_entries_json(ct, expected):
    assert classify(ct).to_json() == expected


def test_unpinned_reducible_types_not_covered():
    # a quartic-plus-line position the table keys do not pin
    ct = CombinatorialType(
        [("C", 4), ("L", 1)],
        [Singularity("A2", "p", ("C",))] * 1
        + [Singularity("x4", "q", ("C", "L"))],
    )
    res = classify(ct)
    assert isinstance(res, NotCovered)


def test_unenumerated_cusp_line_position_not_covered():
    # line transversally through the cusp of a cubic: no enumerated case
    # covers it, so the classifier must refuse rather than guess
    ct = CombinatorialType(
        [("C", 3), ("L", 1)],
        [Singularity("A2T", "p", ("C", "L")), Singularity("A1", "q", ("C", "L"))],
    )
    res = classify(ct)
    assert isinstance(res, NotCovered)


@pytest.mark.parametrize("owners", [("C", "L"), ("C", "C", "L"), ("C", "L", "C"), ("L", "C", "C")])
def test_line_through_a_node_in_either_spelling(owners):
    # a nodal cubic, a line through the node transverse to both branches,
    # and one more crossing: an ordinary triple point with one component
    # listed twice is the line through the node, A1T
    kind = "A1T" if len(owners) == 2 else "O3"
    ct = CombinatorialType(
        [("C", 3), ("L", 1)],
        [Singularity(kind, "p", owners), Singularity("A1", "q", ("C", "L"))],
    )
    assert [(s.kind, s.owners) for s in ct.singularities][0] == ("A1T", ("C", "L"))
    assert classify(ct).case_label == "2.2.4"


def test_invalid_type_raises():
    bad = CombinatorialType([("C", 4)], [Singularity("A1", f"p{i}", ("C", "C")) for i in range(4)])
    with pytest.raises(ValueError):
        classify(bad)


def test_duplicate_key_rows_agree():
    # cases 2.3.2 and 2.3.4 share a combinatorial type and an answer
    assert CASES["2.3.2"].type is CASES["2.3.4"].type
    assert lookup_case("2.3.2").group_name == lookup_case("2.3.4").group_name
    entry = classify(CASES["2.3.4"].type)
    assert entry.group_name == "Z"


def test_table_completeness():
    labels = set(CASES)
    for expected in (
        "1.1", "1.2", "1.3", "2.1.1", "2.1.2", "2.1.3", "2.2.1", "2.2.2",
        "2.2.3", "2.2.4", "2.2.5", "2.3.1", "2.3.2", "2.3.3", "2.3.4", "2.3.5",
        "3.1", "3.2", "3.3", "3.4", "3.5", "4.1", "4.2", "4.3", "4.4", "4.5",
        "C4(3A2)", "C5(3A4)", "C5(A6+3A2)", "C4(3A2)+{x2,x2}",
        "C4+C1:B3", "C4+C1:B4", "C4+C1:G3(t+1)", "C4+C1:G5(t+1)",
        "C4+C1:Gr(2,3,5)xZ", "C4+C1:T(3,4)", "C3+C2",
        "C3+2C1:ZxB3", "C3+2C1:G(t^2-1)", "C3+2C1:G(t^3-1)",
        "C3+2C1:T(2,4)", "C3+2C1:T(2,6)", "C3(A2)+{x3}+{x2,x1}",
        "2C2+C1:F2", "2C2+C1:T(2,4)", "2C2+C1:ZxB3",
        "C2+3C1:ZxF2", "C2+3C1:ZxT(2,4)", "C2+3C1:Pi", "C2+3C1:Art244",
        "5C1:F4", "5C1:ZxF3", "5C1:F2xF2", "5C1:Z2xF2",
    ):
        assert expected in labels, expected


def test_formula_consistency_across_table():
    """Every presentation in the table abelianizes to the degree formula."""
    for label, row in CASES.items():
        entry = lookup_case(label)
        if entry.presentation is None:
            continue
        assert abelian_invariants(entry.presentation) == curve_abelianization(row.degrees), label


def test_partial_rows_have_no_key():
    for label, row in CASES.items():
        if label.startswith(("C4+C1", "C3+2C1", "2C2+C1", "C2+3C1")) or label == "C3+C2":
            assert row.key is None and row.type is None, label


ROWS = os.path.join(os.path.dirname(__file__), "data", "classification_rows.json")


def test_every_row_matches_its_pinned_json():
    # the fixture holds lookup_case(label).to_json() of every row and
    # classify(row.type).to_json() of every keyed row, as written before
    # the rows lost their style tags; it pins the rows with no
    # presentation ("virtually abelian" and named-only) in full too
    with open(ROWS, encoding="utf-8") as fh:
        pinned = json.load(fh)

    def as_json(entry):
        return json.loads(json.dumps(entry.to_json()))

    assert sorted(pinned["lookup_case"]) == sorted(CASES)
    for label in CASES:
        assert as_json(lookup_case(label)) == pinned["lookup_case"][label], label
    keyed = [label for label, row in CASES.items() if row.type is not None]
    assert sorted(pinned["classify"]) == sorted(keyed)
    for label in keyed:
        assert as_json(classify(CASES[label].type)) == pinned["classify"][label], label


def test_lookup_case_unknown():
    with pytest.raises(KeyError):
        lookup_case("9.9")


def test_entry_json_shape():
    doc = classify(CASES["2.3.3"].type).to_json()
    assert doc["group"] == "B_3"
    assert doc["case"] == "2.3.3"
    assert doc["presentation"]["generators"] == ["a", "b"]
    assert doc["linear"] == "asserted" and doc["virtually_polyfree"] == "asserted"
