"""Classification of fundamental groups of plane-curve complements from
combinatorial types, for total degree at most five.

The table has one row per enumerated case of the degree-4 analysis and one
per entry of the quintic nonabelian list.  Rows are keyed by a canonical
string when the source pins the combinatorial type; rows for which only the
component-degree partition is recorded are kept "partially keyed" and are
reachable by case label, never from a combinatorial type (no guessing).
Unknown keys yield NotCovered.

Three sound fallback rules cover families rather than single rows: curves
whose singularities are all plain nodes have abelian complement groups, and
an irreducible quartic (resp. quintic) whose key is not in the table is
abelian, because the nonabelian irreducible cases are pinned.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Dict, List, Optional

from .abelian import InvariantFactors, abelian_invariants, abelian_presentation, curve_abelianization
from .catalog import GroupTag, build, parse_tag
from .dsl import parse_presentation
from .geometry import CombinatorialType, Singularity, validate_combinatorial_type
from .presentations import Presentation


def canonical_key(ct: CombinatorialType) -> str:
    """Degrees ascending, then the sorted singularity-kind multiset.
    Invariant under component permutation and location renaming."""
    degrees = "+".join(str(d) for d in sorted(ct.degrees))
    counts = Counter(s.kind for s in ct.singularities)
    tokens = []
    for kind in sorted(counts):
        n = counts[kind]
        tokens.append(kind if n == 1 else f"{n}×{kind}")
    return f"{degrees};{'+'.join(tokens)}"


class ClassificationEntry:
    __slots__ = (
        "case_label",
        "key",
        "group_name",
        "tag",
        "presentation",
        "abelian",
        "virtually_abelian",
        "finite_order",
        "invariants",
        "notes",
    )

    def __init__(
        self,
        case_label: str,
        key: Optional[str],
        group_name: str,
        tag: Optional[GroupTag],
        presentation: Optional[Presentation],
        abelian: bool,
        virtually_abelian: bool,
        finite_order: Optional[int],
        invariants: Optional[InvariantFactors],
        notes: str = "",
    ):
        self.case_label = case_label
        self.key = key
        self.group_name = group_name
        self.tag = tag
        self.presentation = presentation
        self.abelian = abelian
        self.virtually_abelian = virtually_abelian
        self.finite_order = finite_order
        self.invariants = invariants
        self.notes = notes

    # linearity and virtual polyfreeness hold for the whole table; they are
    # recorded as assertions, not machine-checked facts
    linear = "asserted"
    virtually_polyfree = "asserted"

    def display(self) -> str:
        return f"{self.group_name} (case {self.case_label})"

    def to_json(self) -> dict:
        return {
            "case": self.case_label,
            "key": self.key,
            "group": self.group_name,
            "tag": None if self.tag is None else self.tag.to_json(),
            "presentation": None if self.presentation is None else self.presentation.to_json(),
            "abelian": self.abelian,
            "virtually_abelian": self.virtually_abelian,
            "finite_order": self.finite_order,
            "invariants": None if self.invariants is None else self.invariants.to_json(),
            "linear": self.linear,
            "virtually_polyfree": self.virtually_polyfree,
            "notes": self.notes,
        }

    def __repr__(self) -> str:
        return f"ClassificationEntry({self.display()!r})"


class NotCovered:
    """The key is absent from the table and no sound rule applies."""

    __slots__ = ("key", "reason")

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason

    def __repr__(self) -> str:
        return f"NotCovered({self.key!r}: {self.reason})"


class _Row:
    __slots__ = ("label", "key", "degrees", "style", "name", "tag_text", "dsl", "flags", "notes")

    def __init__(self, label, key, degrees, style, name="", tag_text=None, dsl=None, flags=(), notes=""):
        self.label = label
        self.key = key
        self.degrees = list(degrees)
        self.style = style  # "abelian" | "group" | "virtually-abelian" | "named-only"
        self.name = name
        self.tag_text = tag_text
        self.dsl = dsl
        self.flags = dict(flags)
        self.notes = notes


_VA_NOTE = "finitely generated abelian kernel over a cyclic line-complement quotient; exact group not pinned"

_TABLE: List[_Row] = [
    # ---- four lines ----
    _Row("1.1", "1+1+1+1;6×A1", [1, 1, 1, 1], "abelian", notes="nodal arrangement"),
    _Row("1.2", "1+1+1+1;3×A1+O3", [1, 1, 1, 1], "group", "F_2 x Z", "free:2*free:1",
         notes="projection at the triple point gives a trivial fibration"),
    _Row("1.3", "1+1+1+1;O4", [1, 1, 1, 1], "group", "F_3", "free:3",
         notes="concurrent lines: single singular fiber, no monodromy relation"),
    # ---- cubic plus line ----
    _Row("2.1.1", "1+3;3×A1", [1, 3], "abelian"),
    _Row("2.1.2", "1+3;A5", [1, 3], "abelian"),
    _Row("2.1.3", "1+3;A1+A3", [1, 3], "abelian"),
    _Row("2.2.1", "1+3;4×A1", [1, 3], "abelian"),
    _Row("2.2.2", "1+3;2×A1+A3", [1, 3], "abelian"),
    _Row("2.2.3", "1+3;A1+A5", [1, 3], "abelian"),
    _Row("2.2.4", "1+3;A1+A1T", [1, 3], "abelian"),
    _Row("2.2.5", "1+3;A1*", [1, 3], "abelian"),
    _Row("2.3.1", "1+3;3×A1+A2", [1, 3], "abelian"),
    _Row("2.3.2", "1+3;A1+A2+A3", [1, 3], "abelian"),
    _Row("2.3.3", "1+3;A2+A5", [1, 3], "group", "B_3", "braid:3",
         notes="inflectional tangent line taken to infinity"),
    _Row("2.3.4", "1+3;A1+A2+A3", [1, 3], "abelian",
         notes="same combinatorial type as case 2.3.2"),
    _Row("2.3.5", "1+3;A2*", [1, 3], "abelian"),
    # ---- two conics ----
    _Row("3.1", "2+2;A7", [2, 2], "group", "Z * Z/2", None, "<a,b | b^2>"),
    _Row("3.2", "2+2;A1+A5", [2, 2], "virtually-abelian", notes=_VA_NOTE),
    _Row("3.3", "2+2;2×A1+A3", [2, 2], "virtually-abelian", notes=_VA_NOTE),
    _Row("3.4", "2+2;2×A3", [2, 2], "group", "Z * Z/2", None, "<a,b | b^2>",
         notes="bitangent conic pencil"),
    _Row("3.5", "2+2;4×A1", [2, 2], "abelian"),
    # ---- conic plus two lines ----
    _Row("4.1", "1+1+2;5×A1", [1, 1, 2], "abelian"),
    _Row("4.2", "1+1+2;2×A1+O3", [1, 1, 2], "virtually-abelian", notes=_VA_NOTE),
    _Row("4.3", "1+1+2;3×A1+A3", [1, 1, 2], "virtually-abelian", notes=_VA_NOTE),
    _Row("4.4", "1+1+2;A1+A3T", [1, 1, 2], "virtually-abelian", notes=_VA_NOTE),
    _Row("4.5", "1+1+2;A1+2×A3", [1, 1, 2], "named-only", "F_2 x| Z",
         notes="mapping torus of a rank-2 free group (monodromy not pinned)"),
    # ---- irreducible quartics ----
    _Row("C4(3A2)", "4;3×A2", [4], "group", "B_3(S^2)", "spherebraid3",
         flags=(("finite_order", 12),), notes="three-cusped quartic"),
    # ---- quintic nonabelian list ----
    _Row("C5(3A4)", "5;3×A4", [5], "group", "order-320 group", "quintic:C5_3A4",
         flags=(("finite_order", 320),)),
    _Row("C5(A6+3A2)", "5;3×A2+A6", [5], "group",
         "Z-central extension of T(2,3,7)", "quintic:C5_A6_3A2"),
    _Row("C4(3A2)+{x2,x2}", "1+4;3×A2+2×A3", [1, 4], "group",
         "Art_333", "quintic:C4_3A2"),
    _Row("C4+C1:B3", None, [1, 4], "group", "B_3", "braid:3"),
    _Row("C4+C1:B4", None, [1, 4], "group", "B_4", "braid:4"),
    _Row("C4+C1:G3(t+1)", None, [1, 4], "group", "G_3(t+1)", "gpolymod:3;1,1"),
    _Row("C4+C1:G5(t+1)", None, [1, 4], "group", "G_5(t+1)", "gpolymod:5;1,1"),
    _Row("C4+C1:Gr(2,3,5)xZ", None, [1, 4], "group", "Gr<2,3,5> x Z", "gr:2,3,5*free:1"),
    _Row("C4+C1:T(3,4)", None, [1, 4], "group", "T_{3,4}", "toric:3,4"),
    _Row("C3+C2", None, [2, 3], "group", "Pi(C3+C2)", "quintic:C3_C2",
         flags=(("virtually_abelian", True),), notes="virtually Z^2"),
    _Row("C3+2C1:ZxB3", None, [1, 1, 3], "group", "Z x B_3", "free:1*braid:3"),
    _Row("C3+2C1:G(t^2-1)", None, [1, 1, 3], "group", "G(t^2-1)", "gpoly:-1,0,1"),
    _Row("C3+2C1:G(t^3-1)", None, [1, 1, 3], "group", "G(t^3-1)", "gpoly:-1,0,0,1"),
    _Row("C3+2C1:T(2,4)", None, [1, 1, 3], "group", "T_{2,4}", "toriceven:2"),
    _Row("C3+2C1:T(2,6)", None, [1, 1, 3], "group", "T_{2,6}", "toriceven:3"),
    _Row("C3(A2)+{x3}+{x2,x1}", "1+1+3;2×A1+A2+A3+A5", [1, 1, 3], "group",
         "Art_234", "quintic:C3_A2_x3_x2x1"),
    _Row("2C2+C1:F2", None, [1, 2, 2], "group", "F_2", "free:2"),
    _Row("2C2+C1:T(2,4)", None, [1, 2, 2], "group", "T_{2,4}", "toriceven:2"),
    _Row("2C2+C1:ZxB3", None, [1, 2, 2], "group", "Z x B_3", "free:1*braid:3"),
    _Row("C2+3C1:ZxF2", None, [1, 1, 1, 2], "group", "Z x F_2", "free:1*free:2"),
    _Row("C2+3C1:ZxT(2,4)", None, [1, 1, 1, 2], "group", "Z x T_{2,4}", "free:1*toriceven:2"),
    _Row("C2+3C1:Pi", None, [1, 1, 1, 2], "group", "Pi(C2+3C1)", "quintic:C2_3C1_A",
         notes="has an index-2 right-angled Artin subgroup"),
    _Row("C2+3C1:Art244", None, [1, 1, 1, 2], "group", "Art_244", "quintic:C2_3C1_B"),
    _Row("5C1:F4", "1+1+1+1+1;O5", [1, 1, 1, 1, 1], "group", "F_4", "free:4",
         notes="concurrent lines: same projection argument as case 1.3"),
    _Row("5C1:ZxF3", None, [1, 1, 1, 1, 1], "group", "Z x F_3", "free:1*free:3"),
    _Row("5C1:F2xF2", None, [1, 1, 1, 1, 1], "group", "F_2 x F_2", "free:2*free:2"),
    _Row("5C1:Z2xF2", None, [1, 1, 1, 1, 1], "group", "Z^2 x F_2", "free:1*free:1*free:2"),
    # ---- low degree extras covered by the same projection argument ----
    _Row("3C1:concurrent", "1+1+1;O3", [1, 1, 1], "group", "F_2", "free:2",
         notes="concurrent lines: same projection argument as case 1.3"),
]


def _abelian_entry(
    label: str, key: Optional[str], degrees: List[int], notes: str
) -> ClassificationEntry:
    """The abelian complement group of a curve with these component degrees."""
    inv = curve_abelianization(degrees)
    return ClassificationEntry(
        label, key, inv.display(), None, abelian_presentation(inv),
        abelian=True, virtually_abelian=True,
        finite_order=prod(inv.torsion) if inv.free_rank == 0 else None,
        invariants=inv, notes=notes,
    )


def _entry_from_row(row: _Row) -> ClassificationEntry:
    if row.style == "abelian":
        return _abelian_entry(row.label, row.key, row.degrees, row.notes)
    if row.style == "virtually-abelian":
        return ClassificationEntry(
            row.label, row.key, "virtually abelian", None, None,
            abelian=False, virtually_abelian=True, finite_order=None,
            invariants=None, notes=row.notes,
        )
    if row.style == "named-only":
        return ClassificationEntry(
            row.label, row.key, row.name, None, None,
            abelian=False, virtually_abelian=False, finite_order=None,
            invariants=None, notes=row.notes,
        )
    tag = parse_tag(row.tag_text) if row.tag_text else None
    pres = build(tag) if tag is not None else parse_presentation(row.dsl)
    return ClassificationEntry(
        row.label, row.key, row.name, tag, pres,
        abelian=False,
        virtually_abelian=bool(row.flags.get("virtually_abelian", False)),
        finite_order=row.flags.get("finite_order"),
        invariants=abelian_invariants(pres),
        notes=row.notes,
    )


def table_rows() -> List[_Row]:
    return list(_TABLE)


def all_case_labels() -> List[str]:
    return [row.label for row in _TABLE]


def lookup_case(label: str) -> ClassificationEntry:
    for row in _TABLE:
        if row.label == label:
            return _entry_from_row(row)
    raise KeyError(f"no classification case labeled {label!r}")


def _key_index() -> Dict[str, _Row]:
    index: Dict[str, _Row] = {}
    for row in _TABLE:
        if row.key is None:
            continue
        if row.key in index:
            # duplicate keys are allowed only when the answers agree
            other = index[row.key]
            same = other.style == row.style and other.name == row.name
            if not same:
                raise AssertionError(f"conflicting table rows for key {row.key}")
        else:
            index[row.key] = row
    return index


_KEYED = _key_index()


def classify(ct: CombinatorialType) -> ClassificationEntry | NotCovered:
    """Map a validated combinatorial type of total degree <= 5 to its
    complement fundamental group.  Repeated components are not
    representable: reduce the curve first."""
    report = validate_combinatorial_type(ct)
    if not report.ok:
        raise ValueError(f"invalid combinatorial type: {report.violations}")
    key = canonical_key(ct)
    row = _KEYED.get(key)
    if row is not None:
        return _entry_from_row(row)
    # sound family rules
    if all(s.kind == "A1" for s in ct.singularities):
        smooth = not ct.singularities
        return _abelian_entry(
            "smooth" if smooth else "nodal", key, ct.degrees,
            ("smooth curve" if smooth else "only nodes") + ": complement group is abelian",
        )
    if len(ct.components) == 1 and ct.total_degree == 4:
        return _abelian_entry(
            "irreducible quartic", key, [4], "irreducible quartic, not three-cusped: abelian"
        )
    if len(ct.components) == 1 and ct.total_degree == 5:
        # both nonabelian irreducible quintic types are keyed above
        return _abelian_entry(
            "irreducible quintic", key, [5],
            "irreducible quintic outside the nonabelian list: abelian",
        )
    return NotCovered(
        key,
        "no table row for this key; reducible cases with unpinned "
        "combinatorial types are only reachable by case label",
    )


# ---------------------------------------------------------------------------
# reference combinatorial types for the keyed rows (used by the golden
# tests, the JSON fixtures, and as worked examples)


def _ct(components, sings) -> CombinatorialType:
    return CombinatorialType(
        components, [Singularity(k, f"p{i}", owners) for i, (k, owners) in enumerate(sings)]
    )


def reference_type(label: str) -> CombinatorialType:
    """A concrete combinatorial type realizing a keyed table row."""
    L = [("L1", 1), ("L2", 1), ("L3", 1), ("L4", 1)]
    builders = {
        "1.1": lambda: _ct(L, [("A1", (a, b)) for a, b in
                               [("L1", "L2"), ("L1", "L3"), ("L1", "L4"),
                                ("L2", "L3"), ("L2", "L4"), ("L3", "L4")]]),
        "1.2": lambda: _ct(L, [("O3", ("L1", "L2", "L3")),
                               ("A1", ("L1", "L4")), ("A1", ("L2", "L4")), ("A1", ("L3", "L4"))]),
        "1.3": lambda: _ct(L, [("O4", ("L1", "L2", "L3", "L4"))]),
        "2.1.1": lambda: _ct([("C", 3), ("L", 1)],
                             [("A1", ("C", "L"))] * 3),
        "2.1.2": lambda: _ct([("C", 3), ("L", 1)], [("x3", ("C", "L"))]),
        "2.1.3": lambda: _ct([("C", 3), ("L", 1)],
                             [("x2", ("C", "L")), ("A1", ("C", "L"))]),
        "2.2.1": lambda: _ct([("C", 3), ("L", 1)],
                             [("A1", ("C", "C"))] + [("A1", ("C", "L"))] * 3),
        "2.2.2": lambda: _ct([("C", 3), ("L", 1)],
                             [("A1", ("C", "C")), ("x2", ("C", "L")), ("A1", ("C", "L"))]),
        "2.2.3": lambda: _ct([("C", 3), ("L", 1)],
                             [("A1", ("C", "C")), ("x3", ("C", "L"))]),
        "2.2.4": lambda: _ct([("C", 3), ("L", 1)],
                             [("A1T", ("C", "L")), ("A1", ("C", "L"))]),
        "2.2.5": lambda: _ct([("C", 3), ("L", 1)], [("A1*", ("C", "L"))]),
        "2.3.1": lambda: _ct([("C", 3), ("L", 1)],
                             [("A2", ("C",))] + [("A1", ("C", "L"))] * 3),
        "2.3.2": lambda: _ct([("C", 3), ("L", 1)],
                             [("A2", ("C",)), ("x2", ("C", "L")), ("A1", ("C", "L"))]),
        "2.3.3": lambda: _ct([("C", 3), ("L", 1)],
                             [("A2", ("C",)), ("x3", ("C", "L"))]),
        "2.3.5": lambda: _ct([("C", 3), ("L", 1)], [("A2*", ("C", "L"))]),
        "3.1": lambda: _ct([("Q1", 2), ("Q2", 2)], [("x4", ("Q1", "Q2"))]),
        "3.2": lambda: _ct([("Q1", 2), ("Q2", 2)],
                           [("x3", ("Q1", "Q2")), ("A1", ("Q1", "Q2"))]),
        "3.3": lambda: _ct([("Q1", 2), ("Q2", 2)],
                           [("x2", ("Q1", "Q2"))] + [("A1", ("Q1", "Q2"))] * 2),
        "3.4": lambda: _ct([("Q1", 2), ("Q2", 2)], [("A3", ("Q1", "Q2"))] * 2),
        "3.5": lambda: _ct([("Q1", 2), ("Q2", 2)], [("A1", ("Q1", "Q2"))] * 4),
        "4.1": lambda: _ct([("Q", 2), ("L1", 1), ("L2", 1)],
                           [("A1", ("L1", "L2"))] + [("A1", ("Q", "L1"))] * 2
                           + [("A1", ("Q", "L2"))] * 2),
        "4.2": lambda: _ct([("Q", 2), ("L1", 1), ("L2", 1)],
                           [("O3", ("Q", "L1", "L2")),
                            ("A1", ("Q", "L1")), ("A1", ("Q", "L2"))]),
        "4.3": lambda: _ct([("Q", 2), ("L1", 1), ("L2", 1)],
                           [("x2", ("Q", "L1")), ("A1", ("Q", "L2")),
                            ("A1", ("Q", "L2")), ("A1", ("L1", "L2"))]),
        "4.4": lambda: _ct([("Q", 2), ("L1", 1), ("L2", 1)],
                           [("A3T", ("Q", "L1", "L2")), ("A1", ("Q", "L2"))]),
        "4.5": lambda: _ct([("Q", 2), ("L1", 1), ("L2", 1)],
                           [("x2", ("Q", "L1")), ("x2", ("Q", "L2")),
                            ("A1", ("L1", "L2"))]),
        "C4(3A2)": lambda: _ct([("C", 4)], [("A2", ("C",))] * 3),
        "C5(3A4)": lambda: _ct([("C", 5)], [("A4", ("C",))] * 3),
        "C5(A6+3A2)": lambda: _ct([("C", 5)],
                                  [("A6", ("C",))] + [("A2", ("C",))] * 3),
        "C4(3A2)+{x2,x2}": lambda: _ct([("C", 4), ("L", 1)],
                                       [("A2", ("C",))] * 3 + [("x2", ("C", "L"))] * 2),
        "C3(A2)+{x3}+{x2,x1}": lambda: _ct(
            [("C", 3), ("L1", 1), ("L2", 1)],
            [("A2", ("C",)), ("x3", ("C", "L1")), ("x2", ("C", "L2")),
             ("A1", ("C", "L2")), ("A1", ("L1", "L2"))]),
        "5C1:F4": lambda: _ct([(f"L{i}", 1) for i in range(1, 6)],
                              [("O5", tuple(f"L{i}" for i in range(1, 6)))]),
        "3C1:concurrent": lambda: _ct([("L1", 1), ("L2", 1), ("L3", 1)],
                                      [("O3", ("L1", "L2", "L3"))]),
        "smooth-quintic": lambda: _ct([("C", 5)], []),
    }
    if label == "2.3.4":
        return builders["2.3.2"]()
    try:
        return builders[label]()
    except KeyError:
        raise KeyError(f"no reference combinatorial type for {label!r}") from None


def keyed_reference_labels() -> List[str]:
    """Labels of all keyed rows (reference_type exists for each)."""
    return [row.label for row in _TABLE if row.key is not None]
