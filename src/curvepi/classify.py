"""Classification of fundamental groups of plane-curve complements from
combinatorial types, for total degree at most five.

The table has one row per enumerated case of the degree-4 analysis and one
per entry of the quintic nonabelian list, in ``CASES`` (label -> row).  A
row whose combinatorial type the source pins holds a reference type, and
its key is the canonical key of that type; rows for which only the
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
from itertools import combinations
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
    """One case of the table.  A row whose combinatorial type the source
    pins holds a reference type, and its key and degrees are read from it;
    a partially keyed row holds only its component degrees.

    A row with no group name is abelian, and its group comes from its
    degrees.  Every other row names its group and says whether it is
    virtually abelian; it has a presentation and invariants only when it
    gives a catalog tag or DSL text."""

    __slots__ = ("type", "key", "degrees", "name", "tag_text", "dsl",
                 "finite_order", "virtually_abelian", "notes")

    def __init__(self, shape, name="", tag_text=None, dsl=None, *,
                 finite_order=None, virtually_abelian=False, notes=""):
        if isinstance(shape, CombinatorialType):
            self.type, self.key, self.degrees = shape, canonical_key(shape), sorted(shape.degrees)
        else:
            self.type, self.key, self.degrees = None, None, list(shape)
        self.name = name
        self.tag_text = tag_text
        self.dsl = dsl
        self.finite_order = finite_order
        self.virtually_abelian = virtually_abelian
        self.notes = notes


def _type(components, *singularities) -> CombinatorialType:
    """A reference type: (id, degree) components and (kind, owner, ...)
    singularities, one owner per branch."""
    return CombinatorialType(
        components,
        [Singularity(kind, f"p{i}", owners) for i, (kind, *owners) in enumerate(singularities)],
    )


_LINES = [(f"L{i}", 1) for i in range(1, 6)]
_CL = [("C", 3), ("L", 1)]
_QQ = [("Q1", 2), ("Q2", 2)]
_QLL = [("Q", 2), ("L1", 1), ("L2", 1)]
_CUSP_TANGENT_LINE = _type(_CL, ("A2", "C"), ("x2", "C", "L"), ("A1", "C", "L"))

_VA_NOTE = "finitely generated abelian kernel over a cyclic line-complement quotient; exact group not pinned"

# case label -> row, in the order of the source's case analysis
CASES: Dict[str, _Row] = {
    # ---- four lines ----
    "1.1": _Row(
        _type(_LINES[:4], *[("A1", a, b) for (a, _), (b, _) in combinations(_LINES[:4], 2)]),
        notes="nodal arrangement"),
    "1.2": _Row(_type(_LINES[:4], ("O3", "L1", "L2", "L3"),
                      ("A1", "L1", "L4"), ("A1", "L2", "L4"), ("A1", "L3", "L4")),
                "F_2 x Z", "free:2*free:1",
                notes="projection at the triple point gives a trivial fibration"),
    "1.3": _Row(_type(_LINES[:4], ("O4", "L1", "L2", "L3", "L4")), "F_3", "free:3",
                notes="concurrent lines: single singular fiber, no monodromy relation"),
    # ---- cubic plus line ----
    "2.1.1": _Row(_type(_CL, *[("A1", "C", "L")] * 3)),
    "2.1.2": _Row(_type(_CL, ("x3", "C", "L"))),
    "2.1.3": _Row(_type(_CL, ("x2", "C", "L"), ("A1", "C", "L"))),
    "2.2.1": _Row(_type(_CL, ("A1", "C", "C"), *[("A1", "C", "L")] * 3)),
    "2.2.2": _Row(_type(_CL, ("A1", "C", "C"), ("x2", "C", "L"), ("A1", "C", "L"))),
    "2.2.3": _Row(_type(_CL, ("A1", "C", "C"), ("x3", "C", "L"))),
    "2.2.4": _Row(_type(_CL, ("A1T", "C", "L"), ("A1", "C", "L"))),
    "2.2.5": _Row(_type(_CL, ("A1*", "C", "L"))),
    "2.3.1": _Row(_type(_CL, ("A2", "C"), *[("A1", "C", "L")] * 3)),
    "2.3.2": _Row(_CUSP_TANGENT_LINE),
    "2.3.3": _Row(_type(_CL, ("A2", "C"), ("x3", "C", "L")), "B_3", "braid:3",
                  notes="inflectional tangent line taken to infinity"),
    "2.3.4": _Row(_CUSP_TANGENT_LINE, notes="same combinatorial type as case 2.3.2"),
    "2.3.5": _Row(_type(_CL, ("A2*", "C", "L"))),
    # ---- two conics ----
    "3.1": _Row(_type(_QQ, ("x4", "Q1", "Q2")), "Z * Z/2", None, "<a,b | b^2>"),
    "3.2": _Row(_type(_QQ, ("x3", "Q1", "Q2"), ("A1", "Q1", "Q2")), "virtually abelian",
                virtually_abelian=True, notes=_VA_NOTE),
    "3.3": _Row(_type(_QQ, ("x2", "Q1", "Q2"), *[("A1", "Q1", "Q2")] * 2), "virtually abelian",
                virtually_abelian=True, notes=_VA_NOTE),
    "3.4": _Row(_type(_QQ, *[("A3", "Q1", "Q2")] * 2), "Z * Z/2", None, "<a,b | b^2>",
                notes="bitangent conic pencil"),
    "3.5": _Row(_type(_QQ, *[("A1", "Q1", "Q2")] * 4)),
    # ---- conic plus two lines ----
    "4.1": _Row(_type(_QLL, ("A1", "L1", "L2"), *[("A1", "Q", "L1")] * 2, *[("A1", "Q", "L2")] * 2)),
    "4.2": _Row(_type(_QLL, ("O3", "Q", "L1", "L2"), ("A1", "Q", "L1"), ("A1", "Q", "L2")),
                "virtually abelian", virtually_abelian=True, notes=_VA_NOTE),
    "4.3": _Row(_type(_QLL, ("x2", "Q", "L1"), *[("A1", "Q", "L2")] * 2, ("A1", "L1", "L2")),
                "virtually abelian", virtually_abelian=True, notes=_VA_NOTE),
    "4.4": _Row(_type(_QLL, ("A3T", "Q", "L1", "L2"), ("A1", "Q", "L2")), "virtually abelian",
                virtually_abelian=True, notes=_VA_NOTE),
    "4.5": _Row(_type(_QLL, ("x2", "Q", "L1"), ("x2", "Q", "L2"), ("A1", "L1", "L2")),
                "F_2 x| Z", notes="mapping torus of a rank-2 free group (monodromy not pinned)"),
    # ---- irreducible quartics ----
    "C4(3A2)": _Row(_type([("C", 4)], *[("A2", "C")] * 3), "B_3(S^2)", "spherebraid3",
                    finite_order=12, notes="three-cusped quartic"),
    # ---- quintic nonabelian list ----
    "C5(3A4)": _Row(_type([("C", 5)], *[("A4", "C")] * 3), "order-320 group",
                    "quintic:C5_3A4", finite_order=320),
    "C5(A6+3A2)": _Row(_type([("C", 5)], ("A6", "C"), *[("A2", "C")] * 3),
                       "Z-central extension of T(2,3,7)", "quintic:C5_A6_3A2"),
    "C4(3A2)+{x2,x2}": _Row(
        _type([("C", 4), ("L", 1)], *[("A2", "C")] * 3, *[("x2", "C", "L")] * 2),
        "Art_333", "quintic:C4_3A2"),
    "C4+C1:B3": _Row([1, 4], "B_3", "braid:3"),
    "C4+C1:B4": _Row([1, 4], "B_4", "braid:4"),
    "C4+C1:G3(t+1)": _Row([1, 4], "G_3(t+1)", "gpolymod:3;1,1"),
    "C4+C1:G5(t+1)": _Row([1, 4], "G_5(t+1)", "gpolymod:5;1,1"),
    "C4+C1:Gr(2,3,5)xZ": _Row([1, 4], "Gr<2,3,5> x Z", "gr:2,3,5*free:1"),
    "C4+C1:T(3,4)": _Row([1, 4], "T_{3,4}", "toric:3,4"),
    "C3+C2": _Row([2, 3], "Pi(C3+C2)", "quintic:C3_C2", virtually_abelian=True,
                  notes="virtually Z^2"),
    "C3+2C1:ZxB3": _Row([1, 1, 3], "Z x B_3", "free:1*braid:3"),
    "C3+2C1:G(t^2-1)": _Row([1, 1, 3], "G(t^2-1)", "gpoly:-1,0,1"),
    "C3+2C1:G(t^3-1)": _Row([1, 1, 3], "G(t^3-1)", "gpoly:-1,0,0,1"),
    "C3+2C1:T(2,4)": _Row([1, 1, 3], "T_{2,4}", "toriceven:2"),
    "C3+2C1:T(2,6)": _Row([1, 1, 3], "T_{2,6}", "toriceven:3"),
    "C3(A2)+{x3}+{x2,x1}": _Row(
        _type([("C", 3), ("L1", 1), ("L2", 1)], ("A2", "C"), ("x3", "C", "L1"),
              ("x2", "C", "L2"), ("A1", "C", "L2"), ("A1", "L1", "L2")),
        "Art_234", "quintic:C3_A2_x3_x2x1"),
    "2C2+C1:F2": _Row([1, 2, 2], "F_2", "free:2"),
    "2C2+C1:T(2,4)": _Row([1, 2, 2], "T_{2,4}", "toriceven:2"),
    "2C2+C1:ZxB3": _Row([1, 2, 2], "Z x B_3", "free:1*braid:3"),
    "C2+3C1:ZxF2": _Row([1, 1, 1, 2], "Z x F_2", "free:1*free:2"),
    "C2+3C1:ZxT(2,4)": _Row([1, 1, 1, 2], "Z x T_{2,4}", "free:1*toriceven:2"),
    "C2+3C1:Pi": _Row([1, 1, 1, 2], "Pi(C2+3C1)", "quintic:C2_3C1_A",
                      notes="has an index-2 right-angled Artin subgroup"),
    "C2+3C1:Art244": _Row([1, 1, 1, 2], "Art_244", "quintic:C2_3C1_B"),
    "5C1:F4": _Row(_type(_LINES, ("O5", "L1", "L2", "L3", "L4", "L5")), "F_4", "free:4",
                   notes="concurrent lines: same projection argument as case 1.3"),
    "5C1:ZxF3": _Row([1, 1, 1, 1, 1], "Z x F_3", "free:1*free:3"),
    "5C1:F2xF2": _Row([1, 1, 1, 1, 1], "F_2 x F_2", "free:2*free:2"),
    "5C1:Z2xF2": _Row([1, 1, 1, 1, 1], "Z^2 x F_2", "free:1*free:1*free:2"),
    # ---- low degree extras covered by the same projection argument ----
    "3C1:concurrent": _Row(_type(_LINES[:3], ("O3", "L1", "L2", "L3")), "F_2", "free:2",
                           notes="concurrent lines: same projection argument as case 1.3"),
}


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


def lookup_case(label: str) -> ClassificationEntry:
    try:
        row = CASES[label]
    except KeyError:
        raise KeyError(f"no classification case labeled {label!r}") from None
    if not row.name:
        return _abelian_entry(label, row.key, row.degrees, row.notes)
    tag = parse_tag(row.tag_text) if row.tag_text else None
    if tag is not None:
        pres = build(tag)
    elif row.dsl is not None:
        pres = parse_presentation(row.dsl)
    else:
        pres = None
    return ClassificationEntry(
        label, row.key, row.name, tag, pres,
        abelian=False,
        virtually_abelian=row.virtually_abelian,
        finite_order=row.finite_order,
        invariants=None if pres is None else abelian_invariants(pres),
        notes=row.notes,
    )


def _key_index() -> Dict[str, str]:
    """Key -> label of the first keyed row with that key."""
    index: Dict[str, str] = {}
    for label, row in CASES.items():
        if row.key is None:
            continue
        first = CASES[index.setdefault(row.key, label)]
        # duplicate keys are allowed only when the answers agree
        if (first.name, first.virtually_abelian) != (row.name, row.virtually_abelian):
            raise AssertionError(f"conflicting table rows for key {row.key}")
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
    label = _KEYED.get(key)
    if label is not None:
        return lookup_case(label)
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
