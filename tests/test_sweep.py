"""Every admissible labelled combinatorial type of total degree at most 5
through the classifier (see type_sweep.py for the enumeration)."""

from collections import Counter, defaultdict

from curvepi.abelian import curve_abelianization
from curvepi.classify import CASES, NotCovered, classify
from type_sweep import all_admissible_types, ownership

# types per verdict: the case label of each entry, or "not covered"; a
# change to the kind vocabulary, the validator, canonical_key or the table
# shows up here as a count change
VERDICTS = {
    "1.1": 1, "1.2": 4, "1.3": 1,
    "2.1.1": 1, "2.1.2": 1, "2.1.3": 1,
    "2.2.1": 1, "2.2.2": 1, "2.2.3": 1, "2.2.4": 1, "2.2.5": 1,
    "2.3.1": 1, "2.3.2": 1, "2.3.3": 1, "2.3.5": 1,
    "3.1": 1, "3.2": 1, "3.3": 1, "3.4": 1, "3.5": 1,
    "3C1:concurrent": 1,
    "4.1": 1, "4.2": 1, "4.3": 2, "4.4": 2, "4.5": 1,
    "5C1:F4": 1,
    "C3(A2)+{x3}+{x2,x1}": 2,
    "C4(3A2)": 1, "C4(3A2)+{x2,x2}": 1, "C5(3A4)": 1, "C5(A6+3A2)": 1,
    "irreducible quartic": 16,
    "irreducible quintic": 202,
    "nodal": 24,
    "smooth": 5,
    "not covered": 426,
}


def test_every_admissible_type_gets_a_sound_verdict():
    types = all_admissible_types()
    verdicts = Counter()
    abelian = 0
    structures = defaultdict(set)
    for ct in types:
        result = classify(ct)  # raises on none of them
        if isinstance(result, NotCovered):
            verdicts["not covered"] += 1
            continue
        verdicts[result.case_label] += 1
        structures[result.key].add(ownership(ct))
        if result.abelian:
            abelian += 1
            assert result.invariants == curve_abelianization(ct.degrees), result.key
    assert (len(types), abelian, len(types) - abelian - verdicts["not covered"]) == (711, 261, 24)
    assert dict(verdicts) == VERDICTS
    # every keyed row is reached, and the coarse key, which drops which
    # component owns which branch, never stands for two ownership structures
    assert {row.key for row in CASES.values() if row.key is not None} <= set(structures)
    assert {key: len(forms) for key, forms in structures.items() if len(forms) > 1} == {}
