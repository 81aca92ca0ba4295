import random

import pytest
from hypothesis import given, settings, strategies as st

from curvepi import parse_presentation, parse_word
from curvepi.cli import main as cli_main
from curvepi.coset_table import (
    CosetTable,
    EnumLimits,
    Overflow,
    perm_group_order,
    table_from_action,
    todd_coxeter,
    validate_table,
)
from curvepi.presentations import Presentation
from curvepi.verify import _describe
from curvepi.words import Word
from reference_enumerator import reference_todd_coxeter

G2378 = "<a,b | a^2, b^3, (ab)^7, (a b a^-1 b^-1)^8>"

KNOWN_ORDERS = [
    ("<a | a>", 1),
    ("<a | a^3>", 3),
    ("<a | a^7>", 7),
    ("<a,b | a^2, b^2, (ab)^3>", 6),                       # dihedral of order 6
    ("<a,b | a^4, a^2 b^-2, b^-1 a b a>", 8),              # quaternion
    ("<r,s,t | r^2, s^2, t^2, (rs)^2, (st)^3, (rt)^3>", 24),
    ("<x,y | x^3, y^3, (xy)^2>", 12),
    ("<a,b,c | a^2, b^3, c^5, abc>", 60),
    ("<s1,s2 | s1 s2 s1 = s2 s1 s2, s1 s2^2 s1>", 12),
    ("<a,b | a^2, b^3, (ab)^3>", 12),
]


@pytest.mark.parametrize("dsl,order", KNOWN_ORDERS)
def test_known_orders(dsl, order):
    p = parse_presentation(dsl)
    t = todd_coxeter(p)
    assert isinstance(t, CosetTable)
    assert t.n == order
    assert validate_table(p, [], t).passed
    # independent oracle: the permutation image of a trivial-subgroup table
    # is the regular representation, so its order equals the coset count
    assert perm_group_order(t.forward) == order


def test_order_320_case():
    p = parse_presentation("<a,b | b = a b^4 a, a^2 = b^2 a^3 b^2>")
    t = todd_coxeter(p)
    assert t.n == 320
    assert validate_table(p, [], t).passed
    assert perm_group_order(t.forward) == 320


def test_subgroup_index():
    f2 = parse_presentation("<a,b |>")
    sub = [parse_word(f2, w) for w in ("a^2", "b", "a b a^-1")]
    t = todd_coxeter(f2, sub)
    assert t.n == 2
    assert validate_table(f2, sub, t).passed
    # index 1 when the subgroup generators cover everything
    p = parse_presentation("<a,b | aba=bab>")
    t1 = todd_coxeter(p, [parse_word(p, "a"), parse_word(p, "b")])
    assert t1.n == 1


def test_overflow_is_a_result_not_an_exception():
    free = parse_presentation("<a,b |>")
    res = todd_coxeter(free, [], EnumLimits(max_cosets=64))
    assert isinstance(res, Overflow)
    assert res.allocated <= 64
    # limits must be positive
    with pytest.raises(ValueError):
        EnumLimits(max_cosets=0)


def test_trivial_group_has_index_one():
    p = Presentation([])
    t = todd_coxeter(p)
    assert isinstance(t, CosetTable)
    assert t.n == 1
    assert validate_table(p, [], t).passed
    assert t.to_json(p)["n"] == 1


def test_determinism():
    p = parse_presentation("<a,b | a^2, b^3, (ab)^7, (a b a b^-1)^4>")  # PSL(2,7)-ish
    t1 = todd_coxeter(p)
    t2 = todd_coxeter(p)
    assert isinstance(t1, CosetTable)
    assert t1.forward == t2.forward and t1.backward == t2.backward
    assert t1.n == 168


def test_validate_table_examples():
    z3 = parse_presentation("<a | a^3>")
    good = table_from_action(z3, [[1, 2, 0]])
    assert validate_table(z3, [], good).passed
    # corrupt action: not a bijection
    bad = CosetTable([[1, 2, 1]], [[2, 0, 1]])
    report = validate_table(z3, [], bad)
    assert not report.passed
    assert any("bijection" in name for name, _ in report.failures)
    # wrong relator action
    z4_like = CosetTable([[1, 2, 3, 0]], [[3, 0, 1, 2]])
    report2 = validate_table(z3, [], z4_like)
    assert any("relator" in name for name, _ in report2.failures)


def test_validate_catches_subgroup_escape():
    p = parse_presentation("<a | a^4>")
    t = todd_coxeter(p)
    report = validate_table(p, [parse_word(p, "a")], t)
    assert any("subgroup" in name for name, _ in report.failures)


def random_presentation(rng):
    n_gens = rng.randint(1, 4)
    gens = [f"g{i}" for i in range(n_gens)]
    rels = []
    for _ in range(rng.randint(1, 6)):
        length = rng.randint(1, 12)
        rels.append(Word([rng.choice([1, -1]) * rng.randint(1, n_gens) for _ in range(length)]))
    return Presentation(gens, rels)


def test_fuzz_certificates():
    # every successful enumeration passes the certificate check
    rng = random.Random(2024)
    successes = 0
    for _ in range(150):
        p = random_presentation(rng)
        sub = []
        if rng.random() < 0.4:
            sub = [
                Word([rng.choice([1, -1]) * rng.randint(1, p.n_gens) for _ in range(rng.randint(1, 5))])
                for _ in range(rng.randint(1, 2))
            ]
        res = todd_coxeter(p, sub, EnumLimits(max_cosets=2000))
        if isinstance(res, Overflow):
            continue
        successes += 1
        report = validate_table(p, sub, res)
        assert report.passed, (p, report.failures)
    assert successes > 50  # the corpus should mostly terminate


def test_table_from_action_rejects_bad_action():
    p = parse_presentation("<a | a^3>")
    with pytest.raises(ValueError):
        table_from_action(p, [[1, 0, 2]])  # a^3 does not act trivially


def test_trace_and_json():
    p = parse_presentation("<a | a^3>")
    t = todd_coxeter(p)
    assert t.trace(0, parse_word(p, "a^2")) == 2
    doc = t.to_json(p)
    assert doc["n"] == 3 and doc["action"]["a"] == [1, 2, 0]


def test_perm_group_order_limit():
    assert perm_group_order([(1, 0)], limit=1) is None
    assert perm_group_order([], limit=10) == 1


def test_overflow_names_the_deduction_budget():
    p = parse_presentation(G2378)
    res = todd_coxeter(p, [], EnumLimits(max_deductions=1000))
    assert isinstance(res, Overflow) and res.out_of_deductions
    assert res.deductions == 1001 and res.allocated < 1000
    assert _describe(res) == (
        f"deduction budget exhausted after 1000 scan steps ({res.allocated} cosets allocated)"
    )
    res = todd_coxeter(p, [], EnumLimits(max_cosets=1000))
    assert isinstance(res, Overflow) and not res.out_of_deductions
    assert res.allocated == 1000 and res.deductions <= res.limits.max_deductions
    assert _describe(res) == "coset budget exhausted at 1000 cosets (max 1000)"


def test_tc_names_the_budget_that_ran_out(monkeypatch, capsys):
    monkeypatch.setattr("curvepi.cli.limits_from_env", lambda m: EnumLimits(max_deductions=1000))
    assert cli_main(["tc", G2378]) == 1
    err = capsys.readouterr().err
    assert err.startswith("overflow: deduction budget exhausted (1000 scan steps, ")
    assert err.rstrip().endswith(" cosets allocated); index may be infinite")
    monkeypatch.setattr("curvepi.cli.limits_from_env", lambda m: EnumLimits(max_cosets=1000))
    assert cli_main(["tc", G2378]) == 1
    err = capsys.readouterr().err
    assert err == "overflow: 1000 cosets allocated (budget 1000); index may be infinite\n"


# Differential tests against the row-major enumerator the column-major one
# replaced.  The corpus leans on relators g^2 and g^-2, which share one
# column between a generator and its inverse, and on subgroup words that
# use the inverse letters of those involutions.


def _involutive_case(draw_int, draw_bool):
    """A small presentation and subgroup from two sources of choices:
    ``draw_int(lo, hi)`` and ``draw_bool(probability)``."""
    n_gens = draw_int(1, 4)
    involutions = [g for g in range(1, n_gens + 1) if draw_bool(0.6)]
    rels = [Word([g, g] if draw_bool(0.5) else [-g, -g]) for g in involutions]

    def letter(inverse_bias):
        g = draw_int(1, n_gens)
        negative = draw_bool(inverse_bias if g in involutions else 0.5)
        return -g if negative else g

    for _ in range(draw_int(1, 4)):
        if n_gens > 1 and draw_bool(0.5):
            # a Coxeter-like (g h)^k keeps many cases finite
            g, h = letter(0.5), letter(0.5)
            rels.append(Word([g, h] * draw_int(2, 5)))
        else:
            rels.append(Word([letter(0.5) for _ in range(draw_int(1, 10))]))
    sub = []
    if draw_bool(0.5):
        sub = [Word([letter(0.8) for _ in range(draw_int(1, 5))]) for _ in range(draw_int(1, 2))]
    return Presentation([f"g{i}" for i in range(n_gens)], rels), sub


def _agree_with_reference(p, sub, limits):
    """Both enumerators on one case; returns whether both finished."""
    res = todd_coxeter(p, sub, limits)
    ref = reference_todd_coxeter(p, sub, limits)
    if not isinstance(res, Overflow):
        report = validate_table(p, sub, res)
        assert report.passed, (p, sub, report.failures)
    if isinstance(res, Overflow) or ref is None:
        return False
    assert res.forward == ref.forward and res.backward == ref.backward, (p, sub)
    return True


def test_matches_reference_enumerator_on_seeded_corpus():
    rng = random.Random(6)
    both = 0
    for _ in range(300):
        p, sub = _involutive_case(rng.randint, lambda q: rng.random() < q)
        both += _agree_with_reference(p, sub, EnumLimits(max_cosets=2000))
    assert both > 100


@pytest.mark.parametrize(
    "dsl,sub,index",
    [
        ("<a,b,c,d | a^2,b^2,c^2,d^2,(ab)^3,(bc)^3,(cd)^3,(ac)^2,(ad)^2,(bd)^2>", ["a", "b^-1"], 20),
        ("<a,b,c | a^-2,b^2,c^2,(ab)^5,(bc)^3,(ac)^2>", ["c a^-1 c"], 60),
        ("<a,b,c | a^2,b^2,c^2,(ab)^4,(bc)^3,(ac)^2>", [], 48),
        (G2378, ["b"], 3584),
    ],
)
def test_matches_reference_enumerator_on_named_groups(dsl, sub, index):
    p = parse_presentation(dsl)
    words = [parse_word(p, w) for w in sub]
    assert _agree_with_reference(p, words, EnumLimits())
    assert todd_coxeter(p, words).n == index


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_reference_enumerator_on_hypothesis_corpus(data):
    p, sub = _involutive_case(
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda q: data.draw(st.floats(0, 1)) < q,
    )
    _agree_with_reference(p, sub, EnumLimits(max_cosets=500))
