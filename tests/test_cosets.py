import random

import pytest

from curvepi import parse_presentation, parse_word
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
from curvepi.words import Word

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
