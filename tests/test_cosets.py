import gc
import random
import tracemalloc
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from curvepi import coset_table, parse_presentation, parse_word
from curvepi.cli import main as cli_main
from curvepi.coset_table import (
    _BLOCK,
    _COMPACT_SHARE,
    MAX_COSETS,
    CosetTable,
    EnumStats,
    Overflow,
    _coincidence,
    _compact,
    _renumber,
    _shortcuts,
    _word_to_cols,
    table_from_action,
    todd_coxeter,
    validate_table,
)
from curvepi.presentations import Presentation
from curvepi.words import Word
from perm_oracle import perm_group_order
from reference_enumerator import Overflow as ScanEveryOverflow
from reference_enumerator import reference_todd_coxeter, scan_every_todd_coxeter
from validate_oracle import validate_table as oracle_validate_table

G2378 = "<a,b | a^2, b^3, (ab)^7, (a b a^-1 b^-1)^8>"
E6 = (
    "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
    "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
)
# one rewrite each of E6 and G2378 as the benchmark makes them: relators
# shuffled, each rotated, some inverted; HLT's work depends on all three
E6_REWRITTEN = (
    "<a,b,c,d,e,f | (ab)^3, (df)^2, (cd)^3, (ca)^2, (d^-1 e^-1)^3, a^-2, b^-2, (b^-1 e^-1)^2, "
    "(ad)^2, (b^-1 f^-1)^2, (af)^2, (e^-1 f^-1)^2, c^-2, (b^-1 d^-1)^2, (a^-1 e^-1)^2, d^2, "
    "(f^-1 c^-1)^3, (c^-1 b^-1)^3, f^-2, e^-2, (e^-1 c^-1)^2>"
)
G2378_REWRITTEN = "<a,b | (a b a^-1 b^-1)^8, (b^-1 a^-1)^7, a^-2, b^-3>"

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
    # tuples even with one coset, where itemgetter returns a bare entry
    assert all(type(m) is tuple for m in (*t.forward, *t.backward))
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
    res = todd_coxeter(free, [], 64)
    assert isinstance(res, Overflow)
    assert res.allocated <= 64
    # the budget must be positive
    for max_cosets in (0, -1):
        with pytest.raises(ValueError):
            todd_coxeter(free, [], max_cosets)


def test_enumeration_leaves_no_reference_cycle():
    # the enumerator's state is freed by reference counting when it
    # returns, whether it finished a table or ran out of cosets; b^3
    # deduces, so both runs drain deductions
    p = parse_presentation("<a,b | a^2, b^3, (ab)^7, (a b a b^-1)^4>")
    gc.collect()
    gc.disable()
    try:
        assert isinstance(todd_coxeter(p), CosetTable)
        assert isinstance(todd_coxeter(p, [], 20), Overflow)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_validate_rejects_a_subgroup_word_over_an_undeclared_generator():
    # the same ValueError as todd_coxeter's, not an IndexError from trace
    p = parse_presentation("<a | a^2>")
    t = todd_coxeter(p)
    for w in (Word.gen(3), ~Word.gen(1)):
        with pytest.raises(ValueError, match="undeclared generator"):
            todd_coxeter(p, [w])
        with pytest.raises(ValueError, match="undeclared generator"):
            validate_table(p, [w], t)


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
        res = todd_coxeter(p, sub, 2000)
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
    with patch.object(coset_table, "_MAX_SCAN_STEPS", 1000):
        res = todd_coxeter(p)
        assert isinstance(res, Overflow) and res.out_of_deductions
    assert res.deductions == 1001 and res.allocated < 1000
    res = todd_coxeter(p, [], 1000)
    assert isinstance(res, Overflow) and not res.out_of_deductions
    assert res.allocated == res.max_cosets == 1000
    assert res.deductions <= coset_table._MAX_SCAN_STEPS


def test_deduction_scans_are_budgeted():
    # the (3,3,3) triangle group is infinite and all its relators deduce;
    # each deduction scan is one step of the budget, so the budget runs out
    # exactly one step past its limit, whatever that limit is
    p = parse_presentation("<a,b,c | a^3, b^3, c^3, a b c>")
    for budget in [200] + list(range(1, 120)):
        with patch.object(coset_table, "_MAX_SCAN_STEPS", budget):
            res = todd_coxeter(p)
            assert isinstance(res, Overflow) and res.out_of_deductions
        assert res.deductions == budget + 1
    res = todd_coxeter(p, [], 1000)
    assert isinstance(res, Overflow) and not res.out_of_deductions
    assert res.allocated == 1000


def test_tc_names_the_budget_that_ran_out(capsys):
    # tc, rs and verify all print str(Overflow); no option sets the scan
    # step cap, so its wording is checked on the value
    with patch.object(coset_table, "_MAX_SCAN_STEPS", 1000):
        res = todd_coxeter(parse_presentation(G2378))
        assert str(res) == "deduction budget exhausted (1000 scan steps, 398 cosets allocated)"
    assert res.deductions == 1001
    assert cli_main(["tc", G2378, "--max-cosets", "1000"]) == 1
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


def _agree_with_reference(p, sub, max_cosets):
    """Both enumerators on one case; returns whether both finished."""
    res = todd_coxeter(p, sub, max_cosets)
    ref = reference_todd_coxeter(p, sub, max_cosets)
    if not isinstance(res, Overflow):
        report = validate_table(p, sub, res)
        assert report.passed, (p, sub, report.failures)
    if isinstance(res, Overflow) or ref is None:
        return False
    assert res.forward == ref.forward and res.backward == ref.backward, (p, sub)
    return True


def _needs_row_fill(p):
    """Whether some column list is neither the first letter nor the inverse
    of the last letter of a relator other than g^2 or g^-2: only then can
    the row fill define a coset, and only then does the enumerator run it."""
    words = [_word_to_cols(r) for r in p.relators]
    squares = {w for w in words if len(w) == 2 and w[0] == w[1]}
    involutions = {w[0] >> 1 for w in squares}

    def name(x):  # an involution's two columns are one list
        return x & ~1 if x >> 1 in involutions else x

    ends = {name(x) for w in words if w and w not in squares for x in (w[0], w[-1] ^ 1)}
    return any(name(x) not in ends for x in range(2 * p.n_gens))


def test_matches_reference_enumerator_on_seeded_corpus():
    rng = random.Random(6)
    both = 0
    fill = Counter()
    for _ in range(300):
        p, sub = _involutive_case(rng.randint, lambda q: rng.random() < q)
        fill[_needs_row_fill(p)] += 1
        both += _agree_with_reference(p, sub, 2000)
    assert both > 100
    # cases on both sides of the row-fill rule occur
    assert fill[True] > 10 and fill[False] > 10, fill
    assert _needs_row_fill(parse_presentation("<s1,s2 | s1 s2 s1 = s2 s1 s2, s1 s2^2 s1>"))
    for dsl in (E6, G2378, E6_REWRITTEN, G2378_REWRITTEN):
        assert not _needs_row_fill(parse_presentation(dsl))


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
    assert _agree_with_reference(p, words, MAX_COSETS)
    assert todd_coxeter(p, words).n == index


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_reference_enumerator_on_hypothesis_corpus(data):
    p, sub = _involutive_case(
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda q: data.draw(st.floats(0, 1)) < q,
    )
    _agree_with_reference(p, sub, 500)


# Skipped scans and deductions.  A relator symmetry lets the enumerator
# skip scans that would only confirm a closed cycle, and relators of length
# at most 3 deduce between scans, so its work differs from that of the
# column-major enumerator that scans everything and never deduces, but
# every table they both finish must be the same.


def _symmetric_case(draw_int, draw_bool):
    """A small presentation and subgroup from two sources of choices, biased
    to relators equal to a rotation of themselves or of their inverse:
    powers, Coxeter-like (x y)^m, commutator powers (x y x^-1 y^-1)^m with x
    an involution, random u^k, and reflections such as y x^2.  Each relator
    is then rotated and perhaps inverted, as the benchmark rewrites do."""
    n_gens = draw_int(1, 3)
    involutions = [g for g in range(1, n_gens + 1) if draw_bool(0.6)]
    rels = [Word([g, g] if draw_bool(0.5) else [-g, -g]) for g in involutions]

    def gen():
        return draw_int(1, n_gens)

    def signed(g):
        return -g if draw_bool(0.5) else g

    for _ in range(draw_int(1, 4)):
        kind = draw_int(0, 4)
        if kind == 0:
            w = [signed(gen())] * draw_int(2, 7)
        elif kind == 1:
            w = [signed(gen()), signed(gen())] * draw_int(2, 6)
        elif kind == 2:
            x = involutions[draw_int(0, len(involutions) - 1)] if involutions else gen()
            y = gen()
            w = [x, y, -x, -y] * draw_int(1, 4)
        elif kind == 3:
            w = [signed(gen()) for _ in range(draw_int(1, 3))] * draw_int(2, 4)
        else:
            w = [signed(gen())] + [signed(gen())] * draw_int(2, 3)
        k = draw_int(0, len(w) - 1)
        w = w[k:] + w[:k]
        if draw_bool(0.5):
            w = [-x for x in reversed(w)]
        rels.append(Word(w))
    sub = []
    if draw_bool(0.5):
        sub = [Word([signed(gen()) for _ in range(draw_int(1, 5))]) for _ in range(draw_int(1, 2))]
    return Presentation([f"g{i}" for i in range(n_gens)], rels), sub


def _relator_offsets(p):
    """(offset 1, offset L-1) for each relator, with the enumerator's
    involutions: the generators with a relator g^2 or g^-2."""
    words = [_word_to_cols(r) for r in p.relators]
    involutions = {w[0] >> 1 for w in words if len(w) == 2 and w[0] == w[1]}
    return [tuple(x is not None for x in _shortcuts(w, involutions)) for w in words if w]


def _agree_with_scan_every(p, sub, max_cosets, max_deductions):
    """Both column-major enumerators on one case: the tables agree whenever
    both finish, and every finished table passes ``validate_table``.
    Returns which way the one that scans everything ended, and the other's
    result."""
    with patch.object(coset_table, "_MAX_SCAN_STEPS", max_deductions):
        res = todd_coxeter(p, sub, max_cosets)
    ref = scan_every_todd_coxeter(p, sub, max_cosets, max_deductions)
    finished = isinstance(res, CosetTable)
    if finished:
        report = validate_table(p, sub, res)
        assert report.passed, (p, sub, report.failures)
    if isinstance(ref, ScanEveryOverflow):
        end = "deductions" if ref.deductions > max_deductions else "cosets"
    else:
        end = "finished"
        if finished:
            assert res.forward == ref.forward and res.backward == ref.backward, (p, sub)
    return end, res


def _deduces(p):
    """Whether some relator other than g^2 or g^-2 has length at most 3."""
    words = [_word_to_cols(r) for r in p.relators]
    return any(0 < len(w) <= 3 and not (len(w) == 2 and w[0] == w[1]) for w in words)


def test_matches_scan_every_enumerator_on_seeded_corpus():
    rng = random.Random(8)
    ends = {"finished": 0, "cosets": 0, "deductions": 0}
    offsets = {(True, False): 0, (False, True): 0, (True, True): 0, (False, False): 0}
    lost = deducing = 0
    # the enumerator's exact work: its stats summed, and its results by type
    work = Counter()
    for _ in range(400):
        p, sub = _symmetric_case(rng.randint, lambda q: rng.random() < q)
        for pair in _relator_offsets(p):
            offsets[pair] += 1
        deducing += _deduces(p)
        max_deductions = rng.choice([10**8, rng.randint(20, 2000)])
        end, res = _agree_with_scan_every(p, sub, 2000, max_deductions)
        ends[end] += 1
        # deductions may change where a budget runs out, but no case that
        # the enumerator scanning everything finishes runs out here
        lost += end == "finished" and isinstance(res, Overflow)
        work[type(res).__name__] += 1
        work.update(res.stats._asdict())
    assert ends["finished"] > 100 and ends["cosets"] > 10 and ends["deductions"] > 10, ends
    assert lost == 0
    # offset-1-only, offset-(L-1)-only and both-offset relators all occur
    assert min(offsets.values()) > 10, offsets
    assert deducing > 10 and work["skipped"] > 0
    # any change to the order of scans or deductions moves these; the cases
    # that run out of cosets compact first, so they overflow later
    assert work == {
        "CosetTable": 233,
        "Overflow": 167,
        "allocated": 305609,
        "dead": 55413,
        "scan_steps": 376802,
        "skipped": 32740,
        "peak_live": 250580,
        "compactions": 170,
    }


def _enumerate(p, sub, max_cosets, max_steps, fill_every_row=False):
    """``todd_coxeter`` with a scan-step cap, and with the row fill forced
    on at every coset when ``fill_every_row``."""
    rule = (lambda *_: True) if fill_every_row else coset_table._row_fill_needed
    with patch.object(coset_table, "_MAX_SCAN_STEPS", max_steps), patch.object(
        coset_table, "_row_fill_needed", rule
    ):
        return todd_coxeter(p, sub, max_cosets)


def test_forcing_the_row_fill_on_changes_no_work_on_seeded_corpora():
    # the fill runs only where _row_fill_needed says it can define a coset;
    # forced on everywhere, it defines none where the rule left it out, so
    # every case of both seeded corpora, budgets as above, does the same work
    # and finishes the same table
    rng = random.Random(6)
    cases = [(*_involutive_case(rng.randint, lambda q: rng.random() < q), 10**8) for _ in range(300)]
    rng = random.Random(8)
    for _ in range(400):
        p, sub = _symmetric_case(rng.randint, lambda q: rng.random() < q)
        cases.append((p, sub, rng.choice([10**8, rng.randint(20, 2000)])))
    left_out = 0
    for p, sub, max_steps in cases:
        res = _enumerate(p, sub, 2000, max_steps)
        forced = _enumerate(p, sub, 2000, max_steps, fill_every_row=True)
        assert type(res) is type(forced) and res.stats == forced.stats, (p, sub)
        if isinstance(res, CosetTable):
            assert res.forward == forced.forward and res.backward == forced.backward, (p, sub)
        left_out += not _needs_row_fill(p)
    assert left_out > 100, left_out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_scan_every_enumerator_on_hypothesis_corpus(data):
    p, sub = _symmetric_case(
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda q: data.draw(st.floats(0, 1)) < q,
    )
    max_deductions = data.draw(st.sampled_from([10**8, 50, 500]))
    _agree_with_scan_every(p, sub, 500, max_deductions)


def test_offset_one_symmetry_does_not_imply_offset_last():
    # g1 g0^2 with both generators involutions equals its inverse rotated
    # by one letter, but no rotation by two letters gives it or its inverse
    p = parse_presentation("<g0,g1 | g0^2, g1^-2, g0^-6, g1 g0^2>")
    assert _relator_offsets(p)[-1] == (True, False)
    sub = [parse_word(p, "g1"), parse_word(p, "g0^-1 g1^-1 g0^-1 g1^-1 g0^-1")]
    t = todd_coxeter(p, sub)
    assert isinstance(t, CosetTable) and t.n == 1
    assert validate_table(p, sub, t).passed


def test_e6_finishes_within_a_reduced_deduction_budget():
    # the enumerator that scans everything needs 836,765 scan steps here
    p = parse_presentation(E6)
    with patch.object(coset_table, "_MAX_SCAN_STEPS", 400_000):
        t = todd_coxeter(p)
    assert isinstance(t, CosetTable) and t.n == 51840
    # E6 has no relator of length 3 or less but its g^2, so nothing deduces,
    # and choosing the scans by skip mask changes no scan step
    assert t.stats == EnumStats(
        allocated=59166, dead=7326, scan_steps=236025, skipped=600740, peak_live=51840, compactions=0
    )
    p = parse_presentation(E6_REWRITTEN)
    with patch.object(coset_table, "_MAX_SCAN_STEPS", 400_000):
        t = todd_coxeter(p)
    assert isinstance(t, CosetTable) and t.n == 51840
    assert t.stats == EnumStats(
        allocated=59207, dead=7367, scan_steps=236052, skipped=600754, peak_live=51841, compactions=0
    )


def test_involution_maps_share_one_tuple():
    p = parse_presentation(E6)
    t = todd_coxeter(p)
    assert all(t.forward[g] is t.backward[g] for g in range(t.n_gens))
    g = parse_presentation(G2378)
    t = todd_coxeter(g)
    assert t.forward[0] is t.backward[0] and t.forward[1] != t.backward[1]
    z2 = parse_presentation("<a | a^2>")
    t = table_from_action(z2, [[1, 0]])
    assert t.forward == t.backward and t.forward[0] is not t.backward[0]


def test_enumeration_stats():
    p = parse_presentation(G2378)
    t = todd_coxeter(p)
    s = t.stats
    assert isinstance(s, EnumStats) and s.allocated - s.dead == t.n == 10752
    # the work as written: deducing with b^3 allocates 38,168 cosets, where
    # HLT without deductions allocates 128,562 and 117,810 of them die
    assert s == EnumStats(
        allocated=38168, dead=27416, scan_steps=122886, skipped=14208, peak_live=37108, compactions=0
    )
    t = todd_coxeter(parse_presentation(G2378_REWRITTEN))
    assert t.n == 10752 and t.stats == EnumStats(
        allocated=44702, dead=33950, scan_steps=142207, skipped=15237, peak_live=43278, compactions=0
    )
    assert CosetTable([[0]], [[0]]).stats is None
    res = todd_coxeter(p, [], 1000)
    assert isinstance(res, Overflow) and res.stats.allocated == res.allocated == 1000
    assert res.live_cosets == res.stats.allocated - res.stats.dead
    assert res.deductions == res.stats.scan_steps


def test_tc_stats_go_to_stderr(capsys):
    assert cli_main(["tc", G2378]) == 0
    plain = capsys.readouterr()
    assert cli_main(["tc", G2378, "--stats"]) == 0
    stats = capsys.readouterr()
    assert stats.out == plain.out == "10752\n" and plain.err == ""
    s = todd_coxeter(parse_presentation(G2378)).stats
    assert stats.err == (
        f"stats: {s.allocated} cosets allocated, {s.dead} dead, "
        f"{s.scan_steps} scan steps, {s.skipped} scans skipped, "
        f"{s.peak_live} peak live, {s.compactions} compactions\n"
    )
    assert cli_main(["tc", G2378, "--json"]) == 0
    doc = capsys.readouterr().out
    assert cli_main(["tc", G2378, "--json", "--stats"]) == 0
    assert capsys.readouterr().out == doc
    assert cli_main(["tc", "<a,b |>", "--stats", "--max-cosets", "50"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "stats: 50 cosets allocated, 0 dead, 0 scan steps, 0 scans skipped, "
        "50 peak live, 0 compactions",
        "overflow: 50 cosets allocated (budget 50); index may be infinite",
    ]


@pytest.mark.parametrize("max_cosets", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_coset_budget_is_exact_across_column_blocks(max_cosets):
    # the columns grow a block at a time, but the budget counts definitions
    res = todd_coxeter(parse_presentation("<a,b |>"), [], max_cosets)
    assert isinstance(res, Overflow) and not res.out_of_deductions
    assert res.allocated == res.stats.allocated == max_cosets
    # a finished table counts definitions too, not the columns' length
    t = todd_coxeter(parse_presentation(f"<a | a^{max_cosets}>"))
    assert t.n == max_cosets and t.stats.allocated == max_cosets and t.stats.dead == 0


# The enumerator takes the entries of live rows as live cosets (module
# docstring): once _coincidence returns, no live row points at a dead coset.


def _partial_table(rng, n, n_gens):
    """Random partial injective column lists over n cosets, laid out as the
    enumerator lays them out, and their (column, inverse column) pairs: an
    involution's two columns are one list, holding a partial involution."""
    pairs = []
    for _ in range(n_gens):
        points = list(range(n))
        rng.shuffle(points)
        k = rng.randint(0, n)
        if rng.random() < 0.5:
            col = [None] * n
            for c, d in zip(points[0:k:2], points[1:k:2]):
                col[c], col[d] = d, c
            for c in points[k:]:
                if rng.random() < 0.2:
                    col[c] = c
            pairs.append((col, col))
        else:
            col, inv = [None] * n, [None] * n
            images = rng.sample(range(n), k)
            for c, d in zip(points[:k], images):
                col[c], inv[d] = d, c
            pairs += [(col, inv), (inv, col)]
    return pairs


def test_coincidence_leaves_no_pointer_into_a_dead_coset():
    rng = random.Random(29)
    merged = cascades = 0
    for _ in range(400):
        n = rng.randint(1, 40)
        pairs = _partial_table(rng, n, rng.randint(1, 3))
        parent = list(range(n))
        dead = 0
        for _ in range(rng.randint(1, 4)):
            live = [c for c in range(n) if parent[c] == c]
            killed = _coincidence(parent, pairs, rng.choice(live), rng.choice(live))
            dead += killed
            cascades += killed > 1
            live = [c for c in range(n) if parent[c] == c]
            assert len(live) == n - dead
            for col, inv in pairs:
                for c in live:
                    d = col[c]
                    if d is not None:
                        # d is live, and the inverse column maps it back to c
                        assert parent[d] == d and inv[d] == c, (c, d)
        merged += dead
    assert merged > 1000 and cascades > 100, (merged, cascades)


# Compaction: at the coset budget the enumerator drops the dead cosets from
# its lists in place, so the budget bounds the cosets in the table, live or
# dead, and only the live ones once a compaction frees enough of it.


def test_compact_renumbers_live_cosets_in_place():
    rng = random.Random(32)
    compacted = 0
    for i in range(300):
        # past 256, ints are distinct objects, which shows that they are reused
        n = rng.randint(1, 40) + (300 if i % 10 == 0 else 0)
        pairs = _partial_table(rng, n, rng.randint(1, 3))
        parent = list(range(n))
        for _ in range(rng.randint(0, 4)):
            live = [c for c in range(n) if parent[c] == c]
            _coincidence(parent, pairs, rng.choice(live), rng.choice(live))
        live = [c for c in range(n) if parent[c] == c]
        new = {c: k for k, c in enumerate(live)}
        lists = list({id(col): col for pair in pairs for col in pair}.values())
        before = [list(col) for col in lists]
        ints = list(parent)
        stack = [(rng.randrange(n), rng.randrange(4)) for _ in range(rng.randint(0, 6))]
        alpha = rng.randrange(n)
        kept = [(new[c], x) for c, x in stack if c in new]
        ids = list(map(id, lists))
        assert _compact(parent, lists, stack, alpha) == sum(c < alpha for c in live)
        compacted += len(live) < n
        # the same list objects, shrunk to the live rows, renumbered in order
        assert list(map(id, lists)) == ids and parent == list(range(len(live)))
        for col, old in zip(lists, before):
            assert col == [None if old[c] is None else new[old[c]] for c in live]
        assert stack == kept
        # new number k is old coset k's own int where that coset is live,
        # and every entry holds its coset's int
        assert all(parent[k] is ints[k] for k in range(len(live)) if k in new)
        assert all(d is None or d is parent[d] for col in lists for d in col)
    assert compacted > 100, compacted


def _agree_under_compaction(p, sub, budget, ref):
    """The enumerator at a coset budget that may force compactions: a
    finished table is ``ref`` (the reference enumerator's, or None if that
    ran out) and passes validate_table, and running out of cosets leaves
    less than a compaction's share of the budget dead.  Returns the result."""
    res = todd_coxeter(p, sub, budget)
    if isinstance(res, Overflow):
        assert not res.out_of_deductions
        assert (budget - res.live_cosets) * _COMPACT_SHARE < budget, (p, sub, budget)
        return res
    assert validate_table(p, sub, res).passed, (p, sub, budget)
    if ref is not None:
        assert res.forward == ref.forward and res.backward == ref.backward, (p, sub, budget)
    assert res.stats.peak_live <= budget
    return res


def test_compaction_keeps_the_table_on_seeded_corpus():
    rng = random.Random(32)
    ends = Counter()
    for i in range(600):
        case = _symmetric_case if i % 2 else _involutive_case
        p, sub = case(rng.randint, lambda q: rng.random() < q)
        ref = reference_todd_coxeter(p, sub, 2000)
        full = todd_coxeter(p, sub, 2000)
        if ref is None or isinstance(full, Overflow):
            continue
        s = full.stats
        budgets = [rng.randint(1, s.allocated)]
        if s.dead:
            # from just above the peak, where compactions must make room, to
            # the cosets allocated
            budgets += [s.peak_live + rng.randint(0, 3), rng.randint(s.peak_live, s.allocated)]
        for budget in budgets:
            res = _agree_under_compaction(p, sub, budget, ref)
            ends[type(res).__name__, res.stats.compactions > 0] += 1
    assert ends["CosetTable", True] > 50 and ends["Overflow", True] > 5, ends
    assert ends["CosetTable", False] > 100 and ends["Overflow", False] > 50, ends


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compaction_keeps_the_table_on_hypothesis_corpus(data):
    p, sub = data.draw(st.sampled_from([_involutive_case, _symmetric_case]))(
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda q: data.draw(st.floats(0, 1)) < q,
    )
    ref = reference_todd_coxeter(p, sub, 500)
    _agree_under_compaction(p, sub, data.draw(st.integers(1, 300)), ref)


def test_e6_finishes_within_a_budget_just_above_its_index():
    # 51,840 cosets live at the end, 59,166 allocated: three compactions make
    # room within 52,000, and the table is the one a larger budget gives
    p = parse_presentation(E6)
    t = todd_coxeter(p, [], 52000)
    assert isinstance(t, CosetTable) and t.stats.compactions == 3
    assert t.stats[:2] == (59166, 7326) and t.stats.peak_live == 51840
    full = todd_coxeter(p)
    assert t.forward == full.forward and t.backward == full.backward


def test_compacted_overflow_names_the_live_cosets(capsys):
    res = todd_coxeter(parse_presentation(G2378), [], 5000)
    assert isinstance(res, Overflow) and not res.out_of_deductions
    assert res.stats == EnumStats(5026, 26, 14545, 1002, peak_live=5000, compactions=1)
    assert str(res) == "5000 cosets live, 5026 allocated (budget 5000, compactions: 1)"
    assert cli_main(["tc", G2378, "--max-cosets", "5000", "--stats"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "stats: 5026 cosets allocated, 26 dead, 14545 scan steps, 1002 scans skipped, "
        "5000 peak live, 1 compactions",
        "overflow: 5000 cosets live, 5026 allocated (budget 5000, compactions: 1); "
        "index may be infinite",
    ]


def _renumbered(cols, n, dead=0):
    """``_renumber`` of a hand-made state: ``cols`` holds forward and
    backward column lists, one pair per generator, and no coset is merged."""
    stats = EnumStats(n, dead, 0, 0, n - dead, 0)
    return _renumber(cols, list(range(n)), [], stats)


def test_renumber_rejects_an_incomplete_or_intransitive_table():
    # both checks are the BFS's, which todd_coxeter runs before it returns:
    # no map is built for them
    with patch.object(coset_table, "_map_columns", side_effect=AssertionError):
        with pytest.raises(RuntimeError, match="incomplete table after enumeration"):
            _renumbered([[1, None], [None, 0]], 2)
        with pytest.raises(RuntimeError, match="table is not transitive"):
            _renumbered([[0, 1], [0, 1]], 2)
    # an itemgetter of one index returns the bare entry; the table has tuples
    t = _renumbered([[0], [0]], 1)
    assert t.forward == t.backward == ((0,),) and t.stats.allocated == 1


def test_map_build_rejects_an_empty_backward_entry():
    # the BFS reads the forward columns only, so an empty backward entry
    # shows when the maps are first read, as the same error
    t = _renumbered([[1, 0], [None, 0]], 2)
    assert t.n == 2
    with pytest.raises(RuntimeError, match="incomplete table after enumeration"):
        t.forward


def test_enumerated_table_maps_its_columns_on_first_read():
    p = parse_presentation(G2378)
    sub = [parse_word(p, "b")]
    with patch.object(coset_table, "_map_columns", wraps=coset_table._map_columns) as mapped:
        t = todd_coxeter(p, sub)
        assert (t.n, t.n_gens, t.subgroup) == (3584, 2, tuple(sub))
        assert t.stats.allocated - t.stats.dead == 3584
        assert repr(t) == "CosetTable(n=3584, gens=2)"
        for name in ("n", "forward", "backward"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(t, name, ())
        assert not hasattr(t, "nothing")
        assert mapped.call_count == 0
        # either map's first read builds both, once
        backward = t.backward
        forward = t.forward
        assert mapped.call_count == 1
        assert t.forward is forward and t.backward is backward
        for name in ("n", "forward", "backward"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(t, name, ())
        assert mapped.call_count == 1
    # a, an involution, keeps one tuple for both maps, read backward first
    assert forward[0] is backward[0] and forward[1] != backward[1]
    assert validate_table(p, sub, t).passed


def test_enumeration_memory_follows_the_table():
    # the traced peak of an enumeration, its renumbering included, is a small
    # multiple of the finished table's own size: before the renumbering
    # reused the enumerator's ints, E6 peaked at 1.97 times its table
    p = parse_presentation(E6)
    gc.collect()
    tracemalloc.start()
    try:
        t = todd_coxeter(p)
        t.forward  # the maps are built on first read
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n == 51840
    assert peak < 1.8 * size, (peak, size)


# The column-wise certificate check against the one that traced every coset
# one letter at a time (tests/validate_oracle.py).  The corruptions keep every
# entry a coset, so the oracle does not raise on them.

FAILURE_KINDS = (
    "not a bijection",
    "inverse mismatch",
    "subgroup word leaves coset 0",
    "relator does not fix coset",
    "not transitive",
)


def _corrupted(t, randrange):
    """t and tables near it whose entries are all cosets: two entries of a
    forward map swapped, one forward entry moved, a backward map replaced by
    another permutation, a generator replaced by another permutation with its
    inverse, and two disjoint copies of t."""
    n = t.n
    fwd = [list(f) for f in t.forward]
    bwd = [list(b) for b in t.backward]
    yield t
    if not fwd:
        return
    g, c, d = randrange(len(fwd)), randrange(n), randrange(n)
    swapped = [list(f) for f in fwd]
    swapped[g][c], swapped[g][d] = swapped[g][d], swapped[g][c]
    yield CosetTable(swapped, bwd)
    moved = [list(f) for f in fwd]
    moved[g][c] = d
    yield CosetTable(moved, bwd)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    yield CosetTable(fwd, bwd[:g] + [perm] + bwd[g + 1 :])
    inverse = [0] * n
    for i, image in enumerate(perm):
        inverse[image] = i
    yield CosetTable(fwd[:g] + [perm] + fwd[g + 1 :], bwd[:g] + [inverse] + bwd[g + 1 :])
    yield CosetTable([f + [x + n for x in f] for f in fwd], [b + [x + n for x in b] for b in bwd])


def _validators_agree(p, sub, t, randrange, kinds):
    """Both certificate checks on t and the tables near it, with the
    subgroup words and with one more word appended; counts each failure
    kind seen in ``kinds``."""
    extra = Word([(randrange(p.n_gens) + 1) * (-1) ** randrange(2) for _ in range(3)])
    for table in _corrupted(t, randrange):
        for words in (sub, sub + [extra]):
            got = validate_table(p, words, table).failures
            assert got == oracle_validate_table(p, words, table).failures, (p, words, table.forward)
            kinds.update(name for name, _ in got)


def test_validator_matches_oracle_on_seeded_corpus():
    rng = random.Random(2929)
    kinds = Counter()
    finished = 0
    for _ in range(150):
        p, sub = _involutive_case(rng.randint, lambda q: rng.random() < q)
        t = todd_coxeter(p, sub, 500)
        if isinstance(t, CosetTable):
            finished += 1
            _validators_agree(p, sub, t, rng.randrange, kinds)
    assert finished > 50
    assert all(kinds[kind] > 10 for kind in FAILURE_KINDS), kinds


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validator_matches_oracle_on_hypothesis_corpus(data):
    p, sub = _involutive_case(
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda q: data.draw(st.floats(0, 1)) < q,
    )
    t = todd_coxeter(p, sub, 300)
    if isinstance(t, CosetTable):
        _validators_agree(p, sub, t, lambda k: data.draw(st.integers(0, k - 1)), Counter())


def test_validate_reports_malformed_tables():
    # an entry that is not a coset is reported, not raised on, and nothing
    # is traced: the relator a^2 is not checked
    z2 = parse_presentation("<a | a^2>")
    for forward, backward in [
        ([[0, 5]], [[0, 1]]),
        ([[1, None]], [[1, 0]]),
        ([[1, 0]], [[-1, 0]]),
        ([[1.0, 0]], [[1, 0]]),
        ([[True, False]], [[1, 0]]),
    ]:
        report = validate_table(z2, [], CosetTable(forward, backward))
        assert report.failures == (("not a bijection", "a"),), (forward, backward)
    # only the malformed generator is named, and no relator is traced
    f2 = parse_presentation("<a,b | a^2, b>")
    report = validate_table(f2, [], CosetTable([[1, 0], [0, 2]], [[1, 0], [1, 0]]))
    assert report.failures == (("not a bijection", "b"),)
    assert validate_table(z2, [], CosetTable([[]], [[]])).failures == (("no cosets", 0),)


def test_table_from_action_rejects_malformed_maps():
    z2 = parse_presentation("<a | a^2>")
    for maps in ([[0, 5]], [[1, None]], [[-1, 0]], [[1.0, 0]], [[None]]):
        with pytest.raises(ValueError, match="not a bijection"):
            table_from_action(z2, maps)
    with pytest.raises(ValueError, match="no cosets"):
        table_from_action(z2, [[]])
    with pytest.raises(ValueError, match="ragged"):
        table_from_action(parse_presentation("<a,b | a^2, b^2>"), [[1, 0], [0]])
