import random

import pytest

from curvepi import format_presentation, parse_presentation, parse_word
from curvepi.abelian import abelian_invariants
from curvepi.coset_table import CosetTable, todd_coxeter
from curvepi.schreier import (
    SchreierRewriter,
    schreier_transversal,
    simplify,
    subgroup_presentation,
)
from curvepi.presentations import Presentation
from curvepi.words import Word


def hnn_presentation():
    """The conic-plus-three-lines group rewritten with x = bc."""
    return parse_presentation(
        "<a,x,b | b a b^-1 = a, b (x a x^-1) b^-1 = x a x^-1, b x^2 b^-1 = x^2>"
    )


def hnn_kernel_table():
    pi = hnn_presentation()
    sub = [parse_word(pi, w) for w in ("a", "b", "x a x^-1", "x b x^-1", "x^2")]
    t = todd_coxeter(pi, sub)
    assert t.n == 2
    return pi, t


def test_transversal_invariants():
    pi, t = hnn_kernel_table()
    tr = schreier_transversal(t)
    assert tr[0].letters == ()
    # the nontrivial representative is the single letter x
    assert tr[1] == parse_word(pi, "x")
    # prefix closure and coset consistency
    reps = set(tr.representatives)
    for i, rep in enumerate(tr.representatives):
        assert t.trace(0, rep) == i
        for k in range(len(rep.letters)):
            assert Word(rep.letters[:k]) in reps


def test_transversal_cyclic():
    p = parse_presentation("<a | a^3>")
    tr = schreier_transversal(todd_coxeter(p))
    assert [w.letters for w in tr.representatives] == [(), (1,), (1, 1)]


def test_non_transitive_table_is_rejected():
    # coset 2 is a fixed point that 0 and 1 never reach; the check raises
    # rather than asserts, so it holds under python -O too
    p = parse_presentation("<a |>")
    t = CosetTable([[1, 0, 2]], [[1, 0, 2]])
    with pytest.raises(ValueError, match="not transitive"):
        schreier_transversal(t)
    with pytest.raises(ValueError, match="not transitive"):
        subgroup_presentation(p, t)


def test_kernel_table_permutations():
    # in the index-2 table, x swaps the cosets while a and b fix them
    pi, t = hnn_kernel_table()
    perms = dict(zip(pi.generators, t.forward))
    assert perms["x"] == (1, 0)
    assert perms["a"] == (0, 1) and perms["b"] == (0, 1)


def test_rewrite_examples():
    pi, t = hnn_kernel_table()
    rw = SchreierRewriter(pi, t)
    # x a x^-1 becomes the single kernel generator a' = s1_a
    a_prime = rw.rewrite(parse_word(pi, "x a x^-1"))
    assert len(a_prime.letters) == 1
    assert rw.names[abs(a_prime.letters[0]) - 1] == "s1_a"
    # x^2 becomes t = s1_x
    t_word = rw.rewrite(parse_word(pi, "x^2"))
    assert len(t_word.letters) == 1
    assert rw.names[abs(t_word.letters[0]) - 1] == "s1_x"
    # words outside the subgroup are rejected
    with pytest.raises(ValueError):
        rw.rewrite(parse_word(pi, "x"))


def test_rewrite_is_multiplicative_on_the_subgroup():
    pi, t = hnn_kernel_table()
    rw = SchreierRewriter(pi, t)
    tr = schreier_transversal(t)
    rng = random.Random(3)

    def random_subgroup_word():
        letters = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 8))]
        w = Word(letters)
        return w * ~tr[t.trace(0, w)]  # push back into the subgroup

    for _ in range(100):
        w1, w2 = random_subgroup_word(), random_subgroup_word()
        assert rw.rewrite(w1 * w2) == rw.rewrite(w1) * rw.rewrite(w2)


def assert_relators_are_rewritten_conjugates(p, t):
    rw = SchreierRewriter(p, t)
    sp = rw.subgroup_presentation()
    want = [
        rw.rewrite(rep * r * ~rep) for rep in rw.transversal.representatives for r in p.relators
    ]
    assert sp.generators == tuple(rw.names)
    assert list(sp.relators) == want


def test_subgroup_relators_are_rewritten_conjugates():
    pi, t = hnn_kernel_table()
    assert_relators_are_rewritten_conjugates(pi, t)
    e6 = parse_presentation(
        "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
        "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
    )
    t = todd_coxeter(e6, [parse_word(e6, g) for g in "abcde"])
    assert t.n == 72
    assert_relators_are_rewritten_conjugates(e6, t)
    d4 = coxeter([{1: 3}, {2: 3, 3: 3}, {}])
    t = todd_coxeter(d4, [Word.gen(0)])
    assert t.n == 96
    assert_relators_are_rewritten_conjugates(d4, t)


def test_relator_that_does_not_close_is_rejected():
    # a 3-cycle is a transitive table, but a^2 does not close in it
    p = parse_presentation("<a | a^2>")
    t = CosetTable([[1, 2, 0]], [[2, 0, 1]])
    with pytest.raises(ValueError):
        subgroup_presentation(p, t)


def test_index_one_round_trip():
    p = parse_presentation("<a,b | aba=bab>")
    t = todd_coxeter(p, [parse_word(p, "a"), parse_word(p, "b")])
    sp = subgroup_presentation(p, t)
    # identical up to the systematic renaming g -> s0_g
    assert sp.generators == ("s0_a", "s0_b")
    assert [w.letters for w in sp.relators] == [w.letters for w in p.relators]


def test_raag_kernel_golden():
    """Index-2 kernel: five generators, six commutators, K(2,3) graph."""
    pi, t = hnn_kernel_table()
    raw = subgroup_presentation(pi, t)
    assert len(raw.generators) == 5
    assert len(raw.relators) == 6
    slim = simplify(raw)
    assert len(slim.generators) == 5
    assert len(slim.relators) == 6
    for w in slim.relators:
        assert len(w.letters) == 4  # all commutators
    assert abelian_invariants(slim).display() == "Z^5"
    assert abelian_invariants(raw) == abelian_invariants(slim)


def test_free_subgroup_ranks():
    """Nielsen-Schreier: index n in F_k gives rank n(k-1)+1, no relators."""
    rng = random.Random(7)
    for k in (2, 3):
        fk = parse_presentation("<" + ",".join("abc"[:k]) + " |>")
        a = Word.gen(0)
        for n in range(1, 7):
            shifts = [1] + [rng.randrange(n) for _ in range(k - 1)]
            words = []
            for j in range(n):
                for i in range(k):
                    img = (j + shifts[i]) % n
                    words.append(a**j * Word.gen(i) * a**-img)
            t = todd_coxeter(fk, words)
            assert t.n == n
            sp = subgroup_presentation(fk, t)
            rank = n * (k - 1) + 1
            assert len(sp.generators) == rank
            assert sp.relators == ()
            inv = abelian_invariants(sp)
            assert inv.free_rank == rank and not inv.torsion


def test_simplify_generator_elimination():
    p = parse_presentation("<a,b | b>")
    s = simplify(p)
    assert len(s.generators) == 1 and s.relators == ()


def test_simplify_duplicates_then_elimination():
    p = parse_presentation("<a,b | ab, ab>")
    s = simplify(p)
    # one generator survives; free of rank 1 (the survivor is the higher-
    # indexed name because candidates prefer the lowest generator index)
    assert len(s.generators) == 1 and s.relators == ()


def test_simplify_preserves_abelianization():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [f"g{i}" for i in range(n)]
        rels = [
            Word([rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 10))])
            for _ in range(rng.randint(0, 5))
        ]
        from curvepi.presentations import Presentation

        p = Presentation(gens, rels)
        assert abelian_invariants(simplify(p)) == abelian_invariants(p)


def test_simplify_shortens_against_shorter_relators():
    # b' t a t^-1 b'^-1 t a^-1 t^-1 collapses to a commutator given [b', t]
    p = parse_presentation("<a,t,b' | b' t b'^-1 t^-1, b' t a t^-1 b'^-1 t a^-1 t^-1>")
    s = simplify(p)
    assert sorted(len(w.letters) for w in s.relators) == [4, 4]


# ---------------------------------------------------------------------------
# simplify against the loop it replaced


def _reference_simplify(p, events):
    """The rescanning Tietze loop that ``simplify`` replaced, kept as a
    test oracle: verbatim but for the pass cap, which is gone, and the
    ``events`` counts of the branches taken."""
    from curvepi.schreier import (
        _GROWTH_LIMIT,
        _SUBSTRING_MAX_LENGTH,
        _SUBSTRING_MAX_RELATORS,
        _dedupe_key,
        _substring_shorten,
    )
    from curvepi.words import cyclic_reduce, invert, reduce_letters

    names = list(p.generators)
    rels = [w.letters for w in p.relators]
    budget_total = _GROWTH_LIMIT * max(1, sum(len(r) for r in rels))

    def dedupe():
        nonlocal rels
        seen = set()
        out = []
        dropped = 0
        for r in rels:
            r = cyclic_reduce(reduce_letters(r))
            if not r:
                continue
            key = _dedupe_key(r)
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            out.append(r)
        rels = out
        return dropped

    def eliminate_once():
        best = None
        for ri, r in enumerate(rels):
            counts = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g, c in counts.items():
                if c == 1:
                    key = (len(r), g, ri)
                    if best is None or key < best:
                        best = key
        if best is None:
            return False
        rlen, g, ri = best
        r = rels[ri]
        pos = next(i for i, x in enumerate(r) if abs(x) == g)
        rot = r[pos:] + r[:pos]
        e = 1 if rot[0] > 0 else -1
        tail = rot[1:]
        replacement = invert(tail) if e > 0 else tail
        new_rels = []
        total = 0
        for i, w in enumerate(rels):
            if i == ri:
                continue
            out = []
            for x in w:
                if abs(x) == g:
                    out.extend(replacement if x > 0 else invert(replacement))
                else:
                    out.append(x)
            reduced = cyclic_reduce(reduce_letters(tuple(out)))
            if reduced:
                new_rels.append(reduced)
                total += len(reduced)
        if total > budget_total:
            events["refused for the budget"] += 1
            return False

        def shift(w):
            return tuple(x - 1 if x > g else (x + 1 if x < -g else x) for x in w)

        rels[:] = [shift(w) for w in new_rels]
        del names[g - 1]
        return True

    def shorten_once():
        if len(rels) > _SUBSTRING_MAX_RELATORS:
            return False
        if sum(len(r) for r in rels) > _SUBSTRING_MAX_LENGTH:
            return False
        order = sorted(range(len(rels)), key=lambda i: (len(rels[i]), i))
        for wi in reversed(order):
            for ui in order:
                if ui == wi or len(rels[ui]) > len(rels[wi]):
                    continue
                out = _substring_shorten(rels[wi], rels[ui])
                if out is not None:
                    rels[wi] = cyclic_reduce(out)
                    return True
        return False

    dedupe()
    while True:
        if eliminate_once():
            if dedupe():
                events["duplicate after substitution"] += 1
            continue
        if shorten_once():
            events["shortened"] += 1
            dedupe()
            continue
        break
    return Presentation(names, [Word(r) for r in rels])


def random_presentation(rng):
    """Relators as products of powers, so that substitutions grow and the
    growth budget is reached now and then."""
    n = rng.randint(1, 5)
    rels = []
    for _ in range(rng.randint(0, 6)):
        letters = []
        for _ in range(rng.randint(1, 3)):
            g = rng.randint(1, n)
            letters += [g * rng.choice([1, -1])] * rng.randint(1, 4)
        rels.append(Word(letters))
    return Presentation([f"g{i}" for i in range(n)], rels)


def coxeter(m):
    """Coxeter presentation from the upper triangle of its matrix: m[i][j]
    is the order of g_i g_j, and 2 (commuting) when missing."""
    n = len(m) + 1
    names = [f"g{i}" for i in range(n)]
    rels = [Word.gen(i) ** 2 for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = m[i].get(j, 2) if i < len(m) else 2
            rels.append((Word.gen(i) * Word.gen(j)) ** k)
    return Presentation(names, rels)


def coxeter_subgroup_presentations():
    """Raw Reidemeister-Schreier presentations of index 12, 20 and 96:
    <g0> in A3 (order 24), <g0,g1> in A4 (order 120) and <g0> in D4
    (order 192)."""
    a3 = coxeter([{1: 3}, {2: 3}])
    a4 = coxeter([{1: 3}, {2: 3}, {3: 3}])
    d4 = coxeter([{1: 3}, {2: 3, 3: 3}, {}])
    out = []
    for group, gens, index in ((a3, [0], 12), (a4, [0, 1], 20), (d4, [0], 96)):
        t = todd_coxeter(group, [Word.gen(g) for g in gens])
        assert t.n == index
        out.append(subgroup_presentation(group, t))
    return out


def assert_same_simplification(p, events):
    want = _reference_simplify(p, events)
    got = simplify(p)
    assert got.generators == want.generators
    assert [w.letters for w in got.relators] == [w.letters for w in want.relators]


def test_simplify_matches_the_rescanning_loop_on_random_presentations():
    from collections import Counter

    rng = random.Random(2024)
    events = Counter()
    for _ in range(2000):
        assert_same_simplification(random_presentation(rng), events)
    # the corpus reaches every branch of the loop
    assert events["duplicate after substitution"] > 0
    assert events["refused for the budget"] > 0
    assert events["shortened"] > 0


def test_simplify_matches_the_rescanning_loop_on_coxeter_subgroups():
    from collections import Counter

    for p in coxeter_subgroup_presentations():
        assert_same_simplification(p, Counter())
