import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curvepi import format_presentation, parse_presentation, parse_word
from curvepi.abelian import abelian_invariants
from curvepi.cli import main
from curvepi.coset_table import CosetTable, Overflow, table_from_action, todd_coxeter
from curvepi.schreier import simplify, subgroup_presentation
from curvepi.presentations import Presentation
from curvepi.words import Word, canonical_cyclic, cyclic_reduce, invert, reduce_letters
from schreier_oracle import OracleRewriter, tree_edges


def schreier_transversal(t: CosetTable):
    """BFS-minimal coset representatives, index-aligned with the table:
    prefix-closed positive words, representative 0 the empty word."""
    reps = [Word()] * t.n
    for d, (c, g) in tree_edges(t).items():
        reps[d] = reps[c] * Word.gen(g)
    return tuple(reps)


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
    reps = set(tr)
    for i, rep in enumerate(tr):
        assert t.trace(0, rep) == i
        for k in range(len(rep.letters)):
            assert Word(rep.letters[:k]) in reps


def test_transversal_cyclic():
    p = parse_presentation("<a | a^3>")
    tr = schreier_transversal(todd_coxeter(p))
    assert [w.letters for w in tr] == [(), (1,), (1, 1)]


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
    names = subgroup_presentation(pi, t).generators
    oracle = OracleRewriter(pi, t)
    # x a x^-1 becomes the single kernel generator a' = s1_a, and x^2
    # becomes t = s1_x
    for word, name in (("x a x^-1", "s1_a"), ("x^2", "s1_x")):
        letters = oracle.rewrite(parse_word(pi, word)).letters
        assert len(letters) == 1
        assert names[abs(letters[0]) - 1] == name


def test_table_of_another_generator_count_is_rejected():
    # the table of <a | a^2> has one generator column
    t = todd_coxeter(parse_presentation("<a | a^2>"))
    for text in ("<a,b | >", "<a,b | a^2>", "<|>"):
        with pytest.raises(ValueError, match="generator count mismatch"):
            subgroup_presentation(parse_presentation(text), t)


def test_malformed_table_is_rejected():
    # the walk reads the backward maps as the inverses of the forward ones,
    # so a table whose maps are not mutually inverse permutations, or that
    # has no cosets, gets a ValueError instead of a presentation or an
    # IndexError
    p = parse_presentation("<a | a^-2>")
    valid = subgroup_presentation(p, CosetTable([[1, 0]], [[1, 0]]))
    assert format_presentation(valid) == "< s1_a | s1_a^-1, s1_a^-1 >"
    for forward, backward in (
        ([[1, 0]], [[0, 1]]),  # a backward map that is not the inverse
        ([[1, 1]], [[1, 0]]),  # a forward map that is not a bijection
        ([[-1, 0]], [[1, 0]]),  # an entry that is not a coset
    ):
        with pytest.raises(ValueError, match="not mutually inverse permutations"):
            subgroup_presentation(p, CosetTable(forward, backward))
    with pytest.raises(ValueError, match="no cosets"):
        subgroup_presentation(p, CosetTable([[]], [[]]))


def assert_relators_are_rewritten_conjugates(p, t):
    oracle = OracleRewriter(p, t)
    sp = subgroup_presentation(p, t)
    want = [oracle.rewrite(rep * r * ~rep) for rep in schreier_transversal(t) for r in p.relators]
    assert sp.generators == tuple(oracle.names)
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


def random_action_table(rng):
    """A random transitive action of a free group of rank <= 3 on <= 9
    points, numbered at random rather than in BFS order, with a power of
    each generator and of one random word as relators that it satisfies."""
    k, n = rng.randint(1, 3), rng.randint(1, 9)
    p = Presentation([f"g{i}" for i in range(k)])
    while True:
        perms = [rng.sample(range(n), n) for _ in range(k)]
        try:
            t = table_from_action(p, perms)  # rejects an action that is not transitive
            break
        except ValueError:
            pass
    words = [Word.gen(g) for g in range(k)]
    words.append(Word([rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(1, 6))]))
    relators = []
    for w in words:
        # the least m with w^m fixing every point
        m = 1
        while any(t.trace(c, w**m) != c for c in range(n)):
            m += 1
        relators.append(w**m)
    p = Presentation(p.generators, relators)
    return p, table_from_action(p, perms)


def random_enumerated_table(rng):
    """A finished enumeration of a random small presentation over a random
    subgroup, or None when it overflows."""
    k = rng.randint(1, 3)

    def word(length):
        return Word([rng.choice([1, -1]) * rng.randint(1, k) for _ in range(length)])

    if rng.random() < 0.5:
        # a Coxeter group: finite for most small orders of g_i g_j
        p = coxeter([{j: rng.randint(2, 5) for j in range(i + 1, k)} for i in range(k - 1)])
    else:
        # powers of the generators and of short words
        relators = [Word.gen(g) ** rng.randint(2, 5) for g in range(k)]
        relators += [word(rng.randint(2, 4)) ** rng.randint(2, 3) for _ in range(rng.randint(0, 2))]
        p = Presentation([f"g{i}" for i in range(k)], relators)
    subgroup = [word(rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
    t = todd_coxeter(p, subgroup, 2000)
    return None if isinstance(t, Overflow) else (p, t)


def test_trivial_schreier_generators_are_the_tree_edges():
    """Differential test of the rule that drops (coset, gen) pairs: a pair
    is dropped exactly when rep(c) g rep(cg)^-1 is the empty word."""
    rng = random.Random(11)
    corpus = [random_action_table(rng) for _ in range(300)]
    corpus += [x for x in (random_enumerated_table(rng) for _ in range(300)) if x]
    assert sum(1 for _, t in corpus if t.n > 1) > 300
    for i, (p, t) in enumerate(corpus):
        names = set(subgroup_presentation(p, t).generators)
        reps = schreier_transversal(t)
        for c in range(t.n):
            for g in range(t.n_gens):
                value = reps[c] * Word.gen(g) * ~reps[t.forward[g][c]]
                assert (f"s{c}_{p.generators[g]}" in names) == bool(value)
        if i % 10 == 0:
            assert_relators_are_rewritten_conjugates(p, t)


def assert_checks_would_pass(sp):
    """The walk builds its result unchecked; the constructor, checking
    everything, gives the same presentation, and the relators are stored
    as a tuple of nonempty words."""
    assert Presentation(sp.generators, list(sp.relators)) == sp
    assert type(sp.generators) is tuple and type(sp.relators) is tuple
    for r in sp.relators:
        assert type(r) is Word and r


def assert_same_as_the_oracle(p, t):
    """Names and relators agree with the tuple-keyed rewriter kept in
    tests/schreier_oracle.py."""
    got, want = subgroup_presentation(p, t), OracleRewriter(p, t).subgroup_presentation()
    assert got.generators == want.generators
    assert [w.letters for w in got.relators] == [w.letters for w in want.relators]
    assert_checks_would_pass(got)


def test_label_walk_matches_the_tuple_keyed_rewriter():
    rng = random.Random(17)
    corpus = [random_action_table(rng) for _ in range(200)]
    corpus += [x for x in (random_enumerated_table(rng) for _ in range(200)) if x]
    assert sum(1 for _, t in corpus if t.n > 1) > 200
    e6 = parse_presentation(
        "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
        "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
    )
    for gens, index in (("abcde", 72), ("abcd", 432)):
        t = todd_coxeter(e6, [parse_word(e6, g) for g in gens])
        assert t.n == index
        corpus.append((e6, t))
    d4 = coxeter([{1: 3}, {2: 3, 3: 3}, {}])
    t = todd_coxeter(d4, [Word.gen(0)])
    assert t.n == 96
    corpus.append((d4, t))
    # S3 on three points: a = (0 1) fixes coset 2, so a^2 at coset 2 walks
    # the loop twice and gives s2_a^2
    s3 = parse_presentation("<a,b | a^2, b^3, (ab)^2>")
    t = table_from_action(s3, [[1, 0, 2], [1, 2, 0]])
    sp = subgroup_presentation(s3, t)
    assert sp.word([("s2_a", 2)]) in sp.relators
    corpus.append((s3, t))
    for p, t in corpus:
        assert_same_as_the_oracle(p, t)


E6_TEXT = (
    "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
    "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
)
RS_DIGESTS = os.path.join(os.path.dirname(__file__), "data", "rs_digests.json")


def rs_digests():
    """sha256 of ``rs`` stdout on E6 subgroups, raw and simplified, and one
    sha256 over the rewritten presentations of the first 100 seeded random
    action tables, which are numbered at random rather than in BFS order."""
    digests = {}
    for case in ("abcde", "abcde --raw", "abcd", "abcd --raw", "abc"):
        gens, *raw = case.split()
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["rs", E6_TEXT, *(x for g in gens for x in ("--subgroup", g)), *raw]) == 0
        digests[case] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    rng = random.Random(11)
    texts = [format_presentation(subgroup_presentation(*random_action_table(rng))) for _ in range(100)]
    digests["random action tables"] = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return digests


def test_rs_outputs_match_the_pinned_digests():
    # the names, the letters and the relator order of the walk's output,
    # and simplify's output on it, stay byte for byte what they were
    with open(RS_DIGESTS) as f:
        assert rs_digests() == json.load(f)


@st.composite
def actions_with_relators(draw):
    """A transitive action of a free group of rank <= 3 on <= 8 points, and
    relators that hold in it: the least power of each random word that
    fixes every point."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    perms = [draw(st.permutations(range(n))) for _ in range(k)]
    free = Presentation([f"g{i}" for i in range(k)])
    try:
        t = table_from_action(free, perms)
    except ValueError:  # not transitive
        assume(False)
    letter = st.sampled_from([s * g for g in range(1, k + 1) for s in (1, -1)])
    relators = []
    for letters in draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=1, max_size=4)):
        w = Word(letters)
        m = 1
        while any(t.trace(c, w**m) != c for c in range(n)):
            m += 1
        relators.append(w**m)
    p = Presentation(free.generators, relators)
    return p, table_from_action(p, perms)


@settings(max_examples=300, deadline=None)
@given(actions_with_relators())
def test_rewritten_relators_need_no_reduction(action):
    """The label walk builds relators without reducing them: each
    rewritten conjugate of a relator is cyclically reduced as the oracle
    gives it, and the walk's relators equal them letter for letter."""
    p, t = action
    oracle = OracleRewriter(p, t)
    walked = [oracle.rewrite(rep * r * ~rep) for rep in schreier_transversal(t) for r in p.relators]
    for w in walked:
        assert cyclic_reduce(w.letters) == w.letters
    sp = subgroup_presentation(p, t)
    assert list(sp.relators) == [w for w in walked if w]
    for r in sp.relators:
        assert r == Word(r.letters)
        assert cyclic_reduce(r.letters) == r.letters
    assert_checks_would_pass(sp)


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
    test oracle: verbatim but for the pass cap, which is gone, the dedupe
    key, written out as the library computed it then, the shortening
    kernel, the slicing one kept in ``schreier_oracle``, and the ``events``
    counts of the branches taken."""
    from curvepi.schreier import _GROWTH_LIMIT, _SUBSTRING_MAX_LENGTH, _SUBSTRING_MAX_RELATORS
    from curvepi.words import cyclic_reduce, invert, reduce_letters
    from schreier_oracle import _substring_shorten

    names = list(p.generators)
    rels = [w.letters for w in p.relators]
    budget_total = _GROWTH_LIMIT * max(1, sum(len(r) for r in rels))
    last_length = None  # defining relator length of the last elimination

    def dedupe():
        nonlocal rels
        seen = set()
        out = []
        dropped = 0
        for r in rels:
            r = cyclic_reduce(reduce_letters(r))
            if not r:
                continue
            key = min(canonical_cyclic(r), canonical_cyclic(invert(r)))
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            out.append(r)
        rels = out
        return dropped

    def eliminate_once():
        nonlocal last_length
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
        made_short = False
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
                made_short |= len(reduced) <= 2 and reduced != w
        if total > budget_total:
            events["refused for the budget"] += 1
            return False
        if rlen > 2 and last_length is not None and last_length <= 2:
            events["fold ends in a long elimination"] += 1
        if rlen > 2 and made_short:
            events["long elimination makes a short relator"] += 1
        last_length = rlen

        def shift(w):
            return tuple(x - 1 if x > g else (x + 1 if x < -g else x) for x in w)

        rels[:] = [shift(w) for w in new_rels]
        del names[g - 1]
        return True

    def shorten_once():
        nonlocal last_length
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
                    last_length = None
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


def random_schreier_presentation(rng):
    """The raw Reidemeister-Schreier presentation of a random subgroup of a
    random group on 2 or 3 generators, or None when the enumeration needs
    more than 3000 cosets.  Most groups have random short relators; one in
    ten is a (2,3,r;s) group, whose subgroups have larger index."""
    k = rng.randint(2, 3)

    def word(length):
        return Word([rng.choice([1, -1]) * rng.randint(1, k) for _ in range(length)])

    if rng.random() < 0.1:
        a, b = Word.gen(0), Word.gen(1)
        rels = [a**2, b**3, (a * b) ** rng.randint(3, 7), (a * b * ~a * ~b) ** rng.randint(2, 4)]
    else:
        rels = [word(rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
    p = Presentation([f"g{i}" for i in range(k)], rels)
    subgroup = [word(rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    t = todd_coxeter(p, subgroup, 3000)
    return None if isinstance(t, Overflow) else subgroup_presentation(p, t)


def test_simplify_matches_the_rescanning_loop_on_schreier_presentations():
    from collections import Counter

    rng = random.Random(2025)
    events = Counter()
    corpus = [x for x in (random_schreier_presentation(rng) for _ in range(800)) if x]
    assert len(corpus) > 400
    assert max(len(p.generators) for p in corpus) > 100
    for p in corpus:
        assert_same_simplification(p, events)
    # the short eliminations run out while a long one is left, and a long
    # elimination leaves a relator of length <= 2 behind it
    assert events["fold ends in a long elimination"] > 0
    assert events["long elimination makes a short relator"] > 0


def test_order_sensitive_fold_keeps_its_output():
    # s1_c has two definitions of length <= 2; a fold that took them in
    # relator order rather than heap order would print < s1_c | s1_c^2 >
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["rs", "<a,b,c | b^-2 a^-1 c^2, b^2 c^-1, a b c a^-1 b>", "--subgroup", "a^-1"])
    assert code == 0
    assert out.getvalue() == "index: 2\n< s1_c | s1_c^4, s1_c^2 >\n"


def test_fold_step_rereduces_a_relator_that_cancels_cyclically():
    # g = h turns the second relator into h a b^2 a^2 h^-1, whose ends
    # cancel; the printed result would strip them even if simplify kept them
    p = parse_presentation("<g,h,a,b | g h^-1, g a b^2 a^2 h^-1>")
    assert format_presentation(simplify(p)) == "< h, a, b | a b^2 a^2 >"
    # g = h^-1 turns h h a g into h h a h^-1, that is h a, which defines h
    # in turn; kept unreduced, it would hold h three times, and a, once,
    # would be eliminated instead, leaving < h | >
    p = parse_presentation("<g,h,a | h g, h h a g>")
    assert format_presentation(simplify(p)) == "< a |  >"


@pytest.mark.parametrize(
    "text, want",
    [
        ("<a,b,c | c^-1 b a^-2 b^-1, c^2 b^-2 c, c b^-1 a^-1, a b^2>", "< c | c^-5 >"),
        ("<a,b | b^-3, b a^-1 b, b^-1 a^-2, b a^-2>", "< b | b^-3, b^-2 >"),
        ("<a,b | a^-2, b^-2, b^-2 a^2 b^-1, b^-1 a^2>", "< a | a^-2, a^-4 >"),
    ],
)
def test_long_replacement_updates_in_place_beside_a_dropped_duplicate(text, want):
    # a generator replaced by two or more letters leaves a relator in which
    # nothing cancels, updated in place, while another result of the run
    # duplicates a relator and is dropped
    assert format_presentation(simplify(parse_presentation(text))) == want


@st.composite
def cyclic_words(draw):
    """Nonempty cyclically reduced letters over up to 3 generators: a power
    of one letter, a power of a short word, or a random word."""
    n = draw(st.integers(1, 3))
    letter = st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)])
    kind = draw(st.sampled_from(["letter power", "word power", "word"]))
    if kind == "letter power":
        return (draw(letter),) * draw(st.integers(1, 8))
    if kind == "word power":
        letters = draw(st.lists(letter, min_size=1, max_size=4)) * draw(st.integers(2, 4))
    else:
        letters = draw(st.lists(letter, min_size=1, max_size=12))
    return cyclic_reduce(reduce_letters(letters)) or (draw(letter),)


@settings(max_examples=500, deadline=None)
@given(cyclic_words())
# words of one and two letters, which the key answers directly
@example((1,))
@example((-2,))
@example((2, 2))
@example((-1, -1))
@example((1, 2))
@example((2, -1))
@example((-1, 2))
@example((-2, -1))
def test_dedupe_key_is_the_least_rotation_of_the_word_or_its_inverse(letters):
    from curvepi.schreier import _dedupe_key

    assert _dedupe_key(letters) == min(canonical_cyclic(letters), canonical_cyclic(invert(letters)))


@st.composite
def shortening_pairs(draw):
    """(rel, shorter): cyclically reduced words of 1-12 letters over up to 3
    generators.  ``rel`` is random or made of runs of repeated letters, so
    that a first letter occurs at many starts; ``shorter`` is random, or a cyclic
    piece of ``rel``, as it is or inverted (matched through the inverse of
    ``shorter``), followed by random letters."""
    n = draw(st.integers(1, 3))
    letter = st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)])

    def cyclic(letters):
        return cyclic_reduce(reduce_letters(letters[:12])) or (draw(letter),)

    if draw(st.booleans()):
        rel = cyclic(draw(st.lists(letter, min_size=1, max_size=12)))
    else:
        runs = draw(st.lists(st.tuples(letter, st.integers(1, 4)), min_size=1, max_size=4))
        rel = cyclic([x for x, k in runs for _ in range(k)])
    kind = draw(st.sampled_from(["random", "piece", "inverted piece"]))
    if kind == "random":
        return rel, cyclic(draw(st.lists(letter, min_size=1, max_size=12)))
    start = draw(st.integers(0, len(rel) - 1))
    piece = (rel + rel)[start : start + draw(st.integers(1, len(rel)))]
    if kind == "inverted piece":
        piece = invert(piece)
    return rel, cyclic(list(piece) + draw(st.lists(letter, max_size=6)))


@settings(max_examples=1000, deadline=None)
@given(shortening_pairs())
@example(((1, 1, 2, 1, 1, 2, 1, 2), (1, 2, 1)))  # a first letter at six starts
@example(((1, 2, 1, 2, 3), (-2, -1, -2)))  # a match through the inverse only
def test_shortening_matches_the_slicing_kernel(pair):
    from curvepi.schreier import _substring_shorten
    from schreier_oracle import _substring_shorten as oracle_shorten

    rel, shorter = pair
    assert _substring_shorten(rel, shorter) == oracle_shorten(rel, shorter)
