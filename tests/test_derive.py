import os
import random
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import derive_oracle
from curvepi import derive, parse_presentation, parse_word
from curvepi.derive import (
    Inconclusive,
    ProofTrace,
    derive_relator,
    replay_trace,
)
from curvepi.presentations import Presentation
from curvepi.words import Word, cyclic_reduce, reduce_letters

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_relator_itself_is_one_insertion():
    p = parse_presentation("<a,b | aba=bab>")
    w = parse_word(p, "a b a b^-1 a^-1 b^-1")
    trace = derive_relator(p, w)
    assert isinstance(trace, ProofTrace)
    assert [s[0] for s in trace.steps].count("insert") == 1
    assert replay_trace(p, trace)


def test_already_trivial_word():
    p = parse_presentation("<a | a^2>")
    trace = derive_relator(p, parse_word(p, "a a^-1"))
    assert isinstance(trace, ProofTrace)
    assert [s[0] for s in trace.steps].count("insert") == 0
    assert replay_trace(p, trace)


def test_free_group_is_inconclusive_quickly():
    p = parse_presentation("<a |>")
    res = derive_relator(p, parse_word(p, "a"))
    assert isinstance(res, Inconclusive)


def test_budget_exhaustion_is_inconclusive():
    p = parse_presentation("<a,b | a^2, b^3, (ab)^7>")
    w = parse_word(p, "(ab)^21")
    res = derive_relator(p, w, 5)
    assert isinstance(res, Inconclusive)
    # and a sane budget succeeds on the same input
    ok = derive_relator(p, w)
    assert isinstance(ok, ProofTrace)
    assert replay_trace(p, ok)


def test_rewriting_chain_via_substitution():
    # the braid relator in b, c maps under c -> b^-1 x b to a word that the
    # bounded search reduces using the target's own braid relator
    art = parse_presentation("<a,b,x | aba=bab, bxb=xbx, axa=xax>")
    image = parse_word(art, "x b^2 (b^-1 x b x b)^-1")
    trace = derive_relator(art, image)
    assert isinstance(trace, ProofTrace)
    assert replay_trace(art, trace)


def test_word_length_budget_respected():
    p = parse_presentation("<a,b | a^2, b^3, (ab)^7>")
    with patch.object(derive, "_MAX_WORD_LENGTH", 10):
        res = derive_relator(p, parse_word(p, "(ab)^21"))
    assert isinstance(res, Inconclusive)


def test_replay_rejects_corrupt_traces():
    p = parse_presentation("<a | a^3>")
    good = derive_relator(p, parse_word(p, "a^3"))
    assert replay_trace(p, good)
    # tamper: wrong relator index
    bad = ProofTrace(good.start, [("insert", 5, False, 0)])
    assert not replay_trace(p, bad)
    # tamper: trace that does not reach the empty word
    stuck = ProofTrace(good.start, [])
    assert not replay_trace(p, stuck)
    # tamper: rotate-only trace on a nontrivial word
    spin = ProofTrace(good.start, [("rotate", 1), ("rotate", 2)])
    assert not replay_trace(p, spin)


def test_traces_replay_on_random_consequences():
    # products of conjugates of relators are derivable and replayable
    p = parse_presentation("<a,b | a^2, (ab)^3>")
    rng = random.Random(21)
    for _ in range(40):
        w = Word(())
        for _ in range(rng.randint(1, 2)):
            rel = p.relators[rng.randrange(len(p.relators))]
            conj = Word(
                [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 2))]
            )
            piece = conj * (rel if rng.random() < 0.5 else ~rel) * ~conj
            w = w * piece
        res = derive_relator(p, w)
        assert isinstance(res, ProofTrace), w
        assert replay_trace(p, res)


def test_budget_validation():
    p = parse_presentation("<a | a^2>")
    for max_states in (0, -1):
        with pytest.raises(ValueError):
            derive_relator(p, parse_word(p, "a^2"), max_states)


def test_failed_replay_raises_under_python_O():
    # the replay check guards soundness, so it must survive ``python -O``
    code = """
import curvepi.derive as derive
from curvepi import parse_presentation, parse_word
p = parse_presentation("<a | a^2>")
derive.replay_trace = lambda p, trace: False
try:
    derive.derive_relator(p, parse_word(p, "a^2"))
except RuntimeError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert done.returncode == 0


# The state cap only truncates the search, so a smaller cap either finds the
# full-budget trace, step for step, or reports that the cap ran out.
CAP_PRESENTATIONS = [
    parse_presentation(t)
    for t in (
        "<a,b | a^2, b^2, (ab)^3>",
        "<a,b | a^2, b^3, (ab)^7>",
        "<a,b | aba=bab>",
        "<a,b,c | a^2, b^2, c^2, (ab)^3, (bc)^3, (ac)^2>",
    )
]


@st.composite
def derivable(draw):
    """A presentation and a product of conjugates of its relators."""
    p = draw(st.sampled_from(CAP_PRESENTATIONS))
    letters = [s * g for g in range(1, p.n_gens + 1) for s in (1, -1)]
    w = Word(())
    for _ in range(draw(st.integers(1, 2))):
        rel = draw(st.sampled_from(p.relators))
        conj = Word(draw(st.lists(st.sampled_from(letters), max_size=2)))
        w = w * conj * (rel if draw(st.booleans()) else ~rel) * ~conj
    return p, w


@settings(max_examples=60, deadline=None)
@given(derivable(), st.integers(1, 400))
def test_state_cap_only_truncates_the_search(case, k):
    p, w = case
    with patch.object(derive, "_MAX_WORD_LENGTH", 32):
        full = derive_relator(p, w)
        res = derive_relator(p, w, k)
    assert isinstance(full, ProofTrace)
    if isinstance(res, ProofTrace):
        assert (res.start, res.steps) == (full.start, full.steps)
    else:
        assert res.reason == f"state budget exhausted ({k} states)"
        assert res.states >= k


@pytest.mark.parametrize(
    "step",
    [
        ("insert", 0, False),
        ("rotate",),
        (),
        ("insert", 0, True, 0, 9),
        ("rotate", 1.5),
        ("insert", 0.0, False, 0),
        ("insert", 0, False, 0.5),
        None,
    ],
)
def test_replay_rejects_malformed_steps(step):
    p = parse_presentation("<a | a^3>")
    assert not replay_trace(p, ProofTrace(parse_word(p, "a^3"), [step]))


@st.composite
def search_cases(draw):
    """A presentation with 1-3 generators and 1-3 relators of length 1-6, a
    start word that in half the examples is a proper power u^k (u often a
    relator, so that a derivation exists), and the caps on insertions, word
    length and states, the word-length cap one that may or may not cut
    children."""
    n = draw(st.integers(1, 3))
    letter = st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)])
    rels = draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(Word), min_size=1, max_size=3))
    p = Presentation([f"g{i}" for i in range(n)], rels)
    if draw(st.booleans()):
        u = cyclic_reduce(draw(st.lists(letter, min_size=1, max_size=4).map(reduce_letters))) or (1,)
        if p.relators and draw(st.booleans()):
            u = draw(st.sampled_from(p.relators)).letters
        w = Word(u * draw(st.integers(2, 5)))
    else:
        w = Word(draw(st.lists(letter, max_size=4)))
        for rel in draw(st.lists(st.sampled_from(p.relators), max_size=2)) if p.relators else ():
            conj = Word(draw(st.lists(letter, max_size=2)))
            w = w * conj * (rel if draw(st.booleans()) else ~rel) * ~conj
    caps = (
        draw(st.sampled_from([3, 64])),
        draw(st.sampled_from([8, 16, 64])),
        draw(st.sampled_from([50, 300, 2000])),
    )
    return p, w, caps


def _outcome(res):
    if isinstance(res, ProofTrace):
        return "trace", res.start, res.steps
    return "inconclusive", res.reason, res.states


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_search_matches_the_unpruned_search(case):
    p, w, (insertions, length, states) = case
    with patch.object(derive, "_MAX_INSERTIONS", insertions), patch.object(
        derive, "_MAX_WORD_LENGTH", length
    ):
        res = derive_relator(p, w, states)
    assert _outcome(res) == _outcome(derive_oracle.derive_relator(p, w, insertions, length, states))


def test_periodic_state_is_pruned_only_when_no_child_is_cut():
    # a^-16 is (a^-1)^16; with a word-length cap of 16 the cap cuts some
    # of its children, so every insert position must still be tried
    p = parse_presentation("<a,b | a a b^-1, b^-1 a^-1 b^-1 b^-1 a^-1 a^-1>")
    with patch.object(derive, "_MAX_WORD_LENGTH", 16):
        res = derive_relator(p, parse_word(p, "a^-16"), 300)
    assert isinstance(res, Inconclusive)
    assert (res.reason, res.states) == ("state budget exhausted (300 states)", 300)
