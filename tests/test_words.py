import random
import struct
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from curvepi import derive, parse_presentation
from curvepi.abelian import exponent_row
from curvepi.derive import ProofTrace, _canonical_steps, derive_relator, replay_trace
from curvepi.presentations import Presentation
from curvepi.words import (
    MAX_LETTERS,
    Word,
    canonical_cyclic,
    concat,
    cyclic_reduce,
    invert,
    least_rotation_index,
    reduce_letters,
    splice,
)
from word_oracles import least_rotation


def random_word(rng, n_gens=3, max_len=12):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, n_gens)
        letters.append(g if rng.random() < 0.5 else -g)
    return Word(letters)


def test_basic_reduction():
    # a b b^-1 c -> a c
    assert Word([1, 2, -2, 3]).letters == (1, 3)
    assert Word([]).letters == ()
    # a a^-1 a -> a
    assert Word([1, -1, 1]).letters == (1,)


def test_zero_letter_rejected():
    with pytest.raises(ValueError):
        Word([1, 0])


def test_negative_generator_index_rejected():
    # index -1 would be letter 0, and index -2 the inverse of generator 0
    for index in (-1, -2):
        with pytest.raises(ValueError):
            Word.gen(index)
    assert (~Word.gen(0)).letters == (-1,)


def test_free_reduce_idempotent_and_cancellation():
    rng = random.Random(1)
    for _ in range(500):
        w = random_word(rng)
        assert (w * ~w).letters == ()
        assert (~w * w).letters == ()


def test_reduction_length_non_increasing():
    rng = random.Random(2)
    for _ in range(300):
        raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 20))]
        assert len(reduce_letters(tuple(raw))) <= len(raw)


def test_concat_matches_full_reduction():
    rng = random.Random(3)
    for _ in range(300):
        u, v = random_word(rng), random_word(rng)
        assert (u * v).letters == reduce_letters(u.letters + v.letters)


def test_powers():
    a = Word([1])
    assert (a ** 3).letters == (1, 1, 1)
    assert (a ** -2).letters == (-1, -1)
    assert (a ** 0).letters == ()
    ab = Word([1, 2])
    assert (ab ** 2).letters == (1, 2, 1, 2)
    assert (ab ** -1) == ~ab


def test_powers_match_repeated_products():
    rng = random.Random(4)
    for _ in range(300):
        w = random_word(rng)
        n = rng.randint(-6, 6)
        expected = Word()
        for _ in range(abs(n)):
            expected = expected * (w if n > 0 else ~w)
        assert w ** n == expected


def test_large_power_is_linear():
    assert len(Word([1, 2]) ** 10**6) == 2 * 10**6
    assert len(Word([2, 1, -2]) ** -(10**6)) == 10**6 + 2


def test_power_longer_than_a_tuple_can_hold_is_rejected():
    message = f"power makes a word longer than {MAX_LETTERS} letters"
    assert MAX_LETTERS * struct.calcsize("P") <= sys.maxsize
    cases = ((Word([1]), MAX_LETTERS + 1), (Word([1, 2]), -(MAX_LETTERS // 2 + 1)), (Word(), sys.maxsize + 1))
    for w, n in cases:
        with pytest.raises(ValueError, match=message):
            w**n


def test_splice_reduces():
    # inserting the inverse next to a word cancels it
    w = (1, 2, 3)
    assert splice(w, 1, (-1,)) == (2, 3)
    assert splice(w, 3, (-3, -2, -1)) == ()


def test_cyclic_reduce_strips_end_pairs():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2, -3, -1)) == (2, -3)
    assert cyclic_reduce((1, -2, 2, -1)) == ()
    assert cyclic_reduce((1, 2, 1)) == (1, 2, 1)


def test_least_rotation_brute_force():
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(1, 14)
        t = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(n))
        k = least_rotation(t)
        assert t[k:] + t[:k] == min(t[i:] + t[:i] for i in range(n))


def test_canonical_cyclic_invariant_under_rotation():
    rng = random.Random(5)
    for _ in range(300):
        w = random_word(rng)
        if not w.letters:
            continue
        base = canonical_cyclic(w.letters)
        for k in range(len(w.letters)):
            rotated = reduce_letters(w.letters[k:] + w.letters[:k])
            assert canonical_cyclic(rotated) == base


def test_exponent_sums():
    w = Word([1, 2, 2, -1, -2])
    assert exponent_row(w) == {1: 1}
    assert exponent_row(Word([-3, -3, 1])) == {2: -2, 0: 1}


def test_word_is_immutable_and_hashable():
    w = Word([1, 2])
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, Word([1, 2]), ~w}) == 2
    raw = Word._raw((1, 2))
    with pytest.raises(AttributeError):
        raw.letters = ()
    assert raw == w and hash(raw) == hash(w) and raw.letters == (1, 2)
    assert len({raw, w, ~raw}) == 2


# ---------------------------------------------------------------------------
# The word kernels of the derivation search against verbatim copies of their
# earlier versions, which reduced the whole word.  Booth's least_rotation,
# which those versions called, is in word_oracles.py.


def parent_splice(letters, pos, ins):
    """Insert ``ins`` into reduced ``letters`` at ``pos`` and reduce."""
    return reduce_letters(letters[:pos] + ins + letters[pos:])


def parent_canonical_cyclic(letters):
    """Canonical form under cyclic permutation: reduce cyclically, then
    pick the lexicographically least rotation."""
    core = cyclic_reduce(reduce_letters(letters))
    if len(core) <= 1:
        return core
    k = least_rotation(core)
    return core[k:] + core[:k]


def parent_canonical_steps(letters):
    """Canonicalize and record the rotations used, for trace replay."""
    steps = []
    cur = reduce_letters(letters)
    while len(cur) >= 2 and cur[0] == -cur[-1]:
        cur = reduce_letters(cur[1:] + cur[:1])
        steps.append(("rotate", 1))
    if len(cur) > 1:
        k = least_rotation(cur)
        if k:
            cur = cur[k:] + cur[:k]
            steps.append(("rotate", k))
    return cur, steps


def parent_replay_trace(p, trace):
    """Independent step checker: replays the trace and demands it end at the
    empty word.  Uses only free reduction, splicing and rotation."""
    current = trace.start.letters
    for step in trace.steps:
        if step[0] == "insert":
            _, idx, inv, pos = step
            if not 0 <= idx < len(p.relators):
                return False
            rel = p.relators[idx].letters
            if inv:
                rel = invert(rel)
            if not 0 <= pos <= len(current):
                return False
            current = parent_splice(current, pos, rel)
        elif step[0] == "rotate":
            _, k = step
            if current:
                k %= len(current)
                current = reduce_letters(current[k:] + current[:k])
        else:
            return False
    return not current


def raw_letters(n_gens, max_size=16):
    return st.lists(
        st.sampled_from([s * g for g in range(1, n_gens + 1) for s in (1, -1)]), max_size=max_size
    ).map(tuple)


def reduced_letters(n_gens, max_size=16):
    return raw_letters(n_gens, max_size).map(reduce_letters)


@st.composite
def splice_cases(draw):
    """Reduced letters, a position and a reduced insertion that often
    cancels into one or both sides: the inverse of a stretch left of the
    position, a random middle, and the inverse of a stretch right of it."""
    n = draw(st.integers(1, 3))
    letters = draw(reduced_letters(n))
    pos = draw(st.integers(0, len(letters)))
    i = draw(st.integers(0, pos))
    j = draw(st.integers(pos, len(letters)))
    ins = reduce_letters(invert(letters[i:pos]) + draw(raw_letters(n, 6)) + invert(letters[pos:j]))
    return letters, pos, ins


@settings(max_examples=300, deadline=None)
@given(splice_cases())
def test_splice_matches_full_reduction(case):
    letters, pos, ins = case
    assert splice(letters, pos, ins) == parent_splice(letters, pos, ins)


@pytest.mark.parametrize(
    "letters,pos,ins,expected",
    [
        # the inserted relator cancels completely into the left side
        ((1, 2, 3), 3, (-3, -2), (1,)),
        ((1, 2, 3), 3, (-3, -2, -1), ()),
        # ... and into the right side
        ((1, 2, 3), 0, (-2, -1), (3,)),
        # ins is eaten from both ends: -2 by the left, -3 -4 by the right
        ((1, 2, 3, 4), 2, (-2, -4, -3), (1,)),
        # cancellation at the second junction runs through ins into the left
        ((1, 2, -3, -2, -1), 2, (3,), ()),
        ((1, 2), 1, (), (1, 2)),
        ((), 0, (1, -2), (1, -2)),
    ],
)
def test_splice_junction_cases(letters, pos, ins, expected):
    assert splice(letters, pos, ins) == expected == parent_splice(letters, pos, ins)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(raw_letters))
def test_canonical_cyclic_matches_booth(letters):
    reduced = reduce_letters(letters)
    assert canonical_cyclic(reduced) == parent_canonical_cyclic(letters)
    assert _canonical_steps(reduced) == parent_canonical_steps(letters)


@st.composite
def reduced_or_periodic(draw):
    """Reduced letters, half of them a power of a short word, so that the
    least rotation often starts at several indices."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(reduced_letters(n))
    return reduce_letters(draw(reduced_letters(n, 5)) * draw(st.integers(1, 5)))


@settings(max_examples=500, deadline=None)
@given(reduced_or_periodic())
def test_least_rotation_index_matches_booth(letters):
    core = cyclic_reduce(letters)
    k = least_rotation_index(core)
    assert k == least_rotation(core)
    assert k == min(range(len(core)), key=lambda i: core[i:] + core[:i], default=0)
    assert _canonical_steps(letters) == parent_canonical_steps(letters)


@pytest.mark.parametrize(
    "letters",
    [
        (1, -1, 2, 2, -2, 1),  # unreduced
        (-2, 1, 2, 3, -3, -2, -1, 2),  # unreduced, cyclically too
        (1, 2, 1, 2, 1, 2),  # (ab)^3
        (2, 1, 2, 1, 2, 1),
        (-1, 2, -1, 3, -1, 2),  # repeated minimum letters
        (-1, 2, -1, 2, -1, 3),
        (-1, 2, -1, -1, 3, -1),  # a run of the least letter wraps around
        (1, 1, 1, 1),  # a power of one letter
        (-2, -2, -2),
        (),
        (3,),
    ],
)
def test_canonical_cyclic_cases(letters):
    reduced = reduce_letters(letters)
    assert canonical_cyclic(reduced) == parent_canonical_cyclic(letters)
    assert _canonical_steps(reduced) == parent_canonical_steps(letters)
    core = cyclic_reduce(reduced)
    assert canonical_cyclic(reduced) == min((core[i:] + core[:i] for i in range(len(core))), default=())


@st.composite
def traces(draw):
    """A presentation over 1-3 generators and a step list that may or may
    not reach the empty word, with out-of-range indices and positions."""
    n = draw(st.integers(1, 3))
    rels = [Word(r) for r in draw(st.lists(reduced_letters(n, 6), max_size=3))]
    p = Presentation([f"g{i}" for i in range(n)], rels)
    step = st.one_of(
        st.tuples(st.just("insert"), st.integers(-1, 3), st.booleans(), st.integers(-1, 20)),
        st.tuples(st.just("rotate"), st.integers(-3, 20)),
        st.just(("swap",)),
    )
    return p, ProofTrace(Word(draw(raw_letters(n))), draw(st.lists(step, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(traces())
def test_replay_trace_matches_the_full_reduction_checker(case):
    p, trace = case
    assert replay_trace(p, trace) == parent_replay_trace(p, trace)


def test_derived_traces_replay_under_both_checkers():
    p = parse_presentation("<a,b | a^2, b^3, (ab)^5>")
    rng = random.Random(9)
    for _ in range(30):
        w = Word(())
        for _ in range(rng.randint(1, 2)):
            conj = random_word(rng, 2, 2)
            w = w * conj * p.relators[rng.randrange(3)] * ~conj
        with patch.object(derive, "_MAX_WORD_LENGTH", 32):
            trace = derive_relator(p, w)
        assert isinstance(trace, ProofTrace)
        assert replay_trace(p, trace) and parent_replay_trace(p, trace)
