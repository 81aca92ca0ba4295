import random

import pytest

from curvepi.words import (
    Word,
    canonical_cyclic,
    concat,
    cyclic_reduce,
    invert,
    least_rotation,
    reduce_letters,
    rotate,
    splice,
)


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


def test_conjugate():
    a, b = Word([1]), Word([2])
    assert a.conjugate(b).letters == (2, 1, -2)


def test_splice_reduces():
    # inserting the inverse next to a word cancels it
    w = (1, 2, 3)
    assert splice(w, 1, (-1,)) == (2, 3)
    assert splice(w, 3, (-3, -2, -1)) == ()


def test_rotate_is_conjugation_sound():
    # rotation of a word is conjugate to it; rotating back recovers the
    # cyclic class
    w = (1, 2, -1)
    assert rotate(w, 1) == (2,)  # wrap-around cancellation
    assert cyclic_reduce((1, 2, -1)) == (2,)


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
            rotated = w.letters[k:] + w.letters[:k]
            assert canonical_cyclic(rotated) == base


def test_exponent_sums():
    w = Word([1, 2, 2, -1, -2])
    assert w.exponent_sums(3) == [0, 1, 0]


def test_word_is_immutable_and_hashable():
    w = Word([1, 2])
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, Word([1, 2]), ~w}) == 2
