"""Freely reduced words in numbered generators.

A letter is a nonzero int: ``+k`` is generator ``k-1``, ``-k`` its inverse
(1-based so that negation is well defined).  Words are reduced on
construction and immutable afterwards.
"""

from __future__ import annotations

import struct
import sys
from operator import neg
from typing import Iterable, Iterator, Sequence, Tuple

# the most letters a word can hold: each letter is a pointer in its tuple,
# and no object takes more than sys.maxsize bytes
MAX_LETTERS = sys.maxsize // struct.calcsize("P")


def reduce_letters(letters: Iterable[int]) -> Tuple[int, ...]:
    """Free reduction: cancel adjacent inverse pairs."""
    stack: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("letter 0 is not a generator")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """A freely reduced word. Immutable; hashable; compared by letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        _set_letters(self, reduce_letters(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _raw(cls, reduced: Tuple[int, ...]) -> "Word":
        w = cls.__new__(cls)
        _set_letters(w, reduced)
        return w

    @classmethod
    def gen(cls, index: int) -> "Word":
        if index < 0:
            raise ValueError(f"generator index {index} is negative")
        return cls._raw((index + 1,))

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((abs(x) - 1, 1 if x > 0 else -1) for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._raw(concat(self.letters, other.letters))

    def __invert__(self) -> "Word":
        return Word._raw(invert(self.letters))

    def __pow__(self, n: int) -> "Word":
        return Word(power(self.letters, n))

    def __repr__(self) -> str:
        return f"Word({list(self.letters)})"


# the slot's own setter, which __setattr__ does not go through
_set_letters = Word.letters.__set__


def concat(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Concatenate two reduced letter tuples, cancelling at the seam."""
    if not a:
        return b
    if not b:
        return a
    la = list(a)
    i = 0
    while la and i < len(b) and la[-1] == -b[i]:
        la.pop()
        i += 1
    return tuple(la) + b[i:]


def invert(letters: Sequence[int]) -> Tuple[int, ...]:
    return tuple(map(neg, reversed(letters)))


def power(letters: Sequence[int], n: int) -> list[int]:
    """``letters`` repeated |n| times, inverted when n < 0, not reduced;
    checked first (a repeat count must fit an index, even of an empty base)."""
    if max(len(letters), 1) * abs(n) > MAX_LETTERS:
        raise ValueError(f"power makes a word longer than {MAX_LETTERS} letters")
    return list(letters if n >= 0 else invert(letters)) * abs(n)


def splice(letters: Tuple[int, ...], pos: int, ins: Tuple[int, ...]) -> Tuple[int, ...]:
    """Insert reduced ``ins`` into reduced ``letters`` at ``pos`` and reduce.

    All three pieces are reduced, so letters cancel only at the two
    junctions; cancellation at the second one may run back through what is
    left of ``ins`` into ``letters[:pos]``.
    """
    return concat(concat(letters[:pos], ins), letters[pos:])


def cyclic_reduce(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """Strip the end pairs ``x ... x^-1`` of reduced ``letters``."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def least_rotation_index(core: Tuple[int, ...]) -> int:
    """First index of the lexicographically least rotation of cyclically
    reduced ``core``.

    The least rotation starts where a cyclic run of the least letter
    starts, so only the rotations there are compared: when the least letter
    occurs once, its index is the answer, and a word that is a power of one
    letter (or empty) has index 0.  Otherwise the occurrences are found by
    ``index`` hops and the rotations at run starts compared as slices; on a
    tie (a proper power) the first start wins.
    """
    n = len(core)
    if n < 2:
        return 0
    least = min(core)
    count = core.count(least)
    if count == 1:
        return core.index(least)
    if count == n:
        return 0
    doubled = core + core
    best, k, i = None, 0, -1
    for _ in range(count):
        i = core.index(least, i + 1)
        if core[i - 1] != least:
            rot = doubled[i : i + n]
            if best is None or rot < best:
                best, k = rot, i
    return k


def canonical_cyclic(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """Canonical form of reduced ``letters`` under cyclic permutation: the
    least rotation of its cyclic reduction."""
    core = cyclic_reduce(letters) if letters and letters[0] == -letters[-1] else letters
    k = least_rotation_index(core)
    return core[k:] + core[:k] if k else core
