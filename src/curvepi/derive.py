"""Bounded search for derivations: prove a word trivial in a presented group
by exhibiting a replayable chain of elementary steps.

A step is either

    ("insert", relator_index, inverted, position)  -- splice the relator (or
        its inverse) into the current word at the position, then freely
        reduce, or
    ("rotate", k)  -- cyclic permutation moving the first k letters to the
        end, then freely reduce (sound for triviality: conjugation).

The search is best-first on (word length, steps taken) over canonical
cyclic forms, with relator insertions attempted at every position of the
canonical representative; cyclic permutations are folded into the state
space by canonicalizing after every insertion.

A state of length n that is a proper power u^k, with q = |u| its least
period, is tried only at the positions 0..q-1.  Inserting at pos + q gives
a rotation of the child made at pos (and pos = n one of pos = 0), so the
two have the same canonical form, which the loop has already recorded or
found recorded at pos.  That holds only while no child is cut by
``_MAX_WORD_LENGTH``: the cut reads the linear child, whose length depends
on where the insertion sits, so the child at pos might be cut and the one
at pos + q kept.  The positions are therefore pruned only when n plus the
longest insertion fits the cap, and then the result, every ``states``
count and every trace are exactly those of trying every position.
Children whose two seams do not cancel are built by concatenation; only
the others go through ``splice``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .presentations import Presentation
from .words import (
    Word,
    canonical_cyclic,
    cyclic_reduce,
    invert,
    least_rotation_index,
    reduce_letters,
    splice,
)

Step = Tuple


# the default state budget of a derivation search
MAX_STATES = 100_000
# the insertions on one path of the search, and the longest word it keeps
_MAX_INSERTIONS = 64
_MAX_WORD_LENGTH = 64


class ProofTrace:
    """A replayable derivation of the empty word from ``start``."""

    __slots__ = ("start", "steps")

    def __init__(self, start: Word, steps: Sequence[Step]):
        self.start = start
        self.steps = tuple(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"ProofTrace(start={self.start!r}, steps={len(self.steps)})"


class Inconclusive:
    """Budget exhausted before a derivation was found; not a judgment.

    ``states`` is the number of derivation states the search held when it
    stopped (0 when no search ran).
    """

    __slots__ = ("reason", "states")

    def __init__(self, reason: str, states: int = 0):
        self.reason = reason
        self.states = states

    def __str__(self) -> str:
        return self.reason

    def __repr__(self) -> str:
        return f"Inconclusive({self.reason!r})"


def replay_trace(p: Presentation, trace: ProofTrace) -> bool:
    """Independent step checker: replays the trace and demands it end at the
    empty word.  Uses only full free reduction of the spliced or rotated
    letters, not the search's word kernels.  A step of any other shape, or
    with a non-integer index, position or rotation, is rejected."""
    current = trace.start.letters
    for step in trace.steps:
        match step:
            case ("insert", int(idx), bool(inv), int(pos)):
                if not 0 <= idx < len(p.relators):
                    return False
                rel = p.relators[idx].letters
                if inv:
                    rel = invert(rel)
                if not 0 <= pos <= len(current):
                    return False
                current = reduce_letters(current[:pos] + rel + current[pos:])
            case ("rotate", int(k)):
                if current:
                    k %= len(current)
                    current = reduce_letters(current[k:] + current[:k])
            case _:
                return False
    return not current


def _canonical_steps(letters: Tuple[int, ...]) -> Tuple[Tuple[int, ...], List[Step]]:
    """Canonicalize reduced ``letters`` and record the rotations used, for
    trace replay: one ``("rotate", 1)`` per cancelled end pair, then one
    rotation to the least rotation."""
    core = cyclic_reduce(letters)
    steps: List[Step] = [("rotate", 1)] * ((len(letters) - len(core)) // 2)
    k = least_rotation_index(core)
    if k:
        steps.append(("rotate", k))
    return core[k:] + core[:k], steps


def _period(state: Tuple[int, ...]) -> int:
    """The least period of ``state``: the least q dividing its length with
    ``state[q:] == state[:-q]``, so that ``state`` is a power of its first q
    letters."""
    n = len(state)
    for q in range(1, n // 2 + 1):
        if not n % q and state[q:] == state[:-q]:
            return q
    return n


def derive_relator(
    p: Presentation, w: Word, max_states: int = MAX_STATES
) -> ProofTrace | Inconclusive:
    """Search for a derivation of ``w == 1`` in the presented group, holding
    at most ``max_states`` states.

    Returns a ProofTrace that replay_trace accepts, or Inconclusive when a
    budget is exhausted (never a refutation: use abelianization or finite
    quotients to refute).

    ``max_states`` only truncates the search: the heap order does not depend
    on it, and a child that is the empty word ends the search before the
    state count is checked.  So for any cap k the result is either the trace
    returned under every larger cap, step for step, or
    ``Inconclusive("state budget exhausted (k states)")`` with
    ``states >= k``, or an Inconclusive with ``states < k`` that every
    larger cap returns too (the search space ran out first).
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    # read once: the loop tests them for every state and child
    max_insertions, max_word_length = _MAX_INSERTIONS, _MAX_WORD_LENGTH
    p.check_word(w)
    start, pre = _canonical_steps(w.letters)
    if not start:
        return ProofTrace(w, pre)
    if not p.relators:
        return Inconclusive("no relators to insert")

    inserts: List[Tuple[int, bool, Tuple[int, ...]]] = []
    for idx, rel in enumerate(p.relators):
        inserts.append((idx, False, rel.letters))
        inv = invert(rel.letters)
        if inv != rel.letters:
            inserts.append((idx, True, inv))

    # state -> (parent, (relator_index, inverted, position))
    parents: Dict[Tuple[int, ...], Optional[Tuple[Tuple[int, ...], Tuple[int, bool, int]]]] = {
        start: None
    }
    counter = 0
    heap: List[Tuple[int, int, int, Tuple[int, ...]]] = [(len(start), 0, counter, start)]
    longest = max(len(rel) for _, _, rel in inserts)
    found = False
    while heap:
        _, d, _, state = heapq.heappop(heap)
        if d >= max_insertions:
            continue
        n = len(state)
        # while no child can exceed the length cap, one period of positions
        # reaches every child that is not a rotation of an earlier one
        positions = range(_period(state) if n + longest <= max_word_length else n + 1)
        for idx, inv, rel in inserts:
            first, last = -rel[0], -rel[-1]
            for pos in positions:
                # at pos 0 this reads state[-1]: at worst a needless splice
                if state[pos - 1] == first or (pos < n and state[pos] == last):
                    child = splice(state, pos, rel)
                else:
                    child = state[:pos] + rel + state[pos:]
                if len(child) > max_word_length:
                    continue
                canon = canonical_cyclic(child)
                if canon in parents:
                    continue
                parents[canon] = (state, (idx, inv, pos))
                if not canon:
                    found = True
                    break
                if len(parents) >= max_states:
                    return Inconclusive(
                        f"state budget exhausted ({max_states} states)", len(parents)
                    )
                counter += 1
                heapq.heappush(heap, (len(canon), d + 1, counter, canon))
            if found:
                break
        if found:
            break
    if not found:
        return Inconclusive("search space exhausted within budget", len(parents))

    # walk parents back from the empty state, then rebuild concrete steps
    chain: List[Tuple[Tuple[int, ...], Tuple[int, bool, int]]] = []
    node: Tuple[int, ...] = ()
    while parents[node] is not None:
        parent, op = parents[node]  # type: ignore[misc]
        chain.append((parent, op))
        node = parent
    chain.reverse()

    steps, cur = pre, start
    for state, (idx, inv, pos) in chain:
        if cur != state:
            raise RuntimeError("trace reconstruction out of sync")
        rel = p.relators[idx].letters
        if inv:
            rel = invert(rel)
        raw = splice(cur, pos, rel)
        steps.append(("insert", idx, inv, pos))
        cur, extra = _canonical_steps(raw)
        steps.extend(extra)
    if cur:
        raise RuntimeError("trace reconstruction does not end at the empty word")
    trace = ProofTrace(w, steps)
    if not replay_trace(p, trace):
        raise RuntimeError("derived trace failed replay")
    return trace
