"""The derivation search as it was before it pruned the insert positions of
periodic states and built non-cancelling children by concatenation, kept
verbatim (but for its imports, and its three caps taken as ints) as the
oracle for curvepi.derive: the word kernels it calls, its replay checker,
_canonical_steps and derive_relator.

It tries every insert position of every state and splices every child, so
it does not rely on the rotation argument the pruned search rests on.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from curvepi.derive import Inconclusive, ProofTrace, Step
from curvepi.presentations import Presentation
from curvepi.words import Word, invert, reduce_letters


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
    starts, so only the rotations there are compared; a word with no such
    run is a power of one letter (or empty), and its index is 0.
    """
    n = len(core)
    least = min(core, default=0)
    starts = [i for i, x in enumerate(core) if x == least and core[i - 1] != least]
    if not starts:
        return 0
    doubled = core + core
    return min(starts, key=lambda i: doubled[i : i + n])


def canonical_cyclic(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """Canonical form of reduced ``letters`` under cyclic permutation: the
    least rotation of its cyclic reduction."""
    core = cyclic_reduce(letters)
    k = least_rotation_index(core)
    return core[k:] + core[:k]


def replay_trace(p: Presentation, trace: ProofTrace) -> bool:
    """Independent step checker: replays the trace and demands it end at the
    empty word.  Uses only full free reduction of the spliced or rotated
    letters, not the search's word kernels."""
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
            current = reduce_letters(current[:pos] + rel + current[pos:])
        elif step[0] == "rotate":
            _, k = step
            if current:
                k %= len(current)
                current = reduce_letters(current[k:] + current[:k])
        else:
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


def derive_relator(
    p: Presentation, w: Word, max_insertions: int, max_word_length: int, max_states: int
) -> ProofTrace | Inconclusive:
    """Search for a derivation of ``w == 1`` in the presented group.

    Returns a ProofTrace that replay_trace accepts, or Inconclusive when the
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
    found = False
    while heap:
        _, d, _, state = heapq.heappop(heap)
        if d >= max_insertions:
            continue
        for idx, inv, rel in inserts:
            for pos in range(len(state) + 1):
                child = splice(state, pos, rel)
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
