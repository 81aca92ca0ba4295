"""Subgroup presentations by one Reidemeister-Schreier walk over the BFS
tree of a coset table, and Tietze simplification with one substitution
step per generator elimination."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from operator import add as plus
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .coset_table import CosetTable, _is_map
from .presentations import Presentation
from .words import Word, cyclic_key, cyclic_reduce, invert, reduce_letters


def subgroup_presentation(p: Presentation, t: CosetTable) -> Presentation:
    """The presentation of the subgroup at coset 0 of ``t``.  Generators:
    the nontrivial s_{K,a} = rep(K) a rep(Ka)^-1; relators: each relator of
    ``p`` conjugated by each representative and rewritten.

    The representative's letters are BFS tree edges, which rewrite to
    nothing, so rewriting rep(K) r rep(K)^-1 is walking r from K.
    Representatives are positive words, so s_{K,a} reduces to nothing
    exactly when rep(Ka) = rep(K) a, that is when (K, a) is the tree edge
    that reached Ka; such a generator is dropped up front.

    The tree is one BFS from coset 0 over the forward maps in generator
    order.  Positive letters suffice: each generator permutes the finite
    coset set, so the set they reach is inverse-closed, and a table they
    do not cover is not transitive.  A ``ValueError`` also names a
    generator count mismatch, a table with no cosets, maps that are not
    mutually inverse permutations, and a relator that does not close.

    The walk reads only lists.  ``label[g][K]`` is s_{K,g} as a 1-based
    letter, or 0 when (K, g) is a tree edge; generators are numbered coset
    by coset, then by ambient generator.  Each ambient letter is one step
    pair, a column and the labels read from it: ``(forward[g], label[g])``
    for g, and for g^-1 ``backward[g]`` with ``-label[g][Kg^-1]`` at K, as
    g^-1 at K crosses the edge (Kg^-1, g) backwards.

    The result is built by ``Presentation._raw``, without the checks of
    the constructor, because the walk proves each of them once the table
    checks below have passed:

    - The names are distinct identifiers.  ``s{coset}_{gen}`` starts with
      a letter and goes on with digits, an underscore and an identifier.
      The coset number holds no underscore, so the first one ends it, and
      the name gives back its (coset, generator) pair; the generator
      names of ``p`` are distinct.
    - The letters are Schreier letters ``±label``, and the labels number
      the names from 1, so every letter names a declared generator.
    - Each relator is freely and cyclically reduced.  Letters s and s^-1
      next to each other (cyclically) mean that one non-tree edge was
      crossed one way and then the other, with only tree edges walked in
      between.  That walk is closed, and a closed walk in a tree is empty
      or backtracks, so the cyclically reduced relator would hold adjacent
      inverse letters.
    - No relator is empty.  An empty one would be a walk of a nonempty,
      cyclically reduced relator over tree edges alone, closed, and so it
      would backtrack in the same way.  (A loop K a = K is never a tree
      edge, so a relator a^n gives the letter s_{K,a} n times.)
    """
    if t.n_gens != p.n_gens:
        raise ValueError(f"generator count mismatch: the table has {t.n_gens}, the presentation {p.n_gens}")
    if not t.n:
        raise ValueError("table has no cosets")
    identity = list(range(t.n))
    for name, forward, backward in zip(p.generators, t.forward, t.backward):
        # backward after forward is the identity exactly when the two maps
        # are mutually inverse permutations of the cosets
        if not _is_map(forward, t.n) or list(map(backward.__getitem__, forward)) != identity:
            raise ValueError(f"the maps of {name} are not mutually inverse permutations")
    # a tree edge gets label 0, every other entry stays 1 until numbered
    label = [[1] * t.n for _ in range(t.n_gens)]
    reached = [True] + [False] * (t.n - 1)
    order = [0]
    for coset in order:
        for forward, lab in zip(t.forward, label):
            d = forward[coset]
            if not reached[d]:
                reached[d] = True
                lab[coset] = 0
                order.append(d)
    if len(order) != t.n:
        raise ValueError("table is not transitive")
    names: List[str] = []
    for coset in range(t.n):
        for name, lab in zip(p.generators, label):
            if lab[coset]:
                names.append(f"s{coset}_{name}")
                lab[coset] = len(names)
    # signed ambient letter -> its step pair
    steps: Dict[int, Tuple[Sequence[int], List[int]]] = {}
    for g, (forward, backward, lab) in enumerate(zip(t.forward, t.backward, label)):
        steps[g + 1] = (forward, lab)
        steps[-g - 1] = (backward, [-lab[c] for c in backward])
    walks = [[steps[x] for x in r.letters] for r in p.relators]
    raw = Word._raw
    rels: List[Word] = []
    for start in range(t.n):
        for walk in walks:
            coset = start
            out: List[int] = []
            for step, lab in walk:
                s = lab[coset]
                if s:
                    out.append(s)
                coset = step[coset]
            if coset != start:
                raise ValueError(f"relator does not close at coset {start}")
            rels.append(raw(tuple(out)))
    return Presentation._raw(tuple(names), tuple(rels))


# ---------------------------------------------------------------------------
# Tietze simplification


def _substring_shorten(rel: Tuple[int, ...], shorter: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """Replace a cyclic substring of ``rel`` that covers more than half of a
    rotation of ``shorter`` (or its inverse) with the inverse of the rest.
    Returns the strictly shorter replacement, or None."""
    n, m = len(rel), len(shorter)
    if n < 2 or m < 2 or n < m // 2 + 1:
        return None
    doubled = rel + rel
    splits = range(m // 2 + 1, min(m, n + 1))
    for unit in (shorter, invert(shorter)):
        for k, first in enumerate(unit):
            # s can start only where its first letter occurs in rel
            count = rel.count(first)
            if not count:
                continue
            starts = [rel.index(first)]
            for _ in range(count - 1):
                starts.append(rel.index(first, starts[-1] + 1))
            rot = unit[k:] + unit[:k]
            for split in splits:
                s = rot[:split]
                # find s as a substring of the cyclic word
                for start in starts:
                    if doubled[start : start + split] == s:
                        tail = doubled[start + split : start + n]
                        candidate = reduce_letters(tail + invert(rot[split:]))
                        if len(candidate) < n:
                            return candidate
    return None


_GROWTH_LIMIT = 4
_SUBSTRING_MAX_RELATORS = 64
_SUBSTRING_MAX_LENGTH = 2048


def simplify(p: Presentation) -> Presentation:
    """Tietze simplification.

    - drops empty and duplicate relators (duplicates modulo rotation and
      inversion; the earliest copy stays),
    - eliminates generators that occur exactly once in some relator,
      preferring the shortest defining relator, then the lowest generator
      index, then the earliest relator; when that elimination would push
      the total relator length beyond ``_GROWTH_LIMIT`` times the input,
      it is refused and only shortening may go on,
    - shortens relators against rotations of shorter relators (skipped on
      presentations too large for the quadratic scan to be worthwhile),

    until no rule applies.  This ends: each elimination removes a
    generator, and each shortening strictly lowers the total length.

    The work follows the relators each step touches.  Relators keep stable
    ids in list order, an index maps each generator to the relators that
    contain it, and a heap holds the elimination candidates.  An
    elimination rewrites only the relators containing its generator, and
    only those are checked for new duplicates.  Generators keep their
    input numbers until the result is built.  ``eliminate_once``
    substitutes once per relator and keeps each result in which nothing
    cancels as it is, without reducing it again.

    The loop starts with a fold phase: while some relator of length <= 2
    defines a generator, only such relators put candidates on the heap.
    They sort before every longer one, so the steps are the ones the full
    heap would give; a replacement of at most one letter never reaches the
    growth limit, and shortening waits until no elimination is left.

    Deterministic, and the abelianization is invariant under the pipeline.
    """
    names = list(p.generators)
    budget_total = _GROWTH_LIMIT * max(1, sum(len(w) for w in p.relators))
    rels: Dict[int, Tuple[int, ...]] = {}  # id -> letters, ids in list order
    key_of: Dict[int, Tuple[int, ...]] = {}  # id -> dedupe key
    owner: Dict[Tuple[int, ...], int] = {}  # dedupe key -> id
    # generator (input number) -> ids of the relators that contain it
    where: Dict[int, Set[int]] = {g: set() for g in range(1, len(names) + 1)}
    # (len, generator, id) for each generator that occurs once in a relator;
    # entries go stale as relators change and are dropped when seen
    candidates: List[Tuple[int, int, int]] = []
    total = 0
    fold = True  # only relators of length <= 2 offer candidates yet

    def offer(i: int, r: Tuple[int, ...]) -> None:
        """Push the candidates of relator ``i``; in the fold phase only a
        relator of length <= 2 has any."""
        if len(r) <= 2:
            g, h = abs(r[0]), abs(r[-1])
            if len(r) == 1:
                heappush(candidates, (1, g, i))
            elif g != h:
                heappush(candidates, (2, g, i))
                heappush(candidates, (2, h, i))
            return
        if fold:
            return
        counts: Dict[int, int] = {}
        for x in r:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g, c in counts.items():
            if c == 1:
                heappush(candidates, (len(r), g, i))

    def add(i: int, r: Tuple[int, ...], key: Tuple[int, ...]) -> None:
        nonlocal total
        rels[i] = r
        key_of[i] = key
        owner[key] = i
        total += len(r)
        for x in r:
            where[abs(x)].add(i)
        offer(i, r)

    def remove(i: int) -> None:
        nonlocal total
        r = rels.pop(i)
        del owner[key_of.pop(i)]
        total -= len(r)
        for x in r:
            where[abs(x)].discard(i)

    def replace(changed: Dict[int, Tuple[int, ...]]) -> None:
        """Give relators new (cyclically reduced) letters; of equal
        relators the lowest id stays, as in a dedupe of the whole list."""
        for i in changed:
            remove(i)
        for i, r in changed.items():
            if not r:
                continue
            key = cyclic_key(r)
            j = owner.get(key)
            if j is not None:
                if j < i:
                    continue
                remove(j)
            add(i, r, key)

    def best_candidate() -> Optional[Tuple[int, int, int]]:
        while candidates:
            n, g, i = candidates[0]
            r = rels.get(i)
            if r is not None and len(r) == n and r.count(g) + r.count(-g) == 1:
                return candidates[0]
            heappop(candidates)
        return None

    def eliminate_once() -> bool:
        """One generator elimination; True if performed.

        Each relator that holds g is substituted once: by ``map`` when g
        is replaced by one letter, by a filter when by nothing, by a
        chained splice otherwise.  A step that would push the total length
        past the budget is refused before anything changes (one of at most
        one letter never is).  A result in which no cyclically adjacent
        pair cancels is still cyclically reduced; unless it now equals
        another relator it is updated in place.  The others are reduced
        and go through ``replace``."""
        nonlocal total
        best = best_candidate()
        if best is None:
            return False
        _, g, ri = best
        r = rels[ri]
        pos = next(i for i, x in enumerate(r) if abs(x) == g)
        # rotate the occurrence to the front: r ~ g^e . tail, so g^e = tail^-1
        rot = r[pos:] + r[:pos]
        tail = rot[1:]
        replacement = invert(tail) if rot[0] > 0 else tail  # word equal to g
        size = len(replacement)
        if size == 1:
            one = {g: replacement[0], -g: -replacement[0]}
        elif size:
            pieces = {g: replacement, -g: invert(replacement)}
        results = []  # (id, letters, true when nothing cancels)
        grown = 0
        for i in where[g]:
            if i == ri:
                continue
            w = rels[i]
            if size == 1:
                out = tuple(map(one.get, w, w))
            elif size:
                out = tuple(chain.from_iterable(map(pieces.get, w, zip(w))))
            else:
                out = tuple(x for x in w if x != g and x != -g)
            reduced = out and all(map(plus, out, out[1:])) and out[0] != -out[-1]
            if not reduced:
                out = cyclic_reduce(reduce_letters(out))
            grown += len(out) - len(w)
            results.append((i, out, reduced))
        if total - len(r) + grown > budget_total:
            return False
        remove(ri)
        gens = set(map(abs, replacement))
        changed: Dict[int, Tuple[int, ...]] = {}
        for i, out, reduced in results:
            if reduced:
                key = cyclic_key(out)
                if key not in owner:
                    # ``remove`` then ``add``, but where[g] goes with g, so
                    # only the replacement's generators are new to the index
                    del owner[key_of[i]]
                    total += len(out) - len(rels[i])
                    rels[i] = out
                    key_of[i] = key
                    owner[key] = i
                    for x in gens:
                        where[x].add(i)
                    offer(i, out)
                    continue
            changed[i] = out
        replace(changed)
        del where[g]
        return True

    def shorten_once() -> bool:
        if len(rels) > _SUBSTRING_MAX_RELATORS:
            return False
        if total > _SUBSTRING_MAX_LENGTH:
            return False
        order = sorted(rels, key=lambda i: (len(rels[i]), i))
        for wi in reversed(order):  # longest first
            for ui in order:
                if ui == wi or len(rels[ui]) > len(rels[wi]):
                    continue
                out = _substring_shorten(rels[wi], rels[ui])
                if out is not None:
                    replace({wi: cyclic_reduce(out)})
                    return True
        return False

    # a Presentation's relators are already cyclically reduced and nonempty
    for i, w in enumerate(p.relators):
        r = w.letters
        key = cyclic_key(r)
        if key not in owner:
            add(i, r, key)
    while eliminate_once():  # the fold phase
        pass
    fold = False
    for i, r in rels.items():
        offer(i, r)
    while eliminate_once() or shorten_once():
        pass

    kept = sorted(where)
    number = {g: n for n, g in enumerate(kept, 1)}
    number.update({-g: -n for g, n in number.items()})
    return Presentation(
        [names[g - 1] for g in kept],
        [Word(number[x] for x in rels[i]) for i in sorted(rels)],
    )
