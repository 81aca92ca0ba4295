"""Reidemeister-Schreier rewriting over the BFS tree of a coset table,
subgroup presentations, and Tietze simplification."""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add as plus
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .coset_table import CosetTable
from .presentations import Presentation
from .words import (
    Word,
    canonical_cyclic,
    cyclic_reduce,
    invert,
    reduce_letters,
)


def _tree_edges(t: CosetTable) -> Dict[int, Tuple[int, int]]:
    """BFS from coset 0 over positive generators in declaration order:
    maps each other coset to the (coset, generator) edge that first
    reached it, in the order reached.  Positive letters suffice: each
    generator permutes the finite coset set, so the set reachable by
    positive steps is inverse-closed."""
    edges: Dict[int, Tuple[int, int]] = {}
    order = [0]
    for c in order:
        for g in range(t.n_gens):
            d = t.forward[g][c]
            if d != 0 and d not in edges:
                edges[d] = (c, g)
                order.append(d)
    if len(order) != t.n:
        raise ValueError("table is not transitive")
    return edges


# a column of the coset table and the Schreier letter read at each coset
_Step = Tuple[Sequence[int], List[int]]


class SchreierRewriter:
    """Rewriting machinery for the subgroup at coset 0 of a coset table.

    The Schreier generator s_{K,a} = rep(K) a rep(Ka)^-1 is dropped up front
    when it is freely trivial, so rewritten words use only the essential
    generators.  Representatives are positive words, so rep(K) a rep(Ka)^-1
    reduces to nothing exactly when rep(Ka) = rep(K) a, that is when (K, a)
    is the BFS tree edge that reached Ka.

    The walk reads only lists.  ``label[g][K]`` is s_{K,g} as a 1-based
    letter, or 0 when (K, g) is a tree edge; generators are numbered coset
    by coset, then by ambient generator.  Each ambient letter is one step
    pair, a column and the labels read from it: ``(forward[g], label[g])``
    for g, and for g^-1 ``backward[g]`` with ``-label[g][Kg^-1]`` at K, as
    g^-1 at K crosses the edge (Kg^-1, g) backwards.

    A rewritten word comes out freely reduced, and a rewritten relator
    cyclically reduced, so neither is reduced again.  Letters s and s^-1
    next to each other (cyclically, for a relator) mean that one non-tree
    edge was crossed one way and then the other, with only tree edges
    walked in between.  That walk is closed, and a closed walk in a tree is
    empty or backtracks, so the reduced word (cyclically reduced relator)
    would hold adjacent inverse letters.
    """

    def __init__(self, p: Presentation, t: CosetTable):
        self.presentation = p
        self.table = t
        tree = set(_tree_edges(t).values())
        self.names: List[str] = []
        self.label: List[List[int]] = [[0] * t.n for _ in range(t.n_gens)]
        for coset in range(t.n):
            for g in range(t.n_gens):
                if (coset, g) not in tree:
                    self.names.append(f"s{coset}_{p.generators[g]}")
                    self.label[g][coset] = len(self.names)
        # signed ambient letter -> its step pair
        self._steps: Dict[int, _Step] = {}
        for g, (forward, backward, label) in enumerate(zip(t.forward, t.backward, self.label)):
            self._steps[g + 1] = (forward, label)
            self._steps[-g - 1] = (backward, [-label[c] for c in backward])

    def _closed_walks(self, cosets: Iterable[int], walks: Sequence[Sequence[_Step]], message: str) -> List[Word]:
        """Follow each of ``walks`` through the table from each of ``cosets``
        in turn, and return the Schreier generator letters met on each walk
        as a word.  A walk that ends away from its start raises ValueError,
        with ``message`` formatted with the start coset."""
        words: List[Word] = []
        raw = Word._raw
        for start in cosets:
            for steps in walks:
                coset = start
                out: List[int] = []
                for step, lab in steps:
                    s = lab[coset]
                    if s:
                        out.append(s)
                    coset = step[coset]
                if coset != start:
                    raise ValueError(message.format(start))
                words.append(raw(tuple(out)))
        return words

    def rewrite(self, w: Word) -> Word:
        """The rewriting function: a word in the ambient generators that
        lies in the subgroup becomes a word in the Schreier generators."""
        self.presentation.check_word(w)
        steps = [self._steps[x] for x in w.letters]
        return self._closed_walks((0,), [steps], "word does not lie in the subgroup (leaves coset {})")[0]

    def subgroup_presentation(self) -> Presentation:
        """Generators: the nontrivial s_{K,a}; relators: each ambient
        relator conjugated by each representative and rewritten.

        The representative's letters are BFS tree edges, which rewrite to
        nothing, so rewriting rep(K) r rep(K)^-1 is walking r from K.
        """
        walks = [[self._steps[x] for x in r.letters] for r in self.presentation.relators]
        rels = self._closed_walks(range(self.table.n), walks, "relator does not close at coset {}")
        return Presentation(self.names, rels)


def subgroup_presentation(p: Presentation, t: CosetTable) -> Presentation:
    return SchreierRewriter(p, t).subgroup_presentation()


# ---------------------------------------------------------------------------
# Tietze simplification


def _dedupe_key(r: Tuple[int, ...]) -> Tuple[int, ...]:
    """The least rotation of cyclically reduced ``r`` or of its inverse.

    Each starts with its word's least letter, ``min(r)`` for ``r`` and
    ``-max(r)`` for the inverse, so the word whose least letter is the
    lesser gives the key, and the inverse is built only when it may give it.
    Words of one or two letters are answered directly: (x) gives (-|x|),
    and (x, y) with x <= y gives (x, y) or (-y, -x), whichever starts
    lower (x + y is not 0, as the word is cyclically reduced).
    """
    if len(r) <= 2:
        if len(r) == 1:
            return (-abs(r[0]),)
        x, y = r if r[0] <= r[1] else (r[1], r[0])
        return (x, y) if x + y < 0 else (-y, -x)
    lo, hi = min(r), -max(r)
    if lo < hi:
        return canonical_cyclic(r)
    inv = invert(r)
    if hi < lo:
        return canonical_cyclic(inv)
    return min(canonical_cyclic(r), canonical_cyclic(inv))


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
    input numbers until the result is built.  When g is replaced by at most
    one letter, ``fold_step`` substitutes once and keeps each relator in
    which nothing cancels as it is, without reducing it again.

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
        if len(r) <= 2:
            g, h = abs(r[0]), abs(r[-1])
            if len(r) == 1:
                heappush(candidates, (1, g, i))
            elif g != h:
                heappush(candidates, (2, g, i))
                heappush(candidates, (2, h, i))
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
        if len(r) <= 2 or not fold:
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
            key = _dedupe_key(r)
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

    def fold_step(g: int, replacement: Tuple[int, ...]) -> None:
        """Replace g by a word of at most one letter, h or nothing, in the
        relators that hold it.  A relator in which no cyclically adjacent
        pair cancels is still cyclically reduced; unless it now equals
        another relator it is updated in place, and of its generators only
        g and h change in the index.  The others go through ``replace``."""
        nonlocal total
        h = replacement[0] if replacement else 0
        sub = {g: h, -g: -h}
        changed: Dict[int, Tuple[int, ...]] = {}
        for i in list(where[g]):
            r = rels[i]
            out = tuple(map(sub.get, r, r)) if h else tuple(x for x in r if x != g and x != -g)
            if out and all(map(plus, out, out[1:])) and out[0] != -out[-1]:
                key = _dedupe_key(out)
                if key not in owner:
                    # ``remove`` then ``add``, but where[g] goes with g, so
                    # only h is new to the index
                    del owner[key_of[i]]
                    rels[i] = out
                    key_of[i] = key
                    owner[key] = i
                    total += len(out) - len(r)
                    if h:
                        where[abs(h)].add(i)
                    if len(out) <= 2 or not fold:
                        offer(i, out)
                    continue
            changed[i] = cyclic_reduce(reduce_letters(out))
        replace(changed)

    def eliminate_once() -> bool:
        """One generator elimination; True if performed."""
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
        if len(replacement) <= 1:
            remove(ri)
            fold_step(g, replacement)
            del where[g]
            return True
        inverse = invert(replacement)
        changed: Dict[int, Tuple[int, ...]] = {}
        for i in where[g]:
            if i == ri:
                continue
            out: List[int] = []
            for x in rels[i]:
                if x == g:
                    out.extend(replacement)
                elif x == -g:
                    out.extend(inverse)
                else:
                    out.append(x)
            changed[i] = cyclic_reduce(reduce_letters(out))
        grown = sum(len(w) - len(rels[i]) for i, w in changed.items())
        if total - len(r) + grown > budget_total:
            return False
        remove(ri)
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
        key = _dedupe_key(r)
        if key not in owner:
            add(i, r, key)
    while eliminate_once():  # the fold phase
        pass
    fold = False
    for i, r in rels.items():
        if len(r) > 2:
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
