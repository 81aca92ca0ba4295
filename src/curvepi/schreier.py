"""Schreier transversals, Reidemeister-Schreier rewriting, subgroup
presentations, and Tietze simplification."""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .coset_table import CosetTable
from .presentations import Presentation
from .words import (
    Word,
    canonical_cyclic,
    cyclic_reduce,
    invert,
    reduce_letters,
)


class Transversal:
    """Prefix-closed coset representatives, index-aligned with the table.
    Representative 0 is the empty word."""

    __slots__ = ("representatives",)

    def __init__(self, representatives: Sequence[Word]):
        self.representatives = tuple(representatives)

    def __len__(self) -> int:
        return len(self.representatives)

    def __getitem__(self, i: int) -> Word:
        return self.representatives[i]


def schreier_transversal(t: CosetTable) -> Transversal:
    """BFS-minimal transversal over positive generators in declaration
    order.  Positive letters suffice: each generator permutes the finite
    coset set, so the set reachable by positive steps is inverse-closed."""
    reps: List[Optional[Word]] = [None] * t.n
    reps[0] = Word()
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for g in range(t.n_gens):
            d = t.forward[g][c]
            if reps[d] is None:
                reps[d] = reps[c] * Word.gen(g)
                queue.append(d)
    if any(r is None for r in reps):
        raise ValueError("table is not transitive")
    return Transversal(reps)  # type: ignore[arg-type]


class SchreierGenerator:
    """s_{K,a} = (rep K) a (rep Ka)^-1, an element of the subgroup."""

    __slots__ = ("coset", "gen", "value")

    def __init__(self, coset: int, gen: int, value: Word):
        self.coset = coset
        self.gen = gen
        self.value = value

    def __repr__(self) -> str:
        return f"SchreierGenerator(coset={self.coset}, gen={self.gen})"


class SchreierRewriter:
    """Rewriting machinery for the subgroup at coset 0 of a coset table.

    Schreier generators with freely trivial value (the BFS tree edges) are
    dropped up front, so rewritten words use only the essential generators.
    """

    def __init__(self, p: Presentation, t: CosetTable):
        self.presentation = p
        self.table = t
        self.transversal = schreier_transversal(t)
        self.generators: List[SchreierGenerator] = []
        self.names: List[str] = []
        # (coset, gen) -> subgroup generator index, or None when trivial
        self.index: Dict[Tuple[int, int], Optional[int]] = {}
        for coset in range(t.n):
            rep = self.transversal[coset]
            for g in range(t.n_gens):
                target = t.forward[g][coset]
                value = rep * Word.gen(g) * ~self.transversal[target]
                if value:
                    self.index[(coset, g)] = len(self.generators)
                    self.generators.append(SchreierGenerator(coset, g, value))
                    self.names.append(f"s{coset}_{p.generators[g]}")
                else:
                    self.index[(coset, g)] = None

    def _walk(self, coset: int, letters: Sequence[int]) -> Tuple[int, List[int]]:
        """Follow ``letters`` through the table from ``coset``; returns the
        end coset and the Schreier generator letters met on the way."""
        out: List[int] = []
        forward, backward, index = self.table.forward, self.table.backward, self.index
        for x in letters:
            g = abs(x) - 1
            if x > 0:
                idx = index[(coset, g)]
                coset = forward[g][coset]
                if idx is not None:
                    out.append(idx + 1)
            else:
                coset = backward[g][coset]
                idx = index[(coset, g)]
                if idx is not None:
                    out.append(-(idx + 1))
        return coset, out

    def rewrite(self, w: Word) -> Word:
        """The rewriting function: a word in the ambient generators that
        lies in the subgroup becomes a word in the Schreier generators."""
        self.presentation.check_word(w)
        end, letters = self._walk(0, w.letters)
        if end != 0:
            raise ValueError("word does not lie in the subgroup (leaves coset 0)")
        return Word(letters)

    def subgroup_presentation(self) -> Presentation:
        """Generators: the nontrivial s_{K,a}; relators: each ambient
        relator conjugated by each representative and rewritten.

        The representative's letters are BFS tree edges, which rewrite to
        nothing, so rewriting rep(K) r rep(K)^-1 is walking r from K.
        """
        rels: List[Word] = []
        for coset in range(self.table.n):
            for r in self.presentation.relators:
                end, letters = self._walk(coset, r.letters)
                if end != coset:
                    raise ValueError(f"relator does not close at coset {coset}")
                rels.append(Word(letters))
        return Presentation(self.names, rels)


def subgroup_presentation(p: Presentation, t: CosetTable) -> Presentation:
    return SchreierRewriter(p, t).subgroup_presentation()


# ---------------------------------------------------------------------------
# Tietze simplification


def _dedupe_key(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    return min(canonical_cyclic(letters), canonical_cyclic(invert(letters)))


def _substring_shorten(rel: Tuple[int, ...], shorter: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """Replace a cyclic substring of ``rel`` that covers more than half of a
    rotation of ``shorter`` (or its inverse) with the inverse of the rest.
    Returns the strictly shorter replacement, or None."""
    n, m = len(rel), len(shorter)
    if n < 2 or m < 2 or n < m // 2 + 1:
        return None
    doubled = rel + rel
    for unit in (shorter, invert(shorter)):
        for k in range(m):
            rot = unit[k:] + unit[:k]
            for split in range(m // 2 + 1, min(m, n + 1)):
                s, rest = rot[:split], rot[split:]
                # find s as a substring of the cyclic word
                for start in range(n):
                    if doubled[start : start + split] == s:
                        tail = doubled[start + split : start + n]
                        candidate = reduce_letters(tail + invert(rest))
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
    input numbers until the result is built.

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

    def add(i: int, r: Tuple[int, ...], key: Tuple[int, ...]) -> None:
        nonlocal total
        rels[i] = r
        key_of[i] = key
        owner[key] = i
        total += len(r)
        counts: Dict[int, int] = {}
        for x in r:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g, c in counts.items():
            where[g].add(i)
            if c == 1:
                heappush(candidates, (len(r), g, i))

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
            if r is not None and len(r) == n and sum(1 for x in r if x == g or x == -g) == 1:
                return candidates[0]
            heappop(candidates)
        return None

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

    for i, w in enumerate(p.relators):
        r = cyclic_reduce(w.letters)
        if r:
            key = _dedupe_key(r)
            if key not in owner:
                add(i, r, key)
    while eliminate_once() or shorten_once():
        pass

    kept = sorted(where)
    number = {g: n for n, g in enumerate(kept, 1)}
    number.update({-g: -n for g, n in number.items()})
    return Presentation(
        [names[g - 1] for g in kept],
        [Word(number[x] for x in rels[i]) for i in sorted(rels)],
    )
