"""Earlier forms of curvepi.schreier code, kept as oracles.

- The Reidemeister-Schreier rewriter's tuple-keyed form, verbatim (but for
  its imports and its class name), as the oracle for the label-list walk
  of ``subgroup_presentation``.  It builds its BFS tree with its own
  ``tree_edges``, the library's former helper, keys every (coset,
  generator) pair in a dict and re-reduces every rewritten word, so it
  does not rely on rewritten words coming out reduced.  Its ``rewrite``,
  which the library no longer has, is the reference rewriting function of
  the tests, and ``tree_edges`` gives their Schreier transversal.
- The shortening kernel ``_substring_shorten`` that slices at every start,
  verbatim, as the oracle for the kernel that hops to the starts with
  ``tuple.index``, and as the kernel of the rescanning Tietze loop in
  test_schreier.py.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from curvepi.coset_table import CosetTable
from curvepi.presentations import Presentation
from curvepi.words import Word, invert, reduce_letters


def tree_edges(t: CosetTable) -> Dict[int, Tuple[int, int]]:
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


class OracleRewriter:
    """Rewriting machinery for the subgroup at coset 0 of a coset table.

    The Schreier generator s_{K,a} = rep(K) a rep(Ka)^-1 is dropped up front
    when it is freely trivial, so rewritten words use only the essential
    generators.  Representatives are positive words, so rep(K) a rep(Ka)^-1
    reduces to nothing exactly when rep(Ka) = rep(K) a, that is when (K, a)
    is the BFS tree edge that reached Ka.
    """

    def __init__(self, p: Presentation, t: CosetTable):
        self.presentation = p
        self.table = t
        tree = set(tree_edges(t).values())
        self.names: List[str] = []
        # (coset, gen) -> subgroup generator index, or None when trivial
        self.index: Dict[Tuple[int, int], Optional[int]] = {}
        for coset in range(t.n):
            for g in range(t.n_gens):
                if (coset, g) in tree:
                    self.index[(coset, g)] = None
                else:
                    self.index[(coset, g)] = len(self.names)
                    self.names.append(f"s{coset}_{p.generators[g]}")

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
