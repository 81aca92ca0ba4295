"""Todd-Coxeter coset enumeration (HLT strategy) and coset-table certificates.

Column layout: generator g (0-based) acts through column 2g, its inverse
through column 2g+1, so ``col ^ 1`` inverts.  The enumerator stores the
table by column: ``cols[x][c]`` is the image of coset c under column x, one
list per column, and defining a coset appends one entry to each.  When a
relator is exactly g^2 or g^-2, columns 2g and 2g+1 are one list, which is
its own inverse: the shared list enforces that relator, so it is not
scanned, and every loop over the columns visits that list once.  Words are
scanned through the column lists themselves, so an inverse letter of an
involution reads the shared list too.  Coincidences are processed
immediately with a union-find that always keeps the smaller index, which
pins coset 0 to the subgroup.  Finished tables are renumbered by BFS from
coset 0 (positive generator columns first) so transversals are reproducible.
"""

from __future__ import annotations

import os
from collections import deque
from typing import List, Optional, Sequence, Tuple

from .presentations import Presentation
from .words import Word


class EnumLimits:
    """Budgets for an enumeration: max allocated cosets and total work."""

    __slots__ = ("max_cosets", "max_deductions")

    def __init__(self, max_cosets: int = 10**6, max_deductions: int = 10**8):
        if max_cosets < 1 or max_deductions < 1:
            raise ValueError("limits must be positive")
        self.max_cosets = max_cosets
        self.max_deductions = max_deductions


def limits_from_env(max_cosets: int | None = None) -> EnumLimits:
    """The coset budget of the commands: ``max_cosets`` when given, else the
    environment variable read below, else EnumLimits' default."""
    if max_cosets is None:
        env = os.environ.get("CURVEPI_MAX_COSETS")
        if not env:
            return EnumLimits()
        max_cosets = int(env)
    return EnumLimits(max_cosets=max_cosets)


class Overflow:
    """Budget exhausted: possibly infinite index or limits too small.

    ``deductions`` counts the scan steps taken, the refused one included, so
    it exceeds ``limits.max_deductions`` exactly when that budget ran out;
    otherwise the coset budget did."""

    __slots__ = ("live_cosets", "allocated", "limits", "deductions")

    def __init__(self, live_cosets: int, allocated: int, limits: EnumLimits, deductions: int):
        self.live_cosets = live_cosets
        self.allocated = allocated
        self.limits = limits
        self.deductions = deductions

    @property
    def out_of_deductions(self) -> bool:
        return self.deductions > self.limits.max_deductions

    def __repr__(self) -> str:
        return (
            f"Overflow(live={self.live_cosets}, allocated={self.allocated}, "
            f"deductions={self.deductions})"
        )


class CosetTable:
    """The action of the generators on the right cosets of a subgroup.

    ``forward[g][c]`` is the image of coset c under generator g, and
    ``backward[g][c]`` under its inverse; coset 0 is the subgroup itself.
    Immutable once constructed.
    """

    __slots__ = ("n", "forward", "backward", "subgroup")

    def __init__(
        self,
        forward: Sequence[Sequence[int]],
        backward: Sequence[Sequence[int]],
        subgroup: Sequence[Word] = (),
    ):
        fwd = tuple(tuple(col) for col in forward)
        bwd = tuple(tuple(col) for col in backward)
        if len(fwd) != len(bwd):
            raise ValueError("forward/backward generator counts differ")
        # with no generators the only coset is the subgroup itself
        n = len(fwd[0]) if fwd else 1
        for col in fwd + bwd:
            if len(col) != n:
                raise ValueError("ragged action maps")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)
        object.__setattr__(self, "subgroup", tuple(subgroup))

    def __setattr__(self, name, value):
        raise AttributeError("CosetTable is immutable")

    @property
    def n_gens(self) -> int:
        return len(self.forward)

    def step(self, coset: int, letter: int) -> int:
        """Image of a coset under one signed letter."""
        g = abs(letter) - 1
        return self.forward[g][coset] if letter > 0 else self.backward[g][coset]

    def trace(self, coset: int, w: Word) -> int:
        for x in w.letters:
            coset = self.step(coset, x)
        return coset

    def to_json(self, p: Presentation) -> dict:
        return {
            "n": self.n,
            "action": {
                name: list(self.forward[g]) for g, name in enumerate(p.generators)
            },
            "subgroup": [
                [[p.generators[g], s] for g, s in w.pairs()] for w in self.subgroup
            ],
        }

    def __repr__(self) -> str:
        return f"CosetTable(n={self.n}, gens={self.n_gens})"


class ValidationReport:
    __slots__ = ("failures",)

    def __init__(self, failures: Sequence[Tuple[str, object]]):
        self.failures = tuple(failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        return f"ValidationReport(passed={self.passed}, failures={list(self.failures)})"


def _word_to_cols(w: Word) -> Tuple[int, ...]:
    return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in w.letters)


class _Overflowed(Exception):
    pass


def _coincidence(parent: List[int], pairs, a: int, b: int) -> int:
    """Merge the live cosets a and b and every coincidence that follows,
    keeping the smaller index of each pair.  ``pairs`` holds each distinct
    column with the column of its inverse; an involution's column is its own
    inverse and appears once, since visiting it twice would clear entries
    just set.  Returns the number of cosets that died."""
    if a == b:
        return 0
    if a > b:
        a, b = b, a
    parent[b] = a
    queue = deque([b])
    killed = 0
    while queue:
        gamma = queue.popleft()
        killed += 1
        for col, inv in pairs:
            delta = col[gamma]
            if delta is None:
                continue
            inv[delta] = None
            # representatives, each found path shortened to one step
            mu = parent[gamma]
            while parent[mu] != mu:
                mu = parent[mu]
            parent[gamma] = mu
            nu = parent[delta]
            while parent[nu] != nu:
                nu = parent[nu]
            parent[delta] = nu
            x = col[mu]
            if x is None:
                x = inv[nu]
                if x is None:
                    col[mu] = nu
                    inv[nu] = mu
                    continue
                y = mu
            else:
                y = nu
            # merge x with the representative y
            while parent[x] != x:
                x = parent[x]
            if x != y:
                if x > y:
                    x, y = y, x
                parent[y] = x
                queue.append(y)
    return killed


def _renumber(
    cols: List[List[Optional[int]]], parent: List[int], live: int, subgroup: Sequence[Word]
) -> CosetTable:
    """Compact to live cosets, renumbered by BFS from coset 0 over the
    positive generator columns (which span any complete finite table), so
    transversals are reproducible."""
    # a representative is never larger than its coset, so one ascending
    # pass resolves every coset to its live representative
    root = parent[:]
    for c, r in enumerate(root):
        root[c] = root[r]
    number = [-1] * len(root)
    number[0] = 0
    order = [0]
    forward_cols = cols[0::2]
    for c in order:  # grows as the BFS numbers new cosets
        for col in forward_cols:
            d = col[c]
            if d is None:
                raise RuntimeError("incomplete table after enumeration")
            d = root[d]
            if number[d] < 0:
                number[d] = len(order)
                order.append(d)
    if len(order) != live:
        raise RuntimeError("table is not transitive")
    forward = [[number[root[col[c]]] for c in order] for col in forward_cols]
    backward = [[number[root[col[c]]] for c in order] for col in cols[1::2]]
    return CosetTable(forward, backward, subgroup)


def todd_coxeter(
    p: Presentation,
    subgroup: Sequence[Word] = (),
    limits: EnumLimits | None = None,
) -> CosetTable | Overflow:
    """Enumerate the right cosets of the subgroup generated by the given
    words.  Deterministic; returns Overflow (never a wrong answer) when the
    budget runs out."""
    limits = limits or EnumLimits()
    max_cosets, max_deductions = limits.max_cosets, limits.max_deductions
    words = [_word_to_cols(w) for w in p.relators]
    squares = {w for w in words if len(w) == 2 and w[0] == w[1]}
    involutions = {w[0] >> 1 for w in squares}
    cols: List[List[Optional[int]]] = []
    for g in range(p.n_gens):
        col: List[Optional[int]] = [None]
        cols += (col, col) if g in involutions else (col, [None])
    pairs = [
        (cols[x], cols[x ^ 1]) for x in range(len(cols)) if x % 2 == 0 or x >> 1 not in involutions
    ]
    distinct = [col for col, _ in pairs]

    def scans(ws):
        # each word as its column lists, the lists of the inverse letters,
        # and the position of its last letter
        return [([cols[x] for x in w], [cols[x ^ 1] for x in w], len(w) - 1) for w in ws if w]

    parent = [0]

    def define(col: List[Optional[int]], inv: List[Optional[int]], c: int) -> None:
        beta = len(parent)
        if beta >= max_cosets:
            raise _Overflowed
        for d in distinct:
            d.append(None)
        parent.append(beta)
        col[c] = beta
        inv[beta] = c

    # the shared columns enforce the g^2 relators, so they are not scanned
    relator_scans = scans(w for w in words if w not in squares)
    # coset 0 scans the subgroup words before the relators
    todo = scans(_word_to_cols(p.check_word(w)) for w in subgroup) + relator_scans
    dead = 0
    steps = 0
    alpha = 0
    try:
        while alpha < len(parent):
            if parent[alpha] == alpha:
                for fwd, bwd, last in todo:
                    # HLT scan and fill of one word at alpha
                    f = b = alpha
                    i, j = 0, last
                    while True:
                        steps += 1
                        if steps > max_deductions:
                            raise _Overflowed
                        while i <= j:
                            x = fwd[i][f]
                            if x is None:
                                break
                            f = x
                            i += 1
                        if i > j:
                            if f != b:
                                dead += _coincidence(parent, pairs, f, b)
                            break
                        while j >= i:
                            x = bwd[j][b]
                            if x is None:
                                break
                            b = x
                            j -= 1
                        if j < i:
                            dead += _coincidence(parent, pairs, f, b)
                            break
                        if j == i:
                            fwd[i][f] = b
                            bwd[i][b] = f
                            break
                        define(fwd[i], bwd[i], f)
                    if parent[alpha] != alpha:
                        break
                else:
                    for col, inv in pairs:
                        if col[alpha] is None:
                            define(col, inv, alpha)
            todo = relator_scans
            alpha += 1
    except _Overflowed:
        return Overflow(len(parent) - dead, len(parent), limits, steps)
    return _renumber(cols, parent, len(parent) - dead, subgroup)


def table_from_action(
    p: Presentation,
    forward_maps: Sequence[Sequence[int]],
    subgroup: Sequence[Word] = (),
) -> CosetTable:
    """Build a coset table directly from a known transitive permutation
    action of the generators (one total map per generator).  The table is
    validated before being returned."""
    n = len(forward_maps[0]) if forward_maps else 0
    backward = []
    for fmap in forward_maps:
        inv = [0] * n
        for i, img in enumerate(fmap):
            inv[img] = i
        backward.append(inv)
    t = CosetTable(forward_maps, backward, subgroup)
    report = validate_table(p, list(subgroup), t)
    if not report.passed:
        raise ValueError(f"action does not satisfy the presentation: {report}")
    return t


def validate_table(p: Presentation, subgroup: Sequence[Word], t: CosetTable) -> ValidationReport:
    """Certificate check, independent of the enumeration strategy: mutually
    inverse bijections, subgroup-generator closure, relator closure at every
    coset, and transitivity from coset 0."""
    failures: List[Tuple[str, object]] = []
    n = t.n
    if t.n_gens != p.n_gens:
        failures.append(("generator count mismatch", (t.n_gens, p.n_gens)))
        return ValidationReport(failures)
    for g in range(t.n_gens):
        fwd, bwd = t.forward[g], t.backward[g]
        if sorted(fwd) != list(range(n)) or sorted(bwd) != list(range(n)):
            failures.append(("not a bijection", p.generators[g]))
            continue
        for c in range(n):
            if bwd[fwd[c]] != c:
                failures.append(("inverse mismatch", (p.generators[g], c)))
                break
    for w in subgroup:
        if t.trace(0, w) != 0:
            failures.append(("subgroup word leaves coset 0", w))
    for i, r in enumerate(p.relators):
        for c in range(n):
            if t.trace(c, r) != c:
                failures.append(("relator does not fix coset", (i, c)))
                break
    seen = {0}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for g in range(t.n_gens):
            for d in (t.forward[g][c], t.backward[g][c]):
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    if len(seen) != n:
        failures.append(("not transitive", n - len(seen)))
    return ValidationReport(failures)


def perm_group_order(perms: Sequence[Tuple[int, ...]], limit: int = 10**6) -> int | None:
    """Order of the permutation group generated by ``perms`` via closure;
    None if it exceeds ``limit``.  Fine at desk scale, which is all the
    suite needs."""
    if not perms:
        return 1
    n = len(perms[0])
    identity = tuple(range(n))
    gens = [tuple(p) for p in perms]
    seen = {identity}
    queue = deque([identity])
    while queue:
        q = queue.popleft()
        for g in gens:
            prod = tuple(g[q[i]] for i in range(n))
            if prod not in seen:
                if len(seen) >= limit:
                    return None
                seen.add(prod)
                queue.append(prod)
    return len(seen)
