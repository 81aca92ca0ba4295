"""Todd-Coxeter coset enumeration (HLT strategy) and coset-table certificates.

Column layout: generator g (0-based) acts through column 2g, its inverse
through column 2g+1, so ``col ^ 1`` inverts.  Coincidences are processed
immediately with a union-find that always keeps the smaller index, which
pins coset 0 to the subgroup.  Finished tables are renumbered by BFS from
coset 0 (positive generator columns first) so transversals are reproducible.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Budget exhausted: possibly infinite index or limits too small."""

    __slots__ = ("live_cosets", "allocated", "limits")

    def __init__(self, live_cosets: int, allocated: int, limits: EnumLimits):
        self.live_cosets = live_cosets
        self.allocated = allocated
        self.limits = limits

    def __repr__(self) -> str:
        return f"Overflow(live={self.live_cosets}, allocated={self.allocated})"


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


class _Enumerator:
    def __init__(self, p: Presentation, subgroup: Sequence[Word], limits: EnumLimits):
        self.ncols = 2 * p.n_gens
        self.relators = [_word_to_cols(w) for w in p.relators]
        self.subgroup_words = [_word_to_cols(p.check_word(w)) for w in subgroup]
        self.limits = limits
        self.table: List[List[Optional[int]]] = [[None] * self.ncols]
        self.p: List[int] = [0]
        self.n_live = 1
        self.work = 0

    # union-find keeping the smaller representative

    def rep(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def alive(self, c: int) -> bool:
        return self.p[c] == c

    def define(self, alpha: int, col: int) -> int:
        if len(self.table) >= self.limits.max_cosets:
            raise _Overflowed
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.n_live += 1
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        return beta

    def merge(self, a: int, b: int, queue: deque) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.n_live -= 1
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        queue: deque = deque()
        self.merge(a, b, queue)
        table = self.table
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                table[delta][col ^ 1] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][col] is not None:
                    self.merge(nu, table[mu][col], queue)
                elif table[nu][col ^ 1] is not None:
                    self.merge(mu, table[nu][col ^ 1], queue)
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha: int, word: Tuple[int, ...]) -> None:
        if not word:
            return
        table = self.table
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            self.work += 1
            if self.work > self.limits.max_deductions:
                raise _Overflowed
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])

    def run(self) -> None:
        for w in self.subgroup_words:
            self.scan_and_fill(0, w)
        alpha = 0
        while alpha < len(self.table):
            if self.alive(alpha):
                for rel in self.relators:
                    self.scan_and_fill(alpha, rel)
                    if not self.alive(alpha):
                        break
                if self.alive(alpha):
                    row = self.table[alpha]
                    for col in range(self.ncols):
                        if row[col] is None:
                            self.define(alpha, col)
            alpha += 1

    def finish(self, subgroup: Sequence[Word]) -> CosetTable:
        """Compact to live cosets, renumbered by BFS from coset 0 over the
        positive generator columns (which span any complete finite table),
        so transversals are reproducible."""
        n_gens = self.ncols // 2
        bfs_cols = [2 * g for g in range(n_gens)]
        start = self.rep(0)
        number: Dict[int, int] = {start: 0}
        order = [start]
        queue = deque([start])
        while queue:
            c = queue.popleft()
            row = self.table[c]
            for col in bfs_cols:
                d = row[col]
                if d is None:
                    raise RuntimeError("incomplete table after enumeration")
                d = self.rep(d)
                if d not in number:
                    number[d] = len(order)
                    order.append(d)
                    queue.append(d)
        if len(order) != self.n_live:
            raise RuntimeError("table is not transitive")
        forward = [[0] * len(order) for _ in range(n_gens)]
        backward = [[0] * len(order) for _ in range(n_gens)]
        for new, old in enumerate(order):
            row = self.table[old]
            for g in range(n_gens):
                forward[g][new] = number[self.rep(row[2 * g])]
                backward[g][new] = number[self.rep(row[2 * g + 1])]
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
    enum = _Enumerator(p, subgroup, limits)
    try:
        enum.run()
    except _Overflowed:
        return Overflow(enum.n_live, len(enum.table), limits)
    return enum.finish(subgroup)


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
