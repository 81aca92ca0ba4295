"""The row-major HLT enumerator that ``curvepi.coset_table`` used before its
tables were stored by column, kept verbatim as the reference for the
differential tests: both must give the same table whenever both finish."""

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from curvepi.coset_table import CosetTable, EnumLimits
from curvepi.presentations import Presentation
from curvepi.words import Word


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


def reference_todd_coxeter(
    p: Presentation, subgroup: Sequence[Word], limits: EnumLimits
) -> Optional[CosetTable]:
    """The reference enumeration; None when a budget runs out."""
    enum = _Enumerator(p, subgroup, limits)
    try:
        enum.run()
    except _Overflowed:
        return None
    return enum.finish(subgroup)
