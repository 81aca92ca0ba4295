"""Two earlier HLT enumerators of ``curvepi.coset_table``, kept verbatim as
references for the differential tests.

``reference_todd_coxeter`` is the row-major enumerator used before tables
were stored by column: both must give the same table whenever both finish.
``scan_every_todd_coxeter`` is the column-major enumerator as it was before
relator symmetries let it skip scans and short relators deduced.  The
tables agree whenever both finish; the work counts and the point where a
budget runs out may differ, and it reports its own in its own ``Overflow``.
Both take their two budgets as ints: the most cosets allocated, and the
most scan steps taken."""

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from curvepi.coset_table import CosetTable
from curvepi.presentations import Presentation
from curvepi.words import Word


def _word_to_cols(w: Word) -> Tuple[int, ...]:
    return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in w.letters)


class _Overflowed(Exception):
    pass


class _Enumerator:
    def __init__(
        self, p: Presentation, subgroup: Sequence[Word], max_cosets: int, max_deductions: int
    ):
        self.ncols = 2 * p.n_gens
        self.relators = [_word_to_cols(w) for w in p.relators]
        self.subgroup_words = [_word_to_cols(p.check_word(w)) for w in subgroup]
        self.max_cosets = max_cosets
        self.max_deductions = max_deductions
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
        if len(self.table) >= self.max_cosets:
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
            if self.work > self.max_deductions:
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

    def finish(self) -> CosetTable:
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
        return CosetTable(forward, backward)


def reference_todd_coxeter(
    p: Presentation, subgroup: Sequence[Word], max_cosets: int, max_deductions: int = 10**8
) -> Optional[CosetTable]:
    """The reference enumeration; None when a budget runs out."""
    enum = _Enumerator(p, subgroup, max_cosets, max_deductions)
    try:
        enum.run()
    except _Overflowed:
        return None
    return enum.finish()


# The column-major enumerator before scans were skipped, verbatim but for
# the name of its entry point and its budgets; ``Overflow`` has the fields
# it returned.


class Overflow(NamedTuple):
    live_cosets: int
    allocated: int
    max_cosets: int
    deductions: int


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


def _renumber(cols: List[List[Optional[int]]], parent: List[int], live: int) -> CosetTable:
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
    return CosetTable(forward, backward)


def scan_every_todd_coxeter(
    p: Presentation,
    subgroup: Sequence[Word] = (),
    max_cosets: int = 10**6,
    max_deductions: int = 10**8,
) -> CosetTable | Overflow:
    """Enumerate the right cosets of the subgroup generated by the given
    words.  Deterministic; returns Overflow (never a wrong answer) when the
    budget runs out."""
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
        return Overflow(len(parent) - dead, len(parent), max_cosets, steps)
    return _renumber(cols, parent, len(parent) - dead)
