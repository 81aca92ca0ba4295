"""Abelianization via integer Smith normal form.

All arithmetic is exact over Python ints; entry growth during SNF makes
fixed-width arithmetic unusable even on small inputs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .presentations import Presentation


class IntMatrix:
    """Dense rectangular integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        ent = [list(map(int, row)) for row in entries]
        if ent:
            width = len(ent[0])
            if any(len(row) != width for row in ent):
                raise ValueError("ragged matrix")
        else:
            width = 0 if cols is None else cols
        self.rows = len(ent)
        self.cols = width if ent else (cols or 0)
        self.entries = ent

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def determinant(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [row[:] for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def minors_gcd(self, k: int) -> int:
        """gcd of all k x k minors (0 if none are nonzero); brute force."""
        from itertools import combinations

        if k == 0:
            return 1
        g = 0
        for rows in combinations(range(self.rows), k):
            for cols in combinations(range(self.cols), k):
                sub = IntMatrix([[self.entries[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.determinant())
        return g

    def __repr__(self) -> str:
        return f"IntMatrix({self.entries!r})"


def smith_normal_form(M: IntMatrix) -> IntMatrix:
    """Return the Smith normal form D of M: diagonal, d1 | d2 | ..., all
    di >= 0, zeros last.  Only D is computed, no unimodular transforms.

    Two stages.  A sparse pass takes +-1 pivots first, each an invariant
    factor 1, at a cost that follows the nonzeros it touches; relator
    matrices from Reidemeister-Schreier rewriting are very sparse and
    mostly +-1, so little is left after it.  The rest goes through a dense
    elimination, and a gcd/lcm pass over its pivots gives the divisor
    chain.  D is unique, so the split changes no result.
    """
    units, block = _unit_pivots(M.entries)
    pivots = _dense_pivots(block)
    # Z/di + Z/dj is Z/gcd + Z/lcm, so (di, dj) <- (gcd, lcm) gives the
    # chain; the unit pivots divide everything and need no pass
    for i in range(len(pivots)):
        for j in range(i + 1, len(pivots)):
            g = gcd(pivots[i], pivots[j])
            pivots[i], pivots[j] = g, pivots[i] * pivots[j] // g
    diag = [1] * units + pivots
    D = IntMatrix.zero(M.rows, M.cols)
    for i, d in enumerate(diag):
        D.entries[i][i] = d
    return D


def _unit_pivots(entries: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """Eliminate +-1 pivots in a sparse copy of ``entries``.

    Rows are ``{col: value}`` dicts, with a column -> rows index.  Each
    step takes the +-1 entry of least Markowitz cost (row nonzeros - 1) *
    (column nonzeros - 1), clears its column from the other rows by row
    operations, and drops its row and column: the column operations that
    would clear the pivot row change no other row.  Returns the number of
    pivots taken and what is left as a dense block, without zero rows or
    columns.
    """
    rows: Dict[int, Dict[int, int]] = {}
    col_rows: Dict[int, Set[int]] = {}
    for i, line in enumerate(entries):
        row = {j: x for j, x in enumerate(line) if x}
        if row:
            rows[i] = row
            for j in row:
                col_rows.setdefault(j, set()).add(i)

    # (cost, row, col) for every +-1 entry.  A cost changes only when its
    # row or column count does, and each step pushes every +-1 entry of the
    # rows and columns it changed, so an entry popped with an out-of-date
    # cost is skipped: its current cost is in the heap too.
    heap: List[Tuple[int, int, int]] = []

    def push(i: int, j: int) -> None:
        x = rows[i][j]
        if x == 1 or x == -1:
            heappush(heap, ((len(rows[i]) - 1) * (len(col_rows[j]) - 1), i, j))

    for i, row in rows.items():
        for j in row:
            push(i, j)

    units = 0
    while heap:
        cost, i, j = heappop(heap)
        row = rows.get(i)
        x = row.get(j) if row is not None else None
        if (x != 1 and x != -1) or (len(row) - 1) * (len(col_rows[j]) - 1) != cost:
            continue
        del rows[i]
        others = col_rows.pop(j)
        others.discard(i)
        del row[j]
        for jj in row:
            col_rows[jj].discard(i)
        for k in others:
            # row k -= c * row i, with c = row_k[j] / x; x = +-1 is its own
            # inverse, and column j of row k becomes exactly zero
            rk = rows[k]
            c = rk.pop(j) * x
            for jj, y in row.items():
                v = rk.get(jj, 0) - c * y
                if v:
                    rk[jj] = v
                    col_rows[jj].add(k)
                else:
                    del rk[jj]
                    col_rows[jj].discard(k)
            if not rk:
                del rows[k]
        for k in others:
            for jj in rows.get(k, ()):
                push(k, jj)
        for jj in row:
            for k in col_rows[jj] - others:
                push(k, jj)
        units += 1

    cols = sorted(j for j, members in col_rows.items() if members)
    return units, [[row.get(j, 0) for j in cols] for _, row in sorted(rows.items())]


def _dense_pivots(a: List[List[int]]) -> List[int]:
    """Dense elimination of ``a`` in place; returns the absolute values of
    its nonzero pivots, not yet a divisor chain.

    Pivoting: smallest nonzero absolute value, deterministic tie-break by
    position.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        asrc, adst = a[src], a[dst]
        for j in range(cols):
            adst[j] += c * asrc[j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]

    k = 0
    n = min(rows, cols)
    while k < n:
        # locate the smallest nonzero |entry| in the trailing block
        pivot = None
        for i in range(k, rows):
            ai = a[i]
            for j in range(k, cols):
                x = ai[j]
                if x and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear row and column k, restarting when remainders appear
        while True:
            p = a[k][k]
            dirty = False
            for i in range(k + 1, rows):
                x = a[i][k]
                if x:
                    q = x // p
                    add_row(k, i, -q)
                    if a[i][k]:
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, cols):
                x = a[k][j]
                if x:
                    q = x // p
                    add_col(k, j, -q)
                    if a[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if not dirty:
                break
        k += 1

    return [abs(a[i][i]) for i in range(k)]


class InvariantFactors:
    """Abelianization data: free rank plus torsion divisor chain d1 | d2 | ..."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        tor = tuple(int(d) for d in torsion)
        if any(d < 2 for d in tor):
            raise ValueError("torsion entries must be >= 2")
        for x, y in zip(tor, tor[1:]):
            if y % x:
                raise ValueError("torsion chain must satisfy d1 | d2 | ...")
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "torsion", tor)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantFactors is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvariantFactors)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def display(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __repr__(self) -> str:
        return f"InvariantFactors({self.display()!r})"


def relator_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum matrix: entry (i, j) = exponent sum of generator j in
    relator i.  A free group yields a 0 x n matrix."""
    return IntMatrix(
        [w.exponent_sums(p.n_gens) for w in p.relators], cols=p.n_gens
    )


def invariants_of_matrix(M: IntMatrix) -> InvariantFactors:
    D = smith_normal_form(M)
    diag = [D[i, i] for i in range(min(D.rows, D.cols))]
    rank = sum(1 for d in diag if d)
    torsion = [d for d in diag if d > 1]
    return InvariantFactors(M.cols - rank, torsion)


def abelian_invariants(p: Presentation) -> InvariantFactors:
    """Invariant factors of the abelianization of a presented group."""
    return invariants_of_matrix(relator_matrix(p))


def curve_abelianization(degrees: Sequence[int]) -> InvariantFactors:
    """Abelianized fundamental group of a plane-curve complement from its
    component degrees: free rank r-1 plus one torsion factor gcd(degrees)
    when that gcd exceeds 1."""
    degs = list(degrees)
    if not degs:
        raise ValueError("need at least one component degree")
    if any(d < 1 for d in degs):
        raise ValueError("degrees must be positive")
    tau = 0
    for d in degs:
        tau = gcd(tau, d)
    return InvariantFactors(len(degs) - 1, [tau] if tau > 1 else [])


def abelian_presentation(inv: InvariantFactors, torsion_first: bool = False) -> Presentation:
    """A standard presentation of Z^r (+) Z/d1 (+) ... : one generator per
    factor, all commutators, and one power relator per torsion factor."""
    from .words import Word

    names = [f"t{i+1}" for i in range(len(inv.torsion))] + [
        f"x{i+1}" for i in range(inv.free_rank)
    ]
    p = Presentation(names)
    rels = []
    for i, d in enumerate(inv.torsion):
        rels.append(Word.gen(i) ** d)
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            gi, gj = Word.gen(i), Word.gen(j)
            rels.append(gi * gj * ~gi * ~gj)
    return Presentation(names, rels)
