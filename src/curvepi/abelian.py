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
        width = len(ent[0]) if ent else (cols or 0)
        if any(len(row) != width for row in ent):
            raise ValueError("ragged matrix")
        if cols is not None and cols != width:
            raise ValueError(f"rows have {width} columns, not {cols}")
        self.rows = len(ent)
        self.cols = width
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

    One sparse elimination (``_pivots``) drops the pivots one row and
    column at a time, at a cost that follows the nonzeros it touches;
    relator matrices from Reidemeister-Schreier rewriting are very sparse
    and mostly +-1, so nearly every pivot is a unit.  A gcd/lcm pass over
    the pivots other than 1 gives the divisor chain.
    """
    pivots = _pivots(M.entries)
    rest = [d for d in pivots if d != 1]
    # Z/di + Z/dj is Z/gcd + Z/lcm, so (di, dj) <- (gcd, lcm) gives the
    # chain; the pivots 1 divide everything and need no pass
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] * rest[j] // g
    D = IntMatrix.zero(M.rows, M.cols)
    for i, d in enumerate([1] * (len(pivots) - len(rest)) + rest):
        D.entries[i][i] = d
    return D


def _pivots(entries: Sequence[Sequence[int]]) -> List[int]:
    """Diagonalize a sparse copy of ``entries`` by unimodular row and
    column operations; returns the absolute values of the pivots dropped,
    not yet a divisor chain.

    Rows are ``{col: value}`` dicts, with a column -> rows index.  The
    pivot is the +-1 entry of least Markowitz cost (row nonzeros - 1) *
    (column nonzeros - 1) while there is one, and otherwise the least
    (|x|, cost, row, col) of all nonzeros.  A step on pivot x at (i, j)
    subtracts (row_k[j] // x) * row i from every other row k with an
    entry in column j.  If remainders are left in column j, the step ends
    there.  Otherwise column operations reduce row i's other entries
    modulo x; they change no other row, since column j is clear.  If row
    i is then {j: x}, it and column j are dropped and |x| is recorded.
    A +-1 pivot always drops its row; any other pivot is the least nonzero,
    so a step on it drops a row or leaves a smaller nonzero.  So the loop
    ends.
    """
    rows: Dict[int, Dict[int, int]] = {}
    col_rows: Dict[int, Set[int]] = {}
    for i, line in enumerate(entries):
        row = {j: x for j, x in enumerate(line) if x}
        if row:
            rows[i] = row
            for j in row:
                col_rows.setdefault(j, set()).add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    # (cost, row, col) for every +-1 entry.  A cost changes only when its
    # row or column count does, and each step pushes every +-1 entry of the
    # rows and columns it changed, so an entry popped with an out-of-date
    # cost is skipped: its current cost is in the heap too.
    heap: List[Tuple[int, int, int]] = []

    def push(i: int, j: int) -> None:
        x = rows[i][j]
        if x == 1 or x == -1:
            heappush(heap, (cost(i, j), i, j))

    for i, row in rows.items():
        for j in row:
            push(i, j)

    pivots: List[int] = []
    while rows:
        while heap:
            c, i, j = heappop(heap)
            x = rows[i].get(j) if i in rows else None
            if (x == 1 or x == -1) and cost(i, j) == c:
                break
        else:
            _, _, i, j = min(
                (abs(x), cost(i, j), i, j) for i, row in rows.items() for j, x in row.items()
            )
        row = rows[i]
        x = row[j]
        touched = list(row)
        others = col_rows[j] - {i}
        for k in others:
            # row k -= q * row i leaves row_k[j] the remainder mod x
            rk = rows[k]
            q = rk[j] // x
            for jj, y in row.items():
                v = rk.get(jj, 0) - q * y
                if v:
                    rk[jj] = v
                    col_rows[jj].add(k)
                else:
                    del rk[jj]
                    col_rows[jj].discard(k)
            if not rk:
                del rows[k]
        if len(col_rows[j]) == 1:
            for jj in touched:
                if jj != j:
                    v = row[jj] % x
                    if v:
                        row[jj] = v
                    else:
                        del row[jj]
                        col_rows[jj].discard(i)
            if len(row) == 1:
                del rows[i]
                del col_rows[j]
                pivots.append(abs(x))
        others.add(i)
        for k in others:
            for jj in rows.get(k, ()):
                push(k, jj)
        for jj in touched:
            for k in col_rows.get(jj, set()) - others:
                push(k, jj)
    return pivots


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
