"""Abelianization via integer Smith normal form.

All arithmetic is exact over Python ints; entry growth during SNF makes
fixed-width arithmetic unusable even on small inputs.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .presentations import Presentation
from .words import Word


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

    def __repr__(self) -> str:
        return f"IntMatrix({self.entries!r})"


def smith_normal_form(M: IntMatrix) -> List[int]:
    """Return the diagonal of the Smith normal form of M, the
    min(rows, cols) elementary divisors d1 | d2 | ...: all di >= 0, the
    units first and the zeros last.  No unimodular transforms are built.

    The dense entry to the sparse elimination of ``invariants_of_rows``:
    each row becomes a ``{col: value}`` dict of its nonzeros.  No command
    calls it; it stays for the tests and the benchmark's tracing span
    until both move to ``invariants_of_rows`` (ROADMAP item 1).
    """
    divisors = _pivots([{j: x for j, x in enumerate(line) if x} for line in M.entries], M.cols)
    return divisors + [0] * (min(M.rows, M.cols) - len(divisors))


def _fold(rows: Iterable[Mapping[int, int]], ncols: int) -> Tuple[int, List[Dict[int, int]]]:
    """Fold the rows with at most two entries, all +-1, into a signed
    union-find over the columns; returns the number of columns folded and
    the other rows, rewritten over the surviving roots as new dicts.  The
    rows are read once, in order, and a column outside 0..ncols-1 is a
    ValueError.

    Column j is ``sign[j]`` times column ``up[j]``; a root is its own
    ``up``, and the extra root ``ncols`` is 0.  Each row is substituted
    through the union-find first, adding the entries that reach one root
    and dropping those on the zero root.  Then an empty row is dropped, a
    row {g: +-1} sets g to 0, and a row {g: c, h: d} with c, d = +-1 sets
    g = -c*d * h (or h = -c*d * g); any other row, {g: +-2} among them, is
    kept.  The first round takes every row; a fold marks the kept rows that
    hold the folded column, and the next round takes just those, until a
    round marks none, so every kept row ends over roots.  (Passes over all
    rows would take quadratic time on a chain where each pass frees one
    row.)  A merge folds the column that fewer kept rows hold, as in union
    by size, so fewer rows are marked.
    """
    zero = ncols
    up = list(range(ncols + 1))
    sign = [1] * (ncols + 1)

    def find(j: int) -> Tuple[int, int]:
        # (root, s) with column j = s * root, compressing the path
        path = []
        while up[j] != j:
            path.append(j)
            j = up[j]
        s = 1
        for k in reversed(path):
            s *= sign[k]
            sign[k] = s
            up[k] = j
        return j, s

    kept: Dict[int, Dict[int, int]] = {}
    held: Dict[int, List[int]] = {}  # root -> kept rows written with it, some stale
    todo: Iterable[Tuple[int, Mapping[int, int]]] = enumerate(rows)
    while True:
        dirty: List[int] = []  # kept rows that hold a column folded in this round
        for i, line in todo:
            row: Dict[int, int] = {}
            for j, x in line.items():
                # list indexing would wrap a negative column, and ncols is
                # the zero root
                if not 0 <= j < ncols:
                    raise ValueError(f"rows have entries outside columns 0..{ncols - 1}")
                if up[j] != j:
                    j, s = find(j)
                    if j == zero:
                        continue
                    x *= s
                v = row.get(j, 0) + x
                if v:
                    row[j] = v
                else:  # also an explicit 0 entry
                    row.pop(j, None)
            if len(row) == 1:
                ((g, x),) = row.items()
                if x == 1 or x == -1:
                    up[g] = zero
                    dirty += held.pop(g, ())
                    continue
            elif len(row) == 2:
                (g, x), (h, y) = row.items()
                if (x == 1 or x == -1) and (y == 1 or y == -1):
                    if len(held.get(g, ())) > len(held.get(h, ())):
                        g, h = h, g
                    up[g] = h
                    sign[g] = -x * y
                    dirty += held.pop(g, ())
                    continue
            elif not row:
                continue
            kept[i] = row
            for j in row:
                held.setdefault(j, []).append(i)
        if not dirty:
            # each fold made one root a non-root
            return sum(up[j] != j for j in range(ncols)), list(kept.values())
        # a row listed twice is taken once: the first take pops it
        todo = [(k, kept.pop(k)) for k in dirty if k in kept]


def _pivots(entries: Iterable[Mapping[int, int]], ncols: int) -> List[int]:
    """Diagonalize a copy of the sparse rows ``entries`` by unimodular row
    and column operations; returns the nonzero elementary divisors
    d1 | d2 | ..., the units first.

    First ``_fold`` removes every column that a row with one or two +-1
    entries can solve for, after substitution.  Each fold step is a
    unimodular change of variables that leaves a row {g: +-1} beside the
    rest of the matrix, so it gives one pivot 1 and removes one row and
    one column.  The Smith normal form is unique, so the order of the
    steps does not matter.  Raw Reidemeister-Schreier rows are mostly
    such rows: at E6 index 2160 the fold leaves 2760 of 45,360 rows over
    3 of 10,801 columns.

    The rows that are left are ``{col: value}`` dicts.  Each step scans
    them all and pivots on the least (|x|, cost, row, col) of all
    nonzeros x, where cost is the Markowitz cost (row nonzeros - 1) *
    (column nonzeros - 1).  A step on pivot x at (i, j) subtracts
    (row_k[j] // x) * row i from every other row k with an entry in
    column j.  If remainders are left in column j, the step ends there.
    Otherwise column operations reduce row i's other entries modulo x;
    they change no other row, since column j is clear.  If row i is then
    {j: x}, it and column j are dropped and |x| is recorded.  A +-1 pivot
    always drops its row; any other pivot is the least nonzero, so a step
    on it drops a row or leaves a smaller nonzero.  So the loop ends.  A
    gcd/lcm pass over the pivots other than 1 gives the divisor chain.
    """
    folds, kept = _fold(entries, ncols)
    rows: Dict[int, Dict[int, int]] = dict(enumerate(kept))
    pivots: List[int] = []
    while rows:
        col_count = Counter(chain.from_iterable(rows.values()))
        _, _, i, j = min(
            (abs(x), (len(row) - 1) * (col_count[j] - 1), i, j)
            for i, row in rows.items()
            for j, x in row.items()
        )
        row = rows[i]
        x = row[j]
        clear = True
        for k in [k for k, rk in rows.items() if j in rk and k != i]:
            # row k -= q * row i leaves row_k[j] the remainder mod x
            rk = rows[k]
            q = rk[j] // x
            for jj, y in row.items():
                v = rk.get(jj, 0) - q * y
                if v:
                    rk[jj] = v
                else:
                    del rk[jj]
            if not rk:
                del rows[k]
            elif j in rk:
                clear = False
        if clear:
            for jj in list(row):
                if jj != j:
                    v = row[jj] % x
                    if v:
                        row[jj] = v
                    else:
                        del row[jj]
            if len(row) == 1:
                del rows[i]
                pivots.append(abs(x))
    rest = [d for d in pivots if d != 1]
    # Z/di + Z/dj is Z/gcd + Z/lcm, so (di, dj) <- (gcd, lcm) gives the
    # chain; the pivots 1 divide everything and need no pass
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] * rest[j] // g
    return [1] * (folds + len(pivots) - len(rest)) + rest


class InvariantFactors:
    """Abelianization data: free rank plus torsion divisor chain d1 | d2 | ..."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        rank = int(free_rank)
        if rank < 0:
            raise ValueError("free rank must be >= 0")
        tor = tuple(int(d) for d in torsion)
        if any(d < 2 for d in tor):
            raise ValueError("torsion entries must be >= 2")
        for x, y in zip(tor, tor[1:]):
            if y % x:
                raise ValueError("torsion chain must satisfy d1 | d2 | ...")
        object.__setattr__(self, "free_rank", rank)
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


def exponent_row(w: Word) -> Dict[int, int]:
    """Exponent sum of each generator in ``w``, as ``{generator index:
    sum}`` with the zero sums left out: one row of the relator matrix."""
    row: Dict[int, int] = {}
    for x in w.letters:
        j = abs(x) - 1
        row[j] = row.get(j, 0) + (1 if x > 0 else -1)
    return {j: s for j, s in row.items() if s}


def invariants_of_rows(rows: Iterable[Mapping[int, int]], ncols: int) -> InvariantFactors:
    """Invariant factors of Z^ncols modulo the lattice spanned by ``rows``,
    any iterable of ``{col: value}`` mappings with 0 <= col < ncols.  The
    rows are read once, not changed."""
    divisors = _pivots(rows, ncols)
    return InvariantFactors(ncols - len(divisors), [d for d in divisors if d > 1])


def abelian_invariants(p: Presentation) -> InvariantFactors:
    """Invariant factors of the abelianization of a presented group."""
    return invariants_of_rows((exponent_row(w) for w in p.relators), p.n_gens)


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


def abelian_presentation(inv: InvariantFactors) -> Presentation:
    """A standard presentation of Z^r (+) Z/d1 (+) ... : one generator per
    factor, all commutators, and one power relator per torsion factor."""
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
