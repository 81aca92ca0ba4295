"""Todd-Coxeter coset enumeration (HLT strategy with short-relator
deductions) and coset-table certificates.

Column layout: generator g (0-based) acts through column 2g, its inverse
through column 2g+1, so ``col ^ 1`` inverts.  The enumerator stores the
table by column: ``cols[x][c]`` is the image of coset c under column x, one
list per column, grown ``_BLOCK`` entries at a time; only ``parent`` grows
by one per coset allocated.  When a relator is exactly g^2 or g^-2,
columns 2g and 2g+1 are one list, its own inverse, which enforces that
relator: it is not scanned, loops over the columns visit the list once,
and a word read through the lists reads it for either letter.
Coincidences are processed immediately with a union-find that always keeps
the smaller index, which pins coset 0 to the subgroup.  Finished tables are
renumbered by BFS from coset 0 (positive generator columns first) so
transversals are reproducible.

Strategy.  One routine, ``scan_at``, scans a list of words at a coset
until the coset dies, one scan step per pass: a closed word with a
mismatch is a coincidence, a single gap is filled, and a longer gap ends
the word's scan, unless the scan is HLT's, which defines a coset there and
scans on.  HLT visits the live cosets in order; at each it scans every
relator that way (coset 0 scans the subgroup words first), then defines the
row's empty entries.  Every entry that a fill or a definition sets goes on
a deduction stack, drained after each HLT word and after each row: an
entry of column x at coset c runs ``scan_at`` at c, defining no cosets, on
each distinct cyclic conjugate starting with x of every relator of length
at most 3 (other than g^2) and of its inverse; a filled gap pushes its
entry in turn.  Such relators, such as x^3 and abc, close cycles that HLT
would cover with cosets that later die (see ``_DEDUCE_MAX_LENGTH``).

Most relator scans only confirm a cycle that is already closed, and a
relator's symmetry can prove that without reading the word.  Read w, of
length L, through the column lists.  If rotating w by one letter gives w
or w^-1, coset alpha skips w when alpha*w[0] is a live coset below alpha;
if rotating it by L-1 letters does, alpha skips w when alpha*w[-1]^-1 is.
The offsets are tested separately, since one does not imply the other:
``g1 g0^2``, with g0 and g1 involutions, has the first only.  Each relator
carries a bitmask of the columns its shortcuts read; at each live coset one
pass over those columns sets the bits whose image is below it, and that
set keys a dict of the relators left to scan, built on first use.

Soundness.  A deduction sets only an entry that a relator implies, and no
step ever clears an entry of a live coset except to merge it, so closed
cycles stay closed and coincidences map closed cycles onto closed cycles.
Once ``_coincidence`` returns, no live row points at a dead coset: every
pointer into a killed coset is cleared when its queue entry is processed,
and entries are only ever set between representatives.  So an image that
a skip mask reads is live, and ``_renumber`` needs no representatives.
Every live coset beta below alpha has been processed, so every relator was
closed at beta.  If beta = alpha*w[0] and rot1(w), being w or w^-1, is
closed at beta, its path from beta ends with the letter w[0] back at beta;
column maps are injective, so the coset before that letter is alpha, and
alpha*w = alpha.  Offset L-1 is the same argument from the other end.  A
skipped scan would thus neither define a coset nor merge two.  Subgroup
words, scanned at coset 0 only, never skip.  The finished table is the
action on the cosets, renumbered by BFS, so it does not depend on the
order of definitions, deductions and skips, unlike the work counts and the
point where a budget runs out.

Memory.  A new coset's number is one int object, shared by ``parent`` and
the entries that point at the coset, and the BFS renumbering reuses
``parent[k]`` as new number k wherever old coset k is live, so it makes new
ints only for the numbers of dead old cosets.  The coset budget bounds the
cosets in the table.  When a definition would pass it and enough of the
table is dead (``_COMPACT_SHARE``), ``_compact`` drops the dead cosets in
place.  It keeps every list object, since the scans and the deduction lists
hold them, and numbers the live cosets 0, 1, ... in their order, reusing
ints the same way.  Relative order is all that HLT's order and the skip
masks rely on, so the coset in progress starts over under its new number,
coset 0 with its subgroup words.  Compaction reads only live rows and maps
their entries, which is sound by the invariant above: no live row points at
a dead coset once ``_coincidence`` returns, and compaction runs between
definitions, never inside a coincidence.  The finished table is the same;
only the work counts differ.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, islice
from operator import eq, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


class EnumStats(NamedTuple):
    """Work counts of one enumeration: cosets allocated, cosets that died in
    coincidences, scan steps taken, relator scans skipped because a relator
    symmetry proved them closed, the most cosets live at once, and the
    compactions that dropped dead cosets at the coset budget.  ``allocated``
    and ``dead`` count every coset defined and every one that died,
    compacted or not, so ``allocated - dead`` is the live count.
    ``scan_steps`` counts each pass of an HLT scan and each deduction scan.
    ``skipped`` counts, at each live coset the enumerator reaches, the
    relators its skip mask rules out, all at once when the coset's scans
    start; after a compaction the coset in progress starts over, and its
    steps and skips count again.  ``peak_live`` is taken before each
    coincidence, the only step that lowers the live count, and at the
    end."""

    allocated: int
    dead: int
    scan_steps: int
    skipped: int
    peak_live: int
    compactions: int


class Overflow:
    """Budget exhausted: possibly infinite index or limits too small.

    ``deductions`` counts the scan steps taken, deduction scans among them
    and the refused one included, so it exceeds ``limits.max_deductions``
    exactly when that budget ran out; otherwise the coset budget did.  A
    scan that a relator symmetry skips takes no step.  The coset budget
    bounds the cosets in the table, live and dead: when it is full, the
    enumerator compacts the dead ones away if that frees at least
    1/``_COMPACT_SHARE`` of it, so it runs out when the live cosets fill all
    but less than that share."""

    __slots__ = ("stats", "limits")

    def __init__(self, stats: EnumStats, limits: EnumLimits):
        self.stats = stats
        self.limits = limits

    @property
    def allocated(self) -> int:
        return self.stats.allocated

    @property
    def live_cosets(self) -> int:
        return self.stats.allocated - self.stats.dead

    @property
    def deductions(self) -> int:
        return self.stats.scan_steps

    @property
    def out_of_deductions(self) -> bool:
        return self.deductions > self.limits.max_deductions

    def __str__(self) -> str:
        """Which budget ran out, and how much of it was used."""
        if self.out_of_deductions:
            return (
                f"deduction budget exhausted ({self.limits.max_deductions} scan steps, "
                f"{self.allocated} cosets allocated)"
            )
        if self.stats.compactions:
            return (
                f"{self.live_cosets} cosets live, {self.allocated} allocated "
                f"(budget {self.limits.max_cosets}, compactions: {self.stats.compactions})"
            )
        return f"{self.allocated} cosets allocated (budget {self.limits.max_cosets})"

    def __repr__(self) -> str:
        return (
            f"Overflow(live={self.live_cosets}, allocated={self.allocated}, "
            f"deductions={self.deductions})"
        )


class CosetTable:
    """The action of the generators on the right cosets of a subgroup.

    ``forward[g][c]`` is the image of coset c under generator g, and
    ``backward[g][c]`` under its inverse; coset 0 is the subgroup itself.
    When both maps of g are given as one list (an involution), they are
    stored as one tuple.  ``stats`` holds the work counts of the
    enumeration that built the table, or None.  Immutable once constructed.
    """

    __slots__ = ("n", "forward", "backward", "subgroup", "stats")

    def __init__(
        self,
        forward: Sequence[Sequence[int]],
        backward: Sequence[Sequence[int]],
        subgroup: Sequence[Word] = (),
        stats: EnumStats | None = None,
    ):
        if len(forward) != len(backward):
            raise ValueError("forward/backward generator counts differ")
        fwd = tuple(tuple(col) for col in forward)
        bwd = tuple(f if b is a else tuple(b) for a, b, f in zip(forward, backward, fwd))
        # with no generators the only coset is the subgroup itself
        n = len(fwd[0]) if fwd else 1
        for col in fwd + bwd:
            if len(col) != n:
                raise ValueError("ragged action maps")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)
        object.__setattr__(self, "subgroup", tuple(subgroup))
        object.__setattr__(self, "stats", stats)

    def __setattr__(self, name, value):
        raise AttributeError("CosetTable is immutable")

    @property
    def n_gens(self) -> int:
        return len(self.forward)

    def trace(self, coset: int, w: Word) -> int:
        """Image of a coset under a word, one signed letter at a time."""
        for x in w.letters:
            coset = self.forward[x - 1][coset] if x > 0 else self.backward[-x - 1][coset]
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


def _read(w: Tuple[int, ...], involutions: set) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """w and its inverse as the column lists read them: an involution's two
    columns are one list, named by its forward column."""
    word = tuple(x & ~1 if x >> 1 in involutions else x for x in w)
    inverse = tuple(x if x >> 1 in involutions else x ^ 1 for x in reversed(word))
    return word, inverse


def _shortcuts(w: Tuple[int, ...], involutions: set) -> Tuple[Optional[int], Optional[int]]:
    """The columns whose image of a coset alpha, when it is a live coset
    below alpha, proves the relator w closed at alpha (module docstring):
    w[0] if rotating w by one letter gives w or its inverse, w[-1]^-1 if
    rotating it by len(w) - 1 letters does, and None where the rotation does
    not."""
    word, inverse = _read(w, involutions)
    first = word[0] if word[1:] + word[:1] in (word, inverse) else None
    last = inverse[0] if word[-1:] + word[:-1] in (word, inverse) else None
    return first, last


# Deduce only with relators of this length or shorter.  A deduction scan
# pays off when it closes a short cycle that HLT would otherwise fill with
# new cosets: (2,3,7;8), whose b^3 is its only such relator, allocates
# 38,168 cosets instead of 128,562 and enumerates about twice as fast.  With
# length 4, the (ac)^2 relators of the E6 Coxeter group deduce too: E6 then
# allocates no coset that dies, but takes 1,265,499 scan steps instead of
# 236,025 and enumerates about 3x slower.
_DEDUCE_MAX_LENGTH = 3
_BLOCK = 1024  # the enumerator's columns grow this many entries at a time
# When the coset budget is full, compact the dead cosets away only if that
# frees at least 1/_COMPACT_SHARE of it.  A compaction costs one pass over
# the budget's rows and is followed by at least budget/_COMPACT_SHARE
# definitions, so all compactions together cost at most _COMPACT_SHARE
# row passes per coset defined: linear in the enumeration.  A share this
# small lets a budget close to the index suffice: at a budget of 52,000 E6
# (index 51,840) compacts three times, and the last compaction frees 217
# cosets, 1/240 of the budget.
_COMPACT_SHARE = 256


def _conjugates(words: Sequence[Tuple[int, ...]], involutions: set) -> dict:
    """The distinct cyclic conjugates of each word and of its inverse, as
    the column lists read them, grouped by their first column."""
    by_first: dict = {}
    for w in words:
        for u in _read(w, involutions):
            for k in range(len(u)):
                conjugate = u[k:] + u[:k]
                group = by_first.setdefault(conjugate[0], [])
                if conjugate not in group:
                    group.append(conjugate)
    return by_first


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


def _renumber(cols: list, parent: List[int], subgroup: Sequence[Word], stats: EnumStats) -> CosetTable:
    """Compact to live cosets, renumbered by BFS from coset 0 over the
    positive generator columns (which span any complete finite table).  New
    number k is ``parent[k]`` where old coset k is live, the int the columns
    already hold, so only the numbers of dead old cosets are new ints.
    Consumes ``cols`` and ``parent``: each column is cleared once it is
    mapped, which frees it in the enumerator too; ``CosetTable`` keeps the
    tuples uncopied."""
    number = [-1] * len(parent)
    number[0] = 0
    order = [0]
    forward_cols = cols[0::2]
    try:
        for c in order:  # grows as the BFS numbers new cosets
            for col in forward_cols:
                d = col[c]
                if number[d] < 0:
                    k = len(order)
                    number[d] = parent[k] if parent[k] == k else k
                    order.append(d)
    except TypeError:  # number[None]: an empty entry
        raise RuntimeError("incomplete table after enumeration") from None
    if len(order) != stats.allocated - stats.dead:
        raise RuntimeError("table is not transitive")
    parent.clear()  # number holds the ints it reuses
    pick = itemgetter(*order)
    single = len(order) == 1
    order.clear()  # pick holds the order; the room goes to the mapped columns

    def renumbered(col: list) -> Tuple[int, ...]:
        # itemgetter of a single index returns the bare entry, not a tuple
        return (number[col[0]],) if single else itemgetter(*pick(col))(number)

    forward, backward = [], []
    for col, inv in zip(forward_cols, cols[1::2]):
        forward.append(renumbered(col))
        col.clear()
        # an involution's backward column is its forward tuple, mapped once
        backward.append(forward[-1] if inv is col else renumbered(inv))
        inv.clear()
    return CosetTable(forward, backward, subgroup, stats)


def _compact(parent: List[int], lists: Sequence[list], stack: list, alpha: int) -> int:
    """Drop the dead cosets from the enumerator's state in place, keeping
    every list object: the live cosets are renumbered 0, 1, ... in their
    order, and ``parent`` and each distinct column list in ``lists`` shrink
    to the live rows.  As in ``_renumber``, new number k is ``parent[k]``
    where old coset k is live.  The deduction stack keeps the entries of
    live cosets, renumbered.  Returns the new number of the first live coset
    at or after ``alpha``.  Only live rows are read, and they point at live
    cosets only (module docstring)."""
    n = len(parent)
    live = list(map(eq, parent, range(n)))
    number = [None] * n
    for k, c in enumerate(compress(range(n), live)):
        number[c] = parent[k] if parent[k] == k else k
    for col in lists:
        col[:] = [None if d is None else number[d] for d in compress(col, live)]
    stack[:] = [(number[c], x) for c, x in stack if live[c]]
    parent[:] = compress(number, live)
    return sum(islice(live, alpha))


def todd_coxeter(
    p: Presentation,
    subgroup: Sequence[Word] = (),
    limits: EnumLimits | None = None,
) -> CosetTable | Overflow:
    """Enumerate the right cosets of the subgroup generated by the given
    words.  Deterministic; returns Overflow (never a wrong answer) when the
    budget runs out.  Either result carries the enumeration's EnumStats."""
    limits = limits or EnumLimits()
    max_cosets, max_deductions = limits.max_cosets, limits.max_deductions
    words = [_word_to_cols(w) for w in p.relators]
    squares = {w for w in words if len(w) == 2 and w[0] == w[1]}
    involutions = {w[0] >> 1 for w in squares}
    block = [None] * _BLOCK
    cols: List[List[Optional[int]]] = []
    for g in range(p.n_gens):
        col: List[Optional[int]] = block[:]
        cols += (col, col) if g in involutions else (col, block[:])
    # one column of each distinct list, the ones a row fill visits
    row_cols = [(x, cols[x]) for x in range(len(cols)) if x % 2 == 0 or x >> 1 not in involutions]
    pairs = [(col, cols[x ^ 1]) for x, col in row_cols]

    def scan(w):
        # a word as its column lists, the lists of the inverse letters, the
        # position of its last letter, and its columns
        return [cols[x] for x in w], [cols[x ^ 1] for x in w], len(w) - 1, w

    # the shared columns enforce the g^2 relators, so they are neither
    # scanned nor deduced with
    relators = [w for w in words if w and w not in squares]
    conjugates = _conjugates([w for w in relators if len(w) <= _DEDUCE_MAX_LENGTH], involutions)
    # deduce[x]: the scans that a new entry in column x starts, at its coset
    deduce = [
        [scan(u) for u in conjugates.get(x & ~1 if x >> 1 in involutions else x, ())]
        for x in range(len(cols))
    ]
    stack: List[Tuple[int, int]] = []  # (coset, column) of entries to deduce from

    parent = [0]

    def define(x: int, c: int) -> None:
        # c*x = beta for a new coset beta, deduced from as a filled gap is
        beta = len(parent)
        if beta >= max_cosets:
            raise _Overflowed
        if beta == len(cols[0]):
            for _, col in row_cols:
                col.extend(block)
        parent.append(beta)
        cols[x][c] = beta
        cols[x ^ 1][beta] = c
        if deduce[x]:
            stack.append((c, x))
        if deduce[x ^ 1]:
            stack.append((beta, x ^ 1))

    def scan_at(c: int, scans, drain) -> None:
        # the one scan loop (module docstring); an HLT scan, given ``drain``,
        # defines cosets at a longer gap and drains the deductions after
        # each word.  ``drain`` comes in as an argument so that the two
        # closures do not hold each other: a reference cycle would keep the
        # enumerator's lists alive until the cyclic garbage collector ran.
        # ``steps`` gets ``s`` before a drain, whose scans nest, or a raise.
        # Only a coincidence lowers the live count, so ``peak`` takes it
        # before each one
        nonlocal steps, dead, peak
        s = steps
        for fwd, bwd, last, w in scans:
            if parent[c] != c:
                break
            f = b = c
            i, j = 0, last
            while True:
                s += 1
                if s > max_deductions:
                    steps = s
                    raise _Overflowed
                while i <= j:
                    y = fwd[i][f]
                    if y is None:
                        break
                    f = y
                    i += 1
                if i > j:
                    if f != b:
                        peak = max(peak, len(parent) - dead)
                        dead += _coincidence(parent, pairs, f, b)
                    break
                while j >= i:
                    y = bwd[j][b]
                    if y is None:
                        break
                    b = y
                    j -= 1
                if j < i:
                    peak = max(peak, len(parent) - dead)
                    dead += _coincidence(parent, pairs, f, b)
                    break
                if j == i:
                    # f*x = b, to be deduced from where a short relator reads it
                    x = w[i]
                    fwd[i][f] = b
                    bwd[i][b] = f
                    if deduce[x]:
                        stack.append((f, x))
                    if deduce[x ^ 1]:
                        stack.append((b, x ^ 1))
                    break
                if drain is None:
                    break
                steps = s
                define(w[i], f)
            if drain is not None and stack:
                steps = s
                drain()
                s = steps
        steps = s

    def drain() -> None:
        # deduce from each entry on the stack, without defining cosets
        while stack:
            c, x = stack.pop()
            scan_at(c, deduce[x], None)

    relator_scans = [scan(w) for w in relators]
    # one bit per shortcut column of each relator
    masks = [sum({1 << x for x in _shortcuts(w, involutions) if x is not None}) for w in relators]
    # the columns that some relator's shortcut reads, each with its bit
    shortcuts = [(1 << x, cols[x]) for x in range(len(cols)) if any(m >> x & 1 for m in masks)]
    # the relators to scan at a coset, by the set of shortcut columns that
    # take it to a coset below it
    scan_lists = {}
    # coset 0, which has no coset below it, scans the subgroup words first;
    # a compaction keeps coset 0 and every coset below alpha, so alpha is 0
    # after one only if it was 0 before, and todo still holds those words
    todo = [scan(_word_to_cols(p.check_word(w))) for w in subgroup if w] + relator_scans
    # ``dead`` counts the dead cosets still in the table, ``freed`` the ones
    # that compactions dropped
    dead = steps = skipped = alpha = peak = freed = compactions = 0
    while alpha < len(parent):
        try:
            while alpha < len(parent):
                if parent[alpha] == alpha:
                    below = 0
                    for bit, col in shortcuts:
                        beta = col[alpha]
                        if beta is not None and beta < alpha:
                            below |= bit
                    if alpha:
                        todo = scan_lists.get(below)
                        if todo is None:
                            todo = scan_lists[below] = [
                                s for s, mask in zip(relator_scans, masks) if not mask & below
                            ]
                        # a relator symmetry proves the others closed at alpha
                        skipped += len(relator_scans) - len(todo)
                    scan_at(alpha, todo, drain)
                    if parent[alpha] == alpha:
                        for x, col in row_cols:
                            if col[alpha] is None:
                                define(x, alpha)
                        if stack:
                            drain()
                alpha += 1
        except _Overflowed:
            # the deduction budget ran out, or the coset budget is full; a
            # compaction that frees enough of it makes room, and the coset in
            # progress, whose scans are idempotent, starts over
            if steps > max_deductions or dead * _COMPACT_SHARE < max_cosets:
                break
            alpha = _compact(parent, [col for _, col in row_cols], stack, alpha)
            freed += dead
            dead = 0
            compactions += 1
    stats = EnumStats(
        len(parent) + freed, dead + freed, steps, skipped, max(peak, len(parent) - dead), compactions
    )
    if alpha < len(parent):  # a budget ran out
        return Overflow(stats, limits)
    return _renumber(cols, parent, subgroup, stats)


def table_from_action(
    p: Presentation,
    forward_maps: Sequence[Sequence[int]],
    subgroup: Sequence[Word] = (),
) -> CosetTable:
    """Build a coset table directly from a known transitive permutation
    action of the generators (one total map per generator).  The table is
    validated before being returned; ValueError if it fails."""
    # a permutation's inverse sorts the points by image; validate_table reports a bad map
    backward = [
        sorted(range(len(f)), key=f.__getitem__) if _is_map(f, len(f)) else f for f in forward_maps
    ]
    t = CosetTable(forward_maps, backward, subgroup)
    report = validate_table(p, list(subgroup), t)
    if not report.passed:
        raise ValueError(f"action does not satisfy the presentation: {report}")
    return t


def _is_map(col: Sequence[int], n: int) -> bool:
    """Whether every entry of col is an int in range(n)."""
    return set(map(type, col)) <= {int} and (not col or (min(col) >= 0 and max(col) < n))


def validate_table(p: Presentation, subgroup: Sequence[Word], t: CosetTable) -> ValidationReport:
    """Certificate check, independent of the enumeration strategy: mutually
    inverse bijections, subgroup-generator closure, relator closure at every
    coset, and transitivity from coset 0.  A map with an entry that is not a
    coset is ``not a bijection``, and then nothing is traced.  The checks
    compose whole columns; a failure names the first coset that fails.
    A subgroup word over an undeclared generator raises ``ValueError``, as
    it does in ``todd_coxeter``."""
    for w in subgroup:
        p.check_word(w)
    n = t.n
    if t.n_gens != p.n_gens:
        return ValidationReport([("generator count mismatch", (t.n_gens, p.n_gens))])
    if not n:
        return ValidationReport([("no cosets", 0)])
    maps = list(zip(p.generators, t.forward, t.backward))
    failures = [("not a bijection", g) for g, f, b in maps if not (_is_map(f, n) and _is_map(b, n))]
    if failures:
        return ValidationReport(failures)
    identity = list(range(n))
    # the forward maps reach coset 0's orbit when each inverse checks out
    walk = list(t.forward)
    for name, fwd, bwd in maps:
        back = list(map(bwd.__getitem__, fwd))
        if back == identity:  # so both maps are bijections
            continue
        if len(set(fwd)) < n or len(set(bwd)) < n:
            failures.append(("not a bijection", name))
        else:
            failures.append(("inverse mismatch", (name, next(c for c in identity if back[c] != c))))
        walk.append(bwd)
    for w in subgroup:
        if t.trace(0, w) != 0:
            failures.append(("subgroup word leaves coset 0", w))
    for i, r in enumerate(p.relators):
        image = identity
        for x in r.letters:
            col = t.forward[x - 1] if x > 0 else t.backward[-x - 1]
            image = list(map(col.__getitem__, image))
        if image != identity:
            c = next(c for c in identity if image[c] != c)
            failures.append(("relator does not fix coset", (i, c)))
    seen = frontier = {0}
    while frontier:
        frontier = set().union(*[map(col.__getitem__, frontier) for col in walk]) - seen
        seen |= frontier
    if len(seen) != n:
        failures.append(("not transitive", n - len(seen)))
    return ValidationReport(failures)

