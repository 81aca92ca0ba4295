"""Todd-Coxeter coset enumeration (HLT strategy with short-relator
deductions) and coset-table certificates.

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

Strategy.  One routine, ``scan_at``, scans a list of words at a coset
until the coset dies, one scan step per pass: a closed word with a
mismatch is a coincidence, a single gap is filled, and a longer gap ends
the word's scan, unless the scan is HLT's, which defines a coset there and
scans on.  HLT visits the live cosets in order; at each it scans every
relator that way (coset 0 scans the subgroup words first), then defines the
row's empty entries.  Every entry that a fill or a definition sets goes on
a deduction stack, which is drained after each HLT word and after each
row.  For an entry of column x at coset c, draining calls ``scan_at`` at c,
without defining cosets, on each distinct cyclic conjugate that starts
with x of every relator of length at most 3 (other than g^2) and of its
inverse; a filled gap pushes its entry in turn.
Such relators are the torsion x^3 and triangle relators abc that HLT would
otherwise cover with cosets that later die.  Longer relators do not deduce,
since on the E6 Coxeter group their deductions cost more than the cosets
they save (``_DEDUCE_MAX_LENGTH`` gives the measurements).

Most relator scans only confirm a cycle that is already closed, and a
relator's symmetry can prove that without reading the word.  Read w, of
length L, through the column lists (an involution's two columns are one
list).  If rotating w by one letter gives w or w^-1, coset alpha skips w
when alpha*w[0] is a live coset below alpha; if rotating it by L-1 letters
does, alpha skips w when alpha*w[-1]^-1 is.  The offsets are tested
separately, since one does not imply the other: ``g1 g0^2``, with g0 and g1
involutions, has the first only.  Each relator carries a bitmask of the
columns its shortcuts read; at each live coset one pass over those columns
sets the bits whose image is a live coset below it, and that set keys a
dict of the relators left to scan, built on first use.

Soundness.  A deduction sets only an entry that a relator implies, and no
step ever clears an entry of a live coset except to merge it, so closed
cycles stay closed and coincidences map closed cycles onto closed cycles.
Every live coset beta below alpha has been processed, so every relator was
closed at beta.  If beta = alpha*w[0] and rot1(w), being w or w^-1, is
closed at beta, its path from beta ends with the letter w[0] back at beta;
column maps are injective, so the coset before that letter is alpha, and
alpha*w = alpha.  Offset L-1 is the same argument from the other end.  A
skipped scan would thus neither define a coset nor merge two.  Subgroup
words, scanned at coset 0 only, never skip.  The finished table is the
action on the cosets, renumbered by BFS, so it does not depend on the
order of definitions, deductions and skips; only the work counts and the
point where a budget runs out do.
"""

from __future__ import annotations

from collections import deque
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
    coincidences, scan steps taken, and relator scans skipped because a
    relator symmetry proved them closed.  ``scan_steps`` counts each pass of
    an HLT scan and each deduction scan.  ``skipped`` counts, at each live
    coset the enumerator reaches, the relators its skip mask rules out, all
    at once when the coset's scans start."""

    allocated: int
    dead: int
    scan_steps: int
    skipped: int


class Overflow:
    """Budget exhausted: possibly infinite index or limits too small.

    ``deductions`` counts the scan steps taken, deduction scans among them
    and the refused one included, so it exceeds ``limits.max_deductions``
    exactly when that budget ran out; otherwise the coset budget did.  A
    scan that a relator symmetry skips takes no step."""

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


def _renumber(
    cols: List[List[Optional[int]]], parent: List[int], subgroup: Sequence[Word], stats: EnumStats
) -> CosetTable:
    """Compact to live cosets, renumbered by BFS from coset 0 over the
    positive generator columns (which span any complete finite table), so
    transversals are reproducible.  Resolves ``parent`` in place and
    consumes ``cols``: each column is cleared once it is mapped, which frees
    it in the enumerator too, and the finished tuples are kept by
    ``CosetTable`` without a copy."""
    # a representative is never larger than its coset, so one ascending
    # pass resolves every coset to its live representative
    root = parent
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
    if len(order) != stats.allocated - stats.dead:
        raise RuntimeError("table is not transitive")
    # the new number of every coset, through its representative
    number = [number[r] for r in root]
    forward: List[Tuple[int, ...]] = []
    backward: List[Tuple[int, ...]] = []
    for col, inv in zip(forward_cols, cols[1::2]):
        forward.append(tuple([number[col[c]] for c in order]))
        col.clear()
        # an involution's backward column is its forward tuple, mapped once
        backward.append(forward[-1] if inv is col else tuple([number[inv[c]] for c in order]))
        inv.clear()
    return CosetTable(forward, backward, subgroup, stats)


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
    cols: List[List[Optional[int]]] = []
    for g in range(p.n_gens):
        col: List[Optional[int]] = [None]
        cols += (col, col) if g in involutions else (col, [None])
    # one column of each distinct list, the ones a row fill visits
    rows = [x for x in range(len(cols)) if x % 2 == 0 or x >> 1 not in involutions]
    pairs = [(cols[x], cols[x ^ 1]) for x in rows]
    distinct = [col for col, _ in pairs]

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

    def fill(x: int, c: int, d: int) -> None:
        # c*x = d, to be deduced from where a short relator reads it
        cols[x][c] = d
        cols[x ^ 1][d] = c
        if deduce[x]:
            stack.append((c, x))
        if deduce[x ^ 1]:
            stack.append((d, x ^ 1))

    def define(x: int, c: int) -> None:
        beta = len(parent)
        if beta >= max_cosets:
            raise _Overflowed
        for d in distinct:
            d.append(None)
        parent.append(beta)
        fill(x, c, beta)

    def scan_at(c: int, scans, drain) -> None:
        # the one scan loop (module docstring); an HLT scan, given ``drain``,
        # defines cosets at a longer gap and drains the deductions after
        # each word.  ``drain`` comes in as an argument so that the two
        # closures do not hold each other: a reference cycle would keep the
        # enumerator's lists alive until the cyclic garbage collector ran
        nonlocal steps, dead
        for fwd, bwd, last, w in scans:
            if parent[c] != c:
                return
            f = b = c
            i, j = 0, last
            while True:
                steps += 1
                if steps > max_deductions:
                    raise _Overflowed
                while i <= j:
                    y = fwd[i][f]
                    if y is None:
                        break
                    f = y
                    i += 1
                if i > j:
                    if f != b:
                        dead += _coincidence(parent, pairs, f, b)
                    break
                while j >= i:
                    y = bwd[j][b]
                    if y is None:
                        break
                    b = y
                    j -= 1
                if j < i:
                    dead += _coincidence(parent, pairs, f, b)
                    break
                if j == i:
                    fill(w[i], f, b)
                    break
                if drain is None:
                    break
                define(w[i], f)
            if drain is not None and stack:
                drain()

    def drain() -> None:
        # deduce from each entry on the stack, without defining cosets
        while stack:
            c, x = stack.pop()
            scan_at(c, deduce[x], None)

    def skip_mask(w):
        # one bit per shortcut column
        mask = 0
        for x in _shortcuts(w, involutions):
            if x is not None:
                mask |= 1 << x
        return mask

    relator_scans = [scan(w) for w in relators]
    masks = [skip_mask(w) for w in relators]
    read = 0
    for mask in masks:
        read |= mask
    # the columns that some relator's shortcut reads, each with its bit
    shortcuts = [(1 << x, cols[x]) for x in range(len(cols)) if read >> x & 1]
    # the relators to scan at a coset, by the set of shortcut columns that
    # take it to a live coset below it
    scan_lists = {}
    # coset 0, which has no coset below it, scans the subgroup words first
    todo = [scan(_word_to_cols(p.check_word(w))) for w in subgroup if w] + relator_scans
    dead = steps = skipped = 0
    alpha = 0
    try:
        while alpha < len(parent):
            if parent[alpha] == alpha:
                below = 0
                for bit, col in shortcuts:
                    beta = col[alpha]
                    if beta is not None and beta < alpha and parent[beta] == beta:
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
                    for x in rows:
                        if cols[x][alpha] is None:
                            define(x, alpha)
                    if stack:
                        drain()
            alpha += 1
    except _Overflowed:
        return Overflow(EnumStats(len(parent), dead, steps, skipped), limits)
    return _renumber(cols, parent, subgroup, EnumStats(len(parent), dead, steps, skipped))


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
