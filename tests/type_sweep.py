"""Every admissible labelled combinatorial type of total degree at most 5,
by backtracking over the singularity vocabulary of ``geometry._KINDS``.

Components are labelled c1, c2, ... in ascending degree.  A singularity is
a kind and a tuple of owners.  Owners of branches that the kind's local
data does not tell apart are listed in their least order, so a fully
symmetric kind (A1, A3, O3, ...) lists them sorted and each labelled type
is produced once.  The search picks singularities as a non-decreasing
sequence of (kind, owners) slots and prunes with the bounds that
``validate_combinatorial_type`` checks: the intersection numbers listed
for a pair of distinct components stay within the product of their
degrees (the final type must meet it exactly, Bezout), and each
component's delta stays within its genus bound (d-1)(d-2)/2.
"""

from itertools import permutations, product
from typing import Iterator, List, Tuple

from curvepi.geometry import (
    _KINDS,
    CombinatorialType,
    Singularity,
    _pairwise_contacts,
    _self_delta,
    validate_combinatorial_type,
)


def degree_partitions(max_degree: int = 5) -> Iterator[Tuple[int, ...]]:
    """Ascending degree tuples of every total from 1 to ``max_degree``."""

    def parts(total: int, least: int):
        if total == 0:
            yield ()
        for d in range(least, total + 1):
            for rest in parts(total - d, d):
                yield (d,) + rest

    for total in range(1, max_degree + 1):
        yield from parts(total, 1)


def _branch_symmetries(kind: str) -> List[Tuple[int, ...]]:
    """Permutations of the listed branches that keep the kind's data: the
    delta of each branch and the intersection number of each pair."""
    n, delta, pairs = _KINDS[kind]
    deltas = [delta] + [0] * (n - 1)
    contact = {frozenset((i, j)): m for i, j, m in pairs}
    return [
        perm
        for perm in permutations(range(n))
        if all(deltas[p] == deltas[i] for i, p in enumerate(perm))
        and all(
            contact.get(frozenset((perm[i], perm[j]))) == contact.get(frozenset((i, j)))
            for i in range(n)
            for j in range(i + 1, n)
        )
    ]


_SYMMETRIES = {kind: _branch_symmetries(kind) for kind in _KINDS}


def admissible_types(degrees: Tuple[int, ...]) -> Iterator[CombinatorialType]:
    """Every labelled type with these component degrees that passes
    ``validate_combinatorial_type``."""
    ids = tuple(f"c{i + 1}" for i in range(len(degrees)))
    components = list(zip(ids, degrees))
    bezout = {(a, b): da * db for (a, da) in components for (b, db) in components if a < b}
    genus = tuple((d - 1) * (d - 2) // 2 for d in degrees)

    slots = []
    for kind in sorted(_KINDS):
        n = _KINDS[kind][0]
        for owners in product(ids, repeat=n):
            if any(tuple(owners[p] for p in perm) < owners for perm in _SYMMETRIES[kind]):
                continue
            # what the singularity adds to each pair's Bezout sum and to
            # each component's delta
            s = Singularity(kind, "", owners)
            if s.kind != kind:
                continue  # another kind's spelling, which that kind lists
            contacts, deltas = _pairwise_contacts(s), tuple(_self_delta(s, c) for c in ids)
            if all(m <= bezout[pair] for pair, m in contacts.items()) and all(
                d <= g for d, g in zip(deltas, genus)
            ):
                slots.append((kind, owners, contacts, deltas))

    def extend(start, chosen, met, spent):
        if all(met.get(pair, 0) == want for pair, want in bezout.items()):
            yield chosen
        for i in range(start, len(slots)):
            kind, owners, contacts, deltas = slots[i]
            now = dict(met)
            for pair, m in contacts.items():
                now[pair] = now.get(pair, 0) + m
            total = tuple(a + b for a, b in zip(spent, deltas))
            if all(now[pair] <= bezout[pair] for pair in contacts) and all(
                d <= g for d, g in zip(total, genus)
            ):
                yield from extend(i, chosen + [(kind, owners)], now, total)

    for chosen in extend(0, [], {}, (0,) * len(ids)):
        ct = CombinatorialType(
            components, [Singularity(kind, f"p{i}", owners) for i, (kind, owners) in enumerate(chosen)]
        )
        if validate_combinatorial_type(ct).ok:
            yield ct


def all_admissible_types(max_degree: int = 5) -> List[CombinatorialType]:
    return [ct for degrees in degree_partitions(max_degree) for ct in admissible_types(degrees)]


def ownership(ct: CombinatorialType) -> Tuple:
    """The type's singularities up to relabelling components of equal degree
    and reordering owners the kind does not tell apart: the least sorted
    (kind, owners) list over those relabellings."""
    ids = [c for c, _ in ct.components]
    degree = dict(ct.components)
    best = None
    for perm in permutations(ids):
        if any(degree[a] != degree[b] for a, b in zip(ids, perm)):
            continue
        rename = dict(zip(ids, perm))
        sings = []
        for s in ct.singularities:
            owners = tuple(rename[o] for o in s.owners)
            owners = min(tuple(owners[p] for p in perm_b) for perm_b in _SYMMETRIES[s.kind])
            sings.append((s.kind, owners))
        form = tuple(sorted(sings))
        if best is None or form < best:
            best = form
    return best
