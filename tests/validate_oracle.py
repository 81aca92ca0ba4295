"""The coset-table certificate check as it was before it composed whole
columns, kept verbatim (but for its imports) as the oracle for
curvepi.coset_table.validate_table.

It traces every relator from every coset one letter at a time and finds
transitivity by a BFS over every forward and backward entry.  On a table
whose entries are all cosets it gives the same failures, in the same order,
as the column-wise check; on any other table it may raise.
"""

from collections import deque
from typing import List, Sequence, Tuple

from curvepi.coset_table import CosetTable, ValidationReport
from curvepi.presentations import Presentation
from curvepi.words import Word


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
