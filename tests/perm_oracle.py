"""The order of a permutation group by closure: an oracle for the order of
a group whose coset table of the trivial subgroup the tests enumerate, since
that table's permutation image is the regular representation."""

from collections import deque
from typing import Sequence, Tuple


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
