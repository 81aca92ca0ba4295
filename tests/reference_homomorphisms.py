"""``check_homomorphism`` as it was before the bounded derivation moved
ahead of the finite-quotient refuter, kept verbatim as the reference for the
differential test: every verdict, witness, trace and reason must agree.
Only its state budget changed: an int where a budget record was."""

from typing import List

from curvepi.coset_table import CosetTable, todd_coxeter
from curvepi.derive import Inconclusive, ProofTrace, derive_relator
from curvepi.homomorphisms import _REFUTE_COSET_LIMIT, Refuted, Verified, _abelian_refuter
from curvepi.presentations import SubstitutionMap, substitute


def check_homomorphism(
    m: SubstitutionMap, max_states: int
) -> Verified | Refuted | Inconclusive:
    """Decide, when possible, whether the substitution defines a homomorphism.

    Verified and Refuted are sound; budget exhaustion is reported as
    Inconclusive, never as an error.
    """
    images = [substitute(m, r) for r in m.source.relators]

    refuted = _abelian_refuter(m.target, *images)
    if refuted is not None:
        return refuted

    # a finite quotient (the regular action) refutes exactly the nontrivial
    # images; only worth attempting when the target might be finite
    table = todd_coxeter(m.target, [], _REFUTE_COSET_LIMIT)
    if isinstance(table, CosetTable):
        for i, img in enumerate(images):
            if table.trace(0, img) != 0:
                return Refuted(i, img, f"finite quotient of order {table.n}", table.n)

    traces: List[ProofTrace] = []
    for img in images:
        res = derive_relator(m.target, img, max_states)
        if isinstance(res, Inconclusive):
            return Inconclusive(f"relator image not derived: {res.reason}")
        traces.append(res)
    return Verified(traces)
