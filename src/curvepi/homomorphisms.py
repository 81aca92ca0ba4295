"""Soundness-first homomorphism checking.

Verified: every source relator's image derives to the empty word in the
target (a certificate).  Refuted: some image is visibly nontrivial in the
target's abelianization, or acts nontrivially in a finite quotient found by
coset enumeration.  Anything else is Inconclusive, which is not a judgment.

``check_homomorphism`` runs its stages cheapest first: the abelian refuter
(milliseconds), then a derivation of every image with at most
``_QUICK_STATES`` states, then the finite-quotient refuter (an enumeration of
up to ``_REFUTE_COSET_LIMIT`` cosets, which never finishes on an infinite
target), and last the derivations with the caller's ``max_states``.  Verified
and Refuted are both sound, so they exclude each other, and the order cannot
change which of them is returned.  Nor can it change a trace: the state cap
only truncates the derivation search (see ``derive_relator``), so an image
derived under the small cap gets the trace the caller's cap would give.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .abelian import exponent_row, invariants_of_rows
from .coset_table import CosetTable, todd_coxeter
from .derive import MAX_STATES, Inconclusive, ProofTrace, derive_relator
from .presentations import Presentation, SubstitutionMap, compose, substitute
from .words import Word

_REFUTE_COSET_LIMIT = 5000
# state cap of the derivation tried before the finite-quotient refuter; every
# derivation in ``curvepi verify`` needs at most 436 states
_QUICK_STATES = 1000


class Verified:
    __slots__ = ("traces",)

    def __init__(self, traces: Sequence[ProofTrace]):
        self.traces = tuple(traces)

    def __repr__(self) -> str:
        return f"Verified(traces={len(self.traces)})"


class Refuted:
    """witness: which relator image is nontrivial, and in which quotient."""

    __slots__ = ("relator_index", "image", "quotient", "detail")

    def __init__(self, relator_index: int, image: Word, quotient: str, detail: object):
        self.relator_index = relator_index
        self.image = image
        self.quotient = quotient
        self.detail = detail

    def __repr__(self) -> str:
        return f"Refuted(relator={self.relator_index}, quotient={self.quotient!r})"


def _abelian_refuter(target: Presentation, *images: Word) -> Refuted | None:
    """The first image that is nontrivial in the abelianized target, as a
    Refuted witness, or None.

    An image with exponent-sum vector v is trivial there exactly when v lies
    in the row lattice L of the target's relator rows.  Appending v as a
    row leaves the invariants unchanged when v is in L; otherwise
    Z^n/(L + Zv) is a proper quotient of Z^n/L, and as finitely generated
    abelian groups are Hopfian, the invariants differ.  The rows and their
    invariants are computed once for all the images.  The witness's detail
    is v as a list of n exponent sums.
    """
    n = target.n_gens
    rows = [exponent_row(w) for w in target.relators]
    base = invariants_of_rows(rows, n)
    for i, img in enumerate(images):
        v = exponent_row(img)
        if v and invariants_of_rows(rows + [v], n) != base:
            return Refuted(i, img, "abelianization", [v.get(j, 0) for j in range(n)])
    return None


def check_homomorphism(
    m: SubstitutionMap, max_states: int = MAX_STATES
) -> Verified | Refuted | Inconclusive:
    """Decide, when possible, whether the substitution defines a homomorphism.

    Verified and Refuted are sound; budget exhaustion is reported as
    Inconclusive, never as an error.  The stages, in order:

    1. the abelian refuter;
    2. a derivation of each image with ``max_states`` capped at
       ``_QUICK_STATES``, stopping at the first image that fails; Verified
       when none fails;
    3. the finite-quotient refuter;
    4. the images not yet settled, derived with ``max_states`` states.

    A bounded attempt that failed without reaching its cap (the search space
    ran out, or the cap is the caller's own) is already the result under
    ``max_states``, so step 4 does not repeat it.  The result equals that of
    running the refuters before every derivation, trace for trace.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    images = [substitute(m, r) for r in m.source.relators]
    if not images:
        return Verified(())

    refuted = _abelian_refuter(m.target, *images)
    if refuted is not None:
        return refuted

    quick = min(max_states, _QUICK_STATES)
    settled: List[ProofTrace | Inconclusive] = []
    for img in images:
        res = derive_relator(m.target, img, quick)
        if isinstance(res, Inconclusive):
            if res.states < quick or quick == max_states:
                settled.append(res)
            break
        settled.append(res)
    else:
        return Verified(settled)

    # a finite quotient (the regular action) refutes exactly the nontrivial
    # images; only worth attempting when the target might be finite
    table = todd_coxeter(m.target, [], _REFUTE_COSET_LIMIT)
    if isinstance(table, CosetTable):
        for i, img in enumerate(images):
            if table.trace(0, img) != 0:
                return Refuted(i, img, f"finite quotient of order {table.n}", table.n)

    traces: List[ProofTrace] = []
    for i, img in enumerate(images):
        res = settled[i] if i < len(settled) else derive_relator(m.target, img, max_states)
        if isinstance(res, Inconclusive):
            return Inconclusive(f"relator image not derived: {res.reason}", res.states)
        traces.append(res)
    return Verified(traces)


class IsomorphismReport:
    """The typed results of a two-sided isomorphism check: the forward and
    backward map checks, and one derivation (ProofTrace or Inconclusive)
    per composition check, as ``(composition, generator, result)``."""

    __slots__ = ("forward", "backward", "compositions")

    def __init__(self, forward, backward, compositions):
        self.forward = forward
        self.backward = backward
        self.compositions = tuple(compositions)

    @property
    def results(self) -> tuple:
        """Every engine result the report holds."""
        return (self.forward, self.backward, *(res for _, _, res in self.compositions))

    @property
    def verified(self) -> bool:
        return all(isinstance(res, (Verified, ProofTrace)) for res in self.results)

    @property
    def failures(self) -> Tuple[str, ...]:
        """Display text for each part that is not a certificate."""
        out = [
            f"{name} map: {res!r}"
            for name, res in (("forward", self.forward), ("backward", self.backward))
            if not isinstance(res, Verified)
        ]
        out.extend(
            f"{name} does not visibly fix generator {gen}: {res.reason}"
            for name, gen, res in self.compositions
            if isinstance(res, Inconclusive)
        )
        return tuple(out)

    def __str__(self) -> str:
        return "; ".join(self.failures)

    def __repr__(self) -> str:
        return f"IsomorphismReport(verified={self.verified}, failures={list(self.failures)})"


def verify_isomorphism(
    fwd: SubstitutionMap,
    bwd: SubstitutionMap,
    max_states: int = MAX_STATES,
) -> IsomorphismReport:
    """Two-sided check: both maps Verified as homomorphisms and both
    compositions fix every generator modulo the relators, every derivation
    holding at most ``max_states`` states."""
    f_res = check_homomorphism(fwd, max_states)
    b_res = check_homomorphism(bwd, max_states)
    compositions = []
    for name, outer, inner in (("backward o forward", bwd, fwd), ("forward o backward", fwd, bwd)):
        comp = compose(outer, inner)
        for g in range(comp.source.n_gens):
            test = comp.images[g] * ~Word.gen(g)
            res = derive_relator(comp.source, test, max_states)
            compositions.append((name, comp.source.generators[g], res))
    return IsomorphismReport(f_res, b_res, compositions)
