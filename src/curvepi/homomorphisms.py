"""Soundness-first homomorphism checking.

Verified: every source relator's image derives to the empty word in the
target (a certificate).  Refuted: some image is visibly nontrivial in the
target's abelianization, or acts nontrivially in a finite quotient found by
coset enumeration.  Anything else is Inconclusive, which is not a judgment.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .abelian import relator_matrix, smith_normal_form
from .coset_table import CosetTable, EnumLimits, todd_coxeter
from .derive import DerivationBudget, Inconclusive, ProofTrace, derive_relator
from .presentations import Presentation, SubstitutionMap, compose, substitute
from .words import Word

_REFUTE_COSET_LIMIT = 5000


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


def _in_row_lattice(M, v: List[int]) -> bool:
    """Is v an integer combination of the rows of M?  Via SNF of M."""
    D, _, V = smith_normal_form(M)
    # v in rowspace_Z(M)  iff  (v V) is componentwise divisible by diag(D)
    vv = [0] * M.cols
    for j in range(M.cols):
        s = 0
        for i in range(M.cols):
            s += v[i] * V.entries[i][j]
        vv[j] = s
    for j in range(M.cols):
        d = D.entries[j][j] if j < D.rows else 0
        if d == 0:
            if vv[j] != 0:
                return False
        elif vv[j] % d:
            return False
    return True


def _abelian_refuter(target: Presentation, image: Word) -> bool:
    """True when the image is nontrivial in the abelianized target."""
    v = image.exponent_sums(target.n_gens)
    if all(x == 0 for x in v):
        return False
    return not _in_row_lattice(relator_matrix(target), v)


def check_homomorphism(
    m: SubstitutionMap, budget: DerivationBudget | None = None
) -> Verified | Refuted | Inconclusive:
    """Decide, when possible, whether the substitution defines a homomorphism.

    Verified and Refuted are sound; budget exhaustion is reported as
    Inconclusive, never as an error.
    """
    budget = budget or DerivationBudget()
    images = [substitute(m, r) for r in m.source.relators]

    for i, img in enumerate(images):
        if img and _abelian_refuter(m.target, img):
            return Refuted(i, img, "abelianization", img.exponent_sums(m.target.n_gens))

    # a finite quotient (the regular action) refutes exactly the nontrivial
    # images; only worth attempting when the target might be finite
    table = todd_coxeter(m.target, [], EnumLimits(max_cosets=_REFUTE_COSET_LIMIT))
    if isinstance(table, CosetTable):
        for i, img in enumerate(images):
            if table.trace(0, img) != 0:
                return Refuted(i, img, f"finite quotient of order {table.n}", table.n)

    traces: List[ProofTrace] = []
    for img in images:
        res = derive_relator(m.target, img, budget)
        if isinstance(res, Inconclusive):
            return Inconclusive(f"relator image not derived: {res.reason}")
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

    def __repr__(self) -> str:
        return f"IsomorphismReport(verified={self.verified}, failures={list(self.failures)})"


def verify_isomorphism(
    fwd: SubstitutionMap,
    bwd: SubstitutionMap,
    budget: DerivationBudget | None = None,
) -> IsomorphismReport:
    """Two-sided check: both maps Verified as homomorphisms and both
    compositions fix every generator modulo the relators."""
    budget = budget or DerivationBudget()
    f_res = check_homomorphism(fwd, budget)
    b_res = check_homomorphism(bwd, budget)
    compositions = []
    for name, outer, inner in (("backward o forward", bwd, fwd), ("forward o backward", fwd, bwd)):
        comp = compose(outer, inner)
        for g in range(comp.source.n_gens):
            test = comp.images[g] * ~Word.gen(g)
            res = derive_relator(comp.source, test, budget)
            compositions.append((name, comp.source.generators[g], res))
    return IsomorphismReport(f_res, b_res, compositions)
