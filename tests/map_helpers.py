"""Substitution maps that only the tests build."""

from curvepi.presentations import Presentation, SubstitutionMap
from curvepi.words import Word


def identity_map(p: Presentation) -> SubstitutionMap:
    return SubstitutionMap(p, p, [Word.gen(i) for i in range(p.n_gens)])
