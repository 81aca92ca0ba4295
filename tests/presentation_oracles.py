"""The earlier per-relator checks of the Presentation constructor, kept
verbatim (but for the function head, the imports, and returning what the
constructor set) as the oracle for Presentation.__init__."""

from typing import Iterable, Sequence

from curvepi.presentations import IDENTIFIER, _undeclared
from curvepi.words import Word, cyclic_reduce


def presentation_parts(generators: Sequence[str], relators: Iterable[Word] = ()):
    """The generators and relators that the constructor stores, one relator
    at a time."""
    gens = tuple(generators)
    for g in gens:
        if not (isinstance(g, str) and IDENTIFIER.fullmatch(g)):
            raise ValueError(f"generator name {g!r} is not an identifier")
    if len(set(gens)) != len(gens):
        raise ValueError("duplicate generator names")
    n = len(gens)
    rels = []
    for w in relators:
        if not isinstance(w, Word):
            raise TypeError("relators must be Word values")
        letters = w.letters
        if not letters:
            continue
        if _undeclared(letters, n):
            raise ValueError(f"relator {w!r} uses an undeclared generator")
        core = cyclic_reduce(letters)
        # a reduced word of one letter or more keeps at least one
        rels.append(w if len(core) == len(letters) else Word._raw(core))
    return gens, tuple(rels)

