"""Earlier versions of presentation code, kept as oracles.

- The per-relator checks of the Presentation constructor, verbatim (but
  for the function head, the imports, returning what the constructor set,
  and the undeclared-letter rule written out where the constructor calls
  ``presentations._undeclared``, so the oracle does not share it), as the
  oracle for Presentation.__init__.
- The run-by-run writer, ``format_word``, ``_format_run`` and
  ``format_presentation`` verbatim, as the oracle for the atom-table
  ``format_presentation``.
"""

from typing import Iterable, Sequence

from curvepi.presentations import IDENTIFIER, Presentation
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
        if max(letters) > n or -min(letters) > n:
            raise ValueError(f"relator {w!r} uses an undeclared generator")
        core = cyclic_reduce(letters)
        # a reduced word of one letter or more keeps at least one
        rels.append(w if len(core) == len(letters) else Word._raw(core))
    return gens, tuple(rels)


def format_word(p: Presentation, w: Word) -> str:
    """Render a word in the DSL grammar (powers collapsed, space separated)."""
    if not w:
        raise ValueError("the empty word has no DSL form")
    atoms = []
    run_letter, run_len = w.letters[0], 1
    for x in w.letters[1:]:
        if x == run_letter:
            run_len += 1
        else:
            atoms.append(_format_run(p, run_letter, run_len))
            run_letter, run_len = x, 1
    atoms.append(_format_run(p, run_letter, run_len))
    return " ".join(atoms)


def _format_run(p: Presentation, letter: int, count: int) -> str:
    name = p.generators[abs(letter) - 1]
    e = count if letter > 0 else -count
    return name if e == 1 else f"{name}^{e}"


def format_presentation(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(format_word(p, w) for w in p.relators)
    return f"< {gens} | {rels} >"
