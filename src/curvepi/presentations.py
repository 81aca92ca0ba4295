"""Finite presentations, substitution homomorphisms, printing and JSON forms."""

from __future__ import annotations

import re
from operator import eq
from typing import Iterable, Sequence, Tuple

from .words import Word, cyclic_reduce, invert, power

# a generator name: exactly what the DSL reads as one identifier
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_']*")


def _undeclared(letters: Tuple[int, ...], n: int) -> bool:
    """Whether nonempty ``letters`` use a generator beyond the first ``n``."""
    return max(letters) > n or -min(letters) > n


def _checked_relators(given: Iterable[Word], n: int) -> Tuple[Word, ...]:
    """The relators a presentation on ``n`` generators stores: the given
    words, empty ones dropped and those of the form x ... x^-1 cyclically
    reduced.  They are checked one by one, so the first bad one raises:
    ``TypeError`` for a value that is not a ``Word``, ``ValueError`` for a
    letter beyond the generators."""
    rels = []
    for w in given:
        if not isinstance(w, Word):
            raise TypeError("relators must be Word values")
        letters = w.letters
        if not letters:
            continue
        if _undeclared(letters, n):
            raise ValueError(f"relator {w!r} uses an undeclared generator")
        # a reduced word has something to strip only if it is x ... x^-1,
        # and then keeps at least one letter
        rels.append(w if letters[0] != -letters[-1] else Word._raw(cyclic_reduce(letters)))
    return tuple(rels)


class Presentation:
    """Generators (ordered names) and relators (cyclically reduced words).

    Generator names must match IDENTIFIER, so that every presentation prints
    as DSL text that parses back.  Relators that reduce to the empty word are
    dropped; the conjugating part of a non-cyclically-reduced relator is
    discarded (same normal closure).
    """

    __slots__ = ("generators", "relators", "_index")

    def __init__(self, generators: Sequence[str], relators: Iterable[Word] = ()):
        gens = tuple(generators)
        for g in gens:
            if not (isinstance(g, str) and IDENTIFIER.fullmatch(g)):
                raise ValueError(f"generator name {g!r} is not an identifier")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", _checked_relators(relators, len(gens)))
        object.__setattr__(self, "_index", None)  # name -> index, on first lookup

    @classmethod
    def _raw(cls, generators: Tuple[str, ...], relators: Tuple[Word, ...]) -> "Presentation":
        """A presentation that stores the given tuples as they are and
        checks nothing, as ``Word._raw`` does for words.  The caller
        guarantees what the constructor would otherwise check:

        - the names are distinct identifiers;
        - the relators are nonempty ``Word`` values over the declared
          generators;
        - each relator is freely and cyclically reduced.

        Then ``Presentation(generators, relators)`` equals the result."""
        p = cls.__new__(cls)
        object.__setattr__(p, "generators", generators)
        object.__setattr__(p, "relators", relators)
        object.__setattr__(p, "_index", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    def gen_index(self, name: str) -> int:
        if self._index is None:
            object.__setattr__(self, "_index", {g: i for i, g in enumerate(self.generators)})
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no generator named {name!r}") from None

    def word(self, pairs: Sequence[Tuple[str, int]]) -> Word:
        """Word from (name, exponent) pairs; exponents may be any int."""
        letters: list[int] = []
        for name, e in pairs:
            letters.extend(power((self.gen_index(name) + 1,), e))
        return Word(letters)

    def check_word(self, w: Word) -> Word:
        if w and _undeclared(w.letters, self.n_gens):
            raise ValueError(f"word {w!r} uses an undeclared generator")
        return w

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        return f"Presentation({format_presentation(self)!r})"

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [
                [[self.generators[g], s] for g, s in w.pairs()] for w in self.relators
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        free = cls(data["generators"])
        return cls(free.generators, [free.word(rel) for rel in data["relators"]])


class SubstitutionMap:
    """A candidate homomorphism: one image word per source generator."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Presentation, target: Presentation, images: Sequence[Word]):
        if len(images) != source.n_gens:
            raise ValueError("need exactly one image per source generator")
        for w in images:
            target.check_word(w)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", tuple(images))

    def __setattr__(self, name, value):
        raise AttributeError("SubstitutionMap is immutable")

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{g} -> {format_word(self.target, w)}"
            for g, w in zip(self.source.generators, self.images)
        )
        return f"SubstitutionMap({parts})"


def substitute(m: SubstitutionMap, w: Word) -> Word:
    """Apply the substitution letterwise and freely reduce."""
    m.source.check_word(w)
    letters: list[int] = []
    for x in w.letters:
        letters += m.images[x - 1].letters if x > 0 else invert(m.images[-x - 1].letters)
    return Word(letters)


def compose(outer: SubstitutionMap, inner: SubstitutionMap) -> SubstitutionMap:
    """outer o inner, defined when inner.target == outer.source."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("maps are not composable")
    return SubstitutionMap(
        inner.source, outer.target, [substitute(outer, w) for w in inner.images]
    )


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
    """The DSL text of ``p``.  A relator with no two equal neighbouring
    letters has no power to collapse, so it is printed letter by letter
    from one atom table (letter k at index k, its inverse at -k); only the
    others go through ``format_word``."""
    names = p.generators
    atom = ["", *names, *(f"{g}^-1" for g in reversed(names))].__getitem__
    rels = ", ".join(
        format_word(p, w) if any(map(eq, w.letters, w.letters[1:])) else " ".join(map(atom, w.letters))
        for w in p.relators
    )
    return f"< {', '.join(names)} | {rels} >"
