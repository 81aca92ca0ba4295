"""Recursive-descent parser for the presentation DSL.

Grammar (ASCII or angle-bracket delimiters):

    presentation := "<" gen-list "|" relator-list ">"
    gen-list     := (ident ("," ident)*)?
    relator-list := (relator ("," relator)*)?
    relator      := word ("=" word)?
    word         := atom+
    atom         := (ident | "(" word ")") ("^" signed-int)?
    ident        := [A-Za-z][A-Za-z0-9_']*       (presentations.IDENTIFIER)

One regex splits the text into tokens (an identifier, a signed integer or
any other single character, with spaces, tabs and line breaks between
them) and the parser walks that list.  Relators written as equalities
w1 = w2 are stored as w1 * w2^-1.  Inside words, an identifier run that is
not itself a declared generator is split greedily into the longest
declared generator names ("aba" means a b a when a and b are generators),
which mirrors the usual juxtaposition notation.  Parentheses nested deeper
than the recursion limit allows are a ParseError, like any other bad input.
"""

from __future__ import annotations

import re
import string
from itertools import islice
from typing import Optional, Sequence

from .presentations import IDENTIFIER, Presentation
from .words import Word, invert, power, reduce_letters

# \d matches exactly the decimal digits that int() reads
_TOKEN = re.compile(rf"[ \t\r\n]*({IDENTIFIER.pattern}|[+-]?\d+|[^ \t\r\n])")
_IDENT_START = set(string.ascii_letters)
_OPEN = ("<", "⟨")
_CLOSE = (">", "⟩")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Parser:
    """Walks the token list; ``tokens[i]`` is the next token and the list
    ends with "" for the end of input.  Words are built as letter lists and
    reduced once, when a relator or word is complete."""

    def __init__(self, text: str, generators: Sequence[str] = ()):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0
        self.declare({g: i for i, g in enumerate(generators)})

    def declare(self, gen_index: dict[str, int]) -> None:
        self.gen_index = gen_index
        self.longest = max(map(len, gen_index), default=0)

    def error(self, message: str, shift: int = 0, k: Optional[int] = None) -> ParseError:
        """ParseError ``shift`` characters into token ``k`` (the next one by
        default); offsets are found again only here."""
        k = self.i if k is None else k
        if k < len(self.tokens) - 1:
            pos = next(islice(_TOKEN.finditer(self.text), k, None)).start(1)
        else:
            pos = len(self.text)
        pos += shift
        head = self.text[:pos]
        return ParseError(message, head.count("\n") + 1, pos - head.rfind("\n"))

    def take(self, *expected: str) -> None:
        tok = self.tokens[self.i]
        if tok not in expected:
            got = repr(tok[0]) if tok else "end of input"
            raise self.error(f"expected {'/'.join(sorted(expected))}, found {got}")
        self.i += 1

    def ident(self) -> str:
        tok = self.tokens[self.i]
        if tok[:1] not in _IDENT_START:
            raise self.error("expected an identifier")
        self.i += 1
        return tok

    def nested(self, rule):
        """``rule()``, with the RecursionError of parentheses nested too deep
        for the recursive descent raised as a ParseError at the token reached."""
        try:
            return rule()
        except RecursionError:
            raise self.error("parentheses nested too deeply") from None

    def end(self, message: str) -> None:
        if self.i != len(self.tokens) - 1:
            raise self.error(message)

    def power(self, letters: list[int]) -> list[int]:
        """``letters`` to the signed integer after the next token, a "^"."""
        self.i += 1
        tok = self.tokens[self.i]
        signed = tok[:1] in ("+", "-")  # the digits start after a sign
        if not tok[signed : signed + 1].isdecimal():
            raise self.error("expected an integer", signed)
        e = int(tok)
        if e == 0:
            raise self.error("zero exponent is not allowed")
        try:
            letters = power(letters, e)
        except ValueError as exc:
            raise self.error(str(exc)) from None
        self.i += 1
        return letters

    def presentation(self) -> Presentation:
        self.take(*_OPEN)
        gen_index: dict[str, int] = {}
        if self.tokens[self.i] != "|":
            gen_index[self.ident()] = 0
        while self.tokens[self.i] == ",":
            self.i += 1
            name = self.ident()
            if name in gen_index:
                raise self.error(f"generator {name!r} declared twice", len(name), self.i - 1)
            gen_index[name] = len(gen_index)
        self.declare(gen_index)
        self.take("|")
        relators: list[Word] = []
        if self.tokens[self.i] not in _CLOSE:
            relators.append(self.relator())
            while self.tokens[self.i] == ",":
                self.i += 1
                relators.append(self.relator())
        self.take(*_CLOSE)
        self.end("trailing input after presentation")
        return Presentation(list(gen_index), relators)

    def relator(self) -> Word:
        letters = self.word()
        if self.tokens[self.i] == "=":
            self.i += 1
            letters += invert(self.word())
        return Word(letters)

    def word(self) -> list[int]:
        """Letters of one or more atoms, up to a token that cannot start one.

        A declared name, bare or to the power -1 (all that raw Reidemeister-
        Schreier output writes), is read here; every other atom, and all
        malformed input, goes through ``atom()`` at the same token, with the
        same errors.  Whether an atom has been read is told by the token
        position, since a group can reduce to no letters."""
        tokens, names = self.tokens, self.gen_index
        letters: list[int] = []
        start = i = self.i
        while True:
            g = names.get(tokens[i])
            if g is not None:
                if tokens[i + 1] != "^":
                    letters.append(g + 1)
                    i += 1
                    continue
                if tokens[i + 2] == "-1":
                    letters.append(-g - 1)
                    i += 3
                    continue
            elif i != start and tokens[i] != "(" and tokens[i][:1] not in _IDENT_START:
                self.i = i
                return letters
            self.i = i
            letters += self.atom()
            i = self.i

    def atom(self) -> list[int]:
        if self.tokens[self.i] == "(":
            self.i += 1
            # reduced here so that a power of a group that cancels stays short
            letters = list(reduce_letters(self.word()))
            self.take(")")
        else:
            run = self.ident()
            g = self.gen_index.get(run)
            if g is not None:
                letters = [g + 1]
            else:
                letters = self.split(run)
                if self.tokens[self.i] == "^":
                    # the exponent binds to the last letter of the run, and
                    # a second one is an error, as after a declared name
                    letters[-1:] = self.power(letters[-1:])
                    return letters
        if self.tokens[self.i] == "^":
            letters = self.power(letters)
        return letters

    def split(self, run: str) -> list[int]:
        """Letters of the just-read run that is not a declared name: at each
        position the longest declared name, found by dict lookups of the
        prefixes from the longest name's length down."""
        letters = []
        i = 0
        while i < len(run):
            for j in range(min(len(run), i + self.longest), i, -1):
                g = self.gen_index.get(run[i:j])
                if g is not None:
                    break
            else:
                raise self.error(f"undeclared generator in {run!r}", i, self.i - 1)
            letters.append(g + 1)
            i = j
        return letters


def parse_presentation(text: str) -> Presentation:
    """Parse the DSL; raises ParseError with line/column on bad input."""
    parser = _Parser(text)
    return parser.nested(parser.presentation)


def parse_word(p: Presentation, text: str) -> Word:
    """Parse a single word over the generators of an existing presentation."""
    parser = _Parser(text, p.generators)
    w = Word(parser.nested(parser.word))
    parser.end("trailing input after word")
    return w
