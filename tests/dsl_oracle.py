"""The presentation DSL's earlier character-scanning parser, kept verbatim
(but for its imports and the check on huge exponents in ``power``) as the
oracle for the token parser in curvepi.dsl.

It raises the library's ParseError, so the two can be compared by message,
line and column.
"""

from __future__ import annotations

import string
from typing import Optional

from curvepi.dsl import ParseError
from curvepi.presentations import Presentation
from curvepi.words import MAX_LETTERS, Word

_IDENT_START = set(string.ascii_letters)
_IDENT_CONT = set(string.ascii_letters + string.digits + "_'")
_OPEN = {"<", "⟨"}
_CLOSE = {">", "⟩"}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def loc(self, pos: Optional[int] = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        head = self.text[:pos]
        line = head.count("\n") + 1
        col = pos - (head.rfind("\n") + 1) + 1
        return line, col

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        line, col = self.loc(pos)
        return ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: set[str] | str) -> str:
        ch = self.peek()
        allowed = {expected} if isinstance(expected, str) else expected
        if ch not in allowed:
            want = "/".join(sorted(allowed))
            got = repr(ch) if ch else "end of input"
            raise self.error(f"expected {want}, found {got}")
        self.pos += 1
        return ch

    def ident(self) -> str:
        ch = self.peek()
        if ch not in _IDENT_START:
            raise self.error("expected an identifier")
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start : self.pos]

    def signed_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        value = int(self.text[start : self.pos])
        if value == 0:
            raise self.error("zero exponent is not allowed", start)
        return value


class _Parser:
    def __init__(self, text: str):
        self.s = _Scanner(text)
        self.gens: list[str] = []
        self.gen_index: dict[str, int] = {}

    def parse(self) -> Presentation:
        s = self.s
        s.take(_OPEN)
        if s.peek() != "|":
            self.gen_index[s.ident()] = 0
        while s.peek() == ",":
            s.take(",")
            name = s.ident()
            if name in self.gen_index:
                raise s.error(f"generator {name!r} declared twice")
            self.gen_index[name] = len(self.gen_index)
        self.gens = list(self.gen_index)
        s.take("|")
        relators: list[Word] = []
        if s.peek() not in _CLOSE:
            relators.append(self.relator())
            while s.peek() == ",":
                s.take(",")
                relators.append(self.relator())
        s.take(_CLOSE)
        s.skip_ws()
        if s.pos != len(s.text):
            raise s.error("trailing input after presentation")
        return Presentation(self.gens, relators)

    def relator(self) -> Word:
        lhs = self.word()
        if self.s.peek() == "=":
            self.s.take("=")
            rhs = self.word()
            return lhs * ~rhs
        return lhs

    def word(self) -> Word:
        out = self.atom()
        while True:
            ch = self.s.peek()
            if ch == "(" or ch in _IDENT_START:
                out = out * self.atom()
            else:
                return out

    def atom(self) -> Word:
        s = self.s
        if s.peek() == "(":
            s.take("(")
            base = self.word()
            s.take(")")
        else:
            pos = s.pos
            base = self.ident_word()
            if "^" in s.text[pos : s.pos]:
                # a split run took its exponent; a second one is an error
                return base
        if s.peek() == "^":
            return self.power(base)
        return base

    def power(self, base: Word) -> Word:
        """``base`` to the signed integer after the next "^"."""
        s = self.s
        s.take("^")
        s.skip_ws()
        start = s.pos
        e = s.signed_int()
        if max(len(base), 1) * abs(e) > MAX_LETTERS:
            raise s.error(f"power makes a word longer than {MAX_LETTERS} letters", start)
        return base ** e

    def ident_word(self) -> Word:
        """One identifier run, split into declared generators.

        A trailing ^exp binds to the final generator of the run, so "ab^2"
        parses as a b^2.
        """
        s = self.s
        start_pos = s.pos
        run = s.ident()
        if run in self.gen_index:
            return Word.gen(self.gen_index[run])
        letters: list[int] = []
        i = 0
        while i < len(run):
            match = None
            for name, idx in self.gen_index.items():
                if run.startswith(name, i) and (match is None or len(name) > len(match[0])):
                    match = (name, idx)
            if match is None:
                raise s.error(
                    f"undeclared generator in {run!r}", start_pos + i
                )
            letters.append(match[1] + 1)
            i += len(match[0])
        if s.peek() == "^":
            # exponent applies to the last letter only
            last = letters.pop()
            return Word(letters) * self.power(Word((last,)))
        return Word(letters)


def parse_presentation(text: str) -> Presentation:
    """Parse the DSL; raises ParseError with line/column on bad input."""
    return _Parser(text).parse()


def parse_word(p: Presentation, text: str) -> Word:
    """Parse a single word over the generators of an existing presentation."""
    parser = _Parser(text)
    parser.gens = list(p.generators)
    parser.gen_index = {g: i for i, g in enumerate(parser.gens)}
    w = parser.word()
    parser.s.skip_ws()
    if parser.s.pos != len(text):
        raise parser.s.error("trailing input after word")
    return w
