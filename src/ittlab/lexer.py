"""The one lexer behind every text format: types, terms, bases, certificates,
`.itt` theories, constant maps and term pools.

A token is an identifier, one of the symbols `->`, `<=` and `|-`, or any
other single non-space character.  Readers take tokens off one Tokens
cursor and stop at the first token they cannot use, so a judgment is read
as a basis, a term and a type in turn, with no substring read twice.
statements splits the line formats (theories, maps, pools) alike, and every
offset, in a token or in a ParseError, indexes the whole text.  A cursor
finds its offsets only when an error or a rule name asks for one, so a text
that reads cleanly pays for none.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, TypeVar

from .errors import ParseError

IDENT = "identifier"
END = "end of input"
_TOKEN = re.compile(r"[A-Za-z_$][A-Za-z0-9_'$]*|->|<=|\|-|\S")
_STATEMENT = re.compile(r"[^;]+")
# the first characters of an identifier: every other token is a symbol
IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")

T = TypeVar("T")


class Tokens:
    """A cursor over the tokens of src[start:stop].  A token's kind is IDENT,
    END or the symbol itself; its offset indexes all of src.

    The cursor keeps only the token texts, END's the empty string, from one
    regex call.  Offsets are found when something asks for one, an error or
    word(), by one more pass over the same text."""

    __slots__ = ("texts", "pos", "src", "start", "stop", "_offsets")

    def __init__(self, src: str, start: int = 0, stop: int | None = None):
        stop = len(src) if stop is None else stop
        self.texts = _TOKEN.findall(src, start, stop)
        self.texts.append("")
        self.pos = 0
        self.src, self.start, self.stop = src, start, stop
        self._offsets: list[int] | None = None

    def peek(self) -> str:
        """The kind of the next token."""
        text = self.texts[self.pos]
        return IDENT if text[:1] in IDENT_START else text or END

    def _offset(self, i: int) -> int:
        """The offset of token i."""
        if self._offsets is None:
            self._offsets = [
                m.start() for m in _TOKEN.finditer(self.src, self.start, self.stop)
            ]
            self._offsets.append(self.stop)
        return self._offsets[i]

    def at(self) -> int:
        """The offset of the next token."""
        return self._offset(self.pos)

    def last(self) -> int:
        """The offset of the token taken last."""
        return self._offset(self.pos - 1)

    def take(self, kind: str) -> str:
        """Consume the next token, which must be of kind; return its text."""
        text = self.texts[self.pos]
        if (IDENT if text[:1] in IDENT_START else text or END) != kind:
            raise ParseError(f"expected {kind!r}, got {text or END!r}", self.at())
        self.pos += 1
        return text

    def end(self, what: str) -> None:
        if self.texts[self.pos]:
            raise ParseError(f"trailing input after {what}", self.at())

    def word(self) -> str:
        """Consume the tokens up to a space or a parenthesis, joined."""
        first, stop = self.pos, self.at()
        while self.peek() not in ("(", ")", END) and self.at() == stop:
            stop += len(self.take(self.peek()))
        if self.pos == first:
            raise ParseError("expected a rule name", stop)
        return "".join(self.texts[first:self.pos])


def parse(tk: Tokens, read: Callable[[Tokens], T], what: str) -> T:
    """What read makes of all of tk.  Input nested too deep for the
    interpreter's stack is a ParseError, like any other bad input."""
    try:
        out = read(tk)
    except RecursionError:
        raise ParseError(f"{what} nested too deeply", tk.at()) from None
    tk.end(what)
    return out


def statements(src: str) -> Iterator[tuple[int, Tokens]]:
    """(line number, Tokens) for each non-blank statement of src.  A newline
    or `;` ends a statement, and `#` starts a comment that runs to the end
    of its line.  A line's last statement ends before the line break, so its
    end-of-input offset is where the line's text ends."""
    start = 0
    for lineno, line in enumerate(src.splitlines(keepends=True), 1):
        stop = start + len(line.splitlines()[0].partition("#")[0])
        for m in _STATEMENT.finditer(src, start, stop):
            tk = Tokens(src, m.start(), m.end())
            if tk.peek() != END:
                yield lineno, tk
        start += len(line)
