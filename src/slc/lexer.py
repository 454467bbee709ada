"""Shared tokenizer for the spec (.sl) and program (.ir) surface syntaxes.

Both languages use the same lexical vocabulary: identifiers, decimal
integers, a fixed set of punctuation/operator symbols, and ``//`` line
comments. Keywords are not reserved here; the parsers decide which
identifiers are keywords in which position.
"""

from __future__ import annotations

from .value import Value

# Longest-match first.
_SYMBOLS = (
    "==", "!=", "<=", ">=", ":=", "->", "\\/",
    "=", "<", ">", "!", "&", "|", "*", "+", "-",
    "(", ")", "{", "}", ",", ";", ".", ":",
)


class ParseError(Exception):
    """Syntax or resolution error, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(Value):
    __slots__ = ("kind", "text", "line", "col")  # kind: 'ident' | 'int' | 'sym' | 'eof'


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.peek(ahead).text == text and self.peek(ahead).kind != "eof"

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise self.error(f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof"
                             else f"expected {text!r}, found end of input")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.text!r}")
        return self.next()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(f"expected integer, found {tok.text!r}")
        self.next()
        return int(tok.text)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)
