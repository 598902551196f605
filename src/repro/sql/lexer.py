"""A hand-written lexer for the SQL subset.

Keywords and identifiers are case-insensitive and normalized to upper case;
string literals (single-quoted, with ``''`` as the escape for a quote)
preserve their exact contents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import LexerError


class TokenType(enum.Enum):
    """Kinds of lexical tokens."""
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


KEYWORDS = frozenset(
    {
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "ORDER", "BY",
        "ASC", "DESC", "AND", "OR", "NOT", "BETWEEN", "IN", "IS", "NULL",
        "LIKE", "AS", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
        "DELETE", "CREATE", "DROP", "TABLE", "INDEX", "UNIQUE", "CLUSTER",
        "ON", "INTEGER", "INT", "FLOAT", "VARCHAR", "STATISTICS", "HAVING",
        "SEGMENT",
    }
)

_SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "+", "-", "*", "/")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset."""
    type: TokenType
    value: object
    position: int

    def matches_keyword(self, keyword: str) -> bool:
        """True when this token is the given keyword."""
        return self.type is TokenType.KEYWORD and self.value == keyword

    def matches_symbol(self, symbol: str) -> bool:
        """True when this token is the given symbol."""
        return self.type is TokenType.SYMBOL and self.value == symbol

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "<end of input>"
        return repr(self.value)


class Lexer:
    """Streaming tokenizer over SQL text."""

    def __init__(self, text: str):
        self._text = text
        self._position = 0

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, ending with EOF."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        text, position = self._text, self._position
        if position >= len(text):
            return Token(TokenType.EOF, None, position)
        char = text[position]
        if char == "'":
            return self._string_literal()
        if char.isdigit() or (
            char == "." and position + 1 < len(text) and text[position + 1].isdigit()
        ):
            return self._number()
        if char.isalpha() or char == "_":
            return self._word()
        for symbol in _SYMBOLS:
            if text.startswith(symbol, position):
                self._position += len(symbol)
                value = "<>" if symbol == "!=" else symbol
                return Token(TokenType.SYMBOL, value, position)
        raise LexerError(f"unexpected character {char!r}", position)

    def _skip_whitespace_and_comments(self) -> None:
        text = self._text
        while self._position < len(text):
            char = text[self._position]
            if char.isspace():
                self._position += 1
            elif text.startswith("--", self._position):
                newline = text.find("\n", self._position)
                self._position = len(text) if newline < 0 else newline + 1
            else:
                return

    def _string_literal(self) -> Token:
        text, start = self._text, self._position
        position = start + 1
        parts: list[str] = []
        while position < len(text):
            char = text[position]
            if char == "'":
                if text.startswith("''", position):
                    parts.append("'")
                    position += 2
                    continue
                self._position = position + 1
                return Token(TokenType.STRING, "".join(parts), start)
            parts.append(char)
            position += 1
        raise LexerError("unterminated string literal", start)

    def _number(self) -> Token:
        text, start = self._text, self._position
        position = start
        is_float = False
        while position < len(text) and (
            text[position].isdigit() or text[position] == "."
        ):
            if text[position] == ".":
                # ``EMP.DNO`` must not swallow the dot after a digitless run,
                # and ``1.2.3`` is malformed.
                if is_float:
                    raise LexerError("malformed number", start)
                is_float = True
            position += 1
        literal = text[start:position]
        if literal.endswith("."):
            # Trailing dot belongs to a qualified name, not the number.
            position -= 1
            literal = literal[:-1]
            is_float = False
        self._position = position
        if is_float:
            return Token(TokenType.FLOAT, float(literal), start)
        return Token(TokenType.INTEGER, int(literal), start)

    def _word(self) -> Token:
        text, start = self._text, self._position
        position = start
        while position < len(text) and (
            text[position].isalnum() or text[position] == "_"
        ):
            position += 1
        self._position = position
        word = text[start:position].upper()
        if word in KEYWORDS:
            return Token(TokenType.KEYWORD, word, start)
        return Token(TokenType.IDENT, word, start)


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, including the trailing EOF token."""
    return Lexer(text).tokens()
