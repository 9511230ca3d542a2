"""The PCL scanner as it was before the one-regex rewrite: a differential oracle.

``repro.lang.tokenize`` must produce exactly these tokens and raise exactly
these errors (see ``tests/lang/test_front_end_differential.py``).
"""

from __future__ import annotations

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenType

_TWO_CHAR_OPS = {
    "==": TokenType.EQ,
    "!=": TokenType.NE,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "&&": TokenType.AND,
    "||": TokenType.OR,
}

_ONE_CHAR_OPS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMI,
    "=": TokenType.ASSIGN,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
}


class Lexer:
    """Converts PCL source text into a list of :class:`Token`.

    Supports ``//`` line comments and ``/* ... */`` block comments, decimal
    integer and float literals, and double-quoted strings (used only by
    ``print``).
    """

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return its tokens, ending with EOF."""
        tokens: list[Token] = []
        while True:
            self._skip_trivia()
            if self._at_end():
                tokens.append(Token(TokenType.EOF, "", self._line, self._column))
                return tokens
            tokens.append(self._next_token())

    # -- internals ---------------------------------------------------------

    def _at_end(self) -> bool:
        return self._pos >= len(self._source)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return "\0"
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._pos]
        self._pos += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _skip_trivia(self) -> None:
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start_line, start_col = self._line, self._column
                self._advance()
                self._advance()
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._at_end():
                        raise LexError("unterminated block comment", start_line, start_col)
                    self._advance()
                self._advance()
                self._advance()
            else:
                return

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        char = self._peek()

        if char.isdigit():
            return self._number(line, column)
        if char.isalpha() or char == "_":
            return self._name(line, column)
        if char == '"':
            return self._string(line, column)

        two = self._peek() + self._peek(1)
        if two in _TWO_CHAR_OPS:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR_OPS[two], two, line, column)
        if char in _ONE_CHAR_OPS:
            self._advance()
            return Token(_ONE_CHAR_OPS[char], char, line, column)

        raise LexError(f"unexpected character {char!r}", line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self._pos
        while self._peek().isdigit():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self._source[start:self._pos]
        token_type = TokenType.FLOAT if is_float else TokenType.INT
        return Token(token_type, text, line, column)

    def _name(self, line: int, column: int) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[start:self._pos]
        token_type = KEYWORDS.get(text, TokenType.NAME)
        return Token(token_type, text, line, column)

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while self._peek() != '"':
            if self._at_end() or self._peek() == "\n":
                raise LexError("unterminated string literal", line, column)
            if self._peek() == "\\":
                self._advance()
                escape = self._advance()
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape))
            else:
                chars.append(self._advance())
        self._advance()  # closing quote
        return Token(TokenType.STRING, "".join(chars), line, column)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenize *source* in one call."""
    return Lexer(source).tokenize()
