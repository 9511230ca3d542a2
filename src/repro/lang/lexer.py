"""The PCL scanner: one compiled regular expression, one pass.

Each match of :data:`_SCAN` is the trivia (whitespace and comments) before a
token, then the token itself in one named group, so a source of N tokens
costs N+1 matches.  Only the trivia and string literals can span lines,
and only they touch the line count.

The character classes are the language's, exactly: whitespace is space,
tab, CR and LF; a name starts with a character for which ``str.isalpha``
is true, or ``_``, and continues with ``str.isalnum`` characters or ``_``
(``\\w``); a number is a run of ``str.isdecimal`` digits (``\\d``) with an
optional ``.digits`` fraction.  Strings are double-quoted, end on the
line they start on unless a newline is escaped, and know the escapes
``\\n``, ``\\t``, ``\\"`` and ``\\\\`` (any other escaped character stands
for itself).  Anything else is a :class:`LexError` at the offending
character.
"""

from __future__ import annotations

import re

from .errors import LexError
from .tokens import KEYWORDS, Token, TokenType

_OPERATORS = {
    token_type.value: token_type
    for token_type in TokenType
    if not token_type.value.isalnum()
}

#: Trivia, then exactly one named group.  ``unclosed_comment`` is a ``/*``
#: the trivia could not close (it must come before ``op``'s ``/``), and
#: ``unclosed_string`` a quote ``string`` could not.  A name's first
#: character is a word character but not a decimal digit; the scan rejects
#: the few of those that are not letters (``²``, ``½``) itself.
_SCAN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*"
    r"(?:(?P<name>[^\W\d]\w*)"
    r"|(?P<unclosed_comment>/\*)"
    r"|(?P<op>[=!<>]=|&&|\|\||[-(){}\[\],;=+*/%<>!])"
    r"|(?P<float>\d+\.\d+)"
    r"|(?P<int>\d+)"
    r'|(?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")'
    r'|(?P<unclosed_string>")'
    r"|(?P<end>\Z)"
    r"|(?P<other>[\s\S]))"
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}

#: Builds a token without ``Token.__new__``'s Python-level frame.
_new_token = tuple.__new__


def _unescape(match: re.Match) -> str:
    char = match[1]
    return _ESCAPES.get(char, char)


def tokenize(source: str) -> list[Token]:
    """Scan PCL *source* into its tokens, ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    operators = _OPERATORS
    name_type = TokenType.NAME
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _SCAN.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        if match.start() != start:  # trivia came first
            newlines = source.count("\n", match.start(), start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", match.start(), start) + 1
        column = start - line_start + 1
        text = match[kind]
        if kind == "name":
            first = text[0]
            if not (first.isalpha() or first == "_"):
                raise LexError(f"unexpected character {first!r}", line, column)
            append(_new_token(Token, (keywords.get(text, name_type), text, line, column)))
        elif kind == "op":
            append(_new_token(Token, (operators[text], text, line, column)))
        elif kind == "int":
            append(_new_token(Token, (TokenType.INT, text, line, column)))
        elif kind == "float":
            append(_new_token(Token, (TokenType.FLOAT, text, line, column)))
        elif kind == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(_new_token(Token, (TokenType.STRING, body, line, column)))
            newlines = text.count("\n")  # escaped newlines
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "end":
            append(_new_token(Token, (TokenType.EOF, "", line, column)))
            return tokens
        elif kind == "unclosed_comment":
            raise LexError("unterminated block comment", line, column)
        elif kind == "unclosed_string":
            raise LexError("unterminated string literal", line, column)
        else:
            raise LexError(f"unexpected character {text!r}", line, column)
    raise AssertionError("the scan always ends with an 'end' match")  # pragma: no cover
