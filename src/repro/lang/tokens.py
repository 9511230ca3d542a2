"""Token definitions for PCL, the parallel C-like language used by PPD.

PCL is the source language the reproduced debugger operates on.  It covers
the constructs the paper's examples use: assignments, ``if``/``while``/
``for``, functions and procedures, shared variables, semaphores (``P``/
``V``), locks, message channels, and process spawning.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Every lexical category PCL knows about."""

    # Literals and identifiers.
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    NAME = "NAME"

    # Keywords.
    KW_SHARED = "shared"
    KW_SEM = "sem"
    KW_CHAN = "chan"
    KW_LOCK_DECL = "lockvar"
    KW_FUNC = "func"
    KW_PROC = "proc"
    KW_INT = "int"
    KW_FLOAT = "float"
    KW_BOOL = "bool"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_SPAWN = "spawn"
    KW_SEND = "send"
    KW_RECV = "recv"
    KW_PRINT = "print"
    KW_ASSERT = "assert"
    KW_P = "P"
    KW_V = "V"
    KW_LOCK = "lock"
    KW_UNLOCK = "unlock"
    KW_JOIN = "join"
    KW_ENTRY = "entry"
    KW_CALL = "call"
    KW_ACCEPT = "accept"
    KW_REPLY = "reply"

    # Punctuation and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "EOF"

    # Members are singletons that compare by identity.  Hash them the same
    # way, in C: ``Enum.__hash__`` is a Python call, and the parser looks a
    # token type up in a dict several times per token.
    __hash__ = object.__hash__


#: Keywords that the lexer recognises.  ``P`` and ``V`` are the paper's
#: semaphore operations and are treated as keywords only when followed by
#: ``(`` (handled in the parser; lexed as keywords here for simplicity).
KEYWORDS: dict[str, TokenType] = {
    "shared": TokenType.KW_SHARED,
    "sem": TokenType.KW_SEM,
    "chan": TokenType.KW_CHAN,
    "lockvar": TokenType.KW_LOCK_DECL,
    "func": TokenType.KW_FUNC,
    "proc": TokenType.KW_PROC,
    "int": TokenType.KW_INT,
    "float": TokenType.KW_FLOAT,
    "bool": TokenType.KW_BOOL,
    "if": TokenType.KW_IF,
    "else": TokenType.KW_ELSE,
    "while": TokenType.KW_WHILE,
    "for": TokenType.KW_FOR,
    "return": TokenType.KW_RETURN,
    "break": TokenType.KW_BREAK,
    "continue": TokenType.KW_CONTINUE,
    "true": TokenType.KW_TRUE,
    "false": TokenType.KW_FALSE,
    "spawn": TokenType.KW_SPAWN,
    "send": TokenType.KW_SEND,
    "recv": TokenType.KW_RECV,
    "print": TokenType.KW_PRINT,
    "assert": TokenType.KW_ASSERT,
    "P": TokenType.KW_P,
    "V": TokenType.KW_V,
    "lock": TokenType.KW_LOCK,
    "unlock": TokenType.KW_UNLOCK,
    "join": TokenType.KW_JOIN,
    "entry": TokenType.KW_ENTRY,
    "call": TokenType.KW_CALL,
    "accept": TokenType.KW_ACCEPT,
    "reply": TokenType.KW_REPLY,
}


class Token(NamedTuple):
    """A single lexeme with its source position (1-based line/column)."""

    type: TokenType
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r}, {self.line}:{self.column})"
