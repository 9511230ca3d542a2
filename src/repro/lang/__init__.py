"""PCL: the parallel C-like language the reproduced PPD debugger operates on.

The paper instruments C programs for shared-memory multiprocessors; PCL is
this reproduction's equivalent source language.  This package provides the
front end and the AST:

* :func:`tokenize`, a scanner built on one compiled regular expression;
* :func:`parse` (and its :class:`Parser`), recursive descent for
  statements and precedence climbing over one operator table for binary
  expressions;
* :mod:`ast`, whose nodes carry ids in creation order and ``s``-labels;
* the pretty-printer, and the typed errors every malformed input raises
  (:class:`LexError`, :class:`ParseError`, both :class:`PCLError`).
"""

from .._lazy import lazy_exports

__all__ = [
    "ast",
    "BUILTINS",
    "LexError",
    "ParseError",
    "Parser",
    "PCLError",
    "SemanticError",
    "expr_to_str",
    "parse",
    "program_to_str",
    "statement_source",
    "stmt_to_str",
    "tokenize",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "errors": ("LexError", "ParseError", "PCLError", "SemanticError"),
        "lexer": ("tokenize",),
        "parser": ("BUILTINS", "Parser", "parse"),
        "pretty": ("expr_to_str", "program_to_str", "statement_source", "stmt_to_str"),
    },
)
