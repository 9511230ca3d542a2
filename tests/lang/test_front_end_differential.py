"""The front end against its oracle: the scanner and parser it replaced.

``tests/oracle/lexer.py`` and ``tests/oracle/parser.py`` are the
character-at-a-time scanner and the one-function-per-precedence-level
parser, unchanged.  On every input, the current front end must give the
same tokens, the same AST (every field, node id, position and ``s``-label
included) and the same error (type, message and position).

The only allowed differences are two inputs the oracle never handled,
each of which escaped it as a raw exception:

* a number with a non-decimal digit (``x = ²;``): the oracle scans ``²``
  as a digit, and its parser's ``int()`` raises ``ValueError``;
* a string cut off after a backslash (``print("abc\\``): the oracle's
  escape handling reads past the end and raises ``IndexError``.

The current scanner raises :class:`LexError` on both: at the offending
character for the first, and as an unterminated string at its opening
quote for the second.
"""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.lang import LexError, ast, parse, tokenize
from repro.lang.tokens import TokenType
from tests.oracle.lexer import Lexer as OracleLexer
from tests.oracle.parser import parse as oracle_parse
from tests.test_fuzz import programs
from tests.test_fuzz_parallel import parallel_programs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def dump(value):
    """Every field of an AST, recursively, with each node's type."""
    if isinstance(value, ast.Node):
        return (type(value).__name__,) + tuple(
            (f.name, dump(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, list):
        return [dump(item) for item in value]
    return value


def outcome(fn, source):
    """("ok", result) or ("error", type, message, line, column)."""
    try:
        return ("ok", fn(source))
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return (
            "error",
            type(error).__name__,
            str(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
        )


def oracle_scan(source):
    """The oracle's tokens up to its first error, that error, and where the
    token it failed on starts."""
    lexer = OracleLexer(source)
    tokens = []
    start = (1, 1)
    while True:
        try:
            lexer._skip_trivia()
            start = (lexer._line, lexer._column)
            if lexer._at_end():
                return tokens + lexer.tokenize(), None, start  # the EOF token
            tokens.append(lexer._next_token())
        except Exception as error:  # noqa: BLE001
            return tokens, error, start


def _is_number_with_non_decimal_digit(token) -> bool:
    return token.type in (TokenType.INT, TokenType.FLOAT) and not all(
        char.isdecimal() or char == "." for char in token.text
    )


def check_front_end(source: str) -> None:
    """Assert the current front end agrees with the oracle on *source*."""
    oracle_tokens, oracle_error, failed_at = oracle_scan(source)
    scanned = outcome(tokenize, source)

    bad_number = next(
        (t for t in oracle_tokens if _is_number_with_non_decimal_digit(t)), None
    )
    if bad_number is not None:
        # Allowed difference 1: a LexError inside the oracle's number.
        kind, error_type, _message, line, column = scanned
        assert (kind, error_type, line) == ("error", "LexError", bad_number.line)
        assert bad_number.column <= column < bad_number.column + len(bad_number.text)
        assert outcome(parse, source) == scanned
        return
    if isinstance(oracle_error, IndexError):
        # Allowed difference 2: an unterminated string at its quote.
        line, column = failed_at
        assert scanned == (
            "error",
            "LexError",
            f"{line}:{column}: lex error: unterminated string literal",
            line,
            column,
        )
        assert outcome(parse, source) == scanned
        return

    expected = outcome(lambda text: [tuple(t) for t in OracleLexer(text).tokenize()], source)
    assert outcome(lambda text: [tuple(t) for t in tokenize(text)], source) == expected

    parsed = outcome(lambda text: dump(parse(text)), source)
    assert parsed == outcome(lambda text: dump(oracle_parse(text)), source)


# -- the two allowed differences ---------------------------------------------


@pytest.mark.parametrize(
    "source,line,column",
    [
        ("proc main() { int x = ²; }", 1, 23),
        ("proc main() { int x = 1²; }", 1, 24),
        ("shared int a[³];", 1, 14),
        ("proc main() { int x = ٣²; }", 1, 24),
    ],
)
def test_non_decimal_digit_is_a_lex_error(source, line, column):
    with pytest.raises(LexError) as caught:
        tokenize(source)
    assert (caught.value.line, caught.value.column) == (line, column)
    assert str(caught.value).endswith(f"unexpected character {source[column - 1]!r}")
    with pytest.raises(ValueError):
        oracle_parse(source)  # the defect the differential allows
    check_front_end(source)


@pytest.mark.parametrize("source", ['print("abc\\', 'proc main() {\n  print("a\\'])
def test_string_cut_off_after_a_backslash_is_a_lex_error(source):
    quote_line = source.count("\n") + 1
    quote_column = source.rindex('"') - (source.rfind("\n") + 1) + 1
    with pytest.raises(LexError, match="unterminated string literal") as caught:
        tokenize(source)
    assert (caught.value.line, caught.value.column) == (quote_line, quote_column)
    with pytest.raises(IndexError):
        OracleLexer(source).tokenize()  # the defect the differential allows
    check_front_end(source)


# -- shipped programs ----------------------------------------------------------


def _workload_sources():
    sources = {}
    for name in workloads.__all__:
        generator = getattr(workloads, name)
        if not callable(generator) or name == "mpi_workload":
            continue
        parameters = inspect.signature(generator).parameters
        sources[name] = generator()
        if "deviant" in parameters:
            sources[f"{name}/deviant"] = generator(8, deviant=3)
    for path in sorted(EXAMPLES.glob("*.pcl")):
        sources[f"examples/{path.name}"] = path.read_text()
    return sources


SHIPPED = _workload_sources()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_program(name):
    source = SHIPPED[name]
    check_front_end(source)
    assert parse(source).procs  # a real program, not an error on both sides


# -- generated and random text ---------------------------------------------------

#: Characters that exercise every scanner rule, non-ASCII letters and
#: digits of both kinds included.
_ALPHABET = (
    "abcxyzPV_019 \t\r\n(){}[],;=+-*/%<>!&|.\"\\'#@$`~"
    "éßΣж٣²³½ⅫĀ  \x00"
)
_snippets = st.sampled_from(
    ["//", "/*", "*/", '"', "\\", "==", "!=", "&&", "||", "1.5", "1.", ".5",
     "proc main() {", "}", "int x = ", "while (", "if (", "else", "func int f(",
     "shared int s;", "sem m = 1;", "chan c[2];", "P(m);", "V(m);", "recv(c)",
     "call E(", "accept E(int a) {", "reply ", "spawn w(", "print(", ";"]
)
_random_text = st.lists(
    st.one_of(st.text(_ALPHABET, max_size=6), st.text(max_size=3), _snippets),
    max_size=30,
).map("".join)


def _damage(source: str, where: int, how: str) -> str:
    """*source* cut at, or with one character dropped or doubled at, *where*."""
    if not source:
        return source
    index = where % len(source)
    if how == "cut":
        return source[:index]
    if how == "drop":
        return source[:index] + source[index + 1 :]
    return source[:index] + source[index] + source[index:]


def _truncated_and_mutated(source_strategy):
    return st.tuples(
        source_strategy, st.integers(0, 10**6), st.sampled_from(["cut", "drop", "double"])
    ).map(lambda case: _damage(*case))


@given(programs())
@settings(max_examples=60, deadline=None)
def test_generated_programs(source):
    check_front_end(source)


@given(parallel_programs())
@settings(max_examples=40, deadline=None)
def test_generated_parallel_programs(case):
    check_front_end(case[0])


@given(_truncated_and_mutated(st.one_of(programs(), st.sampled_from(sorted(SHIPPED.values())))))
@settings(max_examples=200, deadline=None)
def test_truncated_and_mutated_programs(source):
    check_front_end(source)


@given(_random_text)
@settings(max_examples=400, deadline=None)
def test_random_text(source):
    check_front_end(source)
