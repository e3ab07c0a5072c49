"""Tests for the SQL lexer."""

import time

import pytest

from repro.sqlddl import Token, TokenKind, tokenize
from repro.sqlddl.errors import SqlLexError
from repro.sqlddl.lexer import split_statements


def kinds(text, **kw):
    return [t.kind for t in tokenize(text, **kw)]


def values(text, **kw):
    return [t.value for t in tokenize(text, **kw) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only_yields_only_eof(self):
        assert kinds(" \t\n\r\f\v ") == [TokenKind.EOF]

    def test_single_word(self):
        tokens = tokenize("SELECT")
        assert tokens[0].kind is TokenKind.WORD
        assert tokens[0].value == "SELECT"

    def test_word_case_preserved(self):
        assert values("CrEaTe") == ["CrEaTe"]

    def test_word_with_underscore_and_digits(self):
        assert values("user_id2") == ["user_id2"]

    def test_word_with_dollar(self):
        assert values("tmp$col") == ["tmp$col"]

    def test_integer_number(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "42"

    def test_decimal_number(self):
        tokens = tokenize("3.14")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "3.14"

    def test_trailing_dot_is_not_part_of_number(self):
        assert kinds("1.") == [TokenKind.NUMBER, TokenKind.DOT, TokenKind.EOF]

    def test_punctuation_kinds(self):
        assert kinds("(),;.")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
            TokenKind.DOT,
        ]

    def test_operator_fallback(self):
        tokens = tokenize("=")
        assert tokens[0].kind is TokenKind.OPERATOR
        assert tokens[0].value == "="

    def test_unicode_noise_becomes_operator(self):
        tokens = tokenize("é")
        assert tokens[0].kind is TokenKind.OPERATOR

    def test_variable(self):
        tokens = tokenize("@old_sql_mode")
        assert tokens[0].kind is TokenKind.VARIABLE
        assert tokens[0].value == "@old_sql_mode"

    def test_system_variable(self):
        tokens = tokenize("@@GLOBAL")
        assert tokens[0].kind is TokenKind.VARIABLE
        assert tokens[0].value == "@@GLOBAL"


class TestQuoting:
    def test_backtick_identifier(self):
        tokens = tokenize("`my table`")
        assert tokens[0].kind is TokenKind.QUOTED_IDENT
        assert tokens[0].value == "my table"

    def test_backtick_doubled_escape(self):
        assert tokenize("`a``b`")[0].value == "a`b"

    def test_double_quote_identifier(self):
        tokens = tokenize('"col name"')
        assert tokens[0].kind is TokenKind.QUOTED_IDENT
        assert tokens[0].value == "col name"

    def test_double_quote_doubled_escape(self):
        assert tokenize('"a""b"')[0].value == 'a"b'

    def test_bracket_identifier(self):
        tokens = tokenize("[dbo]")
        assert tokens[0].kind is TokenKind.QUOTED_IDENT
        assert tokens[0].value == "dbo"

    def test_string_literal(self):
        tokens = tokenize("'hello'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "hello"

    def test_string_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_string_backslash_escapes(self):
        assert tokenize(r"'a\nb'")[0].value == "a\nb"
        assert tokenize(r"'a\tb'")[0].value == "a\tb"
        assert tokenize(r"'a\'b'")[0].value == "a'b"

    def test_string_unknown_escape_keeps_char(self):
        assert tokenize(r"'a\qb'")[0].value == "aqb"

    def test_string_containing_semicolon_stays_one_token(self):
        tokens = tokenize("'a;b'")
        assert tokens[0].value == "a;b"
        assert tokens[1].kind is TokenKind.EOF

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlLexError):
            tokenize("'oops")

    def test_unterminated_backtick_raises(self):
        with pytest.raises(SqlLexError):
            tokenize("`oops")

    def test_empty_string_literal(self):
        assert tokenize("''")[0].value == ""


class TestComments:
    def test_line_comment_dash(self):
        assert values("a -- comment\nb") == ["a", "b"]

    def test_line_comment_hash(self):
        assert values("a # comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* anything ; here */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert values("a /* line1\nline2\n*/ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SqlLexError):
            tokenize("a /* never closed")

    def test_executable_comment_body_is_lexed(self):
        # mysqldump hides options in /*!40101 ... */ comments.
        assert values("/*!40101 SET NAMES utf8 */") == ["SET", "NAMES", "utf8"]

    def test_executable_comment_skipped_without_keep(self):
        assert values("/*!40101 SET NAMES utf8 */", keep_comments=False) == []

    def test_comment_inside_string_is_preserved(self):
        assert tokenize("'-- not a comment'")[0].value == "-- not a comment"

    def test_dashes_without_content(self):
        assert values("a --\nb") == ["a", "b"]


class TestPositions:
    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4

    def test_line_after_block_comment(self):
        tokens = tokenize("/*\n\n*/ x")
        assert tokens[0].line == 3

    def test_eof_is_always_last(self):
        assert tokenize("a b c")[-1].kind is TokenKind.EOF


class TestTokenHelpers:
    def test_is_word_case_insensitive(self):
        token = Token(TokenKind.WORD, "create", 1, 1)
        assert token.is_word("CREATE")

    def test_is_word_rejects_other_kinds(self):
        token = Token(TokenKind.STRING, "CREATE", 1, 1)
        assert not token.is_word("CREATE")

    def test_is_word_multiple_options(self):
        token = Token(TokenKind.WORD, "KEY", 1, 1)
        assert token.is_word("PRIMARY", "KEY")

    def test_upper(self):
        assert Token(TokenKind.WORD, "int", 1, 1).upper == "INT"


class TestRealWorldDumpFragments:
    def test_mysqldump_header(self):
        text = (
            "-- MySQL dump 10.13\n"
            "/*!40101 SET @OLD_CHARACTER_SET_CLIENT=@@CHARACTER_SET_CLIENT */;\n"
        )
        toks = values(text)
        assert "SET" in toks
        assert "@OLD_CHARACTER_SET_CLIENT" in toks

    def test_insert_with_mixed_literals(self):
        toks = tokenize("INSERT INTO t VALUES (1, 'x', NULL, 2.5);")
        string_values = [t.value for t in toks if t.kind is TokenKind.STRING]
        assert string_values == ["x"]

    def test_whole_statement_token_stream(self):
        toks = tokenize("CREATE TABLE `t` (`a` int(11));")
        assert [t.kind for t in toks[:5]] == [
            TokenKind.WORD,
            TokenKind.WORD,
            TokenKind.QUOTED_IDENT,
            TokenKind.LPAREN,
            TokenKind.QUOTED_IDENT,
        ]


class TestLenientUnterminatedOpeners:
    """An opener with no closer degrades to an OPERATOR token, and so
    does every later opener of its kind, in one pass over the text."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "'\\'\\",
                [
                    ("OPERATOR", "'"), ("OPERATOR", "\\"),
                    ("OPERATOR", "'"), ("OPERATOR", "\\"),
                ],
            ),
            (
                "[a [b",
                [("OPERATOR", "["), ("WORD", "a"), ("OPERATOR", "["), ("WORD", "b")],
            ),
            (
                "x 'it\\'s [y",
                [
                    ("WORD", "x"), ("OPERATOR", "'"), ("WORD", "it"), ("OPERATOR", "\\"),
                    ("OPERATOR", "'"), ("WORD", "s"), ("OPERATOR", "["), ("WORD", "y"),
                ],
            ),
            (
                "`a \"b 'c [d",
                [
                    ("OPERATOR", "`"), ("WORD", "a"), ("OPERATOR", '"'), ("WORD", "b"),
                    ("OPERATOR", "'"), ("WORD", "c"), ("OPERATOR", "["), ("WORD", "d"),
                ],
            ),
            (
                "a 'b' 'c",
                [("WORD", "a"), ("STRING", "b"), ("OPERATOR", "'"), ("WORD", "c")],
            ),
            (
                "['[x",
                [("OPERATOR", "["), ("OPERATOR", "'"), ("OPERATOR", "["), ("WORD", "x")],
            ),
        ],
    )
    def test_hostile_token_lists_are_pinned(self, text, expected):
        tokens = tokenize(text, strict=False)
        assert [(t.kind.name, t.value) for t in tokens[:-1]] == expected
        assert tokens[-1].kind is TokenKind.EOF

    def test_strict_mode_raises_at_the_first_unterminated_opener(self):
        with pytest.raises(SqlLexError, match="unterminated \"'\"") as raised:
            tokenize("a [b] 'c [d", strict=True)
        assert raised.value.column == 7

    @pytest.mark.parametrize("unit", ["'\\", "[a ", "`a ", '"a '])
    def test_lexing_time_is_linear_in_hostile_input(self, unit):
        def best_of_three(n: int) -> float:
            text = unit * n
            times = []
            for _ in range(3):
                started = time.perf_counter()
                tokenize(text, strict=False)
                times.append(time.perf_counter() - started)
            return min(times)

        # Linear is about 4; rescanning to EOF from every opener was ~16.
        assert best_of_three(8000) / best_of_three(2000) < 8


class TestSplitterCost:
    """Cutting a script at its ``;`` tokens must cost less than lexing
    it, on hostile text too, or the statement memo cannot pay."""

    MIB = 1 << 20

    @pytest.mark.parametrize(
        "head, unit, tail, cut",
        [
            ("", "CREATE TABLE t (a INT CHECK (x; y));\n", "", True),
            ("", "ALTER TABLE t ENGINE=x);\n", "", True),
            ("", "*/* a; b */\n", "", True),
            ("", "CREATE TABLE t (a INT)\nGO\n", "", True),
            ("", "/*!40101 SET x=1 */;\n", "", True),
            ("", "-- a;b\n", "'", False),  # one unterminated quote, at the end
            ("[", "CREATE TABLE t (a INT);\n", "", False),  # one at the start
            ("", "CREATE TABLE t (a INT);\n", "/*", False),  # cut all, then fail
        ],
    )
    def test_splitting_a_mebibyte_is_cheaper_than_lexing_it(self, head, unit, tail, cut):
        text = head + unit * (self.MIB // len(unit)) + tail
        started = time.perf_counter()
        segments = split_statements(text)
        splitting = time.perf_counter() - started
        started = time.perf_counter()
        tokenize(text, strict=False)
        lexing = time.perf_counter() - started
        assert (segments is not None) is cut
        assert splitting < lexing
