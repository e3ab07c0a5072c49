"""A lexer for real-world SQL dump files.

Real ``.sql`` files in FOSS repositories are noisy: MySQL conditional
comments (``/*!40101 ... */``), ``--`` and ``#`` line comments, backtick
or double-quote or bracket-quoted identifiers, doubled-quote escapes,
backslash escapes, and the occasional stray byte.  The lexer is built to
never crash on that noise: anything it cannot classify becomes an
OPERATOR token and the parser decides whether it matters.

Implementation note: the study parses every version of every schema
history.  Tokens are produced by one compiled master regex rather than
per-character dispatch (about 10x faster on CPython).  Consecutive
versions share most of their statements, so the lenient script parse
lexes and parses each distinct statement once per memo (see
:func:`repro.sqlddl.parser.parse_script`).  :func:`cut_segment` cuts one
statement at the lexer's own top-level ``;`` token, several times faster
than lexing the same text, and most cuts are not even that: a segment the
memo already holds is found with a ``str.find`` of the next ``;``.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.sqlddl.errors import SqlLexError
from repro.sqlddl.tokens import Token, TokenKind

_MASTER = re.compile(
    r"""
      (?P<WS>[ \t\r\n\f\v]+)
    | (?P<LINECOMMENT>--[^\n]*|\#[^\n]*)
    | (?P<EXECOPEN>/\*!\d*)
    | (?P<BLOCKCOMMENT>/\*(?!!)(?:[^*]|\*(?!/))*\*/)
    | (?P<EXECCLOSE>\*/)
    | (?P<STRING>'(?:[^'\\]|\\.|'')*')
    | (?P<BACKTICK>`(?:[^`]|``)*`)
    | (?P<DQUOTE>"(?:[^"]|"")*")
    | (?P<BRACKET>\[[^\]]*\])
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    | (?P<WORD>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<VARIABLE>@@?[A-Za-z0-9_$]*)
    | (?P<PUNCT>[(),;.])
    """,
    re.VERBOSE | re.DOTALL,
)

#: One statement-sized segment of a script: the lexer's own tokens, each
#: taken atomically (a lookahead capture consumed by its backreference,
#: since ``(?>...)`` needs Python 3.11) and none of them a ``;``, plus any
#: character the lexer would emit as an OPERATOR, up to and including
#: the next ``;`` token (group ``END``) or the end of the text.  Built
#: from ``_MASTER`` itself so the two grammars cannot drift.  It fails
#: where lenient lexing carries state across a ``;``: an unterminated
#: quote (its kind goes dead) or an unterminated ``/*`` (the rest is
#: comment).
_SEGMENT = re.compile(
    rf"(?:(?=((?!;)(?:{_MASTER.pattern})|(?!/\*)[^'`\"\[;]))\1)*(?:(?P<END>;)|\Z)",
    re.VERBOSE | re.DOTALL,
)

_PUNCT_KINDS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ".": TokenKind.DOT,
}

_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}

_ESCAPE_RE = re.compile(r"\\(.)|''", re.DOTALL)


def _decode_string(raw: str) -> str:
    """Resolve backslash escapes and doubled quotes in a string body."""
    body = raw[1:-1]
    if "\\" not in body and "''" not in body:
        return body

    def replace(match: re.Match[str]) -> str:
        escaped = match.group(1)
        if escaped is None:  # matched ''
            return "'"
        return _STRING_ESCAPES.get(escaped, escaped)

    return _ESCAPE_RE.sub(replace, body)


class Lexer:
    """Streaming tokenizer over a SQL script.

    Parameters
    ----------
    text:
        Full text of the ``.sql`` file.
    keep_comments:
        When True, MySQL *executable* comments (``/*! ... */``) are
        re-lexed inline, because they often hide the very DDL we need
        (mysqldump wraps ``CREATE TABLE`` options in them).  Plain
        comments are always skipped.
    strict:
        When True (the default), unterminated quoted regions and block
        comments raise :class:`SqlLexError`.  When False — the mode the
        script-level parser uses, since mining must survive binary junk
        committed as ``.sql`` — the offending opener degrades to an
        OPERATOR token and lexing continues.
    """

    def __init__(self, text: str, keep_comments: bool = True, strict: bool = True) -> None:
        self._text = text
        self._keep_executable = keep_comments
        self._strict = strict

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until EOF; the final token is always EOF."""
        text = self._text
        length = len(text)
        pos = 0
        line = 1
        line_start = 0
        match = _MASTER.match

        def advance_lines(chunk: str, start: int) -> None:
            nonlocal line, line_start
            line += chunk.count("\n")
            line_start = start + chunk.rfind("\n") + 1

        # Lenient mode: quote openers whose scan already failed.  A failed
        # scan at p means no closer follows p, so every later opener of
        # that kind fails too (for ``'``, an escaped quote leaves the
        # backslash pairing exactly as the failed scan saw it); they
        # become OPERATOR tokens without rescanning, keeping lexing linear.
        dead = ""
        while pos < length:
            if dead and text[pos] in dead:
                yield Token(TokenKind.OPERATOR, text[pos], line, pos - line_start + 1)
                pos += 1
                continue
            m = match(text, pos)
            if m is None:
                ch = text[pos]
                if ch in "'`\"[":
                    if self._strict:
                        raise SqlLexError(
                            f"unterminated {ch!r}-quoted region",
                            line,
                            pos - line_start + 1,
                        )
                    dead += ch
                if text.startswith("/*", pos):
                    if self._strict:
                        raise SqlLexError(
                            "unterminated block comment", line, pos - line_start + 1
                        )
                    break  # lenient: the rest of the file is comment
                yield Token(TokenKind.OPERATOR, ch, line, pos - line_start + 1)
                pos += 1
                continue
            kind = m.lastgroup
            raw = m.group()
            column = pos - line_start + 1
            end = m.end()
            if kind == "WS" or kind == "LINECOMMENT" or kind == "BLOCKCOMMENT":
                if "\n" in raw:
                    advance_lines(raw, pos)
                pos = end
                continue
            if kind == "EXECOPEN":
                if self._keep_executable:
                    pos = end  # lex the body inline; EXECCLOSE eats '*/'
                    continue
                closing = text.find("*/", end)
                if closing < 0:
                    if self._strict:
                        raise SqlLexError("unterminated block comment", line, column)
                    break  # lenient: the rest of the file is comment
                advance_lines(text[pos : closing + 2], pos)
                pos = closing + 2
                continue
            if kind == "EXECCLOSE":
                pos = end
                continue
            if kind == "STRING":
                yield Token(TokenKind.STRING, _decode_string(raw), line, column)
            elif kind == "BACKTICK":
                yield Token(TokenKind.QUOTED_IDENT, raw[1:-1].replace("``", "`"), line, column)
            elif kind == "DQUOTE":
                yield Token(TokenKind.QUOTED_IDENT, raw[1:-1].replace('""', '"'), line, column)
            elif kind == "BRACKET":
                yield Token(TokenKind.QUOTED_IDENT, raw[1:-1], line, column)
            elif kind == "NUMBER":
                yield Token(TokenKind.NUMBER, raw, line, column)
            elif kind == "WORD":
                yield Token(TokenKind.WORD, raw, line, column)
            elif kind == "VARIABLE":
                yield Token(TokenKind.VARIABLE, raw, line, column)
            else:  # PUNCT
                yield Token(_PUNCT_KINDS[raw], raw, line, column)
            if "\n" in raw:
                advance_lines(raw, pos)
            pos = end
        yield Token(TokenKind.EOF, "", line, pos - line_start + 1)


def tokenize(text: str, keep_comments: bool = True, strict: bool = True) -> list[Token]:
    """Tokenize *text* fully; convenience wrapper around :class:`Lexer`."""
    return list(Lexer(text, keep_comments=keep_comments, strict=strict).tokens())


def cut_segment(text: str, pos: int) -> tuple[int, bool] | None:
    """Cut the segment that starts at top-level position *pos* of *text*.

    Returns ``(end, closed)``: the segment is ``text[pos:end]``, and
    *closed* tells whether it ends with a ``;`` token; otherwise it runs
    to the end of *text* (a final segment may still end with a ``;``
    inside a line comment).  A closed segment is matched from its own
    characters alone, so the same text cuts the same way at any
    top-level position.  Returns ``None`` when an unterminated quote or
    block comment opens before the next ``;`` token, which the lenient
    lexer resolves across segment boundaries.
    """
    found = _SEGMENT.match(text, pos)
    if found is None:
        return None
    return found.end(), found.group("END") is not None


def split_statements(text: str) -> list[str] | None:
    """Cut *text* after each top-level ``;`` token.

    The segments concatenate back to *text*; each but the last ends with
    its ``;``.  Lexed on its own, a segment yields the same ``(kind,
    value)`` tokens as lexing *text* does over its span.  Returns
    ``None`` when *text* holds an unterminated quote or block comment,
    which the lenient lexer resolves across segment boundaries.
    """
    segments: list[str] = []
    pos, length = 0, len(text)
    while True:
        cut = cut_segment(text, pos)
        if cut is None:
            return None
        end = cut[0]
        segments.append(text[pos:end])
        if end == length:
            return segments
        pos = end
