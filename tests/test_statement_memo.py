"""The lenient parse's statement memo returns exactly the whole-script parse.

``parse_script`` cuts a script at the lexer's top-level ``;`` tokens and
reuses the statements of every segment it has parsed before; a segment
the memo holds is found by the next ``;`` character alone.  Every case
here compares against :func:`parse_whole_script`, the one-pass parse that
stays as the strict path and the fallback.
"""

from __future__ import annotations

import random

import pytest

from repro.pipeline import SchemaCache
from repro.pipeline.stages import usable_versions
from repro.schema import build_schema
from repro.sqlddl import parser as parser_mod
from repro.sqlddl.ast import CreateTable, IgnoredStatement
from repro.sqlddl.lexer import split_statements, tokenize
from repro.sqlddl.parser import parse_script, parse_whole_script
from repro.synthesis import CorpusSpec, build_corpus
from repro.synthesis.stream import StreamSpec, synthesize_project
from repro.vcs.history import extract_file_history

#: Fragments that stress the splitter and the exactness rule: a ``;``
#: inside a CHECK's parentheses, ALTER options with an unclosed ``(`` or a
#: stray ``)``, a stray ``*/`` before a comment holding ``;``, GO
#: separators, executable comments, unterminated quotes and comments, and
#: line comments that end a script just after a ``;``.
HOSTILE_ATOMS = (
    "CREATE TABLE t (a INT CHECK (x;", " y));", "CHECK (x; y)",
    "ALTER TABLE t ENGINE=x);", "*/* a; b */", "/* c; d */", "GO", "\nGO\n",
    "/*!40101 SET x=1 */;", "/*!40101 ENGINE=InnoDB", "*/",
    "'", "[", "/*", "`", '"', "'a;b'", "'it''s;'", "'\\';", "[c;d]", "`e;f`", '"g;h"',
    "CREATE TABLE t (a INT, b VARCHAR(10));", "CREATE TABLE u (x INT PRIMARY KEY);",
    "CREATE TABLE v (raw, n INT);", "CREATE TABLE w (a INT, a INT);",
    "CREATE TABLE IF NOT EXISTS t (z INT);", "CREATE TABLE t (a INT)",
    "ALTER TABLE t ADD COLUMN c INT;", "ALTER TABLE t DROP COLUMN a;",
    "ALTER TABLE t CHANGE a b INT;", "ALTER TABLE t RENAME COLUMN b TO a;",
    "ALTER TABLE t RENAME TO u;", "RENAME TABLE u TO t;", "RENAME TABLE t TO u, u TO t;",
    "ALTER TABLE t ADD PRIMARY KEY (a, b);", "ALTER TABLE t ADD (p INT, q INT);",
    "ALTER TABLE t ALTER COLUMN a TYPE TEXT USING (a;", "DROP TABLE t;",
    "INSERT INTO t VALUES (1, 'x;y');", "SET @x = 1;", ";", ";;", "-- x;y\n", "# z;\n",
    "CREATE", "TABLE", "ALTER TABLE", "DEFAULT", "(", ")", ",", "a", "INT", "\\", " ", "\n",
    "-- c;", "# d;", "-- e; CREATE TABLE z (q INT)",
)

#: Scripts whose first segment, parsed as a script's last, looks past
#: its ``;``: stored in the memo, it would answer for the same text
#: inside a longer script.
POISONING_PAIR = (
    "CREATE TABLE t (a INT CHECK (x;",
    "CREATE TABLE t (a INT CHECK (x; y)); CREATE TABLE u (b INT);",
)

#: A script whose last segment ends with a ``;`` inside a line comment:
#: stored, that segment would answer for the text through the same ``;``
#: in a longer script, where the comment runs on to the end of its line.
COMMENT_PAIR = (
    "CREATE TABLE a (x INT); -- c;",
    "CREATE TABLE a (x INT); -- c; CREATE TABLE z (q INT)\nCREATE TABLE b (y INT);",
)


def hostile_scripts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(
            rng.choice(HOSTILE_ATOMS) + rng.choice(("", " ", "\n"))
            for _ in range(rng.randint(1, 14))
        )
        for _ in range(count)
    ]


def pairs(tokens):
    return [(token.kind, token.value) for token in tokens]


class TestSplitter:
    def test_segments_concatenate_and_relex_to_the_whole_tokens(self):
        for text in hostile_scripts(seed=17, count=3000):
            segments = split_statements(text)
            if segments is None:
                continue
            assert "".join(segments) == text
            for segment in segments[:-1]:
                assert tokenize(segment, strict=False)[-2].value == ";"
            relexed = [
                pair for segment in segments for pair in pairs(tokenize(segment, strict=False))[:-1]
            ]
            assert relexed == pairs(tokenize(text, strict=False))[:-1], text

    @pytest.mark.parametrize(
        "text", ["a; 'b", "a; [b", "a; `b", 'a; "b', "a; /* b; c"]
    )
    def test_text_the_lexer_resolves_across_a_semicolon_is_not_cut(self, text):
        assert split_statements(text) is None

    def test_semicolons_inside_tokens_do_not_cut(self):
        text = "CREATE TABLE t (a INT DEFAULT 'x;y'); -- c;d\n/* e; f */ DROP TABLE t"
        assert split_statements(text) == [
            "CREATE TABLE t (a INT DEFAULT 'x;y');",
            " -- c;d\n/* e; f */ DROP TABLE t",
        ]

    def test_a_closer_before_an_opener_cuts_where_the_lexer_does(self):
        # ``*/`` lexes first, so the ``/*`` after it opens no comment.
        assert split_statements("x */* a; b */") == ["x */* a;", " b */"]


class TestHostileScripts:
    def test_shared_memo_with_prefix_poisoning_matches_the_whole_parse(self):
        memo: parser_mod.StatementMemo = {}
        for text in hostile_scripts(seed=29, count=1500):
            # Every prefix through a ``;`` character, cut or not, so its
            # last segment is in the memo before the longer script reads it.
            prefixes = [text[: i + 1] for i, char in enumerate(text) if char == ";"]
            for typeless in (False, True):
                for script in prefixes + [text]:
                    assert parse_script(script, typeless_columns=typeless, memo=memo) == (
                        parse_whole_script(script, typeless_columns=typeless)
                    ), script
        assert memo  # the memo took part

    def test_the_named_comment_pair(self):
        memo: parser_mod.StatementMemo = {}
        head, full = COMMENT_PAIR
        assert parse_script(head, memo=memo) == parse_whole_script(head)
        statements = parse_script(full, memo=memo)
        assert statements == parse_whole_script(full)
        assert [s.name for s in statements if isinstance(s, CreateTable)] == ["a", "b"]

    def test_a_stray_paren_in_an_alter_option_ends_at_its_semicolon(self):
        for option in ("ENGINE=x)", "ENGINE=(x"):
            alter = f" ALTER TABLE t {option};"
            text = f"CREATE TABLE t (a INT);{alter} CREATE TABLE u (b INT);"
            statements = parse_whole_script(text)
            tables = [s.name for s in statements if isinstance(s, CreateTable)]
            assert tables == ["t", "u"], text
            memo: parser_mod.StatementMemo = {}
            assert parse_script(text, memo=memo) == statements
            # The ALTER segment does not read past its ``;``, so it is stored.
            assert (False, alter) in memo

    def test_the_named_poisoning_pair(self):
        memo: parser_mod.StatementMemo = {}
        head, full = POISONING_PAIR
        alone = parse_script(head, memo=memo)
        assert alone == parse_whole_script(head)
        assert isinstance(alone[0], IgnoredStatement) and alone[0].verb == "CREATE"
        statements = parse_script(full, memo=memo)
        assert statements == parse_whole_script(full)
        assert isinstance(statements[0], CreateTable) and statements[0].name == "t"

    def test_strict_parse_never_reads_the_memo(self):
        memo: parser_mod.StatementMemo = {}
        parse_script("CREATE TABLE t (a INT);", strict=True, memo=memo)
        assert memo == {}


class TestRealHistories:
    """Every version of two funnel corpora and a mixed-dialect stream."""

    @pytest.fixture(scope="class")
    def versions(self):
        texts: list[tuple[str, str]] = []
        for spec in (CorpusSpec(seed=11, scale=0.05), CorpusSpec(seed=12, scale=0.03)):
            corpus = build_corpus(spec)
            for name, repo in corpus.repos.items():
                path = corpus.ddl_paths.get(name)
                if repo is not None and path is not None:
                    history = usable_versions(extract_file_history(repo, path))
                    texts += [(version.text, "mysql") for version in history]
        stream = StreamSpec(seed=7, count=100, dialects=("mysql", "postgresql", "sqlite"))
        for index in range(stream.count):
            project = synthesize_project(stream, index)
            history = usable_versions(extract_file_history(project.repo, project.ddl_path))
            texts += [(version.text, project.dialect) for version in history]
        assert {dialect for _, dialect in texts} == {"mysql", "postgresql", "sqlite"}
        return texts

    def test_cache_schemas_equal_whole_script_schemas(self, versions, monkeypatch):
        whole_parses = []
        monkeypatch.setattr(
            parser_mod,
            "parse_whole_script",
            lambda *args: whole_parses.append(args) or parse_whole_script(*args),
        )
        cache = SchemaCache()
        scans = [cache.has_create_table(text) for text, _ in versions]
        schemas = [cache.schema_for(text, dialect=dialect) for text, dialect in versions]
        assert whole_parses == []  # real histories never fall back
        assert scans == [
            any(isinstance(s, CreateTable) for s in parse_whole_script(text))
            for text, _ in versions
        ]
        # With no cut, a lenient parse with a fresh memo is the whole parse.
        monkeypatch.setattr(parser_mod, "cut_segment", lambda text, pos: None)
        assert schemas == [build_schema(text, dialect=dialect) for text, dialect in versions]
        assert len(whole_parses) == len(versions)
