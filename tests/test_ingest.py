"""Dump parsing and side-table loading tests.

The byte-level expectations in this file were worked out by hand from
the MySQL dump format (backslash escapes inside single-quoted strings,
NULL literal, integer and float literals) before being compared to the
parser output.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oatlas import fixtures, ingest
from oatlas.ingest import (
    DuplicateKeyError,
    InvalidRecordError,
    PageviewRecord,
    PageviewTable,
    ParseStats,
    QidIndex,
    SqlDumpError,
    Titles,
    TsvFormatError,
    escape_sql_string,
    iter_raw_links,
    load_page_table,
    load_pageviews,
    load_redirects,
    load_sitelinks,
    parse_sql_insert_rows,
    read_features_tsv,
    read_pageviews_tsv,
    read_sitelinks_tsv,
    read_tsv,
)

from .oracles import PageviewOracle, QidIndexOracle, read_tsv_oracle

# A dump exercising every escape the format defines, plus NULL, a
# negative integer and a float.  Expected tuples were written first.
TRICKY_DUMP = (
    b"-- MySQL dump 10.13\n"
    b"DROP TABLE IF EXISTS `page`;\n"
    b"CREATE TABLE `page` (\n  `page_id` int unsigned NOT NULL\n) ENGINE=InnoDB;\n"
    b"INSERT INTO `page` VALUES (1,0,'Albert_Einstein',0),"
    b"(2,0,'O\\'Brien',1),(3,14,'Caf\xc3\xa9',0);\n"
    b"INSERT INTO `page` VALUES (4,0,'Tab\\tand\\nnewline',0),"
    b"(5,0,'Back\\\\slash \\\"quoted\\\"',0),(6,0,NULL,-7),(7,0,'',0.5);\n"
)

TRICKY_ROWS = [
    (1, 0, "Albert_Einstein", 0),
    (2, 0, "O'Brien", 1),
    (3, 14, "Café", 0),
    (4, 0, "Tab\tand\nnewline", 0),
    (5, 0, "Back\\slash \"quoted\"", 0),
    (6, 0, None, -7),
    (7, 0, "", 0.5),
]


def test_parse_tricky_dump_matches_hand_decoding():
    rows = list(parse_sql_insert_rows(io.BytesIO(TRICKY_DUMP)))
    assert rows == TRICKY_ROWS


def test_parse_counts_statements_and_rows():
    stats = ParseStats()
    list(parse_sql_insert_rows(io.BytesIO(TRICKY_DUMP), stats=stats))
    assert stats.rows == 7
    assert stats.statements == 2
    assert stats.skipped == 0


def test_escape_unescape_round_trip_random_strings():
    rng = np.random.default_rng(42)
    alphabet = list("abc'\"\\\n\r\t\x00xyzé中 _0")
    for _ in range(300):
        n = int(rng.integers(0, 20))
        original = "".join(rng.choice(alphabet) for _ in range(n))
        dump = f"INSERT INTO `t` VALUES (1,'{escape_sql_string(original)}');\n"
        ((_, decoded),) = parse_sql_insert_rows(io.BytesIO(dump.encode("utf-8")))
        assert decoded == original


def test_round_trip_through_dump_writer(tmp_path):
    rng = np.random.default_rng(7)
    rows = []
    for i in range(500):
        rows.append(
            (
                i,
                int(rng.integers(-5, 5)),
                f"Title_{i}_" + "'\\\n"[: int(rng.integers(0, 4))],
                None if i % 17 == 0 else float(rng.normal()),
            )
        )
    path = tmp_path / "t.sql"
    fixtures.write_sql_dump(path, "t", rows, rows_per_statement=64)
    with path.open("rb") as handle:
        parsed = list(parse_sql_insert_rows(handle))
    assert parsed == rows


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_dump_writer_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        fixtures.write_sql_dump(io.StringIO(), "t", [(1, value)])


def test_random_wiki_rows_round_trip_and_keep_their_redirects(tmp_path):
    wiki = fixtures.random_wiki(np.random.default_rng(0))
    parsed = {}
    for table, rows in (
        ("page", wiki.page_rows),
        ("redirect", wiki.redirect_rows),
        ("pagelinks", wiki.link_rows),
    ):
        path = tmp_path / f"{table}.sql"
        fixtures.write_sql_dump(path, table, rows)
        with path.open("rb") as handle:
            parsed[table] = list(parse_sql_insert_rows(handle))
        assert parsed[table] == rows
    pages = load_page_table(parsed["page"])
    stats = ParseStats()
    redirects = load_redirects(parsed["redirect"], pages, stats=stats)
    assert stats.skipped == 0
    assert len(redirects) + redirects.n_dropped == len(wiki.redirect_rows)
    assert len(redirects) > 0


def test_strict_mode_reports_byte_offset():
    good = b"INSERT INTO `t` VALUES (1,'fine');\n"
    bad = b"INSERT INTO `t` VALUES (2,'unterminated;\n"
    with pytest.raises(SqlDumpError) as info:
        list(parse_sql_insert_rows(io.BytesIO(good + bad), strict=True))
    assert info.value.offset is not None
    assert info.value.offset >= len(good)


def test_lenient_mode_skips_bad_statement_and_continues():
    dump = (
        b"INSERT INTO `t` VALUES (1,'ok');\n"
        b"INSERT INTO `t` VALUES (2,'broken no close;\n"
        b"INSERT INTO `t` VALUES (3,'ok again');\n"
    )
    stats = ParseStats()
    rows = list(parse_sql_insert_rows(io.BytesIO(dump), stats=stats))
    assert rows == [(1, "ok"), (3, "ok again")]
    assert stats.skipped >= 1
    assert stats.errors


def test_buffer_high_water_mark_does_not_scale_with_file():
    def peak(n_rows: int) -> int:
        buf = io.StringIO()
        fixtures.write_sql_dump(
            buf, "pagelinks", fixtures.patterned_pagelinks_rows(n_rows)
        )
        stats = ParseStats()
        data = io.BytesIO(buf.getvalue().encode("utf-8"))
        count = sum(1 for _ in parse_sql_insert_rows(data, stats=stats))
        assert count == n_rows
        return stats.peak_buffer_bytes

    # Both inputs are larger than one read chunk, where the high-water
    # mark saturates; a 5x bigger file must not move it.
    assert peak(20_000) == peak(100_000)


# Row values for the parser properties.  Strings take every byte the
# dump format escapes, the separators of the VALUES list and non-ASCII
# text; surrogates are left out because they have no UTF-8 form.
_sql_text = st.text(
    st.one_of(
        st.sampled_from("'\"\\\0\x1a(),;\t\n\r "),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
_sql_kinds = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": _sql_text,
}


@st.composite
def _sql_rows(draw):
    """Rows that mostly share one shape, with NULLs and odd rows mixed in."""
    kinds = draw(st.lists(st.sampled_from(sorted(_sql_kinds)), min_size=1, max_size=5))
    shaped = st.tuples(*(st.one_of(_sql_kinds[k], st.none()) for k in kinds))
    odd = st.lists(st.one_of(st.none(), *_sql_kinds.values()), min_size=1, max_size=4)
    row = st.one_of(shaped, shaped, shaped, odd.map(tuple))
    return draw(st.lists(row, min_size=1, max_size=60))


def _exact(rows):
    """Rows as reprs, so that ``1`` differs from ``1.0`` and ``0.0`` from ``-0.0``."""
    return [tuple(map(repr, row)) for row in rows]


def _dump_bytes(rows, rows_per_statement):
    out = io.StringIO()
    fixtures.write_sql_dump(out, "t", rows, rows_per_statement=rows_per_statement)
    return out.getvalue().encode("utf-8")


def _parse(data, **kwargs):
    return list(parse_sql_insert_rows(io.BytesIO(data), **kwargs))


@settings(max_examples=300)
@given(rows=_sql_rows(), per_statement=st.integers(1, 80), chunk=st.integers(1, 64))
def test_parser_round_trips_written_rows(rows, per_statement, chunk):
    data = _dump_bytes(rows, per_statement)
    assert _exact(_parse(data)) == _exact(rows)
    # A tiny read chunk cuts rows at every possible byte; those rows must
    # leave the batch path and come back through the generic loop intact.
    with mock.patch.object(ingest, "_CHUNK_SIZE", chunk):
        assert _exact(_parse(data)) == _exact(rows)


@settings(max_examples=300)
@given(rows=_sql_rows(), per_statement=st.integers(2, 80))
def test_batched_rows_parse_like_one_row_statements(rows, per_statement):
    # With one row per statement every row goes through the generic loop,
    # which makes it the reference for the batch path.
    reference = _parse(_dump_bytes(rows, 1))
    assert _exact(_parse(_dump_bytes(rows, per_statement))) == _exact(reference)


# Tuples outside the value grammar: a bare word, whitespace, an empty
# value, two values with no comma between them, spellings that int() or
# float() would take, and an int too long for int().
_BAD_TUPLES = [
    b"(1,oops)",
    b"( 20,'x')",
    b"(1,,2)",
    b"(3,'a''b')",
    b"(1_000,'x')",
    b"(nan,'x')",
    b"(inf,'x')",
    b"(" + b"9" * 5000 + b",'x')",
]


@settings(max_examples=200)
@given(rows=_sql_rows(), bad=st.sampled_from(_BAD_TUPLES), data=st.data())
def test_malformed_tuple_mid_statement_is_reported_at_its_offset(rows, bad, data):
    at = data.draw(st.integers(1, len(rows)), label="at")
    placeholder = ("@bad@",)
    dump = _dump_bytes(rows[:at] + [placeholder] + rows[at:], len(rows) + 1)
    dump = dump.replace(b"('@bad@')", bad)
    assume(dump.count(bad) == 1)
    offset = dump.find(bad)

    # The bad tuple is skipped alone: every good row around it survives.
    stats = ParseStats()
    assert _exact(_parse(dump, stats=stats)) == _exact(rows)
    assert stats.skipped == 1
    assert [error.offset for error in stats.errors] == [offset]
    with pytest.raises(SqlDumpError) as info:
        _parse(dump, strict=True)
    assert info.value.offset == offset


def _until_error(items):
    """The items an iterator yields, and the offset of the SqlDumpError
    that ends it, or None."""
    out = []
    try:
        for item in items:
            out.append(item)
    except SqlDumpError as exc:
        return out, exc.offset
    return out, None


def _column_view(data, titles, **kwargs):
    """The rows of ``read_sql_columns``, each block checked for one shape
    of equal columns, strings decoded through ``titles``."""
    blocks, offset = _until_error(
        ingest.read_sql_columns(io.BytesIO(data), titles, **kwargs)
    )
    rows = []
    for kinds, columns in blocks:
        assert len(kinds) == len(columns)
        assert len({len(column) for column in columns}) == 1
        for kind, column in zip(kinds, columns):
            assert {type(v) for v in column} == {int if kind is str else kind}
        rows += zip(
            *(
                [titles.strings[code] for code in column] if kind is str else column
                for kind, column in zip(kinds, columns)
            )
        )
    return rows, offset


@settings(max_examples=200)
@given(
    rows=_sql_rows(),
    earlier=_sql_rows(),
    bad=st.sampled_from(_BAD_TUPLES),
    per_statement=st.integers(1, 80),
    chunk=st.integers(1, 64),
    data=st.data(),
)
def test_the_column_view_yields_the_tuple_views_values(
    rows, earlier, bad, per_statement, chunk, data
):
    at = data.draw(st.integers(0, len(rows)), label="at")
    dump = _dump_bytes(rows[:at] + [("@bad@",)] + rows[at:], per_statement)
    dump = dump.replace(b"('@bad@')", bad)
    assume(dump.count(bad) == 1)
    # The titles already hold an earlier dump's strings, as when one
    # cache serves a language's three dumps.
    titles = Titles()
    _column_view(_dump_bytes(earlier, 7), titles)
    with mock.patch.object(ingest, "_CHUNK_SIZE", chunk):
        for strict in (False, True):
            tuple_stats, column_stats = ParseStats(), ParseStats()
            expected = _until_error(
                parse_sql_insert_rows(io.BytesIO(dump), strict=strict, stats=tuple_stats)
            )
            got = _column_view(dump, titles, strict=strict, stats=column_stats)
            assert _exact(got[0]) == _exact(expected[0])
            assert got[1] == expected[1]
            assert column_stats == tuple_stats
            if not strict:  # every written row but the bad tuple
                assert _exact(got[0]) == _exact(rows)
    assert len(set(titles.strings)) == len(titles.strings)


def _statement(rows):
    return b"INSERT INTO `t` VALUES " + b",".join(rows) + b";\n"


@pytest.mark.parametrize(
    "odd",
    [b"(2e1,'c')", b"(+20,'c')", b"(20,NULL)", b"(20.5,'c')"],
)
def test_rows_outside_the_batch_spellings_parse_like_the_generic_loop(odd):
    rows = [b"(%d,'r%d')" % (i, i) for i in range(40)]
    rows[20] = odd
    stats = ParseStats()
    batched = _parse(_statement(rows), stats=stats)
    single = _parse(b"".join(_statement([row]) for row in rows))
    assert _exact(batched) == _exact(single)
    assert len(batched) == 40 and stats.skipped == 0


# VALUES lists with a missing, doubled, leading or trailing comma between
# tuples, or no tuple at all; ``at`` is the offset of the bad byte.
@pytest.mark.parametrize(
    "values, kept, at",
    [
        (b"(1,2)(3,4)", [(1, 2)], 5),
        (b"(1,2),,(3,4)", [(1, 2)], 6),
        (b"(1,2) (3,4)", [(1, 2)], 6),
        (b",(1,2)", [], 0),
        (b"(1,2),", [(1, 2)], 6),
        (b"", [], 0),
    ],
)
def test_tuples_need_exactly_one_comma_between_them(values, kept, at):
    head = b"INSERT INTO `t` VALUES "
    dump = head + values + b";\n" + _statement([b"(5,6)"])
    stats = ParseStats()
    assert _parse(dump, stats=stats) == kept + [(5, 6)]
    assert stats.skipped == 1
    assert [error.offset for error in stats.errors] == [len(head) + at]
    with pytest.raises(SqlDumpError) as info:
        _parse(dump, strict=True)
    assert info.value.offset == len(head) + at


def test_whitespace_may_surround_the_comma_between_tuples():
    dump = b"INSERT INTO `t` VALUES (1,2) ,\n (3,4)\t;\n"
    stats = ParseStats()
    assert _parse(dump, stats=stats) == [(1, 2), (3, 4)]
    assert stats.skipped == 0


def test_bad_utf8_inside_a_run_is_reported_at_its_row():
    rows = [b"(%d,'r%d')" % (i, i) for i in range(40)]
    rows[25] = b"(25,'\xff')"
    dump = _statement(rows) + _statement([b"(99,'after')"])
    offset = dump.find(b"(25,")
    stats = ParseStats()
    kept = [(i, f"r{i}") for i in range(40) if i != 25]
    assert _parse(dump, stats=stats) == kept + [(99, "after")]
    assert [error.offset for error in stats.errors] == [offset]
    with pytest.raises(SqlDumpError) as info:
        _parse(dump, strict=True)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "values, kept",
    [
        (b"(1,oops),(2,3),(4,5)", [(2, 3), (4, 5)]),
        (b"(2,3),(1,,2),(4,5)", [(2, 3), (4, 5)]),
        (b"(2,3),(4,5),(6,'\xff')", [(2, 3), (4, 5)]),
    ],
)
def test_lenient_mode_skips_a_malformed_tuple_alone(values, kept):
    dump = b"INSERT INTO t VALUES " + values + b";\nINSERT INTO t VALUES (7,8);\n"
    stats = ParseStats()
    assert _parse(dump, stats=stats) == kept + [(7, 8)]
    assert stats.skipped == 1 and stats.rows == len(kept) + 1


def test_unknown_tuple_end_still_drops_the_rest_of_the_line():
    dump = b"INSERT INTO t VALUES (2,3),(1,'open),(4,5);\n"
    dump += b"INSERT INTO t VALUES (7,8);\n"
    stats = ParseStats()
    assert _parse(dump, stats=stats) == [(2, 3), (7, 8)]
    assert stats.skipped == 1


def test_load_page_table_filters_and_deduplicates():
    rows = [
        (1, 0, "Alpha", 0),
        (2, 0, "Beta", 1),
        (3, 4, "Project", 0),
        (4, 0, "Alpha", 0),
    ]
    table = load_page_table(rows)
    assert table.n_foreign_namespace == 1
    assert table.n_duplicates == 1
    # Later row wins, and the stale id is dropped entirely.
    assert table.id_by_title["Alpha"] == 4
    assert 1 not in table.by_id
    assert table.page_ids[~table.is_redirect].tolist() == [4]
    with pytest.raises(DuplicateKeyError):
        load_page_table(rows, strict=True)


def test_load_redirects_joins_and_drops():
    pages = load_page_table(
        [(1, 0, "Home", 0), (2, 0, "Hop", 1), (3, 0, "Plain", 0), (4, 0, "Loop", 1)]
    )
    rows = [
        (2, 0, "Home"),
        (4, 0, "Missing_target"),
        (3, 0, "Home"),
        (2, 6, "File_page"),
    ]
    table = load_redirects(rows, pages)
    assert table.targets == {2: 1}
    # Unusable targets (missing title or foreign namespace) share a counter.
    assert table.dropped_missing_target == 2
    assert table.dropped_bad_source == 1
    assert table.n_dropped == 3


def test_iter_raw_links_drops_foreign_source_rows():
    rows = [(1, 0, "A", 0), (2, 0, "B", 4), (3, 2, "C", 0)]
    links = list(iter_raw_links(rows))
    assert [(l.from_page_id, l.target_namespace, l.target_title) for l in links] == [
        (1, 0, "A"),
        (3, 2, "C"),
    ]


def test_qid_index_first_sitelink_wins():
    index = QidIndex()
    index.add("Q1", "aa", "Star")
    index.add("Q2", "aa", "Star")
    index.add("Q1", "aa", "Other")
    assert index.n_conflicts == 2
    assert index.qid_for("aa", "Star") == "Q1"
    assert index.rows() == [("Q1", "aa", None, "Star")]
    with pytest.raises(DuplicateKeyError):
        index.add("Q3", "aa", "Star", strict=True)


def test_qid_index_page_attachment_round_trip():
    index = QidIndex()
    index.add("Q1", "aa", "Star")
    index.add("Q1", "bb", "Stern")
    index.add("Q2", "bb", "Star")  # the same title in another language
    attached = index.attach_page_ids("aa", {"Star": 11, "Unrelated": 12})
    assert attached == 1
    assert index.page_for_qid("aa", "Q1") == 11
    assert index.qid_for_page("aa", 11) == "Q1"
    assert index.page_for_qid("bb", "Q1") is None
    assert index.page_for_qid("aa", "Q2") is None
    assert index.rows() == [
        ("Q1", "aa", 11, "Star"),
        ("Q1", "bb", None, "Stern"),
        ("Q2", "bb", None, "Star"),
    ]
    assert len(index) == 2
    # Pages live in arrays: every dict is keyed by an item id, a language
    # or a title.
    dicts = [value for value in vars(index).values() if isinstance(value, dict)]
    dicts += [value for d in dicts for value in d.values() if isinstance(value, dict)]
    assert all(isinstance(key, str) for d in dicts for key in d)


# Few items, titles and pages, so that rows often conflict.
_QIDS = ("Q1", "Q2", "Q3")
_LANGUAGES = ("aa", "bb")
_TITLES = ("Star", "Stern", "Moon")
_PAGES = (1, 2, 3)
_qidmap_rows = st.lists(
    st.tuples(
        st.sampled_from(_QIDS),
        st.sampled_from(_LANGUAGES),
        st.one_of(st.none(), st.sampled_from(_PAGES)),
        st.sampled_from(_TITLES),
    ),
    max_size=16,
)


def assert_same_index(index: QidIndex, oracle: QidIndexOracle) -> None:
    """Every lookup of ``index`` answers as ``oracle``'s dicts do."""
    assert index.n_conflicts == oracle.n_conflicts
    assert index.rows() == [
        (qid, language, oracle.page_by_site.get((qid, language)), title)
        for (qid, language), title in sorted(oracle.title_by_site.items())
    ]
    assert len(index) == len({qid for qid, _ in oracle.title_by_site})
    for language in _LANGUAGES:
        for title in _TITLES:
            assert index.qid_for(language, title) == oracle.qid_by_title.get(
                (language, title)
            )
    assert_same_pages(index, oracle)


def assert_same_pages(index: QidIndex, oracle: QidIndexOracle) -> None:
    """Every page lookup of ``index`` answers as ``oracle``'s dicts do."""
    codes = index.codes_of(_QIDS)
    for language in _LANGUAGES:
        pages = index.pages_of(language, codes).tolist()
        assert pages == [oracle.page_by_site.get((qid, language), -1) for qid in _QIDS]
        qids = [oracle.qid_by_page.get((language, page_id)) for page_id in _PAGES]
        items = index.items_of(language, _PAGES)
        assert items.tolist() == index.codes_of(qids).tolist()
        for qid in _QIDS:
            assert index.page_for_qid(language, qid) == oracle.page_by_site.get(
                (qid, language)
            )
        for page_id in _PAGES:
            assert index.qid_for_page(language, page_id) == oracle.qid_by_page.get(
                (language, page_id)
            )


@settings(max_examples=300)
@given(rows=_qidmap_rows, block_rows=st.integers(1, 5))
def test_qid_index_rows_added_in_blocks_match_the_per_row_oracle(rows, block_rows):
    oracle = QidIndexOracle()
    oracle.add_rows(rows)

    def attach_pages(index, rows):
        for qid, language, page_id, _ in rows:
            if page_id is not None:
                index.attach_page(qid, language, page_id)

    index = QidIndex()
    for start in range(0, len(rows), block_rows):
        qids, languages, _, titles = zip(*rows[start : start + block_rows])
        index.add_rows(qids, languages, titles)
        attach_pages(index, rows[start : start + block_rows])
    assert_same_index(index, oracle)

    qids, languages, _, titles = tuple(zip(*rows)) or ((),) * 4
    strict = QidIndex()
    if oracle.first_conflict is None:
        strict.add_rows(qids, languages, titles, strict=True)
        attach_pages(strict, rows)
        assert_same_index(strict, oracle)
    else:
        with pytest.raises(DuplicateKeyError) as excinfo:
            strict.add_rows(qids, languages, titles, strict=True)
        qid, language, _, title = rows[oracle.first_conflict]
        assert str(excinfo.value) == f"conflicting sitelink ({qid}, {language}, {title})"


def test_sitelink_tsv_rejects_short_rows():
    with pytest.raises(TsvFormatError) as info:
        list(read_sitelinks_tsv(["Q1\taa"]))
    assert info.value.line_number == 1
    index = load_sitelinks(read_sitelinks_tsv(["# comment", "Q1\taa\tStar", ""]))
    assert index.qid_for("aa", "Star") == "Q1"


def test_pageview_loading_validates_rows():
    lines = [
        "aa\t1\t2022-11\tall\t100",
        "aa\t1\t2022-11\tall\t100",
        "aa\t2\t2022-11\tcarrier-pigeon\t5",
        "aa\t3\t2022-99\tall\t5",
        "aa\t4\t2022-11\tinternal\t-1",
    ]
    table = load_pageviews(read_pageviews_tsv(lines))
    assert table.views("aa", 1, "2022-11") == 100
    assert table.views("aa", 9, "2022-11") == 0
    assert not table.has_row("aa", 9, "2022-11")
    assert table.n_duplicates == 1
    assert table.n_skipped == 3
    with pytest.raises((InvalidRecordError, DuplicateKeyError)):
        load_pageviews(read_pageviews_tsv(lines), strict=True)


def test_empty_pageview_table_answers_every_lookup():
    table = PageviewTable()
    assert len(table) == 0 and table.referrer_classes() == set()
    assert table.views("aa", 1, "2022-11") == 0
    assert not table.has_row("aa", 1, "2022-11", "internal")
    assert table.gather(["aa"], [1], [24262]).tolist() == [0]
    assert len(load_pageviews([])) == 0


def test_pageview_ids_and_counts_must_fit_in_64_bits():
    for line in (
        "aa\t1\t2022-11\tall\t9223372036854775808",
        "aa\t" + "9" * 21 + "\t2022-11\tall\t1",
    ):
        with pytest.raises(InvalidRecordError, match="64 bits"):
            load_pageviews(read_pageviews_tsv([line]))


def test_strict_pageviews_name_the_first_duplicate_row():
    a, b = "aa\t1\t2022-11\tall\t5", "aa\t2\t2022-11\tall\t5"
    with pytest.raises(DuplicateKeyError, match="'aa', 2,"):
        load_pageviews(read_pageviews_tsv([a, b, b, a]), strict=True)


def test_languages_without_valid_rows_find_nothing():
    # Keys of a language past the last one with rows would wrap around
    # int64 here and land on the key of ("aa", 1).
    lines = [
        "aa\t1\t2022-11\tall\t5",
        f"aa\t{1 << 61}\t2022-11\tall\t7",
        "bb\t1\t2022-11\tall\t-1",
        "cc\t1\t2022-11\tall\t-1",
    ]
    table = load_pageviews(read_pageviews_tsv(lines))
    assert table.views("aa", 1, "2022-11") == 5
    assert table.views("cc", 1, "2022-11") == 0


def _collect(rows):
    """The rows an iterator yields before its TsvFormatError, and the error."""
    out = []
    try:
        for row in rows:
            out.append(list(row))
    except TsvFormatError as exc:
        return out, (str(exc), exc.line_number)
    return out, None


_TSV_LINES = st.lists(
    st.tuples(
        st.one_of(
            st.just(""),
            st.just("# note"),
            st.lists(
                st.sampled_from(["1", "-2", "x", "", " 3", "\u0663", "#", "a b"]),
                min_size=1,
                max_size=4,
            ).map("\t".join),
        ),
        st.sampled_from(["", "\n", "\n\n"]),
    ).map("".join),
    max_size=40,
)


@settings(max_examples=500)
@given(lines=_TSV_LINES, block_lines=st.integers(1, 7))
def test_read_tsv_blocks_match_the_row_by_row_oracle(lines, block_lines):
    converters = (int, str, ingest.nonempty)
    expected = _collect(read_tsv_oracle(lines, converters))
    with mock.patch.object(ingest, "_TSV_BLOCK_LINES", block_lines):
        blocks = read_tsv(lines, converters)
        assert _collect(row for block in blocks for row in zip(*block)) == expected


def _mostly(valid, invalid):
    """One of ``valid``, or about one time in eight one of ``invalid``."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(invalid if k == 0 else valid)
    )


_PAGEVIEW_ROWS = st.lists(
    st.builds(
        PageviewRecord,
        _mostly(["aa", "b"], [""]),
        _mostly([1, 10**12], [0, -4]),
        _mostly(
            ["2022-11", "1999-01"],
            ["2022-13", "2022-1", "\u0662\u0660\u0662\u0662-\u0661\u0661"],
        ),
        _mostly(ingest.REFERRER_CLASSES, ["search"]),
        _mostly(range(31), [-1, -2]),
    ),
    max_size=50,
)


@settings(max_examples=500)
@given(
    rows=_PAGEVIEW_ROWS,
    malformed_at=st.one_of(st.none(), st.integers(0, 50)),
    block_lines=st.integers(1, 7),
    strict=st.booleans(),
)
def test_pageview_table_answers_like_the_dict_oracle(
    rows, malformed_at, block_lines, strict
):
    lines = ["\t".join(map(str, row)) + "\n" for row in rows]
    if malformed_at is not None:
        lines.insert(min(malformed_at, len(lines)), "aa\tx\t2022-11\tall\t5\n")
    columns = (str, int, str, str, int)
    try:
        oracle = PageviewOracle(
            map(PageviewRecord._make, read_tsv_oracle(lines, columns)), strict=strict
        )
    except ValueError as exc:
        expected = exc
    else:
        expected = None
    with mock.patch.object(ingest, "_TSV_BLOCK_LINES", block_lines):
        if expected is not None:
            # The error of the row the one-row-at-a-time loader names first.
            with pytest.raises(ValueError) as info:
                load_pageviews(read_pageviews_tsv(lines), strict=strict)
            assert type(info.value) is type(expected)
            assert str(info.value) == str(expected)
            return
        table = load_pageviews(read_pageviews_tsv(lines), strict=strict)
    assert (len(table), table.n_rows, table.n_skipped, table.n_duplicates) == (
        len(oracle.rows),
        len(oracle.rows),
        oracle.n_skipped,
        oracle.n_duplicates,
    )
    assert table.referrer_classes() == {key[3] for key in oracle.rows}
    probes = {(r.language, r.page_id, r.month, r.referrer_class) for r in rows} | {
        ("aa", 4, "2022-11", "all"),
        ("zz", 1, "2022-11", "all"),
        ("aa", 1, "2023-05", "all"),
        ("aa", 1, "2022-11\n", "all"),
    }
    for key in probes:
        assert table.views(*key) == oracle.views(*key), key
        assert table.has_row(*key) == (key in oracle.rows), key


def test_pageview_tsv_is_column_checked():
    with pytest.raises(TsvFormatError):
        list(read_pageviews_tsv(["aa\t1\t2022-11\tall"]))
    with pytest.raises(TsvFormatError):
        list(read_pageviews_tsv(["aa\tx\t2022-11\tall\t5"]))


def test_feature_tsv_round_trip(tmp_path):
    rows = [
        ("aa", 1, True, None, 0.9, 0.1, 0.2, 0.3, 0.7, 12345),
        ("aa", 2, False, True, 0.0, 1.0, 0.5, 0.5, 0.0, -50),
        ("aa", 3, False, None, 0.0, 0.0, 0.0, 0.0, 0.0, 2**63 - 1),
        ("aa", 4, False, None, 0.0, 0.0, 0.0, 0.0, 0.0, -(2**63)),
    ]
    path = tmp_path / "features.tsv"
    fixtures.write_features_tsv(path, rows)
    records = list(read_features_tsv(path.read_text().splitlines()))
    assert records[0].bot_created is True
    assert records[0].is_woman_biography is None
    assert records[1].is_woman_biography is True
    assert records[0].topic_probabilities["culture"] == 0.9
    assert [r.creation_timestamp for r in records] == [12345, -50, 2**63 - 1, -(2**63)]


def test_feature_tsv_rejects_bad_probability():
    line = "aa\t1\t0\tNA\t1.5\t0.1\t0.1\t0.1\t0.5\t10"
    with pytest.raises(TsvFormatError):
        list(read_features_tsv([line]))


@pytest.mark.parametrize("timestamp", ["1" + "0" * 400, str(2**63), str(-(2**63) - 1)])
def test_feature_tsv_rejects_a_timestamp_outside_int64(timestamp):
    good = "aa\t1\t0\tNA\t0.5\t0.1\t0.1\t0.1\t0.5\t10"
    with pytest.raises(TsvFormatError, match=r"int64 range.*\(line 2\)"):
        list(read_features_tsv([good, good.replace("\t10", "\t" + timestamp)]))


def test_feature_tsv_rejects_a_page_id_outside_int64():
    line = "aa\t" + str(2**63) + "\t0\tNA\t0.5\t0.1\t0.1\t0.1\t0.5\t10"
    with pytest.raises(TsvFormatError, match=r"int64 range.*\(line 1\)"):
        list(read_features_tsv([line]))


@pytest.mark.parametrize("column", [2, 3])
@pytest.mark.parametrize("cell", ["2", "-1", " 1", "1_0"])
def test_feature_tsv_flags_are_exactly_0_or_1(column, cell):
    cells = "aa\t1\t0\t1\t0.5\t0.1\t0.1\t0.1\t0.5\t10".split("\t")
    assert next(read_features_tsv(["\t".join(cells)])).is_woman_biography is True
    cells[column] = cell
    with pytest.raises(TsvFormatError, match=r"is not 0 or 1.*\(line 1\)"):
        list(read_features_tsv(["\t".join(cells)]))
