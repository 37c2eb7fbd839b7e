"""Link graph construction, persistence and month-over-month events."""

from __future__ import annotations

import io
import itertools
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oatlas import fixtures, graph
from oatlas.graph import (
    DEORPHANIZED,
    ORPHANIZED,
    BuildStats,
    LinkSnapshot,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotMismatchError,
    build_snapshot,
    deadends,
    deorphanizing_events,
    link_delta,
    orphan_status,
    orphanizing_events,
    orphans,
)
from oatlas.ingest import (
    DuplicateKeyError,
    InvalidRecordError,
    LinkTable,
    PageTable,
    ParseStats,
    RedirectTable,
    SqlDumpError,
    Titles,
    escape_sql_string,
    iter_raw_links,
    load_page_table,
    load_redirects,
    parse_sql_insert_rows,
    read_sql_columns,
)

from .oracles import (
    build_snapshot_oracle,
    deadends_oracle,
    deorph_events_oracle,
    edges_oracle,
    iter_raw_links_oracle,
    kept_links_oracle,
    load_page_table_oracle,
    load_redirects_oracle,
    orphanizing_oracle,
    orphans_oracle,
    redirect_cycle_members_oracle,
)


def _small_snapshot(month="2022-11", edges=((1, 2), (2, 3), (3, 1), (4, 2))):
    return LinkSnapshot.from_edges(
        "xx", month, articles=[1, 2, 3, 4, 5], edges=list(edges)
    )


def _random_wiki_parts(rng, **kwargs):
    wiki = fixtures.random_wiki(rng, **kwargs)
    pages = load_page_table(wiki.page_rows)
    redirects = load_redirects(wiki.redirect_rows, pages)
    links = list(iter_raw_links(wiki.link_rows))
    return pages, redirects, links


def test_from_edges_basic_accessors():
    snap = _small_snapshot()
    assert snap.n_articles == 5
    assert snap.n_edges == 4
    assert snap.out_neighbors(1).tolist() == [2]
    assert sorted(snap.in_neighbors(2).tolist()) == [1, 4]
    assert snap.in_degree_of(5) == 0
    assert snap.out_neighbors(5).tolist() == []
    assert snap.has_article(5) and not snap.has_article(6)
    assert orphans(snap) == {4, 5}
    assert deadends(snap) == {5}
    snap.validate()


def test_a_loaded_snapshot_holds_its_arrays_and_no_page_index():
    """After loading, a snapshot holds 8 B per article for each of its ids,
    row pointers and in-degrees, and 8 B per edge: no dict from page id
    to row, and no other Python object per article."""
    n = 50_000
    rng = np.random.default_rng(7)
    ids = np.arange(1, 2 * n, 2)
    sources, targets = rng.integers(0, n, (2, 150_000))
    keep = sources != targets
    edges = zip(ids[sources[keep]].tolist(), ids[targets[keep]].tolist())
    buffer = io.BytesIO()
    LinkSnapshot.from_edges("aa", "2022-11", ids, edges).save(buffer)
    buffer.seek(0)
    tracemalloc.start()
    try:
        loaded = LinkSnapshot.load(buffer)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.n_articles == n and loaded.n_edges > 100_000
    assert held <= 24 * n + 8 * loaded.n_edges + 64 * 1024
    assert not any(isinstance(value, dict) for value in vars(loaded).values())
    assert loaded.rows_of([1, 2, 2 * n - 1]).tolist() == [0, -1, n - 1]


def _traced(run):
    """What ``run()`` returns, and the bytes traced as held after it and
    at its peak."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_save_and_load_make_under_16_bytes_per_edge_of_temporaries(tmp_path):
    """Both ends of the container work a slice at a time: what they
    allocate beyond the bytes written, or the snapshot read, stays under
    16 B per edge on a million edges (64 and 51 B in format 2).

    The next month, with 5 % of the edges redrawn and saved as a delta,
    stays under 40 B per edge at save, where the diff holds the base's
    edge keys and a flag per edge (about 14 B measured), and under 16 B
    at load (about 4 B).  Loaded by path, the delta also reads its base,
    whose arrays are about 10 B per edge: under 24 B in all (about 15 B).
    """
    n, m = 100_000, 1_050_000
    rng = np.random.default_rng(3)
    ids = np.sort(rng.choice(np.arange(1, 4 * n), n, replace=False))
    sources, targets = rng.integers(0, n, (2, m))
    keep = sources != targets
    snapshot = LinkSnapshot(
        "aa", "2022-11", ids, *graph._csr(n, sources[keep], targets[keep])
    )
    assert snapshot.n_edges > 1_000_000
    redrawn = rng.random(m) < 0.05
    sources[redrawn], targets[redrawn] = rng.integers(0, n, (2, redrawn.sum()))
    keep = sources != targets
    later = LinkSnapshot(
        "aa", "2022-12", ids, *graph._csr(n, sources[keep], targets[keep])
    )
    for saved, base, save_bound in ((snapshot, None, 16), (later, snapshot, 40)):
        buffer = io.BytesIO()
        churn, _, save_peak = _traced(lambda: saved.save(buffer, base))
        written = buffer.getbuffer().nbytes
        buffer.seek(0)
        loaded, held, load_peak = _traced(lambda: LinkSnapshot.load(buffer, base))
        assert loaded == saved
        assert save_peak - written < save_bound * saved.n_edges
        assert load_peak - held < 16 * saved.n_edges
    assert 40_000 < churn[0] < 60_000 and 40_000 < churn[1] < 60_000
    snapshot.save(tmp_path / "2022-11.oatl")
    later.save(tmp_path / "2022-12.oatl", snapshot)
    loaded, held, peak = _traced(lambda: LinkSnapshot.load(tmp_path / "2022-12.oatl"))
    assert loaded == later
    assert peak - held < 24 * later.n_edges


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        LinkSnapshot.from_edges("xx", "2022-11", articles=[1], edges=[(1, 1)])
    with pytest.raises(ValueError):
        LinkSnapshot.from_edges("xx", "2022-11", articles=[1, 2], edges=[(1, 9)])


def test_degree_sums_match_edge_count():
    rng = np.random.default_rng(0)
    pages, redirects, links = _random_wiki_parts(rng, n_pages=300, n_links=900)
    snap = build_snapshot(pages, redirects, links, language="xx", month="2022-11")
    assert int(snap.in_degree_array().sum()) == snap.n_edges
    assert int(snap.out_degree_array().sum()) == snap.n_edges
    assert len(list(snap.edges())) == snap.n_edges


def test_build_snapshot_handles_redirect_chains_and_cycles():
    pages = load_page_table(
        [
            (1, 0, "Article", 0),
            (2, 0, "Hop_one", 1),
            (3, 0, "Hop_two", 1),
            (4, 0, "Cycle_a", 1),
            (5, 0, "Cycle_b", 1),
            (6, 0, "Writer", 0),
        ]
    )
    redirects = load_redirects(
        [(2, 0, "Hop_two"), (3, 0, "Article"), (4, 0, "Cycle_b"), (5, 0, "Cycle_a")],
        pages,
    )
    stats = BuildStats()
    links = list(
        iter_raw_links(
            [
                (6, 0, "Hop_one", 0),
                (6, 0, "Cycle_a", 0),
                (6, 0, "Writer", 0),
                (1, 0, "Article", 0),
            ]
        )
    )
    snap = build_snapshot(
        pages, redirects, links, language="xx", month="2022-11", stats=stats
    )
    # The two-hop chain lands on the real article; the cycle and the
    # self references disappear.
    assert snap.edge_set() == {(6, 1)}
    assert stats.dropped_unresolved_redirect == 1
    assert stats.dropped_self_loop == 2
    assert stats.n_redirect_cycle_members == 2


def test_build_snapshot_matches_oracle_on_random_wikis():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        pages, redirects, links = _random_wiki_parts(
            rng, n_pages=150, n_links=500, redirect_fraction=0.3, junk_fraction=0.1
        )
        stats = BuildStats()
        snap = build_snapshot(
            pages, redirects, links, language="xx", month="2022-11", stats=stats
        )
        articles, edges = edges_oracle(pages, redirects, links)
        assert snap.articles == articles
        assert snap.edge_set() == edges
        dropped = sum(v for k, v in vars(stats).items() if k.startswith("dropped_"))
        assert stats.n_raw_links == dropped + stats.n_duplicate_links + stats.n_edges
        kept = kept_links_oracle(pages, redirects, links)
        assert stats.n_duplicate_links == len(kept) - len(set(kept))
        assert orphans(snap) == orphans_oracle(articles, edges)
        assert deadends(snap) == deadends_oracle(articles, edges)
        snap.validate()


# Worlds for the array build: few ids and titles, so that duplicate ids
# and titles, redirect chains, cycles, chains into cycles, dangling
# redirects and self-loops are common.  '"A"' is written with its quotes
# escaped or not, two spellings of one title.  Ids of 0 or below, beyond
# int64, empty or NULL titles and redirect flags of 2 make bad rows.
_WORLD_TITLES = ["A", "B", "C", "D", '"A"', "Ä_ö", "O'x"]
_WORLD_ID = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8] * 4 + [0, -2, 2**70])
_WORLD_NS = st.sampled_from([0, 0, 0, 0, 1])
_WORLD_TITLE = st.sampled_from(_WORLD_TITLES * 4 + ["", "Missing", None])
_WORLD_FLAG = st.sampled_from([0, 0, 1, 1, 2])


def _world_value(value, escape_quotes):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        text = escape_sql_string(value)
        return "'" + (text if escape_quotes else text.replace('\\"', '"')) + "'"
    return str(value)


@st.composite
def _world(draw):
    """The three dump files of one language-month, as bytes."""
    title, ns = _WORLD_TITLE, _WORLD_NS
    rows = {
        "page": st.lists(st.tuples(_WORLD_ID, ns, title, _WORLD_FLAG), max_size=14),
        "redirect": st.lists(st.tuples(_WORLD_ID, ns, title), max_size=10),
        "pagelinks": st.lists(st.tuples(_WORLD_ID, ns, title, ns), max_size=30),
    }
    where = st.tuples(st.sampled_from(list(rows)), st.integers(0, 30))
    malformed = draw(st.none() | where)
    dumps = {}
    for table, table_rows in rows.items():
        tuples = [
            "(" + ",".join(_world_value(v, draw(st.booleans())) for v in row) + ")"
            for row in draw(table_rows)
        ]
        if malformed is not None and malformed[0] == table:
            tuples.insert(malformed[1], "(1,oops)")
        n = draw(st.integers(1, 12))
        dumps[table] = "".join(
            f"INSERT INTO `{table}` VALUES " + ",".join(tuples[i : i + n]) + ";\n"
            for i in range(0, len(tuples), n)
        ).encode("utf-8")
    return dumps


def _array_build(dumps, strict):
    titles = Titles()
    parse = {table: ParseStats() for table in dumps}

    def load(table, loader, *args):
        stats = parse[table]
        blocks = read_sql_columns(
            io.BytesIO(dumps[table]), titles, strict=strict, stats=stats
        )
        return loader(blocks, *args, strict=strict, stats=stats)

    pages = load("page", PageTable.from_blocks, titles)
    redirects = load("redirect", RedirectTable.from_blocks, pages)
    links = load("pagelinks", LinkTable.from_blocks, titles)
    stats = BuildStats()
    snapshot = build_snapshot(
        pages, redirects, links, language="xx", month="2022-11", stats=stats
    )
    return snapshot, stats, pages, redirects, parse


def _oracle_build(dumps, strict):
    parse = {table: ParseStats() for table in dumps}

    def load(table, loader, *args):
        stats = parse[table]
        dump = io.BytesIO(dumps[table])
        rows = parse_sql_insert_rows(dump, strict=strict, stats=stats)
        return loader(rows, *args, strict=strict, stats=stats)

    pages = load("page", load_page_table_oracle)
    redirects = load("redirect", load_redirects_oracle, pages)
    links = load("pagelinks", iter_raw_links_oracle)
    stats = BuildStats()
    snapshot = build_snapshot_oracle(
        pages, redirects, links, language="xx", month="2022-11", stats=stats
    )
    return snapshot, stats, pages, redirects, parse


def _outcome(build, dumps, strict):
    """What a build yields, or the type and message of the error it raises."""
    try:
        snapshot, stats, pages, redirects, parse = build(dumps, strict)
    except (SqlDumpError, InvalidRecordError, DuplicateKeyError) as exc:
        return type(exc).__name__, str(exc)
    counters = vars(stats).copy()
    counters.pop("n_redirect_cycle_members")
    return (
        snapshot,
        counters,
        (pages.by_id, pages.n_foreign_namespace, pages.n_duplicates),
        redirects.targets,
        (redirects.dropped_missing_target, redirects.dropped_bad_source),
        {table: (s.rows, s.skipped, s.errors) for table, s in parse.items()},
    )


@settings(max_examples=300)
@given(dumps=_world())
@example(
    # A two-hop chain whose first hop is a source's second row, a cycle,
    # a chain into that cycle, a dangling redirect, a duplicate id and
    # title, foreign namespaces, self-loops, and two spellings of '"A"'
    # that make one link twice.
    dumps={
        "page": b"INSERT INTO `page` VALUES (1,0,'A',0),(2,0,'B',1),(3,0,'C',1),"
        b"(4,0,'D',1),(5,0,'E',1),(6,0,'F',1),(7,0,'G',1),(8,0,'\\\"A\\\"',0),"
        b"(9,0,'X',0),(9,0,'H',0),(10,4,'A',0),(11,0,'G',0),(12,0,'J',1);\n",
        "redirect": b"INSERT INTO `redirect` VALUES (2,0,'A'),(2,0,'C'),(3,0,'A'),"
        b"(4,0,'E'),(5,0,'D'),(6,0,'D'),(7,0,'A');\n",
        "pagelinks": b"INSERT INTO `pagelinks` VALUES (1,0,'C',0),(1,0,'F',0),"
        b"(1,0,'G',0),(1,0,'A',0),(1,0,'\"A\"',0),(8,0,'\\\"A\\\"',0),(9,0,'B',0),"
        b"(9,0,'C',0),(9,0,'A',4),(9,4,'A',0),(3,0,'A',0),(13,0,'A',0),(1,0,'Z',0),"
        b"(1,0,'\\\"A\\\"',0),(1,0,'J',0);\n",
    }
)
def test_the_array_build_matches_the_per_row_oracle(dumps):
    for strict in (False, True):
        built = _outcome(_array_build, dumps, strict)
        assert built == _outcome(_oracle_build, dumps, strict)
    # The oracle counts cycle members in link order; the rule is another.
    _, stats, _, redirects, _ = _array_build(dumps, strict=False)
    assert stats.n_redirect_cycle_members == redirect_cycle_members_oracle(
        redirects.targets
    )


def test_container_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pages, redirects, links = _random_wiki_parts(rng, n_pages=200, n_links=700)
    snap = build_snapshot(pages, redirects, links, language="de", month="2022-11")
    path = tmp_path / "de.oatl"
    snap.save(path)
    loaded = LinkSnapshot.load(path)
    assert loaded == snap
    assert loaded.language == "de" and loaded.month == "2022-11"
    assert np.array_equal(loaded.in_degree_array(), snap.in_degree_array())
    loaded.validate()
    # Page ids whose gaps need up to nine varint bytes.
    wide = LinkSnapshot.from_edges(
        "de", "2022-11", [1, 2**40, 2**62 + 5], [(1, 2**62 + 5), (2**40, 1)]
    )
    wide.save(path)
    assert LinkSnapshot.load(path) == wide


# The container of test_container_layout's snapshot in format 2, which
# stored the varint blocks without deflate.
_FORMAT_2_BODY = (
    b"OATL\x02"
    + struct.pack("<H", 2) + b"xx"
    + struct.pack("<H", 7) + b"2022-11"
    + struct.pack("<QQ", 2, 1)
    + bytes([0x01, 0xAB, 0x02, 0x00, 0x01, 0x00])
)
_FORMAT_2_BLOB = (
    _FORMAT_2_BODY + struct.pack("<I", zlib.crc32(_FORMAT_2_BODY)) + b"LTAO"
)


def test_container_rejects_corruption(tmp_path):
    snap = _small_snapshot()
    buf = io.BytesIO()
    snap.save(buf)
    blob = buf.getvalue()
    with pytest.raises(SnapshotFormatError):
        LinkSnapshot.load(io.BytesIO(b"JUNK" + blob[4:]))
    with pytest.raises(SnapshotFormatError):
        LinkSnapshot.load(io.BytesIO(blob[:-3]))
    with pytest.raises(SnapshotFormatError):
        LinkSnapshot.load(io.BytesIO(blob[:-4] + b"XXXX"))
    with pytest.raises(SnapshotFormatError, match="format 1 .* re-run `oatlas ingest`"):
        LinkSnapshot.load(io.BytesIO(blob[:4] + b"\x01" + blob[5:]))
    with pytest.raises(SnapshotFormatError, match="format 2 .* re-run `oatlas ingest`"):
        LinkSnapshot.load(io.BytesIO(_FORMAT_2_BLOB))


def _varints(values):
    """Unsigned LEB128, one value at a time."""
    out = bytearray()
    for value in values:
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def _header(snapshot, n_articles=None, n_edges=None):
    lang, month = snapshot.language.encode(), snapshot.month.encode()
    return (
        b"OATL\x03"
        + struct.pack("<H", len(lang)) + lang
        + struct.pack("<H", len(month)) + month
        + struct.pack(
            "<QQ",
            snapshot.n_articles if n_articles is None else n_articles,
            snapshot.n_edges if n_edges is None else n_edges,
        )
    )


def _delta_header(language, month, base, counts, version=5):
    """A delta header: the language, the month, the base's month and the
    CRC-32 of its arrays, then the counts (five in format 5, six in 4)."""
    crc = 0
    for array in (base.article_ids, base._indptr, base._targets):
        crc = zlib.crc32(np.asarray(array, dtype="<i8").tobytes(), crc)
    texts = b"".join(
        struct.pack("<H", len(text.encode())) + text.encode()
        for text in (language, month, base.month)
    )
    head = b"OATL" + bytes([version]) + texts
    return head + struct.pack(f"<I{len(counts)}Q", crc, *counts)


def _container(header, stream):
    body = header + stream
    return body + struct.pack("<I", zlib.crc32(body)) + b"LTAO"


def _deflate_blocks(*blocks):
    """One zlib stream at level 1 that ends a deflate block after each of
    ``blocks`` but the last, and the stream after the last."""
    compressor = zlib.compressobj(1)
    stream = b""
    for block in blocks[:-1]:
        stream += compressor.compress(block) + compressor.flush(zlib.Z_BLOCK)
    return stream + compressor.compress(blocks[-1]) + compressor.flush()


def _varint_blocks(snapshot):
    """The container's three varint blocks: id gaps, out-degrees and the
    target gaps of each row in turn."""
    ids, indptr = snapshot.article_ids.tolist(), snapshot._indptr.tolist()
    targets = snapshot._targets.tolist()
    target_gaps = []
    for lo, hi in zip(indptr, indptr[1:]):
        row = targets[lo:hi]
        target_gaps += [b - a for a, b in zip([0] + row, row)]
    return (
        _varints([b - a for a, b in zip([0] + ids, ids)]),
        _varints([b - a for a, b in zip(indptr, indptr[1:])]),
        _varints(target_gaps),
    )


def _one_shot_container(snapshot):
    """The container with each of the three varint blocks compressed whole."""
    return _container(_header(snapshot), _deflate_blocks(*_varint_blocks(snapshot)))


def test_container_layout_is_header_three_varint_blocks_crc_trailer():
    snap = LinkSnapshot.from_edges("xx", "2022-11", articles=[1, 300], edges=[(300, 1)])
    buf = io.BytesIO()
    snap.save(buf)
    header = (
        b"OATL\x03"
        + struct.pack("<H", 2) + b"xx"
        + struct.pack("<H", 7) + b"2022-11"
        + struct.pack("<QQ", 2, 1)
    )
    stream = _deflate_blocks(
        bytes([0x01, 0xAB, 0x02]),  # id gaps 1 and 299
        bytes([0x00, 0x01]),  # out-degrees
        bytes([0x00]),  # row of page 300: target index 0
    )
    assert buf.getvalue() == _container(header, stream)
    assert buf.getvalue() == _one_shot_container(snap)


@st.composite
def _snapshots(draw):
    """Small graphs whose id gaps reach 2**62."""
    gaps = draw(st.lists(st.integers(1, 2**62), max_size=14))
    ids = [i for i in itertools.accumulate(gaps) if i < 2**63]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)) if ids else None
    edges = draw(st.lists(pair, max_size=60)) if ids else []
    edges = [(u, v) for u, v in edges if u != v]
    return LinkSnapshot.from_edges("de", "2022-11", ids, edges)


@settings(max_examples=200, deadline=None)
@given(snapshot=_snapshots(), slice_values=st.integers(1, 64))
def test_sliced_save_writes_the_one_shot_bytes_and_load_reads_them(
    snapshot, slice_values
):
    """Slices of 1 to 64 values end inside rows and, on load, inside varints."""
    with mock.patch.object(graph, "_SLICE_VALUES", slice_values):
        buf = io.BytesIO()
        snapshot.save(buf)
        assert buf.getvalue() == _one_shot_container(snapshot)
        buf.seek(0)
        assert LinkSnapshot.load(buf) == snapshot


@settings(max_examples=50, deadline=None)
@given(snapshot=_snapshots())
def test_a_container_deflated_as_one_block_still_loads(snapshot):
    """Containers written before the per-array block ends, whose varints
    were compressed as one run, are the same format and read the same."""
    stream = zlib.compress(b"".join(_varint_blocks(snapshot)), 1)
    blob = _container(_header(snapshot), stream)
    assert LinkSnapshot.load(io.BytesIO(blob)) == snapshot


@pytest.mark.parametrize("articles", [[], [7], [1, 5, 2**40]])
def test_graphs_without_edges_round_trip(articles):
    snapshot = LinkSnapshot.from_edges("xx", "2022-11", articles, [])
    buf = io.BytesIO()
    snapshot.save(buf)
    assert buf.getvalue() == _one_shot_container(snapshot)
    buf.seek(0)
    loaded = LinkSnapshot.load(buf)
    assert loaded == snapshot and loaded.n_edges == 0
    assert loaded.in_degree_array().tolist() == [0] * len(articles)


def test_header_counts_the_stream_cannot_fill_allocate_no_arrays_for_them():
    """A 1.5 KB container with a valid checksum, whose header claims 1.4M
    values, passes the deflate-ratio check but holds 1,600.  Load fails on
    the missing values having allocated under 1 MB, not the 11 MB of
    arrays that the counts ask for.  So does a delta whose header claims
    700,000 added ids."""
    rng = np.random.default_rng(2)
    varints = rng.integers(0, 0x80, 1_600, dtype=np.uint8).tobytes()
    stream = zlib.compress(varints, 1)
    snap = LinkSnapshot.from_edges("xx", "2022-11", [], [])
    blob = _container(_header(snap, n_articles=700_000, n_edges=0), stream)
    assert len(blob) < 1_500 and 1_400_000 <= graph._MAX_DEFLATE_RATIO * len(stream)
    counts = (0, 700_000, 0, 0, 0)
    delta = _container(_delta_header("xx", "2022-12", snap, counts), stream)
    for container, base in ((blob, None), (delta, snap)):
        tracemalloc.start()
        try:
            with pytest.raises(SnapshotFormatError, match="fewer values than counted"):
                LinkSnapshot.load(io.BytesIO(container), base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "slice_values, cut_varint",
    [(1 << 16, "ends inside a varint"), (1, "more values")],
)
def test_a_stream_that_does_not_match_its_counts_fails_typed(slice_values, cut_varint):
    """Also with slices of 1 byte, so that no fault shares the first slice.
    A varint cut at the stream's end is then read as a value past the
    counted ones before its end is seen."""
    snap = _small_snapshot()
    header = _header(snap)
    stream = _one_shot_container(snap)[len(header) : -8]
    varints = zlib.decompress(stream)
    bad = [
        # Header counts raised, with a fresh checksum.
        ("edge count mismatch", _header(snap, n_articles=6) + stream),
        ("exceed its payload", _header(snap, n_edges=2**40) + stream),
        ("incorrect header check", header + b"\xff" * len(stream)),
        ("stream ends early", header + stream[:-6]),
        ("fewer values", header + zlib.compress(varints[:-1], 1)),
        ("more values", header + zlib.compress(varints + b"\x01", 1)),
        (cut_varint, header + zlib.compress(varints + b"\x81", 1)),
        ("longer than 64 bits", header + zlib.compress(b"\x81" * 9 + varints, 1)),
        ("bytes after the end", header + stream + b"\x00"),
    ]
    for message, body in bad:
        with mock.patch.object(graph, "_SLICE_VALUES", slice_values):
            with pytest.raises(SnapshotFormatError, match=message):
                LinkSnapshot.load(io.BytesIO(_container(body, b"")))


def _recording_decompressobj(calls):
    """A stand-in for ``zlib.decompressobj`` that appends the input size
    and ``max_length`` of each ``decompress`` call to ``calls``."""
    real = zlib.decompressobj

    class Recording:
        def __init__(self):
            self._inner = real()

        def decompress(self, data, max_length=0):
            calls.append((len(data), max_length))
            return self._inner.decompress(data, max_length)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    return mock.patch.object(zlib, "decompressobj", Recording)


def test_inflation_stops_at_nine_bytes_per_counted_value():
    snap = LinkSnapshot.from_edges("xx", "2022-11", articles=[], edges=[])
    blob = io.BytesIO()
    snap.save(blob)
    assert LinkSnapshot.load(io.BytesIO(blob.getvalue())) == snap
    calls = []
    # An empty graph whose stream inflates to a megabyte of zero bytes.
    bomb = _container(_header(snap), zlib.compress(bytes(1 << 20), 1))
    one = LinkSnapshot.from_edges("xx", "2022-11", articles=[5], edges=[])
    bomb_of_one = _container(_header(one), zlib.compress(bytes(1 << 20), 1))
    with _recording_decompressobj(calls):
        with pytest.raises(SnapshotFormatError, match="more values"):
            LinkSnapshot.load(io.BytesIO(bomb))
        assert [asked for _, asked in calls] == [1]
        calls.clear()
        with pytest.raises(SnapshotFormatError):
            LinkSnapshot.load(io.BytesIO(bomb_of_one))
        # Two values (one id gap, one degree) allow 18 bytes.
        asked = [asked for _, asked in calls]
        assert sum(asked) <= 18 and 0 not in asked


def test_load_passes_each_stream_byte_to_zlib_a_bounded_number_of_times():
    """Load feeds zlib slices of the stream, not all of what is left of it.

    A call either fills its output slice, and then passes no more input
    than that output, or uses up the input it was passed.  So the input
    passed in all stays under the stream plus its inflated size.
    """
    rng = np.random.default_rng(11)
    ids = np.arange(1, 2001)
    pairs = rng.choice(ids, size=(20_000, 2))
    edges = [(int(u), int(v)) for u, v in pairs if u != v]
    snap = LinkSnapshot.from_edges("xx", "2022-11", ids, edges)
    blob = _one_shot_container(snap)
    stream = blob[len(_header(snap)) : -8]
    inflated = len(zlib.decompress(stream))
    calls = []
    with mock.patch.object(graph, "_SLICE_VALUES", 256):
        with _recording_decompressobj(calls):
            assert LinkSnapshot.load(io.BytesIO(blob)) == snap
    assert len(calls) > inflated // 256
    assert max(size for size, _ in calls) <= 256
    assert sum(size for size, _ in calls) <= len(stream) + inflated


def _fuzz_container():
    """A 48-article container with a few multi-byte varints."""
    rng = np.random.default_rng(5)
    ids = np.sort(rng.choice(np.arange(1, 100_000), size=48, replace=False))
    pairs = rng.choice(ids, size=(150, 2))
    edges = [(int(u), int(v)) for u, v in pairs if u != v]
    buf = io.BytesIO()
    LinkSnapshot.from_edges("de", "2022-11", ids.tolist(), edges).save(buf)
    return buf.getvalue()


_FUZZ_BLOB = _fuzz_container()
_CORRUPT = (SnapshotFormatError, SnapshotIntegrityError)
_fuzz = settings(max_examples=300)


def _fuzz_delta():
    """A month after the fuzz container's, with a few articles and edges
    gone and others added, saved as a delta; and its base."""
    base = LinkSnapshot.load(io.BytesIO(_FUZZ_BLOB))
    rng = np.random.default_rng(6)
    ids = np.concatenate([base.article_ids[4:], [100_003, 100_500]])
    edges = [(u, v) for u, v in base.edges() if u in ids and v in ids][10:]
    pairs = rng.choice(ids, size=(30, 2))
    edges += [(int(u), int(v)) for u, v in pairs if u != v]
    buf = io.BytesIO()
    LinkSnapshot.from_edges("de", "2022-12", ids.tolist(), edges).save(buf, base)
    return buf.getvalue(), base


_FUZZ_DELTA, _FUZZ_BASE = _fuzz_delta()


def _with_fresh_checksum(blob, pos, mask):
    """The container with the byte at ``pos`` flipped and its CRC-32 redone."""
    body = bytearray(blob[:-8])
    body[pos] ^= mask
    return bytes(body) + struct.pack("<I", zlib.crc32(body)) + blob[-4:]


def _loads_valid_or_fails_typed(blob, base=None):
    try:
        loaded = LinkSnapshot.load(io.BytesIO(blob), base)
    except _CORRUPT:
        return
    loaded.validate()


@_fuzz
@given(cut=st.integers(0, len(_FUZZ_BLOB) - 1))
def test_truncated_container_never_loads(cut):
    with pytest.raises(_CORRUPT):
        LinkSnapshot.load(io.BytesIO(_FUZZ_BLOB[:cut]))


@_fuzz
@given(pos=st.integers(0, len(_FUZZ_BLOB) - 1), mask=st.integers(1, 255))
def test_flipped_byte_under_the_stored_checksum_never_loads(pos, mask):
    blob = bytearray(_FUZZ_BLOB)
    blob[pos] ^= mask
    with pytest.raises(_CORRUPT):
        LinkSnapshot.load(io.BytesIO(bytes(blob)))


@_fuzz
@given(pos=st.integers(0, len(_FUZZ_BLOB) - 9), mask=st.integers(1, 255))
def test_flipped_byte_with_a_fresh_checksum_fails_typed_or_loads_valid(pos, mask):
    _loads_valid_or_fails_typed(_with_fresh_checksum(_FUZZ_BLOB, pos, mask))


@_fuzz
@given(cut=st.integers(0, len(_FUZZ_DELTA) - 1))
def test_truncated_delta_never_loads(cut):
    with pytest.raises(_CORRUPT):
        LinkSnapshot.load(io.BytesIO(_FUZZ_DELTA[:cut]), _FUZZ_BASE)


@_fuzz
@given(pos=st.integers(0, len(_FUZZ_DELTA) - 1), mask=st.integers(1, 255))
def test_flipped_delta_byte_under_the_stored_checksum_never_loads(pos, mask):
    blob = bytearray(_FUZZ_DELTA)
    blob[pos] ^= mask
    with pytest.raises(_CORRUPT):
        LinkSnapshot.load(io.BytesIO(bytes(blob)), _FUZZ_BASE)


@_fuzz
@given(pos=st.integers(0, len(_FUZZ_DELTA) - 9), mask=st.integers(1, 255))
def test_flipped_delta_byte_with_a_fresh_checksum_fails_typed_or_loads_valid(
    pos, mask
):
    blob = _with_fresh_checksum(_FUZZ_DELTA, pos, mask)
    _loads_valid_or_fails_typed(blob, _FUZZ_BASE)


def test_validate_catches_tampering():
    snap = _small_snapshot()
    snap._targets[0] = 999999
    with pytest.raises(SnapshotIntegrityError):
        snap.validate()


@pytest.mark.parametrize("slice_values", [1, 2, 3, 64])
@pytest.mark.parametrize(
    "edit, message",
    [
        # Page 2's row holds edges 4-6, to the targets 0, 2, 3.
        ((4, 3), "not sorted unique"),  # targets 3, 2, 3
        ((5, 0), "not sorted unique"),  # targets 0, 0, 3
        ((5, 1), "self loop"),  # targets 0, 1, 3
        ((6, 5), "target outside article set"),  # targets 0, 2, 5 of 5 articles
    ],
)
def test_validate_checks_every_row_at_any_slice_edge(slice_values, edit, message):
    edges = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3), (2, 4), (4, 2)]
    snap = _small_snapshot(edges=edges)
    with mock.patch.object(graph, "_SLICE_VALUES", slice_values):
        snap.validate()
        edge, target = edit
        snap._targets[edge] = target
        snap._in_degree = np.bincount(snap._targets, minlength=snap.n_articles)
        with pytest.raises(SnapshotIntegrityError, match=message):
            snap.validate()


def test_load_counts_the_in_degrees_once():
    snap = _small_snapshot(edges=[(1, 2), (1, 3), (2, 1), (4, 2), (5, 2)])
    blob = io.BytesIO()
    snap.save(blob)
    with mock.patch.object(graph, "_in_degrees", wraps=graph._in_degrees) as counted:
        loaded = LinkSnapshot.load(io.BytesIO(blob.getvalue()))
    assert counted.call_count == 1
    assert loaded == snap
    assert loaded.in_degree_array().tolist() == [1, 3, 1, 0, 0]


def test_link_delta_and_events_on_known_change():
    before = _small_snapshot()
    after = LinkSnapshot.from_edges(
        "xx", "2022-12", articles=[1, 2, 3, 4, 5], edges=[(1, 2), (3, 1), (1, 5)]
    )
    delta = link_delta(before, after)
    assert delta.added == {(1, 5)}
    assert delta.removed == {(2, 3), (4, 2)}
    assert delta.from_month == "2022-11" and delta.to_month == "2022-12"

    events = deorphanizing_events(delta, orphans(before))
    assert [(e.page_id, e.new_inlink_count) for e in events] == [(5, 1)]
    assert events[0].direction == DEORPHANIZED
    assert events[0].month == "2022-11"

    lost = orphanizing_events(before, after)
    assert [e.page_id for e in lost] == [3]
    assert lost[0].direction == ORPHANIZED


def test_language_mismatch_raises():
    a = LinkSnapshot.from_edges("aa", "2022-11", articles=[1], edges=[])
    b = LinkSnapshot.from_edges("bb", "2022-12", articles=[1], edges=[])
    with pytest.raises(SnapshotMismatchError):
        link_delta(a, b)
    with pytest.raises(SnapshotMismatchError):
        orphanizing_events(a, b)


def test_events_match_oracle_on_random_month_pairs():
    rng = np.random.default_rng(99)
    for _ in range(10):
        wiki = fixtures.random_wiki(rng, n_pages=120, n_links=360)
        pages = load_page_table(wiki.page_rows)
        redirects = load_redirects(wiki.redirect_rows, pages)
        keep = rng.random(len(wiki.link_rows)) < 0.6
        second_rows = [row for row, k in zip(wiki.link_rows, keep) if k]
        titles = [row[2] for row in wiki.page_rows]
        for _ in range(120):
            second_rows.append(
                (
                    int(rng.integers(1, len(wiki.page_rows))),
                    0,
                    titles[int(rng.integers(len(titles)))],
                    0,
                )
            )
        before = build_snapshot(
            pages,
            redirects,
            list(iter_raw_links(wiki.link_rows)),
            language="xx",
            month="2022-11",
        )
        after = build_snapshot(
            pages,
            redirects,
            list(iter_raw_links(second_rows)),
            language="xx",
            month="2022-12",
        )
        delta = link_delta(before, after)
        assert delta.added == after.edge_set() - before.edge_set()
        assert delta.removed == before.edge_set() - after.edge_set()
        expected = deorph_events_oracle(
            before.edge_set(), after.edge_set(), orphans(before)
        )
        got = deorphanizing_events(delta, orphans(before))
        assert {e.page_id: e.new_inlink_count for e in got} == expected
        assert [e.page_id for e in got] == sorted(expected)
        assert [e.page_id for e in orphanizing_events(before, after)] == (
            orphanizing_oracle(before, after)
        )



@st.composite
def _month_pair(draw):
    """Two snapshots of one language whose article sets differ, either
    of them possibly empty or without edges."""
    snapshots = []
    for month in ("2022-11", "2022-12"):
        articles = sorted(draw(st.sets(st.integers(1, 12), max_size=12)))
        edges = []
        if articles:
            ends = st.sampled_from(articles)
            edges = draw(st.lists(st.tuples(ends, ends), max_size=30))
        edges = [(u, v) for u, v in edges if u != v]
        snapshots.append(LinkSnapshot.from_edges("xx", month, articles, edges))
    return snapshots


@settings(max_examples=300)
@given(pair=_month_pair())
def test_orphan_status_crossings_match_the_edge_diff(pair):
    before, after = pair
    shared, linked_before, linked_after = orphan_status(before, after)
    assert shared.tolist() == sorted(before.articles & after.articles)
    forward = shared[~linked_before & linked_after].tolist()
    events = deorphanizing_events(link_delta(before, after), orphans(before))
    assert forward == [e.page_id for e in events]
    gained = deorph_events_oracle(before.edge_set(), after.edge_set(), orphans(before))
    assert forward == sorted(gained)
    # Every inlink of a former orphan is new.
    assert {page: after.in_degree_of(page) for page in forward} == gained
    reverse = shared[linked_before & ~linked_after].tolist()
    assert reverse == orphanizing_oracle(before, after)


# -- delta containers ---------------------------------------------------------


def _gap_list(values):
    """Each value less the one before it, the first less 0."""
    return [b - a for a, b in zip([0] + values, values)]


def _csr_blocks(edges):
    """The value lists of a delta's small CSR of ``edges``, sorted rank
    pairs: the gaps between its rows, their out-degrees and per row the
    gaps between its targets."""
    rows = sorted({u for u, _ in edges})
    target_gaps = []
    for row in rows:
        target_gaps += _gap_list([v for u, v in edges if u == row])
    degrees = [sum(u == row for u, _ in edges) for row in rows]
    return _gap_list(rows), degrees, target_gaps


def _ranked(base, later):
    """Both months' ids and edge sets, and the rank of each id in their union."""
    base_ids, later_ids = base.article_ids.tolist(), later.article_ids.tolist()
    rank = {page: i for i, page in enumerate(sorted({*base_ids, *later_ids}))}
    return base_ids, later_ids, base.edge_set(), later.edge_set(), rank


def _delta_blocks(base, later):
    """The value lists of ``later``'s six delta blocks against ``base``,
    one value at a time: the gaps between the removed articles' places
    in the base's ids, of the added ids and of the removed edges' places
    in the base's targets, then the added edges as :func:`_csr_blocks`
    over ranks in the union of ids."""
    base_ids, later_ids, base_edges, later_edges, rank = _ranked(base, later)
    added = sorted((rank[u], rank[v]) for u, v in later_edges - base_edges)
    rows, degrees, target_gaps = _csr_blocks(added)
    return {
        "removed_at": _gap_list(
            [i for i, page in enumerate(base_ids) if page not in later_ids]
        ),
        "added_ids": _gap_list([page for page in later_ids if page not in base_ids]),
        "gone": _gap_list(
            [i for i, edge in enumerate(base.edges()) if edge not in later_edges]
        ),
        "rows": rows,
        "degrees": degrees,
        "target_gaps": target_gaps,
    }


def _format_4_delta(base, later):
    """``later``'s delta against ``base`` as format 4 wrote it: the gaps
    of the removed and of the added ids, then the removed and the added
    edges, each as :func:`_csr_blocks` over ranks in the union of ids, in
    eight blocks under six counts."""
    base_ids, later_ids, base_edges, later_edges, rank = _ranked(base, later)
    removed = [page for page in base_ids if page not in later_ids]
    added = [page for page in later_ids if page not in base_ids]
    blocks, counts = [_gap_list(removed), _gap_list(added)], [len(removed), len(added)]
    for edges in (base_edges - later_edges, later_edges - base_edges):
        ranked = sorted((rank[u], rank[v]) for u, v in edges)
        blocks += _csr_blocks(ranked)
        counts += [len(blocks[-3]), len(ranked)]
    header = _delta_header(base.language, later.month, base, counts, version=4)
    return _container(header, _deflate_blocks(*map(_varints, blocks)))


def _delta_blob(base, month, blocks):
    """A format-5 container of ``blocks`` (as :func:`_delta_blocks` gives
    them), each compressed whole, against ``base``."""
    counts = [len(blocks[name]) for name in ("removed_at", "added_ids", "gone")]
    counts += [len(blocks["rows"]), len(blocks["target_gaps"])]
    header = _delta_header(base.language, month, base, counts)
    return _container(header, _deflate_blocks(*map(_varints, blocks.values())))


def test_delta_layout_is_header_six_varint_blocks_crc_trailer():
    base = LinkSnapshot.from_edges("xx", "2022-11", [1, 300], [(300, 1)])
    later = LinkSnapshot.from_edges("xx", "2022-12", [1, 5], [(1, 5)])
    buf = io.BytesIO()
    assert later.save(buf, base) == (1, 1)
    # The union of both months' ids is 1, 5, 300.
    stream = _deflate_blocks(
        bytes([0x01]),  # removed articles: 300, at place 1 of the base's ids
        bytes([0x05]),  # added ids: 5
        bytes([0x00]),  # removed edges: 300->1, at place 0 of the base's targets
        bytes([0x00]),  # added edges' rows: 1, at rank 0
        bytes([0x01]),  # their out-degrees
        bytes([0x01]),  # row of 1: target 5, at rank 1
    )
    header = _delta_header("xx", "2022-12", base, (1, 1, 1, 1, 1))
    assert buf.getvalue() == _container(header, stream)
    assert buf.getvalue() == _delta_blob(base, "2022-12", _delta_blocks(base, later))
    assert LinkSnapshot.load(io.BytesIO(buf.getvalue()), base) == later


def test_a_format_4_delta_is_refused():
    """The delta of the layout test above as format 4 wrote it, removed
    ids and edges given by value and rank, is refused."""
    base = LinkSnapshot.from_edges("xx", "2022-11", [1, 300], [(300, 1)])
    later = LinkSnapshot.from_edges("xx", "2022-12", [1, 5], [(1, 5)])
    stream = _deflate_blocks(
        bytes([0xAC, 0x02]),  # removed ids: 300
        bytes([0x05]),  # added ids: 5
        bytes([0x02]),  # removed edges' rows: 300
        bytes([0x01]),  # their out-degrees
        bytes([0x00]),  # row of 300: target 1, at rank 0
        bytes([0x00]),  # added edges' rows: 1
        bytes([0x01]),  # their out-degrees
        bytes([0x01]),  # row of 1: target 5, at rank 1
    )
    header = _delta_header("xx", "2022-12", base, (1,) * 6, version=4)
    blob = _container(header, stream)
    assert blob == _format_4_delta(base, later)
    with pytest.raises(SnapshotFormatError, match="format 4 .* re-run `oatlas ingest`"):
        LinkSnapshot.load(io.BytesIO(blob), base)


# The small snapshot's next month without article 4, which linked to 2.
# The base's targets hold, in place order, 1->2, 2->3, 3->1 and 4->2.
_WITHOUT_4 = ([1, 2, 3, 5], [(1, 2), (2, 3), (3, 1)])


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"removed_at": [3, 0]}, "removed articles are not sorted unique places"),
        ({"removed_at": [3, 2**63 - 1]}, "removed articles are not sorted unique"),
        ({"removed_at": [5]}, "removed articles are not sorted unique places"),
        ({"gone": [3, 0]}, "removed edges are not sorted unique places"),
        ({"gone": [3, 2**63 - 1]}, "removed edges are not sorted unique places"),
        ({"gone": [4]}, "removed edges are not sorted unique places"),
        ({"gone": []}, "a removed article keeps an edge"),
        ({"removed_at": [0, 3], "gone": [0, 3]}, "an edge to a removed article"),
    ],
    ids=[
        "articles repeat",
        "articles descend",
        "article past the ids",
        "edges repeat",
        "edges descend",
        "edge past the targets",
        "article keeps its out-edge",
        "article keeps an in-edge",
    ],
)
def test_a_delta_whose_removed_places_do_not_fit_the_base_fails(edits, message):
    """Removed places that repeat, that descend (a gap that takes the sum
    past 2**63), that point past the base's arrays, or that leave a
    removed article an edge raise, under a valid checksum."""
    base = _small_snapshot()
    later = LinkSnapshot.from_edges("xx", "2022-12", *_WITHOUT_4)
    blocks = _delta_blocks(base, later)
    assert (blocks["removed_at"], blocks["gone"]) == ([3], [3])
    blob = _delta_blob(base, "2022-12", {**blocks, **edits})
    with pytest.raises(SnapshotIntegrityError, match=message):
        LinkSnapshot.load(io.BytesIO(blob), base)


@st.composite
def _month_pairs(draw):
    """Two months of one language: articles removed and added (the id
    sets may be disjoint or empty), and from none to all of the edges
    redrawn."""
    pool = draw(st.lists(st.integers(1, 2**40), max_size=24, unique=True))
    months = []
    for month in ("2022-11", "2022-12"):
        ids = [i for i in pool if draw(st.booleans())]
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)) if ids else None
        edges = draw(st.lists(pair, max_size=60)) if ids else []
        if months:  # the base's edges that the later month may keep
            kept = [(u, v) for u, v in months[0].edges() if u in ids and v in ids]
            edges += [edge for edge in kept if draw(st.booleans())]
        edges = [(u, v) for u, v in edges if u != v]
        months.append(LinkSnapshot.from_edges("de", month, ids, edges))
    return months


@settings(max_examples=200, deadline=None)
@given(pair=_month_pairs(), slice_values=st.integers(1, 64))
def test_a_delta_round_trips_at_any_slice_size(pair, slice_values):
    base, later = pair
    whole = io.BytesIO()
    churn = later.save(whole, base)
    before, after = base.edge_set(), later.edge_set()
    assert churn == (len(before - after), len(after - before))
    blocks = _delta_blocks(base, later)
    assert whole.getvalue() == _delta_blob(base, later.month, blocks)
    with mock.patch.object(graph, "_SLICE_VALUES", slice_values):
        buf = io.BytesIO()
        later.save(buf, base)
        assert buf.getvalue() == whole.getvalue()
        buf.seek(0)
        assert LinkSnapshot.load(buf, base) == later


def test_a_delta_path_finds_its_base_beside_it(tmp_path):
    base = _small_snapshot()
    later = _small_snapshot("2022-12", edges=[(1, 2), (5, 3), (3, 1)])
    base.save(tmp_path / "2022-11.oatl")
    assert later.save(tmp_path / "2022-12.oatl", base) == (2, 1)
    assert LinkSnapshot.load(tmp_path / "2022-12.oatl") == later
    blob = (tmp_path / "2022-12.oatl").read_bytes()
    assert LinkSnapshot.load(io.BytesIO(blob), base) == later
    with pytest.raises(SnapshotIntegrityError, match="needs its base"):
        LinkSnapshot.load(io.BytesIO(blob))
    with pytest.raises(SnapshotIntegrityError, match="given the base xx/2022-12"):
        LinkSnapshot.load(io.BytesIO(blob), later)
    with pytest.raises(SnapshotMismatchError):
        later.save(io.BytesIO(), later)


@pytest.mark.parametrize(
    "damage, error, message",
    [
        ("missing", SnapshotIntegrityError, "2022-11.oatl: not found"),
        ("stale", SnapshotIntegrityError, "not the graph this delta was written"),
        ("a delta", SnapshotFormatError, "2022-11.oatl: is itself a delta"),
    ],
)
def test_a_delta_refuses_a_missing_changed_or_delta_base(
    tmp_path, damage, error, message
):
    base = _small_snapshot()
    later = _small_snapshot("2022-12", edges=[(1, 2), (5, 3)])
    base.save(tmp_path / "2022-11.oatl")
    later.save(tmp_path / "2022-12.oatl", base)
    if damage == "missing":
        (tmp_path / "2022-11.oatl").unlink()
    elif damage == "stale":
        _small_snapshot(edges=[(1, 2)]).save(tmp_path / "2022-11.oatl")
    else:
        base.save(tmp_path / "2022-11.oatl", later)
    with pytest.raises(error, match=message):
        LinkSnapshot.load(tmp_path / "2022-12.oatl")
