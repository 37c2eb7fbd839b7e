"""Link graph construction, persistence and month-over-month events."""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import fixtures
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
    orphanizing_events,
    orphans,
)
from oatlas.ingest import iter_raw_links, load_page_table, load_redirects

from .oracles import (
    deadends_oracle,
    deorph_events_oracle,
    edges_oracle,
    kept_links_oracle,
    orphanizing_oracle,
    orphans_oracle,
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
    assert snap.out_degree_of(5) == 0
    assert snap.has_article(5) and not snap.has_article(6)
    assert orphans(snap) == {4, 5}
    assert deadends(snap) == {5}
    snap.validate()


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
    with pytest.raises(SnapshotFormatError, match="ingest"):
        LinkSnapshot.load(io.BytesIO(blob[:4] + b"\x01" + blob[5:]))


def test_container_layout_is_header_three_varint_blocks_crc_trailer():
    snap = LinkSnapshot.from_edges("xx", "2022-11", articles=[1, 300], edges=[(300, 1)])
    buf = io.BytesIO()
    snap.save(buf)
    body = (
        b"OATL\x02"
        + struct.pack("<H", 2) + b"xx"
        + struct.pack("<H", 7) + b"2022-11"
        + struct.pack("<QQ", 2, 1)
        + bytes([0x01, 0xAB, 0x02])  # id gaps 1 and 299
        + bytes([0x00, 0x01])  # out-degrees
        + bytes([0x00])  # row of page 300: target index 0
    )
    assert buf.getvalue() == body + struct.pack("<I", zlib.crc32(body)) + b"LTAO"


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
    body = bytearray(_FUZZ_BLOB[:-8])
    body[pos] ^= mask
    blob = bytes(body) + struct.pack("<I", zlib.crc32(body)) + _FUZZ_BLOB[-4:]
    try:
        loaded = LinkSnapshot.load(io.BytesIO(blob))
    except _CORRUPT:
        return
    loaded.validate()


def test_validate_catches_tampering():
    snap = _small_snapshot()
    snap._targets[0] = 999999
    with pytest.raises(SnapshotIntegrityError):
        snap.validate()


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

