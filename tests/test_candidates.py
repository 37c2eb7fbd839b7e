"""Mention scanning, cross-wiki link translation, and coverage counts."""

import numpy as np
import pytest

from oatlas.candidates import (
    CROSSLINGUAL,
    FINDLINK,
    AnnotatedDocument,
    CandidateLink,
    CandidateStats,
    coverage_report,
    crosslingual_candidates,
    findlink_candidates,
    unlinked_mentions,
    validate_candidates,
)
from oatlas.graph import LinkSnapshot, orphans
from oatlas.ingest import QidIndex

from .oracles import crosslingual_oracle


def _doc(text, page_id=1, spans=(), language="aa"):
    return AnnotatedDocument(
        language=language, page_id=page_id, text=text, existing_link_spans=spans
    )


def _index(entries):
    idx = QidIndex()
    for qid, lang, page in entries:
        idx.add(qid, lang, f"T{page}")
        idx.attach_page(qid, lang, page)
    return idx


# -- unlinked_mentions --------------------------------------------------------


def test_mention_folds_first_character_only():
    assert unlinked_mentions(_doc("I like rock music."), "Rock_music") == [(7, 17)]
    assert unlinked_mentions(_doc("Rock music rules."), "Rock_music") == [(0, 10)]
    assert unlinked_mentions(_doc("ROCK MUSIC!"), "Rock_music") == []


def test_mention_requires_word_boundaries():
    assert unlinked_mentions(_doc("bedrock music"), "Rock_music") == []
    assert unlinked_mentions(_doc("rock musical"), "Rock_music") == []
    assert unlinked_mentions(_doc("(rock music)"), "Rock_music") == [(1, 11)]
    assert unlinked_mentions(_doc("rock music, early era"), "Rock_music") == [(0, 10)]


def test_mention_reports_utf8_byte_offsets():
    spans = unlinked_mentions(_doc("Café loves rock music."), "Rock_music")
    assert spans == [(12, 22)]
    spans = unlinked_mentions(_doc("ólafur plays."), "Ólafur")
    assert spans == [(0, 7)]


def test_mention_excludes_overlaps_with_existing_links():
    text = "See rock music here"
    covered = _doc(text, spans=((4, 14, 77),))
    assert unlinked_mentions(covered, "Rock_music") == []
    partial = _doc(text, spans=((10, 16, 77),))
    assert unlinked_mentions(partial, "Rock_music") == []
    elsewhere = _doc(text, spans=((0, 3, 77),))
    assert unlinked_mentions(elsewhere, "Rock_music") == [(4, 14)]
    adjacent = _doc(text, spans=((14, 19, 77),))
    assert unlinked_mentions(adjacent, "Rock_music") == [(4, 14)]


def test_mention_multiple_hits_and_digit_titles():
    doc = _doc("rock music, then Rock music again")
    assert unlinked_mentions(doc, "Rock_music") == [(0, 10), (17, 27)]
    # A leading digit has no case variants, so the rest stays exact.
    assert unlinked_mentions(_doc("3M makes tape"), "3M") == [(0, 2)]
    assert unlinked_mentions(_doc("3m makes tape"), "3M") == []
    with pytest.raises(ValueError, match="empty title"):
        unlinked_mentions(_doc("anything"), "")


def test_document_span_validation():
    _doc("short", spans=((0, 5, 9),)).validate()
    with pytest.raises(ValueError, match="outside"):
        _doc("short", spans=((0, 6, 9),)).validate()
    with pytest.raises(ValueError, match="target"):
        _doc("short", spans=((0, 2, 0),)).validate()


# -- findlink_candidates ------------------------------------------------------


def _findlink_world():
    # Orphan 3 has no incoming links; 1 is linked from 3 so it is not
    # itself an orphan, while 2 and 4 are.
    snapshot = LinkSnapshot.from_edges("aa", "2023-05", [1, 2, 3, 4], [(3, 1)])
    corpus = [
        _doc("rock music and more rock music", page_id=1),
        _doc("one rock music mention", page_id=2),
        _doc("rock music in its own article", page_id=3),
        _doc("also one rock music mention", page_id=4),
        _doc("rock music outside the wiki", page_id=99),
        _doc("nothing relevant", page_id=2),
    ]
    return snapshot, corpus


def test_findlink_orders_by_mentions_then_page_id():
    snapshot, corpus = _findlink_world()
    out = findlink_candidates(3, "Rock_music", corpus, snapshot)
    assert [c.source_page_id for c in out] == [1, 2, 4]
    assert [len(c.evidence) for c in out] == [2, 1, 1]
    assert all(c.method == FINDLINK for c in out)
    assert all(c.target_page_id == 3 for c in out)
    assert out[0].evidence == ((0, 10), (20, 30))


def test_findlink_skips_self_and_foreign_documents():
    snapshot, corpus = _findlink_world()
    out = findlink_candidates(3, "Rock_music", corpus, snapshot)
    assert 3 not in {c.source_page_id for c in out}
    assert 99 not in {c.source_page_id for c in out}


def test_findlink_flags_orphan_sources():
    snapshot, corpus = _findlink_world()
    flags = {
        c.source_page_id: c.source_is_orphan
        for c in findlink_candidates(3, "Rock_music", corpus, snapshot)
    }
    assert flags == {1: False, 2: True, 4: True}


def test_findlink_preconditions():
    snapshot, corpus = _findlink_world()
    with pytest.raises(ValueError, match="not an article"):
        findlink_candidates(99, "Rock_music", corpus, snapshot)
    with pytest.raises(ValueError, match="not an orphan"):
        findlink_candidates(1, "T1", corpus, snapshot)


# -- crosslingual_candidates --------------------------------------------------


def _crosslingual_world():
    # Home wiki aa: orphan 3, potential sources 7 and 8.
    snapshots = {
        "aa": LinkSnapshot.from_edges("aa", "2023-05", [3, 7, 8], [(7, 8)]),
        # bb: counterpart 13 linked from 15 (maps to aa:7).
        "bb": LinkSnapshot.from_edges("bb", "2023-05", [13, 15], [(15, 13)]),
        # cc: counterpart 23 linked from 25 (aa:7 again), 26 (qid
        # unknown at home) and 27 (no qid at all).
        "cc": LinkSnapshot.from_edges(
            "cc", "2023-05", [23, 25, 26, 27], [(25, 23), (26, 23), (27, 23)]
        ),
    }
    index = _index(
        [
            ("Q200", "aa", 3),
            ("Q200", "bb", 13),
            ("Q200", "cc", 23),
            ("Q500", "aa", 7),
            ("Q500", "bb", 15),
            ("Q500", "cc", 25),
            ("Q600", "cc", 26),
        ]
    )
    return snapshots, index


def test_crosslingual_merges_evidence_across_wikis():
    snapshots, index = _crosslingual_world()
    out = crosslingual_candidates(3, "aa", snapshots, index)
    assert len(out) == 1
    cand = out[0]
    assert cand.source_page_id == 7
    assert cand.target_page_id == 3
    assert cand.method == CROSSLINGUAL
    assert cand.evidence == ("bb", "cc")
    assert cand.source_is_orphan  # nothing links to aa:7


def test_crosslingual_skips_sources_mapping_to_the_orphan_itself():
    snapshots, _ = _crosslingual_world()
    # A stale item id QX still resolves to the orphan's own page (a
    # merged-item leftover): a foreign inlink source carrying QX must
    # not propose a self link.  Attached before Q200 so the orphan's
    # primary qid lookup stays Q200.
    index = _index(
        [
            ("QX", "aa", 3),
            ("QX", "cc", 27),
            ("Q200", "aa", 3),
            ("Q200", "bb", 13),
            ("Q200", "cc", 23),
            ("Q500", "aa", 7),
            ("Q500", "bb", 15),
            ("Q500", "cc", 25),
        ]
    )
    assert index.qid_for_page("aa", 3) == "Q200"
    assert index.page_for_qid("aa", "QX") == 3
    out = crosslingual_candidates(3, "aa", snapshots, index)
    assert [c.source_page_id for c in out] == [7]
    assert out[0].evidence == ("bb", "cc")


def test_crosslingual_without_qid_reports_reason():
    snapshots = {
        "aa": LinkSnapshot.from_edges("aa", "2023-05", [3], []),
        "bb": LinkSnapshot.from_edges("bb", "2023-05", [13], []),
    }
    stats = CandidateStats()
    out = crosslingual_candidates(3, "aa", snapshots, QidIndex(), stats=stats)
    assert out == []
    assert stats.n_no_qid == 1


def test_crosslingual_preconditions():
    snapshots, index = _crosslingual_world()
    with pytest.raises(ValueError, match="not an article"):
        crosslingual_candidates(99, "aa", snapshots, index)
    with pytest.raises(ValueError, match="not an orphan"):
        crosslingual_candidates(8, "aa", snapshots, index)


def _random_multiwiki(rng):
    languages = ["aa", "bb", "cc", "dd"][: int(rng.integers(2, 5))]
    snapshots = {}
    pages = {}
    for i, lang in enumerate(languages):
        ids = list(range(i * 100 + 1, i * 100 + 1 + int(rng.integers(6, 13))))
        n_edges = int(rng.integers(0, 2 * len(ids)))
        edges = set()
        for _ in range(n_edges):
            u, v = rng.choice(ids, size=2, replace=False)
            edges.add((int(u), int(v)))
        snapshots[lang] = LinkSnapshot.from_edges(lang, "2023-05", ids, edges)
        pages[lang] = ids
    index = QidIndex()
    n_items = int(rng.integers(4, 10))
    for q in range(n_items):
        qid = f"Q{q}"
        for lang in languages:
            if rng.random() < 0.7 and pages[lang]:
                page = int(rng.choice(pages[lang]))
                if index.qid_for_page(lang, page) is None:
                    index.add(qid, lang, f"{lang}:{page}")
                    index.attach_page(qid, lang, page)
    return snapshots, index


def test_crosslingual_matches_triple_loop_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(15):
        snapshots, index = _random_multiwiki(rng)
        for lang, snapshot in snapshots.items():
            for orphan_id in sorted(orphans(snapshot)):
                got = crosslingual_candidates(orphan_id, lang, snapshots, index)
                expected = crosslingual_oracle(orphan_id, lang, snapshots, index)
                assert [(c.source_page_id, c.evidence) for c in got] == expected
                checked += 1
    assert checked > 50


# -- validate_candidates and coverage ----------------------------------------


def _cand(source, target, method=FINDLINK, evidence=((0, 4),)):
    return CandidateLink(
        language="aa",
        source_page_id=source,
        target_page_id=target,
        method=method,
        evidence=tuple(evidence),
    )


def test_validate_candidates_catches_each_violation():
    snapshot = LinkSnapshot.from_edges("aa", "2023-05", [1, 2, 3], [(2, 1)])
    validate_candidates([_cand(1, 3), _cand(2, 3)], snapshot, {3})
    with pytest.raises(ValueError, match="non-orphan"):
        validate_candidates([_cand(2, 1)], snapshot, {3})
    with pytest.raises(ValueError, match="self candidate"):
        validate_candidates([_cand(3, 3)], snapshot, {3})
    with pytest.raises(ValueError, match="unknown page"):
        validate_candidates([_cand(99, 3)], snapshot, {3})
    with pytest.raises(ValueError, match="existing edge"):
        validate_candidates([_cand(2, 1)], snapshot, {1, 3})


def test_coverage_report_counts_distinct_sources():
    # Orphans: 1, 2, 3 and 4 (only 5 has an incoming link).
    snapshot = LinkSnapshot.from_edges(
        "aa", "2023-05", [1, 2, 3, 4, 5], [(1, 5)]
    )
    per_orphan = {
        1: [_cand(s, 1) for s in range(10, 22)],  # 12 distinct sources
        2: [
            _cand(9, 2, method=FINDLINK),
            _cand(9, 2, method=CROSSLINGUAL, evidence=("bb",)),
        ],
        3: [],
        4: [],
    }
    report = coverage_report(snapshot, per_orphan)
    assert report.language == "aa"
    assert report.n_orphans == 4
    assert report.n_with_ge1 == 2
    assert report.n_with_ge10 == 1
    assert report.per_method[FINDLINK].n_with_ge1 == 2
    assert report.per_method[FINDLINK].n_with_ge10 == 1
    assert report.per_method[CROSSLINGUAL].n_with_ge1 == 1
    assert report.per_method[CROSSLINGUAL].n_with_ge10 == 0


def test_coverage_report_requires_every_orphan():
    snapshot = LinkSnapshot.from_edges("aa", "2023-05", [1, 2], [])
    with pytest.raises(ValueError, match="missing for 1 orphans"):
        coverage_report(snapshot, {1: []})
    # Entries for non-orphans are tolerated and ignored.
    linked = LinkSnapshot.from_edges("aa", "2023-05", [1, 2], [(1, 2)])
    report = coverage_report(linked, {1: [], 2: [_cand(1, 2)]})
    assert report.n_orphans == 1
    assert report.n_with_ge1 == 0
