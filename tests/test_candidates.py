"""Mention scanning, cross-wiki link translation, and coverage counts."""

import sys
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import candidates
from oatlas.candidates import (
    CROSSLINGUAL,
    FINDLINK,
    AnnotatedDocument,
    CandidateLink,
    CandidateStats,
    coverage_report,
    crosslingual_by_orphan,
    crosslingual_candidates,
    findlink_by_orphan,
    findlink_candidates,
    unlinked_mentions,
    validate_candidates,
)
from oatlas.graph import LinkSnapshot, orphans
from oatlas.ingest import QidIndex

from .oracles import (
    QidIndexOracle,
    coverage_oracle,
    crosslingual_oracle,
    findlink_oracle,
    unlinked_mentions_oracle,
    validate_candidates_oracle,
)


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


def test_mention_head_takes_each_character_of_a_multi_character_case_map():
    # "ß".upper() is "SS" and "İ".lower() is "i" + U+0307: a mention may
    # start with any one of those characters.
    assert unlinked_mentions(_doc("Sa, ßa"), "ßa") == [(0, 2), (4, 7)]
    assert unlinked_mentions(_doc("SSa"), "ßa") == []
    assert unlinked_mentions(_doc("i, \u0307, İ"), "İ") == [(0, 1), (3, 5), (7, 9)]


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


# -- exactness against the regex oracle ---------------------------------------

# Pieces of titles and texts: self-overlapping titles, first characters
# whose case maps to several characters (ß gives SS, İ gives i + U+0307),
# accents, digits, brackets, underscores and single and double spaces.
_PIECES = (
    "A_a", "A a", "Abab", "ab", "a", "A", "b", "ß", "S", "SS", "s", "İ", "i",
    "\u0307", "é", "É", "1", "2", "(", ")", "_", " ", "  ",
)
_titles = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=6).map("".join)


@st.composite
def _documents(draw, titles, page_ids=st.just(1)):
    """A text of pieces and near mentions of ``titles``, with random link spans.

    A title's first character is replaced by its lower and upper case
    and by each character of those.
    """
    mentions = []
    for name in (title.replace("_", " ") for title in titles):
        lower, upper = name[0].lower(), name[0].upper()
        for head in (name[0], lower, upper, *lower, *upper):
            mentions.append(head + name[1:])
    words = st.sampled_from(_PIECES + tuple(mentions))
    text = "".join(draw(st.lists(words, max_size=20)))
    limit = len(text.encode("utf-8"))
    spans = []
    for _ in range(draw(st.integers(0, 3)) if limit else 0):
        start = draw(st.integers(0, limit - 1))
        spans.append((start, draw(st.integers(start + 1, limit)), 9))
    return _doc(text, page_id=draw(page_ids), spans=tuple(spans))


@settings(max_examples=1000)
@given(data=st.data(), title=_titles)
def test_unlinked_mentions_match_the_regex_oracle(data, title):
    document = data.draw(_documents([title]), label="document")
    assert unlinked_mentions(document, title) == unlinked_mentions_oracle(
        document, title
    )


@st.composite
def _findlink_worlds(draw):
    """A small snapshot, titles for its orphans and a corpus mentioning them."""
    pages = list(range(1, draw(st.integers(2, 8)) + 1))
    edges = draw(st.sets(st.tuples(st.sampled_from(pages), st.sampled_from(pages))))
    snapshot = LinkSnapshot.from_edges(
        "aa", "2023-05", pages, {(u, v) for u, v in edges if u != v}
    )
    titles = {orphan: draw(_titles) for orphan in sorted(orphans(snapshot))}
    # Page ids past the snapshot's articles stand for unknown pages.
    documents = _documents(list(titles.values()), st.integers(1, len(pages) + 2))
    return titles, draw(st.lists(documents, max_size=6)), snapshot


@settings(max_examples=300)
@given(world=_findlink_worlds())
def test_findlink_by_orphan_matches_the_pairwise_oracle(world):
    titles, corpus, snapshot = world
    got = findlink_by_orphan(titles, corpus, snapshot)
    assert {
        orphan: [(c.source_page_id, c.evidence, c.source_is_orphan) for c in found]
        for orphan, found in got.items()
    } == findlink_oracle(titles, corpus, snapshot)
    for orphan, found in got.items():
        assert all(c.target_page_id == orphan for c in found)
        assert all(c.method == FINDLINK and c.language == "aa" for c in found)
        assert found == findlink_candidates(orphan, titles[orphan], corpus, snapshot)


def test_word_starts_follow_exactly_the_non_alphanumeric_characters():
    # The index is looked up only where a mention may start, so the
    # regex's idea of "alphanumeric" must be exactly str.isalnum's.
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    got = (m.start() for m in candidates._AFTER_NON_ALNUM.finditer(text))
    want = (i for i, c in enumerate(text[:-1]) if not c.isalnum())
    assert all(a == b for a, b in zip_longest(got, want))


def test_findlink_matches_only_pairs_whose_key_starts_a_word(monkeypatch):
    # 300 orphans and 100 documents; the documents link in a ring, so
    # only pages 1-300 are orphans.  Five titles occur, each at a word
    # start; two more keys occur only inside a word; one key starts a
    # word without the rest of its title.
    n_orphans, n_docs = 300, 100
    docs = range(n_orphans + 1, n_orphans + n_docs + 1)
    snapshot = LinkSnapshot.from_edges(
        "aa",
        "2023-05",
        range(1, n_orphans + n_docs + 1),
        [(d, d + 1 if d < docs[-1] else docs[0]) for d in docs],
    )
    titles = {k: f"Tower_{k:03d}_grove" for k in range(1, n_orphans + 1)}
    corpus = [
        _doc(
            f"the tower {d % 5 + 1:03d} grove and xTower 050 grove, "
            f"atower 060 grove; Tower 070 glen",
            page_id=d,
        )
        for d in docs
    ]
    calls = []
    real = candidates.unlinked_mentions

    def counted(document, title):
        calls.append((document.page_id, title))
        return real(document, title)

    monkeypatch.setattr(candidates, "unlinked_mentions", counted)
    found = findlink_by_orphan(titles, corpus, snapshot)

    keyed = set()
    for document in corpus:
        text = document.text
        for orphan, title in titles.items():
            name = title.replace("_", " ")
            for head in (name[0].lower(), name[0].upper()):
                key = head + name[1 : candidates._KEY_CHARS]
                at = text.find(key)
                while at >= 0:
                    if at == 0 or not text[at - 1].isalnum():
                        keyed.add((document.page_id, title))
                    at = text.find(key, at + 1)
    assert len(calls) == len(set(calls)) == len(keyed) == 2 * n_docs
    assert set(calls) == keyed
    assert len(calls) < n_orphans * n_docs / 100
    assert {o for o, cands in found.items() if cands} == {1, 2, 3, 4, 5}
    assert sum(len(cands) for cands in found.values()) == n_docs


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


_LANGUAGES = ("aa", "bb", "cc", "dd", "ee", "ff")


@st.composite
def _crosslingual_worlds(draw):
    """3-6 languages with articles among pages 1..10, so that some pages
    with an item are not articles.  Each language gives most of items
    Q1..Q6 a page of its own, so that sources are shared, and pages
    without an item remain.  A few extra rows give a page a second item
    or an item a second page; the rows are attached in a drawn order,
    and the last row of a page or an item wins."""
    languages = _LANGUAGES[: draw(st.integers(3, 6))]
    items = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
    snapshots, rows = {}, []
    for lang in languages:
        articles = sorted(draw(st.sets(st.integers(1, 10), min_size=4, max_size=9)))
        ends = st.sampled_from(articles)
        edges = draw(st.lists(st.tuples(ends, ends), min_size=4, max_size=30))
        edges = [(u, v) for u, v in edges if u != v]
        snapshots[lang] = LinkSnapshot.from_edges(lang, "2023-05", articles, edges)
        pages = draw(st.permutations(range(1, 11)))
        rows += [
            (item, lang, page)
            for item, page in zip(items, pages)
            if draw(st.integers(0, 5)) > 0
        ]
    extra = st.tuples(
        st.sampled_from(items), st.sampled_from(languages), st.integers(1, 10)
    )
    rows = draw(st.permutations(rows + draw(st.lists(extra, max_size=4))))
    index, oracle = QidIndex(), QidIndexOracle()
    for qid, lang, page in rows:
        index.attach_page(qid, lang, page)
        oracle.attach_page(qid, lang, page)
    return snapshots, index, oracle


@settings(max_examples=300)
@given(world=_crosslingual_worlds())
def test_crosslingual_join_matches_the_triple_loop_oracle(world):
    """One join per language gives each orphan the oracle's candidates,
    as the one-orphan wrapper does, and counts the orphans without an item."""
    snapshots, index, oracle = world
    for lang, snapshot in snapshots.items():
        orphan_ids = sorted(orphans(snapshot))
        stats = CandidateStats()
        found = crosslingual_by_orphan(orphan_ids, lang, snapshots, index, stats=stats)
        assert list(found) == orphan_ids
        for orphan in orphan_ids:
            got = found[orphan]
            want = crosslingual_oracle(orphan, lang, snapshots, oracle)
            assert [(c.source_page_id, c.evidence) for c in got] == want
            assert all(
                (c.language, c.target_page_id, c.method) == (lang, orphan, CROSSLINGUAL)
                and c.source_is_orphan == (c.source_page_id in orphan_ids)
                for c in got
            )
            assert crosslingual_candidates(orphan, lang, snapshots, index) == got
        no_qid = [o for o in orphan_ids if oracle.qid_for_page(lang, o) is None]
        assert stats.n_no_qid == len(no_qid)


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


@settings(max_examples=300)
@given(data=st.data())
def test_validate_candidates_matches_the_one_at_a_time_oracle(data):
    articles = sorted(data.draw(st.sets(st.integers(1, 8), min_size=2), label="ids"))
    edges = data.draw(
        st.lists(st.tuples(st.sampled_from(articles), st.sampled_from(articles))),
        label="edges",
    )
    snapshot = LinkSnapshot.from_edges(
        "aa", "2023-05", articles, [(u, v) for u, v in edges if u != v]
    )
    orphan_ids = data.draw(st.sets(st.integers(0, 9)), label="orphans")
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=8),
        label="candidates",
    )
    proposals = [_cand(source, target) for source, target in pairs]
    expected = validate_candidates_oracle(proposals, snapshot, orphan_ids)
    if expected is None:
        validate_candidates(proposals, snapshot, orphan_ids)
    else:
        with pytest.raises(ValueError) as info:
            validate_candidates(proposals, snapshot, orphan_ids)
        assert str(info.value) == expected


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
    assert report.findlink_ge1 == 2
    assert report.findlink_ge10 == 1
    assert report.crosslingual_ge1 == 1
    assert report.crosslingual_ge10 == 0


def test_coverage_report_requires_every_orphan():
    snapshot = LinkSnapshot.from_edges("aa", "2023-05", [1, 2], [])
    with pytest.raises(ValueError, match="missing for 1 orphans"):
        coverage_report(snapshot, {1: []})
    # Entries for non-orphans are tolerated and ignored.
    linked = LinkSnapshot.from_edges("aa", "2023-05", [1, 2], [(1, 2)])
    report = coverage_report(linked, {1: [], 2: [_cand(1, 2)]})
    assert report.n_orphans == 1
    assert report.n_with_ge1 == 0


# Few sources, so an orphan's candidates often repeat one.  Lists of 9 to
# 11 straddle the >= 10 threshold.
_candidate = st.tuples(st.integers(1, 12), st.sampled_from((FINDLINK, CROSSLINGUAL)))
_candidate_lists = st.one_of(
    st.lists(_candidate, max_size=3), st.lists(_candidate, min_size=9, max_size=11)
)


@settings(max_examples=300)
@given(data=st.data())
def test_coverage_report_matches_the_per_orphan_recount(data):
    articles = sorted(data.draw(st.sets(st.integers(1, 10), min_size=1), label="ids"))
    edges = data.draw(
        st.lists(st.tuples(st.sampled_from(articles), st.sampled_from(articles))),
        label="edges",
    )
    snapshot = LinkSnapshot.from_edges(
        "aa", "2023-05", articles, [(u, v) for u, v in edges if u != v]
    )
    orphan_ids = sorted(orphans(snapshot))
    # Entries for non-orphans, and for pages outside the snapshot, are ignored.
    extra = data.draw(st.lists(st.sampled_from(articles + [11])), label="extra")
    per_orphan = {
        target: [
            _cand(source, target, method)
            for source, method in data.draw(_candidate_lists, label=f"to {target}")
        ]
        for target in orphan_ids + extra
    }
    expected = coverage_oracle(snapshot, per_orphan)
    assert coverage_report(snapshot, per_orphan) == expected
    if orphan_ids:
        del per_orphan[data.draw(st.sampled_from(orphan_ids), label="missing")]
        for count in (coverage_report, coverage_oracle):
            with pytest.raises(ValueError, match="missing for 1 orphans"):
                count(snapshot, per_orphan)
