"""Where could an orphan's incoming links come from?

Two generators propose source articles for a given orphan:

* :func:`findlink_by_orphan` scans a corpus of annotated plain-text
  documents for unlinked mentions of the orphans' titles.  A mention
  matches the title (underscores as spaces) exactly except for the
  case of the first character, must start and end at an alphanumeric /
  non-alphanumeric transition, and must not overlap an existing link.
  Each document is read once for all orphans: its word starts are
  looked up in an index of the titles' leading characters, so the cost
  is the text length plus the hits.  :func:`findlink_candidates` is the
  same for one orphan.
* :func:`crosslingual_by_orphan` translates incoming links from other
  language versions of the same article: if s' links to a' in another
  wiki and both map to articles s, a here, then s -> a is proposed,
  with the set of supporting languages as evidence.  Each other
  language is one join of all the orphans' counterparts, their
  in-edges and the item index.  :func:`crosslingual_candidates` is the
  same for one orphan.

Both return :class:`CandidateLink` lists proposing only edges absent
from the snapshot; :func:`coverage_report` aggregates how many orphans
get any candidate at all.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .graph import LinkSnapshot, _id_array, _sorted_unique
# Unused here: bench/tracing.py wraps this name in this module.
from .graph import orphans  # noqa: F401
from .ingest import QidIndex, _positions, _take

FINDLINK = "findlink"
CROSSLINGUAL = "crosslingual"


@dataclass(frozen=True)
class AnnotatedDocument:
    """Plain text of one article plus its existing outgoing link spans.

    ``existing_link_spans`` holds ``(byte_start, byte_end,
    target_page_id)`` triples over the UTF-8 encoding of ``text``.
    """

    language: str
    page_id: int
    text: str
    existing_link_spans: tuple[tuple[int, int, int], ...] = ()

    def validate(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"text is {type(self.text).__name__}, not str")
        if self.page_id < 1:
            raise ValueError(f"bad page id {self.page_id}")
        limit = len(self.text.encode("utf-8"))
        for start, end, target in self.existing_link_spans:
            if not (0 <= start < end <= limit):
                raise ValueError(
                    f"span ({start}, {end}) outside document of {limit} bytes"
                )
            if target <= 0:
                raise ValueError(f"bad link target {target}")


@dataclass(frozen=True)
class CandidateLink:
    """A proposed new internal link.

    ``evidence`` depends on the method: byte-offset mention spans for
    findlink, supporting language codes for crosslingual.  Sources that
    are themselves orphans are flagged, not filtered.
    """

    language: str
    source_page_id: int
    target_page_id: int
    method: str
    evidence: tuple
    source_is_orphan: bool = False


@dataclass
class CandidateStats:
    """Side channel counting orphans that yield no candidates, by reason."""

    n_no_qid: int = 0


# Titles are indexed by their first _KEY_CHARS characters, the head in
# each of its case variants.  Longer keys hit fewer titles per word but
# cost a lookup per distinct length of the shorter titles.
_KEY_CHARS = 10
# After each non-alphanumeric character (``[\W_]`` is exactly ``not
# str.isalnum``), the next _KEY_CHARS characters.  Starting the pattern
# with a character class lets the regex engine skip ahead in C.
_AFTER_NON_ALNUM = re.compile(r"[\W_](?=(.{1,%d}))" % _KEY_CHARS, re.DOTALL)


def _word_start_prefixes(text: str) -> set[str]:
    """The _KEY_CHARS characters from each place a mention may start."""
    return {text[:_KEY_CHARS], *_AFTER_NON_ALNUM.findall(text)}


def _mention_heads(name: str) -> set[str]:
    """The characters a mention of ``name`` may start with.

    These are the characters of the first character's lower and upper
    case, which may be longer than one character (``ß`` gives ``SS``).
    """
    if not name:
        raise ValueError("empty title")
    first = name[0]
    variants = {first.lower(), first.upper()}
    return set("".join(variants)) if len(variants) > 1 else {first}


def _title_hits(text: str, name: str) -> Iterator[tuple[int, int]]:
    """Leftmost non-overlapping ``(start, end)`` hits of ``name`` in ``text``.

    The first character may be any of :func:`_mention_heads`; the rest
    must match exactly.  Each search starts where the last hit ended.
    """
    needles = [head + name[1:] for head in _mention_heads(name)]
    next_at = {needle: text.find(needle) for needle in needles}
    pos = 0
    while True:
        for needle, at in next_at.items():
            if 0 <= at < pos:
                next_at[needle] = text.find(needle, pos)
        hits = [(at, needle) for needle, at in next_at.items() if at >= 0]
        if not hits:
            return
        start, needle = min(hits)
        pos = start + len(needle)
        yield start, pos


def unlinked_mentions(document: AnnotatedDocument, title: str) -> list[tuple[int, int]]:
    """Byte spans of title mentions outside existing link spans.

    A mention must sit at word boundaries: the characters immediately
    before and after it are absent or non-alphanumeric.
    """
    text = document.text
    spans = []
    for start, end in _title_hits(text, title.replace("_", " ")):
        if start > 0 and text[start - 1].isalnum():
            continue
        if end < len(text) and text[end].isalnum():
            continue
        byte_start = len(text[:start].encode("utf-8"))
        byte_end = byte_start + len(text[start:end].encode("utf-8"))
        overlaps = any(
            byte_start < span_end and span_start < byte_end
            for span_start, span_end, _ in document.existing_link_spans
        )
        if not overlaps:
            spans.append((byte_start, byte_end))
    return spans


def findlink_by_orphan(
    titles: Mapping[int, str],
    corpus: Iterable[AnnotatedDocument],
    snapshot: LinkSnapshot,
) -> dict[int, list[CandidateLink]]:
    """Documents containing unlinked mentions of each orphan's title.

    ``titles`` maps orphan page ids to their titles.  The corpus is read
    once: each document's word starts are looked up in an index of the
    titles' leading characters, and only the orphans found there are
    matched with :func:`unlinked_mentions`.  So the cost is the text
    length plus the hits, not orphans x documents.

    An orphan's own document and documents for pages outside the
    snapshot's article set are skipped.  No source links to an orphan
    yet, so every proposal is a new edge.  Each orphan's candidates are
    ordered by mention count, ties by source page id.
    """
    _orphan_rows(snapshot, list(titles))
    index: dict[str, list[int]] = {}
    for orphan, title in titles.items():
        name = title.replace("_", " ")
        for head in _mention_heads(name):
            index.setdefault(head + name[1:_KEY_CHARS], []).append(orphan)
    key_lengths = {len(key) for key in index}

    found: dict[int, list[CandidateLink]] = {orphan: [] for orphan in titles}
    for document in corpus:
        source = document.page_id
        if not snapshot.has_article(source):
            continue
        hit = {
            orphan
            for prefix in _word_start_prefixes(document.text)
            for length in key_lengths
            for orphan in index.get(prefix[:length], ())
        }
        hit.discard(source)
        source_is_orphan = snapshot.in_degree_of(source) == 0
        for orphan in hit:
            spans = unlinked_mentions(document, titles[orphan])
            if spans:
                found[orphan].append(
                    CandidateLink(
                        language=snapshot.language,
                        source_page_id=source,
                        target_page_id=orphan,
                        method=FINDLINK,
                        evidence=tuple(spans),
                        source_is_orphan=source_is_orphan,
                    )
                )
    for out in found.values():
        out.sort(key=lambda c: (-len(c.evidence), c.source_page_id))
    return found


def findlink_candidates(
    orphan_page_id: int,
    orphan_title: str,
    corpus: Iterable[AnnotatedDocument],
    snapshot: LinkSnapshot,
) -> list[CandidateLink]:
    """:func:`findlink_by_orphan` for one orphan.

    Raises ``ValueError`` unless the page is an orphan article.
    """
    return findlink_by_orphan({orphan_page_id: orphan_title}, corpus, snapshot)[
        orphan_page_id
    ]


def _orphan_rows(snapshot: LinkSnapshot, page_ids: Sequence[int]) -> np.ndarray:
    """The rows of ``page_ids``; ``ValueError`` at the first non-orphan."""
    rows = snapshot.rows_of(page_ids)
    bad = np.flatnonzero((rows < 0) | (_take(snapshot.in_degree_array(), rows, 0) > 0))
    if len(bad):
        what = "an article in the snapshot" if rows[bad[0]] < 0 else "an orphan"
        raise ValueError(f"page {page_ids[bad[0]]} is not {what}")
    return rows


def crosslingual_by_orphan(
    orphans: Iterable[int],
    language: str,
    snapshots: Mapping[str, LinkSnapshot],
    qid_index: QidIndex,
    *,
    stats: CandidateStats | None = None,
) -> dict[int, list[CandidateLink]]:
    """Translate the orphans' incoming links from other languages.

    Per other language, one join maps the orphans' counterparts' inlink
    sources back through their items; sources that are other articles
    here become candidates.  Evidence is the sorted tuple of supporting
    languages; each orphan's candidates are ordered by evidence size
    (descending), ties by source page id.  Orphans with no item id count
    in ``stats.n_no_qid``.  ``ValueError`` unless each is an orphan.
    """
    snapshot = snapshots[language]
    orphans = list(orphans)
    orphan_rows = _orphan_rows(snapshot, orphans)
    items = qid_index.items_of(language, orphans)
    if stats is not None:
        stats.n_no_qid += int(np.count_nonzero(items < 0))
    others = [other for other in sorted(snapshots) if other != language]
    n, width = max(1, snapshot.n_articles), max(1, len(others))
    # One key per (orphan, source row, supporting language) found.
    keys = [np.zeros(0, dtype=np.int64)]
    for code, other in enumerate(others):
        there = snapshots[other]
        rows = there.rows_of(qid_index.pages_of(other, items))
        counterparts = np.flatnonzero(rows >= 0)
        place, sources = there.in_edges(rows[counterparts])
        place = counterparts[place]
        local = qid_index.pages_of(language, qid_index.items_of(other, sources))
        local = snapshot.rows_of(local)
        keep = (local >= 0) & (local != orphan_rows[place])
        keys.append((place[keep] * n + local[keep]) * width + code)
    pair, supporter = np.divmod(_sorted_unique(np.concatenate(keys)), width)
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    votes = np.diff(starts, append=len(pair))
    pair = pair[starts]
    order = np.lexsort((pair, -votes, pair // n))
    place, source = np.divmod(pair[order], n)
    names = [others[code] for code in supporter.tolist()]
    found: dict[int, list[CandidateLink]] = {orphan: [] for orphan in orphans}
    for at, source_id, first, count, is_orphan in zip(
        place.tolist(),
        snapshot.article_ids[source].tolist(),
        starts[order].tolist(),
        votes[order].tolist(),
        (snapshot.in_degree_array()[source] == 0).tolist(),
    ):
        evidence = tuple(names[first : first + count])
        found[orphans[at]].append(
            CandidateLink(
                language, source_id, orphans[at], CROSSLINGUAL, evidence, is_orphan
            )
        )
    return found


def crosslingual_candidates(
    orphan_page_id: int,
    language: str,
    snapshots: Mapping[str, LinkSnapshot],
    qid_index: QidIndex,
    *,
    stats: CandidateStats | None = None,
) -> list[CandidateLink]:
    """:func:`crosslingual_by_orphan` for one orphan."""
    return crosslingual_by_orphan(
        [orphan_page_id], language, snapshots, qid_index, stats=stats
    )[orphan_page_id]


def validate_candidates(
    proposals: Iterable[CandidateLink],
    snapshot: LinkSnapshot,
    orphan_ids: Collection[int],
) -> None:
    """Re-check candidate invariants against a snapshot; raise on any hole.

    All candidates are checked at once; the error names the first
    failing candidate and the first check it fails.
    """
    proposals = list(proposals)
    n = len(proposals)
    source = np.fromiter((c.source_page_id for c in proposals), np.int64, n)
    target = np.fromiter((c.target_page_id for c in proposals), np.int64, n)
    orphan_array = np.sort(_id_array(orphan_ids))
    checks = (
        (
            _positions(orphan_array, target) < 0,
            lambda c: f"candidate targets non-orphan {c.target_page_id}",
        ),
        (source == target, lambda c: f"self candidate on {c.source_page_id}"),
        (
            snapshot.rows_of(source) < 0,
            lambda c: f"candidate from unknown page {c.source_page_id}",
        ),
        (
            snapshot.has_edges(source, target),
            lambda c: "candidate duplicates existing edge "
            f"{c.source_page_id}->{c.target_page_id}",
        ),
    )
    failed = np.vstack([mask for mask, _ in checks])
    bad = np.flatnonzero(failed.any(axis=0))
    if len(bad):
        i = int(bad[0])
        _, message = checks[int(np.argmax(failed[:, i]))]
        raise ValueError(message(proposals[i]))


class Coverage(NamedTuple):
    """One row of ``coverage.tsv``; the fields are its columns.

    The combined counts are of distinct source pages across methods;
    each method's pair counts that method's own candidates.
    """

    language: str
    n_orphans: int
    n_with_ge1: int
    n_with_ge10: int
    findlink_ge1: int
    findlink_ge10: int
    crosslingual_ge1: int
    crosslingual_ge10: int
    n_no_qid: int = 0


def coverage_report(
    snapshot: LinkSnapshot,
    per_orphan: Mapping[int, Sequence[CandidateLink]],
) -> Coverage:
    """Aggregate candidate availability over a snapshot's orphans.

    ``per_orphan`` must have an entry (possibly empty) for every orphan.
    """
    orphan_ids = snapshot.article_ids[snapshot.in_degree_array() == 0].tolist()
    missing = [orphan for orphan in orphan_ids if orphan not in per_orphan]
    if missing:
        raise ValueError(f"candidates missing for {len(missing)} orphans")
    counts = []  # distinct sources, findlink and crosslingual candidates
    for orphan in orphan_ids:
        if proposals := per_orphan[orphan]:  # the rest count 0
            methods = Counter(c.method for c in proposals)
            sources = len({c.source_page_id for c in proposals})
            counts.append((sources, methods[FINDLINK], methods[CROSSLINGUAL]))
    cells = [sum(n[j] >= least for n in counts) for j in range(3) for least in (1, 10)]
    return Coverage(snapshot.language, len(orphan_ids), *cells)
