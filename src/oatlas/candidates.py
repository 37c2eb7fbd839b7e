"""Where could an orphan's incoming links come from?

Two generators propose source articles for a given orphan:

* :func:`findlink_candidates` scans a corpus of annotated plain-text
  documents for unlinked mentions of the orphan's title.  A mention
  matches the title (underscores as spaces) exactly except for the
  case of the first character, must start and end at an alphanumeric /
  non-alphanumeric transition, and must not overlap an existing link.
* :func:`crosslingual_candidates` translates incoming links from other
  language versions of the same article: if s' links to a' in another
  wiki and both map to articles s, a here, then s -> a is proposed,
  with the set of supporting languages as evidence.

Both return :class:`CandidateLink` lists proposing only edges absent
from the snapshot; :func:`coverage_report` aggregates how many orphans
get any candidate at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import LinkSnapshot, orphans
from .ingest import QidIndex

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


def _mention_pattern(title: str) -> re.Pattern[str]:
    name = title.replace("_", " ")
    if not name:
        raise ValueError("empty title")
    first, rest = name[0], name[1:]
    variants = {first.lower(), first.upper()}
    if len(variants) > 1:
        head = "[" + "".join(re.escape(v) for v in sorted(variants)) + "]"
    else:
        head = re.escape(first)
    return re.compile(head + re.escape(rest))


def _has_edge(snapshot: LinkSnapshot, source: int, target: int) -> bool:
    row = snapshot.out_neighbors(source)
    i = int(np.searchsorted(row, target))
    return i < len(row) and int(row[i]) == target


def unlinked_mentions(document: AnnotatedDocument, title: str) -> list[tuple[int, int]]:
    """Byte spans of title mentions outside existing link spans.

    A mention must sit at word boundaries: the characters immediately
    before and after it are absent or non-alphanumeric.
    """
    pattern = _mention_pattern(title)
    text = document.text
    spans = []
    for match in pattern.finditer(text):
        start, end = match.start(), match.end()
        if start > 0 and text[start - 1].isalnum():
            continue
        if end < len(text) and text[end].isalnum():
            continue
        byte_start = len(text[:start].encode("utf-8"))
        byte_end = byte_start + len(match.group().encode("utf-8"))
        overlaps = any(
            byte_start < span_end and span_start < byte_end
            for span_start, span_end, _ in document.existing_link_spans
        )
        if not overlaps:
            spans.append((byte_start, byte_end))
    return spans


def findlink_candidates(
    orphan_page_id: int,
    orphan_title: str,
    corpus: Iterable[AnnotatedDocument],
    snapshot: LinkSnapshot,
) -> list[CandidateLink]:
    """Documents containing unlinked mentions of the orphan's title.

    The orphan's own document, documents for pages outside the
    snapshot's article set, and sources already linking to the orphan
    are skipped.  Candidates are ordered by mention count, ties by
    source page id.
    """
    if not snapshot.has_article(orphan_page_id):
        raise ValueError(f"page {orphan_page_id} is not an article in the snapshot")
    if snapshot.in_degree_of(orphan_page_id) != 0:
        raise ValueError(f"page {orphan_page_id} is not an orphan")
    out = []
    for document in corpus:
        if document.page_id == orphan_page_id:
            continue
        if not snapshot.has_article(document.page_id):
            continue
        if _has_edge(snapshot, document.page_id, orphan_page_id):
            continue
        spans = unlinked_mentions(document, orphan_title)
        if not spans:
            continue
        out.append(
            CandidateLink(
                language=snapshot.language,
                source_page_id=document.page_id,
                target_page_id=orphan_page_id,
                method=FINDLINK,
                evidence=tuple(spans),
                source_is_orphan=snapshot.in_degree_of(document.page_id) == 0,
            )
        )
    out.sort(key=lambda c: (-len(c.evidence), c.source_page_id))
    return out


def crosslingual_candidates(
    orphan_page_id: int,
    language: str,
    snapshots: Mapping[str, LinkSnapshot],
    qid_index: QidIndex,
    *,
    stats: CandidateStats | None = None,
) -> list[CandidateLink]:
    """Translate the orphan's incoming links from other languages.

    For every other language where the same item exists, each inlink
    source is mapped back through its item id; sources that exist here
    and do not already link to the orphan become candidates.  Evidence
    is the sorted tuple of supporting languages, and candidates are
    ordered by evidence size (descending), ties by source page id.
    An orphan with no item id yields an empty list and, when ``stats``
    is given, counts in ``stats.n_no_qid``.
    """
    snapshot = snapshots[language]
    if not snapshot.has_article(orphan_page_id):
        raise ValueError(f"page {orphan_page_id} is not an article in the snapshot")
    if snapshot.in_degree_of(orphan_page_id) != 0:
        raise ValueError(f"page {orphan_page_id} is not an orphan")
    qid = qid_index.qid_for_page(language, orphan_page_id)
    if qid is None:
        if stats is not None:
            stats.n_no_qid += 1
        return []
    votes: dict[int, set[str]] = {}
    for other in sorted(snapshots):
        if other == language:
            continue
        counterpart = qid_index.page_for_qid(other, qid)
        if counterpart is None or not snapshots[other].has_article(counterpart):
            continue
        for foreign_source in snapshots[other].in_neighbors(counterpart).tolist():
            source_qid = qid_index.qid_for_page(other, foreign_source)
            if source_qid is None:
                continue
            source = qid_index.page_for_qid(language, source_qid)
            if source is None or not snapshot.has_article(source):
                continue
            if source == orphan_page_id:
                continue
            votes.setdefault(source, set()).add(other)
    out = []
    for source, languages in votes.items():
        if _has_edge(snapshot, source, orphan_page_id):
            continue
        out.append(
            CandidateLink(
                language=language,
                source_page_id=source,
                target_page_id=orphan_page_id,
                method=CROSSLINGUAL,
                evidence=tuple(sorted(languages)),
                source_is_orphan=snapshot.in_degree_of(source) == 0,
            )
        )
    out.sort(key=lambda c: (-len(c.evidence), c.source_page_id))
    return out


def validate_candidates(
    proposals: Iterable[CandidateLink],
    snapshot: LinkSnapshot,
    orphan_ids: set[int],
) -> None:
    """Re-check candidate invariants against a snapshot; raise on any hole."""
    for cand in proposals:
        if cand.target_page_id not in orphan_ids:
            raise ValueError(f"candidate targets non-orphan {cand.target_page_id}")
        if cand.source_page_id == cand.target_page_id:
            raise ValueError(f"self candidate on {cand.source_page_id}")
        if not snapshot.has_article(cand.source_page_id):
            raise ValueError(f"candidate from unknown page {cand.source_page_id}")
        if _has_edge(snapshot, cand.source_page_id, cand.target_page_id):
            raise ValueError(
                f"candidate duplicates existing edge "
                f"{cand.source_page_id}->{cand.target_page_id}"
            )


@dataclass(frozen=True)
class MethodCoverage:
    n_with_ge1: int
    n_with_ge10: int


@dataclass(frozen=True)
class CoverageReport:
    language: str
    n_orphans: int
    n_with_ge1: int
    n_with_ge10: int
    per_method: dict[str, MethodCoverage]


def coverage_report(
    snapshot: LinkSnapshot,
    per_orphan: Mapping[int, Sequence[CandidateLink]],
) -> CoverageReport:
    """Aggregate candidate availability over a snapshot's orphans.

    ``per_orphan`` must have an entry (possibly empty) for every orphan.
    Combined counts use distinct source pages across methods; the
    per-method breakdown counts each method's own candidates.
    """
    orphan_ids = orphans(snapshot)
    missing = orphan_ids - set(per_orphan)
    if missing:
        raise ValueError(f"candidates missing for {len(missing)} orphans")
    n_ge1 = 0
    n_ge10 = 0
    methods: dict[str, list[int]] = {}
    for page_id in orphan_ids:
        proposals = per_orphan[page_id]
        distinct_sources = {c.source_page_id for c in proposals}
        if len(distinct_sources) >= 1:
            n_ge1 += 1
        if len(distinct_sources) >= 10:
            n_ge10 += 1
        counts: dict[str, int] = {}
        for cand in proposals:
            counts[cand.method] = counts.get(cand.method, 0) + 1
        for method, count in counts.items():
            methods.setdefault(method, []).append(count)
    per_method = {
        method: MethodCoverage(
            n_with_ge1=sum(1 for c in counts if c >= 1),
            n_with_ge10=sum(1 for c in counts if c >= 10),
        )
        for method, counts in sorted(methods.items())
    }
    return CoverageReport(
        language=snapshot.language,
        n_orphans=len(orphan_ids),
        n_with_ge1=n_ge1,
        n_with_ge10=n_ge10,
        per_method=per_method,
    )
