"""Brute-force oracles used by the test suites.

Everything here recomputes results with the most literal method
available (per-link redirect chasing, full recounts, nested loops) so
that the library's vectorized paths have something independent to be
compared against.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from oatlas.candidates import CROSSLINGUAL, FINDLINK, AnnotatedDocument, CandidateLink
from oatlas.causal import (
    CONTROL,
    DEFAULT_MIN_PAIRS,
    FORWARD,
    TREATED,
    DegeneratePanelError,
    DidEstimate,
    PairAssignment,
    PairBuildResult,
    PanelObservation,
    _fit,
)
from oatlas.characterize import (
    BINARY_FEATURES,
    TOPIC_THRESHOLD,
    RepresentationScore,
)
from oatlas.ingest import (
    REFERRER_CLASSES,
    TOPIC_LABELS,
    DuplicateKeyError,
    FeatureRecord,
    InvalidRecordError,
    PageRecord,
    PageTable,
    PageviewRecord,
    PageviewTable,
    QidIndex,
    RawLink,
    RedirectTable,
    TsvFormatError,
)
from oatlas.graph import (
    LinkSnapshot,
    deorphanizing_events,
    link_delta,
    orphanizing_events,
    orphans,
)
from oatlas.months import month_add, parse_month


def chase_redirect(redirects: RedirectTable, page_id: int) -> int | None:
    """Follow redirect hops one at a time; None on a cycle."""
    seen = set()
    while page_id in redirects.targets:
        if page_id in seen:
            return None
        seen.add(page_id)
        page_id = redirects.targets[page_id]
    return page_id


def edges_oracle(
    pages: PageTable, redirects: RedirectTable, links: list[RawLink]
) -> tuple[set[int], set[tuple[int, int]]]:
    """Recompute (articles, edges) by walking every link individually."""
    articles = {pid for pid, page in pages.by_id.items() if not page.is_redirect}
    return articles, set(kept_links_oracle(pages, redirects, links))


def kept_links_oracle(
    pages: PageTable, redirects: RedirectTable, links: list[RawLink]
) -> list[tuple[int, int]]:
    """Every link that survives the drops, duplicates included, in order."""
    articles = {pid for pid, page in pages.by_id.items() if not page.is_redirect}
    edges = []
    for link in links:
        if link.target_namespace != 0:
            continue
        source = pages.by_id.get(link.from_page_id)
        if source is None or source.is_redirect:
            continue
        target_id = pages.id_by_title.get(link.target_title)
        if target_id is None:
            continue
        target_id = chase_redirect(redirects, target_id)
        if target_id is None or target_id not in articles:
            continue
        if target_id == link.from_page_id:
            continue
        edges.append((link.from_page_id, target_id))
    return edges


# The dump loaders and the snapshot build one row and one link at a time,
# as the program had them before it read dumps in blocks of columns.  The
# one change is the int64 range, which the program now checks for every
# int a loader reads.
_DUMP_COLUMNS_ORACLE = {
    "page": ((int, int, str, int), lambda r: r[0] > 0 and r[2] and r[3] in (0, 1)),
    "redirect": ((int, int, str), lambda r: r[2]),
    "pagelinks": ((int, int, str, int), lambda r: True),
}


def _dump_rows_oracle(table, rows, strict, stats):
    kinds, valid = _DUMP_COLUMNS_ORACLE[table]
    width = len(kinds)
    for row in rows:
        if (
            len(row) >= width
            and all(map(isinstance, row, kinds))
            and all(-(2**63) <= v < 2**63 for v in row[:width] if isinstance(v, int))
            and valid(row)
        ):
            yield row
        elif strict:
            raise InvalidRecordError(f"bad {table} row {row!r}")
        elif stats is not None:
            stats.skipped += 1


@dataclass
class PageTableOracle:
    by_id: dict[int, PageRecord] = field(default_factory=dict)
    id_by_title: dict[str, int] = field(default_factory=dict)
    n_foreign_namespace: int = 0
    n_duplicates: int = 0


def load_page_table_oracle(rows, *, strict=False, stats=None) -> PageTableOracle:
    """Namespace-0 pages; on a clash of id or title the later row wins
    and the stale entry is removed."""
    table = PageTableOracle()
    by_id, id_by_title = table.by_id, table.id_by_title
    for row in _dump_rows_oracle("page", rows, strict, stats):
        if row[1] != 0:
            table.n_foreign_namespace += 1
            continue
        rec = PageRecord(row[0], 0, row[2], bool(row[3]))
        old = by_id.get(rec.page_id)
        clash = id_by_title.get(rec.title)
        if old is not None or (clash is not None and clash != rec.page_id):
            if strict:
                raise DuplicateKeyError(f"duplicate page row {row!r}")
            table.n_duplicates += 1
            if old is not None:
                id_by_title.pop(old.title, None)
            if clash is not None and clash != rec.page_id:
                by_id.pop(clash, None)
        by_id[rec.page_id] = rec
        id_by_title[rec.title] = rec.page_id
    return table


@dataclass
class RedirectTableOracle:
    targets: dict[int, int] = field(default_factory=dict)
    dropped_missing_target: int = 0
    dropped_bad_source: int = 0


def load_redirects_oracle(rows, pages, *, strict=False, stats=None):
    table = RedirectTableOracle()
    for row in _dump_rows_oracle("redirect", rows, strict, stats):
        from_id, target_ns, target_title = row[0], row[1], row[2]
        source = pages.by_id.get(from_id)
        if source is None or not source.is_redirect:
            table.dropped_bad_source += 1
            continue
        target_id = pages.id_by_title.get(target_title) if target_ns == 0 else None
        if target_id is None:
            table.dropped_missing_target += 1
            continue
        table.targets[from_id] = target_id
    return table


def iter_raw_links_oracle(rows, *, strict=False, stats=None) -> Iterator[RawLink]:
    for row in _dump_rows_oracle("pagelinks", rows, strict, stats):
        if row[3] == 0:
            yield RawLink(row[0], row[1], row[2])


def build_snapshot_oracle(pages, redirects, links, *, language, month, stats):
    """The snapshot and its drop counters, one link at a time; redirect
    chains are followed hop by hop and memoized per link."""
    articles = {pid for pid, rec in pages.by_id.items() if not rec.is_redirect}
    resolved: dict[int, int | None] = {}

    def resolve(start: int) -> int | None:
        chain, seen, cur = [], set(), start
        while True:
            if cur in resolved:
                final = resolved[cur]
                break
            if cur in articles:
                final = cur
                break
            if cur in seen:
                final = None
                stats.n_redirect_cycle_members += len(seen)
                break
            seen.add(cur)
            chain.append(cur)
            cur = redirects.targets.get(cur)
            if cur is None:
                final = None
                break
        for node in chain:
            resolved[node] = final
        return final

    kept = []
    for link in links:
        stats.n_raw_links += 1
        if link.target_namespace != 0:
            stats.dropped_foreign_namespace += 1
            continue
        source = link.from_page_id
        if source not in articles:
            rec = pages.by_id.get(source)
            if rec is not None and rec.is_redirect:
                stats.dropped_redirect_source += 1
            else:
                stats.dropped_unknown_source += 1
            continue
        target = pages.id_by_title.get(link.target_title)
        if target is None:
            stats.dropped_missing_target += 1
            continue
        if target not in articles:
            target = resolve(target)
            if target is None:
                stats.dropped_unresolved_redirect += 1
                continue
        if target == source:
            stats.dropped_self_loop += 1
            continue
        kept.append((source, target))
    snapshot = LinkSnapshot.from_edges(language, month, articles, kept)
    stats.n_edges = snapshot.n_edges
    stats.n_duplicate_links = len(kept) - snapshot.n_edges
    return snapshot


def redirect_cycle_members_oracle(targets: Mapping[int, int]) -> int:
    """Redirect pages whose hops lead back to themselves."""
    members = 0
    for start, page in targets.items():
        for _ in range(len(targets)):
            if page == start:
                members += 1
                break
            if page not in targets:
                break
            page = targets[page]
    return members


def orphans_oracle(articles: set[int], edges: set[tuple[int, int]]) -> set[int]:
    linked = {v for _, v in edges}
    return articles - linked


def deadends_oracle(articles: set[int], edges: set[tuple[int, int]]) -> set[int]:
    linking = {u for u, _ in edges}
    return articles - linking


def binarize_by_median_oracle(values: Mapping[int, float]) -> dict[int, bool]:
    """Split values at the lower median of their sorted list: True for
    strictly greater."""
    if not values:
        return {}
    ordered = sorted(values.values())
    median = ordered[(len(ordered) - 1) // 2]
    return {key: value > median for key, value in values.items()}


def feature_columns_oracle(
    records: Iterable[FeatureRecord],
    language: str,
    articles: Collection[int] | None = None,
) -> dict[str, dict[int, bool]]:
    """The feature table as one ``{page_id: flag}`` dict per feature; a
    page absent from a column has the feature undefined there.  A page
    listed twice keeps its last row."""
    rows = [
        rec
        for rec in records
        if rec.language == language and (articles is None or rec.page_id in articles)
    ]
    columns: dict[str, dict[int, bool]] = {name: {} for name in BINARY_FEATURES}
    for rec in rows:
        columns["bot_created"][rec.page_id] = rec.bot_created
        # A later row of the page replaces the whole row, NA included.
        columns["is_woman_biography"].pop(rec.page_id, None)
        if rec.is_woman_biography is not None:
            columns["is_woman_biography"][rec.page_id] = rec.is_woman_biography
        for label in TOPIC_LABELS:
            columns[f"topic_{label}"][rec.page_id] = (
                rec.topic_probabilities[label] > TOPIC_THRESHOLD
            )
    columns["high_quality"] = binarize_by_median_oracle(
        {rec.page_id: rec.quality_score for rec in rows}
    )
    columns["old_article"] = binarize_by_median_oracle(
        {rec.page_id: -float(rec.creation_timestamp) for rec in rows}
    )
    return columns


def representation_scores_oracle(
    orphan_ids: Collection[int], language: str, columns: Mapping[str, dict[int, bool]]
) -> list[RepresentationScore]:
    """Score each dict column by counting its pages one at a time."""
    scores = []
    for feature in BINARY_FEATURES:
        column = columns[feature]
        n_articles = len(column)
        n_true = sum(1 for flag in column.values() if flag)
        orphan_rows = [pid for pid in column if pid in orphan_ids]
        n_orphans = len(orphan_rows)
        n_true_orphans = sum(1 for pid in orphan_rows if column[pid])
        p_x = n_true / n_articles if n_articles else math.nan
        p_x_given_o = n_true_orphans / n_orphans if n_orphans else math.nan
        undefined = n_articles == 0 or n_orphans == 0 or p_x == 0.0
        if undefined:
            log_ratio = math.nan
        elif p_x_given_o == 0.0:
            log_ratio = -math.inf
        else:
            log_ratio = math.log(p_x_given_o / p_x)
        scores.append(
            RepresentationScore(
                language,
                feature,
                p_x_given_o,
                p_x,
                log_ratio,
                n_orphans,
                n_articles,
                undefined,
            )
        )
    return scores


def deorph_events_oracle(
    before_edges: set[tuple[int, int]],
    after_edges: set[tuple[int, int]],
    orphans_before: set[int],
) -> dict[int, int]:
    """page_id -> number of incoming links gained, for prior orphans."""
    gained = Counter(v for (u, v) in after_edges - before_edges if v in orphans_before)
    return dict(gained)


def orphanizing_oracle(
    before: LinkSnapshot, after: LinkSnapshot
) -> list[int]:
    """Articles alive in both months whose in-degree fell to zero."""
    out = []
    before_in = Counter(v for _, v in before.edge_set())
    after_in = Counter(v for _, v in after.edge_set())
    for page_id in sorted(before.articles & after.articles):
        if before_in[page_id] > 0 and after_in[page_id] == 0:
            out.append(page_id)
    return out


def pre_level_oracle(
    pageviews: PageviewTable,
    language: str,
    page_id: int,
    treatment_month: str,
    window: int,
) -> float:
    """Mean ln(1 + views) of one article over the pre window: one
    ``math.log1p`` per month, added from month -window to -1."""
    total = 0.0
    for offset in range(-window, 0):
        month = month_add(treatment_month, offset)
        total += math.log1p(pageviews.views(language, page_id, month))
    return total / window


def build_pairs_oracle(
    snapshots: Mapping[str, Mapping[str, LinkSnapshot]],
    qid_index: QidIndex,
    treatment_month: str,
    direction: str,
    pageviews: PageviewTable | None = None,
    window: int = 3,
) -> PairBuildResult:
    """Pairs from the edge-set diff, with each control checked one lookup
    at a time: forward events from ``link_delta``, reverse events from
    ``orphanizing_events``, then ``has_article`` and ``in_degree_of`` per
    candidate control.  With pageviews, the control is the closest pre
    level (:func:`pre_level_oracle`), ties to the first language."""
    next_month = month_add(treatment_month, 1)
    usable = {
        lang: months
        for lang, months in snapshots.items()
        if treatment_month in months and next_month in months
    }
    result = PairBuildResult(pairs=[])
    for lang in sorted(usable):
        before = usable[lang][treatment_month]
        after = usable[lang][next_month]
        if direction == FORWARD:
            events = deorphanizing_events(link_delta(before, after), orphans(before))
        else:
            events = orphanizing_events(before, after)
        for event in events:
            qid = qid_index.qid_for_page(lang, event.page_id)
            if qid is None:
                result.n_dropped_no_qid += 1
                continue
            eligible = []
            for other in sorted(usable):
                if other == lang:
                    continue
                page = qid_index.page_for_qid(other, qid)
                if page is None:
                    continue
                s0 = usable[other][treatment_month]
                s1 = usable[other][next_month]
                if not (s0.has_article(page) and s1.has_article(page)):
                    continue
                if direction == FORWARD:
                    ok = s0.in_degree_of(page) == 0 and s1.in_degree_of(page) == 0
                else:
                    ok = s0.in_degree_of(page) > 0 and s1.in_degree_of(page) > 0
                if ok:
                    eligible.append((other, page))
            if not eligible:
                result.n_dropped_no_control += 1
                continue
            if pageviews is not None and len(eligible) > 1:
                treated_level = pre_level_oracle(
                    pageviews, lang, event.page_id, treatment_month, window
                )
                eligible.sort(
                    key=lambda item: (
                        abs(
                            pre_level_oracle(pageviews, *item, treatment_month, window)
                            - treated_level
                        ),
                        item[0],
                    )
                )
            result.pairs.append(
                PairAssignment(
                    pair_id=f"{direction}:{treatment_month}:{qid}:{lang}",
                    qid=qid,
                    treated_language=lang,
                    control_language=eligible[0][0],
                    treatment_month=treatment_month,
                    direction=direction,
                )
            )
    result.pairs.sort(key=lambda p: p.pair_id)
    return result


def crosslingual_oracle(
    orphan_page_id: int,
    language: str,
    snapshots: dict[str, LinkSnapshot],
    index: QidIndex | QidIndexOracle,
) -> list[tuple[int, tuple[str, ...]]]:
    """Triple loop over languages, counterpart inlinks and back-mapping.

    Returns (source_page_id, evidence_languages) pairs in the library's
    output order: most supporting languages first, then source id.
    """
    qid = index.qid_for_page(language, orphan_page_id)
    if qid is None:
        return []
    evidence: dict[int, set[str]] = {}
    for other_language, snapshot in snapshots.items():
        if other_language == language:
            continue
        counterpart = index.page_for_qid(other_language, qid)
        if counterpart is None or not snapshot.has_article(counterpart):
            continue
        for source in snapshot.in_neighbors(counterpart).tolist():
            source_qid = index.qid_for_page(other_language, source)
            if source_qid is None:
                continue
            local_source = index.page_for_qid(language, source_qid)
            if local_source is None:
                continue
            home = snapshots[language]
            if not home.has_article(local_source):
                continue
            if local_source == orphan_page_id:
                continue
            if (orphan_page_id in home.out_neighbors(local_source).tolist()):
                continue
            evidence.setdefault(local_source, set()).add(other_language)
    ordered = sorted(
        evidence.items(), key=lambda item: (-len(item[1]), item[0])
    )
    return [(source, tuple(sorted(langs))) for source, langs in ordered]


def _mention_pattern(title: str) -> re.Pattern[str]:
    """The title as a regex: first character in either case, rest exact."""
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


def unlinked_mentions_oracle(
    document: AnnotatedDocument, title: str
) -> list[tuple[int, int]]:
    """Byte spans of the title's regex hits at word boundaries, outside links."""
    text = document.text
    spans = []
    for match in _mention_pattern(title).finditer(text):
        start, end = match.start(), match.end()
        if start > 0 and text[start - 1].isalnum():
            continue
        if end < len(text) and text[end].isalnum():
            continue
        byte_start = len(text[:start].encode("utf-8"))
        byte_end = byte_start + len(match.group().encode("utf-8"))
        if not any(
            byte_start < span_end and span_start < byte_end
            for span_start, span_end, _ in document.existing_link_spans
        ):
            spans.append((byte_start, byte_end))
    return spans


def findlink_oracle(
    titles: Mapping[int, str],
    corpus: Iterable[AnnotatedDocument],
    snapshot: LinkSnapshot,
) -> dict[int, list[tuple[int, tuple[tuple[int, int], ...], bool]]]:
    """Scan every (orphan, document) pair with the regex matcher.

    Returns, per orphan, ``(source_page_id, evidence, source_is_orphan)``
    in the library's output order: most mentions first, then source id.
    """
    corpus = list(corpus)
    out = {}
    for orphan, title in titles.items():
        found = []
        for document in corpus:
            source = document.page_id
            if source == orphan or not snapshot.has_article(source):
                continue
            if orphan in snapshot.out_neighbors(source).tolist():
                continue
            spans = unlinked_mentions_oracle(document, title)
            if spans:
                found.append((source, tuple(spans), snapshot.in_degree_of(source) == 0))
        found.sort(key=lambda item: (-len(item[1]), item[0]))
        out[orphan] = found
    return out


def read_tsv_oracle(
    lines: Iterable[str], converters: Sequence[Callable[[str], object]]
) -> Iterator[list]:
    """Rows of tab-separated lines, read one line at a time."""
    width = len(converters)
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != width:
            raise TsvFormatError(f"expected {width} columns, got {len(cells)}", number)
        try:
            row = [convert(cell) for convert, cell in zip(converters, cells)]
        except ValueError as exc:
            raise TsvFormatError(f"bad line {line!r}: {exc}", number) from None
        yield row


class PageviewOracle:
    """Pageview rows in a dict, validated and added one row at a time."""

    def __init__(self, records: Iterable[PageviewRecord], *, strict: bool = False):
        self.rows: dict[tuple[str, int, str, str], int] = {}
        self.n_skipped = 0
        self.n_duplicates = 0
        for rec in records:
            try:
                if rec.views < 0:
                    raise InvalidRecordError(f"negative view count in {rec}")
                if rec.referrer_class not in REFERRER_CLASSES:
                    raise InvalidRecordError(
                        f"unknown referrer class {rec.referrer_class!r}"
                    )
                if not rec.language or rec.page_id <= 0:
                    raise InvalidRecordError(f"bad key in {rec}")
                parse_month(rec.month)
            except ValueError:
                if strict:
                    raise
                self.n_skipped += 1
                continue
            key = (rec.language, rec.page_id, rec.month, rec.referrer_class)
            if key in self.rows:
                if strict:
                    raise DuplicateKeyError(f"duplicate pageview row for {key}")
                self.n_duplicates += 1
                continue
            self.rows[key] = rec.views

    def views(self, language, page_id, month, referrer_class="all") -> int:
        return self.rows.get((language, page_id, month, referrer_class), 0)


def assemble_panel_oracle(
    pairs: Iterable[PairAssignment],
    views: Callable[[str, int, str, str], int],
    qid_index: QidIndex,
    window: int,
    referrer_class: str,
) -> list[PanelObservation]:
    """One observation per pair, role and window month, built row by row."""
    panel = []
    for pair in pairs:
        for role, language in (
            (TREATED, pair.treated_language),
            (CONTROL, pair.control_language),
        ):
            page = qid_index.page_for_qid(language, pair.qid)
            for offset in range(-window, window + 1):
                if offset == 0:
                    continue
                month = month_add(pair.treatment_month, offset)
                count = views(language, page, month, referrer_class)
                panel.append(
                    PanelObservation(
                        pair.pair_id,
                        role,
                        language,
                        month,
                        offset,
                        math.log1p(count),
                        referrer_class,
                    )
                )
    panel.sort(key=lambda o: (o.pair_id, o.referrer_class, o.role, o.period_index))
    return panel


def fit_did_oracle(
    panel: Sequence[PanelObservation],
    spec: str = "pooled",
    *,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> DidEstimate | dict[str, DidEstimate]:
    """``fit_did`` on a list of rows: the group keys and the pair codes
    (numbered in first-seen order) built row by row, then the same design
    builder."""
    if not panel:
        raise DegeneratePanelError("empty panel")
    if spec in ("pooled", "by_month"):
        key, groups = None, [None]
    elif spec == "by_language":
        language_of = {o.pair_id: o.language for o in panel if o.role == TREATED}
        key = np.array([language_of.get(o.pair_id) for o in panel], dtype=object)
        n_pairs = Counter(language_of.values())
        groups = sorted(g for g, count in n_pairs.items() if count >= min_pairs)
    elif spec == "by_referrer":
        key = np.array([o.referrer_class for o in panel], dtype=object)
        groups = sorted(set(key) - {"all"})
    else:
        raise ValueError(f"unknown spec {spec!r}")
    if not groups:
        return {}
    pair_code: dict[str, int] = {}
    columns = (
        np.array([o.role == TREATED for o in panel], dtype=bool),
        np.array([o.period_index for o in panel], dtype=np.int64),
        np.array([o.log_views for o in panel], dtype=float),
        np.array([pair_code.setdefault(o.pair_id, len(pair_code)) for o in panel]),
    )
    if key is None:
        return _fit(columns, slice(None), by_month=spec == "by_month")
    return {group: _fit(columns, key == group, by_month=False) for group in groups}


def validate_candidates_oracle(
    proposals: Iterable[CandidateLink], snapshot: LinkSnapshot, orphan_ids: set[int]
) -> str | None:
    """The message for the first failing candidate, checked one at a time."""
    edges = snapshot.edge_set()
    for cand in proposals:
        source, target = cand.source_page_id, cand.target_page_id
        if target not in orphan_ids:
            return f"candidate targets non-orphan {target}"
        if source == target:
            return f"self candidate on {source}"
        if not snapshot.has_article(source):
            return f"candidate from unknown page {source}"
        if (source, target) in edges:
            return f"candidate duplicates existing edge {source}->{target}"
    return None


def coverage_oracle(
    snapshot: LinkSnapshot, per_orphan: Mapping[int, Sequence[CandidateLink]]
) -> tuple:
    """The ``coverage.tsv`` row, ``n_no_qid`` 0, recounted from the orphan
    set: distinct sources over both methods, then each method's own
    candidates.  ``ValueError`` if an orphan has no entry."""
    orphan_ids = orphans(snapshot)
    missing = orphan_ids - set(per_orphan)
    if missing:
        raise ValueError(f"candidates missing for {len(missing)} orphans")
    found = [per_orphan[p] for p in orphan_ids if per_orphan[p]]
    sources = [len({c.source_page_id for c in proposals}) for proposals in found]
    methods = [Counter(c.method for c in proposals) for proposals in found]
    per_method = {
        method: (
            sum(counts[method] >= 1 for counts in methods),
            sum(counts[method] >= 10 for counts in methods),
        )
        for method in sorted(set().union(*methods))
    }
    return (
        snapshot.language,
        len(orphan_ids),
        sum(n >= 1 for n in sources),
        sum(n >= 10 for n in sources),
        *per_method.get(FINDLINK, (0, 0)),
        *per_method.get(CROSSLINGUAL, (0, 0)),
        0,
    )


class QidIndexOracle:
    """Sitelink rows in plain dicts, added one row at a time: the first
    sitelink wins, and a row's page id is attached whether or not its
    sitelink conflicted."""

    def __init__(self) -> None:
        self.title_by_site: dict[tuple[str, str], str] = {}
        self.qid_by_title: dict[tuple[str, str], str] = {}
        self.page_by_site: dict[tuple[str, str], int] = {}
        self.qid_by_page: dict[tuple[str, int], str] = {}
        self.n_conflicts = 0
        self.first_conflict: int | None = None

    def add(self, qid: str, language: str, title: str) -> bool:
        """Add one sitelink; False if it conflicts and is ignored."""
        known_qid = self.qid_by_title.get((language, title), qid)
        known_title = self.title_by_site.get((qid, language), title)
        if known_qid != qid or known_title != title:
            self.n_conflicts += 1
            return False
        self.title_by_site[qid, language] = title
        self.qid_by_title[language, title] = qid
        return True

    def attach_page(self, qid: str, language: str, page_id: int) -> None:
        self.page_by_site[qid, language] = page_id
        self.qid_by_page[language, page_id] = qid

    def qid_for_page(self, language: str, page_id: int) -> str | None:
        return self.qid_by_page.get((language, page_id))

    def page_for_qid(self, language: str, qid: str) -> int | None:
        return self.page_by_site.get((qid, language))

    def add_rows(self, rows: Iterable[tuple[str, str, int | None, str]]) -> None:
        """``(qid, language, page_id, title)`` rows, as in ``qidmap.tsv``."""
        for number, (qid, language, page_id, title) in enumerate(rows):
            if not self.add(qid, language, title) and self.first_conflict is None:
                self.first_conflict = number
            if page_id is not None:
                self.attach_page(qid, language, page_id)
