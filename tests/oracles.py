"""Brute-force oracles used by the graph and candidate test suites.

Everything here recomputes results with the most literal method
available (per-link redirect chasing, full recounts, nested loops) so
that the library's vectorized paths have something independent to be
compared against.
"""

from __future__ import annotations

from collections import Counter

from oatlas.ingest import PageTable, QidIndex, RawLink, RedirectTable
from oatlas.graph import LinkSnapshot


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


def orphans_oracle(articles: set[int], edges: set[tuple[int, int]]) -> set[int]:
    linked = {v for _, v in edges}
    return articles - linked


def deadends_oracle(articles: set[int], edges: set[tuple[int, int]]) -> set[int]:
    linking = {u for u, _ in edges}
    return articles - linking


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


def crosslingual_oracle(
    orphan_page_id: int,
    language: str,
    snapshots: dict[str, LinkSnapshot],
    index: QidIndex,
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
