"""What the pipeline must output for a generated tree, computed apart
from the program.

Nothing here imports ``oatlas``.  Dumps are resolved with array
operations on title codes (pointer jumping for redirect chains); the
reports are then derived from the resolved graphs with plain loops and
dictionaries, following the rules the program documents: link drop
precedence, first-character case folding, closest pre-period match for
controls, and so on.  Floating-point values that the program computes
as a ratio of two counts are computed the same way, so they compare
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from generate import MONTHS, VIEW_MONTHS, WINDOW, Dump, Tree

MIN_PAIRS = 30  # the CLI default for by-language fits
FEATURES = (
    "bot_created",
    "is_woman_biography",
    "topic_culture",
    "topic_geography",
    "topic_history_society",
    "topic_stem",
    "high_quality",
    "old_article",
)


@dataclass
class Graph:
    """One resolved language-month."""

    articles: np.ndarray  # sorted page ids
    src: np.ndarray  # edges, sorted by (src, dst)
    dst: np.ndarray
    counters: dict[str, int]
    rows: dict[str, int]

    def indegree(self) -> np.ndarray:
        return np.bincount(np.searchsorted(self.articles, self.dst), minlength=len(self.articles))

    def outdegree(self) -> np.ndarray:
        return np.bincount(np.searchsorted(self.articles, self.src), minlength=len(self.articles))


def resolve(dump: Dump) -> Graph:
    """Resolve a dump the way `build_snapshot` is documented to."""
    ns0 = dump.page_ns == 0
    pid0, code0, red0 = dump.page_id[ns0], dump.page_title[ns0], dump.page_redirect[ns0]
    n_codes = int(max(dump.page_title.max(), dump.rd_title.max(initial=0), dump.pl_title.max())) + 1
    code_pid = np.full(n_codes, -1, dtype=np.int64)
    code_pid[code0] = pid0
    size = int(max(dump.page_id.max(), dump.pl_from.max(), dump.rd_from.max(initial=0))) + 2
    is_article = np.zeros(size, dtype=bool)
    is_article[pid0[~red0]] = True
    is_redirect = np.zeros(size, dtype=bool)
    is_redirect[pid0[red0]] = True

    # One hop per redirect page; 0 is a sink for dangling redirects.
    hop = np.zeros(size, dtype=np.int64)
    arts = np.flatnonzero(is_article)
    hop[arts] = arts
    ok = is_redirect[dump.rd_from] & (dump.rd_ns == 0) & (code_pid[dump.rd_title] >= 0)
    hop[dump.rd_from[ok]] = code_pid[dump.rd_title[ok]]
    for _ in range(int(math.log2(size)) + 2):
        hop = hop[hop]
    final = np.where(is_article[hop], hop, -1)

    keep = dump.pl_from_ns == 0
    src, ns, tcode = dump.pl_from[keep], dump.pl_ns[keep], dump.pl_title[keep]
    counters = {}
    alive = np.ones(len(src), dtype=bool)

    def drop(name: str, mask: np.ndarray) -> None:
        nonlocal alive
        hit = alive & mask
        counters[name] = int(hit.sum())
        alive &= ~hit

    drop("foreign_namespace", ns != 0)
    drop("redirect_source", ~is_article[src] & is_redirect[src])
    drop("unknown_source", ~is_article[src] & ~is_redirect[src])
    target = code_pid[tcode]
    drop("missing_target", target < 0)
    resolved = np.where(target >= 0, final[np.maximum(target, 0)], -1)
    drop("unresolved_redirect", resolved < 0)
    drop("self_loop", resolved == src)
    key = np.unique(src[alive] * size + resolved[alive])
    counters["duplicate"] = int(alive.sum()) - len(key)
    return Graph(
        articles=np.sort(pid0[~red0]),
        src=key // size,
        dst=key % size,
        counters=counters,
        rows={
            "page.sql": len(dump.page_id),
            "redirect.sql": len(dump.rd_from),
            "pagelinks.sql": len(dump.pl_from),
        },
    )


@dataclass
class Language:
    """Month-1 view of one language, as the analysis stages see it."""

    graphs: tuple[Graph, Graph]
    titles: dict[int, str]  # article page id -> title
    indeg: tuple[dict[int, int], dict[int, int]]
    in_nbrs: dict[int, list[int]]  # month 1, target -> sorted sources
    out_nbrs: dict[int, set[int]]


@dataclass
class Expected:
    tree: Tree
    langs: dict[str, Language] = field(default_factory=dict)
    qid_page: dict[str, dict[str, int]] = field(default_factory=dict)  # qid -> lang -> pid
    page_qid: dict[tuple[str, int], str] = field(default_factory=dict)
    qidmap_rows: list[tuple[str, str, str, str]] = field(default_factory=list)
    pairs: list[tuple[str, ...]] = field(default_factory=list)


def compute(tree: Tree) -> Expected:
    exp = Expected(tree)
    id_by_title: dict[str, dict[str, int]] = {}
    for language in tree.languages:
        graphs = tuple(resolve(tree.dumps[(language, m)]) for m in MONTHS)
        dump = tree.dumps[(language, MONTHS[0])]
        names = tree.titles[language]
        ns0 = dump.page_ns == 0
        id_by_title[language] = {
            names[c]: p for p, c in zip(dump.page_id[ns0].tolist(), dump.page_title[ns0].tolist())
        }
        art = ns0 & ~dump.page_redirect
        titles = {p: names[c] for p, c in zip(dump.page_id[art].tolist(), dump.page_title[art].tolist())}
        indeg = tuple(
            dict(zip(g.articles.tolist(), g.indegree().tolist())) for g in graphs
        )
        in_nbrs: dict[int, list[int]] = {}
        out_nbrs: dict[int, set[int]] = {}
        for u, v in zip(graphs[0].src.tolist(), graphs[0].dst.tolist()):
            in_nbrs.setdefault(v, []).append(u)
            out_nbrs.setdefault(u, set()).add(v)
        for sources in in_nbrs.values():
            sources.sort()
        exp.langs[language] = Language(graphs, titles, indeg, in_nbrs, out_nbrs)

    # Sitelinks: first row wins; page ids attach by title in month 1.
    seen_title: set[tuple[str, str]] = set()
    sitelinks: dict[str, dict[str, str]] = {}
    for qid, language, code in tree.sitelinks:
        title = tree.titles[language][code]
        if (language, title) in seen_title or language in sitelinks.get(qid, {}):
            raise ValueError(f"generator wrote a conflicting sitelink for {qid}")
        seen_title.add((language, title))
        sitelinks.setdefault(qid, {})[language] = title
    for qid in sorted(sitelinks):
        for language, title in sorted(sitelinks[qid].items()):
            pid = id_by_title.get(language, {}).get(title)
            exp.qidmap_rows.append((qid, language, "NA" if pid is None else str(pid), title))
            if pid is not None:
                exp.qid_page.setdefault(qid, {})[language] = pid
                exp.page_qid[(language, pid)] = qid
    exp.pairs = expected_pairs(exp, _graph_status(exp))
    if tree.planted_status is not None:
        planted = expected_pairs(exp, _planted_status(tree))
        if planted != exp.pairs:
            raise RuntimeError("generator bug: resolved graph does not realise the planted pairs")
    return exp


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def manifest(exp: Expected) -> dict:
    out = {}
    for language, lang in exp.langs.items():
        months = {}
        for month, g in zip(MONTHS, lang.graphs):
            months[month] = {
                "n_articles": len(g.articles),
                "n_edges": len(g.src),
                "rows": g.rows,
                "skipped_rows": 0,
                "dropped_links": g.counters,
            }
        out[language] = months
    return {
        "languages": out,
        "sitelink_rows": len(exp.qidmap_rows),
        "qid_count": len({row[0] for row in exp.qidmap_rows}),
    }


def wiki_summary(exp: Expected) -> list[tuple[str, int, float, float]]:
    rows = []
    for language, lang in exp.langs.items():
        g = lang.graphs[0]
        n = len(g.articles)
        orphans = int((g.indegree() == 0).sum())
        deadends = int((g.outdegree() == 0).sum())
        rows.append((language, n, orphans / n, deadends / n))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def _lower_median_split(values: dict[int, float]) -> dict[int, bool]:
    ordered = np.sort(np.array(list(values.values()), dtype=float))
    median = ordered[(len(ordered) - 1) // 2] if len(ordered) else 0.0
    return {k: v > median for k, v in values.items()}


def representation_scores(exp: Expected) -> list[tuple]:
    rows = []
    by_lang: dict[str, list[tuple]] = {}
    for row in exp.tree.features:
        by_lang.setdefault(row[0], []).append(row)
    for language in sorted(exp.langs):
        lang = exp.langs[language]
        if not by_lang.get(language):
            continue  # the stage skips a language without feature rows
        articles = set(lang.graphs[0].articles.tolist())
        records = [r for r in by_lang[language] if r[1] in articles]
        columns: dict[str, dict[int, bool]] = {name: {} for name in FEATURES}
        for _, pid, bot, woman, p_cul, p_geo, p_his, p_stem, _q, _ts in records:
            columns["bot_created"][pid] = bot
            if woman is not None:
                columns["is_woman_biography"][pid] = woman
            for name, p in zip(FEATURES[2:6], (p_cul, p_geo, p_his, p_stem)):
                columns[name][pid] = p > 0.5
        columns["high_quality"] = _lower_median_split({r[1]: r[8] for r in records})
        columns["old_article"] = _lower_median_split({r[1]: -float(r[9]) for r in records})
        orphans = {p for p, d in lang.indeg[0].items() if d == 0}
        for name in FEATURES:
            col = columns[name]
            n_rows = len(col)
            n_true = sum(col.values())
            in_orphans = [p for p in col if p in orphans]
            n_orph = len(in_orphans)
            n_true_orph = sum(1 for p in in_orphans if col[p])
            p_x = n_true / n_rows if n_rows else math.nan
            p_xo = n_true_orph / n_orph if n_orph else math.nan
            undefined = n_rows == 0 or n_orph == 0 or p_x == 0.0
            if undefined:
                ratio = math.nan
            elif p_xo == 0.0:
                ratio = -math.inf
            else:
                ratio = math.log(p_xo / p_x)
            rows.append((language, name, p_xo, p_x, ratio, n_orph, n_rows, undefined))
    return rows


# ---------------------------------------------------------------------------
# Pairs and panel
# ---------------------------------------------------------------------------

# A status is (article at month 1, linked at month 1, article at month
# 2, linked at month 2) for one page.
Status = dict[str, dict[int, tuple[bool, bool, bool, bool]]]


def _graph_status(exp: Expected) -> Status:
    out = {}
    for language, lang in exp.langs.items():
        d0, d1 = lang.indeg
        out[language] = {
            p: (p in d0, d0.get(p, 0) > 0, p in d1, d1.get(p, 0) > 0)
            for p in set(d0) | set(d1)
        }
    return out


def _planted_status(tree: Tree) -> Status:
    return {
        language: {p: (True, a, True, b) for p, (a, b) in pages.items()}
        for language, pages in tree.planted_status.items()
    }


def _pre_level(views: dict, language: str, pid: int) -> float:
    total = 0.0
    for month in VIEW_MONTHS[:WINDOW]:
        total += math.log1p(views.get((language, pid, month, "all"), 0))
    return total / WINDOW


def expected_pairs(exp: Expected, status: Status) -> list[tuple[str, ...]]:
    """Pairs rows (pair_id, qid, treated, control, month, direction)."""
    views = exp.tree.views
    month = MONTHS[0]
    rows = []
    for direction in ("forward", "reverse"):
        for language in sorted(status):
            for pid in sorted(status[language]):
                a0, l0, a1, l1 = status[language][pid]
                if direction == "forward":
                    event = a0 and not l0 and l1
                else:
                    event = a0 and a1 and l0 and not l1
                if not event:
                    continue
                qid = exp.page_qid.get((language, pid))
                if qid is None:
                    continue
                eligible = []
                for other in sorted(status):
                    page = exp.qid_page[qid].get(other)
                    if other == language or page is None or page not in status[other]:
                        continue
                    b0, m0, b1, m1 = status[other][page]
                    if not (b0 and b1):
                        continue
                    if (direction == "forward" and not m0 and not m1) or (
                        direction == "reverse" and m0 and m1
                    ):
                        eligible.append((other, page))
                if not eligible:
                    continue
                if len(eligible) > 1:
                    level = _pre_level(views, language, pid)
                    eligible.sort(key=lambda e: (abs(_pre_level(views, e[0], e[1]) - level), e[0]))
                rows.append(
                    (f"{direction}:{month}:{qid}:{language}", qid, language, eligible[0][0], month, direction)
                )
    rows.sort()
    return rows


def panel_size(exp: Expected) -> int:
    classes = {key[3] for key in exp.tree.views}
    return len(exp.pairs) * 2 * 2 * WINDOW * len(classes)


def panel_value(exp: Expected, language: str, qid: str, month: str, cls: str) -> float:
    pid = exp.qid_page[qid][language]
    return math.log1p(exp.tree.views.get((language, pid, month, cls), 0))


def referrer_classes(exp: Expected) -> list[str]:
    present = {key[3] for key in exp.tree.views}
    return ["all"] + sorted(present - {"all"}) if present else []


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def candidate_rows(exp: Expected) -> tuple[list[tuple[str, ...]], list[tuple]]:
    """candidates.tsv rows and coverage.tsv rows, in output order."""
    rows, coverage = [], []
    for language in sorted(exp.langs):
        lang = exp.langs[language]
        orphans = sorted(p for p, d in lang.indeg[0].items() if d == 0)
        orphan_set = set(orphans)
        mentions = exp.tree.mentions.get(language, {})
        by_orphan: dict[int, list[tuple[int, list]]] = {}
        for (doc, orphan), spans in mentions.items():
            if doc != orphan and doc in lang.titles and orphan in orphan_set:
                by_orphan.setdefault(orphan, []).append((doc, spans))
        n_no_qid = 0
        stats = {"ge1": 0, "ge10": 0, "findlink": [0, 0], "crosslingual": [0, 0]}
        for orphan in orphans:
            found = []
            hits = sorted(by_orphan.get(orphan, []), key=lambda h: (-len(h[1]), h[0]))
            for doc, spans in hits:
                evidence = ";".join(f"{a}-{b}" for a, b in spans)
                found.append((doc, "findlink", evidence))
            votes = _crosslingual_votes(exp, language, orphan)
            if votes is None:
                n_no_qid += 1
                votes = {}
            cross = sorted(votes.items(), key=lambda v: (-len(v[1]), v[0]))
            for source, langs in cross:
                found.append((source, "crosslingual", ",".join(sorted(langs))))
            for source, method, evidence in found:
                rows.append(
                    (
                        language,
                        str(source),
                        lang.titles.get(source, "NA"),
                        str(orphan),
                        lang.titles.get(orphan, "NA"),
                        method,
                        evidence,
                        "1" if lang.indeg[0].get(source, 0) == 0 else "0",
                    )
                )
            distinct = len({f[0] for f in found})
            stats["ge1"] += distinct >= 1
            stats["ge10"] += distinct >= 10
            for method in ("findlink", "crosslingual"):
                count = sum(1 for f in found if f[1] == method)
                stats[method][0] += count >= 1
                stats[method][1] += count >= 10
        coverage.append(
            (
                language,
                len(orphans),
                stats["ge1"],
                stats["ge10"],
                *stats["findlink"],
                *stats["crosslingual"],
                n_no_qid,
            )
        )
    return rows, coverage


def _crosslingual_votes(exp: Expected, language: str, orphan: int) -> dict[int, set[str]] | None:
    qid = exp.page_qid.get((language, orphan))
    if qid is None:
        return None
    here = exp.langs[language]
    votes: dict[int, set[str]] = {}
    for other in sorted(exp.langs):
        if other == language:
            continue
        counterpart = exp.qid_page[qid].get(other)
        if counterpart is None or counterpart not in exp.langs[other].indeg[0]:
            continue
        for foreign in exp.langs[other].in_nbrs.get(counterpart, []):
            source_qid = exp.page_qid.get((other, foreign))
            if source_qid is None:
                continue
            source = exp.qid_page[source_qid].get(language)
            if source is None or source not in here.indeg[0] or source == orphan:
                continue
            votes.setdefault(source, set()).add(other)
    return {s: v for s, v in votes.items() if orphan not in here.out_nbrs.get(s, ())}
