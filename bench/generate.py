"""Seeded input trees for the three benchmark workloads.

Every tree is built from numpy arrays in one process and written in the
on-disk layout ``oatlas`` reads (per-language, per-month SQL dumps plus
the shared sitelink, pageview and feature tables, and an optional
``docs.jsonl``).  The writer here is the benchmark's own: it does not
call ``oatlas.fixtures``, so the inputs stay the same whatever the
program's fixture code does.

Titles are integer codes into a per-language list of strings, which lets
:mod:`expect` resolve every dump with array operations alone.  The
same seed always gives byte-identical trees; sizes do not depend on the
seed, only which pages play which part.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MONTHS = ("2022-11", "2022-12")
#: Months with pageview rows: the CLI's default window of 3 around 2022-11.
VIEW_MONTHS = (
    "2022-08",
    "2022-09",
    "2022-10",
    "2022-11",
    "2022-12",
    "2023-01",
    "2023-02",
)
WINDOW = 3
REFERRER_CLASSES = ("all", "internal", "external", "unknown")

#: Planted visibility effects (log views, post months of treated pages).
FORWARD_EFFECT = 0.4
REVERSE_EFFECT = -0.3
#: Standard deviation of the per page-month noise on log views.
VIEW_NOISE_SD = 0.25


@dataclass
class Dump:
    """Rows of one language-month dump.  Title columns hold codes."""

    page_id: np.ndarray
    page_ns: np.ndarray
    page_title: np.ndarray
    page_redirect: np.ndarray
    rd_from: np.ndarray
    rd_ns: np.ndarray
    rd_title: np.ndarray
    pl_from: np.ndarray
    pl_ns: np.ndarray
    pl_title: np.ndarray
    pl_from_ns: np.ndarray


@dataclass
class Tree:
    """A generated data root, kept in memory for the expectations."""

    workload: str
    languages: list[str]
    titles: dict[str, list[str]]
    dumps: dict[tuple[str, str], Dump]
    #: (qid, language, title code)
    sitelinks: list[tuple[str, str, int]]
    #: (language, page_id, month, referrer class) -> views
    views: dict[tuple[str, int, str, str], int]
    #: language, page_id, bot, woman (None = NA), 4 topic probs, quality, ts
    features: list[tuple]
    #: language -> documents as written to docs.jsonl
    docs: dict[str, list[dict]] = field(default_factory=dict)
    #: language -> (document page id, orphan page id) -> planted byte spans
    mentions: dict[str, dict[tuple[int, int], list[tuple[int, int]]]] = field(
        default_factory=dict
    )
    #: Page statuses the generator planted: language -> page id ->
    #: (linked at MONTHS[0], linked at MONTHS[1])
    planted_status: dict[str, dict[int, tuple[bool, bool]]] | None = None

    def write(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        for (language, month), dump in sorted(self.dumps.items()):
            _write_dump(root / language / month, dump, self.titles[language])
        with (root / "sitelinks.tsv").open("w", encoding="utf-8", newline="\n") as fh:
            titles = self.titles
            fh.writelines(
                f"{qid}\t{lang}\t{titles[lang][code]}\n"
                for qid, lang, code in self.sitelinks
            )
        with (root / "pageviews.tsv").open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(
                f"{lang}\t{pid}\t{month}\t{cls}\t{views}\n"
                for (lang, pid, month, cls), views in self.views.items()
            )
        with (root / "features.tsv").open("w", encoding="utf-8", newline="\n") as fh:
            for row in self.features:
                lang, pid, bot, woman, *probs, quality, ts = row
                cells = [lang, str(pid), str(int(bot)), "NA" if woman is None else str(int(woman))]
                cells += [repr(p) for p in probs] + [repr(quality), str(ts)]
                fh.write("\t".join(cells) + "\n")
        for language, docs in self.docs.items():
            with (root / language / "docs.jsonl").open(
                "w", encoding="utf-8", newline="\n"
            ) as fh:
                fh.writelines(
                    json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n"
                    for doc in docs
                )


# ---------------------------------------------------------------------------
# SQL dump writer
# ---------------------------------------------------------------------------

_ROWS_PER_STATEMENT = 1000

_COLUMNS = {
    "page": "`page_id` int, `page_namespace` int, `page_title` varbinary(255), "
    "`page_is_redirect` tinyint",
    "redirect": "`rd_from` int, `rd_namespace` int, `rd_title` varbinary(255)",
    "pagelinks": "`pl_from` int, `pl_namespace` int, `pl_title` varbinary(255), "
    "`pl_from_namespace` int",
}


def sql_quote(text: str) -> str:
    """Quote a string the way mysqldump does."""
    return (
        "'"
        + text.replace("\\", "\\\\").replace("'", "\\'").replace('"', '\\"')
        + "'"
    )


def _write_table(path: Path, table: str, rows: list[str]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"-- Dump of table `{table}`\n\nDROP TABLE IF EXISTS `{table}`;\n")
        fh.write(f"CREATE TABLE `{table}` ({_COLUMNS[table]});\n\n")
        for start in range(0, len(rows), _ROWS_PER_STATEMENT):
            chunk = rows[start : start + _ROWS_PER_STATEMENT]
            fh.write(f"INSERT INTO `{table}` VALUES " + ",".join(chunk) + ";\n")


def _write_dump(month_dir: Path, dump: Dump, titles: list[str]) -> None:
    month_dir.mkdir(parents=True, exist_ok=True)
    quoted = {}

    def q(code: int) -> str:
        text = quoted.get(code)
        if text is None:
            text = quoted[code] = sql_quote(titles[code])
        return text

    _write_table(
        month_dir / "page.sql",
        "page",
        [
            f"({a},{b},{q(c)},{d})"
            for a, b, c, d in zip(
                dump.page_id.tolist(),
                dump.page_ns.tolist(),
                dump.page_title.tolist(),
                dump.page_redirect.astype(int).tolist(),
            )
        ],
    )
    _write_table(
        month_dir / "redirect.sql",
        "redirect",
        [
            f"({a},{b},{q(c)})"
            for a, b, c in zip(
                dump.rd_from.tolist(), dump.rd_ns.tolist(), dump.rd_title.tolist()
            )
        ],
    )
    _write_table(
        month_dir / "pagelinks.sql",
        "pagelinks",
        [
            f"({a},{b},{q(c)},{d})"
            for a, b, c, d in zip(
                dump.pl_from.tolist(),
                dump.pl_ns.tolist(),
                dump.pl_title.tolist(),
                dump.pl_from_ns.tolist(),
            )
        ],
    )


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

# Titles exercise quoting: apostrophes, backslashes, double quotes,
# parentheses and commas inside the quoted value, and multi-byte text.
_MESSY_PREFIXES = (
    "Page",
    "Page",
    "Page",
    "O'Brien",
    "Back\\slash",
    "Zürich",
    "東京",
    '"Quoted"',
    "Semi;colon,comma(paren)",
    "Ωmega",
)


def _messy_title(code: int) -> str:
    return f"{_MESSY_PREFIXES[code % len(_MESSY_PREFIXES)]}_{code}"


def _features(rng: np.random.Generator, language: str, page_ids: np.ndarray) -> list[tuple]:
    n = len(page_ids)
    bot = rng.random(n) < 0.2
    bio = rng.random(n) < 0.3
    woman = rng.random(n) < 0.25
    probs = np.round(rng.random((n, 4)), 3)
    quality = np.round(rng.random(n), 2)  # coarse, so the median has ties
    ts = rng.integers(1_000_000_000, 1_700_000_000, size=n)
    rows = []
    for i, pid in enumerate(page_ids.tolist()):
        rows.append(
            (
                language,
                pid,
                bool(bot[i]),
                bool(woman[i]) if bio[i] else None,
                *(float(p) for p in probs[i]),
                float(quality[i]),
                int(ts[i]),
            )
        )
    return rows


def _add_views(
    views: dict,
    rng: np.random.Generator,
    language: str,
    page_id: int,
    level: float,
    shocks: np.ndarray,
    post_effect: float,
) -> None:
    """Views for one page over VIEW_MONTHS in all four referrer classes.

    Only the post months are noisy, so the pre-period level that picks a
    control is the planted one and matching adds no selection bias.
    """
    noise = rng.normal(0.0, VIEW_NOISE_SD, size=len(VIEW_MONTHS))
    noise[: WINDOW + 1] = 0.0
    for k, month in enumerate(VIEW_MONTHS):
        effect = post_effect if k > WINDOW else 0.0
        total = int(np.rint(math.exp(level + shocks[k] + noise[k] + effect)))
        internal = (total * 55) // 100
        external = (total * 30) // 100
        for cls, value in zip(
            REFERRER_CLASSES, (total, internal, external, total - internal - external)
        ):
            views[(language, page_id, month, cls)] = value


def _copy_views(views: dict, language: str, page_id: int, from_language: str, from_page: int) -> None:
    for month in VIEW_MONTHS:
        for cls in REFERRER_CLASSES:
            views[(language, page_id, month, cls)] = views[(from_language, from_page, month, cls)]


# ---------------------------------------------------------------------------
# Workload "dumps": two large messy wikis
# ---------------------------------------------------------------------------


@dataclass
class _MessyPlan:
    titles: list[str]
    code_pid: np.ndarray
    n_ns0: int
    n_foreign: int
    month1_pages: int
    is_redirect: np.ndarray
    articles1: np.ndarray
    new_pages: np.ndarray
    redirects: np.ndarray
    red_codes: np.ndarray
    orphans: np.ndarray
    singles: np.ndarray
    pool: np.ndarray


def _messy_plan(rng: np.random.Generator, n_pages: int) -> _MessyPlan:
    n_new = n_pages // 100
    n_foreign = n_pages // 80
    n_red = n_pages // 50
    n_ns0 = n_pages + n_new
    titles = [_messy_title(c) for c in range(n_ns0)]
    titles += [f"Discussion_{c}" for c in range(n_ns0, n_ns0 + n_foreign)]
    titles += [f"Red_link_{c}" for c in range(n_ns0 + n_foreign, n_ns0 + n_foreign + n_red)]
    code_pid = rng.permutation(n_ns0 + n_foreign).astype(np.int64) + 1
    is_redirect = np.zeros(n_ns0, dtype=bool)
    is_redirect[:n_pages] = rng.random(n_pages) < 0.15
    articles1 = np.flatnonzero(~is_redirect[:n_pages])
    perm = rng.permutation(articles1)
    n_orphans = len(articles1) * 15 // 100
    n_singles = 20
    return _MessyPlan(
        titles=titles,
        code_pid=code_pid,
        n_ns0=n_ns0,
        n_foreign=n_foreign,
        month1_pages=n_pages,
        is_redirect=is_redirect,
        articles1=articles1,
        new_pages=np.arange(n_pages, n_ns0),
        redirects=np.flatnonzero(is_redirect),
        red_codes=np.arange(n_ns0 + n_foreign, n_ns0 + n_foreign + n_red),
        orphans=perm[:n_orphans],
        singles=perm[n_orphans : n_orphans + n_singles],
        pool=perm[n_orphans + n_singles :],
    )


def _messy_redirects(rng: np.random.Generator, plan: _MessyPlan) -> tuple[np.ndarray, ...]:
    """Redirect rows: chains, cycles, dangling targets and bad sources."""
    src = plan.redirects.copy()
    n = len(src)
    roll = rng.random(n)
    tgt = plan.pool[rng.integers(len(plan.pool), size=n)]
    ns = np.zeros(n, dtype=np.int64)
    chain = (roll >= 0.70) & (roll < 0.82)
    tgt[chain] = plan.redirects[rng.integers(n, size=int(chain.sum()))]
    red = (roll >= 0.82) & (roll < 0.86)
    tgt[red] = plan.red_codes[rng.integers(len(plan.red_codes), size=int(red.sum()))]
    foreign = (roll >= 0.86) & (roll < 0.89)
    ns[foreign] = 4
    cycle = np.flatnonzero(roll >= 0.95)
    rng.shuffle(cycle)
    for a, b in zip(cycle[0::2], cycle[1::2]):
        tgt[a], tgt[b] = src[b], src[a]
    if len(cycle) % 2:
        tgt[cycle[-1]] = src[cycle[-1]]
    keep = ~((roll >= 0.89) & (roll < 0.95))  # these redirects have no row
    rd_from = plan.code_pid[src[keep]]
    rd_ns = ns[keep]
    rd_title = tgt[keep]
    # Rows whose source is not a redirect page: an article, or no page.
    bad_articles = plan.code_pid[plan.pool[rng.integers(len(plan.pool), size=40)]]
    bad_articles = np.unique(bad_articles)
    missing = np.arange(10, dtype=np.int64) + len(plan.code_pid) + 1000
    rd_from = np.concatenate([rd_from, bad_articles, missing])
    rd_ns = np.concatenate([rd_ns, np.zeros(len(bad_articles) + 10, dtype=np.int64)])
    rd_title = np.concatenate(
        [rd_title, plan.pool[rng.integers(len(plan.pool), size=len(bad_articles) + 10)]]
    )
    order = np.argsort(rd_from, kind="stable")
    return rd_from[order], rd_ns[order], rd_title[order]


def _messy_links(
    rng: np.random.Generator, plan: _MessyPlan, n: int, articles: np.ndarray, pool: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Random link rows with every kind of row `build_snapshot` drops."""
    src_code = articles[rng.integers(len(articles), size=n)]
    src = plan.code_pid[src_code]
    roll = rng.random(n)
    from_redirect = roll < 0.03
    src[from_redirect] = plan.code_pid[
        plan.redirects[rng.integers(len(plan.redirects), size=int(from_redirect.sum()))]
    ]
    unknown = (roll >= 0.03) & (roll < 0.04)
    n_unknown = int(unknown.sum())
    foreign_pids = plan.code_pid[plan.n_ns0 :]
    src[unknown] = np.where(
        rng.random(n_unknown) < 0.5,
        foreign_pids[rng.integers(len(foreign_pids), size=n_unknown)],
        len(plan.code_pid) + 5000 + rng.integers(1000, size=n_unknown),
    )
    tgt = pool[rng.integers(len(pool), size=n)]
    ns = np.zeros(n, dtype=np.int64)
    roll = rng.random(n)
    via_redirect = (roll >= 0.80) & (roll < 0.88)
    tgt[via_redirect] = plan.redirects[
        rng.integers(len(plan.redirects), size=int(via_redirect.sum()))
    ]
    red = (roll >= 0.88) & (roll < 0.91)
    tgt[red] = plan.red_codes[rng.integers(len(plan.red_codes), size=int(red.sum()))]
    ns[(roll >= 0.91) & (roll < 0.93)] = 10
    self_link = (roll >= 0.93) & (roll < 0.94) & ~from_redirect & ~unknown
    tgt[self_link] = src_code[self_link]
    from_ns = np.where(rng.random(n) < 0.01, 4, 0).astype(np.int64)
    return src, ns, tgt, from_ns


def _with_duplicates(rng: np.random.Generator, cols: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    n = len(cols[0])
    dup = rng.integers(n, size=n * 3 // 100)
    cols = tuple(np.concatenate([c, c[dup]]) for c in cols)
    order = np.argsort(cols[0], kind="stable")
    return tuple(c[order] for c in cols)


def build_dumps(seed: int, scale: float = 1.0) -> Tree:
    """Two languages x two months of large, messy dumps; few items."""
    rng = np.random.default_rng([seed, 101])
    languages = ["en", "ja"]
    n_pages = max(2000, int(8_000 * scale))
    n_links = max(8000, int(28_000 * scale))
    n_items = 300
    tree = Tree("dumps", languages, {}, {}, [], {}, [])
    shocks = rng.normal(0.0, 0.05, size=len(VIEW_MONTHS))
    levels = rng.uniform(4.5, 6.5, size=n_items)
    for li, language in enumerate(languages):
        plan = _messy_plan(rng, n_pages)
        tree.titles[language] = plan.titles
        rd = _messy_redirects(rng, plan)
        base = _messy_links(rng, plan, n_links, plan.articles1, plan.pool)
        # Each single-link page gets exactly one inlink, from a pool article.
        singles_src = plan.code_pid[plan.pool[rng.integers(len(plan.pool), size=len(plan.singles))]]
        z = np.zeros(len(plan.singles), dtype=np.int64)
        single_rows = (singles_src, z, plan.singles.copy(), z)

        # Items: 0-19 are designated orphans in both languages; 20-99
        # are orphans in the first language only, so the second one's
        # inlinks turn into crosslingual votes; 100-119 are single-link
        # pages in the first language; the rest are pool pages.
        item_codes = np.concatenate(
            [
                plan.orphans[:20],
                plan.orphans[20:100] if li == 0 else plan.pool[:80],
                plan.singles if li == 0 else plan.pool[80:100],
                plan.pool[100 : 100 + n_items - 120],
            ]
        )
        for k, code in enumerate(item_codes.tolist()):
            tree.sitelinks.append((f"Q{k + 1}", language, code))
            pid = int(plan.code_pid[code])
            _add_views(tree.views, rng, language, pid, levels[k] + 0.3 * li, shocks, 0.0)

        foreign_codes = np.arange(plan.n_ns0, plan.n_ns0 + plan.n_foreign)
        foreign_ns = rng.choice(np.array([1, 4, 10, 14]), size=plan.n_foreign)
        for mi, month in enumerate(MONTHS):
            n_ns0 = plan.month1_pages if mi == 0 else plan.n_ns0
            codes = np.concatenate([np.arange(n_ns0), foreign_codes])
            page_ns = np.concatenate([np.zeros(n_ns0, dtype=np.int64), foreign_ns])
            page_red = np.concatenate(
                [plan.is_redirect[:n_ns0], np.zeros(plan.n_foreign, dtype=bool)]
            )
            pids = plan.code_pid[codes]
            order = np.argsort(pids)
            if mi == 0:
                rows = [np.concatenate(x) for x in zip(base, single_rows)]
            else:
                keep = rng.random(n_links) >= 0.05
                articles2 = np.concatenate([plan.articles1, plan.new_pages])
                pool2 = np.concatenate([plan.pool, plan.new_pages])
                new = _messy_links(rng, plan, n_links // 20, articles2, pool2)
                parts = [tuple(c[keep] for c in base), new]
                if li == 0:
                    # Reverse events: the single inlinks vanish.  Forward
                    # events: designated orphans of items 0-19 gain one.
                    n_fwd = 20
                    fwd_src = plan.code_pid[plan.pool[rng.integers(len(plan.pool), size=n_fwd)]]
                    zf = np.zeros(n_fwd, dtype=np.int64)
                    parts.append((fwd_src, zf, plan.orphans[:n_fwd].copy(), zf))
                else:
                    parts.append(single_rows)
                rows = [np.concatenate(x) for x in zip(*parts)]
            pl = _with_duplicates(rng, tuple(rows))
            tree.dumps[(language, month)] = Dump(
                page_id=pids[order],
                page_ns=page_ns[order],
                page_title=codes[order],
                page_redirect=page_red[order],
                rd_from=rd[0],
                rd_ns=rd[1],
                rd_title=rd[2],
                pl_from=pl[0],
                pl_ns=pl[1],
                pl_title=pl[2],
                pl_from_ns=pl[3],
            )
        # Features for every month-1 article plus some redirect pages,
        # which the characterize stage must ignore.
        feature_pids = plan.code_pid[
            np.concatenate([plan.articles1, plan.redirects[:200]])
        ]
        tree.features += _features(rng, language, np.sort(feature_pids))
    return tree


# ---------------------------------------------------------------------------
# Workloads "pairs" and "corpus": item-driven wikis with planted statuses
# ---------------------------------------------------------------------------

# Status of an article over the two months: linked at month 1, month 2.
OO = (False, False)
LL = (True, True)
OL = (False, True)  # de-orphanized during the treatment month
LO = (True, False)  # orphanized during the treatment month


@dataclass
class _StatusLanguage:
    """One language of an item-driven tree, before it becomes dumps."""

    language: str
    titles: list[str] = field(default_factory=list)
    pids: list[int] = field(default_factory=list)
    status: list[tuple[bool, bool]] = field(default_factory=list)
    item: list[int] = field(default_factory=list)  # -1 for local pages
    hubs: list[int] = field(default_factory=list)  # codes
    code_of_item: dict[int, int] = field(default_factory=dict)


def _plan_statuses(
    rng: np.random.Generator,
    present: np.ndarray,
    n_hubs: int,
    n_forward: int,
    n_reverse: int,
    p_linked: float,
) -> tuple[np.ndarray, list[tuple[int, list[int], str]]]:
    """Per (item, language) statuses plus the planted events.

    Returns an array of status codes (0 OO, 1 LL, 2 OL, 3 LO) and, per
    event item, the treated languages and direction.
    """
    n_items, n_langs = present.shape
    status = np.where(rng.random((n_items, n_langs)) < p_linked, 1, 0)
    status[:n_hubs] = 1
    multi = np.flatnonzero((present.sum(axis=1) >= 2) & (np.arange(n_items) >= n_hubs))
    chosen = rng.permutation(multi)[: n_forward + n_reverse]
    events = []
    for k, item in enumerate(chosen.tolist()):
        langs = np.flatnonzero(present[item]).tolist()
        rng.shuffle(langs)
        forward = k < n_forward
        n_treated = 2 if len(langs) >= 3 and rng.random() < 0.15 else 1
        treated, others = langs[:n_treated], langs[n_treated:]
        stay, move = (0, 2) if forward else (1, 3)
        for lang in treated:
            status[item, lang] = move
        if rng.random() < 0.05:
            # No eligible control anywhere: `build_pairs` drops it.
            for lang in others:
                status[item, lang] = 1 - stay
        else:
            for j, lang in enumerate(others):
                status[item, lang] = stay if j == 0 or rng.random() < 0.5 else 1 - stay
        events.append((item, treated, "forward" if forward else "reverse"))
    return status, events


def _status_tree(
    rng: np.random.Generator,
    workload: str,
    languages: list[str],
    title_fns: dict,
    n_items: int,
    p_present: list[float],
    n_forward: int,
    n_reverse: int,
    p_linked: float,
    n_local: int,
    n_alias: int,
    n_hubs: int = 30,
) -> tuple[Tree, list[_StatusLanguage]]:
    n_langs = len(languages)
    present = rng.random((n_items, n_langs)) < np.array(p_present)[None, :]
    present[:n_hubs] = True
    status, events = _plan_statuses(rng, present, n_hubs, n_forward, n_reverse, p_linked)
    codes = {0: OO, 1: LL, 2: OL, 3: LO}
    tree = Tree(workload, languages, {}, {}, [], {}, [], planted_status={})
    built = []
    for li, language in enumerate(languages):
        sl = _StatusLanguage(language)
        title_fn = title_fns[language]
        for item in np.flatnonzero(present[:, li]).tolist():
            sl.code_of_item[item] = len(sl.titles)
            sl.titles.append(title_fn("hub" if item < n_hubs else "item", item))
            sl.status.append(codes[int(status[item, li])])
            sl.item.append(item)
        sl.hubs = [sl.code_of_item[h] for h in range(n_hubs)]
        # Local pages without an item; a few of them cross the orphan
        # boundary and are dropped by `build_pairs` for lack of a qid.
        local_roll = rng.random(n_local)
        for k in range(n_local):
            sl.titles.append(title_fn("local", k))
            r = local_roll[k]
            sl.status.append(OL if r < 0.05 else LO if r < 0.08 else LL if r < 0.6 else OO)
            sl.item.append(-1)
        n_articles = len(sl.titles)
        ids = rng.choice(np.arange(1, 3 * (n_articles + n_alias) + 1), size=n_articles + n_alias, replace=False)
        sl.pids = [int(x) for x in ids]
        built.append(sl)
        tree.titles[language] = sl.titles
        tree.planted_status[language] = {
            sl.pids[c]: sl.status[c] for c in range(n_articles)
        }
        for item, code in sl.code_of_item.items():
            tree.sitelinks.append((f"Q{item + 1}", language, code))
        _status_dumps(rng, tree, sl, n_alias)
        articles = np.array(sl.pids[:n_articles], dtype=np.int64)
        tree.features += _features(rng, language, np.sort(articles))
    tree.sitelinks.sort(key=lambda row: (int(row[0][1:]), row[1]))

    # Pageviews for every page of every event item.
    shocks = rng.normal(0.0, 0.05, size=len(VIEW_MONTHS))
    for item, treated, direction in events:
        base = rng.uniform(4.5, 5.5)
        ranks = rng.permutation(n_langs)
        effect = FORWARD_EFFECT if direction == "forward" else REVERSE_EFFECT
        for li in np.flatnonzero(present[item]).tolist():
            sl = built[li]
            pid = sl.pids[sl.code_of_item[item]]
            level = base + 0.1 * 2.0 ** ranks[li]
            _add_views(
                tree.views, rng, sl.language, pid, level, shocks,
                effect if li in treated else 0.0,
            )
        # Now and then two controls share identical views, so the
        # closest-match rule has to fall back to language order.
        stay = OO if direction == "forward" else LL
        controls = [
            li for li in np.flatnonzero(present[item]).tolist()
            if li not in treated and codes[int(status[item, li])] == stay
        ]
        if len(controls) >= 2 and rng.random() < 0.05:
            a, b = controls[0], controls[1]
            _copy_views(
                tree.views,
                languages[b], built[b].pids[built[b].code_of_item[item]],
                languages[a], built[a].pids[built[a].code_of_item[item]],
            )
    return tree, built


def _status_dumps(rng: np.random.Generator, tree: Tree, sl: _StatusLanguage, n_alias: int) -> None:
    """Dumps whose resolved graph realises the planted statuses.

    Every row that does not end as an edge towards a planted target is a
    row `build_snapshot` must drop, so no status changes by accident.
    """
    n_articles = len(sl.titles)
    hubs = np.array(sl.hubs)
    item = np.array(sl.item)
    status = np.array(sl.status, dtype=bool).reshape(n_articles, 2)
    stable = np.flatnonzero(status[:, 0] & status[:, 1])
    pid = np.array(sl.pids, dtype=np.int64)
    alias_pid = pid[n_articles:]

    # Alias redirects point at stable linked pages; every tenth chains
    # through the alias before it, two form a cycle, one dangles.
    alias_codes = np.arange(n_articles, n_articles + n_alias)
    red_codes = np.arange(n_articles + n_alias, n_articles + n_alias + 20)
    prefix = sl.titles[sl.hubs[0]].split("_")[0]
    sl.titles.extend(f"{prefix}_alias_{k}" for k in range(n_alias))
    sl.titles.extend(f"Red_link_{k}" for k in range(20))
    rd_title = stable[rng.integers(len(stable), size=n_alias)]
    final = {k: int(rd_title[k]) for k in range(n_alias)}
    for k in range(1, n_alias, 10):
        rd_title[k] = alias_codes[k - 1]
        final[k] = final[k - 1]
    broken = [2, 3, 4]
    rd_title[2], rd_title[3], rd_title[4] = alias_codes[3], alias_codes[2], red_codes[0]
    for k in broken:
        del final[k]
    alias_by_target = {target: k for k, target in final.items()}

    # Article-to-article links towards stable pages, the same both months.
    from_art = np.flatnonzero(rng.random(n_articles) < 0.3)
    art_tgt = stable[rng.integers(len(stable), size=len(from_art))]

    for mi, month in enumerate(MONTHS):
        linked = np.flatnonzero(status[:, mi])
        # A linked article gets an inlink from its item's hub (so other
        # languages vote for the same source) and half a second one.
        first = hubs[np.where(item[linked] >= 0, item[linked], linked) % len(hubs)]
        second = linked[rng.random(len(linked)) < 0.5]
        src = np.concatenate(
            [pid[first], pid[hubs], pid[hubs[rng.integers(len(hubs), size=len(second))]], pid[from_art]]
        )
        tgt = np.concatenate([linked, np.roll(hubs, -1), second, art_tgt])
        for j in np.flatnonzero(rng.random(len(tgt)) < 0.2).tolist():
            k = alias_by_target.get(int(tgt[j]))
            if k is not None:
                tgt[j] = alias_codes[k]
        n = max(10, len(src) // 50)
        hub_src = pid[hubs[rng.integers(len(hubs), size=n)]]
        any_stable = stable[rng.integers(len(stable), size=n)]
        dead_end = np.concatenate([red_codes, alias_codes[broken]])
        junk = [
            (hub_src, 0, dead_end[rng.integers(len(dead_end), size=n)], 0),  # unresolvable
            (hub_src, 10, any_stable, 0),  # foreign namespace
            (alias_pid[rng.integers(n_alias, size=n)], 0, any_stable, 0),  # from a redirect
            (pid.max() + 1 + rng.integers(100, size=n), 0, any_stable, 0),  # unknown source
            (hub_src, 0, any_stable, 4),  # source outside namespace 0
        ]
        cols = [src, np.zeros(len(src), np.int64), tgt, np.zeros(len(src), np.int64)]
        for part in junk:
            for c in range(4):
                value = part[c]
                if np.isscalar(value):
                    value = np.full(n, value, dtype=np.int64)
                cols[c] = np.concatenate([cols[c], value])
        pl = _with_duplicates(rng, tuple(cols))
        page_codes = np.arange(n_articles + n_alias)
        order = np.argsort(pid)
        tree.dumps[(sl.language, month)] = Dump(
            page_id=pid[order],
            page_ns=np.zeros(len(pid), dtype=np.int64),
            page_title=page_codes[order],
            page_redirect=(page_codes >= n_articles)[order],
            rd_from=alias_pid,
            rd_ns=np.zeros(n_alias, dtype=np.int64),
            rd_title=rd_title,
            pl_from=pl[0],
            pl_ns=pl[1],
            pl_title=pl[2],
            pl_from_ns=pl[3],
        )


_LANG_PREFIX = {
    "ar": "مقالة",
    "de": "Artikel",
    "en": "Article",
    "fr": "Élément",
    "ja": "記事",
    "ru": "Статья",
}


def _prefixed(prefix: str):
    return lambda kind, k: f"{prefix}_{kind}_{k}"


def build_pairs(seed: int, scale: float = 1.0) -> Tree:
    """Six small wikis sharing a large item table, with planted events."""
    rng = np.random.default_rng([seed, 202])
    languages = ["ar", "de", "en", "fr", "ja", "ru"]
    tree, _ = _status_tree(
        rng,
        "pairs",
        languages,
        {lang: _prefixed(_LANG_PREFIX[lang]) for lang in languages},
        n_items=max(400, int(2700 * scale)),
        p_present=[0.55] * len(languages),
        n_forward=max(60, int(450 * scale)),
        n_reverse=max(40, int(300 * scale)),
        p_linked=0.6,
        n_local=max(40, int(100 * scale)),
        n_alias=max(20, int(60 * scale)),
    )
    return tree


# Orphan titles in the corpus are "First_second_N": three words, the
# last a number, so one title's mention never contains another's.
_FIRST_WORDS = (
    "Quartz", "Ölmühle", "Éclair", "Zephyr", "Ångström", "Birch", "Copper",
    "Drossel", "Fjord", "Granit", "Hafen", "Ibis", "Jasper", "Kiefer",
    "Lärche", "Marmor",
)
_SECOND_WORDS = ("lane", "straße", "café", "brücke", "tower", "weg", "garten", "hof")
# Filler holds no digits and none of the title words.
_FILLER = (
    "über", "naïve", "日本語", "ключ", "città", "señor", "Øresund", "données",
    "river", "and", "the", "of", "北海道", "Ελλάδα", "música", "façade",
    "crème", "kaffee", "wolke", "sommer", "a", "in", "mit", "для",
)


def _corpus_title(kind: str, k: int) -> str:
    if kind == "item":
        return f"{_FIRST_WORDS[k % 16]}_{_SECOND_WORDS[(k // 16) % 8]}_{k}"
    return f"{'Portal' if kind == 'hub' else 'Lokal'}_{kind}_{k}"


def _decoy(display: str, rng: np.random.Generator) -> str:
    """A near miss that must not count as a mention."""
    kind = int(rng.integers(4))
    if kind == 0:
        return display.upper()
    if kind == 1:
        return display.replace(" ", "  ", 1)
    if kind == 2:
        return "é" + display
    return display + "ab"


def _corpus_docs(
    rng: np.random.Generator,
    tree: Tree,
    sl: _StatusLanguage,
    n_docs: int,
    n_filler: int,
) -> None:
    n_articles = len(sl.status)
    status = np.array(sl.status, dtype=bool).reshape(n_articles, 2)
    orphan_codes = np.flatnonzero(~status[:, 0])
    linked_codes = np.flatnonzero(status[:, 0])
    n_orphan_docs = n_docs * 15 // 100
    sources = np.concatenate(
        [
            rng.choice(linked_codes, size=n_docs - n_orphan_docs, replace=False),
            rng.choice(orphan_codes, size=n_orphan_docs, replace=False),
        ]
    )
    source_pids = [sl.pids[c] for c in sources.tolist()]
    # Documents findlink must skip: redirect pages and unknown pages.
    source_pids += sl.pids[n_articles : n_articles + 3] + [max(sl.pids) + 1, max(sl.pids) + 2]
    orphan_set = set(orphan_codes.tolist())
    code_of_pid = {pid: c for c, pid in enumerate(sl.pids[:n_articles])}
    linked_pids = [sl.pids[c] for c in linked_codes.tolist()]
    docs, mentions = [], {}
    for doc_pid in source_pids:
        segments = [(word, None, None) for word in rng.choice(_FILLER, size=n_filler).tolist()]
        picks = rng.choice(orphan_codes, size=9, replace=False).tolist()
        own = code_of_pid.get(doc_pid)
        if own in orphan_set:
            picks[0] = own  # its own title: findlink skips the document
        inserts = []
        for code in picks[:6]:
            display = sl.titles[code].replace("_", " ")
            for _ in range(1 + int(rng.random() < 0.3)):
                text = display[0].lower() + display[1:] if rng.random() < 0.3 else display
                inserts.append((text, code, None))
        for code in picks[6:8]:
            inserts.append((_decoy(sl.titles[code].replace("_", " "), rng), None, None))
        # A mention already inside a link span does not count.
        inserts.append((sl.titles[picks[8]].replace("_", " "), None, int(rng.choice(linked_pids))))
        for _ in range(2):
            inserts.append((str(rng.choice(_FILLER)), None, int(rng.choice(linked_pids))))
        for item in inserts:
            segments.insert(int(rng.integers(len(segments) + 1)), item)
        pieces, links, offset = [], [], 0
        for text, code, link_target in segments:
            size = len(text.encode("utf-8"))
            if code is not None:
                mentions.setdefault((doc_pid, sl.pids[code]), []).append((offset, offset + size))
            if link_target is not None:
                links.append([offset, offset + size, link_target])
            pieces.append(text)
            offset += size + 1
        docs.append({"page_id": doc_pid, "text": " ".join(pieces), "links": links})
    tree.docs[sl.language] = docs
    tree.mentions[sl.language] = mentions


def build_corpus(seed: int, scale: float = 1.0) -> Tree:
    """Two wikis, thousands of orphans and a large multi-byte corpus."""
    rng = np.random.default_rng([seed, 303])
    languages = ["de", "ja"]
    tree, built = _status_tree(
        rng,
        "corpus",
        languages,
        {"de": _corpus_title, "ja": _prefixed(_LANG_PREFIX["ja"])},
        n_items=max(600, int(2500 * scale)),
        p_present=[1.0, 0.5],
        n_forward=15,
        n_reverse=10,
        p_linked=0.4,
        n_local=max(20, int(200 * scale)),
        n_alias=max(20, int(100 * scale)),
    )
    _corpus_docs(rng, tree, built[0], n_docs=max(5, int(10 * scale)), n_filler=150)
    return tree


BUILDERS = {"dumps": build_dumps, "pairs": build_pairs, "corpus": build_corpus}


def build(workload: str, seed: int, scale: float = 1.0) -> Tree:
    return BUILDERS[workload](seed, scale)
