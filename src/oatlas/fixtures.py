"""Writers and generators for synthetic input data.

Everything the pipeline reads (SQL dumps, sitelink/pageview/feature
tables, annotated document corpora) can be produced here, either from
explicit record lists or from seeded random generators.  Tests lean on
the writers for round-trip checks; the demo scripts and the end-to-end
golden tree use them to build complete data roots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .causal import PairAssignment
from .ingest import PageviewTable, QidIndex, escape_sql_string, load_pageviews
from .months import month_add

_ROWS_PER_STATEMENT = 1000

_CREATE_STUBS = {
    "page": (
        "  `page_id` int(8) unsigned NOT NULL,\n"
        "  `page_namespace` int(11) NOT NULL,\n"
        "  `page_title` varbinary(255) NOT NULL,\n"
        "  `page_is_redirect` tinyint(1) unsigned NOT NULL"
    ),
    "redirect": (
        "  `rd_from` int(8) unsigned NOT NULL,\n"
        "  `rd_namespace` int(11) NOT NULL,\n"
        "  `rd_title` varbinary(255) NOT NULL"
    ),
    "pagelinks": (
        "  `pl_from` int(8) unsigned NOT NULL,\n"
        "  `pl_namespace` int(11) NOT NULL,\n"
        "  `pl_title` varbinary(255) NOT NULL,\n"
        "  `pl_from_namespace` int(11) NOT NULL"
    ),
}


def _format_value(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):  # MySQL stores no NaN or infinity
            raise ValueError(f"cannot write the non-finite float {value!r} into a dump")
        return repr(value)
    if isinstance(value, str):
        return f"'{escape_sql_string(value)}'"
    raise TypeError(f"cannot serialize {value!r} into a dump")


def write_sql_dump(
    target: Path | IO[str],
    table: str,
    rows: Iterable[tuple],
    *,
    rows_per_statement: int = _ROWS_PER_STATEMENT,
) -> int:
    """Write rows as ``INSERT INTO `table` VALUES ...;`` statements.

    The output mimics a mysqldump file: comment banner, CREATE TABLE
    block, then one INSERT statement per ``rows_per_statement`` rows.
    Returns the number of rows written.
    """
    if isinstance(target, Path):
        with target.open("w", encoding="utf-8", newline="\n") as handle:
            return write_sql_dump(
                handle, table, rows, rows_per_statement=rows_per_statement
            )
    out = target
    out.write(f"-- Dump of table `{table}`\n--\n\n")
    out.write(f"DROP TABLE IF EXISTS `{table}`;\n")
    stub = _CREATE_STUBS.get(table, "  `value` varbinary(255) NOT NULL")
    out.write(f"CREATE TABLE `{table}` (\n{stub}\n) ENGINE=InnoDB;\n")
    out.write("/*!40101 SET character_set_client = utf8 */;\n\n")
    written = 0
    batch: list[str] = []
    for row in rows:
        batch.append("(" + ",".join(_format_value(v) for v in row) + ")")
        if len(batch) >= rows_per_statement:
            out.write(f"INSERT INTO `{table}` VALUES " + ",".join(batch) + ";\n")
            written += len(batch)
            batch.clear()
    if batch:
        out.write(f"INSERT INTO `{table}` VALUES " + ",".join(batch) + ";\n")
        written += len(batch)
    return written


def write_sitelinks_tsv(
    target: Path | IO[str], rows: Iterable[tuple[str, str, str]]
) -> None:
    """Write ``(qid, language, title)`` rows as headerless TSV."""
    _write_tsv_rows(target, rows)


def write_pageviews_tsv(
    target: Path | IO[str], rows: Iterable[tuple[str, int, str, str, int]]
) -> None:
    """Write ``(language, page_id, month, referrer_class, views)`` rows."""
    _write_tsv_rows(target, rows)


def write_features_tsv(target: Path | IO[str], rows: Iterable[tuple]) -> None:
    """Write feature rows; booleans become 0/1 and None becomes NA."""
    formatted = (
        tuple(
            "NA"
            if value is None
            else (str(int(value)) if isinstance(value, bool) else value)
            for value in row
        )
        for row in rows
    )
    _write_tsv_rows(target, formatted)


def _write_tsv_rows(target: Path | IO[str], rows: Iterable[Sequence]) -> None:
    if isinstance(target, Path):
        with target.open("w", encoding="utf-8", newline="\n") as handle:
            _write_tsv_rows(handle, rows)
            return
    for row in rows:
        target.write("\t".join(str(value) for value in row) + "\n")


def write_docs_jsonl(target: Path, docs: Iterable[dict]) -> None:
    """Write annotated documents, one JSON object per line.

    Each dict needs ``page_id``, ``text`` and ``links`` (a list of
    ``[byte_start, byte_end, target_page_id]`` triples).
    """
    with target.open("w", encoding="utf-8", newline="\n") as handle:
        for doc in docs:
            handle.write(json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n")


@dataclass
class RandomWiki:
    """Raw dump rows for one randomly generated wiki month."""

    page_rows: list[tuple] = field(default_factory=list)
    redirect_rows: list[tuple] = field(default_factory=list)
    link_rows: list[tuple] = field(default_factory=list)


def random_wiki(
    rng: np.random.Generator,
    *,
    n_pages: int = 200,
    redirect_fraction: float = 0.2,
    n_links: int = 600,
    junk_fraction: float = 0.05,
) -> RandomWiki:
    """Generate a messy wiki: redirect chains and cycles, links from
    redirect pages, red links, foreign namespaces, self references.

    ``junk_fraction`` controls how many rows exercise the drop paths.
    """
    wiki = RandomWiki()
    n_redirects = int(n_pages * redirect_fraction)
    titles = [f"P_{i}" for i in range(1, n_pages + 1)]
    is_redirect = np.zeros(n_pages, dtype=bool)
    is_redirect[rng.choice(n_pages, size=n_redirects, replace=False)] = True
    for i in range(n_pages):
        wiki.page_rows.append((i + 1, 0, titles[i], int(is_redirect[i])))
    # A couple of rows outside the main namespace, to be filtered out.
    wiki.page_rows.append((n_pages + 1, 4, "Project_page", 0))
    wiki.page_rows.append((n_pages + 2, 10, "Template_page", 0))

    for i in np.flatnonzero(is_redirect).tolist():
        roll = rng.random()
        if roll < junk_fraction:
            target = f"Missing_{int(rng.integers(1, 100))}"
        elif roll < 2 * junk_fraction:
            wiki.redirect_rows.append((i + 1, 4, titles[int(rng.integers(n_pages))]))
            continue
        else:
            # May hit another redirect: chains and cycles are intended.
            target = titles[int(rng.integers(n_pages))]
        wiki.redirect_rows.append((i + 1, 0, target))

    for _ in range(n_links):
        roll = rng.random()
        from_id = int(rng.integers(1, n_pages + 1))
        target = titles[int(rng.integers(n_pages))]
        if roll < junk_fraction:
            target = f"Missing_{int(rng.integers(1, 100))}"
        elif roll < 2 * junk_fraction:
            wiki.link_rows.append((from_id, 4, target, 0))
            continue
        elif roll < 3 * junk_fraction:
            wiki.link_rows.append((from_id, 0, target, 4))
            continue
        wiki.link_rows.append((from_id, 0, target, 0))
    return wiki


def patterned_pagelinks_rows(n_rows: int, *, n_titles: int = 1000) -> Iterable[tuple]:
    """Deterministic pagelinks rows for throughput and memory tests."""
    titles = [f"Target_page_{i}" for i in range(n_titles)]
    for i in range(n_rows):
        yield (i % 100000 + 1, 0, titles[i % n_titles], 0)


# ---------------------------------------------------------------------------
# Golden three-wiki tree
# ---------------------------------------------------------------------------

#: Months covered by the golden dumps (pageviews span a wider window).
GOLDEN_MONTHS = ("2022-11", "2022-12")

#: Expected orphan and dead-end fractions at the 2022-11 snapshot.
GOLDEN_ORPHAN_FRACTIONS = {"aa": 4 / 6, "bb": 2 / 4, "cc": 0.0}
GOLDEN_DEADEND_FRACTIONS = {"aa": 2 / 6, "bb": 2 / 4, "cc": 0.0}

#: Interaction coefficients implied by the golden pageview numbers.
GOLDEN_FORWARD_EFFECT = math.log(21.0) - math.log(11.0)
GOLDEN_REVERSE_EFFECT = math.log(11.0) - math.log(41.0)

_GOLDEN_PAGES = {
    "aa": [
        (1, 0, "A_Home", 0),
        (2, 0, "A_Star", 0),
        (3, 0, "A_Moon", 0),
        (4, 0, "A_Rock", 0),
        (5, 0, "A_Redirect", 1),
        (6, 0, "A_Iso", 0),
        (7, 0, "A_Source", 0),
        (90, 4, "A_Project", 0),
    ],
    "bb": [
        (11, 0, "B_Hub", 0),
        (12, 0, "B_Star", 0),
        (13, 0, "B_Rock", 0),
        (15, 0, "B_Source", 0),
        (16, 0, "B_Dir", 1),
    ],
    "cc": [
        (21, 0, "C_Main", 0),
        (22, 0, "C_Moon", 0),
        (23, 0, "C_World", 0),
    ],
}

_GOLDEN_REDIRECTS = {
    "aa": [(5, 0, "A_Home")],
    "bb": [(16, 0, "B_Hub")],
    "cc": [],
}

_GOLDEN_LINKS = {
    ("aa", "2022-11"): [
        (1, 0, "A_Moon", 0),
        (3, 0, "A_Redirect", 0),
        (2, 0, "A_Home", 0),
        (7, 0, "A_Home", 0),
        (5, 0, "A_Moon", 0),
        (1, 0, "No_such_page", 0),
    ],
    ("aa", "2022-12"): [
        (3, 0, "A_Redirect", 0),
        (2, 0, "A_Home", 0),
        (7, 0, "A_Home", 0),
        (1, 0, "A_Star", 0),
    ],
    ("bb", "2022-11"): [
        (15, 0, "B_Rock", 0),
        (13, 0, "B_Hub", 0),
        (11, 0, "B_Dir", 0),
    ],
    ("bb", "2022-12"): [
        (15, 0, "B_Rock", 0),
        (13, 0, "B_Hub", 0),
        (11, 0, "B_Dir", 0),
    ],
    ("cc", "2022-11"): [
        (21, 0, "C_Moon", 0),
        (22, 0, "C_World", 0),
        (23, 0, "C_Main", 0),
    ],
    ("cc", "2022-12"): [
        (21, 0, "C_Moon", 0),
        (22, 0, "C_World", 0),
        (23, 0, "C_Main", 0),
    ],
}

_GOLDEN_SITELINKS = [
    ("Q100", "aa", "A_Star"),
    ("Q100", "bb", "B_Star"),
    ("Q200", "aa", "A_Moon"),
    ("Q200", "cc", "C_Moon"),
    ("Q300", "aa", "A_Rock"),
    ("Q300", "bb", "B_Rock"),
    ("Q500", "aa", "A_Source"),
    ("Q500", "bb", "B_Source"),
]

# Monthly view totals for the two matched pairs.  The forward pair is
# A_Star (treated, doubles after gaining an inlink) against B_Star; the
# reverse pair is A_Moon (treated, collapses after losing its inlink)
# against C_Moon.  Flat controls keep the interaction terms easy to
# compute by hand from the cell means.
_GOLDEN_VIEWS = {
    ("aa", 2): {"pre": 10, "post": 20},
    ("bb", 12): {"pre": 5, "post": 5},
    ("aa", 3): {"pre": 40, "post": 10},
    ("cc", 22): {"pre": 30, "post": 30},
}

_GOLDEN_REFERRER_SPLIT = {
    10: (6, 3, 1),
    20: (12, 6, 2),
    5: (3, 1, 1),
    40: (24, 12, 4),
    30: (18, 9, 3),
}

_GOLDEN_FEATURES = {
    "aa": [
        (1, False, False, 0.9, 0.1, 0.2, 0.1, 0.9, 100),
        (2, False, None, 0.8, 0.2, 0.1, 0.3, 0.2, 200),
        (3, False, True, 0.1, 0.2, 0.9, 0.1, 0.5, 300),
        (4, True, None, 0.2, 0.8, 0.1, 0.6, 0.7, 400),
        (6, True, None, 0.1, 0.1, 0.7, 0.2, 0.3, 500),
        (7, False, None, 0.3, 0.1, 0.2, 0.8, 0.6, 600),
        # Redirect page: present in the table, absent from every snapshot.
        (5, False, None, 0.5, 0.5, 0.5, 0.5, 0.1, 700),
    ],
    "bb": [
        (11, False, None, 0.6, 0.3, 0.2, 0.1, 0.8, 110),
        (12, False, None, 0.7, 0.1, 0.2, 0.4, 0.3, 210),
        (13, True, None, 0.1, 0.9, 0.2, 0.5, 0.6, 310),
        (15, False, None, 0.2, 0.2, 0.3, 0.7, 0.4, 410),
    ],
    "cc": [
        (21, False, None, 0.5, 0.4, 0.3, 0.2, 0.7, 120),
        (22, False, True, 0.2, 0.3, 0.8, 0.1, 0.5, 220),
        (23, False, False, 0.4, 0.5, 0.2, 0.3, 0.6, 320),
    ],
}

_GOLDEN_DOCS = [
    {
        "page_id": 1,
        "text": "The star catalog mentions A Star and more.",
        "links": [],
    },
    {
        "page_id": 3,
        "text": "Every A Rock is hard. See A Rock again.",
        "links": [[26, 32, 4]],
    },
]


def golden_tree(root: Path) -> Path:
    """Write a small, fully hand-checked three-wiki data tree under root.

    The tree follows the on-disk layout the command line expects: one
    directory per language with per-month dump files, plus shared
    sitelinks, pageview and feature tables at the top level.  Wiki
    ``aa`` gains one link and loses another between the two months,
    producing exactly one forward pair (Q100 against ``bb``) and one
    reverse pair (Q200 against ``cc``).  Module constants carry the
    hand-computed orphan fractions and interaction coefficients.
    """
    root.mkdir(parents=True, exist_ok=True)
    for language, pages in _GOLDEN_PAGES.items():
        for month in GOLDEN_MONTHS:
            month_dir = root / language / month
            month_dir.mkdir(parents=True, exist_ok=True)
            write_sql_dump(month_dir / "page.sql", "page", pages)
            write_sql_dump(
                month_dir / "redirect.sql", "redirect", _GOLDEN_REDIRECTS[language]
            )
            write_sql_dump(
                month_dir / "pagelinks.sql",
                "pagelinks",
                _GOLDEN_LINKS[(language, month)],
            )

    write_sitelinks_tsv(root / "sitelinks.tsv", _GOLDEN_SITELINKS)

    view_rows: list[tuple[str, int, str, str, int]] = []
    pre_months = ["2022-08", "2022-09", "2022-10"]
    post_months = ["2022-12", "2023-01", "2023-02"]
    for (language, page_id), totals in sorted(_GOLDEN_VIEWS.items()):
        for month in pre_months + ["2022-11"] + post_months:
            total = totals["pre"] if month <= "2022-11" else totals["post"]
            view_rows.append((language, page_id, month, "all", total))
            internal, external, unknown = _GOLDEN_REFERRER_SPLIT[total]
            view_rows.append((language, page_id, month, "internal", internal))
            view_rows.append((language, page_id, month, "external", external))
            view_rows.append((language, page_id, month, "unknown", unknown))
    write_pageviews_tsv(root / "pageviews.tsv", view_rows)

    feature_rows = []
    for language, rows in _GOLDEN_FEATURES.items():
        for row in rows:
            feature_rows.append((language, *row))
    write_features_tsv(root / "features.tsv", feature_rows)

    write_docs_jsonl(root / "aa" / "docs.jsonl", _GOLDEN_DOCS)
    return root


# ---------------------------------------------------------------------------
# Synthetic matched panels
# ---------------------------------------------------------------------------


def synthetic_did_inputs(
    n_pairs: int,
    effect: float,
    seed: int,
    *,
    direction: str = "forward",
    treatment_month: str = "2022-11",
    window: int = 3,
    base_log_views: float = 5.0,
    pair_sd: float = 1.0,
    role_sd: float = 0.3,
    month_sd: float = 0.05,
    noise_sd: float = 0.4,
    effect_by_offset: dict[int, float] | None = None,
) -> tuple[list[PairAssignment], PageviewTable, QidIndex]:
    """Generate matched pairs whose views embed a known treatment effect.

    Views follow ``round(exp(mu + eps))`` where ``mu`` stacks a pair
    level, a role offset, a month shock shared by both members of every
    pair, and the treatment effect on treated post months.  The shared
    month shock cancels out of the interaction estimate, so the chosen
    effect is recoverable up to the iid noise.  ``effect_by_offset``
    overrides the flat effect with per-month values keyed by period
    index (negative before treatment, positive after).
    """
    rng = np.random.default_rng(seed)
    treated_language, control_language = "tt", "cc"
    offsets = [k for k in range(-window, window + 1) if k != 0]
    months = [month_add(treatment_month, k) for k in offsets]
    if effect_by_offset is not None:
        per_month_effect = np.array([effect_by_offset.get(k, 0.0) for k in offsets])
    else:
        per_month_effect = np.array([effect if k > 0 else 0.0 for k in offsets])

    month_shock = rng.normal(0.0, month_sd, size=len(offsets))
    pair_level = rng.normal(base_log_views, pair_sd, size=n_pairs)
    role_offset = rng.normal(0.0, role_sd, size=n_pairs)
    noise = rng.normal(0.0, noise_sd, size=(n_pairs, 2, len(offsets)))

    # Axis 1 is the role: 0 treated, 1 control.
    mu = pair_level[:, None, None] + month_shock[None, None, :] + noise
    mu[:, 0, :] += role_offset[:, None] + per_month_effect[None, :]
    counts = np.maximum(np.rint(np.exp(mu)).astype(np.int64), 0)

    pairs: list[PairAssignment] = []
    qids = QidIndex()
    for i in range(n_pairs):
        qid = f"Q{i + 1:06d}"
        page_id = i + 1
        for language in (treated_language, control_language):
            qids.add(qid, language, f"Item_{i + 1}")
            qids.attach_page(qid, language, page_id)
        pairs.append(
            PairAssignment(
                pair_id=f"{direction}:{treatment_month}:{qid}:{treated_language}",
                qid=qid,
                treated_language=treated_language,
                control_language=control_language,
                treatment_month=treatment_month,
                direction=direction,
            )
        )
    # One pageview row per pair, role and month, in the order of counts.
    width = len(months)
    views = load_pageviews(
        [
            (
                ([treated_language] * width + [control_language] * width) * n_pairs,
                np.repeat(np.arange(1, n_pairs + 1), 2 * width),
                months * (2 * n_pairs),
                ["all"] * (2 * width * n_pairs),
                counts.reshape(-1),
            )
        ],
        strict=True,
    )
    return pairs, views, qids
