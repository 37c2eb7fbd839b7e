"""Command line pipeline driver.

Each subcommand reads a run configuration (config file, environment,
flags, in rising precedence), executes one pipeline stage and writes
machine-readable reports under the output directory.  Stages talk to
each other only through files, so any stage can be re-run in isolation
as long as its inputs are present:

* ``ingest``       dumps -> snapshots/, titles/, qidmap.tsv, manifest.json
* ``orphans``      snapshots -> wiki_summary.tsv, lowess_curve.tsv
* ``characterize`` snapshots + features.tsv -> representation_scores.tsv
* ``panel``        snapshots + qidmap + pageviews.tsv -> pairs.tsv, panel.tsv
* ``did``          panel.tsv -> estimates.json
* ``candidates``   snapshots + qidmap + titles -> candidates.tsv, coverage.tsv
* ``all``          the six above, in order

Exit codes: 0 success, 2 configuration error, 3 data error, 4 model
error.  All outputs are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import candidates as candidates_mod
from . import causal, characterize, graph, ingest
from .months import MonthFormatError, month_add, month_range

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_MODEL_ERROR = 4

STAGES = ("ingest", "orphans", "characterize", "panel", "did", "candidates")

DUMP_FILES = ("page.sql", "redirect.sql", "pagelinks.sql")


class ConfigError(Exception):
    """The run configuration is missing, malformed or inconsistent."""


class DataError(Exception):
    """Input files are missing or unusable for the requested stage."""


class ModelError(Exception):
    """Estimation failed on otherwise well-formed data."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_COMMENT = re.compile(r"(?:^|\s)#")

ENV_DATA_ROOT = "OATLAS_DATA"


@dataclass
class RunConfig:
    """Resolved settings for one pipeline run."""

    data_root: Path
    out_dir: Path = Path("oatlas_out")
    months: tuple[str, ...] = ()
    languages: tuple[str, ...] | None = None
    strict: bool = False
    window: int = causal.DEFAULT_WINDOW
    min_pairs: int = causal.DEFAULT_MIN_PAIRS
    lowess_fraction: float = 0.67

    def validate(self) -> None:
        if not self.months:
            raise ConfigError("no months configured (use --months or the config file)")
        for month in self.months:
            try:
                month_add(month, 0)
            except MonthFormatError as exc:
                raise ConfigError(str(exc)) from exc
        if list(self.months) != sorted(self.months):
            raise ConfigError("month range is not in increasing order")
        if self.window < 1:
            raise ConfigError(f"window must be at least 1, got {self.window}")
        if not 0.0 < self.lowess_fraction <= 1.0:
            raise ConfigError(
                f"lowess fraction must be in (0, 1], got {self.lowess_fraction}"
            )
        if self.min_pairs < 1:
            raise ConfigError(f"min_pairs must be at least 1, got {self.min_pairs}")


def _parse_path(raw: str) -> Path:
    if not raw:
        raise ValueError("empty path")
    return Path(raw)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _parse_months(raw: str) -> tuple[str, ...]:
    """Expand ``YYYY-MM`` or ``YYYY-MM:YYYY-MM`` into an inclusive tuple."""
    raw = raw.strip()
    if ":" in raw:
        first, last = raw.split(":", 1)
        return tuple(month_range(first.strip(), last.strip()))
    return tuple(month_range(raw, raw))


def _parse_languages(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Config key -> (RunConfig field, parser of the key's text).  The config
# file, the environment and the flags all supply text; a parser raising
# ValueError makes the run a configuration error.
_SETTINGS: dict[str, tuple[str, Callable[[str], object]]] = {
    "data_root": ("data_root", _parse_path),
    "out": ("out_dir", Path),
    "languages": ("languages", _parse_languages),
    "months": ("months", _parse_months),
    "strict": ("strict", _parse_bool),
    "window": ("window", int),
    "min_pairs": ("min_pairs", int),
    "lowess_fraction": ("lowess_fraction", float),
}


def load_config_file(path: Path) -> dict[str, str]:
    """Read ``key = value`` lines.

    A ``#`` at the start of a line or after whitespace starts a comment;
    any other ``#`` is part of the value.
    """
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{number}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{number}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace, env: Mapping[str, str]) -> RunConfig:
    """Merge defaults, config file, environment and flags into a RunConfig.

    Later sources win.  Every text any source supplies is parsed, so a
    bad value is a :class:`ConfigError` even where a later source
    overrides it.
    """
    texts: list[tuple[str, str]] = []
    if args.config is not None:
        texts += load_config_file(Path(args.config)).items()
    if env.get(ENV_DATA_ROOT):
        texts.append(("data_root", env[ENV_DATA_ROOT]))
    texts += [
        (key, getattr(args, key)) for key in _SETTINGS if getattr(args, key) is not None
    ]
    values: dict[str, object] = {}
    for key, text in texts:
        name, parse = _SETTINGS[key]
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"cannot read {key}={text!r}: {exc}") from exc
    if "data_root" not in values:
        raise ConfigError(
            f"no data root configured (use --data, {ENV_DATA_ROOT} or the config file)"
        )
    config = RunConfig(**values)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value: object) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        # repr round-trips exactly, so downstream stages reading a report
        # see the same numbers the producing stage computed.
        return repr(value)
    return str(value)


def _write_report(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Iterable[str] = (),
) -> None:
    """Write a ``#`` header line, one ``#`` line per note, then the rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("# " + "\t".join(header) + "\n")
        for note in notes:
            handle.write(f"# {note}\n")
        for row in rows:
            handle.write("\t".join(_fmt(value) for value in row) + "\n")


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    sanitized = _sanitize_json(payload)
    path.write_text(
        json.dumps(sanitized, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _sanitize_json(value: object) -> object:
    if isinstance(value, dict):
        return {key: _sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_json(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@contextlib.contextmanager
def _tsv_lines(path: Path) -> Iterator[TextIO]:
    """Open a TSV to read; a malformed row becomes a DataError naming it."""
    with path.open(encoding="utf-8") as handle:
        try:
            yield handle
        except ingest.TsvFormatError as exc:
            raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Shared loading
# ---------------------------------------------------------------------------


def _discover_languages(config: RunConfig) -> list[str]:
    if not config.data_root.is_dir():
        raise DataError(f"data root {config.data_root} is not a directory")
    found = sorted(
        entry.name
        for entry in config.data_root.iterdir()
        if entry.is_dir() and any((entry / month).is_dir() for month in config.months)
    )
    if config.languages is None:
        return found
    return [lang for lang in found if lang in config.languages]


def _snapshot_path(config: RunConfig, language: str, month: str) -> Path:
    return config.out_dir / "snapshots" / language / f"{month}.oatl"


def _load_snapshots(config: RunConfig, month: str) -> dict[str, graph.LinkSnapshot]:
    snapshots_dir = config.out_dir / "snapshots"
    if not snapshots_dir.is_dir():
        raise DataError(f"{snapshots_dir} not found; run the ingest stage first")
    loaded: dict[str, graph.LinkSnapshot] = {}
    for lang_dir in sorted(snapshots_dir.iterdir()):
        path = lang_dir / f"{month}.oatl"
        if lang_dir.is_dir() and path.is_file():
            loaded[lang_dir.name] = graph.LinkSnapshot.load(path)
    if not loaded:
        raise DataError(f"no snapshots for {month} under {snapshots_dir}")
    return loaded


def _load_qid_index(config: RunConfig) -> ingest.QidIndex:
    path = config.out_dir / "qidmap.tsv"
    if not path.is_file():
        raise DataError(f"{path} not found; run the ingest stage first")
    index = ingest.QidIndex()
    with _tsv_lines(path) as lines:
        for qid, language, page_id, title in ingest.read_tsv(
            lines, (str, str, ingest.optional(int), str)
        ):
            index.add(qid, language, title)
            if page_id is not None:
                index.attach_page(qid, language, page_id)
    return index


def _titles_path(config: RunConfig, language: str) -> Path:
    return config.out_dir / "titles" / f"{language}.tsv"


def _load_titles(config: RunConfig, language: str) -> dict[int, str]:
    path = _titles_path(config, language)
    if not path.is_file():
        raise DataError(f"{path} not found; run the ingest stage first")
    with _tsv_lines(path) as lines:
        return dict(ingest.read_tsv(lines, (int, str)))


def _load_pageview_table(config: RunConfig) -> ingest.PageviewTable:
    path = config.data_root / "pageviews.tsv"
    if not path.is_file():
        raise DataError(f"pageview table not found: {path}")
    with _tsv_lines(path) as lines:
        return ingest.load_pageviews(
            ingest.read_pageviews_tsv(lines), strict=config.strict
        )


def _require_month_pair(config: RunConfig) -> tuple[str, str]:
    month = config.months[0]
    following = month_add(month, 1)
    if following not in config.months:
        raise ConfigError(
            f"the panel stage needs both {month} and {following} in the month range"
        )
    return month, following


# ---------------------------------------------------------------------------
# Stage: ingest
# ---------------------------------------------------------------------------


def _ingest_language(config: RunConfig, language: str) -> tuple[dict, dict[str, int]]:
    """Parse and persist one language's months.

    Returns the manifest entry and the analysis-month title index used
    for sitelink attachment.
    """
    entry: dict = {"months": {}}
    id_by_title: dict[str, int] = {}
    titles_written = False
    for month in config.months:
        month_dir = config.data_root / language / month
        missing = [name for name in DUMP_FILES if not (month_dir / name).is_file()]
        if missing:
            message = f"missing {', '.join(missing)}"
            if config.strict:
                raise DataError(f"{language}/{month}: {message}")
            logger.warning("skipping %s/%s: %s", language, month, message)
            entry["months"][month] = {"skipped": message}
            continue

        parse_stats = {name: ingest.ParseStats() for name in DUMP_FILES}
        with (month_dir / "page.sql").open("rb") as handle:
            pages = ingest.load_page_table(
                ingest.parse_sql_insert_rows(
                    handle, strict=config.strict, stats=parse_stats["page.sql"]
                ),
                strict=config.strict,
                stats=parse_stats["page.sql"],
            )
        with (month_dir / "redirect.sql").open("rb") as handle:
            redirects = ingest.load_redirects(
                ingest.parse_sql_insert_rows(
                    handle, strict=config.strict, stats=parse_stats["redirect.sql"]
                ),
                pages,
                strict=config.strict,
                stats=parse_stats["redirect.sql"],
            )
        build_stats = graph.BuildStats()
        with (month_dir / "pagelinks.sql").open("rb") as handle:
            links = ingest.iter_raw_links(
                ingest.parse_sql_insert_rows(
                    handle, strict=config.strict, stats=parse_stats["pagelinks.sql"]
                ),
                strict=config.strict,
                stats=parse_stats["pagelinks.sql"],
            )
            snapshot = graph.build_snapshot(
                pages, redirects, links, language=language, month=month, stats=build_stats
            )
        path = _snapshot_path(config, language, month)
        path.parent.mkdir(parents=True, exist_ok=True)
        snapshot.save(path)

        entry["months"][month] = {
            "n_articles": snapshot.n_articles,
            "n_edges": snapshot.n_edges,
            "rows": {name: stats.rows for name, stats in parse_stats.items()},
            "skipped_rows": sum(stats.skipped for stats in parse_stats.values()),
            "dropped_links": {
                "foreign_namespace": build_stats.dropped_foreign_namespace,
                "redirect_source": build_stats.dropped_redirect_source,
                "unknown_source": build_stats.dropped_unknown_source,
                "missing_target": build_stats.dropped_missing_target,
                "unresolved_redirect": build_stats.dropped_unresolved_redirect,
                "self_loop": build_stats.dropped_self_loop,
                "duplicate": build_stats.n_duplicate_links,
            },
        }
        if not titles_written:
            id_by_title = dict(pages.id_by_title)
            rows = sorted(
                (page_id, page.title)
                for page_id, page in pages.by_id.items()
                if not page.is_redirect
            )
            _write_report(_titles_path(config, language), ("page_id", "title"), rows)
            titles_written = True
    return entry, id_by_title


def cmd_ingest(config: RunConfig) -> None:
    languages = _discover_languages(config)
    manifest: dict = {
        "config": {
            "months": list(config.months),
            "languages": sorted(languages),
            "strict": config.strict,
            "window": config.window,
        },
        "languages": {},
    }
    if not languages:
        _write_json(config.out_dir / "manifest.json", manifest)
        print("nothing to ingest: no languages matched the configuration")
        return

    sitelinks_path = config.data_root / "sitelinks.tsv"
    if not sitelinks_path.is_file():
        raise DataError(f"sitelink table not found: {sitelinks_path}")
    results = [_ingest_language(config, lang) for lang in languages]

    with _tsv_lines(sitelinks_path) as lines:
        index = ingest.load_sitelinks(
            ingest.read_sitelinks_tsv(lines), strict=config.strict
        )
    for language, (_, id_by_title) in zip(languages, results):
        index.attach_page_ids(language, id_by_title)

    qid_rows = []
    for qid in index.qids():
        for language, title in sorted(index.sitelinks(qid).items()):
            qid_rows.append((qid, language, index.page_for_qid(language, qid), title))
    _write_report(
        config.out_dir / "qidmap.tsv", ("qid", "language", "page_id", "title"), qid_rows
    )

    for language, (entry, _) in zip(languages, results):
        manifest["languages"][language] = entry
    manifest["sitelink_rows"] = len(qid_rows)
    manifest["qid_count"] = len(index)
    _write_json(config.out_dir / "manifest.json", manifest)
    logger.info("ingested %d languages", len(languages))


# ---------------------------------------------------------------------------
# Stage: orphans
# ---------------------------------------------------------------------------


def cmd_orphans(config: RunConfig) -> None:
    month = config.months[0]
    snapshots = _load_snapshots(config, month)
    summaries = characterize.orphan_fraction_by_wiki(snapshots.values())
    _write_report(
        config.out_dir / "wiki_summary.tsv", characterize.WikiSummary._fields, summaries
    )

    # A wiki without articles has no size to place on the log axis.
    by_size = sorted(
        (s for s in summaries if s.n_articles),
        key=lambda s: (s.n_articles, s.language),
    )
    log_sizes = [math.log10(s.n_articles) for s in by_size]
    fractions = [s.orphan_fraction for s in by_size]
    if len(by_size) >= 3:
        fitted: list[float | str] = list(
            characterize.lowess_fit(log_sizes, fractions, f=config.lowess_fraction)
        )
    else:
        fitted = ["NA"] * len(by_size)
    _write_report(
        config.out_dir / "lowess_curve.tsv",
        ("language", "log10_articles", "orphan_fraction", "fitted"),
        (
            (s.language, x, y, z)
            for s, x, y, z in zip(by_size, log_sizes, fractions, fitted)
        ),
    )


# ---------------------------------------------------------------------------
# Stage: characterize
# ---------------------------------------------------------------------------


def cmd_characterize(config: RunConfig) -> None:
    month = config.months[0]
    snapshots = _load_snapshots(config, month)
    features_path = config.data_root / "features.tsv"
    if not features_path.is_file():
        raise DataError(f"feature table not found: {features_path}")
    with _tsv_lines(features_path) as lines:
        records = list(ingest.read_features_tsv(lines))

    rows = []
    for language in sorted(snapshots):
        snapshot = snapshots[language]
        subset = [r for r in records if r.language == language]
        if not subset:
            logger.warning("no feature rows for %s; skipping", language)
            continue
        articles = set(snapshot.article_ids.tolist())
        table = characterize.build_feature_table(subset, language, articles=articles)
        orphan_ids = graph.orphans(snapshot) & set(table.page_ids)
        rows.extend(characterize.representation_scores(orphan_ids, table))
    _write_report(
        config.out_dir / "representation_scores.tsv",
        (
            "language",
            "feature",
            "p_x_given_o",
            "p_x",
            "log_ratio",
            "n_orphans",
            "n_rows",
            "undefined",
        ),
        rows,
    )


# ---------------------------------------------------------------------------
# Stage: panel
# ---------------------------------------------------------------------------


def cmd_panel(config: RunConfig) -> None:
    month, following = _require_month_pair(config)
    first = _load_snapshots(config, month)
    second = _load_snapshots(config, following)
    snapshots = {
        lang: {month: first[lang], following: second[lang]}
        for lang in first
        if lang in second
    }
    index = _load_qid_index(config)
    views = _load_pageview_table(config)

    pairs: list[causal.PairAssignment] = []
    drop_notes = []
    for direction in (causal.FORWARD, causal.REVERSE):
        result = causal.build_pairs(
            snapshots,
            index,
            month,
            direction,
            pageviews=views,
            window=config.window,
        )
        pairs.extend(result.pairs)
        drop_notes.append(
            f"{direction}: pairs={len(result.pairs)}"
            f" dropped_no_qid={result.n_dropped_no_qid}"
            f" dropped_no_control={result.n_dropped_no_control}"
        )

    pairs.sort(key=lambda p: p.pair_id)
    _write_report(
        config.out_dir / "pairs.tsv", causal.PairAssignment._fields, pairs, drop_notes
    )

    observations: list[causal.PanelObservation] = []
    classes = ["all"] + sorted(views.referrer_classes() - {"all"})
    for referrer_class in classes:
        observations.extend(
            causal.assemble_panel(
                pairs,
                views,
                index,
                window=config.window,
                referrer_class=referrer_class,
            )
        )
    observations.sort(
        key=lambda o: (o.pair_id, o.referrer_class, o.role, o.period_index)
    )
    _write_report(
        config.out_dir / "panel.tsv", causal.PanelObservation._fields, observations
    )


# ---------------------------------------------------------------------------
# Stage: did
# ---------------------------------------------------------------------------


def _read_panel(config: RunConfig) -> list[causal.PanelObservation]:
    path = config.out_dir / "panel.tsv"
    if not path.is_file():
        raise DataError(f"{path} not found; run the panel stage first")
    with _tsv_lines(path) as lines:
        return [
            causal.PanelObservation._make(row)
            for row in ingest.read_tsv(lines, (str, str, str, str, int, float, str))
        ]


def _estimates_for_direction(
    config: RunConfig, observations: list[causal.PanelObservation]
) -> dict:
    pooled_rows = [o for o in observations if o.referrer_class == "all"]
    pooled = causal.fit_did(pooled_rows, spec="pooled")
    by_language = causal.fit_did(
        pooled_rows, spec="by_language", min_pairs=config.min_pairs
    )
    by_month = causal.fit_did(pooled_rows, spec="by_month")
    by_referrer = causal.fit_did(observations, spec="by_referrer")
    return {
        "pooled": pooled.to_dict(),
        "by_language": {lang: est.to_dict() for lang, est in by_language.items()},
        "by_month": by_month.to_dict(),
        "by_referrer": {cls: est.to_dict() for cls, est in by_referrer.items()},
    }


def cmd_did(config: RunConfig) -> None:
    observations = _read_panel(config)
    estimates_path = config.out_dir / "estimates.json"
    if not observations:
        _write_json(
            estimates_path,
            {
                "note": "no matched pairs were available; nothing to estimate",
                "forward": {},
                "reverse": {},
            },
        )
        raise DataError("panel is empty: no matched pairs to estimate from")

    payload: dict = {}
    for direction in (causal.FORWARD, causal.REVERSE):
        prefix = f"{direction}:"
        subset = [o for o in observations if o.pair_id.startswith(prefix)]
        if not subset:
            payload[direction] = {"note": f"no {direction} pairs"}
            continue
        try:
            payload[direction] = _estimates_for_direction(config, subset)
        except (causal.DegeneratePanelError, causal.RankDeficientError) as exc:
            raise ModelError(f"{direction} estimation failed: {exc}") from exc
    _write_json(estimates_path, payload)


# ---------------------------------------------------------------------------
# Stage: candidates
# ---------------------------------------------------------------------------


def _load_documents(
    config: RunConfig, language: str
) -> list[candidates_mod.AnnotatedDocument]:
    path = config.data_root / language / "docs.jsonl"
    if not path.is_file():
        return []
    documents = []
    # Only line ends split records: JSON leaves U+2028 unescaped in strings.
    with path.open(encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                document = candidates_mod.AnnotatedDocument(
                    language=language,
                    page_id=int(raw["page_id"]),
                    text=raw["text"],
                    existing_link_spans=tuple(
                        (int(a), int(b), int(t)) for a, b, t in raw.get("links", ())
                    ),
                )
                document.validate()
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{number}: bad document: {exc}") from exc
            documents.append(document)
    return documents


def cmd_candidates(config: RunConfig) -> None:
    month = config.months[0]
    snapshots = _load_snapshots(config, month)
    index = _load_qid_index(config)

    candidate_rows = []
    coverage_rows = []
    for language in sorted(snapshots):
        snapshot = snapshots[language]
        titles = _load_titles(config, language)
        documents = _load_documents(config, language)
        orphan_ids = graph.orphans(snapshot)
        stats = candidates_mod.CandidateStats()
        per_orphan: dict[int, list[candidates_mod.CandidateLink]] = {}
        for orphan in sorted(orphan_ids):
            found: list[candidates_mod.CandidateLink] = []
            if documents:
                title = titles.get(orphan)
                if title is None:
                    raise DataError(
                        f"{_titles_path(config, language)}: no row for orphan page "
                        f"{orphan}; run the ingest stage again"
                    )
                found.extend(
                    candidates_mod.findlink_candidates(
                        orphan, title, documents, snapshot
                    )
                )
            found.extend(
                candidates_mod.crosslingual_candidates(
                    orphan, language, snapshots, index, stats=stats
                )
            )
            per_orphan[orphan] = found
        flat = [cand for found in per_orphan.values() for cand in found]
        candidates_mod.validate_candidates(flat, snapshot, orphan_ids)

        for orphan in sorted(per_orphan):
            for cand in per_orphan[orphan]:
                if cand.method == candidates_mod.FINDLINK:
                    evidence = ";".join(f"{a}-{b}" for a, b in cand.evidence)
                else:
                    evidence = ",".join(cand.evidence)
                candidate_rows.append(
                    (
                        language,
                        cand.source_page_id,
                        titles.get(cand.source_page_id, "NA"),
                        cand.target_page_id,
                        titles.get(cand.target_page_id, "NA"),
                        cand.method,
                        evidence,
                        cand.source_is_orphan,
                    )
                )

        report = candidates_mod.coverage_report(snapshot, per_orphan)
        method_cells = []
        for method in (candidates_mod.FINDLINK, candidates_mod.CROSSLINGUAL):
            coverage = report.per_method.get(method)
            method_cells.extend(
                (coverage.n_with_ge1, coverage.n_with_ge10) if coverage else (0, 0)
            )
        coverage_rows.append(
            (
                language,
                report.n_orphans,
                report.n_with_ge1,
                report.n_with_ge10,
                *method_cells,
                stats.n_no_qid,
            )
        )

    _write_report(
        config.out_dir / "candidates.tsv",
        (
            "language",
            "source_page_id",
            "source_title",
            "target_page_id",
            "target_title",
            "method",
            "evidence",
            "source_is_orphan",
        ),
        candidate_rows,
    )
    _write_report(
        config.out_dir / "coverage.tsv",
        (
            "language",
            "n_orphans",
            "n_with_ge1",
            "n_with_ge10",
            "findlink_ge1",
            "findlink_ge10",
            "crosslingual_ge1",
            "crosslingual_ge10",
            "n_no_qid",
        ),
        coverage_rows,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": cmd_ingest,
    "orphans": cmd_orphans,
    "characterize": cmd_characterize,
    "panel": cmd_panel,
    "did": cmd_did,
    "candidates": cmd_candidates,
}


def run_stage(command: str, config: RunConfig) -> None:
    if command == "all":
        for stage in STAGES:
            logger.info("stage: %s", stage)
            _COMMANDS[stage](config)
        return
    _COMMANDS[command](config)


def _build_parser() -> argparse.ArgumentParser:
    # Every setting flag stores text; build_config parses it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--data", dest="data_root", help="data root directory")
    common.add_argument("--out", help=f"output directory (default {RunConfig.out_dir})")
    common.add_argument(
        "--languages", help="comma-separated allowlist; empty string selects none"
    )
    common.add_argument("--months", help="month or inclusive range, e.g. 2022-11:2022-12")
    common.add_argument(
        "--strict",
        action="store_const",
        const="1",
        help="abort on malformed input rows",
    )
    common.add_argument("--window", help="months on each side of treatment")
    common.add_argument("--min-pairs")
    common.add_argument("--lowess-fraction", help="smoother bandwidth")

    parser = argparse.ArgumentParser(
        prog="oatlas",
        description="Build link snapshots from wiki dumps and run the orphan analyses.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ingest": "parse dumps into snapshot containers and the qid map",
        "orphans": "per-wiki orphan and dead-end rates plus the size trend",
        "characterize": "orphan feature representation scores",
        "panel": "match treated articles to controls and lay out the panel",
        "did": "difference-in-differences estimates from the panel",
        "candidates": "incoming-link suggestions for orphans",
        "all": "run every stage in order",
    }
    for name in (*STAGES, "all"):
        subparsers.add_parser(name, parents=[common], help=descriptions[name])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        config = build_config(args, os.environ)
        run_stage(args.command, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (
        DataError,
        OSError,
        ingest.SqlDumpError,
        ingest.TsvFormatError,
        ingest.DuplicateKeyError,
        ingest.InvalidRecordError,
        graph.SnapshotFormatError,
        graph.SnapshotIntegrityError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (
        ModelError,
        causal.DegeneratePanelError,
        causal.RankDeficientError,
    ) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
