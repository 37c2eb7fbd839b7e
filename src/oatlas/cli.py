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
import functools
import io
import itertools
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

# OpenBLAS reads this once, when numpy loads it.  A DiD design has about
# a dozen columns, too few for a second BLAS thread to help; the threads
# spin while they wait, which costs CPU and, with the cores busy, time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# Each stage imports the modules it runs, candidates, causal and
# characterize, itself: at start-up they would cost every other stage.
from . import DEFAULT_MIN_PAIRS, DEFAULT_WINDOW, graph, ingest  # noqa: E402
from .months import MonthFormatError, month_add, month_index, month_range  # noqa: E402

if TYPE_CHECKING:
    from . import candidates as candidates_mod
    from . import causal

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


# What the readers raise on an input they cannot use: _input names its file.
_CONTENT_ERRORS = (
    ingest.SqlDumpError,
    ingest.TsvFormatError,
    ingest.InvalidRecordError,
    ingest.DuplicateKeyError,
    MonthFormatError,
    graph.SnapshotFormatError,
    graph.SnapshotIntegrityError,
)


@contextlib.contextmanager
def _input(path: Path, mode: str = "r", hint: str = "") -> Iterator[IO]:
    """Open a stage input to read, as UTF-8 text or, with mode ``"rb"``,
    as bytes.

    A missing file, text that is not UTF-8 and content a reader rejects
    become a :class:`DataError` naming the file; ``hint`` follows the
    "not found".
    """
    if not path.is_file():
        raise DataError(f"{path} not found{hint}")
    with path.open(mode, encoding=None if "b" in mode else "utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except _CONTENT_ERRORS as exc:
            raise DataError(f"{path}: {exc}") from exc


_AFTER_INGEST = "; run the ingest stage first"


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
    window: int = DEFAULT_WINDOW
    min_pairs: int = DEFAULT_MIN_PAIRS
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    values: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
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


# Rows formatted at a time by _write_report; more rows per block raise
# the peak RSS of a stage without making it faster.
_REPORT_BLOCK_ROWS = 1024


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


def _format_column(values: Sequence[object]) -> Sequence[str]:
    """:func:`_fmt` of every value, one conversion for a column of one type."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return values
    if kinds == {int}:
        return list(map(str, values))
    if kinds == {float}:
        return ["NA" if value != value else repr(value) for value in values]
    return list(map(_fmt, values))


def _write_report(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Iterable[str] = (),
) -> None:
    """Write a ``#`` header line, one ``#`` line per note, then the rows.

    The rows are formatted a block at a time, column by column.
    """

    def blocks() -> Iterator[list[Sequence[object]]]:
        rest = iter(rows)
        while block := list(itertools.islice(rest, _REPORT_BLOCK_ROWS)):
            yield list(zip(*block))

    _write_columns(path, header, blocks(), notes)


def _write_columns(
    path: Path,
    header: Sequence[str],
    blocks: Iterable[Sequence[Sequence[object]]],
    notes: Iterable[str] = (),
) -> None:
    """:func:`_write_report` of rows given as blocks of columns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with ingest.atomic_file(path) as handle:
        lines = ["# " + "\t".join(header), *(f"# {note}" for note in notes)]
        handle.write(("\n".join(lines) + "\n").encode("utf-8"))
        for block in blocks:
            columns = [_format_column(column) for column in block]
            lines = map("\t".join, zip(*columns))
            handle.write(("\n".join(lines) + "\n").encode("utf-8"))


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with ingest.atomic_file(path) as handle:
        handle.write(text.encode("utf-8"))


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


def _load_snapshots(
    config: RunConfig,
    month: str,
    full: dict[tuple[str, str], graph.LinkSnapshot] | None = None,
) -> dict[str, graph.LinkSnapshot]:
    """The month's snapshot of each language, of the allowed ones if set.

    A container must hold the language and month its path names; that is
    checked before a delta's base is read.  ``full``, if given, holds the
    snapshots of full containers read before, by language and month, and
    the full containers read here are added to it: a delta takes its base
    from there, or else reads it from beside it and frees it once applied.
    """
    snapshots_dir = config.out_dir / "snapshots"
    if not snapshots_dir.is_dir():
        raise DataError(f"{snapshots_dir} not found{_AFTER_INGEST}")
    loaded: dict[str, graph.LinkSnapshot] = {}
    found = snapshots_dir.glob(f"*/{month}.oatl")
    for language in sorted(path.parent.name for path in found):
        if config.languages is not None and language not in config.languages:
            continue
        path = _snapshot_path(config, language, month)
        with _input(path, "rb") as handle:
            container = graph.Container.read(handle)
            if (container.language, container.month) != (language, month):
                raise DataError(
                    f"{path}: holds {container.language}/{container.month}, "
                    f"not {language}/{month}"
                )
            base_month = container.base_month
            base = (full or {}).get((language, base_month))
            if base is None and base_month is not None:
                snapshot = container.snapshot(
                    graph.LinkSnapshot.load_base(path, base_month)
                )
            else:
                snapshot = container.snapshot(base)
        if full is not None and base_month is None:
            full[language, month] = snapshot
        loaded[language] = snapshot
    if not loaded:
        allowed = "" if config.languages is None else f" of {list(config.languages)}"
        raise DataError(f"no snapshots{allowed} for {month} under {snapshots_dir}")
    return loaded


def _load_qid_index(config: RunConfig) -> ingest.QidIndex:
    # ingest wrote the file from a checked index: only its pages are read.
    index = ingest.QidIndex()
    with _input(config.out_dir / "qidmap.tsv", hint=_AFTER_INGEST) as lines:
        columns = (str, str, ingest.optional(ingest.positive_id), str)
        for qids, languages, page_ids, _ in ingest.read_tsv(lines, columns):
            for qid, language, page_id in zip(qids, languages, page_ids):
                if page_id is not None:
                    index.attach_page(qid, language, page_id)
    return index


def _titles_path(config: RunConfig, language: str) -> Path:
    return config.out_dir / "titles" / f"{language}.tsv"


def _load_titles(config: RunConfig, language: str) -> dict[int, str]:
    titles: dict[int, str] = {}
    with _input(_titles_path(config, language), hint=_AFTER_INGEST) as lines:
        for page_ids, names in ingest.read_tsv(lines, (int, ingest.nonempty)):
            titles.update(zip(page_ids, names))
    return titles


def _load_pageview_table(config: RunConfig) -> ingest.PageviewTable:
    with _input(config.data_root / "pageviews.tsv") as lines:
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


class _IngestPlan(NamedTuple):
    """One language's share of the ingest stage."""

    language: str
    months: list[str]  # the months whose three dumps all exist, in order
    skipped: dict[str, dict]  # the manifest note of each month skipped
    error: DataError | None  # strict mode's missing-dump error, raised last


def _plan_language(config: RunConfig, language: str) -> _IngestPlan:
    """Find ``language``'s months with a missing dump.

    Lenient mode logs and skips each of them.  Strict mode stops at the
    first; its error is raised once the months before it are ingested.
    """
    plan = _IngestPlan(language, [], {}, None)
    for month in config.months:
        month_dir = config.data_root / language / month
        missing = [name for name in DUMP_FILES if not (month_dir / name).is_file()]
        if not missing:
            plan.months.append(month)
            continue
        message = f"missing {', '.join(missing)}"
        if config.strict:
            return plan._replace(error=DataError(f"{language}/{month}: {message}"))
        logger.warning("skipping %s/%s: %s", language, month, message)
        plan.skipped[month] = {"skipped": message}
    return plan


def _ingest_language(
    config: RunConfig, language: str, months: Sequence[str]
) -> tuple[dict[str, dict], dict[str, int]]:
    """Parse and persist one language's ``months``, whose dumps all exist.

    Returns the manifest note of each month and the first month's title
    index, used for sitelink attachment.  Each month is saved by
    :func:`_save_month` against the last one saved whole, the first month
    to begin with; a later month's note names that base month and the
    edges removed from it and added.  Runs in an ingest worker, so it
    reads and writes only this language's files.
    """
    notes: dict[str, dict] = {}
    id_by_title: dict[str, int] = {}
    titles = ingest.Titles()  # one code per title across the months
    base = None  # the last month saved whole
    for month in months:
        month_dir = config.data_root / language / month
        parse_stats = {name: ingest.ParseStats() for name in DUMP_FILES}

        def load(name: str, loader: Callable, *args: object) -> object:
            stats = parse_stats[name]
            with _input(month_dir / name, "rb") as handle:
                blocks = ingest.read_sql_columns(
                    handle, titles, strict=config.strict, stats=stats
                )
                return loader(blocks, *args, strict=config.strict, stats=stats)

        pages = load("page.sql", ingest.PageTable.from_blocks, titles)
        redirects = load("redirect.sql", ingest.RedirectTable.from_blocks, pages)
        links = load("pagelinks.sql", ingest.LinkTable.from_blocks, titles)
        build_stats = graph.BuildStats()
        snapshot = graph.build_snapshot(
            pages, redirects, links, language=language, month=month, stats=build_stats
        )
        path = _snapshot_path(config, language, month)
        path.parent.mkdir(parents=True, exist_ok=True)
        churn, as_delta = _save_month(snapshot, path, base)

        notes[month] = {
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
        if churn is not None:
            removed, added = churn
            notes[month].update(
                base_month=base.month, edges_removed=removed, edges_added=added
            )
        if not as_delta:
            base = snapshot
        if month == months[0]:
            page_titles = pages.title_list()
            id_by_title = dict(zip(page_titles, pages.page_ids.tolist()))
            rows = [
                (page_id, title)
                for page_id, title, redirect in zip(
                    pages.page_ids.tolist(), page_titles, pages.is_redirect.tolist()
                )
                if not redirect
            ]
            _write_report(_titles_path(config, language), ("page_id", "title"), rows)
    return notes, id_by_title


class _Grown(Exception):
    """A container written through :class:`_Capped` passed its cap."""


class _Capped:
    """A sink that passes writes on to ``handle`` until they come to more
    than ``cap`` bytes, and then raises :class:`_Grown`."""

    def __init__(self, handle: IO[bytes], cap: int):
        self._handle, self._room = handle, cap

    def write(self, data: bytes) -> None:
        self._room -= len(data)
        if self._room < 0:
            raise _Grown
        self._handle.write(data)


def _save_month(
    snapshot: graph.LinkSnapshot, path: Path, base: graph.LinkSnapshot | None
) -> tuple[tuple[int, int] | None, bool]:
    """Save a month's snapshot at ``path``, and return the numbers of
    edges that it removes from ``base`` and adds to it (None without a
    base) and whether it is stored as a delta against ``base``.

    It is a delta where that takes fewer bytes than the full container
    and ``path`` does not hold a full container already: a delta that an
    earlier run wrote for a later month may be stored against that one.
    The delta is encoded first, and the full container is written only
    until it takes more bytes than the delta: a container's bytes only
    grow as it is written, so from there on the delta is the smaller.
    """
    if base is None:
        snapshot.save(path)
        return None, False
    delta = io.BytesIO()
    churn = snapshot.save(delta, base)
    if graph.holds_full_container(path):
        snapshot.save(path)
        return churn, False
    try:
        with ingest.atomic_file(path) as handle:
            snapshot.save(_Capped(handle, delta.tell()))
        return churn, False
    except _Grown:
        with ingest.atomic_file(path) as handle:
            handle.write(delta.getbuffer())
        return churn, True


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _results_in_order(futures: list, plans: list[_IngestPlan]) -> list:
    """Each language's result, in language order.  The first failure, a
    worker's error or else the plan's missing-dump error, cancels the
    workers not yet started and is raised."""
    try:
        results = []
        for future, plan in zip(futures, plans):
            results.append(future.result())
            if plan.error is not None:
                raise plan.error
        return results
    except BaseException:
        for future in futures:
            future.cancel()
        raise


def cmd_ingest(config: RunConfig) -> None:
    """Parse every language's dumps into snapshots and titles, then
    attach the sitelinks and write ``qidmap.tsv`` and ``manifest.json``.

    Languages are independent, so each is ingested by its own worker
    process, up to the usable CPUs at a time.  The workers are forked, so
    they start with numpy and this package imported.  The parent checks
    for missing dumps first, logging in language and month order, reads
    the sitelink table while the workers run, and then takes their
    results in language order.  It raises the error the languages would
    raise one after another: the first failing language's, and the
    sitelink table's only when every language succeeded.  Every worker
    has ended when the stage returns or raises.
    """
    # Imported here: the pool's modules cost every other stage time and
    # memory at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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

    # Checked before any worker starts, so a missing table parses no dump.
    sitelinks_path = config.data_root / "sitelinks.tsv"
    if not sitelinks_path.is_file():
        raise DataError(f"{sitelinks_path} not found")
    # A language whose missing dump fails strict mode is the last one
    # that would run; the languages after it are never started.
    plans = []
    for language in languages:
        plans.append(_plan_language(config, language))
        if plans[-1].error is not None:
            break

    with ProcessPoolExecutor(
        min(len(plans), _usable_cpus()), mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [
            pool.submit(_ingest_language, config, plan.language, plan.months)
            for plan in plans
        ]
        try:
            with _input(sitelinks_path) as lines:
                index = ingest.load_sitelinks(
                    ingest.read_sitelinks_tsv(lines), strict=config.strict
                )
        finally:
            # A failing language raises here, in place of any error the
            # sitelink table raised.
            results = _results_in_order(futures, plans)

    for plan, (_, id_by_title) in zip(plans, results):
        index.attach_page_ids(plan.language, id_by_title)

    qid_rows = index.rows()
    _write_report(
        config.out_dir / "qidmap.tsv", ("qid", "language", "page_id", "title"), qid_rows
    )

    for plan, (notes, _) in zip(plans, results):
        manifest["languages"][plan.language] = {"months": {**plan.skipped, **notes}}
    manifest["sitelink_rows"] = len(qid_rows)
    manifest["qid_count"] = len(index)
    _write_json(config.out_dir / "manifest.json", manifest)
    logger.info("ingested %d languages", len(languages))


# ---------------------------------------------------------------------------
# Stage: orphans
# ---------------------------------------------------------------------------


def cmd_orphans(config: RunConfig) -> None:
    from . import characterize

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
    from . import characterize

    month = config.months[0]
    snapshots = _load_snapshots(config, month)
    with _input(config.data_root / "features.tsv") as lines:
        features = ingest.read_feature_columns(lines, snapshots.keys())

    rows = []
    for language, snapshot in sorted(snapshots.items()):
        if language not in features:
            logger.warning("no feature rows for %s; skipping", language)
            continue
        table = characterize.FeatureTable.from_columns(
            language, *features.pop(language), snapshot.article_ids
        )
        orphan_ids = snapshot.article_ids[snapshot.in_degree_array() == 0]
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
    from . import causal

    month, following = _require_month_pair(config)
    full: dict[tuple[str, str], graph.LinkSnapshot] = {}
    first = _load_snapshots(config, month, full)
    second = _load_snapshots(config, following, full)
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

    classes = ["all"] + sorted(views.referrer_classes() - {"all"})
    panel = causal.Panel.concat(
        [
            causal.assemble_panel(
                pairs,
                views,
                index,
                window=config.window,
                referrer_class=referrer_class,
            )
            for referrer_class in classes
        ]
    ).sorted_rows()
    _write_columns(
        config.out_dir / "panel.tsv",
        causal.PanelObservation._fields,
        panel.text_blocks(_REPORT_BLOCK_ROWS),
    )


# ---------------------------------------------------------------------------
# Stage: did
# ---------------------------------------------------------------------------


def _referrer_class(cell: str) -> str:
    if cell not in ingest.REFERRER_CLASSES:
        raise ValueError(f"unknown referrer class {cell!r}")
    return cell


def _read_panel(config: RunConfig) -> causal.Panel:
    from . import causal

    directions = (f"{causal.FORWARD}:", f"{causal.REVERSE}:")

    def pair_id(cell: str) -> str:
        if not cell.startswith(directions):
            raise ValueError(f"pair id {cell!r} names no direction")
        return cell

    def treated(cell: str) -> bool:
        if cell not in (causal.TREATED, causal.CONTROL):
            raise ValueError(f"unknown role {cell!r}")
        return cell == causal.TREATED

    path = config.out_dir / "panel.tsv"
    # Text columns repeat few distinct cells: check each distinct one once.
    once = functools.lru_cache(maxsize=None)
    converters = (
        once(pair_id),
        once(treated),
        str,
        once(month_index),
        ingest.int64,
        float,
        once(_referrer_class),
    )
    with _input(path, hint="; run the panel stage first") as lines:
        blocks = ingest.read_tsv(lines, converters)
        return causal.Panel.concat([causal.Panel.from_columns(*b) for b in blocks])


def _estimates_for_direction(config: RunConfig, panel: causal.Panel) -> dict:
    from . import causal

    is_all = np.array([name == "all" for name in panel.referrers], dtype=bool)
    pooled_rows = panel.take(is_all[panel.referrer])
    pooled = causal.fit_did(pooled_rows, spec="pooled")
    by_language = causal.fit_did(
        pooled_rows, spec="by_language", min_pairs=config.min_pairs
    )
    by_month = causal.fit_did(pooled_rows, spec="by_month")
    by_referrer = causal.fit_did(panel, spec="by_referrer")
    return {
        "pooled": pooled.to_dict(),
        "by_language": {lang: est.to_dict() for lang, est in by_language.items()},
        "by_month": by_month.to_dict(),
        "by_referrer": {cls: est.to_dict() for cls, est in by_referrer.items()},
    }


def cmd_did(config: RunConfig) -> None:
    from . import causal

    panel = _read_panel(config)
    estimates_path = config.out_dir / "estimates.json"
    if not len(panel):
        _write_json(
            estimates_path,
            {
                "note": "no matched pairs were available; nothing to estimate",
                "forward": {},
                "reverse": {},
            },
        )
        raise DataError("panel is empty: no matched pairs to estimate from")

    direction_of = np.array([p.partition(":")[0] for p in panel.pair_ids])
    payload: dict = {}
    for direction in (causal.FORWARD, causal.REVERSE):
        rows = np.flatnonzero((direction_of == direction)[panel.pair])
        if not len(rows):
            payload[direction] = {"note": f"no {direction} pairs"}
            continue
        try:
            payload[direction] = _estimates_for_direction(config, panel.take(rows))
        except (causal.DegeneratePanelError, causal.RankDeficientError) as exc:
            raise ModelError(f"{direction} estimation failed: {exc}") from exc
    _write_json(estimates_path, payload)


# ---------------------------------------------------------------------------
# Stage: candidates
# ---------------------------------------------------------------------------


def _json_int(value: object) -> int:
    if type(value) is not int:  # bool is an int too
        raise TypeError(f"{value!r} is not an integer")
    return value


def _load_documents(
    config: RunConfig, language: str
) -> list[candidates_mod.AnnotatedDocument]:
    from . import candidates as candidates_mod

    path = config.data_root / language / "docs.jsonl"
    if not path.is_file():
        return []
    documents = []
    # Only line ends split records: JSON leaves U+2028 unescaped in strings.
    with _input(path) as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                document = candidates_mod.AnnotatedDocument(
                    language=language,
                    page_id=_json_int(raw["page_id"]),
                    text=raw["text"],
                    existing_link_spans=tuple(
                        tuple(map(_json_int, span)) for span in raw.get("links", ())
                    ),
                )
                document.validate()
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{number}: bad document: {exc}") from exc
            documents.append(document)
    return documents


def cmd_candidates(config: RunConfig) -> None:
    from . import candidates as candidates_mod

    month = config.months[0]
    snapshots = _load_snapshots(config, month)
    index = _load_qid_index(config)

    candidate_rows = []
    coverage_rows = []
    for language in sorted(snapshots):
        snapshot = snapshots[language]
        titles = _load_titles(config, language)
        documents = _load_documents(config, language)
        orphan_ids = snapshot.article_ids[snapshot.in_degree_array() == 0]
        per_orphan: dict[int, list[candidates_mod.CandidateLink]] = {
            orphan: [] for orphan in orphan_ids.tolist()
        }
        if documents:
            for orphan in per_orphan:
                if orphan not in titles:
                    raise DataError(
                        f"{_titles_path(config, language)}: no row for orphan page "
                        f"{orphan}; run the ingest stage again"
                    )
            per_orphan = candidates_mod.findlink_by_orphan(
                {orphan: titles[orphan] for orphan in per_orphan}, documents, snapshot
            )
        stats = candidates_mod.CandidateStats()
        translated = candidates_mod.crosslingual_by_orphan(
            per_orphan, language, snapshots, index, stats=stats
        )
        for orphan, found in per_orphan.items():
            found.extend(translated[orphan])
        # per_orphan is in orphan order, and so is flat.
        flat = [cand for found in per_orphan.values() for cand in found]
        candidates_mod.validate_candidates(flat, snapshot, orphan_ids)

        for cand in flat:
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
        coverage_rows.append(report._replace(n_no_qid=stats.n_no_qid))

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
        candidates_mod.Coverage._fields,
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
