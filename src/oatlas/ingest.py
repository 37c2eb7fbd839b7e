"""Readers for the raw inputs of a link-graph build.

Three kinds of sources are understood:

* MediaWiki SQL dump files (``page.sql``, ``redirect.sql``,
  ``pagelinks.sql``) consisting of ``INSERT INTO `tbl` VALUES
  (...),(...);`` statements.  :func:`parse_sql_insert_rows` streams
  typed value tuples out of such a file without ever holding more than
  a bounded window of it in memory.  A generic tuple loop walks the
  first row of each statement one value at a time and learns its shape
  (the type of each value); runs of that shape are then decoded in
  batches by regexes compiled per shape from the same value grammar,
  and every row the batch does not take goes back to the generic loop.
* Tab-separated tables, read by :func:`read_tsv` with one converter
  per column: sitelinks (``qid, language, title``), pageviews
  (``language, page_id, month, referrer_class, views``) and per-article
  features.  :class:`SitelinkRecord` and :class:`PageviewRecord` are
  NamedTuples whose fields are their file's columns.
* The loaders (:func:`load_page_table`, :func:`load_redirects`,
  :func:`load_sitelinks`, :func:`load_pageviews`) turn streams of rows
  into indexed, validated tables used by the graph and analysis layers.

All loaders support a ``strict`` flag: strict mode aborts on the first
bad row, lenient mode skips and counts; the dump loaders count in their
file's ``ParseStats``.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .months import MonthFormatError, parse_month

logger = logging.getLogger(__name__)

REFERRER_CLASSES = ("all", "internal", "external", "unknown")
TOPIC_LABELS = ("culture", "geography", "history_society", "stem")

_CHUNK_SIZE = 1 << 18
_MAX_HEADER_BYTES = 1 << 16
_MAX_TUPLE_BYTES = 1 << 20
_MAX_RECORDED_ERRORS = 100


class SqlDumpError(ValueError):
    """A malformed statement or tuple, with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TsvFormatError(ValueError):
    """A malformed line in one of the tab-separated side tables."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"{message} (line {line_number})")
        self.line_number = line_number


class DuplicateKeyError(ValueError):
    """A duplicate key encountered while loading in strict mode."""


class InvalidRecordError(ValueError):
    """A structurally valid row whose values fail validation."""


class PageRecord(NamedTuple):
    page_id: int
    namespace: int
    title: str
    is_redirect: bool


class RawLink(NamedTuple):
    from_page_id: int
    target_namespace: int
    target_title: str


class SitelinkRecord(NamedTuple):
    """One row of ``sitelinks.tsv``; the fields are its columns."""

    qid: str
    language: str
    title: str


class PageviewRecord(NamedTuple):
    """One row of ``pageviews.tsv``; the fields are its columns."""

    language: str
    page_id: int
    month: str
    referrer_class: str
    views: int


@dataclass(frozen=True)
class FeatureRecord:
    language: str
    page_id: int
    bot_created: bool
    is_woman_biography: bool | None
    topic_probabilities: dict[str, float]
    quality_score: float
    creation_timestamp: int


@dataclass(frozen=True)
class ParseIssue:
    offset: int
    message: str


@dataclass
class ParseStats:
    """Counters of one dump file, filled in by the parser and the loader.

    ``skipped`` counts malformed tuples and the rows the loader rejects.
    ``peak_buffer_bytes`` is the high-water mark of the parser's own
    buffer; on well-formed input it depends on the chunk size and the
    longest tuple, not on the file size.
    """

    rows: int = 0
    statements: int = 0
    skipped: int = 0
    errors: list[ParseIssue] = field(default_factory=list)
    peak_buffer_bytes: int = 0

    def record_error(self, offset: int, message: str) -> None:
        self.skipped += 1
        if len(self.errors) < _MAX_RECORDED_ERRORS:
            self.errors.append(ParseIssue(offset, message))


_INSERT_HEAD_RE = re.compile(
    rb"INSERT\s+INTO\s+`?[^`\s(]+`?\s+VALUES\s*", re.IGNORECASE
)
# One complete parenthesized tuple.  Quoted strings are consumed
# atomically, so parens and commas inside them cannot end the match.
_TUPLE_RE = re.compile(rb"\((?:[^'()\\]|'(?:[^'\\]|\\.)*'|\\.)*\)")

_UNESCAPE = {
    ord("n"): b"\n",
    ord("t"): b"\t",
    ord("r"): b"\r",
    ord("0"): b"\0",
    ord("b"): b"\x08",
    ord("Z"): b"\x1a",
}


def _unescape_bytes(raw: bytes) -> bytes:
    out = bytearray()
    i = 0
    while True:
        j = raw.find(b"\\", i)
        if j < 0:
            out += raw[i:]
            return bytes(out)
        out += raw[i:j]
        c = raw[j + 1]
        out += _UNESCAPE.get(c, raw[j + 1 : j + 2])
        i = j + 2


def _decode_sql_strings(raws: Iterable[bytes]) -> list[str]:
    return [
        _unescape_bytes(raw).decode("utf-8") if b"\\" in raw else raw.decode("utf-8")
        for raw in raws
    ]


# The value grammar of both parser paths.  Each type maps to the quote
# around its value, the value's pattern and the decoder of a column of
# values.  A float needs a decimal point or an exponent, so ``1`` never
# becomes ``1.0``; it is listed before int, so that the alternation in
# ``_VALUE_RE`` tries it first.  Strings are unrolled as
# ``[^'\\]*(?:\\.[^'\\]*)*``; the per-character alternation
# ``(?:[^'\\]|\\.)*`` made the regex engine alone cost half the parse.
_VALUES = {
    float: (
        b"",
        rb"[-+]?[0-9]+(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)",
        lambda column: list(map(float, column)),
    ),
    int: (b"", rb"[-+]?[0-9]+", lambda column: list(map(int, column))),
    str: (b"'", rb"[^'\\]*(?:\\.[^'\\]*)*", _decode_sql_strings),
    type(None): (b"", b"NULL", lambda column: [None] * len(column)),
}


def _value_pattern(kind: type, group: bytes) -> bytes:
    """One value of the given type; ``group`` opens its group."""
    quote, body, _ = _VALUES[kind]
    return quote + group + body + b")" + quote


def _shape_pattern(kinds: tuple[type, ...], group: bytes) -> bytes:
    """One row of the given value types."""
    return rb"\(" + b",".join(_value_pattern(kind, group) for kind in kinds) + rb"\)"


_KINDS = tuple(_VALUES)
# One value of any type; its ``lastindex`` - 1 is the type's place in ``_KINDS``.
_VALUE_RE = re.compile(b"|".join(_value_pattern(kind, b"(") for kind in _KINDS))


class _RowShape:
    """Batch reader for rows whose values have the given types.

    ``run(buf, pos)`` matches a comma-separated run of complete rows of
    this shape; ``rows(buf, start, end)`` decodes exactly such a span.
    """

    def __init__(self, kinds: tuple[type, ...]):
        row = _shape_pattern(kinds, b"(?:")
        self.run = re.compile(row + b"(?:," + row + b")*").match
        self._findall = re.compile(_shape_pattern(kinds, b"(")).findall
        self._decoders = [_VALUES[kind][2] for kind in kinds]

    def rows(self, buf: bytes, start: int, end: int) -> list[tuple]:
        """Decode the rows in ``buf[start:end]``.

        Raises ``ValueError`` on a value in the grammar that does not
        decode: bytes that are not UTF-8, or an int too long for ``int()``.
        """
        found = self._findall(buf, start, end)
        # findall gives bare groups, not 1-tuples, for one-column rows.
        columns = zip(*found) if len(self._decoders) > 1 else (found,)
        return list(zip(*(decode(c) for decode, c in zip(self._decoders, columns))))


_row_shape = functools.lru_cache(maxsize=64)(_RowShape)


def escape_sql_string(value: str) -> str:
    """Escape a string the way dump files quote it (inverse of parsing)."""
    return (
        value.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
        .replace("\0", "\\0")
        .replace("\x1a", "\\Z")
    )


def parse_sql_insert_rows(
    stream: BinaryIO,
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
) -> Iterator[tuple]:
    """Yield typed value tuples from a SQL dump, one per inserted row.

    ``stream`` must be a binary file object.  A row is one or more
    values separated by single commas, with no whitespace.  A value is
    an int (``[-+]?[0-9]+``), a float (an int followed by a decimal
    point with digits, an exponent, or both), a quoted string (backslash
    escapes undone, decoded as UTF-8) or NULL (``None``).  Lines that
    are not INSERT statements are skipped.

    In strict mode a malformed tuple raises :class:`SqlDumpError` with
    its byte offset; otherwise the rest of that statement line is
    dropped, counted in ``stats.skipped``.

    The first row of each statement goes through the generic tuple
    loop, which walks it one value at a time and learns the row's shape:
    the type of each value.  From then on each run of complete,
    comma-separated rows of that shape in the buffer is decoded in one
    batch.  A row outside the run (another shape, a malformed tuple, a
    bad value, or a row cut by the end of the buffer) goes back to the
    generic loop, so errors, offsets and the buffer's high-water mark
    are the generic loop's.
    """
    if stats is None:
        stats = ParseStats()
    buf = b""
    base = 0  # absolute offset of buf[0]
    pos = 0
    eof = False
    rows = 0
    statements = 0
    head_match = _INSERT_HEAD_RE.match
    tuple_match = _TUPLE_RE.match
    value_match = _VALUE_RE.match
    generic_until = 0  # absolute offset before which batches are not tried

    def fill() -> bool:
        """Compact the buffer and read one more chunk.  False at EOF."""
        nonlocal buf, base, pos, eof
        stats.rows = rows
        if pos:
            base += pos
            buf = buf[pos:]
            pos = 0
        chunk = stream.read(_CHUNK_SIZE)
        if not chunk:
            eof = True
            return False
        buf += chunk
        if len(buf) > stats.peak_buffer_bytes:
            stats.peak_buffer_bytes = len(buf)
        return True

    def skip_line() -> None:
        """Advance past the next newline without buffering the line."""
        nonlocal buf, base, pos
        while True:
            idx = buf.find(b"\n", pos)
            if idx >= 0:
                pos = idx + 1
                return
            base += len(buf)
            buf = b""
            pos = 0
            if not fill():
                return

    def fail(offset: int, message: str) -> None:
        if strict:
            stats.rows = rows
            raise SqlDumpError(message, offset)
        stats.record_error(offset, message)

    while True:
        # At a line boundary.  Skip whitespace and decide what this line is.
        while pos < len(buf) and buf[pos] in (9, 10, 13, 32):
            pos += 1
        if len(buf) - pos < len(b"INSERT") and not eof:
            fill()
            continue
        if pos >= len(buf) and eof:
            stats.rows = rows
            stats.statements = statements
            return
        if buf[pos : pos + 6].upper() != b"INSERT":
            skip_line()
            continue

        m = head_match(buf, pos)
        while m is None:
            if not eof and len(buf) - pos < _MAX_HEADER_BYTES:
                nl = buf.find(b"\n", pos)
                if nl < 0 and fill():
                    m = head_match(buf, pos)
                    continue
            fail(base + pos, "INSERT statement without a VALUES list")
            skip_line()
            break
        if m is None:
            continue
        statements += 1
        pos = m.end()
        shape = None

        # Tuple loop for one statement.
        while True:
            while pos < len(buf) and buf[pos] in (9, 10, 13, 32, 44):
                pos += 1
            if pos >= len(buf):
                if fill():
                    continue
                fail(base + pos, "statement truncated at end of file")
                break
            c = buf[pos]
            if c == 59:  # ;
                pos += 1
                skip_line()
                break
            if c != 40:  # (
                fail(base + pos, f"unexpected byte {bytes((c,))!r} in VALUES list")
                skip_line()
                break
            if shape is not None and base + pos >= generic_until:
                run = shape.run(buf, pos)
                if run is not None:
                    end = run.end()
                    try:
                        batch = shape.rows(buf, pos, end)
                    except ValueError:
                        # The generic loop finds and reports the bad value.
                        generic_until = base + end
                    else:
                        rows += len(batch)
                        pos = end
                        yield from batch
                        continue
            t = tuple_match(buf, pos)
            if t is None:
                if not eof and len(buf) - pos < _MAX_TUPLE_BYTES:
                    if fill():
                        continue
                fail(base + pos, "malformed or oversized tuple")
                skip_line()
                break
            # Walk the values: after "(" or "," one value, up to the ")".
            close = t.end() - 1
            kinds = []
            at = pos
            while buf[at] in b"(," and (v := value_match(buf, at + 1, close)):
                kinds.append(_KINDS[v.lastindex - 1])
                at = v.end()
            if at != close:
                fail(base + pos, "malformed tuple")
                skip_line()
                break
            shape = _row_shape(tuple(kinds))
            try:
                (values,) = shape.rows(buf, pos, t.end())
            except ValueError as exc:
                fail(base + pos, f"bad value in tuple: {exc}")
                skip_line()
                break
            rows += 1
            pos = t.end()
            yield values


# The leading columns of each dump table that its loader reads, and the
# check on their values.  Extra columns are ignored.
_DUMP_COLUMNS = {
    # (page_id, page_namespace, page_title, page_is_redirect)
    "page": ((int, int, str, int), lambda r: r[0] > 0 and r[2] and r[3] in (0, 1)),
    # (rd_from, rd_namespace, rd_title)
    "redirect": ((int, int, str), lambda r: r[2]),
    # (pl_from, pl_namespace, pl_title, pl_from_namespace)
    "pagelinks": ((int, int, str, int), lambda r: True),
}


def _dump_rows(
    table: str, rows: Iterable[tuple], strict: bool, stats: ParseStats | None
) -> Iterator[tuple]:
    """Yield the rows whose leading columns have ``table``'s types and values.

    Strict mode raises :class:`InvalidRecordError` naming the table and
    any other row; lenient mode counts it in ``stats.skipped``.
    """
    kinds, valid = _DUMP_COLUMNS[table]
    width = len(kinds)
    for row in rows:
        if len(row) >= width and all(map(isinstance, row, kinds)) and valid(row):
            yield row
        elif strict:
            raise InvalidRecordError(f"bad {table} row {row!r}")
        elif stats is not None:
            stats.skipped += 1


@dataclass
class PageTable:
    """Namespace-0 slice of a wiki's ``page`` table, indexed both ways."""

    by_id: dict[int, PageRecord]
    id_by_title: dict[str, int]
    n_foreign_namespace: int = 0
    n_duplicates: int = 0

    def __len__(self) -> int:
        return len(self.by_id)

    def article_ids(self) -> set[int]:
        return {pid for pid, rec in self.by_id.items() if not rec.is_redirect}


def load_page_table(
    rows: Iterable[tuple], *, strict: bool = False, stats: ParseStats | None = None
) -> PageTable:
    """Index ``page`` rows ``(page_id, namespace, title, is_redirect, ...)``.

    Only namespace-0 rows are kept.  Extra columns are ignored.  A
    duplicate page id or title aborts in strict mode; in lenient mode
    the later row wins and the stale entry is removed.
    """
    table = PageTable(by_id={}, id_by_title={})
    by_id = table.by_id
    id_by_title = table.id_by_title
    for row in _dump_rows("page", rows, strict, stats):
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
class RedirectTable:
    """Single-hop redirect targets, already joined against the page table."""

    targets: dict[int, int]
    dropped_missing_target: int = 0
    dropped_bad_source: int = 0

    @property
    def n_dropped(self) -> int:
        return self.dropped_missing_target + self.dropped_bad_source

    def __len__(self) -> int:
        return len(self.targets)


def load_redirects(
    rows: Iterable[tuple],
    pages: PageTable,
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
) -> RedirectTable:
    """Join ``redirect`` rows ``(rd_from, rd_namespace, rd_title, ...)``.

    The result maps redirect page id to target page id, one hop only.
    Rows whose target is outside namespace 0 or names a missing title
    are dropped and counted, as are rows whose source is not a
    namespace-0 redirect page.
    """
    table = RedirectTable(targets={})
    for row in _dump_rows("redirect", rows, strict, stats):
        from_id, target_ns, target_title = row[0], row[1], row[2]
        source = pages.by_id.get(from_id)
        if source is None or not source.is_redirect:
            table.dropped_bad_source += 1
            continue
        if target_ns != 0:
            table.dropped_missing_target += 1
            continue
        target_id = pages.id_by_title.get(target_title)
        if target_id is None:
            table.dropped_missing_target += 1
            continue
        table.targets[from_id] = target_id
    return table


def iter_raw_links(
    rows: Iterable[tuple], *, strict: bool = False, stats: ParseStats | None = None
) -> Iterator[RawLink]:
    """Adapt ``pagelinks`` rows ``(pl_from, pl_namespace, pl_title,
    pl_from_namespace)`` into :class:`RawLink` values.

    Rows originating outside namespace 0 are dropped here; target
    namespace filtering is left to the graph builder, which counts it.
    """
    for row in _dump_rows("pagelinks", rows, strict, stats):
        if row[3] == 0:
            yield RawLink(row[0], row[1], row[2])


class QidIndex:
    """Bidirectional mapping between language-agnostic item ids and
    per-language article titles, with optional page-id attachment.

    The title side comes from the sitelinks table.  Page ids become
    available per language once :meth:`attach_page_ids` has been called
    with that language's title index.
    """

    def __init__(self) -> None:
        self._langs_by_qid: dict[str, dict[str, str]] = {}
        # language -> title -> qid
        self._qid_by_title: dict[str, dict[str, str]] = {}
        self._page_by_qid: dict[str, dict[str, int]] = {}
        self._qid_by_page: dict[tuple[str, int], str] = {}
        self.n_conflicts = 0

    def __len__(self) -> int:
        return len(self._langs_by_qid)

    def add(self, qid: str, language: str, title: str, *, strict: bool = False) -> None:
        titles = self._qid_by_title.setdefault(language, {})
        existing_qid = titles.get(title)
        per_lang = self._langs_by_qid.setdefault(qid, {})
        existing_title = per_lang.get(language)
        if (existing_qid is not None and existing_qid != qid) or (
            existing_title is not None and existing_title != title
        ):
            if strict:
                raise DuplicateKeyError(
                    f"conflicting sitelink ({qid}, {language}, {title})"
                )
            self.n_conflicts += 1  # first wins
            if not per_lang:
                del self._langs_by_qid[qid]
            return
        per_lang[language] = title
        titles[title] = qid

    def qid_for(self, language: str, title: str) -> str | None:
        return self._qid_by_title.get(language, {}).get(title)

    def qids(self) -> list[str]:
        """All known item ids, sorted."""
        return sorted(self._langs_by_qid)

    def sitelinks(self, qid: str) -> dict[str, str]:
        return dict(self._langs_by_qid.get(qid, {}))

    def attach_page_ids(self, language: str, id_by_title: dict[str, int]) -> int:
        """Resolve this language's sitelink titles to page ids.

        Returns the number of attached pages; titles absent from the
        index are skipped.
        """
        attached = 0
        for title, qid in self._qid_by_title.get(language, {}).items():
            page_id = id_by_title.get(title)
            if page_id is None:
                continue
            self._page_by_qid.setdefault(qid, {})[language] = page_id
            self._qid_by_page[(language, page_id)] = qid
            attached += 1
        return attached

    def attach_page(self, qid: str, language: str, page_id: int) -> None:
        """Directly register a qid/page pairing (fixture convenience)."""
        self._page_by_qid.setdefault(qid, {})[language] = page_id
        self._qid_by_page[(language, page_id)] = qid

    def qid_for_page(self, language: str, page_id: int) -> str | None:
        return self._qid_by_page.get((language, page_id))

    def page_for_qid(self, language: str, qid: str) -> int | None:
        return self._page_by_qid.get(qid, {}).get(language)


def read_tsv(
    lines: Iterable[str], converters: Sequence[Callable[[str], object]]
) -> Iterator[list]:
    """Yield the rows of tab-separated ``lines`` as lists of converted cells.

    Blank lines and lines starting with ``#`` are skipped.  Each row
    needs one cell per converter.  A wrong column count, or a converter
    raising ``ValueError``, raises :class:`TsvFormatError` with the line
    number.
    """
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


def optional(convert: Callable[[str], object]) -> Callable[[str], object]:
    """A converter reading ``NA`` as None and any other cell with ``convert``."""
    return lambda cell: None if cell == "NA" else convert(cell)


def _nonempty(cell: str) -> str:
    if not cell:
        raise ValueError("empty cell")
    return cell


def _flag(cell: str) -> bool:
    return bool(int(cell))


def _probability(cell: str) -> float:
    value = float(cell)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0, 1]")
    return value


def read_sitelinks_tsv(lines: Iterable[str]) -> Iterator[SitelinkRecord]:
    """Parse headerless sitelink TSV lines ``qid<TAB>language<TAB>title``."""
    return map(SitelinkRecord._make, read_tsv(lines, (_nonempty,) * 3))


def load_sitelinks(
    records: Iterable[SitelinkRecord], *, strict: bool = False
) -> QidIndex:
    """Build a :class:`QidIndex`, first row winning on lenient conflicts."""
    index = QidIndex()
    for rec in records:
        index.add(rec.qid, rec.language, rec.title, strict=strict)
    if index.n_conflicts:
        logger.warning("sitelinks: %d conflicting rows ignored", index.n_conflicts)
    return index


class PageviewTable:
    """Monthly view counts keyed by (language, page_id, month, referrer)."""

    def __init__(self) -> None:
        self._views: dict[tuple[str, int, str, str], int] = {}
        self.n_rows = 0
        self.n_skipped = 0
        self.n_duplicates = 0

    def __len__(self) -> int:
        return len(self._views)

    def views(
        self, language: str, page_id: int, month: str, referrer_class: str = "all"
    ) -> int:
        """The recorded count, or 0 when no row exists."""
        return self._views.get((language, page_id, month, referrer_class), 0)

    def has_row(
        self, language: str, page_id: int, month: str, referrer_class: str = "all"
    ) -> bool:
        return (language, page_id, month, referrer_class) in self._views

    def referrer_classes(self) -> set[str]:
        return {key[3] for key in self._views}

    def add(self, record: PageviewRecord, *, strict: bool = False) -> None:
        key = (record.language, record.page_id, record.month, record.referrer_class)
        if key in self._views:
            if strict:
                raise DuplicateKeyError(f"duplicate pageview row for {key}")
            self.n_duplicates += 1
            return
        self._views[key] = record.views
        self.n_rows += 1


def read_pageviews_tsv(lines: Iterable[str]) -> Iterator[PageviewRecord]:
    """Parse headerless pageview TSV lines."""
    return map(PageviewRecord._make, read_tsv(lines, (str, int, str, str, int)))


def load_pageviews(
    records: Iterable[PageviewRecord], *, strict: bool = False
) -> PageviewTable:
    """Validate pageview records into a :class:`PageviewTable`.

    Bad rows (negative views, unknown referrer class, malformed month)
    raise in strict mode and are skipped-and-counted otherwise.
    Duplicate keys are rejected the same way.
    """
    table = PageviewTable()
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
        except (InvalidRecordError, MonthFormatError):
            if strict:
                raise
            table.n_skipped += 1
            continue
        table.add(rec, strict=strict)
    return table


_FEATURE_COLUMNS = (str, int, _flag, optional(_flag), *(_probability,) * 5, int)


def read_features_tsv(lines: Iterable[str]) -> Iterator[FeatureRecord]:
    """Parse headerless per-article feature TSV lines.

    Columns: language, page_id, bot_created, is_woman_biography (``NA``
    for non-biographies), p_culture, p_geography, p_history_society,
    p_stem, quality_score, creation_timestamp.
    """
    for language, page_id, bot, woman, *topics, quality, created in read_tsv(
        lines, _FEATURE_COLUMNS
    ):
        yield FeatureRecord(
            language=language,
            page_id=page_id,
            bot_created=bot,
            is_woman_biography=woman,
            topic_probabilities=dict(zip(TOPIC_LABELS, topics)),
            quality_score=quality,
            creation_timestamp=created,
        )
