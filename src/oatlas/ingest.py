"""Readers for the raw inputs of a link-graph build.

Three kinds of sources are understood:

* MediaWiki SQL dump files (``page.sql``, ``redirect.sql``,
  ``pagelinks.sql``) consisting of ``INSERT INTO `tbl` VALUES
  (...),(...);`` statements.  :func:`read_sql_columns` streams blocks
  of value columns out of such a file without ever holding more than a
  bounded window of it in memory.  A generic tuple loop walks the first
  row of each statement one value at a time and learns its shape (the
  type of each value); runs of that shape are then decoded in batches
  by regexes compiled per shape from the same value grammar, and every
  row the batch does not take goes back to the generic loop.  Strings
  become codes in a :class:`Titles`, which one language's dumps share,
  so each distinct title is unescaped and decoded once.
  :func:`parse_sql_insert_rows` is the same reader as one tuple per row.
* Tab-separated tables, read by :func:`read_tsv` with one converter
  per column, in blocks of columns of up to ``_TSV_BLOCK_LINES`` lines:
  sitelinks (``qid, language, title``), pageviews (``language, page_id,
  month, referrer_class, views``) and per-article features, which
  :func:`read_feature_columns` keeps as :class:`FeatureColumns` per
  language.  :class:`PageviewRecord` is a NamedTuple whose fields are
  its file's columns.
* The loaders turn those blocks into indexed, validated tables used by
  the graph and analysis layers.  :class:`PageTable`,
  :class:`RedirectTable` and :class:`LinkTable` hold int64 columns,
  with titles as codes; each checks a block's types once per shape and
  its values with masks (``_DUMP_COLUMNS``).  :func:`load_page_table`,
  :func:`load_redirects` and :func:`iter_raw_links` take the same rows
  one tuple each.  :class:`PageviewTable` is one sorted int64 key per
  row next to the view counts; it is built from the column blocks with
  array masks and answers lookups by binary search, one or many keys at
  a time.  :func:`load_sitelinks` builds the :class:`QidIndex`.

:func:`atomic_file` is how every output file is written: through a temp
file that replaces the target only once it is complete.

All loaders support a ``strict`` flag: strict mode aborts on the first
bad row, lenient mode skips and counts; the dump loaders count in their
file's ``ParseStats``.  The lenient parser skips a malformed tuple and
keeps the rows after it, unless the tuple's end cannot be found.
"""

from __future__ import annotations

import array
import contextlib
import functools
import itertools
import logging
import os
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .months import MonthFormatError, month_at, month_index, parse_month

logger = logging.getLogger(__name__)

REFERRER_CLASSES = ("all", "internal", "external", "unknown")
TOPIC_LABELS = ("culture", "geography", "history_society", "stem")

_CHUNK_SIZE = 1 << 18
_MAX_HEADER_BYTES = 1 << 16
_MAX_TUPLE_BYTES = 1 << 20
_MAX_RECORDED_ERRORS = 100
# Lines per block of read_tsv.  Per-block work is small next to the
# per-row work from a few hundred lines on; 4,096 lines raised a stage's
# peak RSS by up to 2 MB over reading row by row, 1,024 by under 1 MB.
_TSV_BLOCK_LINES = 1024


class SqlDumpError(ValueError):
    """A malformed statement or tuple, with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        # Rebuild from the constructor's arguments, so the error pickles
        # (an ingest worker raises it in the parent process).
        return type(self), (self.message, self.offset)


class TsvFormatError(ValueError):
    """A malformed line in one of the tab-separated side tables."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"{message} (line {line_number})")
        self.message = message
        self.line_number = line_number

    def __reduce__(self):
        return type(self), (self.message, self.line_number)


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


class Titles:
    """The distinct strings of one language's dumps, each decoded once.

    A string's code is its place in ``strings``; code 0 is the empty
    string.  :meth:`codes` takes quoted dump values as raw bytes and
    unescapes and decodes each distinct one once; :meth:`encode` takes
    strings.  Two escapings of one string, such as ``\\"A\\"`` and
    ``"A"``, get one code.
    """

    def __init__(self) -> None:
        self.strings: list[str] = [""]
        self._by_string: dict[str, int] = {"": 0}
        self._by_raw: dict[bytes, int] = {b"": 0}

    def __len__(self) -> int:
        return len(self.strings)

    def encode(self, strings: Sequence[str]) -> list[int]:
        by_string = self._by_string
        for string in sorted(set(strings).difference(by_string)):
            by_string[string] = len(self.strings)
            self.strings.append(string)
        return list(map(by_string.__getitem__, strings))

    def codes(self, raws: Sequence[bytes]) -> list[int]:
        """The codes of raw quoted values; ``ValueError`` if one is not UTF-8."""
        by_raw = self._by_raw
        new = sorted(set(raws).difference(by_raw))
        decoded = [
            (_unescape_bytes(raw) if b"\\" in raw else raw).decode("utf-8")
            for raw in new
        ]
        by_raw.update(zip(new, self.encode(decoded)))
        return list(map(by_raw.__getitem__, raws))


# The value grammar of both parser paths.  Each type maps to the quote
# around its value, the value's pattern and the decoder of a column of
# values, which takes the :class:`Titles` that strings are coded in.  A
# float needs a decimal point or an exponent, so ``1`` never becomes
# ``1.0``; it is listed before int, so that the alternation in
# ``_VALUE_RE`` tries it first.  Strings are unrolled as
# ``[^'\\]*(?:\\.[^'\\]*)*``; the per-character alternation
# ``(?:[^'\\]|\\.)*`` made the regex engine alone cost half the parse.
_VALUES = {
    float: (
        b"",
        rb"[-+]?[0-9]+(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)",
        lambda _, column: list(map(float, column)),
    ),
    int: (b"", rb"[-+]?[0-9]+", lambda _, column: list(map(int, column))),
    str: (b"'", rb"[^'\\]*(?:\\.[^'\\]*)*", Titles.codes),
    type(None): (b"", b"NULL", lambda _, column: [None] * len(column)),
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
    """Batch reader for rows whose values have the types ``kinds``.

    ``run(buf, pos)`` matches a comma-separated run of complete rows of
    this shape; ``columns(buf, start, end, titles)`` decodes exactly such
    a span.
    """

    def __init__(self, kinds: tuple[type, ...]):
        self.kinds = kinds
        row = _shape_pattern(kinds, b"(?:")
        self.run = re.compile(row + b"(?:," + row + b")*").match
        self._findall = re.compile(_shape_pattern(kinds, b"(")).findall
        self._decoders = [_VALUES[kind][2] for kind in kinds]

    def columns(self, buf: bytes, start: int, end: int, titles: Titles) -> list[list]:
        """Decode the rows in ``buf[start:end]`` into one list per column,
        strings as their codes in ``titles``.

        Raises ``ValueError`` on a value in the grammar that does not
        decode: bytes that are not UTF-8, or an int too long for ``int()``.
        """
        found = self._findall(buf, start, end)
        # findall gives bare groups, not 1-tuples, for one-column rows.
        columns = zip(*found) if len(self._decoders) > 1 else (found,)
        return [decode(titles, c) for decode, c in zip(self._decoders, columns)]


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

    The tuple view of :func:`read_sql_columns`, with the same grammar,
    errors and counters: strings are decoded, ints are Python ints of
    any size.
    """
    titles = Titles()
    string = titles.strings.__getitem__
    for kinds, columns in read_sql_columns(stream, titles, strict=strict, stats=stats):
        yield from zip(
            *(
                list(map(string, column)) if kind is str else column
                for kind, column in zip(kinds, columns)
            )
        )


def read_sql_columns(
    stream: BinaryIO,
    titles: Titles,
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
) -> Iterator[tuple[tuple[type, ...], list[list]]]:
    """Yield the inserted rows of a SQL dump in blocks of columns.

    A block is ``(kinds, columns)``: the type of each value, the same in
    every row of the block, and one list per column.  Strings are their
    codes in ``titles``, so each distinct string in the dump is decoded
    once; ints are Python ints of any size.

    ``stream`` must be a binary file object.  Rows are separated by
    single commas, with whitespace allowed around them.  A row is one or
    more values separated by single commas, with no whitespace.  A value
    is an int (``[-+]?[0-9]+``), a float (an int followed by a decimal
    point with digits, an exponent, or both), a quoted string (backslash
    escapes undone, decoded as UTF-8) or NULL (``None``).  Lines that
    are not INSERT statements are skipped.

    In strict mode a malformed tuple raises :class:`SqlDumpError` with
    its byte offset; otherwise it is counted in ``stats.skipped`` and the
    rows after it are kept.  Only where the tuple's end is unknown (an
    unclosed quote, an oversized tuple) or the VALUES list is broken is
    the rest of the statement line dropped.

    The first row of each statement goes through the generic tuple
    loop, which walks it one value at a time, learns the row's shape
    (the type of each value) and yields it as a block of one row.  From
    then on each run of complete, comma-separated rows of that shape in
    the buffer is decoded and yielded as one block.  A row outside the
    run (another shape, a malformed tuple, a bad value, or a row cut by
    the end of the buffer) goes back to the generic loop, so errors,
    offsets and the buffer's high-water mark are the generic loop's.
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
        # After a row or run, one comma leads to the next row and ";" ends
        # the statement; anywhere else only a row may come next.
        after_row = False

        # Tuple loop for one statement.
        while True:
            while pos < len(buf) and buf[pos] in (9, 10, 13, 32):
                pos += 1
            if pos >= len(buf):
                if fill():
                    continue
                fail(base + pos, "statement truncated at end of file")
                break
            c = buf[pos]
            if c == 59 and after_row:  # ;
                pos += 1
                skip_line()
                break
            if c == 44 and after_row:  # ,
                pos += 1
                after_row = False
                continue
            if c != 40 or after_row:  # (
                fail(base + pos, f"unexpected byte {bytes((c,))!r} in VALUES list")
                skip_line()
                break
            if shape is not None and base + pos >= generic_until:
                run = shape.run(buf, pos)
                if run is not None:
                    end = run.end()
                    try:
                        batch = shape.columns(buf, pos, end, titles)
                    except ValueError:
                        # The generic loop finds and reports the bad value.
                        generic_until = base + end
                    else:
                        rows += len(batch[0])
                        pos = end
                        after_row = True
                        yield shape.kinds, batch
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
            # A bad tuple whose end is known is skipped like a row.
            close = t.end() - 1
            kinds = []
            at = pos
            while buf[at] in b"(," and (v := value_match(buf, at + 1, close)):
                kinds.append(_KINDS[v.lastindex - 1])
                at = v.end()
            values = None
            if at != close:
                fail(base + pos, "malformed tuple")
            else:
                shape = _row_shape(tuple(kinds))
                try:
                    values = shape.columns(buf, pos, t.end(), titles)
                except ValueError as exc:
                    fail(base + pos, f"bad value in tuple: {exc}")
            pos = t.end()
            after_row = True
            if values is not None:
                rows += 1
                yield shape.kinds, values


# The leading columns of each dump table that its loader reads, and the
# mask of the rows whose values are good, over those columns as int64
# arrays with each title as its code (0 for the empty title).  Extra
# columns are ignored.
_DUMP_COLUMNS = {
    # (page_id, page_namespace, page_title, page_is_redirect)
    "page": (
        (int, int, str, int),
        lambda c: (c[0] > 0) & (c[2] != 0) & ((c[3] == 0) | (c[3] == 1)),
    ),
    # (rd_from, rd_namespace, rd_title)
    "redirect": ((int, int, str), lambda c: c[2] != 0),
    # (pl_from, pl_namespace, pl_title, pl_from_namespace)
    "pagelinks": ((int, int, str, int), lambda c: np.ones(len(c[0]), dtype=bool)),
}
# Rows gathered as Python lists before they become arrays.  Blocks are
# short where a dump's row shapes alternate (a NULL in a column the
# loader ignores starts a new shape), so arrays are made per gathering,
# not per block: enough rows to make the per-array cost small, few
# enough to keep the lists small.
_GATHER_ROWS = 8192
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63

Block = tuple[tuple[type, ...], list[list]]


def _int64_arrays(columns: list[list]) -> tuple[list[np.ndarray], np.ndarray]:
    """Columns of Python ints as int64 arrays, and the mask of the rows
    whose ints all fit (the others hold 0 in the arrays)."""
    fits = np.ones(len(columns[0]), dtype=bool)
    arrays = []
    for column in columns:
        try:
            arrays.append(np.array(column, dtype=np.int64))
        except OverflowError:
            inside = [_INT64_MIN <= value < _INT64_END for value in column]
            fits &= inside
            column = [value if ok else 0 for value, ok in zip(column, inside)]
            arrays.append(np.array(column, dtype=np.int64))
    return arrays, fits


def _row(
    kinds: Sequence[type], columns: Sequence[Sequence], i: int, titles: Titles
) -> tuple:
    """Row ``i`` of a block, its strings decoded."""
    strings = titles.strings
    return tuple(
        strings[column[i]] if kind is str else column[i]
        for kind, column in zip(kinds, columns)
    )


def _dump_columns(
    table: str,
    blocks: Iterable[Block],
    titles: Titles,
    strict: bool,
    stats: ParseStats | None,
) -> tuple[list[np.ndarray], Exception | None]:
    """The leading columns of ``table``'s good rows, as int64 arrays.

    Each block's types are checked once per shape, and its values by
    the table's mask and the int64 range.  Lenient mode counts every
    other row in ``stats.skipped``.  Strict mode stops at the first bad
    row, or at the parser's first error, and returns the rows before it
    with the :class:`InvalidRecordError` or :class:`SqlDumpError` to
    raise once the caller has checked those rows.
    """
    if stats is None:
        stats = ParseStats()
    kinds, good_rows = _DUMP_COLUMNS[table]
    width = len(kinds)
    fitting: dict[tuple, bool] = {}
    gathered: list[list] = [[] for _ in kinds]
    chunks = [[_EMPTY] * width]

    def flush() -> InvalidRecordError | None:
        arrays, good = _int64_arrays(gathered)
        good &= good_rows(arrays)
        (bad,) = np.nonzero(~good)
        error = None
        if strict and len(bad):
            row = _row(kinds, gathered, bad[0], titles)
            error = InvalidRecordError(f"bad {table} row {row!r}")
            good[bad[0] :] = False
        else:
            stats.skipped += len(bad)
        chunks.append([array[good] for array in arrays])
        for column in gathered:
            column.clear()
        return error

    error = None
    try:
        for shape, columns in blocks:
            fits = fitting.get(shape)
            if fits is None:
                fits = fitting[shape] = shape[:width] == kinds
            if fits:
                for column, values in zip(gathered, columns):
                    column += values
                if len(gathered[0]) >= _GATHER_ROWS and (error := flush()):
                    break
            elif strict:
                row = _row(shape, columns, 0, titles)
                error = InvalidRecordError(f"bad {table} row {row!r}")
                break
            else:
                stats.skipped += len(columns[0])
    except SqlDumpError as exc:  # raised only in strict mode
        error = exc
    # A bad row before the error goes first.
    error = flush() or error
    return [np.concatenate(chunk) for chunk in zip(*chunks)], error


def _row_blocks(rows: Iterable[tuple], titles: Titles) -> Iterator[Block]:
    """Rows as blocks of columns: one per run of rows of one length whose
    columns each hold one type, else one per row."""
    for _, run in itertools.groupby(rows, len):
        columns = list(zip(*run))
        kinds = [set(map(type, column)) for column in columns]
        if all(len(kind) == 1 for kind in kinds):
            yield _coded(tuple(kind.pop() for kind in kinds), columns, titles)
        else:
            for row in zip(*columns):
                yield _coded(tuple(map(type, row)), [(value,) for value in row], titles)


def _coded(kinds: tuple[type, ...], columns: list[tuple], titles: Titles) -> Block:
    return kinds, [
        titles.encode(column) if kind is str else list(column)
        for kind, column in zip(kinds, columns)
    ]


def _take(values: np.ndarray, rows: np.ndarray, missing: object) -> np.ndarray:
    """``values[rows]``, with ``missing`` where a row is -1."""
    return np.append(values, missing)[rows]


def _positions(sorted_keys: np.ndarray, keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """The place of each key in ``sorted_keys``, which ascend, or -1."""
    keys = np.asarray(keys, dtype=np.int64)
    if not len(sorted_keys):
        return np.full(len(keys), -1)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[at] == keys, at, -1)


def _last_per_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct keys, ascending, each with the value of its last row."""
    # Reversed, so that a stable sort puts each key's last row first.
    order = np.argsort(keys[::-1], kind="stable")
    keys, values = keys[::-1][order], values[::-1][order]
    first = np.diff(keys, prepend=keys[:1] - 1) != 0
    return keys[first], values[first]


def _next_equal(keys: np.ndarray) -> np.ndarray:
    """For each row, the next row holding the same key, or ``len(keys)``."""
    order = np.argsort(keys, kind="stable")
    following = np.full(len(keys), len(keys))
    same = keys[order[1:]] == keys[order[:-1]]
    following[order[:-1][same]] = order[1:][same]
    return following


@dataclass(eq=False)  # arrays have no single truth value
class PageTable:
    """Namespace-0 slice of a wiki's ``page`` table, one row per page.

    Rows are sorted by page id, and titles are codes in ``titles``.
    :attr:`by_id` and :attr:`id_by_title` are dict views, built on
    first use.
    """

    titles: Titles
    page_ids: np.ndarray
    title_codes: np.ndarray
    is_redirect: np.ndarray
    n_foreign_namespace: int = 0
    n_duplicates: int = 0

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[Block],
        titles: Titles,
        *,
        strict: bool = False,
        stats: ParseStats | None = None,
    ) -> PageTable:
        """Index ``page`` rows ``(page_id, namespace, title, is_redirect, ...)``.

        Only namespace-0 rows are kept.  A page id or title seen before
        aborts in strict mode; in lenient mode the later row wins, and
        the row that held the id or the title before is removed.
        """
        columns, error = _dump_columns("page", blocks, titles, strict, stats)
        page_id, namespace, code, redirect = columns
        main = namespace == 0
        page_id, code, redirect = page_id[main], code[main], redirect[main]
        # A row lives until the next row with its id or its title.  Each
        # row that ends one or more rows counts as one duplicate.
        n = len(page_id)
        ended_by = np.minimum(_next_equal(page_id), _next_equal(code))
        duplicates = np.flatnonzero(np.bincount(ended_by, minlength=n + 1)[:n])
        if strict and len(duplicates):
            i = duplicates[0]
            row = (int(page_id[i]), 0, titles.strings[code[i]], int(redirect[i]))
            raise DuplicateKeyError(f"duplicate page row {row!r}")
        if error is not None:
            raise error
        live = ended_by == n
        order = np.argsort(page_id[live])
        return cls(
            titles,
            page_id[live][order],
            code[live][order],
            redirect[live][order] == 1,
            n_foreign_namespace=int(np.count_nonzero(~main)),
            n_duplicates=len(duplicates),
        )

    def __len__(self) -> int:
        return len(self.page_ids)

    def title_list(self) -> list[str]:
        """Each row's title."""
        return list(map(self.titles.strings.__getitem__, self.title_codes.tolist()))

    @functools.cached_property
    def by_id(self) -> dict[int, PageRecord]:
        rows = zip(self.page_ids.tolist(), self.title_list(), self.is_redirect.tolist())
        return {page_id: PageRecord(page_id, 0, *rest) for page_id, *rest in rows}

    @functools.cached_property
    def id_by_title(self) -> dict[str, int]:
        return dict(zip(self.title_list(), self.page_ids.tolist()))

    def rows_of(self, page_ids: np.ndarray) -> np.ndarray:
        """The row of each page id, -1 for an id not in the table."""
        return _positions(self.page_ids, page_ids)

    def row_of_code(self) -> np.ndarray:
        """The row of the page holding each title code, -1 where none does."""
        rows = np.full(len(self.titles), -1)
        rows[self.title_codes] = np.arange(len(self.page_ids))
        return rows


def load_page_table(
    rows: Iterable[tuple], *, strict: bool = False, stats: ParseStats | None = None
) -> PageTable:
    """:meth:`PageTable.from_blocks` over rows given one tuple each."""
    titles = Titles()
    return PageTable.from_blocks(
        _row_blocks(rows, titles), titles, strict=strict, stats=stats
    )


@dataclass(eq=False)  # arrays have no single truth value
class RedirectTable:
    """Single-hop redirect targets, already joined against the page table.

    ``source_ids`` are the redirect pages' ids, sorted, and
    ``target_ids`` their targets' page ids.  :attr:`targets` is the
    dict view, built on first use.
    """

    source_ids: np.ndarray
    target_ids: np.ndarray
    dropped_missing_target: int = 0
    dropped_bad_source: int = 0

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[Block],
        pages: PageTable,
        *,
        strict: bool = False,
        stats: ParseStats | None = None,
    ) -> RedirectTable:
        """Join ``redirect`` rows ``(rd_from, rd_namespace, rd_title, ...)``.

        The result maps redirect page id to target page id, one hop only;
        the last row of a source wins.  Rows whose source is not a
        namespace-0 redirect page are dropped and counted, and then so
        are rows whose target is outside namespace 0 or names a missing
        title.
        """
        columns, error = _dump_columns("redirect", blocks, pages.titles, strict, stats)
        if error is not None:
            raise error
        source, namespace, code = columns
        bad_source = ~_take(pages.is_redirect, pages.rows_of(source), False)
        target = pages.row_of_code()[code]
        missing = ~bad_source & ((namespace != 0) | (target < 0))
        kept = ~bad_source & ~missing
        return cls(
            *_last_per_key(source[kept], pages.page_ids[target[kept]]),
            dropped_missing_target=int(np.count_nonzero(missing)),
            dropped_bad_source=int(np.count_nonzero(bad_source)),
        )

    @property
    def n_dropped(self) -> int:
        return self.dropped_missing_target + self.dropped_bad_source

    def __len__(self) -> int:
        return len(self.source_ids)

    @functools.cached_property
    def targets(self) -> dict[int, int]:
        return dict(zip(self.source_ids.tolist(), self.target_ids.tolist()))


def load_redirects(
    rows: Iterable[tuple],
    pages: PageTable,
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
) -> RedirectTable:
    """:meth:`RedirectTable.from_blocks` over rows given one tuple each."""
    return RedirectTable.from_blocks(
        _row_blocks(rows, pages.titles), pages, strict=strict, stats=stats
    )


@dataclass(eq=False)  # arrays have no single truth value
class LinkTable:
    """The ``pagelinks`` rows from namespace 0, as columns: the source
    page id, the target namespace and the target title's code."""

    from_page_id: np.ndarray
    target_namespace: np.ndarray
    target_code: np.ndarray

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[Block],
        titles: Titles,
        *,
        strict: bool = False,
        stats: ParseStats | None = None,
    ) -> LinkTable:
        """Read ``pagelinks`` rows ``(pl_from, pl_namespace, pl_title,
        pl_from_namespace)``.

        Rows originating outside namespace 0 are dropped here; target
        namespace filtering is left to the graph builder, which counts it.
        """
        columns, error = _dump_columns("pagelinks", blocks, titles, strict, stats)
        if error is not None:
            raise error
        source, namespace, code, from_namespace = columns
        main = from_namespace == 0
        return cls(source[main], namespace[main], code[main])

    @classmethod
    def from_raw_links(cls, links: Iterable[RawLink], titles: Titles) -> LinkTable:
        """The columns of :class:`RawLink` values, titles coded in ``titles``."""
        source, namespace, title = list(zip(*links)) or ((), (), ())
        return cls(
            np.array(source, dtype=np.int64),
            np.array(namespace, dtype=np.int64),
            np.array(titles.encode(title), dtype=np.int64),
        )


def iter_raw_links(
    rows: Iterable[tuple], *, strict: bool = False, stats: ParseStats | None = None
) -> Iterator[RawLink]:
    """:meth:`LinkTable.from_blocks` over rows given one tuple each, as
    :class:`RawLink` values."""
    titles = Titles()
    links = LinkTable.from_blocks(
        _row_blocks(rows, titles), titles, strict=strict, stats=stats
    )
    yield from map(
        RawLink,
        links.from_page_id.tolist(),
        links.target_namespace.tolist(),
        map(titles.strings.__getitem__, links.target_code.tolist()),
    )


class QidIndex:
    """Sitelinks from item ids to per-language titles, and attached pages.

    Items are int codes, in the order first seen.  A dict per language
    checks each sitelink title against the ones before it.  A language's
    (item, page) rows become sorted tables, page to item and item to
    page, on the next lookup; the last row of a key wins.  Lookups take
    and give arrays, -1 for none.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._qids: list[str] = []
        # language -> title -> item, and language -> the items with a title
        self._sites: defaultdict[str, dict[str, int]] = defaultdict(dict)
        self._titled: defaultdict[str, set[int]] = defaultdict(set)
        self._attached: dict[str, array.array] = {}  # language -> item, page, ...
        self._tables: dict[str, tuple[np.ndarray, ...]] = {}
        self.n_conflicts = 0

    def __len__(self) -> int:  # the items with a sitelink
        return len(set().union(*self._titled.values()))

    def add(self, qid: str, language: str, title: str, *, strict: bool = False) -> None:
        self.add_rows((qid,), (language,), (title,), strict=strict)

    def add_rows(
        self,
        qids: Iterable[str],
        languages: Iterable[str],
        titles: Iterable[str],
        *,
        strict: bool = False,
    ) -> None:
        """Add sitelink rows, in order.

        A row conflicts when its title already names another item in its
        language, or its item already has another title there.  Strict
        mode raises :class:`DuplicateKeyError` on the first conflict;
        lenient mode keeps the first sitelink and counts the row in
        :attr:`n_conflicts`.
        """
        codes = self._codes
        for qid, language, title in zip(qids, languages, titles):
            code = codes.setdefault(qid, len(codes))
            sites, titled = self._sites[language], self._titled[language]
            known = sites.get(title)
            if known is None and code not in titled:
                sites[title] = code
                titled.add(code)
            elif known != code:
                if strict:
                    raise DuplicateKeyError(
                        f"conflicting sitelink ({qid}, {language}, {title})"
                    )
                self.n_conflicts += 1  # first wins

    def qid_for(self, language: str, title: str) -> str | None:
        code = self._sites.get(language, {}).get(title)
        return None if code is None else self.qids_of(np.array([code]))[0]

    def rows(self) -> list[tuple[str, str, int | None, str]]:
        """Every sitelink as ``(qid, language, page_id, title)``, sorted by
        item id and language; the page id is None where none is attached."""
        out: list[tuple[str, str, int | None, str]] = []
        for language, sites in self._sites.items():
            items = np.fromiter(sites.values(), np.int64, len(sites))
            pages = self.pages_of(language, items).tolist()
            pages = [None if page < 0 else page for page in pages]
            out += zip(self.qids_of(items), itertools.repeat(language), pages, sites)
        out.sort()  # (qid, language) is unique, so no two rows tie
        return out

    def _attach(self, language: str, rows: Iterable[int]) -> None:
        """Append (item, page) rows, flattened, to ``language``'s."""
        if language not in self._attached:
            self._attached[language] = array.array("q")
        self._attached[language].extend(rows)
        self._tables.pop(language, None)

    def attach_page_ids(self, language: str, id_by_title: dict[str, int]) -> int:
        """Resolve this language's sitelink titles to page ids.

        Returns the number of attached pages; titles absent from the
        index are skipped.
        """
        sites = self._sites.get(language, {}).items()
        rows = [(code, id_by_title[t]) for t, code in sites if t in id_by_title]
        self._attach(language, itertools.chain.from_iterable(rows))
        return len(rows)

    def attach_page(self, qid: str, language: str, page_id: int) -> None:
        """Attach ``page_id`` to the item ``qid`` in ``language``."""
        self._attach(language, (self._codes.setdefault(qid, len(self._codes)), page_id))

    def _table(self, language: str) -> tuple[np.ndarray, ...]:
        """Sorted page ids with their items, and sorted items with their pages."""
        table = self._tables.get(language)
        if table is None:
            rows = np.frombuffer(self._attached.get(language, b""), dtype=np.int64)
            codes, pages = rows.reshape(-1, 2).T
            table = *_last_per_key(pages, codes), *_last_per_key(codes, pages)
            self._tables[language] = table
        return table

    def items_of(self, language: str, page_ids: Sequence[int]) -> np.ndarray:
        """The item code of each page, -1 for none."""
        pages, items, _, _ = self._table(language)
        return _take(items, _positions(pages, page_ids), -1)

    def pages_of(self, language: str, items: Sequence[int]) -> np.ndarray:
        """The page id of each item code, -1 for none."""
        _, _, codes, pages = self._table(language)
        return _take(pages, _positions(codes, items), -1)

    def codes_of(self, qids: Iterable[str]) -> np.ndarray:
        """The code of each item id, -1 for an unknown one."""
        return np.fromiter(map(self._codes.get, qids, itertools.repeat(-1)), np.int64)

    def qids_of(self, items: np.ndarray) -> list[str]:
        if len(self._qids) < len(self._codes):  # codes number the ids as first seen
            self._qids = list(self._codes)
        return list(map(self._qids.__getitem__, items.tolist()))

    def qid_for_page(self, language: str, page_id: int) -> str | None:
        items = self.items_of(language, [page_id])
        return None if items[0] < 0 else self.qids_of(items)[0]

    def page_for_qid(self, language: str, qid: str) -> int | None:
        page = int(self.pages_of(language, self.codes_of([qid]))[0])
        return None if page < 0 else page


def _tsv_rows(
    lines: Sequence[str], first: int, converters: Sequence[Callable[[str], object]]
) -> Iterator[list[list]]:
    """Read ``lines`` one at a time; ``first`` is the first one's number.

    Yields the block of the rows before the first bad line, if any, then
    raises that line's :class:`TsvFormatError`.
    """
    width = len(converters)
    rows = []
    error = None
    for number, line in enumerate(lines, start=first):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != width:
            message = f"expected {width} columns, got {len(cells)}"
            error = TsvFormatError(message, number)
            break
        try:
            rows.append([convert(cell) for convert, cell in zip(converters, cells)])
        except ValueError as exc:
            error = TsvFormatError(f"bad line {line!r}: {exc}", number)
            break
    if rows:
        yield [list(column) for column in zip(*rows)]
    if error is not None:
        raise error


def _tsv_columns(
    lines: Sequence[str], converters: Sequence[Callable[[str], object]]
) -> list[list]:
    """The converted columns of ``lines``; ``ValueError`` on any bad line."""
    width = len(converters)
    rows = [
        row
        for row in map(str.rstrip, lines, itertools.repeat("\n"))
        if row and row[0] != "#"
    ]
    if not rows:
        return []
    if set(map(str.count, rows, itertools.repeat("\t"))) != {width - 1}:
        raise ValueError("column count")
    # Every row has ``width`` cells, so column j of the cells of all rows
    # in order sits at j, j + width, j + 2 * width, ...
    cells = "\t".join(rows).split("\t")
    return [
        column if convert is str else list(map(convert, column))
        for convert, column in zip(converters, (cells[j::width] for j in range(width)))
    ]


def read_tsv(
    lines: Iterable[str], converters: Sequence[Callable[[str], object]]
) -> Iterator[list[list]]:
    """Yield the rows of tab-separated ``lines`` in blocks of columns.

    Each block covers up to ``_TSV_BLOCK_LINES`` lines and holds one list
    per converter: that column's converted cells, in line order.  Blank
    lines and lines starting with ``#`` are skipped, and a block without
    rows is not yielded.  Each row needs one cell per converter.  A wrong
    column count, or a converter raising ``ValueError``, raises
    :class:`TsvFormatError` with the line number, after a block of the
    rows before that line.
    """
    lines = iter(lines)
    first = 1
    while block := list(itertools.islice(lines, _TSV_BLOCK_LINES)):
        try:
            columns = _tsv_columns(block, converters)
        except ValueError:
            # Find the first bad line, and its message, the slow way.
            yield from _tsv_rows(block, first, converters)
            columns = None
        first += len(block)
        del block  # only the columns stay alive while the caller reads them
        if columns:
            yield columns


def optional(convert: Callable[[str], object]) -> Callable[[str], object]:
    """A converter reading ``NA`` as None and any other cell with ``convert``."""
    return lambda cell: None if cell == "NA" else convert(cell)


def nonempty(cell: str) -> str:
    if not cell:
        raise ValueError("empty cell")
    return cell


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"flag {cell!r} is not 0 or 1")
    return cell == "1"


def _probability(cell: str) -> float:
    value = float(cell)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0, 1]")
    return value


def int64(cell: str) -> int:
    """A converter reading an integer that fits in int64."""
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError("integer outside the int64 range")
    return value


def positive_id(cell: str) -> int:
    """A converter reading a page id: an int64 of at least 1."""
    value = int64(cell)
    if value < 1:
        raise ValueError("page id below 1")
    return value


def read_sitelinks_tsv(lines: Iterable[str]) -> Iterator[list[list]]:
    """Parse headerless sitelink TSV lines ``qid<TAB>language<TAB>title``
    into blocks of those three columns."""
    return read_tsv(lines, (nonempty,) * 3)


def load_sitelinks(
    blocks: Iterable[Sequence[Sequence[str]]], *, strict: bool = False
) -> QidIndex:
    """Build a :class:`QidIndex`, first row winning on lenient conflicts."""
    index = QidIndex()
    for qids, languages, titles in blocks:
        index.add_rows(qids, languages, titles, strict=strict)
    if index.n_conflicts:
        logger.warning("sitelinks: %d conflicting rows ignored", index.n_conflicts)
    return index


_REFERRER_CODES = {name: code for code, name in enumerate(REFERRER_CLASSES)}
_N_REFERRERS = len(REFERRER_CLASSES)
_EMPTY = np.zeros(0, dtype=np.int64)


def _month_code(month: str) -> int:
    """The month's :func:`~oatlas.months.month_index`, or -1 if malformed."""
    try:
        return month_index(month)
    except MonthFormatError:
        return -1


class PageviewTable:
    """Monthly view counts keyed by (language, page_id, month, referrer).

    The rows are one sorted int64 key per row and the view counts in the
    same order.  A key packs, in mixed radix over the ranges found in
    the data, a code of the language, the page id, the month's
    :func:`~oatlas.months.month_index` and the referrer's place in
    ``REFERRER_CLASSES``.  Lookups are binary searches in the keys.
    :func:`load_pageviews` builds a table; ``PageviewTable()`` is the
    empty one.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._n_languages = 0
        self._pages = (0, 0)  # first page id, number of page ids
        self._months = (0, 0)  # first month index, number of months
        self._keys = _EMPTY
        self._views = _EMPTY
        self.n_rows = 0
        self.n_skipped = 0
        self.n_duplicates = 0

    def __len__(self) -> int:
        return len(self._keys)

    def _pack(
        self,
        language: np.ndarray,
        page: np.ndarray,
        month: np.ndarray,
        referrer: np.ndarray | int,
    ) -> np.ndarray:
        (first_page, n_pages), (first_month, n_months) = self._pages, self._months
        key = language * n_pages + (page - first_page)
        return (key * n_months + (month - first_month)) * _N_REFERRERS + referrer

    def _find(
        self,
        languages: Iterable[str],
        page_ids: Sequence[int] | np.ndarray,
        months: Sequence[int] | np.ndarray,
        referrer_class: str,
    ) -> np.ndarray:
        """Row of each (language, page id, month index) key, or -1."""
        page = np.asarray(page_ids, dtype=np.int64)
        month = np.asarray(months, dtype=np.int64)
        codes = map(self._codes.get, languages, itertools.repeat(-1))
        language = np.fromiter(codes, np.int64, len(page))
        referrer = _REFERRER_CODES.get(referrer_class, -1)
        (first_page, n_pages), (first_month, n_months) = self._pages, self._months
        known = (
            (language >= 0)
            & (language < self._n_languages)
            & (page >= first_page)
            & (page < first_page + n_pages)
            & (month >= first_month)
            & (month < first_month + n_months)
        )
        rows = np.full(len(page), -1, dtype=np.int64)
        if referrer < 0 or not known.any():
            return rows
        keys = self._pack(language[known], page[known], month[known], referrer)
        rows[known] = _positions(self._keys, keys)
        return rows

    def gather(
        self,
        languages: Iterable[str],
        page_ids: Sequence[int] | np.ndarray,
        months: Sequence[int] | np.ndarray,
        referrer_class: str = "all",
    ) -> np.ndarray:
        """View counts of many keys at once, 0 where no row exists.

        ``months`` are :func:`~oatlas.months.month_index` values.
        """
        rows = self._find(languages, page_ids, months, referrer_class)
        views = np.zeros(len(rows), dtype=np.int64)
        found = rows >= 0
        views[found] = self._views[rows[found]]
        return views

    def _row(
        self, language: str, page_id: int, month: str, referrer_class: str
    ) -> int:
        index = _month_code(month)
        if index < 0:
            return -1
        return int(self._find([language], [page_id], [index], referrer_class)[0])

    def views(
        self, language: str, page_id: int, month: str, referrer_class: str = "all"
    ) -> int:
        """The recorded count, or 0 when no row exists."""
        row = self._row(language, page_id, month, referrer_class)
        return int(self._views[row]) if row >= 0 else 0

    def has_row(
        self, language: str, page_id: int, month: str, referrer_class: str = "all"
    ) -> bool:
        return self._row(language, page_id, month, referrer_class) >= 0

    def referrer_classes(self) -> set[str]:
        rows = np.bincount(self._keys % _N_REFERRERS, minlength=_N_REFERRERS)
        return {name for name, n in zip(REFERRER_CLASSES, rows.tolist()) if n}

    def _unpack(self, key: int) -> tuple[str, int, str, str]:
        """The (language, page id, month, referrer class) of a packed key."""
        (first_page, n_pages), (first_month, n_months) = self._pages, self._months
        rest, referrer = divmod(key, _N_REFERRERS)
        rest, month = divmod(rest, n_months)
        language, page = divmod(rest, n_pages)
        return (
            list(self._codes)[language],
            page + first_page,
            month_at(month + first_month),
            REFERRER_CLASSES[referrer],
        )

    def _fill(
        self, codes: dict[str, int], blocks: list[tuple[np.ndarray, ...]], strict: bool
    ) -> None:
        """Index the valid rows, the first of each key winning.

        ``blocks`` hold (language code, page id, month index, referrer
        code, views) arrays of rows in input order.  Each block is
        dropped from the list once its keys are packed, so beyond the
        blocks not yet packed the build holds four int64 arrays at most:
        the keys, the views, the sort order and the sorted keys.  A
        duplicate key raises :class:`DuplicateKeyError` in strict mode,
        naming the first duplicate row; otherwise it is counted.
        """
        self._codes = codes
        blocks.reverse()  # popped from the end, in input order
        if n := sum(len(block[0]) for block in blocks):
            language, page, month = (
                [block[j] for block in blocks if len(block[j])] for j in range(3)
            )
            self._n_languages = max(int(code.max()) for code in language) + 1
            first_page = min(int(ids.min()) for ids in page)
            first_month = min(int(index.min()) for index in month)
            last_page = max(int(ids.max()) for ids in page)
            last_month = max(int(index.max()) for index in month)
            self._pages = (first_page, last_page - first_page + 1)
            self._months = (first_month, last_month - first_month + 1)
            del language, page, month
        # Every key stays below the product of the radices.
        span = self._n_languages * self._pages[1] * self._months[1] * _N_REFERRERS
        if span > 1 << 63:
            raise InvalidRecordError(
                f"pageview keys span {span:,} values, more than an int64 holds"
            )
        keys = np.empty(n, dtype=np.int64)
        views = np.empty(n, dtype=np.int64)
        at = 0
        while blocks:
            language, page, month, referrer, count = blocks.pop()
            rows = slice(at, at + len(page))
            keys[rows] = self._pack(
                language.astype(np.int64), page, month.astype(np.int64), referrer
            )
            views[rows] = count
            at = rows.stop
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(n, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        if first.all():
            self._keys, self._views = keys, views[order]
        else:
            if strict:
                duplicates = np.flatnonzero(~first)
                earliest = duplicates[np.argmin(order[duplicates])]
                key = self._unpack(int(keys[earliest]))
                raise DuplicateKeyError(f"duplicate pageview row for {key}")
            self._keys, self._views = keys[first], views[order[first]]
        self.n_rows = len(self._keys)
        self.n_duplicates = n - self.n_rows


def read_pageviews_tsv(lines: Iterable[str]) -> Iterator[list[list]]:
    """Parse headerless pageview TSV lines into blocks of five columns.

    The columns are those of :class:`PageviewRecord`.
    """
    return read_tsv(lines, (str, int, str, str, int))


def _check_pageview(rec: PageviewRecord) -> None:
    """Raise the error of a bad pageview row."""
    if rec.views < 0:
        raise InvalidRecordError(f"negative view count in {rec}")
    if rec.referrer_class not in REFERRER_CLASSES:
        raise InvalidRecordError(f"unknown referrer class {rec.referrer_class!r}")
    if not rec.language or rec.page_id <= 0:
        raise InvalidRecordError(f"bad key in {rec}")
    parse_month(rec.month)


def _int64_column(values: Sequence[int], name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        message = f"a pageview {name} does not fit in 64 bits"
        raise InvalidRecordError(message) from None


def load_pageviews(
    blocks: Iterable[Sequence[Sequence]], *, strict: bool = False
) -> PageviewTable:
    """Validate blocks of pageview columns into a :class:`PageviewTable`.

    Each block holds the five columns of :class:`PageviewRecord`, as
    :func:`read_pageviews_tsv` yields them.  Bad rows (negative views,
    unknown referrer class, empty language, page id below 1, malformed
    month) raise in strict mode and are skipped and counted otherwise.
    Duplicate keys are rejected the same way; in lenient mode the first
    row of a key wins.  Strict mode raises for the first bad or
    duplicate row in input order, before any later malformed line.
    Each distinct month string is parsed once.
    """
    table = PageviewTable()
    codes: dict[str, int] = {}
    month_codes: dict[str, int] = {}
    kept: list[tuple[np.ndarray, ...]] = []
    unknown = itertools.repeat(-1)
    try:
        for block in blocks:
            language, page_id, month, referrer, views = block
            n = len(language)
            for name in sorted(set(language).difference(codes)):
                codes[name] = len(codes)
            for name in set(month).difference(month_codes):
                month_codes[name] = _month_code(name)
            # Codes in the narrowest types that hold them: the columns
            # are kept until the table is built.
            columns = (
                np.fromiter(map(codes.__getitem__, language), np.int32, n),
                _int64_column(page_id, "page id"),
                np.fromiter(map(month_codes.__getitem__, month), np.int32, n),
                np.fromiter(map(_REFERRER_CODES.get, referrer, unknown), np.int8, n),
                _int64_column(views, "view count"),
            )
            code, page, mon, ref, count = columns
            bad = (count < 0) | (ref < 0) | (page <= 0) | (mon < 0)
            if "" in codes:
                bad |= code == codes[""]
            (bad_rows,) = np.nonzero(bad)
            if strict and len(bad_rows):
                i = int(bad_rows[0])
                kept.append(tuple(column[:i] for column in columns))
                table._fill(codes, kept, strict)
                _check_pageview(PageviewRecord._make(column[i] for column in block))
            table.n_skipped += len(bad_rows)
            kept.append(tuple(column[~bad] for column in columns))
    except TsvFormatError:
        if strict:  # a duplicate before the malformed line goes first
            table._fill(codes, kept, strict)
        raise
    table._fill(codes, kept, strict)
    return table


_FEATURE_COLUMNS = (str, int64, _flag, optional(_flag), *(_probability,) * 5, int64)


def read_features_tsv(lines: Iterable[str]) -> Iterator[FeatureRecord]:
    """Parse headerless per-article feature TSV lines.

    Columns: language, page_id, bot_created, is_woman_biography (``NA``
    for non-biographies), p_culture, p_geography, p_history_society,
    p_stem, quality_score, creation_timestamp.  Both flags are ``0`` or
    ``1``; page ids and timestamps fit in int64.
    """
    for block in read_tsv(lines, _FEATURE_COLUMNS):
        for language, page_id, bot, woman, *topics, quality, created in zip(*block):
            yield FeatureRecord(
                language=language,
                page_id=page_id,
                bot_created=bot,
                is_woman_biography=woman,
                topic_probabilities=dict(zip(TOPIC_LABELS, topics)),
                quality_score=quality,
                creation_timestamp=created,
            )


class FeatureColumns(NamedTuple):
    """One language's rows of ``features.tsv`` as columns, in line order.

    ``values`` has a row per entry of ``page_ids`` and the eight value
    columns of the file as floats, made by :func:`feature_values`.
    """

    page_ids: np.ndarray
    values: np.ndarray


def feature_values(columns: Sequence[Sequence]) -> np.ndarray:
    """The float matrix of feature rows, given their eight value columns.

    ``columns`` are bot_created, is_woman_biography (None for ``NA``),
    the four topic probabilities, quality_score and creation_timestamp,
    as :data:`_FEATURE_COLUMNS` converts them.  The result has a row per
    feature row, in C order: flags as 0.0 or 1.0, None as NaN, and the
    timestamp as ``-float(timestamp)``, which grows with the article's age.
    """
    values = np.ascontiguousarray(np.array(columns, dtype=float).T)
    # By assignment: in numpy 2.4.6, np.negative(x, out=x) on a short
    # strided column reads it with the wrong stride.
    values[:, -1] = -values[:, -1]
    return values


def read_feature_columns(
    lines: Iterable[str], languages: Iterable[str]
) -> dict[str, FeatureColumns]:
    """Read feature TSV lines into :class:`FeatureColumns` per language.

    Only the rows of ``languages`` are kept, and a language without rows
    gets no entry.  Every line is converted and checked as in
    :func:`read_features_tsv`, whatever its language, so a bad cell
    raises :class:`TsvFormatError` with its line number.
    """
    wanted = set(languages)
    # Each kept language's ids and values grow in place, block by block.
    kept: dict[str, tuple[array.array, array.array]] = {}
    for language, page_ids, *columns in read_tsv(lines, _FEATURE_COLUMNS):
        names = sorted(wanted.intersection(language))
        if not names:
            continue
        block_languages = np.array(language)
        block_ids = np.array(page_ids, dtype=np.int64)
        block_values = feature_values(columns)
        for name in names:
            rows = block_languages == name
            ids, values = kept.setdefault(name, (array.array("q"), array.array("d")))
            ids.frombytes(block_ids[rows].tobytes())
            values.frombytes(block_values[rows].tobytes())
    return {
        name: FeatureColumns(
            np.frombuffer(ids, dtype=np.int64),
            np.frombuffer(values).reshape(len(ids), -1),
        )
        for name, (ids, values) in kept.items()
    }


@contextlib.contextmanager
def atomic_file(path: Path) -> Iterator[BinaryIO]:
    """Write ``path`` through a temp file beside it, opened for bytes.

    The temp file replaces ``path`` when the block ends; if the block
    raises, it is removed and ``path`` is left as it was.  So no reader
    sees a partly written file, unless the machine itself goes down.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
