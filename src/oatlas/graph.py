"""Monthly link-graph snapshots and the events between them.

A :class:`LinkSnapshot` holds one language's article-to-article link
graph for one month: namespace-0 non-redirect pages as nodes, resolved
links as edges.  Construction (:func:`build_snapshot`) runs on the
loaders' columns: a title code finds its page by one gather, redirect
chains are followed to their final target by pointer jumping, and each
drop (redirect cycles, red links, links from redirect pages, self
references) is a mask.  The rest is de-duplicated into the CSR arrays.

On top of snapshots sit set-level views: :func:`orphans` (no incoming
links), :func:`deadends` (no outgoing links) and :func:`orphan_status`,
which finds orphan-boundary crossings in both directions by in-degree.
:func:`link_delta` and :func:`deorphanizing_events` are its reference.

Snapshots round-trip through a small versioned binary container.  In
format 3 a header (magic ``OATL``, a version byte, the language and the
month as ``u16`` length-prefixed UTF-8, then the article and edge counts
as ``u64``) is followed by one zlib stream (deflate level 1).  Inflated,
it holds unsigned LEB128 varints in three blocks: the gaps between
consecutive page ids, the out-degree of every article, and per adjacency
row the gaps between consecutive target indices (the first gap of a row
counts from 0).  ``save`` ends a deflate block after each of the first
two, so each array is coded with its own Huffman tables; ``load`` reads
any zlib stream of those varints, however its blocks fall.  A CRC-32 of
everything before it (``u32``) and the trailer ``LTAO`` close the file.
Both ends work on slices of at most ``_SLICE_VALUES`` values, so neither
holds an array per value beside the snapshot's own.  Deflate's output
does not depend on how its input is cut between flushes, so the file is
the same for any slice size.

Format 5, a delta container, stores a later month of a language as what
it changes in a base month of that language, which is always a full
(format 3) container.  Its header carries, after the language and the
month, the base month (``u16`` length-prefixed UTF-8), a CRC-32 of the
base graph's id, row pointer and target arrays (``u32``, over
little-endian int64), then five ``u64`` counts: articles removed, ids
added, edges removed, and the rows and edges of the added edges.  Its
stream holds six varint blocks, each ended as in format 3: the gaps
between the places of the removed articles in the base's id array, the
gaps of the added ids, the gaps between the places of the removed edges
in the base's target array (the first gap of a block counts from 0),
and the added edges as a small CSR in three blocks (the gaps between
its rows, the out-degree of each row, and per row its target gaps),
whose rows and targets are ranks in the sorted union of both months'
ids.  What a delta removes is named by its place in the base's arrays,
and the base's CRC is what makes that safe: a delta applies only to the
exact arrays it was written against.  A
delta is read against its base, which the caller hands over or which
sits beside it as ``<base month>.oatl``; a base that is missing,
changed, of another language or month, or itself a delta is refused,
so a load reads at most two files.  Which months ``ingest`` stores as
deltas is its own rule (:func:`oatlas.cli._save_month`).

Containers of formats 1 and 2 (full) and 4 (a delta that named its
removed edges by their ranks) are refused; re-running ``ingest``
rewrites them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Collection, Iterable, Iterator, Sequence

import numpy as np

from .ingest import LinkTable, PageTable, RawLink, RedirectTable, _take, atomic_file
from .ingest import _positions

_MAGIC = b"OATL"
_TRAILER = b"LTAO"
_FULL, _DELTA = 3, 5  # the container formats read and written
_RETIRED = (b"\x01", b"\x02", b"\x04")  # refused: re-running ingest rewrites them
# On varint gaps level 6 took about 1.5 times as long as level 1 and
# made the stream smaller by under 2 % of its size.
_ZLIB_LEVEL = 1
# Deflate inflates at most 1032-fold: a 258-byte match takes 2 bits or more.
_MAX_DEFLATE_RATIO = 1032
_SLICE_VALUES = 1 << 16
# A varint of k bytes holds values below 2**(7*k); nine hold any int64.
_MAX_VARINT_BYTES = 9
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, _MAX_VARINT_BYTES)])
# The restarts of a block whose gaps count from 0 at its first value only.
_FROM_ZERO = np.zeros(1, dtype=np.int64)

DEORPHANIZED = "deorphanized"
ORPHANIZED = "orphanized"


class SnapshotFormatError(ValueError):
    """A snapshot container that cannot be read (bad magic, version, truncation)."""


class SnapshotIntegrityError(ValueError):
    """A snapshot whose internal structure violates its invariants."""


class SnapshotMismatchError(ValueError):
    """An operation across snapshots that do not belong together."""


class Container:
    """A container read whole: its trailer, CRC-32 and header are checked.

    ``base_month`` is None in a full (format 3) container; ``counts`` are
    the header's ``u64`` counts, and ``stream`` is the deflated stream.
    """

    def __init__(self, data: bytes | memoryview):
        data = memoryview(data)
        if data[:4] != _MAGIC:
            raise SnapshotFormatError("not a snapshot container (bad magic)")
        if data[4:5] in _RETIRED:
            raise SnapshotFormatError(
                f"container format {data[4]} is no longer read; re-run `oatlas ingest`"
            )
        if data[4:5] not in (bytes([_FULL]), bytes([_DELTA])):
            raise SnapshotFormatError("unsupported container version")
        if len(data) < 13 or data[-4:] != _TRAILER:
            raise SnapshotFormatError("truncated container (missing trailer)")
        if zlib.crc32(data[:-8]) != struct.unpack("<I", data[-8:-4])[0]:
            raise SnapshotFormatError("container checksum mismatch")
        pos = 5

        def text() -> str:
            nonlocal pos
            (length,) = struct.unpack_from("<H", data, pos)
            pos += 2 + length
            if pos > len(data):
                raise struct.error("text runs past the end")
            return str(data[pos - length : pos], "utf-8")

        try:
            self.language, self.month = text(), text()
            self.base_month, self.base_crc, n_counts = None, 0, 2
            if data[4] == _DELTA:
                self.base_month = text()
                (self.base_crc,) = struct.unpack_from("<I", data, pos)
                pos, n_counts = pos + 4, 5
            self.counts = struct.unpack_from(f"<{n_counts}Q", data, pos)
        except (struct.error, UnicodeDecodeError) as exc:
            raise SnapshotFormatError(f"bad container header: {exc}") from exc
        self.stream = data[pos + 8 * n_counts : -8]

    @classmethod
    def read(cls, source: Path | IO[bytes]) -> "Container":
        """The container in a file or a stream."""
        if isinstance(source, Path):
            with source.open("rb") as handle:
                return cls(handle.read())
        return cls(source.read())

    def snapshot(self, base: "LinkSnapshot | None" = None) -> "LinkSnapshot":
        """The snapshot that the container holds; a delta is applied to
        ``base``, which must be the graph it was written against."""
        if self.base_month is None:
            n_nodes, n_edges = self.counts
            varints = _Varints(self.stream, 2 * n_nodes + n_edges)
            ids = varints.read(n_nodes, _FROM_ZERO)
            indptr, targets = _read_adjacency(varints, n_nodes, n_edges)
            varints.finish()
        else:
            ids, indptr, targets = _read_delta(self, base)
            del base  # a base read for this delta alone is freed here
        snapshot = LinkSnapshot(self.language, self.month, ids, indptr, targets)
        snapshot.validate()
        return snapshot


@dataclass
class BuildStats:
    """Drop counters from one :func:`build_snapshot` run.

    A link is dropped for the first reason that holds, in the order of
    the ``dropped_`` fields.  ``n_redirect_cycle_members`` counts the
    redirect pages that lie on a cycle of redirects, whether or not a
    link leads into it.
    """

    n_raw_links: int = 0
    n_edges: int = 0
    dropped_foreign_namespace: int = 0
    dropped_redirect_source: int = 0
    dropped_unknown_source: int = 0
    dropped_missing_target: int = 0
    dropped_unresolved_redirect: int = 0
    dropped_self_loop: int = 0
    n_duplicate_links: int = 0
    n_redirect_cycle_members: int = 0


class LinkSnapshot:
    """One language-month article link graph in compressed sparse form.

    Node identity is the wiki's page id; internally ids are remapped to
    dense indices over the sorted id array.  Adjacency lists are sorted
    and duplicate-free.  ``in_degree`` is maintained alongside and can
    always be recomputed from the adjacency.
    """

    def __init__(
        self,
        language: str,
        month: str,
        ids: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
    ):
        self.language = language
        self.month = month
        self._ids = ids
        self._indptr = indptr
        self._targets = targets
        self._in_degree = _in_degrees(targets, len(ids))
        self._rev: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_edges(
        cls,
        language: str,
        month: str,
        articles: Iterable[int],
        edges: Iterable[tuple[int, int]],
    ) -> "LinkSnapshot":
        """Build a snapshot directly from an article set and edge pairs.

        Edges must connect distinct known articles; duplicates collapse.
        """
        ids = _sorted_unique(np.fromiter(articles, dtype=np.int64))
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if len(loops):
            u, v = pairs[loops[0]].tolist()
            raise SnapshotIntegrityError(f"self loop {u}->{v}")
        strays = np.flatnonzero(~np.isin(pairs, ids).all(axis=1))
        if len(strays):
            u, v = pairs[strays[0]].tolist()
            raise SnapshotIntegrityError(f"edge {u}->{v} leaves the article set")
        pos = np.searchsorted(ids, pairs)
        return cls(language, month, ids, *_csr(len(ids), pos[:, 0], pos[:, 1]))

    # -- size and membership ------------------------------------------------

    @property
    def n_articles(self) -> int:
        return len(self._ids)

    @property
    def n_edges(self) -> int:
        return len(self._targets)

    @property
    def article_ids(self) -> np.ndarray:
        """Sorted page ids (do not mutate)."""
        return self._ids

    @property
    def articles(self) -> set[int]:
        return set(self._ids.tolist())

    def rows_of(self, page_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The row of each page id in :attr:`article_ids`, -1 for a non-article."""
        return _positions(self._ids, page_ids)

    def _row(self, page_id: int) -> int:
        row = int(self.rows_of([page_id])[0])
        if row < 0:
            raise KeyError(page_id)
        return row

    def has_article(self, page_id: int) -> bool:
        return bool(self.rows_of([page_id])[0] >= 0)

    # -- adjacency ----------------------------------------------------------

    def out_neighbors(self, page_id: int) -> np.ndarray:
        """Page ids linked from ``page_id``, sorted ascending."""
        i = self._row(page_id)
        return self._ids[self._targets[self._indptr[i] : self._indptr[i + 1]]]

    def in_neighbors(self, page_id: int) -> np.ndarray:
        """Page ids linking to ``page_id``, sorted ascending."""
        return self.in_edges(np.array([self._row(page_id)]))[1]

    def in_edges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every in-edge of the articles at ``rows``: the place in ``rows``
        of its target and its source's page id, grouped by target."""
        rev_indptr, rev_sources = self._reverse()
        starts = rev_indptr[rows]
        counts = rev_indptr[rows + 1] - starts
        place = np.repeat(np.arange(len(rows)), counts)
        first = np.cumsum(counts) - counts  # each row's first edge in the output
        edge = np.arange(len(place)) + np.repeat(starts - first, counts)
        return place, self._ids[rev_sources[edge]]

    def in_degree_of(self, page_id: int) -> int:
        return int(self._in_degree[self._row(page_id)])

    def has_edges(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Whether each (source, target) pair of page ids is an edge."""
        n = len(self._ids)
        s, t = self.rows_of(sources), self.rows_of(targets)
        # Rows are in source order and sorted within, so these keys are sorted.
        keys = self._sources()
        keys *= n
        keys += self._targets
        return (s >= 0) & (t >= 0) & (_positions(keys, s * n + t) >= 0)

    def in_degree_array(self) -> np.ndarray:
        """In-degrees aligned with :attr:`article_ids` (do not mutate)."""
        return self._in_degree

    def out_degree_array(self) -> np.ndarray:
        return np.diff(self._indptr)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (from_page_id, to_page_id), grouped by source."""
        ids = self._ids
        return zip(ids[self._sources()].tolist(), ids[self._targets].tolist())

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def _sources(self) -> np.ndarray:
        """The source index of every edge, aligned with the targets."""
        return _edge_rows(self._indptr, 0, self.n_edges)

    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rev is None:
            self._rev = _csr(len(self._ids), self._targets, self._sources())
        return self._rev

    # -- integrity ----------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants, raising on any violation."""
        ids, indptr, targets = self._ids, self._indptr, self._targets
        n = len(ids)
        if (ids[1:] <= ids[:-1]).any():
            raise SnapshotIntegrityError("article ids not sorted unique")
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(targets):
            raise SnapshotIntegrityError("bad index pointer array")
        if (indptr[1:] < indptr[:-1]).any():
            raise SnapshotIntegrityError("negative out degree")
        # Edges a slice at a time, so no array per edge is made.  The
        # constructor counted the in-degrees from these targets.
        for a in range(0, len(targets), _SLICE_VALUES):
            b = min(a + _SLICE_VALUES, len(targets))
            part = targets[a:b]
            if (part < 0).any() or (part >= n).any():
                raise SnapshotIntegrityError("target outside article set")
            if (part == _edge_rows(indptr, a, b)).any():
                raise SnapshotIntegrityError("self loop")
            gaps = _gaps(targets, indptr, a, b)
            gaps[_restarts_within(indptr, a, b)] = 1  # a row's first target
            if (gaps <= 0).any():
                raise SnapshotIntegrityError("adjacency list not sorted unique")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkSnapshot):
            return NotImplemented
        return (
            self.language == other.language
            and self.month == other.month
            and np.array_equal(self._ids, other._ids)
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._targets, other._targets)
        )

    def __repr__(self) -> str:
        return (
            f"LinkSnapshot({self.language!r}, {self.month!r}, "
            f"{self.n_articles} articles, {self.n_edges} edges)"
        )

    # -- persistence ----------------------------------------------------------

    def save(
        self, target: Path | IO[bytes], base: "LinkSnapshot | None" = None
    ) -> tuple[int, int] | None:
        """Write the snapshot as a versioned binary container.

        Without ``base`` the container is a full one (format 3).  With
        ``base``, another month of the language that is saved as a full
        container, it is a delta against that month (format 5), and the
        numbers of edges it removes and adds are returned.
        """
        if isinstance(target, Path):
            with atomic_file(target) as handle:
                return self.save(handle, base)
        if base is None:
            header = _header_bytes(
                _FULL, self.language, self.month, (self.n_articles, self.n_edges)
            )
            blocks = [
                (self._ids, _FROM_ZERO),
                (self._indptr[1:], _FROM_ZERO),
                (self._targets, self._indptr),
            ]
            churn = None
        else:
            header, blocks, churn = _delta_container(base, self)
        crc = zlib.crc32(header)
        target.write(header)
        for piece in _deflated(blocks):
            crc = zlib.crc32(piece, crc)
            target.write(piece)
        target.write(struct.pack("<I", crc) + _TRAILER)
        return churn

    @classmethod
    def load(
        cls, source: Path | IO[bytes], base: "LinkSnapshot | None" = None
    ) -> "LinkSnapshot":
        """Read a container written by :meth:`save`.

        A delta is read against ``base``, or, when ``source`` is a path
        and no base is given, against :meth:`load_base`.
        """
        container = Container.read(source)
        base_month = container.base_month
        if base is None and base_month is not None and isinstance(source, Path):
            return container.snapshot(cls.load_base(source, base_month))
        return container.snapshot(base)

    @staticmethod
    def load_base(delta_path: Path, base_month: str) -> "LinkSnapshot":
        """Read the base of the delta at ``delta_path``: the full container
        of ``base_month`` beside it.

        A missing file or a delta there raises, naming the path.
        """
        path = delta_path.with_name(f"{base_month}.oatl")
        try:
            if not path.is_file():
                raise SnapshotIntegrityError("not found")
            container = Container.read(path)
            if container.base_month is not None:
                raise SnapshotFormatError("is itself a delta, not a full container")
            return container.snapshot()
        except (SnapshotFormatError, SnapshotIntegrityError) as exc:
            raise type(exc)(f"base container {path}: {exc}") from exc


def holds_full_container(path: Path) -> bool:
    """Whether the file at ``path`` begins as a full (format 3) container."""
    try:
        with path.open("rb") as handle:
            return handle.read(5) == _MAGIC + bytes([_FULL])
    except FileNotFoundError:
        return False


def _header_bytes(
    version: int,
    language: str,
    month: str,
    counts: Sequence[int],
    base_month: str | None = None,
    base_crc: int = 0,
) -> bytes:
    """A container header; ``base_month`` and ``base_crc`` are a delta's."""
    texts = [language, month] + ([] if base_month is None else [base_month])
    parts = [_MAGIC, bytes([version])]
    for text in texts:
        raw = text.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw]
    if base_month is not None:
        parts.append(struct.pack("<I", base_crc))
    parts.append(struct.pack(f"<{len(counts)}Q", *counts))
    return b"".join(parts)


def _deflated(blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[bytes]:
    """The deflated varints of the :func:`_gaps` of each (values, restarts)
    block, in pieces.

    A ``Z_BLOCK`` flush ends the deflate blocks of each array before the
    next one starts, so each array gets its own Huffman codes; in a small
    graph they would otherwise share one block.  The payload stays one
    zlib stream, and the flush points do not depend on the slice size.
    """
    compressor = zlib.compressobj(_ZLIB_LEVEL)
    for i, (values, restarts) in enumerate(blocks):
        if i:  # close the previous array's deflate blocks
            yield compressor.flush(zlib.Z_BLOCK)
        for a in range(0, len(values), _SLICE_VALUES):
            gaps = _gaps(values, restarts, a, a + _SLICE_VALUES)
            if (gaps < 0).any():
                raise SnapshotIntegrityError("negative delta in container")
            yield compressor.compress(_encode_varints(gaps))
    yield compressor.flush()


def _read_adjacency(
    varints: "_Varints", n_rows: int, n_edges: int
) -> tuple[np.ndarray, np.ndarray]:
    """The row pointers and targets of a CSR block pair: out-degrees, then
    per row its target gaps."""
    indptr = varints.read(n_rows, _FROM_ZERO, lead=1)
    # The target gaps restart at the row starts, so check those first.
    if indptr[-1] != n_edges or (indptr[1:] < indptr[:-1]).any():
        raise SnapshotFormatError("edge count mismatch")
    return indptr, varints.read(n_edges, indptr)


def _in_degrees(targets: np.ndarray, n: int) -> np.ndarray:
    if len(targets) and (targets.min() < 0 or targets.max() >= n):
        raise SnapshotIntegrityError("target outside article set")
    return np.bincount(targets, minlength=n)


def _edge_rows(indptr: np.ndarray, a: int, b: int) -> np.ndarray:
    """The row of each edge from a to b-1."""
    first = np.searchsorted(indptr, a, side="right") - 1
    stop = np.searchsorted(indptr, b)
    counts = np.diff(np.clip(indptr[first : stop + 1], a, b))
    return np.repeat(np.arange(first, stop), counts)


def _csr(
    n: int, src_pos: np.ndarray, dst_pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, duplicate-free adjacency (indptr, targets) of dense edges."""
    keys = _sorted_unique(src_pos * n + dst_pos)
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` by sort and mask.

    numpy 2.4's ``np.unique`` goes through a hash table: on 25k-200k
    int64 edge keys it took 20 times as long as this, and it imports
    ``numpy.ma`` into the process.
    """
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def _id_array(ids: Collection[int]) -> np.ndarray:
    """Page ids, a set or an array, as an int64 array."""
    return ids if isinstance(ids, np.ndarray) else np.fromiter(ids, np.int64, len(ids))


def _restarts_within(restarts: np.ndarray, a: int, b: int) -> np.ndarray:
    """The positions in ``restarts`` from a to b-1, counted from a."""
    lo, hi = np.searchsorted(restarts, [a, b])
    return restarts[lo:hi] - a


def _gaps(values: np.ndarray, restarts: np.ndarray, a: int, b: int) -> np.ndarray:
    """Each of values[a:b] less the value before it, or less 0 at a restart."""
    part = values[a:b]
    gaps = part.copy()
    gaps[1:] -= part[:-1]
    if a:
        gaps[0] -= values[a - 1]
    starts = _restarts_within(restarts, a, a + len(part))
    gaps[starts] = part[starts]
    return gaps


def _sums(values: np.ndarray, restarts: np.ndarray, a: int, gaps: np.ndarray) -> None:
    """Write to values[a:] the values whose :func:`_gaps` are ``gaps``,
    given the values before a."""
    part = values[a : a + len(gaps)]
    np.cumsum(gaps, out=part)
    starts = _restarts_within(restarts, a, a + len(gaps))
    first = starts[0] if len(starts) else len(part)
    # The running sum just before each restart; empty rows repeat a start.
    before = part[starts - 1]
    before[starts == 0] = 0
    if a:
        part[:first] += values[a - 1]
    part[first:] -= np.repeat(before, np.diff(starts, append=len(part)))


class _Varints:
    """The varints of a deflated stream, inflated a slice at a time.

    No slice passed to zlib or taken from it is larger than
    ``_SLICE_VALUES`` bytes, and the stream is never inflated past
    ``_MAX_VARINT_BYTES`` per value of ``count`` (one byte for an empty
    graph, to see its stream end).  Every fault is a
    :class:`SnapshotFormatError`.
    """

    def __init__(self, stream: memoryview, count: int):
        # Each value inflates to one byte or more.  The arrays grow with
        # the values inflated, so counts that the stream does not fill
        # allocate one slice per array, or twice what its values need.
        if count > _MAX_DEFLATE_RATIO * len(stream):
            raise SnapshotFormatError("container counts exceed its payload")
        self._inflater = zlib.decompressobj()
        self._stream = stream
        self._pos = 0  # the stream bytes that zlib has used
        self._room = _MAX_VARINT_BYTES * count or 1
        self._carry = b""  # the start of a varint cut at a slice's edge
        self._values = np.empty(0, dtype=np.int64)

    def read(self, n: int, restarts: np.ndarray, lead: int = 0) -> np.ndarray:
        """The next ``n`` values, after ``lead`` zeros, from their :func:`_gaps`
        with the given restarts.

        The array starts at one slice and doubles as it fills, so it
        holds at most one slice, or twice the values inflated so far.
        """
        out = np.zeros(lead + min(n, _SLICE_VALUES), dtype=np.int64)
        a = 0
        while a < n:
            if lead + a == len(out):
                # No view of out is alive here, so numpy may move its data.
                out.resize(lead + min(2 * a, n), refcheck=False)
            gaps = self.take(len(out) - lead - a)
            _sums(out[lead:], restarts, a, gaps)
            a += len(gaps)
        return out

    def take(self, most: int) -> np.ndarray:
        """The next values: at least one and at most ``most``."""
        while not len(self._values):
            if self._inflater.eof:
                raise SnapshotFormatError("varint stream has fewer values than counted")
            data = self._carry + self._inflate()
            self._values, used = _decode_varints(data)
            self._carry = data[used:]
            if len(self._carry) >= _MAX_VARINT_BYTES:
                raise SnapshotFormatError("varint longer than 64 bits")
        values, self._values = self._values[:most], self._values[most:]
        return values

    def finish(self) -> None:
        """Check that the stream ends with the values taken."""
        if self._carry:
            raise SnapshotFormatError("varint stream ends inside a varint")
        if len(self._values):
            raise SnapshotFormatError("varint stream has more values than counted")
        while not self._inflater.eof:
            if self._inflate():
                raise SnapshotFormatError("varint stream has more values than counted")

    def _inflate(self) -> bytes:
        if not self._room:
            raise SnapshotFormatError("varint stream inflates past 9 bytes per value")
        limit = min(_SLICE_VALUES, self._room)
        while True:
            # zlib copies the input it leaves unused, so pass a slice only.
            piece = self._stream[self._pos : self._pos + _SLICE_VALUES]
            try:
                chunk = self._inflater.decompress(piece, limit)
            except zlib.error as exc:
                raise SnapshotFormatError(f"bad varint stream: {exc}") from exc
            self._pos += len(piece) - len(self._inflater.unconsumed_tail)
            if self._inflater.eof and (
                self._inflater.unused_data or self._pos < len(self._stream)
            ):
                raise SnapshotFormatError("bytes after the end of the varint stream")
            if chunk or self._inflater.eof:
                self._room -= len(chunk)
                return chunk
            if self._pos == len(self._stream):
                raise SnapshotFormatError("varint stream ends early")


def _encode_varints(values: np.ndarray) -> bytes:
    """Unsigned LEB128 of non-negative int64 values, in order."""
    lengths = 1 + np.searchsorted(_VARINT_LIMITS, values, side="right")
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    pos = np.cumsum(lengths) - lengths
    # One pass per byte position, over the values that still need it.
    while len(values):
        more = values >= 0x80
        out[pos] = (values & 0x7F) | (more << 7)
        pos, values = pos[more] + 1, values[more] >> 7
    return out.tobytes()


def _decode_varints(buffer: bytes) -> tuple[np.ndarray, int]:
    """The complete unsigned LEB128 values at the start of ``buffer``, and
    the number of bytes they fill."""
    data = np.frombuffer(buffer, dtype=np.uint8)
    ends = np.flatnonzero(data < 0x80)
    used = int(ends[-1]) + 1 if len(ends) else 0
    data = data[:used]
    values = data[ends].astype(np.int64)
    # Walk back from each varint's last byte over the continuation bytes
    # before it.  data[-1] ends a varint, so a step to index -1 stops too.
    rows, pos = np.arange(len(ends)), ends - 1
    for _ in range(_MAX_VARINT_BYTES - 1):
        more = data[pos] >= 0x80
        rows, pos = rows[more], pos[more]
        values[rows] = (values[rows] << 7) | (data[pos] & 0x7F)
        pos -= 1
    if (data[pos] >= 0x80).any():
        raise SnapshotFormatError("varint longer than 64 bits")
    return values, used


# -- delta containers ----------------------------------------------------------


def _delta_container(
    base: LinkSnapshot, later: LinkSnapshot
) -> tuple[bytes, list[tuple[np.ndarray, np.ndarray]], tuple[int, int]]:
    """The header of ``later``'s delta against ``base``, its (values,
    restarts) varint blocks, and the edges it removes and adds."""
    if base.language != later.language or base.month == later.month:
        raise SnapshotMismatchError(
            f"{later.language}/{later.month} cannot be stored against "
            f"{base.language}/{base.month}"
        )
    removed_at, added_ids, gone, (rows, indptr, targets) = _diff(base, later)
    counts = (len(removed_at), len(added_ids), len(gone), len(rows), len(targets))
    blocks = [
        (removed_at, _FROM_ZERO),
        (added_ids, _FROM_ZERO),
        (gone, _FROM_ZERO),
        (rows, _FROM_ZERO),
        (indptr[1:], _FROM_ZERO),
        (targets, indptr),
    ]
    header = _header_bytes(
        _DELTA, later.language, later.month, counts, base.month, _arrays_crc(base)
    )
    return header, blocks, (len(gone), len(targets))


def _read_delta(
    container: Container, base: LinkSnapshot | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids, row pointers and targets of a delta container applied to
    ``base``, which must be the graph it names."""
    wanted = f"{container.language}/{container.base_month}"
    if base is None:
        raise SnapshotIntegrityError(f"a delta against {wanted} needs its base")
    if (base.language, base.month) != (container.language, container.base_month):
        raise SnapshotIntegrityError(
            f"a delta against {wanted} given the base {base.language}/{base.month}"
        )
    if _arrays_crc(base) != container.base_crc:
        raise SnapshotIntegrityError(
            f"the base {wanted} is not the graph this delta was written against"
        )
    n_removed, n_added, n_gone, n_rows, n_edges = container.counts
    count = n_removed + n_added + n_gone + 2 * n_rows + n_edges
    varints = _Varints(container.stream, count)
    removed_at = varints.read(n_removed, _FROM_ZERO)
    added_ids = varints.read(n_added, _FROM_ZERO)
    gone = varints.read(n_gone, _FROM_ZERO)
    rows = varints.read(n_rows, _FROM_ZERO)
    added = (rows, *_read_adjacency(varints, n_rows, n_edges))
    varints.finish()
    return _apply(base, removed_at, added_ids, gone, added)


def _arrays_crc(snapshot: LinkSnapshot) -> int:
    """A CRC-32 of the graph's ids, row pointers and targets as
    little-endian int64, the check a delta keeps of its base."""
    crc = 0
    for array in (snapshot._ids, snapshot._indptr, snapshot._targets):
        crc = zlib.crc32(np.ascontiguousarray(array, dtype="<i8"), crc)
    return crc


def _merged(ids: np.ndarray, added: np.ndarray) -> np.ndarray:
    """The sorted ids with the sorted ``added``, none of them in ids, merged in."""
    return np.insert(ids, np.searchsorted(ids, added), added)


def _edge_keys(
    snapshot: LinkSnapshot, rank: np.ndarray, n: int, a: int, b: int
) -> np.ndarray:
    """``rank[source] * n + rank[target]`` of the edges a to b-1."""
    b = min(b, snapshot.n_edges)
    keys = rank[_edge_rows(snapshot._indptr, a, b)]
    keys *= n
    keys += rank[snapshot._targets[a:b]]
    return keys


def _key_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted edge keys ``row * n + target`` as a small CSR: the distinct
    rows, their row pointers and the targets."""
    rows = keys // n
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[starts], np.append(starts, len(keys)), keys % n


def _diff(base: LinkSnapshot, later: LinkSnapshot) -> tuple:
    """What ``later`` removes from ``base`` and adds to it: the places in
    the base's id array of the articles it removes, the ids it adds, the
    places in the base's target array of the edges it removes, and the
    added edges as the (rows, row pointers, targets) of :func:`_key_rows`
    over the ranks of the union of both months' ids.

    Besides the results, it holds the base's edge keys and a flag per base
    edge; the later month's keys are made a slice at a time.
    """
    removed_at = np.flatnonzero(_positions(later._ids, base._ids) < 0)
    added_ids = later._ids[_positions(base._ids, later._ids) < 0]
    union = _merged(base._ids, added_ids)
    n = len(union)
    base_rank = np.searchsorted(union, base._ids)
    later_rank = np.searchsorted(union, later._ids)
    # Rows ascend, and targets within them, so these keys are sorted.
    base_keys = np.empty(base.n_edges, dtype=np.int64)
    for a in range(0, base.n_edges, _SLICE_VALUES):
        base_keys[a : a + _SLICE_VALUES] = _edge_keys(
            base, base_rank, n, a, a + _SLICE_VALUES
        )
    in_later = np.zeros(base.n_edges, dtype=bool)
    added = [base_keys[:0]]
    for a in range(0, later.n_edges, _SLICE_VALUES):
        keys = _edge_keys(later, later_rank, n, a, a + _SLICE_VALUES)
        at = _positions(base_keys, keys)
        in_later[at[at >= 0]] = True
        added.append(keys[at < 0])
    del base_keys
    gone = np.flatnonzero(~in_later)
    return removed_at, added_ids, gone, _key_rows(np.concatenate(added), n)


def _search_rows(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """For each key, the first place from ``lo`` to ``hi`` in ``values``,
    which ascend there, whose value is not below the key (``hi`` if there
    is none): one bisection for all.  It overwrites ``lo`` and ``hi``."""
    while len(open_ := np.flatnonzero(lo < hi)):
        mid = (lo[open_] + hi[open_]) // 2
        below = values[mid] < keys[open_]
        lo[open_[below]] = mid[below] + 1
        hi[open_[~below]] = mid[~below]
    return lo


def _ascending(values: np.ndarray) -> bool:
    return not (values[1:] <= values[:-1]).any()


def _places_in(places: np.ndarray, n: int) -> bool:
    """Whether ``places`` ascend strictly and lie within an array of ``n``."""
    if not len(places):
        return True
    return places[0] >= 0 and places[-1] < n and _ascending(places)


def _added_keys(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (source, target) ranks in the union of both months' ids, of
    ``n`` articles, of each edge of a delta's added CSR, which must ascend."""
    rows, indptr, targets = edges
    for values in (rows, targets):
        if len(values) and (values.min() < 0 or values.max() >= n):
            raise SnapshotIntegrityError("delta edge outside the union of both months")
    sources = np.repeat(rows, np.diff(indptr))
    if not _ascending(sources * n + targets):
        raise SnapshotIntegrityError("added edges are not sorted unique")
    return sources, targets


def _apply(
    base: LinkSnapshot,
    removed_at: np.ndarray,
    added_ids: np.ndarray,
    gone: np.ndarray,
    added: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids, row pointers and targets of the month that a delta's
    arrays, read by ``load``, take ``base`` to.

    ``removed_at`` and ``gone`` are the places of the removed articles in
    the base's ids and of the removed edges in its targets; they must
    ascend strictly within those arrays.  Every kept or added edge must
    lie within the later month's articles; ``validate`` checks the rest.
    Besides the result, it holds arrays per article and per removed or
    added edge: the kept edges go into the result a slice at a time, each
    after the added edges that sort before it.
    """
    ids, indptr = base._ids, base._indptr
    if not _places_in(removed_at, len(ids)):
        raise SnapshotIntegrityError("removed articles are not sorted unique places")
    if not _places_in(gone, base.n_edges):
        raise SnapshotIntegrityError("removed edges are not sorted unique places")
    if not _ascending(added_ids) or (_positions(ids, added_ids) >= 0).any():
        raise SnapshotIntegrityError("added ids are not sorted unique new articles")
    union = _merged(ids, added_ids)
    n = len(union)
    in_base = np.ones(n, dtype=bool)
    in_base[np.searchsorted(union, added_ids)] = False
    in_later = np.ones(n, dtype=bool)
    in_later[np.searchsorted(union, ids[removed_at])] = False
    later_ids = union[in_later]
    del union
    base_below = np.cumsum(in_base) - in_base  # base articles before each rank
    to_later = np.where(in_later, np.cumsum(in_later) - 1, -1)
    later_of_base = to_later[in_base]

    # A removed edge's row is the base row whose edges span its place.
    degrees = np.diff(indptr)
    degrees -= np.bincount(
        np.searchsorted(indptr, gone, side="right") - 1, minlength=len(ids)
    )
    if degrees[later_of_base < 0].any():
        raise SnapshotIntegrityError("a removed article keeps an edge")
    kept_degrees = np.zeros(len(later_ids), dtype=np.int64)
    alive = later_of_base >= 0
    kept_degrees[later_of_base[alive]] = degrees[alive]
    del degrees, alive

    # Before each added edge: the base edges that sort before it, less
    # the removed ones among them.  A new source has no base row.
    sources, targets = _added_keys(added, n)
    rows = base_below[sources]
    starts = indptr[rows]
    ends = np.where(in_base[sources], indptr[np.minimum(rows + 1, len(ids))], starts)
    before = _search_rows(base._targets, starts, ends, base_below[targets])
    kept_before = before - np.searchsorted(gone, before)
    sources, targets = to_later[sources], to_later[targets]
    if (sources < 0).any() or (targets < 0).any():
        raise SnapshotIntegrityError("an added edge leaves the later month's articles")
    kept_degrees += np.bincount(sources, minlength=len(later_ids))
    later_indptr = np.concatenate([[0], np.cumsum(kept_degrees)])
    # Only later_of_base is needed per article from here on.
    del in_base, in_later, base_below, to_later, kept_degrees
    del rows, starts, ends, before, sources

    out = np.empty(later_indptr[-1], dtype=np.int64)
    out[kept_before + np.arange(len(targets))] = targets
    for a in range(0, base.n_edges, _SLICE_VALUES):
        b = min(a + _SLICE_VALUES, base.n_edges)
        lo, hi = np.searchsorted(gone, [a, b])
        keep = np.ones(b - a, dtype=bool)
        keep[gone[lo:hi] - a] = False
        part = later_of_base[base._targets[a:b][keep]]
        if (part < 0).any():
            raise SnapshotIntegrityError("an edge to a removed article is kept")
        kept = np.arange(a - lo, a - lo + len(part))  # their places among the kept
        out[kept + np.searchsorted(kept_before, kept, side="right")] = part
    return later_ids, later_indptr, out


def build_snapshot(
    pages: PageTable,
    redirects: RedirectTable,
    links: LinkTable | Iterable[RawLink],
    *,
    language: str,
    month: str,
    stats: BuildStats | None = None,
) -> LinkSnapshot:
    """Assemble the article graph for one language-month.

    Articles are the non-redirect namespace-0 pages.  Each raw link is
    kept only if its source is an article and its target title resolves
    (through any chain of redirects) to a distinct article; everything
    else is dropped and counted in ``stats``, under the first reason in
    the order of :class:`BuildStats`.  ``links`` is a
    :class:`~oatlas.ingest.LinkTable` whose title codes are those of
    ``pages.titles``, or :class:`~oatlas.ingest.RawLink` values.
    """
    if stats is None:
        stats = BuildStats()
    if not isinstance(links, LinkTable):
        links = LinkTable.from_raw_links(links, pages.titles)
    is_article = ~pages.is_redirect
    source = pages.rows_of(links.from_page_id)
    target = pages.row_of_code()[links.target_code]
    resolved = _take(_final_rows(pages, redirects, stats), target, -1)
    from_article = _take(is_article, source, False)
    alive = np.ones(len(source), dtype=bool)

    def drop(mask: np.ndarray) -> int:
        hit = alive & mask
        alive[hit] = False
        return int(np.count_nonzero(hit))

    stats.n_raw_links += len(source)
    stats.dropped_foreign_namespace += drop(links.target_namespace != 0)
    stats.dropped_redirect_source += drop(
        ~from_article & _take(pages.is_redirect, source, False)
    )
    stats.dropped_unknown_source += drop(~from_article)
    stats.dropped_missing_target += drop(target < 0)
    stats.dropped_unresolved_redirect += drop(resolved < 0)
    stats.dropped_self_loop += drop(resolved == source)

    ids = pages.page_ids[is_article]
    rank = np.cumsum(is_article) - 1  # an article's row in ids
    edges = _csr(len(ids), rank[source[alive]], rank[resolved[alive]])
    snapshot = LinkSnapshot(language, month, ids, *edges)
    stats.n_edges = snapshot.n_edges
    stats.n_duplicate_links = int(np.count_nonzero(alive)) - snapshot.n_edges
    return snapshot


def _final_rows(
    pages: PageTable, redirects: RedirectTable, stats: BuildStats
) -> np.ndarray:
    """The row of the article each page's redirect chain ends at, or -1
    where the chain dangles or runs into a cycle.

    Pointer jumping: ``hop`` takes each row one step (an article to
    itself, a redirect to its target, or to the sink row ``n`` if it has
    none), and each squaring doubles the steps.  After ``2**k > n``
    steps every chain that ends has reached its end, and every other one
    is on its cycle, where the steps permute the cycle's members.
    """
    n = len(pages)
    hop = np.arange(n + 1)
    hop[np.flatnonzero(pages.is_redirect)] = n
    hop[pages.rows_of(redirects.source_ids)] = pages.rows_of(redirects.target_ids)
    for _ in range(n.bit_length()):
        hop = hop[hop]
    is_article = np.append(~pages.is_redirect, False)
    cycling = hop[~is_article[hop] & (hop < n)]
    stats.n_redirect_cycle_members += len(_sorted_unique(cycling))
    return np.where(is_article[hop], hop, -1)[:n]


def orphans(snapshot: LinkSnapshot) -> set[int]:
    """Articles with no incoming links."""
    return set(snapshot.article_ids[snapshot.in_degree_array() == 0].tolist())


def deadends(snapshot: LinkSnapshot) -> set[int]:
    """Articles with no outgoing links."""
    return set(snapshot.article_ids[snapshot.out_degree_array() == 0].tolist())


@dataclass(frozen=True)
class LinkDelta:
    """Edge-set difference between two monthly snapshots."""

    language: str
    from_month: str
    to_month: str
    added: frozenset[tuple[int, int]]
    removed: frozenset[tuple[int, int]]


def link_delta(earlier: LinkSnapshot, later: LinkSnapshot) -> LinkDelta:
    """Edges added and removed between two snapshots of one language."""
    if earlier.language != later.language:
        raise SnapshotMismatchError(
            f"cannot diff {earlier.language!r} against {later.language!r}"
        )
    before = earlier.edge_set()
    after = later.edge_set()
    return LinkDelta(
        language=earlier.language,
        from_month=earlier.month,
        to_month=later.month,
        added=frozenset(after - before),
        removed=frozenset(before - after),
    )


@dataclass(frozen=True)
class OrphanEvent:
    """One article crossing the orphan boundary between two months.

    ``month`` is the snapshot month the transition started from; the
    change happened between that snapshot and the next one.  For
    de-orphanization, ``new_inlink_count`` is the number of distinct
    incoming links gained.
    """

    language: str
    month: str
    page_id: int
    direction: str
    new_inlink_count: int | None = None


def deorphanizing_events(
    delta: LinkDelta, orphans_before: set[int]
) -> list[OrphanEvent]:
    """Orphans (as of the delta's from-month) that gained incoming links.

    ``orphans_before`` must be the orphan set of the snapshot the delta
    was computed from.
    """
    added = np.array(list(delta.added), dtype=np.int64).reshape(-1, 2)[:, 1]
    before = np.fromiter(orphans_before, dtype=np.int64, count=len(orphans_before))
    page_ids, counts = np.unique(added[np.isin(added, before)], return_counts=True)
    return [
        OrphanEvent(
            language=delta.language,
            month=delta.from_month,
            page_id=page_id,
            direction=DEORPHANIZED,
            new_inlink_count=count,
        )
        for page_id, count in zip(page_ids.tolist(), counts.tolist())
    ]


def orphan_status(
    earlier: LinkSnapshot, later: LinkSnapshot
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Page ids in both months (ascending), and whether each is linked.

    The masks flag incoming links in ``earlier`` and in ``later``.  An
    orphan has no inlinks, so every inlink it has a month later is new.
    """
    if earlier.language != later.language:
        raise SnapshotMismatchError(
            f"cannot compare {earlier.language!r} against {later.language!r}"
        )
    shared, i, j = np.intersect1d(
        earlier.article_ids, later.article_ids, assume_unique=True, return_indices=True
    )
    return shared, earlier.in_degree_array()[i] > 0, later.in_degree_array()[j] > 0


def orphanizing_events(
    earlier: LinkSnapshot, later: LinkSnapshot
) -> list[OrphanEvent]:
    """Articles present in both months that lost all incoming links."""
    shared, linked_before, linked_after = orphan_status(earlier, later)
    return [
        OrphanEvent(
            language=earlier.language,
            month=earlier.month,
            page_id=page_id,
            direction=ORPHANIZED,
        )
        for page_id in shared[linked_before & ~linked_after].tolist()
    ]
