"""Monthly link-graph snapshots and the events between them.

A :class:`LinkSnapshot` holds one language's article-to-article link
graph for one month: namespace-0 non-redirect pages as nodes, resolved
links as edges.  Construction (:func:`build_snapshot`) chases redirect
chains to their final target, drops redirect cycles, red links, links
from redirect pages and self references, and de-duplicates the rest.

On top of snapshots sit set-level views: :func:`orphans` (no incoming
links), :func:`deadends` (no outgoing links), :func:`link_delta`
(edge-set difference between consecutive months) and the
de-orphanization / orphanization event streams derived from it.

Snapshots round-trip through a small versioned binary container.  In
format 2 a header (magic ``OATL``, a version byte, the language and the
month as ``u16`` length-prefixed UTF-8, then the article and edge counts
as ``u64``) is followed by unsigned LEB128 varints in three blocks: the
gaps between consecutive page ids, the out-degree of every article, and
per adjacency row the gaps between consecutive target indices (the
first gap of a row counts from 0).  A CRC-32 of everything before it
(``u32``) and the trailer ``LTAO`` close the file.  Containers of
format 1 are rejected; re-running ``ingest`` rewrites them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .ingest import PageTable, RawLink, RedirectTable

_MAGIC = b"OATL"
_TRAILER = b"LTAO"
_FORMAT_VERSION = 2
# A varint of k bytes holds values below 2**(7*k); nine hold any int64.
_MAX_VARINT_BYTES = 9
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, _MAX_VARINT_BYTES)])

DEORPHANIZED = "deorphanized"
ORPHANIZED = "orphanized"


class SnapshotFormatError(ValueError):
    """A snapshot container that cannot be read (bad magic, version, truncation)."""


class SnapshotIntegrityError(ValueError):
    """A snapshot whose internal structure violates its invariants."""


class SnapshotMismatchError(ValueError):
    """An operation across snapshots that do not belong together."""


@dataclass
class BuildStats:
    """Drop counters from one :func:`build_snapshot` run."""

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
        self._index: dict[int, int] = dict(zip(ids.tolist(), range(len(ids))))
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

    def has_article(self, page_id: int) -> bool:
        return page_id in self._index

    # -- adjacency ----------------------------------------------------------

    def out_neighbors(self, page_id: int) -> np.ndarray:
        """Page ids linked from ``page_id``, sorted ascending."""
        i = self._index[page_id]
        return self._ids[self._targets[self._indptr[i] : self._indptr[i + 1]]]

    def in_neighbors(self, page_id: int) -> np.ndarray:
        """Page ids linking to ``page_id``, sorted ascending."""
        rev_indptr, rev_sources = self._reverse()
        i = self._index[page_id]
        return self._ids[rev_sources[rev_indptr[i] : rev_indptr[i + 1]]]

    def out_degree_of(self, page_id: int) -> int:
        i = self._index[page_id]
        return int(self._indptr[i + 1] - self._indptr[i])

    def in_degree_of(self, page_id: int) -> int:
        return int(self._in_degree[self._index[page_id]])

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
        return np.repeat(np.arange(len(self._ids)), np.diff(self._indptr))

    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rev is None:
            self._rev = _csr(len(self._ids), self._targets, self._sources())
        return self._rev

    # -- integrity ----------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants, raising on any violation."""
        ids, indptr, targets = self._ids, self._indptr, self._targets
        n = len(ids)
        if (np.diff(ids) <= 0).any():
            raise SnapshotIntegrityError("article ids not sorted unique")
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(targets):
            raise SnapshotIntegrityError("bad index pointer array")
        if (np.diff(indptr) < 0).any():
            raise SnapshotIntegrityError("negative out degree")
        if not np.array_equal(_in_degrees(targets, n), self._in_degree):
            raise SnapshotIntegrityError("in_degree out of sync with adjacency")
        sources = self._sources()
        if (targets == sources).any():
            raise SnapshotIntegrityError("self loop")
        same_row = sources[1:] == sources[:-1]
        if (same_row & (np.diff(targets) <= 0)).any():
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

    def save(self, target: Path | IO[bytes]) -> None:
        """Write the snapshot as a versioned binary container."""
        if isinstance(target, Path):
            with target.open("wb") as handle:
                self.save(handle)
            return
        ids, indptr, targets = self._ids, self._indptr, self._targets
        lang = self.language.encode("utf-8")
        month = self.month.encode("utf-8")
        target_gaps = np.diff(targets, prepend=0)
        row_starts = indptr[:-1][indptr[:-1] < indptr[1:]]
        target_gaps[row_starts] = targets[row_starts]
        values = np.concatenate([np.diff(ids, prepend=0), np.diff(indptr), target_gaps])
        if (values < 0).any():
            raise SnapshotIntegrityError("negative delta in container")
        body = b"".join(
            [
                _MAGIC,
                struct.pack("<BH", _FORMAT_VERSION, len(lang)),
                lang,
                struct.pack("<H", len(month)),
                month,
                struct.pack("<QQ", self.n_articles, self.n_edges),
                _encode_varints(values),
            ]
        )
        target.write(body + struct.pack("<I", zlib.crc32(body)) + _TRAILER)

    @classmethod
    def load(cls, source: Path | IO[bytes]) -> "LinkSnapshot":
        """Read a container written by :meth:`save`."""
        if isinstance(source, Path):
            with source.open("rb") as handle:
                return cls.load(handle)
        data = source.read()
        if data[:4] != _MAGIC:
            raise SnapshotFormatError("not a snapshot container (bad magic)")
        if data[4:5] == b"\x01":
            raise SnapshotFormatError(
                "container format 1 is no longer read; re-run `oatlas ingest`"
            )
        if data[4:5] != bytes([_FORMAT_VERSION]):
            raise SnapshotFormatError("unsupported container version")
        if len(data) < 13 or data[-4:] != _TRAILER:
            raise SnapshotFormatError("truncated container (missing trailer)")
        body = data[:-8]
        if zlib.crc32(body) != struct.unpack("<I", data[-8:-4])[0]:
            raise SnapshotFormatError("container checksum mismatch")
        pos = 5
        try:
            (lang_len,) = struct.unpack_from("<H", body, pos)
            language = body[pos + 2 : pos + 2 + lang_len].decode("utf-8")
            pos += 2 + lang_len
            (month_len,) = struct.unpack_from("<H", body, pos)
            month = body[pos + 2 : pos + 2 + month_len].decode("utf-8")
            pos += 2 + month_len
            n_nodes, n_edges = struct.unpack_from("<QQ", body, pos)
        except (struct.error, UnicodeDecodeError) as exc:
            raise SnapshotFormatError(f"bad container header: {exc}") from exc
        payload = body[pos + 16 :]
        if 2 * n_nodes + n_edges > len(payload):
            raise SnapshotFormatError("container counts exceed its payload")
        values = _decode_varints(payload, 2 * n_nodes + n_edges)
        ids = np.cumsum(values[:n_nodes])
        degrees = values[n_nodes : 2 * n_nodes]
        if n_nodes and degrees.max() > n_edges:
            raise SnapshotFormatError("edge count mismatch")
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        if indptr[-1] != n_edges:
            raise SnapshotFormatError("edge count mismatch")
        # Each row's targets are the running sum of its gaps: a global
        # running sum less the sum reached before the row starts.
        targets = np.cumsum(values[2 * n_nodes :])
        targets -= np.repeat(np.concatenate(([0], targets))[indptr[:-1]], degrees)
        snapshot = cls(language, month, ids, indptr, targets)
        snapshot.validate()
        return snapshot


def _in_degrees(targets: np.ndarray, n: int) -> np.ndarray:
    if len(targets) and (targets.min() < 0 or targets.max() >= n):
        raise SnapshotIntegrityError("target outside article set")
    return np.bincount(targets, minlength=n)


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


def _decode_varints(payload: bytes, count: int) -> np.ndarray:
    """Exactly ``count`` unsigned LEB128 values filling ``payload``."""
    data = np.frombuffer(payload, dtype=np.uint8)
    ends = np.flatnonzero(data < 0x80)
    if len(ends) != count or (data[-1:] >= 0x80).any():
        raise SnapshotFormatError("varint payload does not match the counts")
    values = data[ends].astype(np.int64)
    # Walk back from each varint's last byte over the continuation bytes
    # before it.  data[-1] ends a varint, so a step to index -1 stops too.
    rows, pos = np.arange(count), ends - 1
    for _ in range(_MAX_VARINT_BYTES - 1):
        more = data[pos] >= 0x80
        rows, pos = rows[more], pos[more]
        values[rows] = (values[rows] << 7) | (data[pos] & 0x7F)
        pos -= 1
    if (data[pos] >= 0x80).any():
        raise SnapshotFormatError("varint longer than 64 bits")
    return values


def build_snapshot(
    pages: PageTable,
    redirects: RedirectTable,
    links: Iterable[RawLink],
    *,
    language: str,
    month: str,
    stats: BuildStats | None = None,
) -> LinkSnapshot:
    """Assemble the article graph for one language-month.

    Articles are the non-redirect namespace-0 pages.  Each raw link is
    kept only if its source is an article and its target title resolves
    (through any chain of redirects) to a distinct article; everything
    else is dropped and counted in ``stats``.
    """
    if stats is None:
        stats = BuildStats()
    by_id = pages.by_id
    id_by_title = pages.id_by_title
    redirect_targets = redirects.targets
    articles = pages.article_ids()
    resolved: dict[int, int | None] = {}

    def resolve(start: int) -> int | None:
        chain: list[int] = []
        seen: set[int] = set()
        cur = start
        while True:
            if cur in resolved:
                final = resolved[cur]
                break
            if cur in articles:
                final = cur
                break
            if cur in seen:
                final = None  # redirect cycle
                stats.n_redirect_cycle_members += len(seen)
                break
            seen.add(cur)
            chain.append(cur)
            nxt = redirect_targets.get(cur)
            if nxt is None:
                final = None  # dangling redirect
                break
            cur = nxt
        for node in chain:
            resolved[node] = final
        return final

    sources: list[int] = []
    dests: list[int] = []
    for link in links:
        stats.n_raw_links += 1
        if link.target_namespace != 0:
            stats.dropped_foreign_namespace += 1
            continue
        source = link.from_page_id
        if source not in articles:
            rec = by_id.get(source)
            if rec is not None and rec.is_redirect:
                stats.dropped_redirect_source += 1
            else:
                stats.dropped_unknown_source += 1
            continue
        target = id_by_title.get(link.target_title)
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
        sources.append(source)
        dests.append(target)

    ids = np.fromiter(articles, dtype=np.int64, count=len(articles))
    ids.sort()
    src_pos = np.searchsorted(ids, np.array(sources, dtype=np.int64))
    dst_pos = np.searchsorted(ids, np.array(dests, dtype=np.int64))
    snapshot = LinkSnapshot(language, month, ids, *_csr(len(ids), src_pos, dst_pos))
    stats.n_edges = snapshot.n_edges
    stats.n_duplicate_links = len(sources) - snapshot.n_edges
    return snapshot


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
    qid: str | None = None


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


def orphanizing_events(
    earlier: LinkSnapshot, later: LinkSnapshot
) -> list[OrphanEvent]:
    """Articles present in both months that lost all incoming links."""
    if earlier.language != later.language:
        raise SnapshotMismatchError(
            f"cannot compare {earlier.language!r} against {later.language!r}"
        )
    shared, i, j = np.intersect1d(
        earlier.article_ids, later.article_ids, assume_unique=True, return_indices=True
    )
    lost = (earlier.in_degree_array()[i] > 0) & (later.in_degree_array()[j] == 0)
    return [
        OrphanEvent(
            language=earlier.language,
            month=earlier.month,
            page_id=page_id,
            direction=ORPHANIZED,
        )
        for page_id in shared[lost].tolist()
    ]
