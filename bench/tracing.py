"""Traced in-process pass: per-layer times from the program's modules.

The pass calls each module's public functions on the generated tree in
the order the CLI stages do, with a span around every call into a layer.
Calls one layer makes into another (``LinkSnapshot.load`` validating,
``build_pairs`` diffing snapshots, summaries counting orphans) are
traced by wrapping the module attribute for the length of the pass, so
they nest and self times subtract cleanly.  Spans stay in memory and
are written once at the end, to the benchmark's work directory, never
under the pipeline's ``--out``.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from generate import MONTHS

DUMP_FILES = ("page.sql", "redirect.sql", "pagelinks.sql")


class Tracer:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Trace every call to ``owner.attr`` until :meth:`unwrap`."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Duration minus the time covered by child spans, summed by name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        path.write_text(
            json.dumps(
                [
                    {"id": i, "name": n, "start": s - origin, "end": e - origin, "parent": p}
                    for i, (n, s, e, p) in enumerate(self.spans)
                ]
            )
            + "\n",
            encoding="utf-8",
        )


@dataclass
class TracedPass:
    tracer: Tracer
    counts: dict[str, float] = field(default_factory=dict)
    snapshot_paths: list[Path] = field(default_factory=list)
    n_pairs: int = 0
    n_panel_rows: int = 0
    n_candidates: int = 0
    build_peak_bytes_per_edge: float = math.nan


def traced_pass(data: Path, work: Path, languages: list[str]) -> TracedPass:
    from oatlas import candidates, causal, characterize, graph, ingest

    tracer = Tracer()
    result = TracedPass(tracer)
    span = tracer.span
    for owner, attr, name in (
        (graph.LinkSnapshot, "validate", "graph.validate"),
        (causal, "link_delta", "graph.link_delta"),
        (causal, "deorphanizing_events", "graph.events"),
        (causal, "orphanizing_events", "graph.events"),
        (causal, "orphans", "graph.orphans"),
        (characterize, "orphans", "graph.orphans"),
        (candidates, "orphans", "graph.orphans"),
    ):
        tracer.wrap(owner, attr, name)
    month, following = MONTHS
    snap_dir = work / "snapshots"

    def load(m: str) -> dict:
        out = {}
        for language in languages:
            with span("graph.load"):
                out[language] = graph.LinkSnapshot.load(snap_dir / language / f"{m}.oatl")
        return out

    try:
        n_rows = n_edges = n_bytes = 0
        largest = None
        id_by_title, titles = {}, {}
        with span("stage.ingest"):
            for language in languages:
                for m in MONTHS:
                    month_dir = data / language / m
                    rows = {}
                    with span("ingest.parse"):
                        for name in DUMP_FILES:
                            with (month_dir / name).open("rb") as fh:
                                rows[name] = list(ingest.parse_sql_insert_rows(fh))
                    n_rows += sum(len(r) for r in rows.values())
                    with span("ingest.page_table"):
                        pages = ingest.load_page_table(rows["page.sql"])
                    with span("ingest.redirects"):
                        redirects = ingest.load_redirects(rows["redirect.sql"], pages)
                    with span("ingest.raw_links"):
                        links = list(ingest.iter_raw_links(rows["pagelinks.sql"]))
                    with span("graph.build"):
                        snapshot = graph.build_snapshot(
                            pages, redirects, links, language=language, month=m
                        )
                    path = snap_dir / language / f"{m}.oatl"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    with span("graph.save"):
                        snapshot.save(path)
                    result.snapshot_paths.append(path)
                    n_edges += snapshot.n_edges
                    n_bytes += path.stat().st_size
                    if largest is None or len(links) > len(largest[2]):
                        largest = (pages, redirects, links, language, m)
                    if m == month:
                        id_by_title[language] = dict(pages.id_by_title)
                        titles[language] = {
                            pid: rec.title for pid, rec in pages.by_id.items() if not rec.is_redirect
                        }
            with span("ingest.sitelinks"):
                with (data / "sitelinks.tsv").open(encoding="utf-8") as fh:
                    index = ingest.load_sitelinks(ingest.read_sitelinks_tsv(fh))
                for language in languages:
                    index.attach_page_ids(language, id_by_title[language])

        with span("stage.orphans"):
            snapshots = load(month)
            with span("characterize.summary"):
                summaries = characterize.orphan_fraction_by_wiki(snapshots.values())
            with span("characterize.lowess"):
                by_size = sorted(summaries, key=lambda s: (s.n_articles, s.language))
                if len(by_size) >= 3:
                    characterize.lowess_fit(
                        [math.log10(s.n_articles) for s in by_size],
                        [s.orphan_fraction for s in by_size],
                    )

        with span("stage.characterize"):
            snapshots = load(month)
            with span("ingest.features"):
                with (data / "features.tsv").open(encoding="utf-8") as fh:
                    records = list(ingest.read_features_tsv(fh))
            for language in sorted(snapshots):
                snapshot = snapshots[language]
                subset = [r for r in records if r.language == language]
                if not subset:
                    continue
                with span("characterize.feature_table"):
                    table = characterize.build_feature_table(
                        subset, language, articles=set(snapshot.article_ids.tolist())
                    )
                with span("graph.orphans"):
                    orphan_ids = graph.orphans(snapshot)
                with span("characterize.scores"):
                    characterize.representation_scores(orphan_ids & set(table.page_ids), table)

        with span("stage.panel"):
            first, second = load(month), load(following)
            pair_snapshots = {lang: {month: first[lang], following: second[lang]} for lang in first}
            with span("ingest.pageviews"):
                with (data / "pageviews.tsv").open(encoding="utf-8") as fh:
                    views = ingest.load_pageviews(ingest.read_pageviews_tsv(fh))
            pairs = []
            with span("causal.build_pairs"):
                for direction in (causal.FORWARD, causal.REVERSE):
                    pairs += causal.build_pairs(
                        pair_snapshots, index, month, direction, pageviews=views
                    ).pairs
            pairs.sort(key=lambda p: p.pair_id)
            panel = []
            with span("causal.assemble_panel"):
                for cls in ["all"] + sorted(views.referrer_classes() - {"all"}):
                    panel += causal.assemble_panel(pairs, views, index, referrer_class=cls)
            result.n_pairs, result.n_panel_rows = len(pairs), len(panel)

        with span("stage.did"):
            with span("causal.fit_did"):
                for direction in (causal.FORWARD, causal.REVERSE):
                    subset = [o for o in panel if o.pair_id.startswith(direction + ":")]
                    if not subset:
                        continue
                    pooled = [o for o in subset if o.referrer_class == "all"]
                    for spec in ("pooled", "by_language", "by_month"):
                        causal.fit_did(pooled, spec=spec)
                    for cls in sorted({o.referrer_class for o in subset} - {"all"}):
                        causal.fit_did([o for o in subset if o.referrer_class == cls], spec="pooled")

        n_docs_orphans = 0
        with span("stage.candidates"):
            snapshots = load(month)
            for language in sorted(snapshots):
                snapshot = snapshots[language]
                documents = _documents(candidates, data / language / "docs.jsonl", language)
                with span("graph.orphans"):
                    orphan_ids = graph.orphans(snapshot)
                n_docs_orphans += len(documents) * len(orphan_ids)
                per_orphan = {orphan: [] for orphan in orphan_ids}
                with span("candidates.findlink"):
                    if documents:
                        for orphan in sorted(orphan_ids):
                            per_orphan[orphan] += candidates.findlink_candidates(
                                orphan, titles[language][orphan], documents, snapshot
                            )
                stats = candidates.CandidateStats()
                with span("candidates.crosslingual"):
                    for orphan in sorted(orphan_ids):
                        per_orphan[orphan] += candidates.crosslingual_candidates(
                            orphan, language, snapshots, index, stats=stats
                        )
                flat = [c for found in per_orphan.values() for c in found]
                candidates.validate_candidates(flat, snapshot, orphan_ids)
                result.n_candidates += len(flat)
                with span("candidates.coverage"):
                    candidates.coverage_report(snapshot, per_orphan)
    finally:
        tracer.unwrap()

    # Peak bytes per edge of the largest build, in a pass of its own
    # because tracemalloc slows every allocation.
    pages, redirects, links, language, m = largest
    tracemalloc.start()
    try:
        built = graph.build_snapshot(pages, redirects, links, language=language, month=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result.build_peak_bytes_per_edge = peak / max(1, built.n_edges)
    result.counts = {
        "rows": n_rows,
        "edges": n_edges,
        "container_bytes": n_bytes,
        "doc_orphan_pairs": n_docs_orphans,
    }
    return result


def _documents(candidates, path: Path, language: str) -> list:
    if not path.is_file():
        return []
    documents = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            document = candidates.AnnotatedDocument(
                language=language,
                page_id=int(raw["page_id"]),
                text=raw["text"],
                existing_link_spans=tuple((int(a), int(b), int(t)) for a, b, t in raw["links"]),
            )
            document.validate()
            documents.append(document)
    return documents


def layer_metrics(traced: TracedPass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced pass (self times in seconds)."""
    own = traced.tracer.self_times()
    c = traced.counts

    def s(name: str) -> float:
        return own.get(name, 0.0)

    return {
        "ingest.parse_s": (s("ingest.parse"), "s"),
        "ingest.parse_rows_per_s": (c["rows"] / s("ingest.parse"), "1/s"),
        "ingest.rows": (c["rows"], "count"),
        "ingest.page_table_s": (s("ingest.page_table"), "s"),
        "ingest.redirects_s": (s("ingest.redirects"), "s"),
        "ingest.raw_links_s": (s("ingest.raw_links"), "s"),
        "ingest.sitelinks_s": (s("ingest.sitelinks"), "s"),
        "ingest.pageviews_s": (s("ingest.pageviews"), "s"),
        "ingest.features_s": (s("ingest.features"), "s"),
        "graph.build_s": (s("graph.build"), "s"),
        "graph.build_peak_bytes_per_edge": (traced.build_peak_bytes_per_edge, "B"),
        "graph.edges": (c["edges"], "count"),
        "graph.save_s": (s("graph.save"), "s"),
        "graph.load_s": (s("graph.load"), "s"),
        "graph.validate_s": (s("graph.validate"), "s"),
        "graph.container_bytes_per_edge": (c["container_bytes"] / max(1, c["edges"]), "B"),
        "graph.link_delta_s": (s("graph.link_delta"), "s"),
        "graph.events_s": (s("graph.events"), "s"),
        "graph.orphans_s": (s("graph.orphans"), "s"),
        "characterize.summary_s": (s("characterize.summary"), "s"),
        "characterize.feature_table_s": (s("characterize.feature_table"), "s"),
        "characterize.scores_s": (s("characterize.scores"), "s"),
        "characterize.lowess_s": (s("characterize.lowess"), "s"),
        "causal.build_pairs_s": (s("causal.build_pairs"), "s"),
        "causal.assemble_panel_s": (s("causal.assemble_panel"), "s"),
        "causal.fit_did_s": (s("causal.fit_did"), "s"),
        "causal.pairs": (traced.n_pairs, "count"),
        "causal.panel_rows": (traced.n_panel_rows, "count"),
        "candidates.findlink_s": (s("candidates.findlink"), "s"),
        "candidates.findlink_us_per_doc_orphan": (
            s("candidates.findlink") * 1e6 / max(1, c["doc_orphan_pairs"]),
            "us",
        ),
        "candidates.crosslingual_s": (s("candidates.crosslingual"), "s"),
        "candidates.coverage_s": (s("candidates.coverage"), "s"),
        "candidates.rows": (traced.n_candidates, "count"),
    }
