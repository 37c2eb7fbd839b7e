"""Propose linking sources for the orphans of a small wiki.

Two catalogues of evidence are combined: article text that mentions an
orphan's title without linking it (findlink), and pages that link the
same item in other languages, mapped back through shared item ids
(crosslingual).  Runs on the bundled three-language fixture so every
proposal can be traced by hand.
"""

import json
import tempfile
from pathlib import Path

from oatlas import candidates, fixtures, graph, ingest

month = fixtures.GOLDEN_MONTHS[0]
languages = ("aa", "bb", "cc")

snapshots = {}
page_tables = {}
with tempfile.TemporaryDirectory(prefix="oatlas_demo_") as tmp:
    root = fixtures.golden_tree(Path(tmp))
    for lang in languages:
        month_dir = root / lang / month
        with (month_dir / "page.sql").open("rb") as handle:
            pages = ingest.load_page_table(ingest.parse_sql_insert_rows(handle))
        with (month_dir / "redirect.sql").open("rb") as handle:
            redirects = ingest.load_redirects(
                ingest.parse_sql_insert_rows(handle), pages
            )
        with (month_dir / "pagelinks.sql").open("rb") as handle:
            snapshots[lang] = graph.build_snapshot(
                pages,
                redirects,
                ingest.iter_raw_links(ingest.parse_sql_insert_rows(handle)),
                language=lang,
                month=month,
            )
        page_tables[lang] = pages

    with (root / "sitelinks.tsv").open(encoding="utf-8") as handle:
        index = ingest.load_sitelinks(ingest.read_sitelinks_tsv(handle))
    for lang in languages:
        index.attach_page_ids(lang, page_tables[lang].id_by_title)

    docs = []
    docs_text = (root / "aa" / "docs.jsonl").read_text(encoding="utf-8")
    for line in docs_text.splitlines():
        raw = json.loads(line)
        doc = candidates.AnnotatedDocument(
            language="aa",
            page_id=int(raw["page_id"]),
            text=raw["text"],
            existing_link_spans=tuple(
                (int(a), int(b), int(t)) for a, b, t in raw.get("links", ())
            ),
        )
        doc.validate()
        docs.append(doc)

snapshot = snapshots["aa"]
titles = {pid: page.title for pid, page in page_tables["aa"].by_id.items()}
orphan_ids = sorted(graph.orphans(snapshot))
print(f"aa orphans: {', '.join(titles[p] for p in orphan_ids)}\n")

stats = candidates.CandidateStats()
per_orphan = {}
for orphan in orphan_ids:
    found = candidates.findlink_candidates(orphan, titles[orphan], docs, snapshot)
    found += candidates.crosslingual_candidates(
        orphan, "aa", snapshots, index, stats=stats
    )
    per_orphan[orphan] = found
    for cand in found:
        if cand.method == candidates.FINDLINK:
            where = ", ".join(f"bytes {a}-{b}" for a, b in cand.evidence)
        else:
            where = "links it in " + ", ".join(cand.evidence)
        print(
            f"  {titles[cand.source_page_id]} -> {titles[orphan]}"
            f"  [{cand.method}: {where}]"
        )

report = candidates.coverage_report(snapshot, per_orphan)
print(
    f"\n{report.n_with_ge1} of {report.n_orphans} orphans"
    " have at least one proposed source"
)
print(f"orphans without an item id: {stats.n_no_qid}")
