"""Walk one small wiki from SQL dumps to monthly orphan events.

Builds the bundled three-language fixture tree in a temporary
directory, parses one language's dumps for two consecutive months, and
prints what the link graph, the orphan set and the month-over-month
transitions look like from the library side.  Everything here is tiny
on purpose so the numbers can be checked by eye.
"""

import tempfile
from pathlib import Path

from oatlas import fixtures, graph, ingest

snapshots = {}
with tempfile.TemporaryDirectory(prefix="oatlas_demo_") as tmp:
    root = fixtures.golden_tree(Path(tmp))
    print(f"fixture tree: {root}")

    for month in fixtures.GOLDEN_MONTHS:
        month_dir = root / "aa" / month
        with (month_dir / "page.sql").open("rb") as handle:
            pages = ingest.load_page_table(ingest.parse_sql_insert_rows(handle))
        with (month_dir / "redirect.sql").open("rb") as handle:
            redirects = ingest.load_redirects(
                ingest.parse_sql_insert_rows(handle), pages
            )
        with (month_dir / "pagelinks.sql").open("rb") as handle:
            links = ingest.iter_raw_links(ingest.parse_sql_insert_rows(handle))
            snapshots[month] = graph.build_snapshot(
                pages, redirects, links, language="aa", month=month
            )

titles = {page_id: page.title for page_id, page in pages.by_id.items()}


def names(page_ids):
    return ", ".join(sorted(titles[p] for p in page_ids)) or "(none)"


for month, snap in snapshots.items():
    print(f"\naa {month}: {snap.n_articles} articles, {snap.n_edges} links")
    print(f"  orphans:   {names(graph.orphans(snap))}")
    print(f"  dead ends: {names(graph.deadends(snap))}")

before, after = (snapshots[m] for m in fixtures.GOLDEN_MONTHS)
delta = graph.link_delta(before, after)
print(f"\nbetween the two months: +{len(delta.added)} / -{len(delta.removed)} links")
for u, v in sorted(delta.added):
    print(f"  added    {titles[u]} -> {titles[v]}")
for u, v in sorted(delta.removed):
    print(f"  removed  {titles[u]} -> {titles[v]}")

# The two transitions the causal stage feeds on: an orphan gaining its
# first inlinks, and an article losing its last one.
for event in graph.deorphanizing_events(delta, graph.orphans(before)):
    print(
        f"\nde-orphaned: {titles[event.page_id]} "
        f"gained {event.new_inlink_count} inlink(s)"
    )
for event in graph.orphanizing_events(before, after):
    print(f"orphaned:    {titles[event.page_id]} lost its last inlink")
