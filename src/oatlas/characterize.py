"""Who the orphans are: feature tables and representation scores.

Given per-article features (bot creation, biography gender, topic
labels, quality, creation time) and an orphan set, this module answers
"is group x over- or under-represented among orphans?" via

    log_ratio = ln( P(x | orphan) / P(x) )

computed over the articles where the feature is defined.  Continuous
features (quality, age) are first binarized at the within-language
median; topic probabilities are binarized at 0.5 when the table is
built.

Per-wiki orphan and dead-end shares, plus a locally weighted regression
(:func:`lowess_fit`) for plotting share against wiki size, round out
the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .graph import LinkSnapshot, deadends, orphans
from .ingest import FeatureRecord, TOPIC_LABELS

TOPIC_THRESHOLD = 0.5

BINARY_FEATURES = (
    "bot_created",
    "is_woman_biography",
    "topic_culture",
    "topic_geography",
    "topic_history_society",
    "topic_stem",
    "high_quality",
    "old_article",
)


def binarize_by_median(values: Mapping[Hashable, float]) -> dict[Hashable, bool]:
    """Split values at their median: True for strictly greater.

    For an even count the lower of the two middle order statistics is
    the median, so ties and exact-median values land in the False
    bucket.
    """
    if not values:
        return {}
    ordered = sorted(values.values())
    median = ordered[(len(ordered) - 1) // 2]
    return {key: value > median for key, value in values.items()}


@dataclass
class FeatureTable:
    """Binary feature columns for one language's articles.

    ``columns`` maps feature name to ``{page_id: flag}``; a page absent
    from a column has the feature undefined there (only
    ``is_woman_biography`` is partial: it is defined for biographies).
    """

    language: str
    columns: dict[str, dict[int, bool]]

    @property
    def page_ids(self) -> set[int]:
        return set(self.columns.get("bot_created", {}))


def build_feature_table(
    records: Iterable[FeatureRecord],
    language: str,
    *,
    articles: set[int] | None = None,
) -> FeatureTable:
    """Binarize feature records into a :class:`FeatureTable`.

    Records for other languages are ignored, as are records outside
    ``articles`` when given.  Topic probabilities are thresholded at
    ``> 0.5``; quality and age are split at the within-language median
    (age via creation time: older than the median is True).
    """
    rows = [
        rec
        for rec in records
        if rec.language == language and (articles is None or rec.page_id in articles)
    ]
    columns: dict[str, dict[int, bool]] = {name: {} for name in BINARY_FEATURES}
    for rec in rows:
        columns["bot_created"][rec.page_id] = rec.bot_created
        if rec.is_woman_biography is not None:
            columns["is_woman_biography"][rec.page_id] = rec.is_woman_biography
        for label in TOPIC_LABELS:
            columns[f"topic_{label}"][rec.page_id] = (
                rec.topic_probabilities[label] > TOPIC_THRESHOLD
            )
    columns["high_quality"] = binarize_by_median(
        {rec.page_id: rec.quality_score for rec in rows}
    )
    # Age grows as creation time falls, so negate before splitting.
    columns["old_article"] = binarize_by_median(
        {rec.page_id: -float(rec.creation_timestamp) for rec in rows}
    )
    return FeatureTable(language=language, columns=columns)


class RepresentationScore(NamedTuple):
    """How one feature is represented among orphans versus all articles.

    One row of ``representation_scores.tsv``, whose columns are the
    fields (``n_articles`` is headed ``n_rows`` there).

    ``undefined`` is set (and ``log_ratio`` is NaN) when either
    probability has an empty or zero denominator; a zero orphan share
    against a positive overall share yields ``-inf``.
    """

    language: str
    feature: str
    p_x_given_o: float
    p_x: float
    log_ratio: float
    n_orphans: int
    n_articles: int
    undefined: bool = False


def representation_scores(
    orphan_ids: set[int], table: FeatureTable
) -> list[RepresentationScore]:
    """Score every feature column of ``table`` against the orphan set.

    For each feature only the articles where it is defined enter the
    denominators: ``p_x`` over all such articles, ``p_x_given_o`` over
    the orphans among them.
    """
    scores = []
    for feature in BINARY_FEATURES:
        column = table.columns.get(feature, {})
        n_articles = len(column)
        n_true = sum(1 for flag in column.values() if flag)
        orphan_rows = [pid for pid in column if pid in orphan_ids]
        n_orphans = len(orphan_rows)
        n_true_orphans = sum(1 for pid in orphan_rows if column[pid])
        assert n_true_orphans <= min(n_true, n_orphans)
        p_x = n_true / n_articles if n_articles else math.nan
        p_x_given_o = n_true_orphans / n_orphans if n_orphans else math.nan
        undefined = n_articles == 0 or n_orphans == 0 or p_x == 0.0
        if undefined:
            log_ratio = math.nan
        elif p_x_given_o == 0.0:
            log_ratio = -math.inf
        else:
            log_ratio = math.log(p_x_given_o / p_x)
        scores.append(
            RepresentationScore(
                language=table.language,
                feature=feature,
                p_x_given_o=p_x_given_o,
                p_x=p_x,
                log_ratio=log_ratio,
                n_orphans=n_orphans,
                n_articles=n_articles,
                undefined=undefined,
            )
        )
    return scores


class WikiSummary(NamedTuple):
    """One row of ``wiki_summary.tsv``; the fields are its columns."""

    language: str
    n_articles: int
    orphan_fraction: float
    deadend_fraction: float


def orphan_fraction_by_wiki(
    snapshots: Iterable[LinkSnapshot],
) -> list[WikiSummary]:
    """Per-wiki orphan and dead-end shares, largest wikis first."""
    summaries = []
    for snapshot in snapshots:
        n = snapshot.n_articles
        summaries.append(
            WikiSummary(
                language=snapshot.language,
                n_articles=n,
                orphan_fraction=len(orphans(snapshot)) / n if n else math.nan,
                deadend_fraction=len(deadends(snapshot)) / n if n else math.nan,
            )
        )
    summaries.sort(key=lambda s: (-s.n_articles, s.language))
    return summaries


def lowess_fit(
    x: Sequence[float],
    y: Sequence[float],
    *,
    f: float = 0.67,
    iterations: int = 2,
) -> np.ndarray:
    """Locally weighted linear regression (tricube kernel, bisquare
    robustness), returning the smoothed value at every input point.

    For each point the ``ceil(f * n)`` nearest neighbours by |x - x_i|
    get tricube weights ``(1 - (d / d_max)^3)^3``; a weighted line is
    fitted and evaluated at x_i.  Two robustness passes down-weight
    large residuals by the bisquare of r / (6 * median|r|).  When a
    neighbourhood is degenerate (zero x spread or weights), the fit
    falls back to the weighted local mean.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    n = len(xs)
    if n != len(ys):
        raise ValueError("x and y lengths differ")
    if n < 3:
        raise ValueError("need at least 3 points")
    if not 0.0 < f <= 1.0:
        raise ValueError(f"bandwidth fraction {f} outside (0, 1]")
    q = math.ceil(f * n)
    robustness = np.ones(n)
    fitted = np.empty(n)
    for _ in range(iterations + 1):
        for i in range(n):
            dist = np.abs(xs - xs[i])
            neighbors = np.argsort(dist, kind="stable")[:q]
            d_max = dist[neighbors[-1]]
            if d_max > 0.0:
                w = (1.0 - (dist[neighbors] / d_max) ** 3) ** 3
                np.clip(w, 0.0, None, out=w)
            else:
                w = np.ones(q)
            w *= robustness[neighbors]
            xn = xs[neighbors]
            yn = ys[neighbors]
            sw = w.sum()
            if sw <= 0.0:
                fitted[i] = yn.mean()
                continue
            mx = (w * xn).sum() / sw
            varx = (w * (xn - mx) ** 2).sum()
            if varx <= 1e-12 * max(1.0, mx * mx):
                fitted[i] = (w * yn).sum() / sw
                continue
            my = (w * yn).sum() / sw
            slope = (w * (xn - mx) * (yn - my)).sum() / varx
            fitted[i] = my + slope * (xs[i] - mx)
        residuals = ys - fitted
        s = np.median(np.abs(residuals))
        # A zero residual scale means the surviving points are fitted
        # exactly; keep the current weights instead of recomputing them,
        # which would re-admit any excluded outlier and oscillate.
        if s > 0.0:
            u = np.clip(residuals / (6.0 * s), -1.0, 1.0)
            robustness = (1.0 - u * u) ** 2
    return fitted
