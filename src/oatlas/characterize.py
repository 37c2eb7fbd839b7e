"""Who the orphans are: feature tables and representation scores.

Given per-article features (bot creation, biography gender, topic
labels, quality, creation time) and an orphan set, this module answers
"is group x over- or under-represented among orphans?" via

    log_ratio = ln( P(x | orphan) / P(x) )

computed over the articles where the feature is defined.  The feature
table holds the flags as boolean arrays, a page listed twice keeping
its last row; quality and age are split at the within-language lower
median, and topic probabilities at 0.5.

Per-wiki orphan and dead-end shares, plus a locally weighted regression
(:func:`lowess_fit`) for plotting share against wiki size, round out
the module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import LinkSnapshot, _id_array
# Unused here: bench/tracing.py wraps this name in this module.
from .graph import orphans  # noqa: F401
from .ingest import TOPIC_LABELS, FeatureRecord, feature_values

TOPIC_THRESHOLD = 0.5
_TOPIC_PROBABILITIES = operator.itemgetter(*TOPIC_LABELS)

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


def split_at_median(values: np.ndarray) -> np.ndarray:
    """Split values at their median: True for strictly greater.

    For an even count the lower of the two middle order statistics is
    the median, so ties and exact-median values land in the False
    bucket.
    """
    if not len(values):
        return np.zeros(0, dtype=bool)
    k = (len(values) - 1) // 2
    return values > np.partition(values, k)[k]


@dataclass
class FeatureTable:
    """One language's binary features as arrays.

    ``page_ids`` holds sorted page ids; ``flags`` and ``defined`` have a
    row per page and a column per :data:`BINARY_FEATURES` name.  Only the
    ``is_woman_biography`` of non-biographies is undefined (and False).
    """

    language: str
    page_ids: np.ndarray
    flags: np.ndarray
    defined: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureTable):
            return NotImplemented
        return (
            self.language == other.language
            and np.array_equal(self.page_ids, other.page_ids)
            and np.array_equal(self.flags, other.flags)
            and np.array_equal(self.defined, other.defined)
        )

    @classmethod
    def from_columns(
        cls,
        language: str,
        page_ids: np.ndarray,
        values: np.ndarray,
        articles: Collection[int] | None = None,
    ) -> FeatureTable:
        """Binarize one language's feature columns.

        ``page_ids`` and ``values`` are an :class:`~oatlas.ingest.FeatureColumns`
        pair, rows in line order.  Rows outside ``articles`` (a set or an
        array) when given are ignored; a page listed twice keeps its last
        row.  Topics are cut at ``> 0.5``; quality and age at the lower
        median.
        """
        rows = np.arange(len(page_ids) - 1, -1, -1)
        if articles is not None:
            rows = rows[np.isin(page_ids[rows], _id_array(articles))]
        # np.unique indexes the first of equal ids: over reversed rows, the last.
        page_ids, last = np.unique(page_ids[rows], return_index=True)
        values = values[rows[last]]
        bot, woman, *topics, quality, age = values.T
        flags = np.column_stack(
            [bot > 0, woman > 0, *(p > TOPIC_THRESHOLD for p in topics)]
            + [split_at_median(quality), split_at_median(age)]
        )
        return cls(language, page_ids, flags, defined=~np.isnan(values))


def build_feature_table(
    records: Iterable[FeatureRecord],
    language: str,
    *,
    articles: Collection[int] | None = None,
) -> FeatureTable:
    """:meth:`FeatureTable.from_columns` of the records of ``language``."""
    rows = [
        (rec.page_id, rec.bot_created, rec.is_woman_biography)
        + _TOPIC_PROBABILITIES(rec.topic_probabilities)
        + (rec.quality_score, rec.creation_timestamp)
        for rec in records
        if rec.language == language
    ]
    page_ids, *columns = zip(*rows) if rows else [()] * 9
    return FeatureTable.from_columns(
        language, np.array(page_ids, dtype=np.int64), feature_values(columns), articles
    )


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
    orphan_ids: Collection[int], table: FeatureTable
) -> list[RepresentationScore]:
    """Score every feature column of ``table`` against the orphan set.

    For each feature only the articles where it is defined enter the
    denominators: ``p_x`` over all such articles, ``p_x_given_o`` over
    the orphans among them.
    """
    orphan = np.isin(table.page_ids, _id_array(orphan_ids))
    masks = (table.defined, table.flags, table.defined[orphan], table.flags[orphan])
    counts = zip(BINARY_FEATURES, *(mask.sum(axis=0).tolist() for mask in masks))
    scores = []
    for feature, n_articles, n_true, n_orphans, n_true_orphans in counts:
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
        n_orphans = int(np.count_nonzero(snapshot.in_degree_array() == 0))
        n_deadends = int(np.count_nonzero(snapshot.out_degree_array() == 0))
        summaries.append(
            WikiSummary(
                language=snapshot.language,
                n_articles=n,
                orphan_fraction=n_orphans / n if n else math.nan,
                deadend_fraction=n_deadends / n if n else math.nan,
            )
        )
    summaries.sort(key=lambda s: (-s.n_articles, s.language))
    return summaries


def _median(values: np.ndarray) -> float:
    """``np.median`` of a float array, bit for bit.

    ``np.median`` imports ``numpy.ma`` into the process, for 15 ms and
    1.3 MB.  Like it, this returns NaN if any value is NaN, and else the
    mean of the middle value or values: their sum, which starts from 0.0
    and so turns -0.0 into 0.0, divided by their count.
    """
    n = len(values)
    if np.isnan(values).any():
        return math.nan
    middle = np.partition(values, [(n - 1) // 2, n // 2])
    if n % 2:
        return float(middle[n // 2]) + 0.0
    return (float(middle[n // 2 - 1]) + float(middle[n // 2]) + 0.0) / 2


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
        s = _median(np.abs(residuals))
        # A zero residual scale means the surviving points are fitted
        # exactly; keep the current weights instead of recomputing them,
        # which would re-admit any excluded outlier and oscillate.
        if s > 0.0:
            u = np.clip(residuals / (6.0 * s), -1.0, 1.0)
            robustness = (1.0 - u * u) ** 2
    return fitted
