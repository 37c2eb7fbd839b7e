"""Cross-language matched pairs and the visibility effect estimator.

The identification idea: an article that exists in two languages and is
an orphan in both, then gains its first incoming link in exactly one of
them, gives a treated observation (the newly linked version) and a
control (the still-orphaned version of the same article elsewhere).
:func:`build_pairs` finds such pairs around a treatment month;
:func:`assemble_panel` attaches log pageview outcomes over a symmetric
window excluding the treatment month itself, looking up the views of
all its rows in one gather from the pageview table, and returns them as
the columns of a :class:`Panel`; :func:`fit_did` estimates

    log_views = b0 + b1*treated + b2*after + b3*treated*after + e

by ordinary least squares with both classical and pair-clustered
standard errors.  The reverse direction (orphanization, links lost)
is symmetric.

Each spec of :func:`fit_did` fits one design on a subset of the rows:
intercept, ``treated``, time dummies and each dummy times ``treated``.
The time dummy is ``after``; ``by_month`` has one per period but the
reference period -1.  The per-language and per-referrer subsets are
masks over one group key.

The month label of a snapshot is its dump date, i.e. the state at the
start of that month.  Treatment during calendar month m is therefore
the difference between the snapshots labeled m and m+1, the pre window
is months m-3..m-1 and the post window m+1..m+3.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import DEFAULT_MIN_PAIRS, DEFAULT_WINDOW
from .graph import LinkSnapshot, _sorted_unique, orphan_status
# Unused here: bench/tracing.py wraps these names in this module.
from .graph import deorphanizing_events, link_delta, orphanizing_events, orphans  # noqa: F401
from .ingest import PageviewTable, QidIndex, _positions
from .months import month_add, month_at, month_index

logger = logging.getLogger(__name__)

FORWARD = "forward"
REVERSE = "reverse"
TREATED = "treated"
CONTROL = "control"

Z_95 = 1.96


class DegeneratePanelError(ValueError):
    """A panel missing one of the four design cells."""


class RankDeficientError(ValueError):
    """A design matrix with linearly dependent columns."""

    def __init__(self, columns: list[str]):
        super().__init__(f"collinear design columns: {', '.join(columns)}")
        self.columns = columns

    def __reduce__(self):
        # Rebuild from the constructor's argument, so the error pickles.
        return type(self), (self.columns,)


class PairAssignment(NamedTuple):
    """One row of ``pairs.tsv``; the fields are its columns."""

    pair_id: str
    qid: str
    treated_language: str
    control_language: str
    treatment_month: str
    direction: str


@dataclass
class PairBuildResult:
    pairs: list[PairAssignment]
    n_dropped_no_qid: int = 0
    n_dropped_no_control: int = 0


class PanelObservation(NamedTuple):
    """One row of ``panel.tsv``; the fields are its columns.

    The pipeline holds a panel as a :class:`Panel`; this row form is what
    iterating over one yields, and what :func:`fit_did` also accepts.
    """

    pair_id: str
    role: str
    language: str
    month: str
    period_index: int
    log_views: float
    referrer_class: str


def _codes(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values, and each value's place among them."""
    names = tuple(sorted(set(values)))
    place = {name: code for code, name in enumerate(names)}
    return names, np.fromiter(map(place.__getitem__, values), np.int32, len(values))


def _merged_codes(
    names: Sequence[tuple[str, ...]], codes: Sequence[np.ndarray]
) -> tuple[tuple[str, ...], np.ndarray]:
    """One set of sorted names for several (names, codes) columns, concatenated."""
    merged = tuple(sorted(set().union(*names)))
    place = {name: code for code, name in enumerate(merged)}
    recoded = [
        np.array([place[name] for name in part], dtype=np.int32)[column]
        for part, column in zip(names, codes)
    ]
    return merged, np.concatenate(recoded)


# Rows turned into text at a time when a panel is iterated over.
_ROWS_PER_BLOCK = 1024


@dataclass(eq=False)
class Panel:
    """The rows of a panel as columns, one array entry per row.

    ``pair``, ``language`` and ``referrer`` are int32 codes into the
    sorted names ``pair_ids``, ``languages`` and ``referrers``.
    ``treated`` is the role as a flag, ``month`` holds int32
    :func:`~oatlas.months.month_index` values, ``period`` the int64
    offset from the treatment month and ``log_views`` the float64
    outcome.  Iterating yields :class:`PanelObservation` rows.
    """

    pair_ids: tuple[str, ...]
    languages: tuple[str, ...]
    referrers: tuple[str, ...]
    pair: np.ndarray
    treated: np.ndarray
    language: np.ndarray
    month: np.ndarray
    period: np.ndarray
    log_views: np.ndarray
    referrer: np.ndarray

    # The fields with one entry per row.
    _ROW_COLUMNS = (
        "pair",
        "treated",
        "language",
        "month",
        "period",
        "log_views",
        "referrer",
    )

    @classmethod
    def from_columns(
        cls,
        pair_id: Sequence[str],
        treated: Sequence[bool],
        language: Sequence[str],
        month: Sequence[int],
        period: Sequence[int],
        log_views: Sequence[float],
        referrer_class: Sequence[str],
    ) -> Panel:
        """A panel from the columns of ``panel.tsv``, with roles as flags
        and months as month indices."""
        pair_ids, pair = _codes(pair_id)
        languages, language_code = _codes(language)
        referrers, referrer = _codes(referrer_class)
        return cls(
            pair_ids,
            languages,
            referrers,
            pair,
            np.array(treated, dtype=bool),
            language_code,
            np.array(month, dtype=np.int32),
            np.array(period, dtype=np.int64),
            np.array(log_views, dtype=float),
            referrer,
        )

    @classmethod
    def from_observations(cls, observations: Sequence[PanelObservation]) -> Panel:
        """The panel of a list of rows, in their order."""
        columns = list(zip(*observations)) or [()] * len(PanelObservation._fields)
        pair_id, role, language, month, period, log_views, referrer_class = columns
        treated = [r == TREATED for r in role]
        index = {name: month_index(name) for name in set(month)}
        months = list(map(index.__getitem__, month))
        return cls.from_columns(
            pair_id, treated, language, months, period, log_views, referrer_class
        )

    @classmethod
    def concat(cls, panels: Sequence[Panel]) -> Panel:
        """The rows of ``panels`` in order, coded over all their names."""
        # An empty part gives the columns their types if ``panels`` is empty.
        parts = [cls.from_columns((), (), (), (), (), (), ()), *panels]
        pair_ids, pair = _merged_codes(
            [p.pair_ids for p in parts], [p.pair for p in parts]
        )
        languages, language = _merged_codes(
            [p.languages for p in parts], [p.language for p in parts]
        )
        referrers, referrer = _merged_codes(
            [p.referrers for p in parts], [p.referrer for p in parts]
        )
        return cls(
            pair_ids,
            languages,
            referrers,
            pair,
            np.concatenate([p.treated for p in parts]),
            language,
            np.concatenate([p.month for p in parts]),
            np.concatenate([p.period for p in parts]),
            np.concatenate([p.log_views for p in parts]),
            referrer,
        )

    def __len__(self) -> int:
        return len(self.pair)

    def sorted_rows(self) -> Panel:
        """The rows in ``panel.tsv`` order: by pair id, referrer class,
        role (control first) and period.  Rows that tie keep their order."""
        keys = (self.period, self.treated, self.referrer, self.pair)
        return self.take(np.lexsort(keys))

    def take(self, rows: np.ndarray | slice) -> Panel:
        """The panel of the selected rows (a mask, indices or a slice)."""
        columns = {name: getattr(self, name)[rows] for name in self._ROW_COLUMNS}
        return Panel(self.pair_ids, self.languages, self.referrers, **columns)

    def text_blocks(self, size: int) -> Iterator[list[list]]:
        """The rows as the cells of ``panel.tsv``, ``size`` rows at a time:
        one list per column, text as str and numbers as int and float."""
        # From the array: a set of the Python ints would hold 36 B per row.
        months = _sorted_unique(self.month).tolist()
        month_name = {index: month_at(index) for index in months}
        for start in range(0, len(self), size):
            rows = slice(start, start + size)
            yield [
                list(map(self.pair_ids.__getitem__, self.pair[rows].tolist())),
                [TREATED if t else CONTROL for t in self.treated[rows].tolist()],
                list(map(self.languages.__getitem__, self.language[rows].tolist())),
                list(map(month_name.__getitem__, self.month[rows].tolist())),
                self.period[rows].tolist(),
                self.log_views[rows].tolist(),
                list(map(self.referrers.__getitem__, self.referrer[rows].tolist())),
            ]

    def __iter__(self) -> Iterator[PanelObservation]:
        for block in self.text_blocks(_ROWS_PER_BLOCK):
            yield from map(PanelObservation._make, zip(*block))


def build_pairs(
    snapshots: Mapping[str, Mapping[str, LinkSnapshot]],
    qid_index: QidIndex,
    treatment_month: str,
    direction: str = FORWARD,
    *,
    pageviews: PageviewTable | None = None,
    window: int = DEFAULT_WINDOW,
) -> PairBuildResult:
    """Match treated articles to same-item controls in other languages.

    ``snapshots`` maps language to month to snapshot and must cover the
    treatment month and the month after for every language considered.

    Forward: treated articles are orphans at month m with incoming links
    at m+1; controls are the same item's articles in other languages
    that are orphans at both m and m+1.  Reverse: treated articles have
    inlinks at m and none at m+1; controls have inlinks at both.  Both
    come from one in-degree test per language (:func:`orphan_status`).
    Per treated language, one item lookup covers its events, and one
    page lookup and one pageview gather per other language the controls.

    With ``pageviews`` given, the control language whose article has
    the closest pre-treatment mean log view count is chosen, ties and
    the no-pageview case falling back to lexicographic order.  Treated
    articles without a qid or without any eligible control are dropped
    and counted.
    """
    if direction not in (FORWARD, REVERSE):
        raise ValueError(f"unknown direction {direction!r}")
    next_month = month_add(treatment_month, 1)
    languages = sorted(
        lang
        for lang, months in snapshots.items()
        if treatment_month in months and next_month in months
    )
    crossed, stable = {}, {}
    for lang in languages:
        shared, linked_before, linked_after = orphan_status(
            snapshots[lang][treatment_month], snapshots[lang][next_month]
        )
        starts = linked_before == (direction == REVERSE)
        stays = linked_after == linked_before
        crossed[lang] = shared[starts & ~stays]
        stable[lang] = shared[starts & stays]
    if pageviews is None:
        pageviews = PageviewTable()  # every level 0: the first language wins
    start = month_index(treatment_month)
    months = np.arange(start - window, start)

    def pre_level(language: str, pages: np.ndarray) -> np.ndarray:
        """Mean ln(1 + views) of each page over the pre window.  The terms
        are added from month -window to -1; that order fixes the bits."""
        views = pageviews.gather(
            itertools.repeat(language, len(pages) * window),
            np.repeat(pages, window),
            np.tile(months, len(pages)),
        )
        total = np.zeros(len(pages))
        for logs in _log1p(views).reshape(len(pages), window).T:
            total += logs
        return total / window

    result = PairBuildResult(pairs=[])
    for lang in languages:
        items = qid_index.items_of(lang, crossed[lang])
        known = items >= 0
        result.n_dropped_no_qid += int(np.count_nonzero(~known))
        items = items[known]
        treated_level = pre_level(lang, crossed[lang][known])
        best = np.full(len(items), -1)  # the control language's place
        closest = np.full(len(items), np.inf)
        for code, other in enumerate(languages):
            if other == lang:
                continue
            pages = qid_index.pages_of(other, items)
            gap = np.abs(pre_level(other, pages) - treated_level)
            # Strictly closer only: a tie keeps the earlier language.
            better = (_positions(stable[other], pages) >= 0) & (gap < closest)
            best[better], closest[better] = code, gap[better]
        chosen = best >= 0
        result.n_dropped_no_control += int(np.count_nonzero(~chosen))
        for qid, code in zip(qid_index.qids_of(items[chosen]), best[chosen].tolist()):
            pair_id = f"{direction}:{treatment_month}:{qid}:{lang}"
            result.pairs.append(
                PairAssignment(
                    pair_id, qid, lang, languages[code], treatment_month, direction
                )
            )
    result.pairs.sort(key=lambda p: p.pair_id)
    return result


def _log1p(counts: np.ndarray) -> np.ndarray:
    """``math.log1p`` of each count, computed once per distinct count.

    Not ``np.log1p``: it differs from ``math.log1p`` in the last bit for
    some counts (2 is one), and the reports would change.
    """
    distinct, inverse = np.unique(counts, return_inverse=True)
    logs = np.array([math.log1p(count) for count in distinct.tolist()], dtype=float)
    return logs[inverse]


def assemble_panel(
    pairs: Iterable[PairAssignment],
    pageviews: PageviewTable,
    qid_index: QidIndex,
    *,
    window: int = DEFAULT_WINDOW,
    referrer_class: str = "all",
) -> Panel:
    """Attach outcomes: one row per pair, role and window month.

    Months run from -window to +window around the treatment month,
    which is itself excluded.  The outcome is ln(1 + views); months
    with no pageview row count as zero views.  The views of all rows are
    looked up in one gather.  The rows are sorted by pair id, role and
    period; rows that tie keep the order of ``pairs``.
    """
    offsets = [k for k in range(-window, window + 1) if k != 0]
    # One member per pair and role, in input order, treated before control.
    pairs = list(pairs)
    pair_ids = [pair.pair_id for pair in pairs for _ in (TREATED, CONTROL)]
    qids = [pair.qid for pair in pairs for _ in (TREATED, CONTROL)]
    languages = [
        lang for p in pairs for lang in (p.treated_language, p.control_language)
    ]
    treated = np.tile([True, False], len(pairs))
    language_names, language = _codes(languages)
    items = qid_index.codes_of(qids)
    pages = np.full(len(items), -1)
    for code, name in enumerate(language_names):
        rows = language == code
        pages[rows] = qid_index.pages_of(name, items[rows])
    missing = np.flatnonzero(pages < 0)
    if len(missing):
        i = missing[0]
        raise KeyError(f"pair {pair_ids[i]}: no page for {qids[i]} in {languages[i]}")
    start_of = {m: month_index(m) for m in {p.treatment_month for p in pairs}}
    starts = [start_of[p.treatment_month] for p in pairs for _ in (TREATED, CONTROL)]
    width = len(offsets)
    period = np.tile(np.array(offsets, dtype=np.int64), len(pages))
    month = np.repeat(np.array(starts, dtype=np.int64), width) + period
    views = pageviews.gather(
        np.repeat(np.array(languages, dtype=object), width),
        np.repeat(pages, width),
        month,
        referrer_class,
    )
    pair_names, pair = _codes(pair_ids)
    panel = Panel(
        pair_ids=pair_names,
        languages=language_names,
        referrers=(referrer_class,),
        pair=np.repeat(pair, width),
        treated=np.repeat(treated, width),
        language=np.repeat(language, width),
        month=month.astype(np.int32),
        period=period,
        log_views=_log1p(views),
        referrer=np.zeros(len(period), dtype=np.int32),
    )
    return panel.sorted_rows()


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN or infinity: an undefined estimate is null."""
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class TermEstimate:
    coef: float
    se_classical: float
    se_clustered: float
    t_stat: float
    p_value: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {key: _finite_or_none(value) for key, value in vars(self).items()}


@dataclass
class DidEstimate:
    """OLS estimates for one difference-in-differences design.

    Inference (t statistics, p values, confidence intervals) uses the
    pair-clustered standard errors; the classical ones are reported for
    comparison.
    """

    terms: dict[str, TermEstimate]
    n_observations: int
    n_pairs: int
    residual_variance: float

    @property
    def effect(self) -> TermEstimate | None:
        return self.terms.get("treated_after")

    @property
    def effect_percent(self) -> float | None:
        est = self.effect
        return None if est is None else effect_percent(est.coef)

    def to_dict(self) -> dict:
        out = {
            "n_observations": self.n_observations,
            "n_pairs": self.n_pairs,
            "residual_variance": _finite_or_none(self.residual_variance),
            "terms": {name: term.to_dict() for name, term in self.terms.items()},
        }
        if self.effect is not None:
            out["effect_percent"] = _finite_or_none(self.effect_percent)
        return out


def effect_percent(coefficient: float) -> float:
    """Multiplicative effect implied by a log-outcome coefficient."""
    return math.exp(coefficient) - 1.0


def _ols(
    X: np.ndarray, y: np.ndarray, clusters: np.ndarray, names: list[str]
) -> DidEstimate:
    n, k = X.shape
    # One reduced QR gives the rank check, beta = R^-1 Q'y and
    # (X'X)^-1 = R^-1 R^-T, without forming X'X.
    q, r = np.linalg.qr(X)
    diag = np.zeros(k)
    diag[: min(n, k)] = np.abs(np.diag(r))
    tol = diag.max() * max(n, k) * np.finfo(float).eps
    collinear = np.flatnonzero(diag <= tol)
    if collinear.size:
        raise RankDeficientError([names[i] for i in collinear])
    r_inv = np.linalg.inv(r)
    beta = r_inv @ (q.T @ y)
    xtx_inv = r_inv @ r_inv.T
    residuals = y - X @ beta
    dof = n - k
    sigma2 = float(residuals @ residuals / dof) if dof > 0 else math.nan
    se_classical = (
        np.sqrt(np.clip(sigma2 * np.diag(xtx_inv), 0.0, None))
        if dof > 0
        else np.full(k, math.nan)
    )
    unique, inverse = np.unique(clusters, return_inverse=True)
    n_clusters = len(unique)
    if n_clusters > 1 and dof > 0:
        scores = np.zeros((n_clusters, k))
        np.add.at(scores, inverse, X * residuals[:, None])
        meat = scores.T @ scores
        correction = (n_clusters / (n_clusters - 1)) * ((n - 1) / dof)
        cov = correction * xtx_inv @ meat @ xtx_inv
        se_clustered = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    else:
        se_clustered = np.full(k, math.nan)
    terms = {}
    for i, name in enumerate(names):
        se = float(se_clustered[i])
        coef = float(beta[i])
        if se > 0 and math.isfinite(se):
            t = coef / se
            p = math.erfc(abs(t) / math.sqrt(2.0))
        else:
            t = math.nan
            p = math.nan
        terms[name] = TermEstimate(
            coef=coef,
            se_classical=float(se_classical[i]),
            se_clustered=se,
            t_stat=t,
            p_value=p,
            ci_low=coef - Z_95 * se,
            ci_high=coef + Z_95 * se,
        )
    return DidEstimate(
        terms=terms,
        n_observations=n,
        n_pairs=n_clusters,
        residual_variance=sigma2,
    )


def _fit(
    columns: tuple[np.ndarray, ...], rows: slice | np.ndarray, by_month: bool
) -> DidEstimate:
    """OLS of the one design (see the module docstring) on ``rows``."""
    treated, period, y, pair = (column[rows] for column in columns)
    if by_month:
        levels = _sorted_unique(period)
        if -1 not in levels:
            raise DegeneratePanelError("reference period -1 missing from panel")
        levels = levels[levels != -1]
        labels = [f"period[{k:+d}]" for k in levels]
        dummies = [period == k for k in levels]
        interactions = [f"treated:{label}" for label in labels]
    else:
        after = period > 0
        if any(c.all() or not c.any() for c in (treated, after)):
            raise DegeneratePanelError(
                "panel does not cover both roles and both periods"
            )
        labels, dummies, interactions = ["after"], [after], ["treated_after"]
    X = np.column_stack(
        [np.ones(len(y)), treated, *dummies, *(treated & d for d in dummies)]
    )
    return _ols(X, y, pair, ["intercept", "treated", *labels, *interactions])


def _first_seen_codes(codes: np.ndarray) -> np.ndarray:
    """Renumber ``codes`` 0, 1, ... in the order each first occurs."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(distinct))
    return rank[inverse]


def fit_did(
    panel: Panel | Sequence[PanelObservation],
    spec: str = "pooled",
    *,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> DidEstimate | dict[str, DidEstimate]:
    """Fit the difference-in-differences model on a panel.

    ``spec`` selects the design:

    * ``pooled``: the 2x2 model over the whole panel.
    * ``by_language``: one pooled fit per treated language with at
      least ``min_pairs`` pairs; returns a dict keyed by language.
    * ``by_month``: period dummies interacted with treatment, reference
      period -1; per-month effects are the ``treated:period[k]`` terms.
    * ``by_referrer``: one pooled fit per referrer class present in the
      panel other than ``all``; returns a dict keyed by class.

    Every spec fits the same design on a subset of the panel's rows.
    When no group qualifies the result is empty and a warning is logged.
    A list of :class:`PanelObservation` is converted to a :class:`Panel`
    first.
    """
    if not isinstance(panel, Panel):
        panel = Panel.from_observations(panel)
    if not len(panel):
        raise DegeneratePanelError("empty panel")
    if spec in ("pooled", "by_month"):
        key, groups = None, [None]
    elif spec == "by_language":
        # A pair belongs to the language of its treated article.
        language_of = np.full(len(panel.pair_ids), -1, dtype=np.int64)
        language_of[panel.pair[panel.treated]] = panel.language[panel.treated]
        key = language_of[panel.pair]
        n_pairs = np.bincount(language_of + 1, minlength=len(panel.languages) + 1)[1:]
        groups = np.flatnonzero(n_pairs >= min_pairs).tolist()
        names = panel.languages
        empty = f"by_language: no language reaches min_pairs={min_pairs}"
    elif spec == "by_referrer":
        key = panel.referrer
        present = np.bincount(key, minlength=len(panel.referrers)).tolist()
        groups = [g for g, n in enumerate(present) if n and panel.referrers[g] != "all"]
        names = panel.referrers
        empty = "by_referrer: no referrer classes beyond 'all' in panel"
    else:
        raise ValueError(f"unknown spec {spec!r}")
    if not groups:
        logger.warning(empty)
        return {}
    # Clusters are numbered in the order they first occur, as the rows
    # of the cluster score matrix, so the sums run in one fixed order.
    columns = (
        panel.treated,
        panel.period,
        panel.log_views,
        _first_seen_codes(panel.pair),
    )
    if key is None:
        return _fit(columns, slice(None), by_month=spec == "by_month")
    return {names[g]: _fit(columns, key == g, by_month=False) for g in groups}
