"""Cross-language matched pairs and the visibility effect estimator.

The identification idea: an article that exists in two languages and is
an orphan in both, then gains its first incoming link in exactly one of
them, gives a treated observation (the newly linked version) and a
control (the still-orphaned version of the same article elsewhere).
:func:`build_pairs` finds such pairs around a treatment month;
:func:`assemble_panel` attaches log pageview outcomes over a symmetric
window excluding the treatment month itself; :func:`fit_did` estimates

    log_views = b0 + b1*treated + b2*after + b3*treated*after + e

by ordinary least squares with both classical and pair-clustered
standard errors.  The reverse direction (orphanization, links lost)
is symmetric.

The month label of a snapshot is its dump date, i.e. the state at the
start of that month.  Treatment during calendar month m is therefore
the difference between the snapshots labeled m and m+1, the pre window
is months m-3..m-1 and the post window m+1..m+3.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .graph import (
    LinkSnapshot,
    deorphanizing_events,
    link_delta,
    orphanizing_events,
    orphans,
)
from .ingest import PageviewTable, QidIndex
from .months import month_add

logger = logging.getLogger(__name__)

FORWARD = "forward"
REVERSE = "reverse"
TREATED = "treated"
CONTROL = "control"

DEFAULT_WINDOW = 3
DEFAULT_MIN_PAIRS = 30
Z_95 = 1.96


class DegeneratePanelError(ValueError):
    """A panel missing one of the four design cells."""


class RankDeficientError(ValueError):
    """A design matrix with linearly dependent columns."""

    def __init__(self, columns: list[str]):
        super().__init__(f"collinear design columns: {', '.join(columns)}")
        self.columns = columns


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
    """One row of ``panel.tsv``; the fields are its columns."""

    pair_id: str
    role: str
    language: str
    month: str
    period_index: int
    log_views: float
    referrer_class: str


def _mean_pre_log_views(
    pageviews: PageviewTable,
    language: str,
    page_id: int,
    treatment_month: str,
    window: int,
) -> float:
    total = 0.0
    for offset in range(-window, 0):
        month = month_add(treatment_month, offset)
        total += math.log1p(pageviews.views(language, page_id, month, "all"))
    return total / window


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

    Forward: treated articles are orphans (at month m) that gained an
    incoming link during m; eligible controls are other languages where
    the same item exists and stays an orphan at both m and m+1.
    Reverse: treated articles lost their last incoming link during m;
    controls keep a positive in-degree at both m and m+1.

    With ``pageviews`` given, the control language whose article has
    the closest pre-treatment mean log view count is chosen, ties and
    the no-pageview case falling back to lexicographic order.  Treated
    articles without a qid or without any eligible control are dropped
    and counted.
    """
    if direction not in (FORWARD, REVERSE):
        raise ValueError(f"unknown direction {direction!r}")
    next_month = month_add(treatment_month, 1)
    usable = {
        lang: months
        for lang, months in snapshots.items()
        if treatment_month in months and next_month in months
    }
    result = PairBuildResult(pairs=[])
    for lang in sorted(usable):
        before = usable[lang][treatment_month]
        after = usable[lang][next_month]
        if direction == FORWARD:
            delta = link_delta(before, after)
            events = deorphanizing_events(delta, orphans(before))
        else:
            events = orphanizing_events(before, after)
        for event in events:
            qid = qid_index.qid_for_page(lang, event.page_id)
            if qid is None:
                result.n_dropped_no_qid += 1
                continue
            eligible = []
            for other in sorted(usable):
                if other == lang:
                    continue
                page = qid_index.page_for_qid(other, qid)
                if page is None:
                    continue
                s0 = usable[other][treatment_month]
                s1 = usable[other][next_month]
                if not (s0.has_article(page) and s1.has_article(page)):
                    continue
                if direction == FORWARD:
                    ok = s0.in_degree_of(page) == 0 and s1.in_degree_of(page) == 0
                else:
                    ok = s0.in_degree_of(page) > 0 and s1.in_degree_of(page) > 0
                if ok:
                    eligible.append((other, page))
            if not eligible:
                result.n_dropped_no_control += 1
                continue
            if pageviews is not None and len(eligible) > 1:
                treated_level = _mean_pre_log_views(
                    pageviews, lang, event.page_id, treatment_month, window
                )
                eligible.sort(
                    key=lambda item: (
                        abs(
                            _mean_pre_log_views(
                                pageviews, item[0], item[1], treatment_month, window
                            )
                            - treated_level
                        ),
                        item[0],
                    )
                )
            control_language = eligible[0][0]
            result.pairs.append(
                PairAssignment(
                    pair_id=f"{direction}:{treatment_month}:{qid}:{lang}",
                    qid=qid,
                    treated_language=lang,
                    control_language=control_language,
                    treatment_month=treatment_month,
                    direction=direction,
                )
            )
    result.pairs.sort(key=lambda p: p.pair_id)
    return result


def assemble_panel(
    pairs: Iterable[PairAssignment],
    pageviews: PageviewTable,
    qid_index: QidIndex,
    *,
    window: int = DEFAULT_WINDOW,
    referrer_class: str = "all",
) -> list[PanelObservation]:
    """Attach outcomes: one observation per pair, role and window month.

    Months run from -window to +window around the treatment month,
    which is itself excluded.  The outcome is ln(1 + views); months
    with no pageview row count as zero views.
    """
    panel: list[PanelObservation] = []
    offsets = [k for k in range(-window, window + 1) if k != 0]
    for pair in pairs:
        for role, language in (
            (TREATED, pair.treated_language),
            (CONTROL, pair.control_language),
        ):
            page = qid_index.page_for_qid(language, pair.qid)
            if page is None:
                raise KeyError(
                    f"pair {pair.pair_id}: no page for {pair.qid} in {language}"
                )
            for offset in offsets:
                month = month_add(pair.treatment_month, offset)
                views = pageviews.views(language, page, month, referrer_class)
                panel.append(
                    PanelObservation(
                        pair_id=pair.pair_id,
                        role=role,
                        language=language,
                        month=month,
                        period_index=offset,
                        log_views=math.log1p(views),
                        referrer_class=referrer_class,
                    )
                )
    panel.sort(key=lambda o: (o.pair_id, o.referrer_class, o.role, o.period_index))
    return panel


@dataclass(frozen=True)
class TermEstimate:
    name: str
    coef: float
    se_classical: float
    se_clustered: float
    t_stat: float
    p_value: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        def clean(v: float) -> float | None:
            return None if (isinstance(v, float) and not math.isfinite(v)) else v

        return {
            "coef": clean(self.coef),
            "se_classical": clean(self.se_classical),
            "se_clustered": clean(self.se_clustered),
            "t_stat": clean(self.t_stat),
            "p_value": clean(self.p_value),
            "ci_low": clean(self.ci_low),
            "ci_high": clean(self.ci_high),
        }


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
            "residual_variance": (
                None if math.isnan(self.residual_variance) else self.residual_variance
            ),
            "terms": {name: term.to_dict() for name, term in self.terms.items()},
        }
        if self.effect is not None:
            out["effect_percent"] = self.effect_percent
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
            name=name,
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


def _panel_arrays(
    panel: Sequence[PanelObservation],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    treated = np.fromiter((o.role == TREATED for o in panel), dtype=float, count=len(panel))
    after = np.fromiter((o.period_index > 0 for o in panel), dtype=float, count=len(panel))
    y = np.fromiter((o.log_views for o in panel), dtype=float, count=len(panel))
    clusters = np.array([o.pair_id for o in panel])
    return treated, after, y, clusters


def _fit_pooled(panel: Sequence[PanelObservation]) -> DidEstimate:
    treated, after, y, clusters = _panel_arrays(panel)
    if len(set(treated)) < 2 or len(set(after)) < 2:
        raise DegeneratePanelError("panel does not cover both roles and both periods")
    X = np.column_stack([np.ones(len(y)), treated, after, treated * after])
    return _ols(X, y, clusters, ["intercept", "treated", "after", "treated_after"])


def _fit_by_month(panel: Sequence[PanelObservation]) -> DidEstimate:
    treated, _, y, clusters = _panel_arrays(panel)
    periods = sorted({o.period_index for o in panel})
    if -1 not in periods:
        raise DegeneratePanelError("reference period -1 missing from panel")
    period_values = np.fromiter(
        (o.period_index for o in panel), dtype=int, count=len(panel)
    )
    columns = [np.ones(len(y)), treated]
    names = ["intercept", "treated"]
    for period in periods:
        if period == -1:
            continue  # reference period, effect pinned at zero
        dummy = (period_values == period).astype(float)
        columns.append(dummy)
        names.append(f"period[{period:+d}]")
    for period in periods:
        if period == -1:
            continue
        dummy = (period_values == period).astype(float)
        columns.append(treated * dummy)
        names.append(f"treated:period[{period:+d}]")
    return _ols(np.column_stack(columns), y, clusters, names)


def _treated_language_by_pair(panel: Sequence[PanelObservation]) -> dict[str, str]:
    out: dict[str, str] = {}
    for obs in panel:
        if obs.role == TREATED:
            out[obs.pair_id] = obs.language
    return out


def fit_did(
    panel: Sequence[PanelObservation],
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

    Groups that come out empty are skipped with a warning.
    """
    if not panel:
        raise DegeneratePanelError("empty panel")
    if spec == "pooled":
        return _fit_pooled(panel)
    if spec == "by_month":
        return _fit_by_month(panel)
    if spec == "by_language":
        language_of = _treated_language_by_pair(panel)
        pairs_per_language: dict[str, set[str]] = {}
        for pair_id, language in language_of.items():
            pairs_per_language.setdefault(language, set()).add(pair_id)
        out: dict[str, DidEstimate] = {}
        for language in sorted(pairs_per_language):
            pair_ids = pairs_per_language[language]
            if len(pair_ids) < min_pairs:
                continue
            group = [o for o in panel if o.pair_id in pair_ids]
            out[language] = _fit_pooled(group)
        if not out:
            logger.warning(
                "by_language: no language reaches min_pairs=%d", min_pairs
            )
        return out
    if spec == "by_referrer":
        classes = sorted({o.referrer_class for o in panel} - {"all"})
        out = {}
        for cls in classes:
            group = [o for o in panel if o.referrer_class == cls]
            if not group:
                continue
            out[cls] = _fit_pooled(group)
        if not out:
            logger.warning("by_referrer: no referrer classes beyond 'all' in panel")
        return out
    raise ValueError(f"unknown spec {spec!r}")
