"""Pair matching, panel assembly, and the DiD estimator.

The 2x2 fit has an exact algebraic oracle: a saturated model reproduces
cell means, so the interaction coefficient must equal the difference of
within-role mean changes.  Clustered standard errors are checked against
an explicit per-group loop written independently here.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import fixtures
from oatlas.causal import (
    CONTROL,
    DEFAULT_WINDOW,
    FORWARD,
    REVERSE,
    TREATED,
    DegeneratePanelError,
    PairAssignment,
    Panel,
    PanelObservation,
    RankDeficientError,
    assemble_panel,
    build_pairs,
    effect_percent,
    fit_did,
)
from oatlas.graph import LinkSnapshot
from oatlas.ingest import REFERRER_CLASSES, PageviewTable, QidIndex, load_pageviews
from oatlas.months import month_add

from .oracles import assemble_panel_oracle, build_pairs_oracle, fit_did_oracle

MONTH = "2023-05"
NEXT = "2023-06"


def _snap(lang, month, articles, edges):
    return LinkSnapshot.from_edges(lang, month, articles, edges)


def _index(entries):
    idx = QidIndex()
    for qid, lang, page in entries:
        idx.add(qid, lang, f"T{page}")
        idx.attach_page(qid, lang, page)
    return idx


def _views(rows):
    return load_pageviews([list(map(list, zip(*rows)))], strict=True)


# -- build_pairs ------------------------------------------------------------


def _forward_world():
    # xx pages 1..4 all orphans in May; page 4 links out to 1, 2 and 3
    # in June, so those three gained their first incoming link.
    snapshots = {
        "xx": {
            MONTH: _snap("xx", MONTH, [1, 2, 3, 4], []),
            NEXT: _snap("xx", NEXT, [1, 2, 3, 4], [(4, 1), (4, 2), (4, 3)]),
        },
        # 11 stays an orphan (eligible control), 13 already has a link.
        "yy": {
            MONTH: _snap("yy", MONTH, [11, 13, 19], [(19, 13)]),
            NEXT: _snap("yy", NEXT, [11, 13, 19], [(19, 13)]),
        },
        # 21 has an incoming link in both months: never eligible forward.
        "zz": {
            MONTH: _snap("zz", MONTH, [21, 29], [(29, 21)]),
            NEXT: _snap("zz", NEXT, [21, 29], [(29, 21)]),
        },
    }
    index = _index(
        [
            ("Q1", "xx", 1),
            ("Q1", "yy", 11),
            ("Q1", "zz", 21),
            ("Q3", "xx", 3),
            ("Q3", "yy", 13),
        ]
    )
    return snapshots, index


def test_forward_pairing_picks_still_orphaned_control():
    snapshots, index = _forward_world()
    result = build_pairs(snapshots, index, MONTH, FORWARD)
    assert [p.pair_id for p in result.pairs] == [f"forward:{MONTH}:Q1:xx"]
    pair = result.pairs[0]
    assert pair.qid == "Q1"
    assert pair.treated_language == "xx"
    assert pair.control_language == "yy"
    assert pair.treatment_month == MONTH
    assert pair.direction == FORWARD


def test_forward_pairing_counts_drops():
    snapshots, index = _forward_world()
    result = build_pairs(snapshots, index, MONTH, FORWARD)
    # page 2 has no item id; page 3's only sibling (yy:13) is linked.
    assert result.n_dropped_no_qid == 1
    assert result.n_dropped_no_control == 1


def test_language_without_next_month_is_unusable():
    snapshots, index = _forward_world()
    del snapshots["yy"][NEXT]
    result = build_pairs(snapshots, index, MONTH, FORWARD)
    # yy can no longer serve as Q1's control and zz is ineligible.
    assert result.pairs == []
    assert result.n_dropped_no_control == 2


def test_reverse_pairing_needs_lost_last_link_and_linked_control():
    snapshots = {
        # 31 loses its only incoming link; 35 goes 2 -> 1, not an event.
        "rr": {
            MONTH: _snap(
                "rr", MONTH, [31, 32, 33, 35], [(32, 31), (32, 35), (33, 35)]
            ),
            NEXT: _snap("rr", NEXT, [31, 32, 33, 35], [(32, 35)]),
        },
        # ss keeps 41 linked in both months: eligible reverse control.
        "ss": {
            MONTH: _snap("ss", MONTH, [41, 42], [(42, 41)]),
            NEXT: _snap("ss", NEXT, [41, 42], [(42, 41)]),
        },
        # tt:51 is an orphan, so it cannot anchor a reverse control.
        "tt": {
            MONTH: _snap("tt", MONTH, [51], []),
            NEXT: _snap("tt", NEXT, [51], []),
        },
    }
    index = _index(
        [
            ("Q31", "rr", 31),
            ("Q31", "ss", 41),
            ("Q31", "tt", 51),
            ("Q35", "rr", 35),
            ("Q35", "ss", 42),
        ]
    )
    result = build_pairs(snapshots, index, MONTH, REVERSE)
    assert [(p.qid, p.control_language) for p in result.pairs] == [("Q31", "ss")]
    assert result.pairs[0].pair_id == f"reverse:{MONTH}:Q31:rr"
    assert result.n_dropped_no_control == 0


def _two_control_world():
    snapshots = {
        "ww": {
            MONTH: _snap("ww", MONTH, [5, 6], []),
            NEXT: _snap("ww", NEXT, [5, 6], [(6, 5)]),
        },
        "pa": {
            MONTH: _snap("pa", MONTH, [61], []),
            NEXT: _snap("pa", NEXT, [61], []),
        },
        "pb": {
            MONTH: _snap("pb", MONTH, [71], []),
            NEXT: _snap("pb", NEXT, [71], []),
        },
    }
    index = _index([("Q9", "ww", 5), ("Q9", "pa", 61), ("Q9", "pb", 71)])
    return snapshots, index


def test_without_pageviews_first_language_wins():
    snapshots, index = _two_control_world()
    result = build_pairs(snapshots, index, MONTH, FORWARD)
    assert result.pairs[0].control_language == "pa"


def test_pageview_matching_prefers_closest_pretreatment_level():
    snapshots, index = _two_control_world()
    rows = []
    for offset in (-3, -2, -1):
        month = month_add(MONTH, offset)
        rows.append(("ww", 5, month, "all", 100))
        rows.append(("pa", 61, month, "all", 10))
        rows.append(("pb", 71, month, "all", 90))
    result = build_pairs(snapshots, index, MONTH, FORWARD, pageviews=_views(rows))
    assert result.pairs[0].control_language == "pb"


def test_pageview_matching_breaks_exact_ties_by_language():
    snapshots, index = _two_control_world()
    rows = []
    for offset in (-3, -2, -1):
        month = month_add(MONTH, offset)
        rows.append(("ww", 5, month, "all", 100))
        rows.append(("pa", 61, month, "all", 50))
        rows.append(("pb", 71, month, "all", 50))
    result = build_pairs(snapshots, index, MONTH, FORWARD, pageviews=_views(rows))
    assert result.pairs[0].control_language == "pa"


def test_unknown_direction_rejected():
    snapshots, index = _forward_world()
    with pytest.raises(ValueError, match="direction"):
        build_pairs(snapshots, index, MONTH, "sideways")


def test_pairs_sorted_by_pair_id_across_languages():
    # Two treated languages firing in the same month must come out in
    # deterministic pair_id order regardless of event discovery order.
    snapshots = {
        "aa": {
            MONTH: _snap("aa", MONTH, [1, 2], []),
            NEXT: _snap("aa", NEXT, [1, 2], [(2, 1)]),
        },
        "bb": {
            MONTH: _snap("bb", MONTH, [11, 12], []),
            NEXT: _snap("bb", NEXT, [11, 12], [(12, 11)]),
        },
        "cc": {
            MONTH: _snap("cc", MONTH, [21, 22], []),
            NEXT: _snap("cc", NEXT, [21, 22], []),
        },
    }
    index = _index(
        [
            ("Q1", "aa", 1),
            ("Q1", "cc", 21),
            ("Q2", "bb", 11),
            ("Q2", "cc", 22),
        ]
    )
    result = build_pairs(snapshots, index, MONTH, FORWARD)
    ids = [p.pair_id for p in result.pairs]
    assert ids == sorted(ids)
    assert len(ids) == 2


# Mostly 0 or 1 views, so that controls often tie on the pre level.
_view_counts = st.one_of(st.integers(0, 1), st.integers(0, 1), st.integers(0, 4))


@st.composite
def _pair_worlds(draw):
    """2-4 languages.  Each keeps a core of articles in pages 1..6 in
    both months, and each month adds a few of pages 1..8 of its own;
    edges are drawn apart per month.  A language may lack the next
    month.  Each language holds a random subset of items Q1..Q4 on
    distinct pages of 1..8, which need not be articles in either month.
    Views are drawn for the pre window and the months on either side of
    it, mostly 0 or 1, so that levels often tie."""
    languages = draw(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=2, unique=True)
    )
    snapshots, entries, rows = {}, [], []
    for lang in languages:
        core = draw(st.sets(st.integers(1, 6), min_size=2))
        months = {}
        for month in (MONTH, NEXT):
            if month == NEXT and draw(st.integers(0, 4)) == 4:
                continue
            articles = sorted(core | draw(st.sets(st.integers(1, 8), max_size=2)))
            ends = st.sampled_from(articles)
            edges = draw(st.lists(st.tuples(ends, ends), max_size=6))
            edges = [(u, v) for u, v in edges if u != v]
            months[month] = _snap(lang, month, articles, edges)
        snapshots[lang] = months
        pages = draw(st.permutations(range(1, 9)))
        for item, page in zip(range(1, 5), pages):
            if draw(st.integers(0, 3)) < 3:
                entries.append((f"Q{item}", lang, page))
                for offset in (-4, -3, -2, -1, 0):
                    when = month_add(MONTH, offset)
                    rows.append((lang, page, when, "all", draw(_view_counts)))
    views = _views(rows) if rows and draw(st.booleans()) else None
    return snapshots, _index(entries), views


@settings(max_examples=300)
@given(world=_pair_worlds(), direction=st.sampled_from([FORWARD, REVERSE]))
def test_build_pairs_matches_the_edge_diff_oracle(world, direction):
    snapshots, index, views = world
    got = build_pairs(snapshots, index, MONTH, direction, pageviews=views)
    want = build_pairs_oracle(snapshots, index, MONTH, direction, pageviews=views)
    assert got == want


@settings(max_examples=200)
@given(
    n_languages=st.integers(3, 5),
    counts=st.lists(_view_counts, min_size=25, max_size=25),
    direction=st.sampled_from([FORWARD, REVERSE]),
)
def test_the_closest_pre_level_picks_the_control(n_languages, counts, direction):
    """Item Q1 is page 1 everywhere and crosses the orphan boundary in the
    first language only, so every other language offers a control and
    the views around the pre window decide between them."""
    languages = ["aa", "bb", "cc", "dd", "ee"][:n_languages]
    linked, snapshots, rows = [(2, 1)], {}, []
    for i, lang in enumerate(languages):
        before = [] if direction == FORWARD else linked
        after = linked if (i == 0) == (direction == FORWARD) else []
        snapshots[lang] = {
            MONTH: _snap(lang, MONTH, [1, 2], before),
            NEXT: _snap(lang, NEXT, [1, 2], after),
        }
        for k, offset in enumerate((-4, -3, -2, -1, 0)):
            rows.append((lang, 1, month_add(MONTH, offset), "all", counts[5 * i + k]))
    index = _index([("Q1", lang, 1) for lang in languages])
    views = _views(rows)
    got = build_pairs(snapshots, index, MONTH, direction, pageviews=views)
    want = build_pairs_oracle(snapshots, index, MONTH, direction, pageviews=views)
    assert got == want and len(got.pairs) == 1


# -- assemble_panel ---------------------------------------------------------


def _one_pair():
    return PairAssignment(
        pair_id=f"forward:{MONTH}:Q9:ww",
        qid="Q9",
        treated_language="ww",
        control_language="pa",
        treatment_month=MONTH,
        direction=FORWARD,
    )


def test_panel_shape_months_and_log_transform():
    index = _index([("Q9", "ww", 5), ("Q9", "pa", 61)])
    rows = []
    for offset in (-2, -1, 1, 2):
        month = month_add(MONTH, offset)
        rows.append(("ww", 5, month, "all", 10 + offset))
        rows.append(("pa", 61, month, "all", 7))
    panel = assemble_panel([_one_pair()], _views(rows), index, window=2)
    assert len(panel) == 8
    offsets = sorted({o.period_index for o in panel})
    assert offsets == [-2, -1, 1, 2]
    assert all(o.period_index != 0 for o in panel)
    treated = {o.period_index: o for o in panel if o.role == TREATED}
    assert treated[1].month == NEXT
    assert treated[-2].month == month_add(MONTH, -2)
    assert treated[2].log_views == math.log1p(12)
    control = [o for o in panel if o.role == CONTROL]
    assert all(o.language == "pa" for o in control)
    assert all(o.log_views == math.log1p(7) for o in control)


def test_panel_missing_months_count_as_zero_views():
    index = _index([("Q9", "ww", 5), ("Q9", "pa", 61)])
    panel = assemble_panel([_one_pair()], PageviewTable(), index, window=3)
    assert len(panel) == 12
    assert all(o.log_views == 0.0 for o in panel)


def test_panel_referrer_class_reads_matching_rows_only():
    index = _index([("Q9", "ww", 5), ("Q9", "pa", 61)])
    rows = []
    for offset in (-1, 1):
        month = month_add(MONTH, offset)
        for lang, page in (("ww", 5), ("pa", 61)):
            rows.append((lang, page, month, "all", 100))
            rows.append((lang, page, month, "internal", 60))
    panel = assemble_panel(
        [_one_pair()], _views(rows), index, window=1, referrer_class="internal"
    )
    assert all(o.referrer_class == "internal" for o in panel)
    assert all(o.log_views == math.log1p(60) for o in panel)


@settings(max_examples=300)
@given(data=st.data())
def test_assemble_panel_matches_the_row_by_row_oracle(data):
    languages = ["a", "b", "c"]
    index = _index(
        [(f"Q{q}", lang, 10 * q + k) for q in range(4) for k, lang in enumerate("abc")]
    )
    months = ["1999-12", "2022-11", "2023-01"]
    view_months = [month_add(m, k) for m in months for k in range(-3, 4)]
    # Pair ids may repeat, so that rows of equal sort key keep input order.
    pairs = data.draw(
        st.lists(
            st.builds(
                PairAssignment,
                st.sampled_from(["p:1", "p:2", "p:3"]),
                st.sampled_from([f"Q{q}" for q in range(4)]),
                st.sampled_from(languages),
                st.sampled_from(languages),
                st.sampled_from(months),
                st.just(FORWARD),
            ),
            max_size=6,
        ),
        label="pairs",
    )
    rows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(languages),
                st.integers(0, 33),
                st.sampled_from(view_months),
                st.sampled_from(REFERRER_CLASSES),
                st.integers(0, 10**6),
            ),
            max_size=40,
        ),
        label="rows",
    )
    views = load_pageviews([list(map(list, zip(*rows)))] if rows else [])
    window = data.draw(st.integers(1, 3), label="window")
    referrer = data.draw(st.sampled_from(REFERRER_CLASSES), label="referrer")
    panel = assemble_panel(pairs, views, index, window=window, referrer_class=referrer)
    assert list(panel) == assemble_panel_oracle(
        pairs, views.views, index, window, referrer
    )
    assert all(type(o.period_index) is int for o in panel)


def test_panel_sorted_and_control_page_required():
    index = _index([("Q9", "ww", 5), ("Q9", "pa", 61)])
    panel = assemble_panel([_one_pair()], PageviewTable(), index, window=2)
    key = lambda o: (o.pair_id, o.referrer_class, o.role, o.period_index)
    assert list(panel) == sorted(panel, key=key)
    orphan_index = _index([("Q9", "ww", 5)])
    with pytest.raises(KeyError, match="no page for"):
        assemble_panel([_one_pair()], PageviewTable(), orphan_index, window=2)


_QIDS = [f"Q{q}" for q in range(4)]
_PANEL_LANGUAGES = ["a", "b", "c"]


@st.composite
def _panel_inputs(draw):
    """Pairs of both directions, with their qid index and pageviews.

    Several pairs may share a qid and a control language, so one control
    article serves them all, and view counts come from a small range, so
    many outcomes tie.
    """
    index = _index(
        [(q, lang, 10 * i + k) for i, q in enumerate(_QIDS) for k, lang in enumerate("abc")]
    )
    draws = draw(
        st.lists(
            st.tuples(
                st.sampled_from([FORWARD, REVERSE]),
                st.sampled_from(_QIDS),
                st.sampled_from(_PANEL_LANGUAGES),
                st.sampled_from(_PANEL_LANGUAGES),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda t: t[:3],
        ),
        label="pairs",
    )
    pairs = [
        PairAssignment(f"{d}:{MONTH}:{q}:{t}", q, t, c, MONTH, d)
        for d, q, t, c in draws
    ]
    view_months = [month_add(MONTH, k) for k in range(-3, 4) if k]
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_PANEL_LANGUAGES),
                st.integers(0, 33),
                st.sampled_from(view_months),
                st.sampled_from(REFERRER_CLASSES),
                st.integers(0, 3),
            ),
            max_size=120,
            unique_by=lambda r: r[:4],
        ),
        label="rows",
    )
    return pairs, load_pageviews([list(map(list, zip(*rows)))] if rows else []), index


@settings(max_examples=150)
@given(inputs=_panel_inputs(), classes=st.sets(st.sampled_from(REFERRER_CLASSES)))
def test_referrer_panels_join_in_the_order_of_the_rows_oracle(inputs, classes):
    pairs, views, index = inputs
    classes = sorted(classes)
    panel = Panel.concat(
        [assemble_panel(pairs, views, index, referrer_class=c) for c in classes]
    ).sorted_rows()
    rows = [
        o
        for c in classes
        for o in assemble_panel_oracle(pairs, views.views, index, DEFAULT_WINDOW, c)
    ]
    rows.sort(key=lambda o: (o.pair_id, o.referrer_class, o.role, o.period_index))
    assert list(panel) == rows
    assert list(Panel.from_observations(rows)) == rows


# -- fit_did ----------------------------------------------------------------


def _obs(pair_id, role, offset, log_views, language="xx", referrer="all"):
    return PanelObservation(
        pair_id=pair_id,
        role=role,
        language=language,
        month=month_add(MONTH, offset),
        period_index=offset,
        log_views=log_views,
        referrer_class=referrer,
    )


def _random_panel(rng, n_pairs=30, offsets=(-3, -2, -1, 1, 2, 3), language="xx"):
    panel = []
    for i in range(n_pairs):
        pid = f"forward:{MONTH}:Q{i}:{language}"
        for role in (TREATED, CONTROL):
            for offset in offsets:
                panel.append(
                    _obs(pid, role, offset, float(rng.normal(3.0, 1.0)), language)
                )
    return panel


def _cell_mean_effect(panel):
    cells = {}
    for obs in panel:
        cells.setdefault((obs.role, obs.period_index > 0), []).append(obs.log_views)
    mean = lambda role, post: float(np.mean(cells[(role, post)]))
    return (mean(TREATED, True) - mean(TREATED, False)) - (
        mean(CONTROL, True) - mean(CONTROL, False)
    )


def test_pooled_effect_equals_cell_mean_contrast():
    rng = np.random.default_rng(42)
    panel = _random_panel(rng)
    fit = fit_did(panel, "pooled")
    assert abs(fit.effect.coef - _cell_mean_effect(panel)) < 1e-10
    assert fit.n_observations == len(panel)
    assert fit.n_pairs == 30


def test_pooled_coefficients_match_direct_least_squares():
    rng = np.random.default_rng(7)
    panel = _random_panel(rng, n_pairs=12)
    fit = fit_did(panel, "pooled")
    treated = np.array([float(o.role == TREATED) for o in panel])
    after = np.array([float(o.period_index > 0) for o in panel])
    X = np.column_stack([np.ones(len(panel)), treated, after, treated * after])
    y = np.array([o.log_views for o in panel])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    for i, name in enumerate(["intercept", "treated", "after", "treated_after"]):
        assert abs(fit.terms[name].coef - beta[i]) < 1e-10


def _clustered_se_oracle(X, y, clusters):
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    e = y - X @ beta
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    groups = sorted(set(clusters))
    meat = np.zeros((k, k))
    for g in groups:
        member = np.array([c == g for c in clusters])
        s = X[member].T @ e[member]
        meat += np.outer(s, s)
    correction = (len(groups) / (len(groups) - 1)) * ((n - 1) / (n - k))
    cov = correction * xtx_inv @ meat @ xtx_inv
    return np.sqrt(np.diag(cov))


def test_clustered_se_matches_per_group_loop():
    rng = np.random.default_rng(11)
    panel = _random_panel(rng, n_pairs=20)
    fit = fit_did(panel, "pooled")
    treated = np.array([float(o.role == TREATED) for o in panel])
    after = np.array([float(o.period_index > 0) for o in panel])
    X = np.column_stack([np.ones(len(panel)), treated, after, treated * after])
    y = np.array([o.log_views for o in panel])
    expected = _clustered_se_oracle(X, y, [o.pair_id for o in panel])
    for i, name in enumerate(["intercept", "treated", "after", "treated_after"]):
        got = fit.terms[name].se_clustered
        assert abs(got - expected[i]) < 1e-10 * max(1.0, expected[i])


def test_singleton_clusters_reduce_to_hc1():
    # One observation per pair makes every cluster a singleton, where
    # the sandwich collapses to the heteroskedasticity-robust form
    # (n / dof) * (X'X)^-1 (sum e_i^2 x_i x_i') (X'X)^-1.
    rng = np.random.default_rng(3)
    panel = []
    for i in range(40):
        role = TREATED if i % 2 else CONTROL
        offset = 1 if i % 4 < 2 else -1
        panel.append(
            _obs(f"p:{i:02d}", role, offset, float(rng.normal(2.0, 0.7)))
        )
    fit = fit_did(panel, "pooled")
    treated = np.array([float(o.role == TREATED) for o in panel])
    after = np.array([float(o.period_index > 0) for o in panel])
    X = np.column_stack([np.ones(len(panel)), treated, after, treated * after])
    y = np.array([o.log_views for o in panel])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    e = y - X @ beta
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    hc1 = np.sqrt(
        np.diag((n / (n - k)) * xtx_inv @ (X.T * e**2) @ X @ xtx_inv)
    )
    for i, name in enumerate(["intercept", "treated", "after", "treated_after"]):
        assert abs(fit.terms[name].se_clustered - hc1[i]) < 1e-10


def test_swapping_roles_negates_the_effect():
    rng = np.random.default_rng(19)
    panel = _random_panel(rng, n_pairs=15)
    flipped = [
        PanelObservation(
            pair_id=o.pair_id,
            role=CONTROL if o.role == TREATED else TREATED,
            language=o.language,
            month=o.month,
            period_index=o.period_index,
            log_views=o.log_views,
            referrer_class=o.referrer_class,
        )
        for o in panel
    ]
    a = fit_did(panel, "pooled").effect
    b = fit_did(flipped, "pooled").effect
    assert abs(a.coef + b.coef) < 1e-10
    assert abs(a.se_clustered - b.se_clustered) < 1e-10


def test_outcome_shift_moves_only_the_intercept():
    rng = np.random.default_rng(23)
    panel = _random_panel(rng, n_pairs=10)
    shifted = [
        PanelObservation(
            pair_id=o.pair_id,
            role=o.role,
            language=o.language,
            month=o.month,
            period_index=o.period_index,
            log_views=o.log_views + 5.0,
            referrer_class=o.referrer_class,
        )
        for o in panel
    ]
    a = fit_did(panel, "pooled")
    b = fit_did(shifted, "pooled")
    assert abs(b.terms["intercept"].coef - a.terms["intercept"].coef - 5.0) < 1e-10
    for name in ("treated", "after", "treated_after"):
        assert abs(b.terms[name].coef - a.terms[name].coef) < 1e-10
        assert abs(b.terms[name].se_clustered - a.terms[name].se_clustered) < 1e-10


def test_degenerate_panels_rejected():
    with pytest.raises(DegeneratePanelError, match="empty"):
        fit_did([], "pooled")
    only_control = [_obs("p:0", CONTROL, k, 1.0) for k in (-1, 1)]
    with pytest.raises(DegeneratePanelError, match="roles"):
        fit_did(only_control, "pooled")
    only_pre = [
        _obs("p:0", role, k, 1.0) for role in (TREATED, CONTROL) for k in (-2, -1)
    ]
    with pytest.raises(DegeneratePanelError, match="periods"):
        fit_did(only_pre, "pooled")


def test_collinear_design_names_the_columns():
    # Treated observations only after, controls only before: the
    # treated, after and interaction columns coincide.
    rng = np.random.default_rng(5)
    panel = []
    for i in range(12):
        panel.append(_obs(f"p:{i:02d}", TREATED, 1, float(rng.normal())))
        panel.append(_obs(f"p:{i:02d}", CONTROL, -1, float(rng.normal())))
    with pytest.raises(RankDeficientError) as excinfo:
        fit_did(panel, "pooled")
    assert set(excinfo.value.columns) <= {"treated", "after", "treated_after"}
    assert len(excinfo.value.columns) == 2
    assert "collinear" in str(excinfo.value)


def test_zero_degrees_of_freedom_yields_nan_then_null():
    panel = [
        _obs("p:0", TREATED, 1, 2.0),
        _obs("p:1", TREATED, -1, 1.5),
        _obs("p:2", CONTROL, 1, 1.2),
        _obs("p:3", CONTROL, -1, 1.0),
    ]
    fit = fit_did(panel, "pooled")
    assert math.isnan(fit.residual_variance)
    assert math.isnan(fit.effect.se_clustered)
    payload = fit.to_dict()
    assert payload["residual_variance"] is None
    assert payload["terms"]["treated_after"]["se_clustered"] is None
    assert payload["terms"]["treated_after"]["coef"] is not None


def test_by_month_recovers_per_period_contrasts_exactly():
    control = {-2: 1.0, -1: 1.2, 1: 1.1, 2: 1.3}
    treated = {-2: 2.1, -1: 2.2, 1: 2.9, 2: 3.4}
    panel = []
    for i in range(4):
        pid = f"p:{i}"
        for offset, value in control.items():
            panel.append(_obs(pid, CONTROL, offset, value))
        for offset, value in treated.items():
            panel.append(_obs(pid, TREATED, offset, value))
    fit = fit_did(panel, "by_month")
    assert "period[-1]" not in fit.terms
    assert "treated:period[-1]" not in fit.terms
    for offset in (-2, 1, 2):
        expected = (treated[offset] - treated[-1]) - (control[offset] - control[-1])
        name = f"treated:period[{offset:+d}]"
        assert abs(fit.terms[name].coef - expected) < 1e-12
    missing_reference = [o for o in panel if o.period_index != -1]
    with pytest.raises(DegeneratePanelError, match="reference"):
        fit_did(missing_reference, "by_month")


def test_by_language_thresholds_and_matches_subset_fits(caplog):
    rng = np.random.default_rng(31)
    panel = _random_panel(rng, n_pairs=4, language="aa") + _random_panel(
        rng, n_pairs=2, language="bb"
    )
    by_language = fit_did(panel, "by_language", min_pairs=3)
    assert sorted(by_language) == ["aa"]
    aa_only = [o for o in panel if o.language == "aa"]
    assert abs(by_language["aa"].effect.coef - fit_did(aa_only, "pooled").effect.coef) < 1e-12
    with caplog.at_level(logging.WARNING, logger="oatlas.causal"):
        empty = fit_did(panel, "by_language", min_pairs=10)
    assert empty == {}
    assert "min_pairs" in caplog.text


def test_by_referrer_splits_classes_and_skips_all(caplog):
    rng = np.random.default_rng(37)
    panel = []
    for referrer in ("internal", "search"):
        for i in range(3):
            pid = f"p:{referrer}:{i}"
            for role in (TREATED, CONTROL):
                for offset in (-1, 1):
                    panel.append(
                        _obs(pid, role, offset, float(rng.normal()), referrer=referrer)
                    )
    by_referrer = fit_did(panel, "by_referrer")
    assert sorted(by_referrer) == ["internal", "search"]
    all_only = _random_panel(rng, n_pairs=2)
    with caplog.at_level(logging.WARNING, logger="oatlas.causal"):
        assert fit_did(all_only, "by_referrer") == {}
    assert "referrer" in caplog.text


_LANGUAGES = ("aa", "bb", "cc")
_CLASSES = ("all", "internal", "search")
_OFFSETS = (-3, -2, -1, 1, 2, 3)


@st.composite
def _unbalanced_panels(draw):
    """A shuffled panel over three treated languages and three referrer
    classes, where pairs miss random rows, and its pairs' languages.

    The first pair of each language has every row, so every language
    and class subset covers every (role, period) cell.  Some pairs keep
    no treated row; they have no treated language.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pairs = draw(st.integers(3, 12))
    panel, language_of = [], {}
    for i in range(n_pairs):
        pid = f"forward:{MONTH}:Q{i}:x"
        complete = i < len(_LANGUAGES)
        language = _LANGUAGES[i] if complete else str(rng.choice(_LANGUAGES))
        treated_kept = complete or rng.random() > 0.2
        language_of[pid] = language if treated_kept else None
        for referrer in _CLASSES:
            for role in (TREATED, CONTROL):
                if role == TREATED and not treated_kept:
                    continue
                for offset in _OFFSETS:
                    if complete or rng.random() < 0.6:
                        panel.append(
                            _obs(
                                pid,
                                role,
                                offset,
                                float(rng.normal(3.0, 1.5)),
                                language if role == TREATED else "zz",
                                referrer,
                            )
                        )
    return [panel[i] for i in rng.permutation(len(panel))], language_of


def _assert_same_fit(got, want, tol):
    assert (got.n_observations, got.n_pairs) == (want.n_observations, want.n_pairs)
    assert got.terms.keys() == want.terms.keys()
    for name, term in got.terms.items():
        for field, value in vars(term).items():
            expected = getattr(want.terms[name], field)
            if math.isnan(expected):
                assert math.isnan(value), (name, field)
            else:
                assert abs(value - expected) <= tol * max(1.0, abs(expected)), (
                    name,
                    field,
                )


@settings(max_examples=150)
@given(data=_unbalanced_panels(), min_pairs=st.integers(1, 4))
def test_grouped_specs_are_pooled_fits_of_their_row_subsets(data, min_pairs):
    panel, language_of = data
    by_language = fit_did(panel, "by_language", min_pairs=min_pairs)
    n_pairs = {
        language: sum(1 for lang in language_of.values() if lang == language)
        for language in _LANGUAGES
    }
    assert sorted(by_language) == [g for g in _LANGUAGES if n_pairs[g] >= min_pairs]
    for language, fit in by_language.items():
        subset = [o for o in panel if language_of[o.pair_id] == language]
        _assert_same_fit(fit, fit_did(subset, "pooled"), 1e-12)

    by_referrer = fit_did(panel, "by_referrer")
    assert sorted(by_referrer) == ["internal", "search"]
    for referrer, fit in by_referrer.items():
        subset = [o for o in panel if o.referrer_class == referrer]
        _assert_same_fit(fit, fit_did(subset, "pooled"), 1e-12)


@settings(max_examples=150)
@given(data=_unbalanced_panels())
def test_by_month_effects_are_cell_mean_double_differences(data):
    panel, _ = data
    cells = {}
    for o in panel:
        cells.setdefault((o.role, o.period_index), []).append(o.log_views)

    def mean(role, offset):
        return math.fsum(cells[role, offset]) / len(cells[role, offset])

    fit = fit_did(panel, "by_month")
    effects = {name for name in fit.terms if name.startswith("treated:")}
    assert effects == {f"treated:period[{k:+d}]" for k in _OFFSETS if k != -1}
    for k in _OFFSETS:
        if k == -1:
            continue
        expected = (mean(TREATED, k) - mean(TREATED, -1)) - (
            mean(CONTROL, k) - mean(CONTROL, -1)
        )
        assert abs(fit.terms[f"treated:period[{k:+d}]"].coef - expected) < 1e-9


def _fit_or_error(fit, panel, spec):
    try:
        result = fit(panel, spec, min_pairs=2)
    except (DegeneratePanelError, RankDeficientError) as exc:
        return type(exc), str(exc)
    if isinstance(result, dict):
        return {group: est.to_dict() for group, est in result.items()}
    return result.to_dict()


@settings(max_examples=150)
@given(inputs=_panel_inputs(), seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
def test_fit_did_on_columns_matches_the_per_row_fit_bit_for_bit(inputs, seed, shuffle):
    """Each fit of the did stage: per direction, every spec, on all
    referrer classes and on the ``all`` rows, in file order or shuffled."""
    pairs, views, index = inputs
    panel = Panel.concat(
        [assemble_panel(pairs, views, index, referrer_class=c) for c in REFERRER_CLASSES]
    ).sorted_rows()
    if shuffle:
        panel = panel.take(np.random.default_rng(seed).permutation(len(panel)))
    for direction in (FORWARD, REVERSE):
        in_direction = np.array([p.startswith(direction) for p in panel.pair_ids])
        subset = panel.take(in_direction[panel.pair])
        pooled = subset.take(subset.referrer == subset.referrers.index("all"))
        for rows in (subset, pooled):
            observations = list(rows)
            for spec in ("pooled", "by_language", "by_month", "by_referrer"):
                want = _fit_or_error(fit_did_oracle, observations, spec)
                assert _fit_or_error(fit_did, rows, spec) == want
                assert _fit_or_error(fit_did, observations, spec) == want


def test_unknown_spec_rejected():
    rng = np.random.default_rng(41)
    with pytest.raises(ValueError, match="spec"):
        fit_did(_random_panel(rng, n_pairs=2), "by_weekday")


def test_effect_percent_is_exponentiated_minus_one():
    assert abs(effect_percent(0.3) - (math.exp(0.3) - 1.0)) < 1e-15
    rng = np.random.default_rng(43)
    fit = fit_did(_random_panel(rng, n_pairs=8), "pooled")
    assert fit.effect_percent == effect_percent(fit.effect.coef)
    assert fit.to_dict()["effect_percent"] == fit.effect_percent


def test_synthetic_pairs_recover_a_known_effect():
    pairs, views, index = fixtures.synthetic_did_inputs(
        n_pairs=200, effect=0.25, seed=90
    )
    panel = assemble_panel(pairs, views, index)
    fit = fit_did(panel, "pooled")
    est = fit.effect
    assert abs(est.coef - 0.25) < 0.05
    assert est.ci_low < 0.25 < est.ci_high
    assert 0.0 < est.se_clustered < 0.05
    assert fit.n_pairs == 200
