"""Feature binarization, representation scores and the trend smoother."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import ingest
from oatlas.characterize import (
    BINARY_FEATURES,
    FeatureTable,
    _median,
    build_feature_table,
    lowess_fit,
    orphan_fraction_by_wiki,
    representation_scores,
    split_at_median,
)
from oatlas.graph import LinkSnapshot
from oatlas.ingest import (
    TOPIC_LABELS,
    FeatureRecord,
    read_feature_columns,
    read_features_tsv,
)

from .oracles import feature_columns_oracle, representation_scores_oracle


def _record(page_id, *, bot=False, woman=None, topics=None, quality=0.5, created=0):
    probs = {"culture": 0.0, "geography": 0.0, "history_society": 0.0, "stem": 0.0}
    probs.update(topics or {})
    return FeatureRecord(
        language="aa",
        page_id=page_id,
        bot_created=bot,
        is_woman_biography=woman,
        topic_probabilities=probs,
        quality_score=quality,
        creation_timestamp=created,
    )


def _columns(table):
    """The table as one ``{page_id: flag}`` dict per feature, holding the
    pages where the feature is defined."""
    ids = table.page_ids.tolist()
    return {
        feature: {
            pid: flag
            for pid, flag, known in zip(
                ids, table.flags[:, j].tolist(), table.defined[:, j].tolist()
            )
            if known
        }
        for j, feature in enumerate(BINARY_FEATURES)
    }


def test_binarize_uses_lower_middle_and_strict_greater():
    # Even length: the median is the lower of the two middle values.
    assert split_at_median(np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [
        False,
        False,
        True,
        True,
    ]
    # Ties with the median are False under the strict comparison.
    assert split_at_median(np.array([5.0, 5.0, 5.0])).tolist() == [False, False, False]
    assert split_at_median(np.array([1.0, 2.0, 9.0])).tolist() == [False, False, True]


def test_binarize_thousand_and_one_values():
    out = split_at_median(np.arange(1001, dtype=float))
    assert out.sum() == 500
    assert not out[500] and out[501]


def test_build_feature_table_columns():
    records = [
        _record(1, bot=True, topics={"stem": 0.9}, quality=0.9, created=100),
        _record(2, woman=True, topics={"stem": 0.4}, quality=0.1, created=200),
        _record(3, woman=False, topics={"culture": 0.6}, quality=0.5, created=300),
        _record(4, quality=0.7, created=400),
    ]
    table = build_feature_table(records, "aa")
    assert table.flags.shape == table.defined.shape == (4, len(BINARY_FEATURES))
    columns = _columns(table)
    assert columns["bot_created"] == {1: True, 2: False, 3: False, 4: False}
    assert columns["topic_stem"] == {1: True, 2: False, 3: False, 4: False}
    assert columns["topic_culture"] == {1: False, 2: False, 3: True, 4: False}
    # Only pages with a stated biography flag appear in that column.
    assert columns["is_woman_biography"] == {2: True, 3: False}
    # Oldest articles (smallest creation timestamp) are the True half.
    assert columns["old_article"] == {1: True, 2: True, 3: False, 4: False}
    assert columns["high_quality"] == {1: True, 2: False, 3: False, 4: True}


def test_feature_tables_compare_by_their_arrays():
    records = [
        _record(1, bot=True, topics={"stem": 0.9}, quality=0.9, created=100),
        _record(2, woman=True, quality=0.1, created=200),
        _record(3, quality=0.5, created=300),
    ]
    table = build_feature_table(records, "aa")
    assert table == build_feature_table(records, "aa")
    flipped = build_feature_table(records, "aa")
    flipped.flags[0, 0] = ~flipped.flags[0, 0]
    assert table != flipped
    assert table != build_feature_table(records[:2], "aa")
    assert table != build_feature_table([], "aa")


def test_build_feature_table_respects_article_filter():
    records = [_record(1), _record(2), _record(3)]
    table = build_feature_table(records, "aa", articles={1, 3})
    assert table.page_ids.tolist() == [1, 3]


def test_a_page_listed_twice_keeps_its_last_row():
    records = [
        _record(1, bot=True, woman=True, topics={"stem": 0.9}, quality=0.9),
        _record(2, quality=0.5, created=200),
        _record(1, quality=0.1, created=300),
    ]
    table = build_feature_table(records, "aa")
    assert table.page_ids.tolist() == [1, 2]
    columns = _columns(table)
    # The last row of page 1 has no biography flag, so the earlier True
    # is gone with the rest of that row.
    assert columns["is_woman_biography"] == {}
    assert columns["bot_created"] == {1: False, 2: False}
    assert columns["topic_stem"] == {1: False, 2: False}
    assert columns["high_quality"] == {1: False, 2: True}
    assert columns["old_article"] == {1: False, 2: True}


# Small pools of qualities, timestamps and probabilities make ties at
# the median and at the topic threshold common.
_feature_records = st.lists(
    st.builds(
        FeatureRecord,
        language=st.sampled_from(["aa", "bb"]),
        page_id=st.integers(1, 30),
        bot_created=st.booleans(),
        is_woman_biography=st.none() | st.booleans(),
        topic_probabilities=st.fixed_dictionaries(
            {label: st.sampled_from([0.0, 0.5, 0.75]) for label in TOPIC_LABELS}
        ),
        quality_score=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        creation_timestamp=st.sampled_from([-(2**63), -7, 0, 3, 2**53 + 1]),
    ),
    max_size=40,
    unique_by=lambda rec: (rec.language, rec.page_id),
)
_page_sets = st.sets(st.integers(1, 35))
# A set of NumPy ints, as intersecting with a set of array ids gives.
_id_sets = _page_sets | _page_sets.map(lambda ids: {np.int64(i) for i in ids})
_article_filters = (
    st.none()
    | _id_sets
    | _page_sets.map(lambda ids: np.array(sorted(ids), dtype=np.int64))
)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@settings(max_examples=300)
@given(records=_feature_records, articles=_article_filters, orphan_ids=_id_sets)
def test_feature_table_and_scores_match_the_dict_oracle(records, articles, orphan_ids):
    table = build_feature_table(records, "aa", articles=articles)
    oracle_articles = None if articles is None else set(articles)
    columns = feature_columns_oracle(records, "aa", oracle_articles)
    assert table.page_ids.tolist() == sorted(columns["bot_created"])
    assert _columns(table) == columns
    got = representation_scores(orphan_ids, table)
    want = representation_scores_oracle(orphan_ids, "aa", columns)
    assert len(got) == len(want)
    for score, expected in zip(got, want):
        assert all(_same(g, w) for g, w in zip(score, expected)), (score, expected)


# Lines of features.tsv: languages interleaved, page ids repeating,
# NA biographies, and timestamps that float64 cannot hold exactly.
_feature_lines = st.lists(
    st.tuples(
        st.sampled_from(["aa", "bb", "cc"]),
        st.integers(1, 12).map(str),
        st.sampled_from(["0", "1"]),
        st.sampled_from(["0", "1", "NA"]),
        *(st.sampled_from(["0.0", "0.5", "0.75", "1"]) for _ in range(5)),
        st.sampled_from(
            [-(2**63), -7, 0, 3, 2**53 + 1, 2**53 + 3, 2**62 + 2**9, 2**63 - 1]
        ).map(str),
    ).map("\t".join),
    max_size=40,
)


@settings(max_examples=300)
@given(
    lines=_feature_lines,
    languages=st.sets(st.sampled_from(["aa", "bb", "cc", "dd"])),
    articles=_article_filters,
    block_lines=st.integers(1, 4),
)
def test_feature_columns_make_the_table_of_the_records(
    lines, languages, articles, block_lines
):
    """Read straight into columns, a language's table is the one its
    records give, wherever the blocks of lines end."""
    with mock.patch.object(ingest, "_TSV_BLOCK_LINES", block_lines):
        columns = read_feature_columns(lines, languages)
    records = list(read_features_tsv(lines))
    assert set(columns) == languages & {rec.language for rec in records}
    oracle_articles = None if articles is None else set(articles)
    for language, (page_ids, values) in columns.items():
        rows = [rec for rec in records if rec.language == language]
        assert page_ids.tolist() == [rec.page_id for rec in rows]
        ages = [-float(rec.creation_timestamp) for rec in rows]
        assert values[:, -1].tolist() == ages
        table = FeatureTable.from_columns(language, page_ids, values, articles)
        assert table == build_feature_table(records, language, articles=articles)
        assert _columns(table) == feature_columns_oracle(
            records, language, oracle_articles
        )


def test_representation_scores_match_direct_counts():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(20, 200))
        page_ids = list(range(1, n + 1))
        flags = (rng.random((len(BINARY_FEATURES), n)) < 0.3).T
        table = FeatureTable("aa", np.arange(1, n + 1), flags, np.ones_like(flags))
        columns = _columns(table)
        orphan_ids = {pid for pid in page_ids if rng.random() < 0.2}
        scores = representation_scores(orphan_ids, table)
        for score in scores:
            col = columns[score.feature]
            p_x = sum(col.values()) / len(col)
            in_orphans = [col[pid] for pid in orphan_ids if pid in col]
            assert score.p_x == pytest.approx(p_x)
            if not in_orphans or p_x == 0.0:
                assert score.undefined
                continue
            p_x_given_o = sum(in_orphans) / len(in_orphans)
            assert score.p_x_given_o == pytest.approx(p_x_given_o)
            if p_x_given_o == 0.0:
                assert score.log_ratio == -math.inf
            else:
                assert score.log_ratio == pytest.approx(
                    math.log(p_x_given_o / p_x)
                )


def test_representation_scores_page_order_invariant():
    records = [
        _record(i, bot=(i % 3 == 0), quality=i / 10.0, created=i) for i in range(1, 11)
    ]
    table_a = build_feature_table(records, "aa")
    table_b = build_feature_table(list(reversed(records)), "aa")
    orphan_ids = {2, 3, 5, 7}
    scores_a = representation_scores(orphan_ids, table_a)
    scores_b = representation_scores(orphan_ids, table_b)
    assert [(s.feature, s.log_ratio) for s in scores_a] == [
        (s.feature, s.log_ratio) for s in scores_b
    ]


def test_orphan_fraction_by_wiki_orders_by_size():
    big = LinkSnapshot.from_edges(
        "big", "2022-11", articles=[1, 2, 3, 4], edges=[(1, 2), (2, 3), (3, 4)]
    )
    small = LinkSnapshot.from_edges("sm", "2022-11", articles=[1, 2], edges=[])
    summaries = orphan_fraction_by_wiki([small, big])
    assert [s.language for s in summaries] == ["big", "sm"]
    assert summaries[0].orphan_fraction == pytest.approx(0.25)
    assert summaries[1].orphan_fraction == pytest.approx(1.0)
    assert summaries[0].deadend_fraction == pytest.approx(0.25)


def _lowess_oracle(x, y, f=0.67, iterations=2):
    """Literal reimplementation around np.polyfit for comparison."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    n = len(xs)
    q = math.ceil(f * n)
    robustness = np.ones(n)
    fitted = np.empty(n)
    for _ in range(iterations + 1):
        for i in range(n):
            dist = np.abs(xs - xs[i])
            neighbors = np.argsort(dist, kind="stable")[:q]
            d_max = dist[neighbors[-1]]
            if d_max > 0:
                w = np.clip((1 - (dist[neighbors] / d_max) ** 3) ** 3, 0.0, None)
            else:
                w = np.ones(q)
            w = w * robustness[neighbors]
            if w.sum() <= 0:
                fitted[i] = ys[neighbors].mean()
                continue
            xn = xs[neighbors]
            mx = np.average(xn, weights=w)
            if ((xn - mx) ** 2 * w).sum() <= 1e-12 * max(1.0, mx * mx):
                fitted[i] = np.average(ys[neighbors], weights=w)
                continue
            coeffs = np.polyfit(xn, ys[neighbors], 1, w=np.sqrt(w))
            fitted[i] = np.polyval(coeffs, xs[i])
        residuals = ys - fitted
        scale = np.median(np.abs(residuals))
        if scale > 0:
            u = np.clip(residuals / (6.0 * scale), -1.0, 1.0)
            robustness = (1.0 - u * u) ** 2
    return fitted


@settings(max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=9))
def test_median_is_numpy_median_bit_for_bit(values):
    values = np.array(values)
    got, want = _median(values), np.median(values)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == want.tobytes()


def test_lowess_matches_polyfit_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(10, 80))
        x = np.sort(rng.uniform(0, 10, size=n))
        y = np.sin(x) + rng.normal(0, 0.2, size=n)
        got = lowess_fit(x, y)
        want = _lowess_oracle(x, y)
        assert np.max(np.abs(got - want)) < 1e-8


def test_lowess_reproduces_straight_line():
    x = np.linspace(0, 1, 40)
    y = 3.0 * x - 2.0
    fitted = lowess_fit(x, y)
    assert np.max(np.abs(fitted - y)) < 1e-9


def test_lowess_equivariance():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 5, size=30))
    y = np.cos(x) + rng.normal(0, 0.1, size=30)
    base = lowess_fit(x, y)
    shifted = lowess_fit(x + 100.0, y + 7.0)
    assert np.allclose(shifted, base + 7.0, atol=1e-9)
    scaled = lowess_fit(x, y * 3.0)
    assert np.allclose(scaled, base * 3.0, atol=1e-9)


def test_lowess_downweights_outlier():
    x = np.linspace(0, 1, 21)
    y = x.copy()
    y[10] += 50.0
    robust = lowess_fit(x, y, iterations=2)
    naive = lowess_fit(x, y, iterations=0)
    truth = x[10]
    assert abs(robust[10] - truth) < abs(naive[10] - truth)


def test_lowess_input_validation():
    with pytest.raises(ValueError):
        lowess_fit([1, 2], [1, 2])
    with pytest.raises(ValueError):
        lowess_fit([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        lowess_fit([1, 2, 3], [1, 2, 3], f=0.0)
