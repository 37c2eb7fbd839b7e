"""Month arithmetic tests."""

from __future__ import annotations

import pytest

from oatlas.months import (
    MonthFormatError,
    format_month,
    month_add,
    month_diff,
    month_range,
    parse_month,
)


def test_parse_and_format_round_trip():
    assert parse_month("2022-11") == (2022, 11)
    assert format_month(2022, 11) == "2022-11"
    assert format_month(*parse_month("1999-01")) == "1999-01"


@pytest.mark.parametrize(
    "bad",
    [
        "2022-13",
        "2022-00",
        "202211",
        "2022-1",
        "abcd-ef",
        "",
        "\u0662\u0660\u0662\u0662-\u0661\u0661",  # Arabic-Indic digits
        "\uff12\uff10\uff12\uff12-\uff11\uff11",  # fullwidth digits
        "2022-11\n",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MonthFormatError):
        parse_month(bad)


def test_month_add_wraps_years():
    assert month_add("2022-11", 1) == "2022-12"
    assert month_add("2022-11", 2) == "2023-01"
    assert month_add("2022-01", -1) == "2021-12"
    assert month_add("2022-06", -18) == "2020-12"


def test_month_diff_is_inverse_of_add():
    assert month_diff("2023-02", "2022-11") == 3
    for delta in range(-30, 31):
        assert month_diff(month_add("2021-07", delta), "2021-07") == delta


def test_month_range_inclusive():
    assert month_range("2022-11", "2023-01") == ["2022-11", "2022-12", "2023-01"]
    assert month_range("2022-11", "2022-11") == ["2022-11"]
    with pytest.raises(MonthFormatError):
        month_range("2023-01", "2022-11")
