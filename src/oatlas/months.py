"""Calendar month arithmetic on ``YYYY-MM`` strings.

Snapshots, pageview rows, and panel observations are all keyed by month
strings of this form, so the helpers here are deliberately string-in,
string-out.  Where months are held in arrays, :func:`month_index` and
:func:`month_at` convert to and from consecutive integers.
"""

from __future__ import annotations

import re

# ASCII digits only, and the whole string: ``\d`` also takes other
# scripts' digits and ``$`` a trailing newline.
_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


class MonthFormatError(ValueError):
    """Raised when a month string is not of the form YYYY-MM."""


def parse_month(month: str) -> tuple[int, int]:
    """Split a ``YYYY-MM`` string into (year, month), validating both."""
    m = _MONTH_RE.fullmatch(month)
    if m is None:
        raise MonthFormatError(f"bad month {month!r}: expected YYYY-MM")
    year, mon = int(m.group(1)), int(m.group(2))
    if not 1 <= mon <= 12:
        raise MonthFormatError(f"bad month {month!r}: month out of range")
    return year, mon


def format_month(year: int, mon: int) -> str:
    return f"{year:04d}-{mon:02d}"


def month_index(month: str) -> int:
    """Months since 0000-01: consecutive months have consecutive indices."""
    year, mon = parse_month(month)
    return year * 12 + mon - 1


def month_at(index: int) -> str:
    """The month string of a :func:`month_index` value."""
    return format_month(index // 12, index % 12 + 1)


def month_add(month: str, delta: int) -> str:
    """Return the month ``delta`` calendar months after (or before) ``month``."""
    return month_at(month_index(month) + delta)


def month_diff(a: str, b: str) -> int:
    """Number of calendar months from ``b`` to ``a`` (positive when a > b)."""
    return month_index(a) - month_index(b)


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of months from ``first`` to ``last``."""
    n = month_diff(last, first)
    if n < 0:
        raise MonthFormatError(f"month range {first}..{last} runs backwards")
    return [month_add(first, k) for k in range(n + 1)]
