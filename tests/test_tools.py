"""The scripts ``tools/compare_outputs.py``, ``tools/time_stage.py`` and
``tools/line_count.py``."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from oatlas import graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_outputs  # noqa: E402
import line_count  # noqa: E402
import time_stage  # noqa: E402


def test_one_checkout_on_both_sides_writes_the_same_golden_outputs(
    golden_root, tmp_path
):
    checkout = compare_outputs.REPO
    problems, sizes = compare_outputs.compare_tree(
        "golden", golden_root, checkout, tmp_path
    )
    assert problems == []
    assert (tmp_path / "golden" / "current" / "representation_scores.tsv").is_file()
    # The golden tree's graphs are too small for a delta to pay.
    written = sum(p.stat().st_size for p in (tmp_path / "golden").rglob("*.oatl"))
    side = f"{written // 2:,}"
    assert written > 0 and sizes == (
        f"golden: .oatl bytes {side} in the baseline ({side} full, 0 delta),"
        f" {side} in the current checkout ({side} full, 0 delta), ratio 1.0000"
    )


def test_an_edited_file_and_a_file_on_one_side_are_reported(tmp_path):
    baseline, current = tmp_path / "baseline", tmp_path / "current"
    for root in (baseline, current):
        (root / "titles").mkdir(parents=True)
        (root / "same.tsv").write_text("x\n")
        (root / "titles" / "aa.tsv").write_text("1\tA\n")
    (current / "titles" / "aa.tsv").write_text("1\tB\n")
    (baseline / "gone.tsv").write_text("")
    (current / "new.json").write_text("{}")
    checkouts = (compare_outputs.REPO, compare_outputs.REPO)
    assert compare_outputs.differing_files(baseline, current, checkouts) == [
        "gone.tsv: only in the baseline",
        "new.json: only in the current checkout",
        "titles/aa.tsv: differs",
    ]


def test_a_container_re_encoded_is_told_from_one_that_differs(tmp_path):
    """Two containers of one graph written at different deflate levels,
    or a later month written whole and as a delta against the month
    before, differ in bytes but not in what the program reads from them."""
    snapshot = graph.LinkSnapshot.from_edges("aa", "m", [1, 2, 9], [(1, 9), (9, 2)])
    other = graph.LinkSnapshot.from_edges("aa", "m", [1, 2, 9], [(1, 9)])
    first = graph.LinkSnapshot.from_edges("aa", "2022-11", [1, 2, 9], [(1, 9)])
    second = graph.LinkSnapshot.from_edges("aa", "2022-12", [1, 2], [(2, 1)])
    baseline, current = tmp_path / "baseline", tmp_path / "current"
    for root in (baseline, current):
        (root / "snapshots").mkdir(parents=True)
        first.save(root / "snapshots" / "2022-11.oatl")
    second.save(baseline / "snapshots" / "2022-12.oatl")
    second.save(current / "snapshots" / "2022-12.oatl", first)
    snapshot.save(baseline / "snapshots" / "same.oatl")
    snapshot.save(baseline / "snapshots" / "other.oatl")
    (baseline / "snapshots" / "broken.oatl").write_bytes(b"OATL")
    (current / "snapshots" / "broken.oatl").write_bytes(b"OATL\x03")
    with mock.patch.object(graph, "_ZLIB_LEVEL", 9):
        snapshot.save(current / "snapshots" / "same.oatl")
        other.save(current / "snapshots" / "other.oatl")
    assert (baseline / "snapshots" / "same.oatl").read_bytes() != (
        current / "snapshots" / "same.oatl"
    ).read_bytes()
    checkouts = (compare_outputs.REPO, compare_outputs.REPO)
    assert compare_outputs.differing_files(baseline, current, checkouts) == [
        "snapshots/2022-12.oatl: same graph, re-encoded",
        "snapshots/broken.oatl: differs",
        "snapshots/other.oatl: differs",
        "snapshots/same.oatl: same graph, re-encoded",
    ]
    # A container is told by its first five bytes: the current side's
    # delta is its second month, and of the broken files the baseline's
    # bare magic counts as a delta and the current side's as full.
    sizes = {
        path.relative_to(tmp_path).as_posix(): path.stat().st_size
        for path in tmp_path.rglob("*.oatl")
    }
    old = sum(n for name, n in sizes.items() if name.startswith("baseline/"))
    new = sum(n for name, n in sizes.items() if name.startswith("current/"))
    new_delta = sizes["current/snapshots/2022-12.oatl"]
    old_delta = sizes["baseline/snapshots/broken.oatl"]
    assert compare_outputs.container_sizes("tree", baseline, current) == (
        f"tree: .oatl bytes {old:,} in the baseline ({old - old_delta:,} full,"
        f" {old_delta:,} delta), {new:,} in the current checkout"
        f" ({new - new_delta:,} full, {new_delta:,} delta), ratio {new / old:.4f}"
    )
    assert compare_outputs.container_sizes("none", tmp_path / "a", tmp_path / "b") == (
        "none: .oatl bytes 0 in the baseline (0 full, 0 delta), 0 in the current"
        " checkout (0 full, 0 delta), ratio -"
    )


def test_the_program_runs_in_the_environment_the_tools_were_started_in():
    """Importing ``time_stage`` loads ``oatlas.cli``, which sets
    OPENBLAS_NUM_THREADS in its own process; the commands the tools run
    do not inherit it."""
    code = (
        "import os, sys; from pathlib import Path; sys.path.insert(0, 'tools'); "
        "import time_stage; "
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'; "
        "_, env = time_stage.cli_command(Path('.'), Path('data'), Path('out')); "
        "print(env.get('OPENBLAS_NUM_THREADS'))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(compare_outputs.REPO / "src")
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=compare_outputs.REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "None\n"


def test_a_stage_is_timed_on_both_sides_after_the_stages_before_it(
    golden_root, tmp_path
):
    checkout = compare_outputs.REPO
    times = time_stage.time_stage(checkout, golden_root, "orphans", 2, tmp_path)
    assert {side: len(runs) for side, runs in times.items()} == {
        "baseline": 2,
        "current": 2,
    }
    # ingest ran once per side, untimed, before the timed orphans runs.
    for side in time_stage.SIDES:
        assert (tmp_path / side / "snapshots").is_dir()
        assert (tmp_path / side / "wiki_summary.tsv").is_file()
    # Each run's peak RSS is that of its own process, which is smaller
    # than this one with numpy, hypothesis and the test modules loaded.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    assert all(0 < run.rss_mb < own for runs in times.values() for run in runs)
    lines = time_stage.summary(times)
    assert [line.split(":")[0] for line in lines] == ["baseline", "current"]
    wins = [int(line.split("faster in ")[1].split(" of")[0]) for line in lines]
    assert sum(wins) == 2 and all(line.endswith("of 2 runs") for line in lines)


def test_the_summary_reports_each_sides_median_peak_rss():
    run = time_stage.StageRun
    times = {
        "baseline": [run(1.0, 50.0), run(3.0, 56.0), run(2.0, 52.0), run(2.0, 46.0)],
        "current": [run(0.5, 47.0), run(4.0, 45.0), run(1.0, 46.0), run(2.0, 46.0)],
    }
    # The last pair ties on both measures and counts for neither side.
    assert time_stage.summary(times) == [
        "baseline: median 2.000 s, quartiles 1.750-2.250 s, faster in 1 of 4 runs; "
        "peak RSS median 51.0 MB, quartiles 49.0-53.0 MB, smaller in 0 of 4 runs",
        "current: median 1.500 s, quartiles 0.875-2.500 s, faster in 2 of 4 runs; "
        "peak RSS median 46.0 MB, quartiles 45.8-46.2 MB, smaller in 3 of 4 runs",
    ]


def test_a_failing_run_stops_the_timing(tmp_path):
    with pytest.raises(time_stage.StageFailed, match="ingest in .* exited 3"):
        time_stage.time_stage(
            compare_outputs.REPO, tmp_path / "no tree", "ingest", 2, tmp_path
        )


_MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code

# A comment line.


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a docstring:
        a string in code"""
        return text
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    assert line_count.count_lines(_MODULE) == (17, 6)


def test_line_counts_of_two_checkouts_and_their_difference(tmp_path):
    for side, text in (("base", "x = 1\n"), ("new", "x = 1\n\ny = 2\n")):
        package = tmp_path / side / line_count.PACKAGE
        package.mkdir(parents=True)
        (package / "a.py").write_text(text)
    (package / "b.py").write_text("# only here\n")
    current = line_count.module_counts(tmp_path / "new")
    baseline = line_count.module_counts(tmp_path / "base")
    assert current == {"a.py": (3, 2), "b.py": (1, 0)}
    rows = [line.split() for line in line_count.table(current, baseline)]
    assert rows[1:] == [
        ["a.py", "3", "2", "1", "1", "+2", "+1"],
        ["b.py", "1", "0", "0", "0", "+1", "+0"],
        ["total", "4", "2", "1", "1", "+3", "+1"],
    ]
    assert [row.split()[0] for row in line_count.table(current)] == [
        "module",
        "a.py",
        "b.py",
        "total",
    ]
    same = line_count.module_counts(line_count.REPO)
    assert line_count.table(same, same)[-1].split()[-2:] == ["+0", "+0"]
