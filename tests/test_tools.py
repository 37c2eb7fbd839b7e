"""The output comparison script ``tools/compare_outputs.py``."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_outputs  # noqa: E402


def test_one_checkout_on_both_sides_writes_the_same_golden_outputs(
    golden_root, tmp_path
):
    checkout = compare_outputs.REPO
    assert compare_outputs.compare_tree("golden", golden_root, checkout, tmp_path) == []
    assert (tmp_path / "golden" / "current" / "representation_scores.tsv").is_file()


def test_an_edited_file_and_a_file_on_one_side_are_reported(tmp_path):
    baseline, current = tmp_path / "baseline", tmp_path / "current"
    for root in (baseline, current):
        (root / "titles").mkdir(parents=True)
        (root / "same.tsv").write_text("x\n")
        (root / "titles" / "aa.tsv").write_text("1\tA\n")
    (current / "titles" / "aa.tsv").write_text("1\tB\n")
    (baseline / "gone.tsv").write_text("")
    (current / "new.json").write_text("{}")
    assert compare_outputs.differing_files(baseline, current) == [
        "gone.tsv: only in the baseline",
        "new.json: only in the current checkout",
        "titles/aa.tsv: differs",
    ]
