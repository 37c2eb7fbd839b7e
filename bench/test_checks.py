"""The output checks pass on real outputs and fail on corrupted ones.

    python3 -m pytest bench/test_checks.py

Runs the pipeline once on a small corpus tree (which has pairs, a
document corpus and crosslingual candidates, so every check has rows to
look at), then corrupts one row of one output file at a time and asserts
that the check reading that file fails.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

import checks
import expect
import generate
from run import WORK, run_pipeline


@pytest.fixture(scope="module")
def outputs() -> tuple[expect.Expected, Path]:
    work = WORK / "test_checks"
    shutil.rmtree(work, ignore_errors=True)
    tree = generate.build("corpus", 3, scale=0.1)
    tree.write(work / "data")
    runs = run_pipeline(work / "data", work / "out", work / "stages.log")
    assert [r.returncode for r in runs] == [0] * len(runs)
    return expect.compute(tree), work / "out"


def _edit_row(text: str, wanted, change) -> str:
    """Apply ``change`` to the first data row whose cells satisfy ``wanted``."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith("#") and wanted(line.split("\t")):
            cells = line.split("\t")
            lines[i] = "\t".join(change(cells))
            return "\n".join(lines)
    raise AssertionError("no row to corrupt")


def _set(index: int, value):
    def change(cells):
        cells[index] = value(cells[index])
        return cells

    return change


def _bump_first_span(evidence: str) -> str:
    start, rest = evidence.split("-", 1)
    return f"{int(start) + 1}-{rest}"


def _drop_row(wanted):
    def corrupt(text: str) -> str:
        return _edit_row(text, wanted, lambda cells: ["#dropped"])

    return corrupt


def _coef(text: str) -> str:
    data = json.loads(text)
    data["forward"]["pooled"]["terms"]["treated_after"]["coef"] += 1e-6
    return json.dumps(data)


CORRUPTIONS = {
    "manifest": ("manifest.json", lambda t: re.sub(r'"n_edges": (\d+)', r'"n_edges": 1\1', t, count=1)),
    "qidmap": ("qidmap.tsv", _drop_row(lambda c: True)),
    "wiki_summary": ("wiki_summary.tsv", lambda t: _edit_row(t, lambda c: True, _set(2, lambda v: repr(float(v) + 1e-9)))),
    "representation_scores": (
        "representation_scores.tsv",
        lambda t: _edit_row(t, lambda c: c[5] != "0", _set(5, lambda v: str(int(v) - 1))),
    ),
    "pairs": ("pairs.tsv", lambda t: _edit_row(t, lambda c: True, _set(3, lambda v: "xx"))),
    "panel": ("panel.tsv", lambda t: _edit_row(t, lambda c: True, _set(5, lambda v: repr(float(v) + 0.5)))),
    "did_cell_means": ("estimates.json", _coef),
    "findlink": (
        "candidates.tsv",
        lambda t: _edit_row(t, lambda c: c[5] == "findlink", _set(6, _bump_first_span)),
    ),
    "crosslingual": ("candidates.tsv", _drop_row(lambda c: c[5] == "crosslingual")),
    "coverage": ("coverage.tsv", lambda t: _edit_row(t, lambda c: True, _set(2, lambda v: str(int(v) + 1)))),
}


def _check(exp: expect.Expected, name: str):
    return dict(checks.checks_for(exp))[name]


def test_every_check_passes_on_the_real_outputs(outputs):
    exp, out = outputs
    for name, check in checks.checks_for(exp):
        assert checks.run_check(check, exp, out) == [], name


def test_every_check_has_a_corruption():
    exp = expect.Expected(generate.build("corpus", 3, scale=0.1))
    assert {name for name, _ in checks.checks_for(exp)} - {"did_effect"} == set(CORRUPTIONS)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_corrupted_row_fails_its_check(outputs, name):
    exp, out = outputs
    corrupt_out = out.with_name("out_corrupt")
    shutil.rmtree(corrupt_out, ignore_errors=True)
    shutil.copytree(out, corrupt_out)
    filename, corrupt = CORRUPTIONS[name]
    path = corrupt_out / filename
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert checks.run_check(_check(exp, name), exp, corrupt_out) != []


def test_the_effect_check_rejects_a_missed_effect(outputs, monkeypatch):
    exp, out = outputs
    monkeypatch.setattr(checks, "FORWARD_EFFECT", checks.FORWARD_EFFECT + 1.0)
    assert checks.check_effect(exp, out) != []


def test_identical_trees_compare_equal_and_a_changed_byte_does_not(outputs):
    _, out = outputs
    copy = out.with_name("out_copy")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    assert checks.same_tree(out, copy) == []
    path = copy / "wiki_summary.tsv"
    path.write_bytes(path.read_bytes() + b"\n")
    assert checks.same_tree(out, copy) != []
