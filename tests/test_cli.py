"""End-to-end runs of the command line over the hand-checked tree."""

import io
import json
import math
import multiprocessing
import os
import pickle
import shutil
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import candidates, causal, characterize, cli, fixtures, graph, ingest
from oatlas.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    ConfigError,
    build_config,
    load_config_file,
)
from oatlas.months import month_at

from .oracles import QidIndexOracle
from .test_graph import _format_4_delta
from .test_ingest import _qidmap_rows, assert_same_pages

MONTHS = "2022-11:2022-12"


def _run(*args):
    return cli.main(list(args))


def _rows(path):
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            out.append(line.split("\t"))
    return out


@pytest.fixture(scope="module")
def pipeline(golden_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "out"
    rc = _run(
        "all",
        "--data",
        str(golden_root),
        "--out",
        str(out),
        "--languages",
        "aa,bb,cc",
        "--months",
        MONTHS,
    )
    assert rc == EXIT_OK
    return out


def test_all_stages_write_their_outputs(pipeline):
    for name in (
        "manifest.json",
        "qidmap.tsv",
        "wiki_summary.tsv",
        "lowess_curve.tsv",
        "representation_scores.tsv",
        "pairs.tsv",
        "panel.tsv",
        "estimates.json",
        "candidates.tsv",
        "coverage.tsv",
    ):
        assert (pipeline / name).is_file(), name
    for lang in ("aa", "bb", "cc"):
        assert (pipeline / "titles" / f"{lang}.tsv").is_file()
        for month in fixtures.GOLDEN_MONTHS:
            assert (pipeline / "snapshots" / lang / f"{month}.oatl").is_file()


def test_wiki_summary_matches_hand_computed_rates(pipeline):
    rows = {r[0]: r for r in _rows(pipeline / "wiki_summary.tsv")}
    assert set(rows) == {"aa", "bb", "cc"}
    assert [int(rows[l][1]) for l in ("aa", "bb", "cc")] == [6, 4, 3]
    for lang, row in rows.items():
        assert float(row[2]) == fixtures.GOLDEN_ORPHAN_FRACTIONS[lang]
        assert float(row[3]) == fixtures.GOLDEN_DEADEND_FRACTIONS[lang]


def test_pair_table_lists_both_directions(pipeline):
    rows = _rows(pipeline / "pairs.tsv")
    assert [r[0] for r in rows] == [
        "forward:2022-11:Q100:aa",
        "reverse:2022-11:Q200:aa",
    ]
    assert rows[0][1:6] == ["Q100", "aa", "bb", "2022-11", "forward"]
    assert rows[1][1:6] == ["Q200", "aa", "cc", "2022-11", "reverse"]
    header = (pipeline / "pairs.tsv").read_text().splitlines()
    assert any("dropped_no_qid=0" in line for line in header if line.startswith("#"))


def test_estimates_recover_hand_computed_effects(pipeline):
    payload = json.loads((pipeline / "estimates.json").read_text())
    forward = payload["forward"]["pooled"]["terms"]["treated_after"]["coef"]
    reverse = payload["reverse"]["pooled"]["terms"]["treated_after"]["coef"]
    assert abs(forward - fixtures.GOLDEN_FORWARD_EFFECT) < 1e-12
    assert abs(reverse - fixtures.GOLDEN_REVERSE_EFFECT) < 1e-12
    assert set(payload["forward"]["by_referrer"]) == {
        "external",
        "internal",
        "unknown",
    }
    assert "treated:period[+1]" in payload["forward"]["by_month"]["terms"]
    assert "treated:period[-1]" not in payload["forward"]["by_month"]["terms"]
    assert payload["forward"]["pooled"]["n_pairs"] == 1


def test_candidate_rows_are_exactly_the_hand_derived_ones(pipeline):
    assert _rows(pipeline / "candidates.tsv") == [
        ["aa", "1", "A_Home", "2", "A_Star", "findlink", "26-32", "0"],
        ["aa", "3", "A_Moon", "4", "A_Rock", "findlink", "6-12", "0"],
        ["aa", "7", "A_Source", "4", "A_Rock", "crosslingual", "bb", "1"],
    ]


def test_coverage_rows_count_orphans_and_methods(pipeline):
    assert _rows(pipeline / "coverage.tsv") == [
        ["aa", "4", "2", "0", "2", "0", "1", "0", "1"],
        ["bb", "2", "0", "0", "0", "0", "0", "0", "0"],
        ["cc", "0", "0", "0", "0", "0", "0", "0", "0"],
    ]


def test_repeated_runs_are_byte_identical(golden_root, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = _run("all", "--data", str(golden_root), "--out", str(out),
                  "--months", MONTHS)
        assert rc == EXIT_OK
        outs.append(out)
    first = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    second = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert first == second and len(first) >= 19
    for rel in first:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_downstream_stages_refuse_to_run_first(golden_root, tmp_path):
    out = tmp_path / "out"
    base = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert _run("orphans", *base) == EXIT_DATA_ERROR
    assert _run("panel", *base) == EXIT_DATA_ERROR
    assert _run("did", *base) == EXIT_DATA_ERROR
    assert _run("candidates", *base) == EXIT_DATA_ERROR


def test_month_configuration_errors(golden_root, tmp_path):
    out = tmp_path / "out"
    base = ("--data", str(golden_root), "--out", str(out))
    assert _run("ingest", *base, "--months", "2022-13") == EXIT_CONFIG_ERROR
    assert _run("ingest", *base, "--months", "late 2022") == EXIT_CONFIG_ERROR
    assert _run("ingest", *base) == EXIT_CONFIG_ERROR  # no months at all
    # The panel stage needs the month after the treatment month too.
    assert _run("panel", *base, "--months", "2022-11") == EXIT_CONFIG_ERROR


def test_numeric_flag_validation(golden_root, tmp_path):
    out = tmp_path / "out"
    base = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert _run("ingest", *base, "--window", "0") == EXIT_CONFIG_ERROR
    assert _run("ingest", *base, "--lowess-fraction", "1.5") == EXIT_CONFIG_ERROR
    assert _run("ingest", *base, "--min-pairs", "0") == EXIT_CONFIG_ERROR


def test_empty_allowlist_is_a_friendly_no_op(golden_root, tmp_path, capsys):
    out = tmp_path / "out"
    rc = _run("ingest", "--data", str(golden_root), "--out", str(out),
              "--languages", "", "--months", MONTHS)
    assert rc == EXIT_OK
    assert "nothing to ingest" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["languages"] == {}


def test_environment_variable_supplies_the_data_root(
    golden_root, tmp_path, monkeypatch
):
    out = tmp_path / "out"
    monkeypatch.setenv("OATLAS_DATA", str(golden_root))
    rc = _run("ingest", "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    # An explicit flag still beats the environment.
    monkeypatch.setenv("OATLAS_DATA", str(tmp_path / "nowhere"))
    rc = _run("ingest", "--data", str(golden_root), "--out", str(out),
              "--months", MONTHS)
    assert rc == EXIT_OK


def test_config_file_parsing_and_precedence(golden_root, tmp_path, monkeypatch):
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "# run settings\n"
        "data_root = /srv/da#ta\n"
        "months = 2022-11:2022-12  # range is inclusive\n"
        "languages = aa, bb\n"
        "window = 3  # months\n"
        "strict = yes\n"
    )
    values = load_config_file(config_path)
    assert values["data_root"] == "/srv/da#ta"  # a '#' inside a value stays
    assert values["languages"] == "aa, bb"
    assert values["window"] == "3"
    parser = cli._build_parser()
    args = parser.parse_args(["ingest", "--config", str(config_path)])
    env = {"OATLAS_DATA": str(golden_root)}
    config = build_config(args, env)
    assert config.data_root == golden_root  # environment beats the file
    assert config.months == ("2022-11", "2022-12")
    assert config.languages == ("aa", "bb")
    assert config.window == 3
    assert config.strict is True
    args = parser.parse_args(
        ["ingest", "--config", str(config_path), "--data", "elsewhere",
         "--window", "5"]
    )
    config = build_config(args, env)
    assert str(config.data_root) == "elsewhere"  # flag beats everything
    assert config.window == 5


def test_config_file_rejects_junk(tmp_path):
    bad_key = tmp_path / "a.conf"
    bad_key.write_text("plumbus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(bad_key)
    no_equals = tmp_path / "b.conf"
    no_equals.write_text("data_root\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(no_equals)
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(tmp_path / "missing.conf")
    bad_bool = tmp_path / "c.conf"
    bad_bool.write_text("data_root = /x\nmonths = 2022-11\nstrict = maybe\n")
    assert _run("ingest", "--config", str(bad_bool)) == EXIT_CONFIG_ERROR


def test_missing_dump_file_lenient_skip_and_strict_abort(golden_root, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    (data / "aa" / "2022-12" / "pagelinks.sql").unlink()
    out = tmp_path / "out"
    rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    note = manifest["languages"]["aa"]["months"]["2022-12"]
    assert "pagelinks.sql" in note["skipped"]
    assert (out / "snapshots" / "aa" / "2022-11.oatl").is_file()
    assert not (out / "snapshots" / "aa" / "2022-12.oatl").exists()
    # The other languages are unaffected.
    assert (out / "snapshots" / "bb" / "2022-12.oatl").is_file()
    rc = _run("ingest", "--data", str(data), "--out", str(tmp_path / "out2"),
              "--months", MONTHS, "--strict")
    assert rc == EXIT_DATA_ERROR


def test_missing_sitelinks_fails_before_any_dump_is_parsed(golden_root, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    (data / "sitelinks.tsv").unlink()
    out = tmp_path / "out"
    rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_DATA_ERROR
    assert not (out / "snapshots").exists()


def test_flipped_container_byte_is_a_data_error(golden_root, tmp_path, capsys):
    out = tmp_path / "out"
    base = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert _run("ingest", *base) == EXIT_OK
    container = out / "snapshots" / "aa" / "2022-11.oatl"
    blob = bytearray(container.read_bytes())
    # The top byte of the article count: magic, version, "aa", "2022-11".
    blob[4 + 1 + 2 + 2 + 2 + 7 + 7] ^= 0x40
    container.write_bytes(bytes(blob))
    capsys.readouterr()
    assert _run("orphans", *base) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(f"data error: {container}: ")


@pytest.mark.parametrize(
    "copies, stage",
    [
        ([("aa/2022-11", "bb/2022-11"), ("aa/2022-12", "bb/2022-12")], "orphans"),
        ([("aa/2022-12", "bb/2022-12")], "panel"),
        ([("aa/2022-12", "aa/2022-11")], "orphans"),
    ],
    ids=["another language", "another language in one month", "another month"],
)
def test_a_container_under_another_path_is_a_data_error(
    golden_root, pipeline, tmp_path, capsys, copies, stage
):
    """A container holds the language and month of its path, or the
    stage exits 3 naming the first one read that does not.  With ``aa``'s
    second month rewritten as a delta against the first, the path check
    comes before its base is read, also where it is copied over that
    base."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    snapshots = out / "snapshots"
    _as_delta(snapshots / "aa")
    for source, target in copies:
        shutil.copy(snapshots / f"{source}.oatl", snapshots / f"{target}.oatl")
    capsys.readouterr()
    rc = _run(stage, "--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_DATA_ERROR
    source, target = copies[0]
    path = snapshots / f"{target}.oatl"
    err = capsys.readouterr().err
    assert err == f"data error: {path}: holds {source}, not {target}\n"


def _as_delta(language_dir):
    """Rewrite a golden language's second month as a delta against its
    first, which ``ingest`` keeps whole in graphs this small; returns
    both paths."""
    first, second = (language_dir / f"{month}.oatl" for month in fixtures.GOLDEN_MONTHS)
    later = graph.LinkSnapshot.load(second)
    later.save(second, graph.LinkSnapshot.load(first))
    assert second.read_bytes()[4] == 5
    return first, second


def test_golden_months_are_whole_and_the_manifest_counts_their_churn(pipeline):
    """A golden graph's delta would take more bytes than the graph, so
    each month is a full container; the later one's manifest entry still
    counts the edges it removes from the first month and adds."""
    manifest = json.loads((pipeline / "manifest.json").read_text(encoding="utf-8"))
    for language in ("aa", "bb", "cc"):
        first, second = (
            pipeline / "snapshots" / language / f"{month}.oatl"
            for month in fixtures.GOLDEN_MONTHS
        )
        assert first.read_bytes()[4] == 3 and second.read_bytes()[4] == 3
        delta = graph.link_delta(
            graph.LinkSnapshot.load(first), graph.LinkSnapshot.load(second)
        )
        notes = manifest["languages"][language]["months"]
        assert "base_month" not in notes["2022-11"]
        assert notes["2022-12"].items() >= {
            "base_month": "2022-11",
            "edges_removed": len(delta.removed),
            "edges_added": len(delta.added),
        }.items()


# A month of links on one page table, from the month before: a few rows
# dropped, or the rows of another wiki.
_CHURN_MONTHS = {
    "2022-11": ("first", 0),
    "2022-12": ("first", 30),
    "2023-01": ("first", 60),
    "2023-02": ("other", 0),
    "2023-03": ("other", 30),
}


def _churn_tree(root):
    """One language ``aa`` over :data:`_CHURN_MONTHS`."""
    rng = np.random.default_rng(8)
    wiki = fixtures.random_wiki(rng, n_pages=300, n_links=1500)
    links = {
        "first": wiki.link_rows,
        "other": fixtures.random_wiki(rng, n_pages=300, n_links=1500).link_rows,
    }
    for month, (rows, dropped) in _CHURN_MONTHS.items():
        month_dir = root / "aa" / month
        month_dir.mkdir(parents=True)
        fixtures.write_sql_dump(month_dir / "page.sql", "page", wiki.page_rows)
        fixtures.write_sql_dump(
            month_dir / "redirect.sql", "redirect", wiki.redirect_rows
        )
        fixtures.write_sql_dump(
            month_dir / "pagelinks.sql", "pagelinks", links[rows][dropped:]
        )
    fixtures.write_sitelinks_tsv(root / "sitelinks.tsv", [("Q1", "aa", "P_1")])
    return root


def test_a_month_is_a_delta_against_the_last_whole_one_where_that_is_smaller(
    tmp_path,
):
    """Months that keep most links of the month saved whole before them
    are deltas against it; a month of another wiki's links is saved
    whole, and the months after it are stored against it."""
    data, out = _churn_tree(tmp_path / "data"), tmp_path / "out"
    args = ("--data", str(data), "--out", str(out), "--months", "2022-11:2023-03")
    assert _run("ingest", *args) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    notes = manifest["languages"]["aa"]["months"]
    snapshots_dir = out / "snapshots" / "aa"
    paths = {month: snapshots_dir / f"{month}.oatl" for month in _CHURN_MONTHS}
    snapshots = {month: graph.LinkSnapshot.load(path) for month, path in paths.items()}
    formats = [path.read_bytes()[4] for path in paths.values()]
    assert formats == [3, 5, 5, 3, 5]
    bases = [notes[month].get("base_month") for month in _CHURN_MONTHS]
    assert bases == [None, "2022-11", "2022-11", "2022-11", "2023-02"]
    for month, base_month in zip(_CHURN_MONTHS, bases):
        if base_month is None:
            continue
        base, later = snapshots[base_month], snapshots[month]
        delta = graph.link_delta(base, later)
        assert (notes[month]["edges_removed"], notes[month]["edges_added"]) == (
            len(delta.removed),
            len(delta.added),
        )
        sizes = []
        for against in (base, None):
            buffer = io.BytesIO()
            later.save(buffer, against)
            sizes.append(buffer.tell())
        assert paths[month].stat().st_size == min(sizes)


@st.composite
def _redrawn_months(draw):
    """A month and the next of one language: a few articles removed and
    added, and from none to all of the edges redrawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 200))
    ids = np.sort(rng.choice(np.arange(1, 10 * n), n, replace=False))
    sources, targets = rng.integers(0, n, (2, draw(st.integers(0, 8 * n))))
    redrawn = rng.random(len(sources)) < draw(st.sampled_from([0, 0.1, 0.5, 0.9, 1]))
    later_sources, later_targets = sources.copy(), targets.copy()
    later_sources[redrawn], later_targets[redrawn] = rng.integers(
        0, n, (2, redrawn.sum())
    )
    later_ids = ids.copy()
    later_ids[rng.random(n) < draw(st.sampled_from([0, 0.05]))] += 1  # moved ids
    later_ids = np.unique(later_ids)
    months = []
    for month, (src, dst), month_ids in (
        ("2022-11", (sources, targets), ids),
        ("2022-12", (later_sources, later_targets), later_ids),
    ):
        keep = (src != dst) & (src < len(month_ids)) & (dst < len(month_ids))
        edges = graph._csr(len(month_ids), src[keep], dst[keep])
        months.append(graph.LinkSnapshot("aa", month, month_ids, *edges))
    return months


@settings(max_examples=150, deadline=None)
@given(months=_redrawn_months(), held=st.sampled_from([None, "whole", "delta"]))
def test_a_month_is_saved_as_the_smaller_of_both_encodings(months, held):
    """``_save_month`` stops the full container once it outgrows the
    delta, and keeps what encoding both and taking the smaller keeps: the
    same form, file bytes and churn.  A path that holds a full container
    keeps one."""
    base, later = months
    delta, whole = io.BytesIO(), io.BytesIO()
    churn = later.save(delta, base)
    later.save(whole)
    as_delta = held != "whole" and delta.tell() < whole.tell()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "2022-12.oatl"
        if held is not None:
            later.save(path, base if held == "delta" else None)
        assert cli._save_month(later, path, base) == (churn, as_delta)
        assert path.read_bytes() == (delta if as_delta else whole).getvalue()
        assert [p.name for p in Path(tmp).iterdir()] == [path.name]


def test_a_capped_sink_takes_its_cap_and_not_a_byte_more():
    """A full container that takes as many bytes as the delta is written
    whole: a tie keeps the full container."""
    out = io.BytesIO()
    sink = cli._Capped(out, 5)
    sink.write(b"abc")
    sink.write(b"de")
    with pytest.raises(cli._Grown):
        sink.write(b"f")
    assert out.getvalue() == b"abcde"


def test_re_ingesting_an_earlier_window_keeps_a_base_whole(tmp_path):
    """A month saved whole that a later month's delta is stored against
    stays whole when an earlier window is ingested, though a delta
    against the month before it would be smaller."""
    data, out = _churn_tree(tmp_path / "data"), tmp_path / "out"
    for months in ("2022-12:2023-01", "2022-11:2022-12"):
        args = ("--data", str(data), "--out", str(out), "--months", months)
        assert _run("ingest", *args) == EXIT_OK
    paths = [out / "snapshots" / "aa" / f"{month}.oatl" for month in _CHURN_MONTHS]
    assert [path.read_bytes()[4] for path in paths[:3]] == [3, 3, 5]
    assert graph.LinkSnapshot.load(paths[2]).month == "2023-01"
    args = ("--data", str(data), "--out", str(out), "--months", "2023-01")
    assert _run("orphans", *args) == EXIT_OK


@pytest.mark.parametrize(
    "damage, stage, months, named, message",
    [
        ("missing", "orphans", "2022-12", "2022-12", "2022-11.oatl: not found"),
        ("missing", "panel", MONTHS, "2022-12", "2022-11.oatl: not found"),
        ("stale", "orphans", "2022-12", "2022-12", "not the graph"),
        ("stale", "panel", MONTHS, "2022-12", "not the graph"),
        ("a delta", "orphans", "2022-12", "2022-12", "is itself a delta"),
        ("a delta", "panel", MONTHS, "2022-11", "is itself a delta"),
    ],
)
def test_a_delta_without_its_base_is_a_data_error(
    golden_root, pipeline, tmp_path, capsys, damage, stage, months, named, message
):
    """A delta whose base container is gone, holds another graph (the
    panel stage checks the base it read a moment before), or is itself a
    delta exits 3, naming the delta read."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    first, second = _as_delta(out / "snapshots" / "aa")
    later = graph.LinkSnapshot.load(second)
    if damage == "missing":
        first.unlink()
    elif damage == "stale":
        graph.LinkSnapshot.from_edges("aa", "2022-11", [1, 2], [(1, 2)]).save(first)
    else:  # the first month rewritten as a delta against the second
        graph.LinkSnapshot.load(first).save(first, later)
    capsys.readouterr()
    rc = _run(stage, "--data", str(golden_root), "--out", str(out), "--months", months)
    assert rc == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out / 'snapshots' / 'aa' / named}.oatl: ")
    assert message in err


_CONTAINERS = [
    f"out/snapshots/{language}/{month}.oatl"
    for language in ("aa", "bb", "cc")
    for month in fixtures.GOLDEN_MONTHS
]
_NOVEMBER = [name for name in _CONTAINERS if name.endswith("2022-11.oatl")]
# The inputs of each stage on a finished golden tree, under the data root.
_STAGE_INPUTS = {
    "ingest": [
        *(
            f"aa/{month}/{dump}"
            for month in fixtures.GOLDEN_MONTHS
            for dump in cli.DUMP_FILES
        ),
        "sitelinks.tsv",
    ],
    "orphans": _NOVEMBER,
    "characterize": [*_NOVEMBER, "features.tsv"],
    "panel": [*_CONTAINERS, "out/qidmap.tsv", "pageviews.tsv"],
    "did": ["out/panel.tsv"],
    "candidates": [
        *_NOVEMBER,
        "out/qidmap.tsv",
        "out/titles/aa.tsv",
        "out/titles/bb.tsv",
        "aa/docs.jsonl",
    ],
}


def _damage(draw, blob, others):
    """``blob`` with a bit flipped, cut short or with a span repeated, or
    one of ``others``, the other containers if ``blob`` is one."""
    kind = draw(st.sampled_from(["flip", "cut", "repeat"] + ["swap"] * bool(others)))
    if kind == "swap":
        return draw(st.sampled_from(others))
    start = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        flipped = blob[start] ^ 1 << draw(st.integers(0, 7))
        return blob[:start] + bytes([flipped]) + blob[start + 1 :]
    if kind == "cut":
        return blob[:start]
    end = draw(st.integers(start + 1, len(blob)))
    return blob[:end] + blob[start:end] + blob[end:]


@settings(max_examples=60)
@given(data=st.data())
def test_a_damaged_input_never_raises(golden_root, pipeline, data):
    """A stage run on a finished tree with one input damaged, leniently
    and under --strict, exits 0, 3 or 4 and raises nothing."""
    stage = data.draw(st.sampled_from(sorted(_STAGE_INPUTS)))
    name = data.draw(st.sampled_from(_STAGE_INPUTS[stage]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        shutil.copytree(golden_root, root)
        shutil.copytree(pipeline, root / "out")
        others = [
            (root / other).read_bytes()
            for other in _CONTAINERS
            if name.endswith(".oatl") and other != name
        ]
        path = root / name
        path.write_bytes(_damage(data.draw, path.read_bytes(), others))
        args = ("--data", str(root), "--out", str(root / "out"), "--months", MONTHS)
        for strict in ((), ("--strict",)):
            rc = _run(stage, *args, *strict)
            assert rc in (EXIT_OK, EXIT_DATA_ERROR, EXIT_MODEL_ERROR)


def _format_2_container(snapshot):
    """The container of ``snapshot`` as format 2 wrote it: the varint
    blocks without deflate."""
    ids, indptr = snapshot.article_ids, snapshot._indptr
    rows = np.split(snapshot._targets, indptr[1:-1])
    target_gaps = [np.diff(row, prepend=0) for row in rows]
    values = np.concatenate([np.diff(ids, prepend=0), np.diff(indptr), *target_gaps])
    lang, month = snapshot.language.encode(), snapshot.month.encode()
    body = (
        b"OATL\x02"
        + struct.pack("<H", len(lang)) + lang
        + struct.pack("<H", len(month)) + month
        + struct.pack("<QQ", snapshot.n_articles, snapshot.n_edges)
        + graph._encode_varints(values)
    )
    return body + struct.pack("<I", zlib.crc32(body)) + b"LTAO"


def test_orphans_on_format_2_snapshots_is_a_data_error(golden_root, tmp_path, capsys):
    out = tmp_path / "out"
    base = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert _run("ingest", *base) == EXIT_OK
    # Every container is read first: a later month's delta needs its base.
    paths = sorted((out / "snapshots").rglob("*.oatl"))
    snapshots = [graph.LinkSnapshot.load(path) for path in paths]
    for path, snapshot in zip(paths, snapshots):
        path.write_bytes(_format_2_container(snapshot))
    capsys.readouterr()
    assert _run("orphans", *base) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "container format 2 is no longer read; re-run `oatlas ingest`" in err


def test_a_format_4_delta_is_a_data_error_naming_it(
    golden_root, pipeline, tmp_path, capsys
):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    first, second = (
        out / "snapshots" / "aa" / f"{month}.oatl" for month in fixtures.GOLDEN_MONTHS
    )
    base, later = graph.LinkSnapshot.load(first), graph.LinkSnapshot.load(second)
    second.write_bytes(_format_4_delta(base, later))
    capsys.readouterr()
    args = ("--data", str(golden_root), "--out", str(out), "--months", "2022-12")
    assert _run("orphans", *args) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (
        f"data error: {second}: container format 4 is no longer read;"
        " re-run `oatlas ingest`\n"
    )


def test_corrupt_dump_lenient_skip_and_strict_abort(golden_root, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    page_sql = data / "aa" / "2022-11" / "page.sql"
    with page_sql.open("ab") as handle:
        handle.write(b"INSERT INTO `page` VALUES (99,0,'Unterminated;\n")
    out = tmp_path / "out"
    rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["languages"]["aa"]["months"]["2022-11"]["skipped_rows"] >= 1
    assert manifest["languages"]["aa"]["months"]["2022-11"]["n_articles"] == 6
    rc = _run("ingest", "--data", str(data), "--out", str(tmp_path / "out2"),
              "--months", MONTHS, "--strict")
    assert rc == EXIT_DATA_ERROR


def test_malformed_pagelinks_row_lenient_skip_and_strict_abort(golden_root, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    # Three columns: the statement parses, the pagelinks row does not.
    with (data / "aa" / "2022-11" / "pagelinks.sql").open("ab") as handle:
        handle.write(b"INSERT INTO `pagelinks` VALUES (1,0,'A_Moon');\n")
    out = tmp_path / "out"
    rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["languages"]["aa"]["months"]["2022-11"]["skipped_rows"] == 1
    assert manifest["languages"]["aa"]["months"]["2022-12"]["skipped_rows"] == 0
    rc = _run("ingest", "--data", str(data), "--out", str(tmp_path / "out2"),
              "--months", MONTHS, "--strict")
    assert rc == EXIT_DATA_ERROR


def test_mistyped_page_and_redirect_rows_are_counted_and_strict_aborts(
    golden_root, tmp_path
):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    month_dir = data / "aa" / "2022-11"
    for name, row, mistyped in (
        ("page.sql", b"(6,0,'A_Iso',0)", b"(6,0,'A_Iso','x')"),
        ("redirect.sql", b"(5,0,'A_Home')", b"(5,'0','A_Home')"),
    ):
        dump = (month_dir / name).read_bytes()
        assert dump.count(row) == 1
        (month_dir / name).write_bytes(dump.replace(row, mistyped))
    out = tmp_path / "out"
    rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    months = json.loads((out / "manifest.json").read_text())["languages"]["aa"]["months"]
    assert months["2022-11"]["skipped_rows"] == 2
    assert months["2022-11"]["n_articles"] == 5
    assert months["2022-12"]["skipped_rows"] == 0
    rc = _run("ingest", "--data", str(data), "--out", str(tmp_path / "out2"),
              "--months", MONTHS, "--strict")
    assert rc == EXIT_DATA_ERROR


def test_orphans_keeps_a_wiki_without_articles_off_the_curve(golden_root, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    for month in MONTHS.split(":"):
        month_dir = data / "zz" / month
        month_dir.mkdir(parents=True)
        fixtures.write_sql_dump(
            month_dir / "page.sql", "page", [(1, 0, "Alias_a", 1), (2, 0, "Alias_b", 1)]
        )
        fixtures.write_sql_dump(
            month_dir / "redirect.sql", "redirect", [(1, 0, "Alias_b"), (2, 0, "Alias_a")]
        )
        fixtures.write_sql_dump(month_dir / "pagelinks.sql", "pagelinks", [])
    out = tmp_path / "out"
    base = ("--data", str(data), "--out", str(out), "--months", MONTHS)
    assert _run("ingest", *base) == EXIT_OK
    assert _run("orphans", *base) == EXIT_OK
    summary = {r[0]: r for r in _rows(out / "wiki_summary.tsv")}
    assert summary["zz"] == ["zz", "0", "NA", "NA"]
    curve = _rows(out / "lowess_curve.tsv")
    assert [r[0] for r in curve] == ["cc", "bb", "aa"]
    assert all(r[3] != "NA" for r in curve)


class _NoRows(tuple):
    """A stand-in for a row type, such as ``PanelObservation`` or
    ``FeatureRecord``, that fails when a row is made."""

    _fields = causal.PanelObservation._fields

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a row object was built")

    @classmethod
    def _make(cls, iterable):
        raise AssertionError("a row object was built")


def test_panel_and_did_stages_build_no_row_objects(
    golden_root, pipeline, tmp_path, monkeypatch
):
    """The panel goes from the pageviews to the estimates as columns."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    monkeypatch.setattr(causal, "PanelObservation", _NoRows)
    args = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    for stage in ("panel", "did"):
        assert _run(stage, *args, "--languages", "aa,bb,cc") == EXIT_OK
        for name in ("pairs.tsv", "panel.tsv", "estimates.json"):
            assert (out / name).read_bytes() == (pipeline / name).read_bytes()


def test_characterize_stage_builds_no_feature_records(
    golden_root, pipeline, tmp_path, monkeypatch
):
    """features.tsv goes into the feature tables as columns."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    (out / "representation_scores.tsv").unlink()
    monkeypatch.setattr(ingest, "FeatureRecord", _NoRows)
    args = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert _run("characterize", *args) == EXIT_OK
    name = "representation_scores.tsv"
    assert (out / name).read_bytes() == (pipeline / name).read_bytes()


def _no_orphan_set(snapshot):
    raise AssertionError("an orphan or dead-end set was built")


def test_orphans_and_candidates_stages_build_no_orphan_set(
    golden_root, pipeline, tmp_path, monkeypatch
):
    """The orphan and dead-end shares and the candidates' orphans come
    from the snapshots' degree arrays."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    for owner in (graph, characterize, candidates):
        monkeypatch.setattr(owner, "orphans", _no_orphan_set)
    monkeypatch.setattr(graph, "deadends", _no_orphan_set)
    args = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    for stage in ("orphans", "candidates"):
        assert _run(stage, *args) == EXIT_OK
    names = ("wiki_summary.tsv", "lowess_curve.tsv", "candidates.tsv", "coverage.tsv")
    for name in names:
        assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_every_stage_keeps_to_the_allowed_languages(
    golden_root, pipeline, tmp_path, capsys
):
    """After an ingest of aa, bb and cc, a stage run with ``--languages``
    reads the allowed languages' snapshots alone, also as cross-lingual
    evidence and as controls."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    args = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    for stage in ("orphans", "characterize", "candidates"):
        assert _run(stage, *args, "--languages", "aa") == EXIT_OK
    for name in ("wiki_summary.tsv", "lowess_curve.tsv", "representation_scores.tsv"):
        assert {row[0] for row in _rows(out / name)} == {"aa"}, name
    # aa's one cross-lingual candidate rests on bb's links, so it goes.
    assert _rows(out / "candidates.tsv") == [
        row for row in _rows(pipeline / "candidates.tsv") if row[5] == "findlink"
    ]
    coverage = [["aa", "4", "2", "0", "2", "0", "0", "0", "1"]]
    assert _rows(out / "coverage.tsv") == coverage
    # The reverse pair's control is in cc.
    assert _run("panel", *args, "--languages", "aa,bb") == EXIT_OK
    assert [row[0] for row in _rows(out / "pairs.tsv")] == ["forward:2022-11:Q100:aa"]
    capsys.readouterr()
    assert _run("orphans", *args, "--languages", "zz") == EXIT_DATA_ERROR
    assert "no snapshots of ['zz'] for 2022-11 under" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, stage, line",
    [
        ("pageviews.tsv", "panel", "aa\t2\t2022-99\tall\t5"),
        ("pageviews.tsv", "panel", "aa\t2\t2022-11\tall\t-5"),
        ("pageviews.tsv", "panel", None),
        ("sitelinks.tsv", "ingest", "Q900\taa\tA_Star"),
    ],
    ids=["bad month", "negative views", "duplicate row", "conflicting sitelink"],
)
def test_a_row_that_breaks_its_tables_rules_names_the_file(
    golden_root, pipeline, tmp_path, capsys, name, stage, line
):
    """Under --strict, a side-table row that reads but breaks a rule of
    its table (None: a copy of the first row) exits 3 naming the file."""
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    path = data / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines, line or lines[0]]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    capsys.readouterr()
    args = ("--data", str(data), "--out", str(out), "--months", MONTHS, "--strict")
    assert _run(stage, *args) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")


def test_a_bad_feature_row_of_a_language_left_out_still_fails(
    golden_root, tmp_path, capsys
):
    """Every line of features.tsv is checked, also one of a language
    that the run does not analyse."""
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    path = data / "features.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("bb\t") for line in lines)
    lines.append("bb\t1\t2\tNA\t0.5\t0.1\t0.1\t0.1\t0.5\t10")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ("--data", str(data), "--out", str(tmp_path / "out"), "--months", MONTHS)
    assert _run("ingest", *args, "--languages", "aa") == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out" / "snapshots").iterdir()) == ["aa"]
    capsys.readouterr()
    assert _run("characterize", *args, "--languages", "aa") == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert f"{path}: " in err and f"(line {len(lines)})" in err


@pytest.mark.parametrize(
    "name, stage",
    [
        ("features.tsv", "characterize"),
        ("sitelinks.tsv", "ingest"),
        ("pageviews.tsv", "panel"),
        ("aa/docs.jsonl", "candidates"),
        ("out/qidmap.tsv", "panel"),
        ("out/titles/aa.tsv", "candidates"),
        ("oatlas.conf", "orphans"),
    ],
)
def test_a_file_that_is_not_utf8_is_named(
    golden_root, pipeline, tmp_path, capsys, name, stage
):
    """A byte that is not UTF-8 exits 3 naming the file, or 2 in the
    config file, instead of a traceback."""
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    out = data / "out"
    shutil.copytree(pipeline, out)
    path = data / name
    config = data / "oatlas.conf"
    config.write_text(f"data_root = {data}\n", encoding="utf-8")
    with path.open("ab") as handle:
        handle.write(b"aa\t\xff\n")
    capsys.readouterr()
    rc = _run(stage, "--config", str(config), "--out", str(out), "--months", MONTHS)
    assert rc == (EXIT_CONFIG_ERROR if path == config else EXIT_DATA_ERROR)
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, stage",
    [
        ("features.tsv", "characterize"),
        ("pageviews.tsv", "panel"),
        ("out/qidmap.tsv", "panel"),
        ("out/titles/aa.tsv", "candidates"),
        ("out/panel.tsv", "did"),
    ],
)
def test_a_missing_input_is_named(golden_root, pipeline, tmp_path, capsys, name, stage):
    """A stage input that is not there exits 3 naming the file."""
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    out = data / "out"
    shutil.copytree(pipeline, out)
    path = data / name
    path.unlink()
    capsys.readouterr()
    rc = _run(stage, "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(f"data error: {path} not found")


def test_did_on_an_empty_panel_reports_then_fails(golden_root, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "panel.tsv").write_text(
        "# pair_id\trole\tlanguage\tmonth\tperiod_index\tlog_views\treferrer_class\n"
    )
    rc = _run("did", "--data", str(golden_root), "--out", str(out),
              "--months", MONTHS)
    assert rc == EXIT_DATA_ERROR
    payload = json.loads((out / "estimates.json").read_text())
    assert "no matched pairs" in payload["note"]


def test_representation_scores_cover_feature_rows(pipeline):
    rows = _rows(pipeline / "representation_scores.tsv")
    assert rows, "expected at least one representation score row"
    languages = {r[0] for r in rows}
    assert "aa" in languages
    assert all(len(r) == 8 for r in rows)


def test_document_text_may_hold_a_line_separator(golden_root, pipeline, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    docs_path = data / "aa" / "docs.jsonl"
    lines = docs_path.read_text(encoding="utf-8").splitlines()
    docs = [json.loads(line) for line in lines]
    # JSON leaves U+2028 unescaped; it must not end a document's line.
    docs[0]["text"] += "\u2028Next paragraph."
    fixtures.write_docs_jsonl(docs_path, docs)
    assert "\u2028" in docs_path.read_text(encoding="utf-8")
    out = tmp_path / "out"
    rc = _run("all", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    for name in ("candidates.tsv", "coverage.tsv"):
        assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


_HUGE_TIMESTAMP_ROW = "aa\t1\t0\tNA\t0.5\t0.1\t0.1\t0.1\t0.5\t1" + "0" * 400
_BAD_DOCUMENT = "{path}:{number}: bad document: "


@pytest.mark.parametrize(
    "name, stage, line, message",
    [
        ("aa/docs.jsonl", "candidates", '{"page_id": 1, "text": 5}', _BAD_DOCUMENT),
        ("aa/docs.jsonl", "candidates", '{"page_id": 1, "text": null}', _BAD_DOCUMENT),
        ("aa/docs.jsonl", "candidates", '{"page_id": 1e400, "text": "x"}', _BAD_DOCUMENT),
        ("aa/docs.jsonl", "candidates", '{"page_id": 3.9, "text": "x"}', _BAD_DOCUMENT),
        ("aa/docs.jsonl", "candidates", '{"page_id": true, "text": "x"}', _BAD_DOCUMENT),
        ("aa/docs.jsonl", "candidates", '{"page_id": "3", "text": "x"}', _BAD_DOCUMENT),
        ("aa/docs.jsonl", "candidates", '{"page_id": 0, "text": "x"}', _BAD_DOCUMENT),
        (
            "aa/docs.jsonl",
            "candidates",
            '{"page_id": 1, "text": "xyz", "links": [[0, 1.5, 2]]}',
            _BAD_DOCUMENT,
        ),
        (
            "aa/docs.jsonl",
            "candidates",
            '{"page_id": 1, "text": "xyz", "links": [[false, 1, 2]]}',
            _BAD_DOCUMENT,
        ),
        (
            "aa/docs.jsonl",
            "candidates",
            '{"page_id": 1, "text": "xyz", "links": [[0, 1, "2"]]}',
            _BAD_DOCUMENT,
        ),
        (
            "features.tsv",
            "characterize",
            _HUGE_TIMESTAMP_ROW,
            "{path}: bad line {line!r}: integer outside the int64 range (line {number})",
        ),
        (
            "features.tsv",
            "characterize",
            "aa\t1\t2\tNA\t0.5\t0.1\t0.1\t0.1\t0.5\t10",
            "{path}: bad line {line!r}: flag '2' is not 0 or 1 (line {number})",
        ),
    ],
    ids=[
        "text int",
        "text null",
        "page id 1e400",
        "page id float",
        "page id bool",
        "page id string",
        "page id 0",
        "span float",
        "span bool",
        "span string",
        "timestamp 1e400",
        "flag 2",
    ],
)
def test_a_data_line_of_the_wrong_type_names_its_line(
    golden_root, pipeline, tmp_path, capsys, name, stage, line, message
):
    """A JSON value or a TSV cell that parses but has the wrong type or
    range exits 3, naming the file and the line."""
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    path = data / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    capsys.readouterr()
    rc = _run(stage, "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_DATA_ERROR
    expected = message.format(path=path, number=len(lines) + 1, line=line)
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, column, cell",
    [
        ("titles/aa.tsv", 1, None),
        ("titles/aa.tsv", 0, "two"),
        ("titles/aa.tsv", 1, ""),
        ("qidmap.tsv", 3, None),
        ("qidmap.tsv", 2, "twelve"),
        ("qidmap.tsv", 2, "99999999999999999999"),
        ("qidmap.tsv", 2, "-4"),
        ("panel.tsv", 6, None),
        ("panel.tsv", 5, "lots"),
        ("panel.tsv", 4, "1" + "0" * 30),
        ("panel.tsv", 1, "contorl"),
        ("panel.tsv", 0, "fwd:2022-11:Q1:aa"),
        ("panel.tsv", 6, "mobile"),
        ("panel.tsv", 3, "2022-13"),
    ],
)
def test_malformed_stage_file_names_file_and_line(
    golden_root, pipeline, tmp_path, capsys, name, column, cell
):
    """One bad row (a column short, a non-numeric cell, a page id below 1, a
    page id or period beyond int64, a blank title, or a panel row of an
    unknown role, direction, referrer class or month) exits 3."""
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split("\t")
    if cell is None:
        del cells[column]
    else:
        cells[column] = cell
    lines[2] = "\t".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    stage = {"titles/aa.tsv": "candidates", "qidmap.tsv": "panel", "panel.tsv": "did"}
    capsys.readouterr()
    rc = _run(
        stage[name], "--data", str(golden_root), "--out", str(out), "--months", MONTHS
    )
    assert rc == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert f"{path}: " in err and "(line 3)" in err


def test_titles_file_without_an_orphan_row_is_a_data_error(
    golden_root, pipeline, tmp_path, capsys
):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    path = out / "titles" / "aa.tsv"
    text = path.read_text(encoding="utf-8")
    assert "2\tA_Star\n" in text
    path.write_text(text.replace("2\tA_Star\n", ""), encoding="utf-8")
    capsys.readouterr()
    rc = _run(
        "candidates", "--data", str(golden_root), "--out", str(out), "--months", MONTHS
    )
    assert rc == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert f"{path}: " in err and "orphan page 2" in err


# Text cells hold anything but tabs and line ends.  Pair ids start with
# their direction, and roles and referrer classes come from fixed lists.
_cell = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"))
_observations = st.lists(
    st.builds(
        causal.PanelObservation,
        pair_id=st.builds(
            "".join, st.tuples(st.sampled_from(["forward:", "reverse:"]), _cell)
        ),
        role=st.sampled_from([causal.TREATED, causal.CONTROL]),
        language=_cell,
        month=st.integers(0, 12 * 10_000 - 1).map(month_at),
        # Periods outside int64 are rejected on reading, by design.
        period_index=st.integers(-(2**63), 2**63 - 1),
        log_views=st.floats(allow_nan=False),
        referrer_class=st.sampled_from(ingest.REFERRER_CLASSES),
    )
)


@settings(max_examples=200)
@given(observations=_observations)
def test_panel_rows_round_trip_through_the_report_writer(observations):
    """Rows written by the report writer read back as the same rows, and
    the columns read back write the same bytes again."""
    with tempfile.TemporaryDirectory() as tmp:
        config = cli.RunConfig(data_root=Path(tmp), out_dir=Path(tmp))
        path = config.out_dir / "panel.tsv"
        cli._write_report(path, causal.PanelObservation._fields, observations)
        written = path.read_bytes()
        panel = cli._read_panel(config)
        assert list(panel) == observations
        cli._write_columns(
            path, causal.PanelObservation._fields, panel.text_blocks(cli._REPORT_BLOCK_ROWS)
        )
        assert path.read_bytes() == written


_REPORT_CELLS = [
    st.integers(),
    st.floats(),
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
        max_size=3,
    ),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.integers(-3, 3).map(np.int64),
        st.floats(),
        st.floats().map(np.float64),
        st.just("x"),
    ),
]


@settings(max_examples=300)
@given(data=st.data(), block_rows=st.integers(1, 5))
def test_report_columns_are_formatted_like_each_value(
    tmp_path_factory, data, block_rows
):
    kinds = data.draw(st.lists(st.sampled_from(_REPORT_CELLS), min_size=1, max_size=4))
    rows = data.draw(st.lists(st.tuples(*kinds), max_size=12))
    path = tmp_path_factory.mktemp("report") / "report.tsv"
    with mock.patch.object(cli, "_REPORT_BLOCK_ROWS", block_rows):
        cli._write_report(path, ["c"] * len(kinds), rows, notes=["n"])
    expected = "".join("\t".join(map(cli._fmt, row)) + "\n" for row in rows)
    header = "# " + "\t".join(["c"] * len(kinds)) + "\n# n\n"
    assert path.read_bytes() == (header + expected).encode("utf-8")


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "report.tsv"
    cli._write_report(path, ("a",), [(1,)])

    def rows():
        yield (2,)
        raise RuntimeError("writer stopped")

    with pytest.raises(RuntimeError, match="writer stopped"):
        cli._write_report(path, ("a",), rows())
    with pytest.raises(RuntimeError, match="writer stopped"):
        with ingest.atomic_file(path) as handle:
            handle.write(b"partial")
            raise RuntimeError("writer stopped")
    assert path.read_bytes() == b"# a\n1\n"

    snapshot_path = tmp_path / "aa.oatl"
    snapshot = graph.LinkSnapshot.from_edges("aa", "2022-11", [1, 2], [(1, 2)])
    snapshot.save(snapshot_path)
    saved = snapshot_path.read_bytes()
    with mock.patch.object(graph, "_encode_varints", side_effect=RuntimeError("stop")):
        with pytest.raises(RuntimeError):
            graph.LinkSnapshot.from_edges("aa", "2022-11", [1], []).save(snapshot_path)
    assert snapshot_path.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aa.oatl", "report.tsv"]


# ---------------------------------------------------------------------------
# Ingest workers: one forked process per language
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "error",
    [
        cli.DataError("aa/2022-11: missing page.sql"),
        cli.ModelError("no pairs"),
        FileNotFoundError(2, "No such file or directory", "page.sql"),
        ingest.SqlDumpError("malformed or oversized tuple", 505),
        ingest.TsvFormatError("expected 3 columns, got 2", 7),
        ingest.DuplicateKeyError("duplicate page id 3"),
        ingest.InvalidRecordError("unknown referrer class 'x'"),
        graph.SnapshotFormatError("bad magic"),
        graph.SnapshotIntegrityError("edge out of range"),
        causal.DegeneratePanelError("no treated rows"),
        causal.RankDeficientError(["treated", "after"]),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_that_main_maps_to_an_exit_code_pickle(error):
    """A worker's error reaches the parent pickled, unchanged."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def _random_tree(root, seed, languages=("aa", "bb", "cc", "dd")):
    """A messy ``fixtures.random_wiki`` month per language and month."""
    rng = np.random.default_rng(seed)
    sitelinks = []
    for language in languages:
        for month in fixtures.GOLDEN_MONTHS:
            wiki = fixtures.random_wiki(rng, n_pages=60, n_links=240)
            month_dir = root / language / month
            month_dir.mkdir(parents=True)
            fixtures.write_sql_dump(month_dir / "page.sql", "page", wiki.page_rows)
            fixtures.write_sql_dump(
                month_dir / "redirect.sql", "redirect", wiki.redirect_rows
            )
            fixtures.write_sql_dump(
                month_dir / "pagelinks.sql", "pagelinks", wiki.link_rows
            )
        sitelinks += [(f"Q{i}", language, f"P_{i}") for i in range(1, 41, 3)]
    fixtures.write_sitelinks_tsv(root / "sitelinks.tsv", sitelinks)
    return root


def _tree_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("tree", ["golden", "random"])
def test_ingest_output_does_not_depend_on_the_worker_count(golden_root, tmp_path, tree):
    data = golden_root if tree == "golden" else _random_tree(tmp_path / "data", 5)
    outputs = []
    for cpus in ({0}, {0, 1, 2}):
        out = tmp_path / f"out{len(cpus)}"
        with mock.patch.object(cli.os, "sched_getaffinity", return_value=cpus):
            rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
        assert rc == EXIT_OK
        outputs.append(_tree_bytes(out))
    assert outputs[0] == outputs[1]
    languages = ("aa", "bb", "cc") if tree == "golden" else ("aa", "bb", "cc", "dd")
    assert {path.parts[1] for path in outputs[0] if path.parts[0] == "snapshots"} == set(
        languages
    )


def _append_corrupt_statement(path):
    """Break the dump at ``path``; returns the error ``ingest`` reports."""
    with path.open("ab") as handle:
        handle.write(b"INSERT INTO `page` VALUES (99,0,'Unterminated;\n")
    with path.open("rb") as handle:
        with pytest.raises(ingest.SqlDumpError) as excinfo:
            list(ingest.parse_sql_insert_rows(handle, strict=True))
    return f"{path}: {excinfo.value}"


def test_strict_ingest_reports_the_first_failing_language(golden_root, tmp_path, capsys):
    """aa fails in its last dump, bb in its first and cc misses a dump:
    aa's error is reported, as when the languages ran one by one."""
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    first = _append_corrupt_statement(data / "aa" / "2022-12" / "pagelinks.sql")
    second = _append_corrupt_statement(data / "bb" / "2022-11" / "page.sql")
    assert first != second
    (data / "cc" / "2022-11" / "redirect.sql").unlink()
    capsys.readouterr()
    rc = _run(
        "ingest", "--data", str(data), "--out", str(tmp_path / "out"),
        "--months", MONTHS, "--strict",
    )
    assert rc == EXIT_DATA_ERROR
    assert capsys.readouterr().err == f"data error: {first}\n"


def test_a_failing_dump_outranks_a_malformed_sitelink_table(golden_root, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    message = _append_corrupt_statement(data / "bb" / "2022-12" / "page.sql")
    with (data / "sitelinks.tsv").open("a", encoding="utf-8") as handle:
        handle.write("Q900\tonly two cells\n")
    args = ("ingest", "--data", str(data), "--months", MONTHS, "--strict")
    capsys.readouterr()
    assert _run(*args, "--out", str(tmp_path / "out")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == f"data error: {message}\n"
    # With the dump mended, the sitelink table's own error is reported.
    shutil.copy(golden_root / "bb" / "2022-12" / "page.sql", data / "bb" / "2022-12")
    assert _run(*args, "--out", str(tmp_path / "out2")) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "sitelinks.tsv: " in err and "expected 3 columns" in err


@pytest.mark.parametrize("damage", ["cut short", "bad row"])
@pytest.mark.parametrize("name", cli.DUMP_FILES)
def test_a_dump_error_names_its_file(golden_root, tmp_path, capsys, name, damage):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    path = data / "aa" / "2022-11" / name
    dump = path.read_bytes()
    table = name.removesuffix(".sql")
    if damage == "cut short":
        path.write_bytes(dump[:-20])
        detail = "(byte offset "
    else:
        path.write_bytes(dump + f"INSERT INTO `{table}` VALUES ('bad');\n".encode())
        detail = f"bad {table} row ('bad',)"
    capsys.readouterr()
    rc = _run(
        "ingest", "--data", str(data), "--out", str(tmp_path / "out"),
        "--months", MONTHS, "--strict",
    )
    assert rc == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and detail in err


_BEYOND_INT64 = 99999999999999999999


@pytest.mark.parametrize(
    "name, row",
    [
        ("page.sql", f"({_BEYOND_INT64},0,'Huge',0)"),
        ("redirect.sql", f"({_BEYOND_INT64},0,'A_Home')"),
        ("pagelinks.sql", f"({_BEYOND_INT64},0,'A_Home',0)"),
    ],
)
def test_an_id_beyond_int64_is_a_bad_row(
    golden_root, pipeline, tmp_path, capsys, name, row
):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    month_dir = data / "aa" / "2022-11"
    table = name.removesuffix(".sql")
    with (month_dir / name).open("a", encoding="utf-8") as handle:
        handle.write(f"INSERT INTO `{table}` VALUES {row};\n")
    with (month_dir / "pagelinks.sql").open("a", encoding="utf-8") as handle:
        handle.write("INSERT INTO `pagelinks` VALUES (1,0,'Huge',0);\n")
    out = tmp_path / "out"
    args = ("ingest", "--data", str(data), "--months", MONTHS)
    assert _run(*args, "--out", str(out)) == EXIT_OK
    month = json.loads((out / "manifest.json").read_text())["languages"]["aa"]
    golden = json.loads((pipeline / "manifest.json").read_text())["languages"]["aa"]
    month, golden = month["months"]["2022-11"], golden["months"]["2022-11"]
    assert month["skipped_rows"] == golden["skipped_rows"] + 1
    assert (month["n_articles"], month["n_edges"]) == (
        golden["n_articles"],
        golden["n_edges"],
    )
    # The link to the skipped page names a missing title.
    missing = month["dropped_links"]["missing_target"]
    assert missing == golden["dropped_links"]["missing_target"] + 1

    capsys.readouterr()
    assert _run(*args, "--out", str(tmp_path / "out2"), "--strict") == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    path = month_dir / name
    assert err.startswith(f"data error: {path}: bad {table} row ({_BEYOND_INT64}, 0, ")


def test_a_missing_month_is_logged_by_the_parent(golden_root, tmp_path, caplog):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    (data / "bb" / "2022-11" / "page.sql").unlink()
    (data / "aa" / "2022-12" / "redirect.sql").unlink()
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="oatlas.cli"):
        rc = _run("ingest", "--data", str(data), "--out", str(out), "--months", MONTHS)
    assert rc == EXIT_OK
    # caplog sees only this process's records.
    assert [r.getMessage() for r in caplog.records if r.name == "oatlas.cli"] == [
        "skipping aa/2022-12: missing redirect.sql",
        "skipping bb/2022-11: missing page.sql",
    ]
    months = json.loads((out / "manifest.json").read_text())["languages"]
    assert months["aa"]["months"]["2022-12"] == {"skipped": "missing redirect.sql"}
    assert months["bb"]["months"]["2022-11"] == {"skipped": "missing page.sql"}
    assert months["bb"]["months"]["2022-12"]["n_articles"] > 0
    # bb's titles come from its first ingested month.
    assert (out / "titles" / "bb.tsv").is_file()


def test_ingest_leaves_no_worker_running(golden_root, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(golden_root, data)
    args = ("ingest", "--data", str(data), "--months", MONTHS, "--strict")
    assert _run(*args, "--out", str(tmp_path / "out")) == EXIT_OK
    assert multiprocessing.active_children() == []
    _append_corrupt_statement(data / "aa" / "2022-11" / "page.sql")
    assert _run(*args, "--out", str(tmp_path / "out2")) == EXIT_DATA_ERROR
    assert multiprocessing.active_children() == []


def test_importing_the_cli_leaves_the_stage_modules_and_the_process_pool_out():
    """Each stage imports what it runs; the command line itself imports
    neither the process pool nor the modules of other stages."""
    left_out = {
        "multiprocessing",
        "concurrent.futures.process",
        "oatlas.candidates",
        "oatlas.causal",
        "oatlas.characterize",
    }
    code = f"import sys, oatlas.cli; print(sorted({left_out!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, sys.path))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_the_cli_loads_numpy_with_one_blas_thread_unless_set(preset, seen):
    code = "import os, oatlas.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(map(str, sys.path))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == seen


@settings(max_examples=200)
@given(rows=_qidmap_rows, block_lines=st.integers(1, 5))
def test_qid_map_loads_like_the_per_row_oracle(rows, block_lines):
    """``qidmap.tsv``'s pages read back, conflicting rows included, in
    blocks of any size."""
    oracle = QidIndexOracle()
    oracle.add_rows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        config = cli.RunConfig(data_root=Path(tmp), out_dir=Path(tmp))
        cli._write_report(
            config.out_dir / "qidmap.tsv", ("qid", "language", "page_id", "title"), rows
        )
        with mock.patch.object(ingest, "_TSV_BLOCK_LINES", block_lines):
            index = cli._load_qid_index(config)
    assert_same_pages(index, oracle)
