"""End-to-end runs of the command line over the hand-checked tree."""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import causal, cli, fixtures
from oatlas.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_OK,
    ConfigError,
    build_config,
    load_config_file,
)

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


def test_flipped_container_byte_is_a_data_error(golden_root, tmp_path):
    out = tmp_path / "out"
    base = ("--data", str(golden_root), "--out", str(out), "--months", MONTHS)
    assert _run("ingest", *base) == EXIT_OK
    container = out / "snapshots" / "aa" / "2022-11.oatl"
    blob = bytearray(container.read_bytes())
    # The top byte of the article count: magic, version, "aa", "2022-11".
    blob[4 + 1 + 2 + 2 + 2 + 7 + 7] ^= 0x40
    container.write_bytes(bytes(blob))
    assert _run("orphans", *base) == EXIT_DATA_ERROR


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


@pytest.mark.parametrize(
    "name, column, cell",
    [
        ("titles/aa.tsv", 1, None),
        ("titles/aa.tsv", 0, "two"),
        ("qidmap.tsv", 3, None),
        ("qidmap.tsv", 2, "twelve"),
        ("panel.tsv", 6, None),
        ("panel.tsv", 5, "lots"),
    ],
)
def test_malformed_stage_file_names_file_and_line(
    golden_root, pipeline, tmp_path, capsys, name, column, cell
):
    """One bad row (a column short, or a non-numeric cell) exits 3."""
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


# Text cells hold anything but tabs and line ends.  A row whose first
# cell starts with '#' reads as a comment; pair ids start with their
# direction.
_cell = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"))
_observations = st.lists(
    st.builds(
        causal.PanelObservation,
        pair_id=_cell.filter(lambda text: not text.startswith("#")),
        role=_cell,
        language=_cell,
        month=_cell,
        period_index=st.integers(),
        log_views=st.floats(allow_nan=False, allow_infinity=False),
        referrer_class=_cell,
    )
)


@settings(max_examples=200)
@given(observations=_observations)
def test_panel_rows_round_trip_through_the_report_writer(observations):
    with tempfile.TemporaryDirectory() as tmp:
        config = cli.RunConfig(data_root=Path(tmp), out_dir=Path(tmp))
        cli._write_report(
            config.out_dir / "panel.tsv", causal.PanelObservation._fields, observations
        )
        assert cli._read_panel(config) == observations
