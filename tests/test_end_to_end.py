"""End-to-end differential test against the benchmark's expectations.

Each example generates an input tree of one benchmark workload with
``bench/generate.py``, runs ``oatlas all`` on it and hands the output to
every check of ``bench/checks.py``.  The checks compare against
``bench/expect.py``, which computes every report from the generated
tree without importing ``oatlas``.  The trees are smaller than the
benchmark's (scale 0 to 0.2) and their seeds are drawn, so drop
precedence, redirect chains, control reuse and multi-byte mentions are
exercised on many layouts, not on the benchmark's fixed seeds.

The modules under ``bench/`` are imported through ``sys.path``; this
file only reads them.  ``bench/tracing.py`` wraps program functions by
their module attribute names, so one test per workload runs its traced
pass, which no other test reaches.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatlas import cli, graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import expect  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402

STAGES = ("ingest", "orphans", "characterize", "panel", "did", "candidates")
MONTHS = f"{generate.MONTHS[0]}:{generate.MONTHS[1]}"

seeds = st.integers(0, 2**31 - 1)
scales = st.floats(0.0, 0.2)


def _run(stage: str, data: Path, out: Path) -> None:
    argv = [stage, "--data", str(data), "--out", str(out), "--months", MONTHS]
    assert cli.main(argv) == 0


def _files(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.BUILDERS))
@settings(max_examples=10)
@given(seed=seeds, scale=scales)
def test_all_passes_every_benchmark_check(workload, seed, scale):
    tree = generate.build(workload, seed, scale=scale)
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        tree.write(data)
        _run("all", data, out)
        exp = expect.compute(tree)
        problems = {
            name: checks.run_check(check, exp, out)
            for name, check in checks.checks_for(exp)
        }
    assert {name: found for name, found in problems.items() if found} == {}


@pytest.mark.parametrize("stage", STAGES)
@settings(max_examples=2)
@given(workload=st.sampled_from(sorted(generate.BUILDERS)), seed=seeds, scale=scales)
def test_rerunning_a_stage_on_a_finished_tree_changes_no_byte(
    stage, workload, seed, scale
):
    # Stages talk only through files, so a stage run again on a finished
    # tree must write the bytes it wrote the first time.
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        generate.build(workload, seed, scale=scale).write(data)
        _run("all", data, out)
        before = _files(out)
        _run(stage, data, out)
        assert _files(out) == before


@pytest.mark.parametrize("workload", sorted(generate.BUILDERS))
def test_traced_pass_runs_and_builds_the_cli_snapshots(workload, tmp_path):
    tree = generate.build(workload, 1, scale=0.0)
    data, out, work = tmp_path / "data", tmp_path / "out", tmp_path / "trace"
    tree.write(data)
    _run("ingest", data, out)
    result = tracing.traced_pass(data, work, tree.languages)
    assert len(result.snapshot_paths) == len(tree.languages) * len(generate.MONTHS)
    for path in result.snapshot_paths:
        cli_path = out / path.relative_to(work)
        assert graph.LinkSnapshot.load(path) == graph.LinkSnapshot.load(cli_path), path


# Exits 1 naming the stage if running it imported numpy.ma.
_STAGE_SCRIPT = """
import sys
from oatlas import cli
rc = cli.main(sys.argv[1:])
sys.exit(rc or ("numpy.ma" in sys.modules and sys.argv[1] + " imported numpy.ma"))
"""


@pytest.mark.parametrize("tree", ["golden", "dumps"])
def test_no_analysis_stage_imports_numpy_masked_arrays(golden_root, tmp_path, tree):
    """``np.median``, ``np.isin`` and ``np.unique`` import ``numpy.ma`` on
    some inputs, which costs a stage about 15 ms and 1.3 MB.  On the golden
    tree the ``orphans`` and ``did`` stages reached it, and on ``dumps``
    the ``candidates`` stage."""
    if tree == "golden":
        data = golden_root
    else:
        data = tmp_path / "data"
        generate.build(tree, 1, scale=0.0).write(data)
    out = tmp_path / "out"
    _run("ingest", data, out)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, sys.path))}
    for stage in STAGES[1:]:
        argv = [stage, "--data", str(data), "--out", str(out), "--months", MONTHS]
        run = subprocess.run(
            [sys.executable, "-c", _STAGE_SCRIPT, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
