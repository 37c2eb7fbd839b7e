"""Time one stage of this checkout against another checkout.

    python tools/time_stage.py BASELINE STAGE [--tree dumps] [--runs 10]

``BASELINE`` is another checkout of the repository, such as a clone of
the parent commit, and ``STAGE`` one of the program's stages.  The script
writes the golden tree and the seed-1 benchmark trees into a temporary
directory, as ``tools/compare_outputs.py`` does, and times STAGE on the
``--tree`` one.  It first compiles both ``src/`` trees with ``python -m
compileall``: where ``PYTHONDONTWRITEBYTECODE`` is set, a side whose
bytecode is missing or stale would compile its modules again in every
run.  For each side it runs the stages before STAGE once, untimed; then
it runs STAGE ``--runs`` times per side, alternating which side goes
first, each run through the benchmark's ``bench/launch.py``.  It prints
each side's median and quartiles of the wall time and of the peak RSS
(the ``ru_maxrss`` of each run's process, in MB of 10^6 bytes, as the
benchmark counts them), and for each the number of runs in which that
side was the faster or the smaller one; a tie counts for neither side.
A failing run ends the script with exit 1 and its last line of stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from compare_outputs import REPO, cli_command, generate, write_trees

from oatlas.cli import STAGES

SIDES = ("baseline", "current")
LAUNCHER = REPO / "bench" / "launch.py"


class StageFailed(RuntimeError):
    """A run of the program that exited with an error."""


class StageRun(NamedTuple):
    seconds: float
    rss_mb: float


def _run(checkout: Path, data: Path, out: Path, command: str) -> StageRun:
    """Run one command; its wall time and the peak RSS of its process.

    The command runs under the benchmark's ``bench/launch.py``: a child
    forked from this process would count this process's memory in its
    ``ru_maxrss``.
    """
    argv, env = cli_command(checkout, data, out, command)
    run = subprocess.run(
        [sys.executable, str(LAUNCHER), *argv], env=env, capture_output=True, text=True
    )
    report = json.loads(run.stdout)
    if report["returncode"]:
        last = run.stderr.strip().rpartition("\n")[2]
        raise StageFailed(f"{command} in {checkout} exited {report['returncode']}: {last}")
    return StageRun(report["seconds"], report["maxrss_kb"] * 1024 / 1e6)


def time_stage(
    baseline: Path, data: Path, stage: str, runs: int, work: Path
) -> dict[str, list[StageRun]]:
    """Wall seconds and peak RSS of each run of ``stage`` on ``data``, per side."""
    checkouts = dict(zip(SIDES, (baseline, REPO)))
    for checkout in checkouts.values():
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
            check=True,
        )
    for side, checkout in checkouts.items():
        for command in STAGES[: STAGES.index(stage)]:
            _run(checkout, data, work / side, command)
    times: dict[str, list[StageRun]] = {side: [] for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            times[side].append(_run(checkouts[side], data, work / side, stage))
    return times


def _wins(values: dict[str, list[float]]) -> dict[str, int]:
    """The number of runs in which each side had the smaller value; a
    tie counts for neither."""
    wins = dict.fromkeys(SIDES, 0)
    for pair in zip(*(values[side] for side in SIDES)):
        if pair.count(min(pair)) == 1:
            wins[SIDES[pair.index(min(pair))]] += 1
    return wins


# Per measure: the StageRun field, its label, unit, digits and the word
# for the side with the smaller value.
_MEASURES = (
    ("seconds", "", "s", 3, "faster"),
    ("rss_mb", "peak RSS ", "MB", 1, "smaller"),
)


def summary(times: dict[str, list[StageRun]]) -> list[str]:
    """One line per side: for wall time and for peak RSS, the median,
    the quartiles and the number of runs in which that side's value was
    the smaller one."""
    parts: dict[str, list[str]] = {side: [] for side in SIDES}
    for field, label, unit, digits, better in _MEASURES:
        values = {side: [getattr(run, field) for run in times[side]] for side in SIDES}
        wins = _wins(values)
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            parts[side].append(
                f"{label}median {median:.{digits}f} {unit}, "
                f"quartiles {q1:.{digits}f}-{q3:.{digits}f} {unit}, "
                f"{better} in {wins[side]} of {len(values[side])} runs"
            )
    return [f"{side}: " + "; ".join(parts[side]) for side in SIDES]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="the other checkout")
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--tree", default="dumps", choices=("golden", *generate.BUILDERS))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if not (args.baseline / "src" / "oatlas").is_dir():
        parser.error(f"{args.baseline} holds no src/oatlas")
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        trees = write_trees(root / "data")
        try:
            times = time_stage(
                args.baseline.resolve(), trees[args.tree], args.stage, args.runs, root
            )
        except StageFailed as exc:
            print(exc)
            return 1
    print(f"{args.stage} on {args.tree}, {args.runs} runs per side:")
    for line in summary(times):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
