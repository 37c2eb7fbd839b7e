"""Benchmark of the six-stage oatlas pipeline.

    python3 bench/run.py --workload dumps --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/``.  The benchmark generates the workload's input tree
from the seed, then runs the pipeline again and again, each stage as
its own ``python -m oatlas.cli <stage>`` process with the CLI defaults
(started through ``launch.py``), until the time is up (two passes at
least).  It checks the first
pass's outputs against values computed apart from the program and
every later pass for byte-identity with the first.

``--trace 0`` reports the end-to-end metrics as medians over the
passes.  ``--trace 1`` runs one untimed CLI pass for the ``cli.*``
figures and one in-process traced pass for the per-layer figures.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Generated trees, outputs, logs and spans go to ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import expect  # noqa: E402
import generate  # noqa: E402

STAGES = ("ingest", "orphans", "characterize", "panel", "did", "candidates")
WORKLOADS = tuple(generate.BUILDERS)
MIN_PASSES = 2


@dataclass
class StageRun:
    stage: str
    seconds: float
    cpu_seconds: float
    steal_seconds: float
    rss_mb: float
    returncode: int


def unstolen_seconds(runs: list[StageRun]) -> float:
    """Wall time of ``runs`` less the part the hypervisor stole.

    With wall time W, CPU time C and steal S (summed over the machine's
    CPUs) this is W * C / (C + S): the share of the busy CPU time that
    was not stolen.  A single-threaded stage gets W - S, a stage running
    on two CPUs gets W - S / 2, and without steal it is W.
    """
    wall = sum(r.seconds for r in runs)
    cpu = sum(r.cpu_seconds for r in runs)
    steal = sum(r.steal_seconds for r in runs)
    return wall * cpu / (cpu + steal) if cpu + steal > 0 else wall


def _env() -> dict[str, str]:
    """The stages' environment: the checkout's program, the data root
    given by flag only, and the bytecode cache on, as a researcher who
    re-runs a stage has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OATLAS_DATA", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(cmd: list[str], log: Path) -> StageRun:
    """Run one process to its end, through ``launch.py``; wall time and
    peak resident set of the process alone."""
    with log.open("ab") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), *cmd],
            stdout=subprocess.PIPE,
            stderr=fh,
            env=_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            report, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and its child
            proc.wait()
            raise
    result = json.loads(report)
    return StageRun(
        cmd[3] if len(cmd) > 3 else "",
        result["seconds"],
        result["cpu_seconds"],
        result["steal_seconds"],
        result["maxrss_kb"] * 1024 / 1e6,
        result["returncode"],
    )


def run_pipeline(data: Path, out: Path, log: Path) -> list[StageRun]:
    months = f"{generate.MONTHS[0]}:{generate.MONTHS[1]}"
    return [
        run_process(
            [sys.executable, "-m", "oatlas.cli", stage, "--data", str(data), "--out", str(out), "--months", months],
            log,
        )
        for stage in STAGES
    ]


def import_seconds(log: Path) -> StageRun:
    return run_process([sys.executable, "-c", "import oatlas.cli"], log)


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def stage(self, run: StageRun) -> None:
        self.attempted += 1
        if run.returncode != 0:
            self.failed += 1
            self.problems.append(f"stage {run.stage} exited with {run.returncode}")

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def snapshot_mb(out: Path) -> float:
    return sum(p.stat().st_size for p in (out / "snapshots").rglob("*.oatl")) / 1e6


def measure(work: Path, data: Path, seconds: float, ledger: Ledger) -> dict:
    log = work / "stages.log"
    import_seconds(log)  # compile the program's bytecode before timing
    passes: list[list[StageRun]] = []
    start = time.perf_counter()
    while True:
        out = work / f"out{len(passes)}"
        runs = run_pipeline(data, out, log)
        passes.append(runs)
        for run in runs:
            ledger.stage(run)
        if len(passes) > 1:
            ledger.check("identical_passes", checks.same_tree(work / "out0", out))
            shutil.rmtree(out)
        typical = statistics.median(sum(r.seconds for r in p) for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            break
    for i, runs in enumerate(passes):
        print(f"pass {i}: " + "  ".join(f"{r.stage} {r.seconds:.2f}s" for r in runs))
    stages = [r for p in passes for r in p]
    steal = sum(r.steal_seconds for r in stages) / sum(r.seconds for r in stages)
    print(f"host steal during the stages: {steal:.1%} of their wall time")
    return {
        "setup_s": (statistics.median(unstolen_seconds(p[:1]) for p in passes), "s"),
        "analysis_s": (statistics.median(unstolen_seconds(p[1:]) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p) for p in passes), "MB"),
        "snapshot_mb": (snapshot_mb(work / "out0"), "MB"),
    }


def traced(work: Path, data: Path, languages: list[str], ledger: Ledger) -> dict:
    import tracing

    log = work / "stages.log"
    import_seconds(log)
    import_s = statistics.median(import_seconds(log).seconds for _ in range(3))
    runs = run_pipeline(data, work / "out0", log)
    for run in runs:
        ledger.stage(run)
    sys.path.insert(0, str(SRC))
    result = tracing.traced_pass(data, work / "trace", languages)
    result.tracer.write(work / "trace" / "spans.json")

    from oatlas import graph

    mismatched = [
        str(path)
        for path in result.snapshot_paths
        if graph.LinkSnapshot.load(path)
        != graph.LinkSnapshot.load(work / "out0" / path.relative_to(work / "trace"))
    ]
    ledger.check("traced_snapshots", [f"{p} differs from the CLI's container" for p in mismatched])
    counts = {
        "pairs.tsv": result.n_pairs,
        "panel.tsv": result.n_panel_rows,
        "candidates.tsv": result.n_candidates,
    }
    ledger.check(
        "traced_counts",
        [
            f"traced pass made {n} rows of {name}"
            for name, n in counts.items()
            if n != len(checks.read_rows(work / "out0" / name))
        ],
    )

    metrics = {"cli.import_s": (import_s, "s")}
    for run in runs:
        metrics[f"cli.{run.stage}_s"] = (run.seconds, "s")
        metrics[f"cli.{run.stage}_rss_mb"] = (run.rss_mb, "MB")
    metrics.update(tracing.layer_metrics(result))
    totals = result.tracer.totals()
    traced_sum = untraced_sum = 0.0
    print("stage          traced_s  untraced_s (cli minus import)")
    for run in runs:
        t = totals[f"stage.{run.stage}"]
        traced_sum += t
        untraced_sum += run.seconds - import_s
        print(f"{run.stage:<14} {t:8.3f}  {run.seconds - import_s:8.3f}")
    metrics["trace.overhead_s"] = (traced_sum - untraced_sum, "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; prints its human-readable lines, returns the result."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = work / "data"
    tree = generate.build(workload, seed)
    tree.write(data)
    exp = expect.compute(tree)

    ledger = Ledger()
    if trace:
        metrics = traced(work, data, tree.languages, ledger)
    else:
        metrics = measure(work, data, seconds, ledger)
    for name, check in checks.checks_for(exp):
        ledger.check(name, checks.run_check(check, exp, work / "out0"))

    for problem in ledger.problems:
        print("FAIL " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{workload:<7} {name:<40} {value:14.6g} {unit}")
    print(f"{workload:<7} operations attempted {ledger.attempted}, failed {ledger.failed}")
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oatlas" / "cli.py").is_file():
        print(f"oatlas sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
