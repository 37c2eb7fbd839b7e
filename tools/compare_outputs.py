"""Check that this checkout writes the same outputs as another checkout.

    python tools/compare_outputs.py BASELINE

``BASELINE`` is another checkout of the repository, such as a
``git worktree`` of the parent commit.  The script writes the golden
tree (``oatlas.fixtures.golden_tree``) and the seed-1 ``dumps``,
``pairs`` and ``corpus`` benchmark trees (``bench/generate.py``, which
it only imports) once into a temporary directory.  It runs
``python -m oatlas.cli all`` on each tree once per side, with
``PYTHONPATH`` set to that side's ``src/``, and prints every output file
that differs or exists on one side only, and every run that fails.  A
snapshot container (``.oatl``) whose bytes differ is loaded by each
side's own program; if both read the same language, month and arrays,
it is printed as "same graph, re-encoded", which is not a difference.
For each tree it also prints the total bytes of the containers each side
wrote, split into full containers and deltas, and the ratio of the
totals, current over baseline, so a re-encoding shows its size change
and which format it came from.  The script exits 1 if it printed a difference and 0
otherwise.  Trees and outputs are written only under the temporary
directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The environment the program runs in, taken before ``oatlas.cli`` can be
# imported here: it sets OPENBLAS_NUM_THREADS in its own environment.
ENVIRON = dict(os.environ)
REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]

import generate  # noqa: E402
from oatlas import fixtures, graph  # noqa: E402

MONTHS = "2022-11:2022-12"
SEED = 1
RE_ENCODED = "same graph, re-encoded"

# Run by each side's program: per container named on the command line,
# its language, month and a SHA-256 of its arrays, or an empty line if it
# cannot load it.
_GRAPH_DIGESTS = """
import hashlib, sys
from pathlib import Path
import numpy as np
from oatlas.graph import LinkSnapshot
for name in sys.argv[1:]:
    try:
        snapshot = LinkSnapshot.load(Path(name))
    except Exception:
        print()
        continue
    digest = hashlib.sha256()
    for array in (snapshot.article_ids, snapshot._indptr, snapshot._targets):
        digest.update(np.asarray(array, dtype=np.int64).tobytes())
    print(snapshot.language, snapshot.month, digest.hexdigest())
"""


def write_trees(root: Path) -> dict[str, Path]:
    """Write the golden tree and the seed-1 benchmark trees under root."""
    trees = {"golden": fixtures.golden_tree(root / "golden")}
    for workload in sorted(generate.BUILDERS):
        generate.build(workload, SEED).write(root / workload)
        trees[workload] = root / workload
    return trees


def cli_command(
    checkout: Path, data: Path, out: Path, command: str = "all"
) -> tuple[list[str], dict[str, str]]:
    """The argv and environment of one command of ``checkout``'s program."""
    env = {**ENVIRON, "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-m", "oatlas.cli", command]
    argv += ["--data", str(data), "--out", str(out), "--months", MONTHS]
    return argv, env


def run_cli(
    checkout: Path, data: Path, out: Path, command: str = "all"
) -> subprocess.CompletedProcess:
    """Run one command of ``checkout``'s program on data, capturing its output."""
    argv, env = cli_command(checkout, data, out, command)
    return subprocess.run(argv, env=env, capture_output=True, text=True)


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def graph_digests(checkout: Path, paths: list[Path]) -> list[str | None]:
    """What ``checkout``'s program reads from each container: its language,
    month and a digest of its arrays, or None if it cannot load it."""
    if not paths:
        return []
    env = {**ENVIRON, "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-c", _GRAPH_DIGESTS, *map(str, paths)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode or len(lines) != len(paths):
        return [None] * len(paths)
    return [line or None for line in lines]


def differing_files(
    baseline: Path, current: Path, checkouts: tuple[Path, Path]
) -> list[str]:
    """Each file, relative to the roots, that differs or is on one side only.

    ``checkouts`` are the programs that wrote ``baseline`` and
    ``current``; each loads its own side's containers."""
    old, new = _files(baseline), _files(current)
    containers = sorted(
        name for name in old.keys() & new.keys()
        if name.endswith(".oatl") and old[name] != new[name]
    )
    digests = [
        graph_digests(checkout, [root / name for name in containers])
        for checkout, root in zip(checkouts, (baseline, current))
    ]
    re_encoded = {
        name for name, a, b in zip(containers, *digests) if a is not None and a == b
    }
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"{name}: only in the baseline")
        elif name not in old:
            lines.append(f"{name}: only in the current checkout")
        elif old[name] != new[name]:
            lines.append(f"{name}: {RE_ENCODED if name in re_encoded else 'differs'}")
    return lines


def container_sizes(name: str, baseline: Path, current: Path) -> str:
    """The bytes of the containers under each root, in all and split into
    full containers and deltas (any container that does not begin as a
    full one), and the ratio of the totals."""
    parts = []
    totals = []
    for side, root in (("the baseline", baseline), ("the current checkout", current)):
        full = delta = 0
        for path in root.rglob("*.oatl"):
            if graph.holds_full_container(path):
                full += path.stat().st_size
            else:
                delta += path.stat().st_size
        totals.append(full + delta)
        parts.append(f"{full + delta:,} in {side} ({full:,} full, {delta:,} delta)")
    old, new = totals
    ratio = f"{new / old:.4f}" if old else "-"
    return f"{name}: .oatl bytes {parts[0]}, {parts[1]}, ratio {ratio}"


def compare_tree(
    name: str, data: Path, baseline: Path, work: Path
) -> tuple[list[str], str]:
    """Run both checkouts on one tree.  List what tells their outputs
    apart, and give the line of :func:`container_sizes`."""
    problems = []
    outs = {}
    for side, checkout in (("baseline", baseline), ("current", REPO)):
        outs[side] = work / name / side
        run = run_cli(checkout, data, outs[side])
        if run.returncode:
            last = run.stderr.strip().rpartition("\n")[2]
            problems.append(f"{name}: the {side} run exited {run.returncode}: {last}")
    diffs = differing_files(outs["baseline"], outs["current"], (baseline, REPO))
    sizes = container_sizes(name, outs["baseline"], outs["current"])
    return problems + [f"{name}/{line}" for line in diffs], sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="the other checkout")
    args = parser.parse_args(argv)
    if not (args.baseline / "src" / "oatlas").is_dir():
        parser.error(f"{args.baseline} holds no src/oatlas")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        problems = []
        for name, data in write_trees(root / "data").items():
            found, sizes = compare_tree(
                name, data, args.baseline.resolve(), root / "out"
            )
            problems += found
            print(*found, sizes, sep="\n")
    differences = [line for line in problems if not line.endswith(RE_ENCODED)]
    if not differences:
        print("no differences on", ", ".join(["golden", *sorted(generate.BUILDERS)]))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
