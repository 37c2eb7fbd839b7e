"""Count the lines of the program's modules.

    python tools/line_count.py [BASELINE]

For each module of ``src/oatlas`` the script prints its physical lines
and its code lines: the lines left once blank lines, comment-only lines
and docstrings (of the module, its classes and its functions) are taken
out.  ``BASELINE`` is another checkout of the repository, such as a
clone of the parent commit; when it is given, each module's counts are
printed for both checkouts, with the difference (this one less the
baseline).  A module found in one checkout only counts 0 lines in the
other.  The last row holds the totals.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "oatlas"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int]:
    """The physical lines and the code lines of one module's text."""
    lines = source.splitlines()
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip()
        and not line.lstrip().startswith("#")
        and number not in docstrings
    )
    return len(lines), code


def module_counts(checkout: Path) -> dict[str, tuple[int, int]]:
    """Each module's (physical, code) lines, keyed by its file name."""
    return {
        path.name: count_lines(path.read_text(encoding="utf-8"))
        for path in sorted((checkout / PACKAGE).glob("*.py"))
    }


def table(
    current: dict[str, tuple[int, int]],
    baseline: dict[str, tuple[int, int]] | None = None,
) -> list[str]:
    """The printed rows: a header, one row per module and the totals."""
    header = ["module", "lines", "code"]
    if baseline is not None:
        header += ["base lines", "base code", "diff lines", "diff code"]
    rows = []
    for name in sorted(set(current) | set(baseline or {})):
        counts = list(current.get(name, (0, 0)))
        if baseline is not None:
            base = baseline.get(name, (0, 0))
            counts += [*base, counts[0] - base[0], counts[1] - base[1]]
        rows.append([name, *counts])
    totals = (sum(row[i] for row in rows) for i in range(1, len(header)))
    rows.append(["total", *totals])
    width = max(len(row[0]) for row in [header, *rows])
    out = [f"{header[0]:<{width}}" + "".join(f"{title:>12}" for title in header[1:])]
    for name, *values in rows:
        # The differences are the values after the four counts.
        texts = [str(v) for v in values[:4]] + [f"{v:+d}" for v in values[4:]]
        out.append(f"{name:<{width}}" + "".join(f"{text:>12}" for text in texts))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", type=Path, help="another checkout")
    args = parser.parse_args(argv)
    baseline = None
    if args.baseline is not None:
        if not (args.baseline / PACKAGE).is_dir():
            parser.error(f"{args.baseline} has no {PACKAGE}")
        baseline = module_counts(args.baseline)
    print("\n".join(table(module_counts(REPO), baseline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
