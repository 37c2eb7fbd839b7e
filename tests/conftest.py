"""Shared fixtures and the acceptance summary hook."""

from __future__ import annotations

import re

import pytest
from hypothesis import settings

from oatlas import fixtures

# Every property test in tier-1 is deterministic: a fixed example
# sequence, no example database and no per-example deadline.  Tests set
# only ``max_examples``.
settings.register_profile("oatlas", deadline=None, derandomize=True, database=None)
settings.load_profile("oatlas")


@pytest.fixture(scope="session")
def golden_root(tmp_path_factory):
    """The hand-checked three-wiki data tree, written once per session."""
    root = tmp_path_factory.mktemp("golden") / "tree"
    fixtures.golden_tree(root)
    return root


_CRITERION_RE = re.compile(r"test_c(\d+)[a-z]?_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL/SKIP line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(report, "when", "call") not in ("call", "setup"):
                continue
            match = _CRITERION_RE.search(nodeid)
            if not match:
                continue
            number = int(match.group(1))
            label = match.group(2).replace("_", " ")
            word = {"passed": "PASS", "skipped": "SKIP"}.get(status, "FAIL")
            key = nodeid.split("::")[-1]
            lines[key] = (number, f"criterion {number:2d} {word}  {label}")
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines.values()):
            terminalreporter.write_line(line)
