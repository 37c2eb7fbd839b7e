"""oatlas: wiki link-graph construction and orphan-article analysis.

The package is organized around the pipeline's data flow:

``ingest``
    streaming SQL dump parsing and side-table loaders
``graph``
    monthly link snapshots, orphan/dead-end detection, snapshot deltas
    and (de)orphanization events
``characterize``
    feature tables, representation scores, per-wiki summaries, LOWESS
``causal``
    cross-language treated/control pairs, panel assembly and the
    difference-in-differences estimator
``candidates``
    unlinked-mention and cross-lingual link candidate generation
``cli``
    the ``oatlas`` command line driver
"""

from __future__ import annotations

__version__ = "0.1.0"

# Shared by the run configuration (``cli.RunConfig``) and the estimator
# (``causal``), so that the command line need not import ``causal``.
DEFAULT_WINDOW = 3  # months on each side of treatment
DEFAULT_MIN_PAIRS = 30  # pairs a language needs for its own estimate
