"""Experiment helpers for the benchmark harness.

:mod:`~repro.pipeline.experiment` runs whole baseline line-ups, scores
clusterings and links, and formats the rows as the paper's tables.
JOCL itself runs through :class:`repro.api.JOCLEngine`.
"""

from repro.pipeline.experiment import (
    CanonicalizationRow,
    LinkingRow,
    format_table,
    run_canonicalization_systems,
    run_linking_systems,
)

__all__ = [
    "CanonicalizationRow",
    "LinkingRow",
    "format_table",
    "run_canonicalization_systems",
    "run_linking_systems",
]
