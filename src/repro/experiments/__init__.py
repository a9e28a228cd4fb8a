"""Experiment reproductions: one module per paper table/figure.

``repro.experiments.runner`` is the CLI; each submodule exposes
``compute(records)`` and ``render(result)``.
"""

from repro.experiments import (  # noqa: F401
    ablations,
    corpus,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    section5b,
    section6,
    table1,
    report,
    table2,
    table3,
    table4,
)

__all__ = [
    "ablations",
    "corpus",
    "report",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "section5b",
    "section6",
]
