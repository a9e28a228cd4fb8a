"""Display order of the corpus applications in the per-app figures."""

from __future__ import annotations

__all__ = ["NPB_NAMES", "DOE_NAMES"]

#: Display order of the NAS benchmarks (Figure 3).
NPB_NAMES = ("BT", "CG", "DT", "EP", "FT", "IS", "LU", "MG", "SP")

#: Display order of the DOE applications (Figure 4).
DOE_NAMES = (
    "BigFFT",
    "CR",
    "AMG",
    "MiniFE",
    "MultiGrid",
    "FillBoundary",
    "LULESH",
    "CNS",
    "CMC",
    "Nekbone",
)
