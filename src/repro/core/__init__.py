"""The paper's contribution: DIFFtotal, the study pipeline (with its
parallel executor and per-record cache), enhanced MFACT."""

from repro.core.difftotal import DIFF_THRESHOLD, diff_total, requires_simulation
from repro.core.enhanced_mfact import (
    CANDIDATE_NAMES,
    EnhancedMFACT,
    design_matrix,
    labels,
    naive_heuristic_success,
)
from repro.core.executor import (
    RecordCache,
    StudyRun,
    execute_study,
    execute_traces,
    trace_cache_key,
)
from repro.core.pipeline import (
    StudyRecord,
    ToolRun,
    measure_trace,
)

__all__ = [
    "RecordCache",
    "StudyRun",
    "execute_study",
    "execute_traces",
    "trace_cache_key",
    "DIFF_THRESHOLD",
    "diff_total",
    "requires_simulation",
    "CANDIDATE_NAMES",
    "EnhancedMFACT",
    "design_matrix",
    "labels",
    "naive_heuristic_success",
    "StudyRecord",
    "ToolRun",
    "measure_trace",
]
