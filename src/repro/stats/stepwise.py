"""Step-wise forward variable selection by AIC (Section VI-B2).

At each step the candidate variable whose addition most improves the
Akaike information criterion joins the model; selection stops when no
candidate improves AIC or the cap (five variables, to limit over-fitting
and multi-collinearity) is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.stats.logistic import LogisticModel, fit_logistic, fit_logistic_batch

__all__ = ["StepwiseResult", "stepwise_forward", "MAX_VARIABLES"]

#: The paper caps models at five variables.
MAX_VARIABLES = 5


@dataclass
class StepwiseResult:
    """Outcome of one forward-selection run."""

    selected: Tuple[str, ...]
    model: LogisticModel
    aic_path: Tuple[float, ...]  # AIC after each accepted step


def stepwise_forward(
    X: np.ndarray,
    y: Sequence[int],
    feature_names: Sequence[str],
    max_vars: int = MAX_VARIABLES,
    ridge: float = 1e-6,
) -> StepwiseResult:
    """Forward-select up to ``max_vars`` columns of ``X`` by AIC."""
    X = np.asarray(X, dtype=float)
    names = list(feature_names)
    if X.shape[1] != len(names):
        raise ValueError("feature_names must match X columns")
    if max_vars < 1:
        raise ValueError("max_vars must be >= 1")
    chosen: List[int] = []
    aic_path: List[float] = []
    # AIC of the intercept-only model.
    current_model = fit_logistic(np.zeros((X.shape[0], 0)), y, (), ridge=ridge)
    best_aic = current_model.aic()
    remaining = list(range(len(names)))
    while remaining and len(chosen) < max_vars:
        # Every candidate of this step in one lockstep IRLS batch.  The
        # AIC is ``LogisticModel.aic``'s and ties go to the earliest
        # candidate in ``remaining`` order; only the winner becomes a model.
        coef, ll, converged = fit_logistic_batch(
            [X[:, chosen + [j]] for j in remaining], y, ridge=ridge
        )
        n_params = len(chosen) + 2  # intercept, chosen, candidate
        best = None
        best_candidate_aic = best_aic
        for i in range(len(remaining)):
            candidate_aic = 2.0 * n_params - 2.0 * float(ll[i])
            if candidate_aic < best_candidate_aic - 1e-9:
                best = i
                best_candidate_aic = candidate_aic
        if best is None:
            break
        chosen.append(remaining.pop(best))
        best_aic = best_candidate_aic
        current_model = LogisticModel(
            coef=coef[best].copy(),
            feature_names=tuple(names[c] for c in chosen),
            log_likelihood=float(ll[best]),
            n_obs=X.shape[0],
            converged=bool(converged[best]),
        )
        aic_path.append(best_aic)
    return StepwiseResult(
        selected=tuple(names[c] for c in chosen),
        model=current_model,
        aic_path=tuple(aic_path),
    )
