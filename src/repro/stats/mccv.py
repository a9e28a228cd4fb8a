"""Monte Carlo cross-validation (Section VI-B2/B3).

100 random 80/20 train/test partitions (sampling without replacement);
on each partition a stepwise-selected logistic model is fitted on the
training fold and scored on the held-out fold.  Aggregates: trimmed
means of MR / FN / FP (top and bottom 2% discarded) plus per-variable
selection frequencies and mean coefficients (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.stats.logistic import DegenerateLabelsError
from repro.stats.metrics import ConfusionCounts, confusion
from repro.stats.stepwise import MAX_VARIABLES, StepwiseResult, stepwise_forward
from repro.util.rng import substream
from repro.util.stats import trimmed_mean

__all__ = ["CrossValidationResult", "VariableStats", "monte_carlo_cv"]


@dataclass(frozen=True)
class VariableStats:
    """Table IV row: how often a variable was selected, mean coefficient."""

    name: str
    selected_pct: float
    mean_coefficient: float


@dataclass
class CrossValidationResult:
    """Aggregated Monte Carlo CV outcome.

    ``runs`` is the number of partitions *requested*; ``skipped`` counts
    the splits whose training fold was single-class (degenerate) and was
    therefore recorded as skipped rather than fitted.  ``confusions``
    and all rate aggregates cover only the ``runs - skipped`` completed
    splits, as do the Table IV selection percentages.
    """

    runs: int
    confusions: List[ConfusionCounts]
    variable_stats: List[VariableStats]
    skipped: int = 0

    @property
    def completed(self) -> int:
        """Splits that actually produced a fitted, scored model."""
        return self.runs - self.skipped

    @property
    def misclassification_rates(self) -> np.ndarray:
        return np.array([c.misclassification_rate for c in self.confusions])

    @property
    def trimmed_mr(self) -> float:
        """Trimmed-mean misclassification rate (paper: 6.8%)."""
        return trimmed_mean(self.misclassification_rates)

    @property
    def trimmed_fn(self) -> float:
        """Trimmed-mean false-negative rate (paper: 6.2%)."""
        return trimmed_mean([c.fn_rate for c in self.confusions])

    @property
    def trimmed_fp(self) -> float:
        """Trimmed-mean false-positive rate (paper: 6.7%)."""
        return trimmed_mean([c.fp_rate for c in self.confusions])

    @property
    def success_rate(self) -> float:
        """1 - trimmed MR (paper: 93.2%)."""
        return 1.0 - self.trimmed_mr

    def top_variables(self, k: int = 10) -> List[VariableStats]:
        """Table IV: the k most frequently selected variables."""
        return sorted(self.variable_stats, key=lambda v: -v.selected_pct)[:k]


def monte_carlo_cv(
    X: np.ndarray,
    y: Sequence[int],
    feature_names: Sequence[str],
    runs: int = 100,
    train_fraction: float = 0.8,
    max_vars: int = MAX_VARIABLES,
    seed: int = 0,
) -> CrossValidationResult:
    """Run the paper's Monte Carlo cross-validation protocol."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if n < 5:
        raise ValueError("need at least 5 observations")
    names = list(feature_names)
    # Name -> design-matrix column, first occurrence (as ``list.index``).
    column: Dict[str, int] = {}
    for j, name in enumerate(names):
        column.setdefault(name, j)
    n_train = max(2, int(round(train_fraction * n)))
    confusions: List[ConfusionCounts] = []
    selected_count: Dict[str, int] = {name: 0 for name in names}
    coef_sums: Dict[str, float] = {name: 0.0 for name in names}
    skipped = 0
    for run in range(runs):
        rng = substream(seed, "mccv", run)
        perm = rng.permutation(n)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        # A single-class training fold has no logistic MLE; record the
        # split as skipped instead of fitting a meaningless model.  The
        # substream indexing by `run` keeps the surviving splits
        # identical to a run where no fold was degenerate.
        try:
            result = stepwise_forward(X[train_idx], y[train_idx], names, max_vars=max_vars)
        except DegenerateLabelsError:
            skipped += 1
            continue
        for name, coef in zip(result.model.feature_names, result.model.coef[1:]):
            selected_count[name] += 1
            coef_sums[name] += float(coef)
        cols = [column[s] for s in result.selected]
        if cols:
            preds = result.model.predict(X[np.ix_(test_idx, cols)])
        else:
            majority = int(round(float(y[train_idx].mean())))
            preds = np.full(test_idx.size, majority)
        confusions.append(confusion(y[test_idx], preds))
    completed = runs - skipped
    if completed == 0:
        raise DegenerateLabelsError(
            f"all {runs} cross-validation splits had single-class training folds"
        )
    variable_stats = [
        VariableStats(
            name=name,
            selected_pct=100.0 * selected_count[name] / completed,
            mean_coefficient=(
                coef_sums[name] / selected_count[name] if selected_count[name] else 0.0
            ),
        )
        for name in names
    ]
    return CrossValidationResult(
        runs=runs, confusions=confusions, variable_stats=variable_stats, skipped=skipped
    )
