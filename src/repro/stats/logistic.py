"""Logistic regression fitted by iteratively reweighted least squares.

A from-scratch GLM with binomial family and logit link — the parametric
model the paper selects because 235 observations are too few for
flexible learners.  A tiny L2 ridge keeps the Newton steps defined
under quasi-complete separation (which Table IV's huge ``CL{ncs}``
coefficient shows the paper's own fit ran into).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["DegenerateLabelsError", "LogisticModel", "fit_logistic", "fit_logistic_batch"]

_MAX_ETA = 30.0

#: Symmetric probability clamp applied before every ``log`` in the
#: likelihood/AIC path, so a saturated fit can never produce a NaN AIC.
_P_EPS = 1e-12


class DegenerateLabelsError(ValueError):
    """The labels are single-class; a logistic fit would be meaningless.

    With a base rate of exactly 0 or 1 the intercept's MLE is ±infinity
    and every coefficient is unidentifiable — the old behaviour of
    silently initializing the intercept to 0.0 and "fitting" anyway
    produced a model whose predictions reflect the ridge penalty, not
    the data.  Callers that resample folds (e.g.
    :func:`repro.stats.mccv.monte_carlo_cv`) catch this and record a
    skipped split instead.
    """


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    eta = np.clip(eta, -_MAX_ETA, _MAX_ETA)
    return 1.0 / (1.0 + np.exp(-eta))


@dataclass
class LogisticModel:
    """Fitted logistic regression.

    ``coef[0]`` is the intercept; ``coef[1:]`` align with
    ``feature_names``.
    """

    coef: np.ndarray
    feature_names: tuple
    log_likelihood: float
    n_obs: int
    converged: bool

    @property
    def n_params(self) -> int:
        return int(self.coef.size)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1) for rows of ``X`` (without intercept column)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.coef.size - 1:
            raise ValueError(
                f"X has {X.shape[1]} features, model expects {self.coef.size - 1}"
            )
        return _sigmoid(self.coef[0] + X @ self.coef[1:])

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 labels at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)

    def aic(self) -> float:
        """Akaike information criterion: 2k - 2 log L."""
        return 2.0 * self.n_params - 2.0 * self.log_likelihood


def _check_labels(y: Sequence[int], n: int) -> np.ndarray:
    """``y`` as floats, checked to be ``n`` binary labels."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("y must be binary 0/1")
    return y


def fit_logistic_batch(
    Xs: Sequence[np.ndarray],
    y: Sequence[int],
    max_iter: int = 60,
    tol: float = 1e-8,
    ridge: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit one logistic model per (n, k) matrix in ``Xs`` by lockstep IRLS.

    All matrices share ``y`` and the column count ``k``; their Newton
    iterations run together on a stacked ``(c, n, k+1)`` design (one
    batched ``matmul`` per product, one batched ``solve`` per step).
    Returns ``(coef, log_likelihood, converged)`` with shapes
    ``(c, k+1)``, ``(c,)`` and ``(c,)``.

    When the matrices share a memory layout (the column subsets
    ``X[:, cols]`` of one stepwise step do), each fit is bitwise equal to
    :func:`fit_logistic` on its matrix alone: columns are standardized
    per matrix, a fit leaves the batch once its step falls below ``tol``
    (so it runs exactly its own iterations), a singular batch is
    re-solved slice by slice, and the intercept is unfolded with the
    same per-fit dot product.
    """
    blocks = [np.asarray(X, dtype=float) for X in Xs]
    if not blocks:
        raise ValueError("Xs must hold at least one matrix")
    n, k = blocks[0].shape
    if any(X.shape != (n, k) for X in blocks):
        raise ValueError("every matrix in Xs must have the same shape")
    y = _check_labels(y, n)
    base = y.mean() if n else 0.0
    if not 0.0 < base < 1.0:
        raise DegenerateLabelsError(
            f"labels are single-class (base rate {base:g}); logistic fit is undefined"
        )
    c = len(blocks)
    # Standardize internally for numerical stability; fold back after.
    # Statistics come from each matrix on its own: a reduction's
    # summation order depends on the array it runs over.
    mu = np.empty((c, k))
    sd = np.empty((c, k))
    for i, X in enumerate(blocks):
        mu[i] = X.mean(axis=0)
        sd[i] = X.std(axis=0)
    sd[sd == 0] = 1.0
    # BLAS matrix-vector products round differently per memory layout,
    # so the stacked design keeps the layout ``np.column_stack`` gives a
    # single fit's design: Fortran order for the Fortran-ordered column
    # subsets ``X[:, cols]`` of a stepwise step, C order for C inputs.
    single = np.column_stack([np.ones(n), (blocks[0] - mu[0]) / sd[0]])
    if single.flags.c_contiguous:
        design = np.empty((c, n, k + 1))
    else:
        design = np.empty((c, k + 1, n)).transpose(0, 2, 1)
    design[:, :, 0] = 1.0
    design[:, :, 1:] = (np.stack(blocks) - mu[:, None, :]) / sd[:, None, :]
    beta = np.zeros((c, k + 1))
    beta[:, 0] = np.log(base / (1.0 - base))
    converged = np.zeros(c, dtype=bool)
    penalty = ridge * np.eye(k + 1)
    penalty[0, 0] = 0.0  # never penalize the intercept
    # The fits still iterating: their indices, coefficients and designs
    # (boolean indexing keeps each design slice's memory layout).
    active = np.arange(c)
    b = beta.copy()
    d = design
    for _ in range(max_iter):
        eta = np.matmul(d, b[:, :, None])[:, :, 0]
        p = _sigmoid(eta)
        w = np.maximum(p * (1 - p), 1e-10)
        grad = (
            np.matmul(d.transpose(0, 2, 1), (y - p)[:, :, None])[:, :, 0]
            - np.matmul(penalty, b[:, :, None])[:, :, 0]
        )
        hess = np.matmul((d * w[:, :, None]).transpose(0, 2, 1), d) + penalty
        try:
            step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.empty_like(grad)
            for i in range(step.shape[0]):
                try:
                    step[i] = np.linalg.solve(hess[i], grad[i])
                except np.linalg.LinAlgError:
                    step[i] = np.linalg.lstsq(hess[i], grad[i], rcond=None)[0]
        b = b + step
        done = np.max(np.abs(step), axis=1) < tol
        if done.any():
            beta[active[done]] = b[done]
            converged[active[done]] = True
            keep = ~done
            active, b, d = active[keep], b[keep], d[keep]
            if not active.size:
                break
    beta[active] = b
    eta = np.matmul(design, beta[:, :, None])[:, :, 0]
    p_hat = np.clip(_sigmoid(eta), _P_EPS, 1.0 - _P_EPS)
    ll = np.sum(y * np.log(p_hat) + (1.0 - y) * np.log1p(-p_hat), axis=1)
    # Unfold standardization: b_j = beta_j / sd_j; b0 = beta0 - sum mu_j b_j.
    coef = np.empty((c, k + 1))
    coef[:, 1:] = beta[:, 1:] / sd
    for i in range(c):
        coef[i, 0] = beta[i, 0] - float(mu[i] @ coef[i, 1:])
    return coef, ll, converged


def fit_logistic(
    X: np.ndarray,
    y: Sequence[int],
    feature_names: Optional[Sequence[str]] = None,
    max_iter: int = 60,
    tol: float = 1e-8,
    ridge: float = 1e-6,
) -> LogisticModel:
    """Fit ``P(y=1 | x) = sigmoid(b0 + x . b)`` by IRLS.

    ``X`` is (n, k) without an intercept column; ``ridge`` is the L2
    penalty that regularizes separated fits.  A batch of one of
    :func:`fit_logistic_batch`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    y = _check_labels(y, n)
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(k))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != k:
            raise ValueError("feature_names length must match X columns")
    coef, ll, converged = fit_logistic_batch([X], y, max_iter=max_iter, tol=tol, ridge=ridge)
    return LogisticModel(
        coef=coef[0],
        feature_names=feature_names,
        log_likelihood=float(ll[0]),
        n_obs=n,
        converged=bool(converged[0]),
    )
