"""Lockstep IRLS against the one-fit-at-a-time reference, bit for bit.

``stepwise_forward`` fits every candidate of a step in one batched
Newton loop (``fit_logistic_batch``).  The reference below is the
per-candidate implementation it replaced, copied verbatim: one
``fit_logistic`` call per candidate, each with its own IRLS loop.  Every
check compares with ``==`` on the raw floats — selected variables, the
AIC path, coefficients, log-likelihood and the converged flag must be
the same bits, not merely close.
"""

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.enhanced_mfact import CANDIDATE_NAMES, design_matrix, labels
from repro.stats.logistic import (
    _P_EPS,
    DegenerateLabelsError,
    LogisticModel,
    _sigmoid,
    fit_logistic,
    fit_logistic_batch,
)
from repro.stats.stepwise import MAX_VARIABLES, StepwiseResult, stepwise_forward
from repro.util.rng import substream


# -- reference: the per-candidate implementation, verbatim ------------------


def ref_fit_logistic(
    X: np.ndarray,
    y: Sequence[int],
    feature_names: Optional[Sequence[str]] = None,
    max_iter: int = 60,
    tol: float = 1e-8,
    ridge: float = 1e-6,
) -> LogisticModel:
    """Fit ``P(y=1 | x) = sigmoid(b0 + x . b)`` by IRLS.

    ``X`` is (n, k) without an intercept column; ``ridge`` is the L2
    penalty that regularizes separated fits.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("y must be binary 0/1")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(k))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != k:
            raise ValueError("feature_names length must match X columns")
    # Standardize internally for numerical stability; fold back after.
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Z = (X - mu) / sd
    design = np.column_stack([np.ones(n), Z])
    beta = np.zeros(k + 1)
    base = y.mean() if n else 0.0
    if not 0.0 < base < 1.0:
        raise DegenerateLabelsError(
            f"labels are single-class (base rate {base:g}); logistic fit is undefined"
        )
    beta[0] = np.log(base / (1.0 - base))
    converged = False
    penalty = ridge * np.eye(k + 1)
    penalty[0, 0] = 0.0  # never penalize the intercept
    for _ in range(max_iter):
        eta = design @ beta
        p = _sigmoid(eta)
        w = np.maximum(p * (1 - p), 1e-10)
        grad = design.T @ (y - p) - penalty @ beta
        hess = (design * w[:, None]).T @ design + penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            converged = True
            break
    p_hat = np.clip(_sigmoid(design @ beta), _P_EPS, 1.0 - _P_EPS)
    ll = float(np.sum(y * np.log(p_hat) + (1.0 - y) * np.log1p(-p_hat)))
    # Unfold standardization: b_j = beta_j / sd_j; b0 = beta0 - sum mu_j b_j.
    coef = np.empty(k + 1)
    coef[1:] = beta[1:] / sd
    coef[0] = beta[0] - float(mu @ coef[1:])
    return LogisticModel(
        coef=coef,
        feature_names=feature_names,
        log_likelihood=ll,
        n_obs=n,
        converged=converged,
    )


def ref_stepwise_forward(
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
    current_model = ref_fit_logistic(np.zeros((X.shape[0], 0)), y, (), ridge=ridge)
    best_aic = current_model.aic()
    remaining = list(range(len(names)))
    while remaining and len(chosen) < max_vars:
        best_candidate = None
        best_candidate_aic = best_aic
        best_candidate_model = None
        for j in remaining:
            cols = chosen + [j]
            model = ref_fit_logistic(
                X[:, cols], y, tuple(names[c] for c in cols), ridge=ridge
            )
            candidate_aic = model.aic()
            if candidate_aic < best_candidate_aic - 1e-9:
                best_candidate = j
                best_candidate_aic = candidate_aic
                best_candidate_model = model
        if best_candidate is None:
            break
        chosen.append(best_candidate)
        remaining.remove(best_candidate)
        best_aic = best_candidate_aic
        current_model = best_candidate_model
        aic_path.append(best_aic)
    return StepwiseResult(
        selected=tuple(names[c] for c in chosen),
        model=current_model,
        aic_path=tuple(aic_path),
    )


# -- comparison helpers ------------------------------------------------------


def assert_same_model(got: LogisticModel, want: LogisticModel) -> None:
    assert got.coef.shape == want.coef.shape
    assert got.coef.tobytes() == want.coef.tobytes(), (got.coef, want.coef)
    assert got.log_likelihood == want.log_likelihood
    assert type(got.log_likelihood) is float
    assert got.converged is want.converged
    assert got.feature_names == want.feature_names
    assert got.n_obs == want.n_obs


def assert_same_stepwise(X, y, names, **kwargs) -> StepwiseResult:
    try:
        want = ref_stepwise_forward(X, y, names, **kwargs)
    except DegenerateLabelsError:
        with pytest.raises(DegenerateLabelsError):
            stepwise_forward(X, y, names, **kwargs)
        return None
    got = stepwise_forward(X, y, names, **kwargs)
    assert got.selected == want.selected
    assert got.aic_path == want.aic_path
    assert_same_model(got.model, want.model)
    return got


def assert_batch_matches_singles(blocks, y, **kwargs) -> None:
    coef, ll, converged = fit_logistic_batch(blocks, y, **kwargs)
    for i, X in enumerate(blocks):
        want = ref_fit_logistic(X, y, **kwargs)
        assert coef[i].tobytes() == want.coef.tobytes(), (i, coef[i], want.coef)
        assert float(ll[i]) == want.log_likelihood
        assert bool(converged[i]) is want.converged


# -- the integration mini study's Monte Carlo CV folds -----------------------


def mccv_training_folds(n: int, runs: int, seed: int, train_fraction: float = 0.8):
    """The training rows of every split, drawn as ``monte_carlo_cv`` does."""
    n_train = max(2, int(round(train_fraction * n)))
    for run in range(runs):
        yield substream(seed, "mccv", run).permutation(n)[:n_train]


class TestMiniStudyFolds:
    def test_every_training_fold_bitwise(self, mini_study):
        X = design_matrix(mini_study)
        y = labels(mini_study)
        fitted = 0
        for train_idx in mccv_training_folds(X.shape[0], runs=100, seed=0):
            if assert_same_stepwise(X[train_idx], y[train_idx], CANDIDATE_NAMES):
                fitted += 1
        assert fitted > 50

    def test_full_fit_bitwise(self, mini_study):
        X = design_matrix(mini_study)
        y = labels(mini_study)
        for cap in (1, 3, MAX_VARIABLES):
            assert_same_stepwise(X, y, CANDIDATE_NAMES, max_vars=cap)


# -- generated matrices ------------------------------------------------------


@st.composite
def candidate_problems(draw):
    """A small study-shaped problem with the awkward cases mixed in.

    Constant columns (zero sd), duplicated columns (singular Hessian up
    to the ridge), perfectly separable labels (fits that run out of
    iterations unconverged), wildly scaled columns (candidates that
    converge at different iterations) and labels at a 1-in-n base rate.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(1, 7))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, p - 1))] = draw(st.sampled_from([0.0, 1.0, -2.5]))
    if p >= 2 and draw(st.booleans()):
        X[:, 1] = X[:, 0]
    if draw(st.booleans()):
        X = np.round(X)  # ties and repeated rows
    mode = draw(st.sampled_from(["noisy", "separable", "rare"]))
    if mode == "separable":
        y = (X[:, 0] > np.median(X[:, 0])).astype(int)
    elif mode == "rare":
        y = np.zeros(n, dtype=int)
        y[draw(st.integers(0, n - 1))] = 1
    else:
        y = (X[:, 0] + rng.normal(scale=2.0, size=n) > 0).astype(int)
    return X, y


settings_gen = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestGeneratedProblems:
    @settings_gen
    @given(problem=candidate_problems(), max_vars=st.integers(1, 4))
    def test_stepwise_bitwise(self, problem, max_vars):
        X, y = problem
        names = [f"f{i}" for i in range(X.shape[1])]
        assert_same_stepwise(X, y, names, max_vars=max_vars)

    @settings_gen
    @given(problem=candidate_problems(), max_iter=st.sampled_from([1, 3, 60]))
    def test_batch_of_single_columns_bitwise(self, problem, max_iter):
        X, y = problem
        if not 0 < y.sum() < y.size:
            return
        blocks = [X[:, [j]] for j in range(X.shape[1])]
        assert_batch_matches_singles(blocks, y, max_iter=max_iter)

    @settings_gen
    @given(problem=candidate_problems(), order=st.sampled_from(["C", "F"]))
    @example(problem=(np.zeros((5, 0)), np.array([0, 1, 0, 0, 1])), order="C")
    def test_fit_logistic_is_a_batch_of_one(self, problem, order):
        X, y = problem
        X = np.asarray(X, order=order)
        try:
            want = ref_fit_logistic(X, y)
        except DegenerateLabelsError:
            with pytest.raises(DegenerateLabelsError):
                fit_logistic(X, y)
            return
        assert_same_model(fit_logistic(X, y), want)


class TestConvergenceMix:
    """Deterministic cases pinning the per-candidate convergence rule."""

    def test_separable_candidates_stop_unconverged(self):
        # Column 0 separates the labels; this draw is one whose Newton
        # steps never settle, so the fit runs out of iterations.
        rng = np.random.default_rng(153)
        X = rng.normal(size=(13, 2))
        y = (X[:, 0] > np.median(X[:, 0])).astype(int)
        noise = rng.normal(size=(13, 2))
        blocks = [X, noise, np.column_stack([X[:, 1], noise[:, 0]]), X[:, ::-1]]
        flags = [ref_fit_logistic(B, y).converged for B in blocks]
        assert not flags[0] and any(flags)
        assert_batch_matches_singles(blocks, y)
        names = ["sep", "other", "n0", "n1"]
        assert_same_stepwise(np.column_stack([X, noise]), y, names)

    def test_candidates_converge_at_different_iterations(self):
        rng = np.random.default_rng(11)
        n = 24
        signal = rng.normal(size=n)
        y = (signal + rng.normal(scale=0.5, size=n) > 0).astype(int)
        other = rng.normal(size=(n, 4))
        # The weaker a candidate's signal, the sooner its fit settles.
        blocks = [
            np.column_stack([signal + a * other[:, 0], other[:, 1]]) for a in (0.0, 0.5, 3.0)
        ]
        blocks.append(np.column_stack([signal, signal]))  # duplicate columns
        blocks.append(other[:, 2:])
        iterations = []
        for X in blocks:
            for it in range(1, 61):
                if ref_fit_logistic(X, y, max_iter=it).converged:
                    iterations.append(it)
                    break
        assert len(set(iterations)) > 1
        assert_batch_matches_singles(blocks, y)
        for cap in (1, 2, 5):
            assert_batch_matches_singles(blocks, y, max_iter=cap)


# -- the per-slice fallback when the batched solve fails ---------------------


class TestSolveFallback:
    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(5)
        n = 20
        X = rng.normal(size=(n, 6))
        X[:, 4] = X[:, 3]
        X[:, 5] = 1.0
        y = (X[:, 0] - X[:, 1] + rng.normal(size=n) > 0).astype(int)
        return X, y

    def test_batched_solve_failure_falls_back_per_slice(self, monkeypatch, problem):
        real_solve = np.linalg.solve
        batched_calls = []

        def solve(a, b):
            if np.ndim(a) == 3:
                batched_calls.append(np.shape(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        X, y = problem
        want = ref_stepwise_forward(X, y, [f"f{i}" for i in range(6)])
        monkeypatch.setattr(np.linalg, "solve", solve)
        got = stepwise_forward(X, y, [f"f{i}" for i in range(6)])
        assert batched_calls
        assert got.selected == want.selected and got.aic_path == want.aic_path
        assert_same_model(got.model, want.model)

    def test_every_solve_failing_uses_lstsq(self, monkeypatch, problem):
        def solve(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        X, y = problem
        blocks = [X[:, [0, j]] for j in range(1, 6)]
        monkeypatch.setattr(np.linalg, "solve", solve)
        # The reference sees the same failing solve, so both take lstsq.
        assert_batch_matches_singles(blocks, y)


def test_batch_argument_checks():
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        fit_logistic_batch([], y)
    with pytest.raises(ValueError):
        fit_logistic_batch([np.zeros((4, 1)), np.zeros((4, 2))], y)
    with pytest.raises(ValueError):
        fit_logistic_batch([np.zeros((4, 1))], [0, 1, 2, 1])
    with pytest.raises(DegenerateLabelsError):
        fit_logistic_batch([np.zeros((4, 1))], [1, 1, 1, 1])
