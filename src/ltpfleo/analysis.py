"""Numerical evaluation of the convergence theory and fairness accounting.

Estimates the smoothness / strong-convexity / noise constants of a convex
training instance in closed form (one symmetric eigensolve of the pooled
Hessian, per-sample gradients batched by the loss kernel), evaluates the
expected-optimality-gap bound and the round-count estimate built from them,
checks the per-step contraction inequality on recorded trajectories, and
reports empirical participation fairness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .scheduling import ParticipationLog
from .training import Dataset, InverseDecayRate, LossSpec, make_loss_model

PROBE_POINTS = 100


@dataclass(frozen=True)
class ConvexityConstants:
    """Instance constants: smoothness, strong convexity, gradient noise and
    bound, heterogeneity, and data-proportional client weights."""

    smoothness: float
    strong_convexity: float
    sigma: dict[int, float]
    grad_bound: float
    heterogeneity: float
    weights: dict[int, float]

    def __post_init__(self) -> None:
        if not self.smoothness >= self.strong_convexity > 0:
            raise ValueError("need smoothness >= strong_convexity > 0")
        if any(s < 0 for s in self.sigma.values()):
            raise ValueError("sigma values must be >= 0")
        if self.grad_bound <= 0:
            raise ValueError("grad_bound must be positive")
        if self.heterogeneity < 0:
            raise ValueError("heterogeneity must be >= 0")

    @property
    def condition_number(self) -> float:
        return self.smoothness / self.strong_convexity


@dataclass(frozen=True)
class BoundParams:
    """Derived quantities feeding the optimality-gap bound."""

    kappa: float
    upsilon: float
    lam: float
    nu: float
    initial_gap: float
    f_star: float

    def __post_init__(self) -> None:
        for name in ("kappa", "upsilon", "lam", "nu", "initial_gap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class StepMargin:
    step: int
    eta: float
    margin: float
    stderr: float

    @property
    def violation(self) -> bool:
        return self.margin < -2.0 * self.stderr


@dataclass(frozen=True)
class FairnessReport:
    rates: dict[int, float]
    gap: float
    per_class_accuracy: dict[int, float] | None = None
    confusion: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not all(0.0 <= r <= 1.0 for r in self.rates.values()):
            raise ValueError("rates must lie in [0, 1]")
        if not 0.0 <= self.gap <= 1.0:
            raise ValueError("gap must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Constants estimation

def _pooled_quadratic(
    datasets: Sequence[Dataset], reg: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """F(w) = w'Hw/2 - b'w + c, the data-size weighted ridge least-squares loss."""
    total = sum(ds.size for ds in datasets)
    d = datasets[0].feature_dim
    h, b, c = np.zeros((d, d)), np.zeros(d), 0.0
    for ds in datasets:
        X, y, n = ds.features, ds.labels, ds.size
        s = n / total
        h += s * (X.T @ X / n + reg * np.eye(d))
        b += s * (X.T @ y / n)
        c += s * (float(y @ y) / (2 * n))
    return h, b, c


def _sample_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    return radius * rng.uniform() ** (1.0 / dim) * u


def solve_optimum(loss: LossSpec, datasets: Sequence[Dataset]) -> tuple[np.ndarray, float]:
    """Minimiser and minimum of the data-size weighted global loss.

    Closed form for quadratics; deterministic full-gradient descent to
    gradient norm 1e-12 for the logistic loss.
    """
    if loss.kind == "quadratic":
        h, b, c = _pooled_quadratic(datasets, loss.regularization)
        w_star = np.linalg.solve(h, b)
        f_star = 0.5 * w_star @ h @ w_star - b @ w_star + c
        return w_star, float(f_star)
    total = sum(d.size for d in datasets)
    if loss.kind == "logistic-l2":
        if loss.regularization <= 0:
            raise ValueError("logistic optimum needs regularization > 0")
        kernel = make_loss_model(loss, datasets[0].feature_dim)
        smooth = _logistic_smoothness(datasets, loss)
        step = 2.0 / (smooth + loss.regularization)
        w = np.zeros(kernel.dim)

        def full_grad(v):
            return sum(
                (ds.size / total) * kernel.grad(v, ds.features, ds.labels) for ds in datasets
            )

        for _ in range(500_000):
            g = full_grad(w)
            if np.linalg.norm(g) <= 1e-12:
                break
            w = w - step * g
        else:
            raise RuntimeError("logistic optimum solve did not reach tolerance 1e-12")
        f = sum((ds.size / total) * kernel.loss(w, ds.features, ds.labels) for ds in datasets)
        return w, float(f)
    raise ValueError(f"no optimum solver for loss kind {loss.kind!r}")


def _logistic_smoothness(datasets: Sequence[Dataset], loss: LossSpec) -> float:
    max_row = max(
        float(np.max(np.sum(ds.features**2, axis=1) + 1.0)) for ds in datasets
    )  # +1 for the bias feature
    return 0.25 * max_row + loss.regularization


def estimate_constants(
    loss: LossSpec,
    datasets: Sequence[Dataset],
    clip_radius: float,
    mini_batch: int,
    *,
    seed: int = 0,
    probe_points: int = PROBE_POINTS,
) -> ConvexityConstants:
    """Measure the instance constants on the projection ball of radius R.

    Quadratic: the extreme eigenvalues of the pooled Hessian (one symmetric
    eigensolve), analytic gradient bound. Logistic: max-row-norm smoothness
    bound, ridge strong convexity, sampled gradient bound with a 10% safety
    factor. Gradient noise is the worst empirical mini-batch variance of the
    kernel's closed-form per-sample gradients over sampled points;
    heterogeneity compares the global optimum against per-satellite optima.
    """
    if loss.kind == "mlp-small":
        raise ValueError("constants are undefined for the non-convex mlp-small loss")
    if clip_radius <= 0:
        raise ValueError("clip_radius must be positive")
    total = sum(d.size for d in datasets)
    weights = {ds.owner: ds.size / total for ds in datasets}
    kernel = make_loss_model(loss, datasets[0].feature_dim)

    if loss.kind == "quadratic":
        eigenvalues = np.linalg.eigvalsh(_pooled_quadratic(datasets, loss.regularization)[0])
        smooth, strong = eigenvalues[-1], eigenvalues[0]
        grad_bound = max(
            float(
                np.max(
                    np.linalg.norm(ds.features, axis=1)
                    * (clip_radius * np.linalg.norm(ds.features, axis=1) + np.abs(ds.labels))
                )
            )
            + loss.regularization * clip_radius
            for ds in datasets
        )
    else:
        smooth = _logistic_smoothness(datasets, loss)
        strong = loss.regularization
        grad_bound = 0.0

    sigma: dict[int, float] = {}
    for ds in datasets:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 23, ds.owner)))
        worst_var = 0.0
        worst_norm = 0.0
        for _ in range(probe_points):
            w = _sample_ball(rng, kernel.dim, clip_radius)
            grads = kernel.sample_grads(w, ds.features, ds.labels)
            norms = np.linalg.norm(grads, axis=1)
            worst_norm = max(worst_norm, float(np.max(norms)))
            mean = grads.mean(axis=0)
            per_sample_var = float(np.mean(np.sum((grads - mean) ** 2, axis=1)))
            worst_var = max(worst_var, per_sample_var / min(mini_batch, ds.size))
        sigma[ds.owner] = math.sqrt(worst_var)
        if loss.kind == "logistic-l2":
            grad_bound = max(grad_bound, 1.1 * worst_norm)

    _, f_star = solve_optimum(loss, datasets)
    f_local_sum = 0.0
    for ds in datasets:
        _, f_k = solve_optimum(loss, [ds])
        f_local_sum += weights[ds.owner] * f_k
    gamma = f_star - f_local_sum
    if gamma < 0:
        if gamma < -1e-8:
            raise RuntimeError(f"heterogeneity came out negative ({gamma}); solver failure")
        gamma = 0.0

    return ConvexityConstants(
        smoothness=float(smooth),
        strong_convexity=float(strong),
        sigma=sigma,
        grad_bound=float(grad_bound),
        heterogeneity=float(gamma),
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Bound evaluation

def compute_bound_params(
    constants: ConvexityConstants,
    local_steps: int,
    initial_gap: float,
    f_star: float,
) -> BoundParams:
    kappa = constants.condition_number
    upsilon = max(8.0 * kappa, float(local_steps))
    lam = (
        sum(constants.weights[k] ** 2 * constants.sigma[k] ** 2 for k in constants.sigma)
        + 6.0 * constants.smoothness * constants.heterogeneity
        + 8.0 * (local_steps - 1) ** 2 * constants.grad_bound**2
    )
    nu = 4.0 * local_steps**2 * constants.grad_bound**2 / len(constants.weights)
    return BoundParams(
        kappa=kappa,
        upsilon=upsilon,
        lam=lam,
        nu=nu,
        initial_gap=initial_gap,
        f_star=f_star,
    )


def theorem_bound(
    constants: ConvexityConstants, params: BoundParams, local_steps: int, rounds: int
) -> float:
    """Expected optimality gap bound after the given number of rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    mu = constants.strong_convexity
    lead = 2.0 * params.kappa / (params.upsilon + local_steps * rounds)
    return lead * ((params.lam + params.nu) / mu + mu * params.upsilon / 4.0 * params.initial_gap)


def theory_rate(constants: ConvexityConstants, params: BoundParams) -> InverseDecayRate:
    """Decaying step schedule (2 / mu) / (upsilon + step) matching the bound's
    premises (always <= 1/(4 smoothness))."""
    return InverseDecayRate(2.0 / constants.strong_convexity, params.upsilon)


def rounds_estimate(
    constants: ConvexityConstants,
    local_steps: int,
    num_partitions: int,
    rho: float,
    *,
    max_local_steps: int = 1000,
) -> tuple[float, int]:
    """Order-of-magnitude round count to hit gap rho, and the optimal local
    step count minimising it (unit constant factor)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    h2 = constants.grad_bound**2
    noise = sum(constants.weights[k] ** 2 * constants.sigma[k] ** 2 for k in constants.sigma)
    fixed = noise + constants.smoothness * constants.heterogeneity + constants.condition_number * h2

    def bracket(i: int) -> float:
        return (1.0 + 1.0 / num_partitions) * i * h2 + fixed / i + h2

    t_hat = bracket(local_steps) / rho
    i_star = min(range(1, max_local_steps + 1), key=bracket)
    return t_hat, i_star


# ---------------------------------------------------------------------------
# Contraction check

def check_one_step_contraction(
    trajectories: Sequence[Sequence[np.ndarray]],
    w_star: np.ndarray,
    constants: ConvexityConstants,
    params: BoundParams,
    rate: Callable[[int], float],
    local_steps: int,
) -> list[StepMargin]:
    """Margins of the one-step contraction inequality at each sync point.

    Expectations are estimated over the replica trajectories; the step size
    attributed to a round is its first local step's. A margin more than two
    standard errors below zero counts as a violation.
    """
    lengths = {len(tr) for tr in trajectories}
    if len(lengths) != 1:
        raise ValueError("replica trajectories must have equal length")
    (n_points,) = lengths
    if n_points < 2:
        return []
    mu = constants.strong_convexity
    eta_cap = 1.0 / (4.0 * constants.smoothness)
    dists = np.array(
        [[float(np.sum((np.asarray(w) - w_star) ** 2)) for w in tr] for tr in trajectories]
    )  # (replicas, points)
    out = []
    for p in range(n_points - 1):
        eta = rate((p * local_steps) + 1)
        if eta > eta_cap + 1e-12:
            raise ValueError(
                f"step size {eta:.3e} at sync step {p + 1} violates the premise "
                f"eta <= 1/(4 smoothness) = {eta_cap:.3e}"
            )
        per_replica = (1.0 - eta * mu) * dists[:, p] + eta**2 * (params.lam + params.nu) - dists[:, p + 1]
        margin = float(np.mean(per_replica))
        stderr = (
            float(np.std(per_replica, ddof=1) / math.sqrt(len(per_replica)))
            if len(per_replica) > 1
            else 0.0
        )
        out.append(StepMargin(step=p + 1, eta=eta, margin=margin, stderr=stderr))
    return out


# ---------------------------------------------------------------------------
# Fairness and empirical curves

def confusion_matrix(pred: np.ndarray, true: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts indexed [true class, predicted class]."""
    t, p = true.astype(np.int64), pred.astype(np.int64)
    if np.any((t < 0) | (t >= num_classes) | (p < 0) | (p >= num_classes)):
        raise ValueError(f"labels and predictions must lie in [0, {num_classes})")
    return np.bincount(t * num_classes + p, minlength=num_classes**2).reshape(
        num_classes, num_classes
    )


def fairness_gap(
    log: ParticipationLog,
    total_rounds: int | None = None,
    *,
    model: np.ndarray | None = None,
    loss: LossSpec | None = None,
    eval_dataset: Dataset | None = None,
) -> FairnessReport:
    """Spread between the highest and lowest empirical participation rates,
    optionally with the final model's per-class accuracy and confusion
    matrix on a held-out set."""
    t = log.rounds_completed if total_rounds is None else total_rounds
    if t < 1:
        raise ValueError("need at least one completed round")
    rates = {pid: log.frequency(pid, t + 1) / t for pid in log.partition_ids}
    gap = max(rates.values()) - min(rates.values())

    per_class = None
    conf = None
    if model is not None and loss is not None and eval_dataset is not None:
        kernel = make_loss_model(loss, eval_dataset.feature_dim)
        pred = kernel.predict(model, eval_dataset.features)
        conf = confusion_matrix(pred, eval_dataset.labels, loss.num_classes)
        per_class = {}
        for c in range(loss.num_classes):
            row = conf[c].sum()
            per_class[c] = float(conf[c, c] / row) if row else float("nan")
    return FairnessReport(rates=rates, gap=float(gap), per_class_accuracy=per_class, confusion=conf)


def loglog_slope(rounds: Sequence[int], gaps: Sequence[float]) -> float:
    """Least-squares slope of log(gap) against log(round)."""
    t = np.asarray(rounds, dtype=float)
    g = np.asarray(gaps, dtype=float)
    keep = (t > 0) & (g > 0)
    if keep.sum() < 2:
        raise ValueError("need at least two positive points")
    slope, _ = np.polyfit(np.log(t[keep]), np.log(g[keep]), 1)
    return float(slope)
