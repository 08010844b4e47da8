"""Local model training, loss kernels, and dataset synthesis/ingestion.

Three desk-scale loss families are provided: ``quadratic`` (least squares,
strongly convex with a ridge term), ``logistic-l2`` (one-vs-rest regularised
logistic regression over bias-augmented features, smoothness bounded by
max row norm / 4 plus the ridge), and ``mlp-small`` (one tanh hidden layer,
non-convex, excluded from the convergence theory). Models are flat,
read-only float64 arrays; ``local_sgd`` returns a new one.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

LOSS_KINDS = ("quadratic", "logistic-l2", "mlp-small")
SPLITS = ("iid", "non-iid-2class")
DATA_KINDS = ("blobs", "linear-regression")


@dataclass
class Dataset:
    """Feature matrix plus labels owned by one satellite."""

    features: np.ndarray
    labels: np.ndarray
    owner: int = 0

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LossSpec:
    """Which loss to train, with its ridge coefficient and projection radius."""

    kind: str
    regularization: float = 0.0
    clip_radius: float | None = None
    num_classes: int = 2
    hidden_units: int = 16

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if self.clip_radius is not None and self.clip_radius <= 0:
            raise ValueError("clip_radius must be positive when set")
        if self.kind != "quadratic" and self.num_classes < 2:
            raise ValueError("classification losses need num_classes >= 2")
        if self.kind == "mlp-small" and not 1 <= self.hidden_units <= 64:
            raise ValueError("hidden_units must be in [1, 64]")


@dataclass(frozen=True)
class SgdConfig:
    """Local optimiser settings. ``learning_rate`` is a constant or a
    callable mapping the 1-based global step index to a step size."""

    local_steps: int = 1
    learning_rate: float | Callable[[int], float] = 0.01
    mini_batch: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if isinstance(self.learning_rate, (int, float)) and self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.mini_batch < 1:
            raise ValueError("mini_batch must be >= 1")

    def rate_at(self, step: int) -> float:
        if callable(self.learning_rate):
            return float(self.learning_rate(step))
        return float(self.learning_rate)


class InverseDecayRate:
    """Step schedule c / (offset + step); steps are 1-based."""

    def __init__(self, c: float, offset: float):
        if c <= 0 or offset < 0:
            raise ValueError("need c > 0 and offset >= 0")
        self.c = c
        self.offset = offset

    def __call__(self, step: int) -> float:
        return self.c / (self.offset + step)


def _augment(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _expit(u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * u))


class QuadraticModel:
    """Least squares: mean of (w.x - y)^2 / 2 plus ridge."""

    def __init__(self, spec: LossSpec, feature_dim: int):
        self.reg = spec.regularization
        self.dim = feature_dim

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        r = X @ w - y
        return float(0.5 * np.mean(r * r) + 0.5 * self.reg * (w @ w))

    def grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = X @ w - y
        return X.T @ r / X.shape[0] + self.reg * w

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        return X @ w


class LogisticL2Model:
    """One-vs-rest logistic regression on bias-augmented features.

    Parameters are a (num_classes, feature_dim + 1) matrix flattened
    row-major; the per-sample loss sums the binary logistic losses of all
    class-vs-rest problems, so the Hessian stays block diagonal and the
    smoothness constant is max ||x~||^2 / 4 plus the ridge.
    """

    def __init__(self, spec: LossSpec, feature_dim: int):
        self.reg = spec.regularization
        self.num_classes = spec.num_classes
        self.feature_dim = feature_dim
        self.dim = spec.num_classes * (feature_dim + 1)

    def _unpack(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(self.num_classes, self.feature_dim + 1)

    def _signs(self, y: np.ndarray) -> np.ndarray:
        onehot = y[:, None] == np.arange(self.num_classes)[None, :]
        return np.where(onehot, 1.0, -1.0)

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        Xa = _augment(X)
        z = Xa @ self._unpack(w).T
        s = self._signs(y.astype(int))
        per_sample = np.logaddexp(0.0, -s * z).sum(axis=1)
        return float(np.mean(per_sample) + 0.5 * self.reg * (w @ w))

    def grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        Xa = _augment(X)
        W = self._unpack(w)
        z = Xa @ W.T
        s = self._signs(y.astype(int))
        g_z = -s * _expit(-s * z)  # d softplus(-s z) / d z
        grad_W = g_z.T @ Xa / X.shape[0] + self.reg * W
        return grad_W.ravel()

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        z = _augment(X) @ self._unpack(w).T
        return np.argmax(z, axis=1)


class SmallMlpModel:
    """One tanh hidden layer, softmax cross-entropy output."""

    def __init__(self, spec: LossSpec, feature_dim: int):
        self.reg = spec.regularization
        self.num_classes = spec.num_classes
        self.hidden = spec.hidden_units
        self.feature_dim = feature_dim
        self.n1 = (feature_dim + 1) * self.hidden
        self.dim = self.n1 + (self.hidden + 1) * self.num_classes

    def _unpack(self, w: np.ndarray):
        w1 = w[: self.n1].reshape(self.feature_dim + 1, self.hidden)
        w2 = w[self.n1 :].reshape(self.hidden + 1, self.num_classes)
        return w1, w2

    def _forward(self, w: np.ndarray, X: np.ndarray):
        w1, w2 = self._unpack(w)
        a1 = np.tanh(_augment(X) @ w1)
        z2 = _augment(a1) @ w2
        z2 -= z2.max(axis=1, keepdims=True)
        expz = np.exp(z2)
        probs = expz / expz.sum(axis=1, keepdims=True)
        return a1, probs

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        _, probs = self._forward(w, X)
        picked = probs[np.arange(X.shape[0]), y.astype(int)]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))) + 0.5 * self.reg * (w @ w))

    def grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        w1, w2 = self._unpack(w)
        Xa = _augment(X)
        a1 = np.tanh(Xa @ w1)
        a1a = _augment(a1)
        z2 = a1a @ w2
        z2 -= z2.max(axis=1, keepdims=True)
        expz = np.exp(z2)
        probs = expz / expz.sum(axis=1, keepdims=True)
        delta2 = probs.copy()
        delta2[np.arange(n), y.astype(int)] -= 1.0
        delta2 /= n
        g2 = a1a.T @ delta2
        delta1 = (delta2 @ w2[:-1].T) * (1.0 - a1 * a1)
        g1 = Xa.T @ delta1
        return np.concatenate([g1.ravel(), g2.ravel()]) + self.reg * w

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        _, probs = self._forward(w, X)
        return np.argmax(probs, axis=1)


_MODEL_CLASSES = {
    "quadratic": QuadraticModel,
    "logistic-l2": LogisticL2Model,
    "mlp-small": SmallMlpModel,
}


def make_loss_model(spec: LossSpec, feature_dim: int):
    return _MODEL_CLASSES[spec.kind](spec, feature_dim)


def model_dim(spec: LossSpec, feature_dim: int) -> int:
    return make_loss_model(spec, feature_dim).dim


def project_ball(w: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(w))
    if norm <= radius:
        return w
    return w * (radius / norm)


def local_sgd(
    model: np.ndarray,
    dataset: Dataset,
    loss: LossSpec,
    cfg: SgdConfig,
    *,
    rng: np.random.Generator | None = None,
    step_offset: int = 0,
) -> np.ndarray:
    """Run the configured number of mini-batch SGD steps from ``model``.

    Batches are sampled with replacement; a batch size at or above the
    dataset size falls back to the full deterministic gradient. With a clip
    radius every iterate is projected back onto the ball, which keeps the
    stochastic gradients bounded. The global step index (offset + local
    step, 1-based) drives decaying learning-rate schedules. The result is
    read-only; a non-finite result raises ``FloatingPointError``.
    """
    kernel = make_loss_model(loss, dataset.feature_dim)
    if model.shape != (kernel.dim,):
        raise ValueError(f"model shape {model.shape} != loss dimension ({kernel.dim},)")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    w = model
    n = dataset.size
    full_batch = cfg.mini_batch >= n
    for i in range(cfg.local_steps):
        if full_batch:
            X, y = dataset.features, dataset.labels
        else:
            idx = rng.integers(0, n, size=cfg.mini_batch)
            X, y = dataset.features[idx], dataset.labels[idx]
        g = kernel.grad(w, X, y)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient at local step {i + 1} (owner {dataset.owner}, "
                f"|w|={np.linalg.norm(w):.3e})"
            )
        w = w - cfg.rate_at(step_offset + i + 1) * g
        if loss.clip_radius is not None:
            w = project_ball(w, loss.clip_radius)
    if not np.all(np.isfinite(w)):
        raise FloatingPointError(
            f"non-finite model after {cfg.local_steps} local steps (owner {dataset.owner})"
        )
    w.flags.writeable = False
    return w


def global_loss(model: np.ndarray, datasets: Sequence[Dataset], loss: LossSpec) -> float:
    """Data-size weighted mean of the per-satellite losses."""
    if not datasets:
        raise ValueError("need at least one dataset")
    kernel = make_loss_model(loss, datasets[0].feature_dim)
    total = sum(d.size for d in datasets)
    return float(
        sum(d.size * kernel.loss(model, d.features, d.labels) for d in datasets) / total
    )


def global_accuracy(model: np.ndarray, dataset: Dataset, loss: LossSpec) -> float:
    kernel = make_loss_model(loss, dataset.feature_dim)
    pred = kernel.predict(model, dataset.features)
    return float(np.mean(pred == dataset.labels.astype(int)))


def blob_centers(num_classes: int, feature_dim: int) -> np.ndarray:
    """Class centres on a circle with unit spacing between neighbours."""
    if num_classes < 2:
        raise ValueError("blobs need at least two classes")
    if feature_dim < 2:
        raise ValueError("blobs need feature_dim >= 2")
    radius = 0.5 / math.sin(math.pi / num_classes)
    centers = np.zeros((num_classes, feature_dim))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def orbit_classes(orbit: int, num_classes: int) -> tuple[int, int]:
    """Round-robin two-class assignment: orbit p holds classes 2p, 2p+1."""
    return (2 * orbit) % num_classes, (2 * orbit + 1) % num_classes


def synthesize_data(
    kind: str,
    num_classes: int,
    per_sat_sizes: Sequence[int],
    split: str,
    seed: int,
    *,
    feature_dim: int = 2,
    noise: float = 0.2,
    num_orbits: int | None = None,
    heterogeneity: float = 0.0,
) -> list[Dataset]:
    """Deterministic per-satellite datasets.

    ``blobs``: isotropic Gaussian clusters around unit-spaced class centres;
    the iid split draws every satellite from the full class mixture while
    non-iid-2class restricts each orbit's satellites to two classes.
    ``linear-regression``: Gaussian features with per-satellite ground-truth
    coefficients drifted by ``heterogeneity``.
    """
    if kind not in DATA_KINDS:
        raise ValueError(f"kind must be one of {DATA_KINDS}")
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}")
    sizes = [int(n) for n in per_sat_sizes]
    if any(n < 1 for n in sizes):
        raise ValueError("every satellite needs at least one sample")
    k = len(sizes)

    if kind == "linear-regression":
        if split != "iid":
            raise ValueError("linear-regression supports only the iid split")
        base_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        truth = base_rng.normal(size=feature_dim)
        datasets = []
        for sat, n in enumerate(sizes):
            rng = np.random.default_rng(np.random.SeedSequence((seed, sat + 1)))
            coef = truth + heterogeneity * rng.normal(size=feature_dim)
            X = rng.normal(size=(n, feature_dim))
            y = X @ coef + noise * rng.normal(size=n)
            datasets.append(Dataset(X, y, owner=sat))
        return datasets

    if split == "non-iid-2class":
        if num_classes < 2:
            raise ValueError("non-iid-2class needs num_classes >= 2")
        if num_orbits is None or num_orbits < 1 or k % num_orbits != 0:
            raise ValueError("non-iid-2class needs num_orbits dividing the satellite count")
    centers = blob_centers(num_classes, feature_dim)
    datasets = []
    sats_per_orbit = k // num_orbits if num_orbits else k
    for sat, n in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((seed, sat + 1)))
        if split == "iid":
            labels = rng.integers(0, num_classes, size=n)
        else:
            pair = orbit_classes(sat // sats_per_orbit, num_classes)
            labels = np.asarray(pair)[rng.integers(0, 2, size=n)]
        X = centers[labels] + noise * rng.normal(size=(n, feature_dim))
        datasets.append(Dataset(X, labels.astype(np.int64), owner=sat))
    return datasets


def split_holdout(
    datasets: Sequence[Dataset], fraction: float, seed: int
) -> tuple[list[Dataset], Dataset | None]:
    """Carve a pooled held-out set from each satellite's data.

    Returns the reduced training datasets and the pooled holdout; a zero
    fraction (or slices too small to split) leaves the data untouched.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if fraction == 0.0:
        return list(datasets), None
    train, held_X, held_y = [], [], []
    for ds in datasets:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 9, ds.owner)))
        n_hold = int(round(ds.size * fraction))
        if n_hold == 0 or n_hold >= ds.size:
            train.append(ds)
            continue
        perm = rng.permutation(ds.size)
        hold, keep = perm[:n_hold], perm[n_hold:]
        train.append(Dataset(ds.features[keep], ds.labels[keep], owner=ds.owner))
        held_X.append(ds.features[hold])
        held_y.append(ds.labels[hold])
    holdout = None
    if held_X:
        holdout = Dataset(np.vstack(held_X), np.concatenate(held_y), owner=-1)
    return train, holdout


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset as f0..fn feature columns plus a label column y."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.feature_dim)] + ["y"])
        integral = np.issubdtype(dataset.labels.dtype, np.integer)
        for row, label in zip(dataset.features, dataset.labels):
            cells = [repr(v) for v in row.tolist()]
            cells.append(str(int(label)) if integral else repr(float(label)))
            writer.writerow(cells)


def load_csv(path, owner: int = 0) -> Dataset:
    """Parse a dataset CSV, reporting malformed cells by row and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[-1] != "y":
            raise ValueError(f"{path}: last column must be the label column 'y'")
        width = len(header)
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} cells, got {len(row)}")
            values = []
            for col, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} in column {col}"
                    ) from None
            feats.append(values[:-1])
            labels.append(values[-1])
    if not feats:
        raise ValueError(f"{path}: no data rows")
    labels_arr = np.asarray(labels)
    if np.all(labels_arr == np.floor(labels_arr)):
        labels_arr = labels_arr.astype(np.int64)
    return Dataset(np.asarray(feats), labels_arr, owner=owner)
