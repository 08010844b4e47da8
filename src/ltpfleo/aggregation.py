"""Fair partition weighting and the global model update.

Weights are kept as exact rationals end to end: the auditor later replays
the very coefficients the server used, and the fairness weights must be
invariant under common rescaling of the data sizes. A model is a flat,
read-only float64 array, so the cache stores and hands out the arrays
themselves.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class CacheMissError(KeyError):
    """A non-visible partition has no cached models yet."""


@dataclass(frozen=True)
class AggregationWeights:
    """Per-partition fair weights for one round."""

    round_index: int
    beta: dict[int, Fraction]
    weight_starved: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if sum(self.beta.values(), start=Fraction(0)) != 1:
            raise ValueError("beta weights must sum to exactly 1")
        if any(b < 0 for b in self.beta.values()):
            raise ValueError("beta weights must be nonnegative")

    @property
    def partition_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.beta))

    def beta_float(self, partition_id: int) -> float:
        return float(self.beta[partition_id])


def compute_weights(
    selected: Sequence[int],
    frequencies: Mapping[int, int],
    partition_data_sizes: Mapping[int, int],
    round_index: int,
) -> AggregationWeights:
    """Fair weight of each selected partition from frequency and data share.

    beta_G = f_G * |D_G| / sum_H f_H * |D_H| over the selection. A zero
    frequency total (possible only before anyone has participated) falls
    back to pure data-size weights; a zero-frequency partition inside a
    nonzero total gets weight zero and is reported as weight-starved.
    """
    if not selected:
        raise ValueError("cannot weight an empty selection")
    sizes = {pid: int(partition_data_sizes[pid]) for pid in selected}
    if any(n < 0 for n in sizes.values()):
        raise ValueError("data sizes must be nonnegative")
    if sum(sizes.values()) == 0:
        raise ValueError("total data size of the selection is zero")

    freqs = {pid: int(frequencies[pid]) for pid in selected}
    if sum(freqs.values()) == 0:
        mass = sizes
        starved = []
    else:
        mass = {pid: freqs[pid] * sizes[pid] for pid in selected}
        starved = [pid for pid in selected if freqs[pid] == 0]
    total = sum(mass.values())
    if total == 0:
        raise ValueError("all selected partitions have zero weight")
    if starved:
        logger.warning(
            "round %d: partitions %s are weight-starved (zero frequency, zero weight)",
            round_index,
            starved,
        )
    return AggregationWeights(
        round_index=round_index,
        beta={pid: Fraction(m, total) for pid, m in mass.items()},
        weight_starved=tuple(starved),
    )


def member_weights(member_ids: Sequence[int], member_sizes: Mapping[int, int]) -> dict[int, Fraction]:
    """Within-partition data weights |D_k| / |D_G|."""
    total = sum(int(member_sizes[k]) for k in member_ids)
    if total <= 0:
        raise ValueError("partition has zero total data")
    return {k: Fraction(int(member_sizes[k]), total) for k in member_ids}


def aggregate(
    weights: AggregationWeights,
    partition_models: Mapping[int, Mapping[int, np.ndarray]],
    member_sizes: Mapping[int, int],
    partition_members: Mapping[int, Sequence[int]],
    mode: str = "normalized",
) -> np.ndarray:
    """Combine partition member models into the next global model.

    ``normalized`` (default) weights each member by its within-partition data
    share so the result is a convex combination; ``literal`` applies the raw
    unnormalized inner sum for ablation. Partitions must arrive complete:
    a missing member would break the all-or-none privacy contract. The
    result is read-only; a non-finite result raises ``ValueError``.
    """
    if mode not in ("normalized", "literal"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    dim: int | None = None
    accum: np.ndarray | None = None
    for pid in weights.partition_ids:
        expected = tuple(sorted(partition_members[pid]))
        got = partition_models.get(pid, {})
        missing = [k for k in expected if k not in got]
        if missing:
            raise ValueError(
                f"partition {pid} is incomplete (missing satellites {missing}); "
                "all-or-none participation is required"
            )
        if mode == "normalized":
            mw = member_weights(expected, member_sizes)
        inner: np.ndarray | None = None
        for k in expected:
            vec = got[k]
            if dim is None:
                dim = vec.shape[0]
                accum = np.zeros(dim)
            if vec.shape[0] != dim:
                raise ValueError(
                    f"satellite {k} model dimension {vec.shape[0]} != expected {dim}"
                )
            scale = float(mw[k]) if mode == "normalized" else 1.0
            inner = scale * vec if inner is None else inner + scale * vec
        accum += weights.beta_float(pid) * inner
    if not np.all(np.isfinite(accum)):
        raise ValueError(f"round {weights.round_index}: aggregated model is not finite")
    accum.flags.writeable = False
    return accum


class ModelCache:
    """Last aggregated member models per partition, stamped with their round."""

    def __init__(self) -> None:
        self._store: dict[int, tuple[Mapping[int, np.ndarray], int]] = {}

    def __contains__(self, partition_id: int) -> bool:
        return partition_id in self._store

    def fetch_or_cache(
        self,
        partition_id: int,
        visible: bool,
        round_index: int,
        fresh_models: Mapping[int, np.ndarray] | None = None,
    ) -> tuple[Mapping[int, np.ndarray], int]:
        """Fresh models (age 0, cache refreshed) or cached ones with their age.

        The models are stored and returned as given, not copied: models are
        read-only arrays.
        """
        if visible:
            if fresh_models is None:
                raise ValueError("visible partition requires fresh models")
            self._store[partition_id] = (dict(fresh_models), round_index)
            return fresh_models, 0
        if partition_id not in self._store:
            raise CacheMissError(
                f"partition {partition_id} has never participated; no cached models"
            )
        models, stamp = self._store[partition_id]
        return models, round_index - stamp
