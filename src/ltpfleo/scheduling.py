"""Participation bookkeeping and the staleness-tolerance filter.

Each round the candidate partitions are narrowed to those whose historical
participation frequency sits inside the tolerance band; partitions that fall
behind the band can never rejoin (their frequency grows at most one per
round while the band floor rises exactly one per round).
"""
from __future__ import annotations

from typing import Iterable, Sequence

FULL_FAIRNESS = "t"  # sentinel: tolerance tracks the round index


class ParticipationLog:
    """Per-round binary participation indicators for every partition."""

    def __init__(self, partition_ids: Iterable[int]):
        self._ids = tuple(sorted(partition_ids))
        if len(set(self._ids)) != len(self._ids):
            raise ValueError("partition ids must be distinct")
        self._rows: list[frozenset[int]] = []
        self._counts: dict[int, int] = {pid: 0 for pid in self._ids}

    @property
    def partition_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def rounds_completed(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[frozenset[int]]:
        return list(self._rows)

    def frequency(self, partition_id: int, upto_round: int) -> int:
        """Participations of the partition over rounds 1 .. upto_round-1."""
        if partition_id not in self._counts:
            raise KeyError(partition_id)
        if upto_round < 1:
            raise ValueError("round index starts at 1")
        if upto_round - 1 > len(self._rows):
            raise ValueError(f"log only covers {len(self._rows)} completed rounds")
        if upto_round - 1 == len(self._rows):
            return self._counts[partition_id]
        return sum(partition_id in row for row in self._rows[: upto_round - 1])

    def frequencies(self, upto_round: int) -> dict[int, int]:
        return {pid: self.frequency(pid, upto_round) for pid in self._ids}

    def rates(self, total_rounds: int | None = None) -> dict[int, float]:
        """Empirical participation rate of each partition."""
        t = len(self._rows) if total_rounds is None else total_rounds
        if t <= 0:
            return {pid: 0.0 for pid in self._ids}
        return {pid: self._counts[pid] / t for pid in self._ids}


def staleness_filter(
    candidates: Sequence[int],
    frequencies: dict[int, int],
    round_index: int,
    tolerance,
    *,
    all_partitions: Sequence[int] | None = None,
) -> list[int]:
    """Keep candidates whose frequency lies in [t - tolerance, t - 1].

    An empty result signals a skipped round. ``tolerance`` equal to the round
    index (or the FULL_FAIRNESS sentinel) is the distinguished full-fairness
    mode: every partition of the constellation is admitted, with non-visible
    ones expected to contribute their cached models.
    """
    t = round_index
    if t < 1:
        raise ValueError("round index starts at 1")
    if tolerance == FULL_FAIRNESS:
        if all_partitions is None:
            raise ValueError("full-fairness mode needs the complete partition list")
        return sorted(all_partitions)
    if not isinstance(tolerance, int) or tolerance < 1:
        raise ValueError("tolerance must be an integer >= 1 or the 't' sentinel")
    if tolerance == t and all_partitions is not None:
        # Tolerance has caught up with the round index: every partition is
        # admitted, non-visible ones via their cached models.
        return sorted(all_partitions)

    selected = []
    for pid in candidates:
        f = frequencies[pid]
        if f > t - 1:
            raise ValueError(f"frequency {f} exceeds the {t - 1} completed rounds")
        if t - tolerance <= f <= t - 1:
            selected.append(pid)
    return sorted(selected)


def record_round(log: ParticipationLog, selected: Iterable[int], round_index: int) -> None:
    """Append round t indicators: 1 for selected partitions, 0 otherwise."""
    if round_index != log.rounds_completed + 1:
        raise ValueError(
            f"round {round_index} out of order; next recordable round is "
            f"{log.rounds_completed + 1}"
        )
    chosen = frozenset(selected)
    unknown = chosen.difference(log.partition_ids)
    if unknown:
        raise KeyError(f"unknown partitions {sorted(unknown)}")
    log._rows.append(chosen)
    for pid in chosen:
        log._counts[pid] += 1

