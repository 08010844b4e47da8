"""Visibility-coherent satellite partitioning and per-round candidate selection.

Partitions are built once, before training starts, and stay fixed: satellites
in one partition participate all-or-none, so the server can recover at best a
partition-level sum of models.
"""
from __future__ import annotations

import csv
import warnings
from bisect import bisect_right
from dataclasses import dataclass

from .orbital import ContactSchedule

Interval = tuple[float, float]


@dataclass(frozen=True)
class Partition:
    """A fixed group of satellites that participates jointly."""

    id: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) == 0:
            raise ValueError("partition must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("partition members must be distinct")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PartitionSet:
    """Disjoint cover of the constellation by equally sized partitions."""

    partitions: tuple[Partition, ...]
    target_ltp: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for part in self.partitions:
            if part.size != self.target_ltp:
                raise ValueError("every partition must have exactly target_ltp members")
            overlap = seen.intersection(part.members)
            if overlap:
                raise ValueError(f"satellites {sorted(overlap)} appear in multiple partitions")
            seen.update(part.members)

    @property
    def ids(self) -> list[int]:
        return [p.id for p in self.partitions]

    @property
    def satellites(self) -> list[int]:
        return sorted(s for p in self.partitions for s in p.members)

    def partition_of(self, satellite_id: int) -> int:
        for p in self.partitions:
            if satellite_id in p.members:
                return p.id
        raise KeyError(satellite_id)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["partition_id", "satellite_id"])
            for p in self.partitions:
                for sat in p.members:
                    writer.writerow([p.id, sat])


@dataclass(frozen=True)
class CandidateSet:
    """Per-round candidate partitions: the earliest one plus window-overlapping peers."""

    now_s: float
    best_id: int | None
    partition_ids: tuple[int, ...]
    common_windows: dict[int, Interval]

    @property
    def empty(self) -> bool:
        return self.best_id is None


def intersect_intervals(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Intersection of two sorted disjoint interval lists."""
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _sat_intervals(schedule: ContactSchedule, satellite_id: int) -> list[Interval]:
    return [(w.start_s, w.end_s) for w in schedule.windows_for(satellite_id)]


def common_windows(members, schedule: ContactSchedule) -> list[Interval]:
    """Intervals during which every member is simultaneously visible."""
    members = list(members)
    acc = _sat_intervals(schedule, members[0])
    for sat in members[1:]:
        if not acc:
            return []
        acc = intersect_intervals(acc, _sat_intervals(schedule, sat))
    return acc


def pairwise_overlap_s(schedule: ContactSchedule, sat_a: int, sat_b: int) -> float:
    """Total simultaneous-visibility duration of two satellites."""
    both = intersect_intervals(_sat_intervals(schedule, sat_a), _sat_intervals(schedule, sat_b))
    return sum(hi - lo for lo, hi in both)


def build_partitions(schedule: ContactSchedule, target_ltp: int) -> PartitionSet:
    """Greedy clustering into K/L partitions of maximal seed overlap.

    Satellites are taken in order of first window start; each partition is
    seeded with the earliest unassigned satellite and filled with the L-1
    unassigned satellites that overlap the seed longest (ties by id).
    """
    satellites = schedule.satellites
    k = len(satellites)
    if k == 0:
        raise ValueError("schedule has no satellites")
    if target_ltp < 1:
        raise ValueError("target_ltp must be >= 1")
    if k % target_ltp != 0:
        raise ValueError(f"satellite count {k} is not divisible by target_ltp {target_ltp}")

    def first_start(sat: int) -> float:
        wins = schedule.windows_for(sat)
        return wins[0].start_s if wins else float("inf")

    order = sorted(satellites, key=lambda s: (first_start(s), s))
    unassigned = list(order)
    partitions: list[Partition] = []
    while unassigned:
        seed = unassigned.pop(0)
        ranked = sorted(
            unassigned,
            key=lambda s: (-pairwise_overlap_s(schedule, seed, s), s),
        )
        chosen = ranked[: target_ltp - 1]
        for sat in chosen:
            unassigned.remove(sat)
        members = (seed, *chosen)
        pid = len(partitions)
        if target_ltp > 1 and not common_windows(members, schedule):
            warnings.warn(
                f"partition {pid} has no common visibility window; it can never participate",
                stacklevel=2,
            )
        partitions.append(Partition(id=pid, members=members))
    return PartitionSet(partitions=tuple(partitions), target_ltp=target_ltp)


def common_window_index(
    partition_set: PartitionSet, schedule: ContactSchedule
) -> dict[int, tuple[list[Interval], list[float]]]:
    """Per partition id: its common windows and their ends, both sorted.

    The schedule is fixed before training, so this is built once per run and
    ``select_candidates`` answers each round with a bisection on the ends.
    """
    index = {}
    for part in partition_set.partitions:
        windows = common_windows(part.members, schedule)
        index[part.id] = (windows, [hi for _, hi in windows])
    return index


def select_candidates(
    partition_set: PartitionSet,
    schedule: ContactSchedule,
    now_s: float,
    index: dict[int, tuple[list[Interval], list[float]]],
) -> CandidateSet:
    """Pick the partition whose last member becomes visible earliest, plus overlaps.

    ``index`` is ``common_window_index(partition_set, schedule)``. A
    partition is eligible when one of its common windows is still open at
    or after ``now_s``; the first such window is its next common window.
    The best partition minimises max over members of the predicted contact
    time (ties broken by lowest partition id); every other partition whose
    next common window overlaps the best one's is added as a candidate.
    """
    eligible: dict[int, Interval] = {}
    worst_contact: dict[int, float] = {}
    for part in partition_set.partitions:
        windows, ends = index[part.id]
        i = bisect_right(ends, now_s)
        if i == len(windows):
            continue
        # Every member's window containing this common window is still open,
        # so each member has a next contact.
        eligible[part.id] = windows[i]
        worst_contact[part.id] = max(schedule.next_contact_time(sat, now_s) for sat in part.members)

    if not eligible:
        return CandidateSet(now_s=now_s, best_id=None, partition_ids=(), common_windows={})

    best_id = min(eligible, key=lambda pid: (worst_contact[pid], pid))
    best_window = eligible[best_id]
    chosen = [best_id]
    for pid, win in eligible.items():
        if pid == best_id:
            continue
        if min(best_window[1], win[1]) > max(best_window[0], win[0]):
            chosen.append(pid)
    chosen.sort()
    return CandidateSet(
        now_s=now_s,
        best_id=best_id,
        partition_ids=tuple(chosen),
        common_windows={pid: eligible[pid] for pid in chosen},
    )
