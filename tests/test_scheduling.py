import numpy as np
import pytest

from ltpfleo.scheduling import (
    FULL_FAIRNESS,
    ParticipationLog,
    record_round,
    staleness_filter,
)


def play_rounds(log, selections):
    for t, sel in enumerate(selections, start=1):
        record_round(log, sel, t)


class TestParticipationFrequency:
    def test_full_participation_history(self):
        log = ParticipationLog([1, 2, 3, 4])
        play_rounds(log, [{3}] * 9)
        assert log.frequency(3, 10) == 9

    def test_empty_log(self):
        log = ParticipationLog([1])
        assert log.frequency(1, 1) == 0

    def test_alternating_oracle(self):
        # Direct summation oracle: 1,0,1,0,1 over five rounds.
        pattern = [1, 0, 1, 0, 1]
        log = ParticipationLog([7])
        play_rounds(log, [{7} if bit else set() for bit in pattern])
        assert log.frequency(7, 6) == sum(pattern)

    def test_monotone_unit_increments(self):
        rng = np.random.default_rng(3)
        log = ParticipationLog([0, 1, 2])
        play_rounds(log, [set(rng.choice(3, size=rng.integers(0, 4), replace=False).tolist())
                          for _ in range(40)])
        for pid in (0, 1, 2):
            freqs = [log.frequency(pid, t) for t in range(1, 42)]
            deltas = np.diff(freqs)
            assert np.all(deltas >= 0)
            assert set(deltas.tolist()) <= {0, 1}


class TestStalenessFilter:
    def test_worked_example(self):
        # f = {3, 1, 9, 7} at t=10 with tolerance 3 keeps only G3 and G4.
        freqs = {1: 3, 2: 1, 3: 9, 4: 7}
        assert staleness_filter([1, 2, 3, 4], freqs, 10, 3) == [3, 4]

    def test_full_fairness_admits_everyone(self):
        freqs = {1: 3, 2: 1, 3: 9, 4: 7}
        out = staleness_filter([3, 4], freqs, 10, FULL_FAIRNESS, all_partitions=[1, 2, 3, 4])
        assert out == [1, 2, 3, 4]
        out = staleness_filter([3, 4], freqs, 10, 10, all_partitions=[1, 2, 3, 4])
        assert out == [1, 2, 3, 4]

    def test_band_unmet_skips_round(self):
        assert staleness_filter([0, 1], {0: 0, 1: 0}, 5, 1) == []

    def test_round_one_admits_all_candidates(self):
        assert staleness_filter([0, 1], {0: 0, 1: 0}, 1, 1) == [0, 1]

    def test_band_membership_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = int(rng.integers(2, 30))
            alpha = int(rng.integers(1, t))  # strictly below t: plain band mode
            freqs = {pid: int(rng.integers(0, t)) for pid in range(6)}
            out = staleness_filter(list(range(6)), freqs, t, alpha)
            for pid in range(6):
                inside = t - alpha <= freqs[pid] <= t - 1
                assert (pid in out) == inside

    def test_rejects_impossible_frequency(self):
        with pytest.raises(ValueError, match="exceeds"):
            staleness_filter([0], {0: 5}, 3, 2)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            staleness_filter([0], {0: 0}, 5, 0)


class TestRecordRound:
    def test_skipped_round_records_zeros(self):
        log = ParticipationLog([0, 1, 2])
        record_round(log, set(), 1)
        assert [log.indicator(pid, 1) for pid in (0, 1, 2)] == [0, 0, 0]

    def test_single_selection_indicators(self):
        log = ParticipationLog([0, 1, 2])
        record_round(log, {1}, 1)
        assert [log.indicator(pid, 1) for pid in (0, 1, 2)] == [0, 1, 0]

    def test_rejects_duplicate_round(self):
        log = ParticipationLog([0])
        record_round(log, {0}, 1)
        with pytest.raises(ValueError, match="out of order"):
            record_round(log, {0}, 1)

    def test_rejects_unknown_partition(self):
        log = ParticipationLog([0])
        with pytest.raises(KeyError):
            record_round(log, {5}, 1)

    def test_replay_oracle_total_participations(self):
        # Independent replay: recount every event from the raw selection list.
        rng = np.random.default_rng(5)
        selections = [
            set(rng.choice(4, size=rng.integers(0, 5), replace=False).tolist())
            for _ in range(100)
        ]
        log = ParticipationLog([0, 1, 2, 3])
        play_rounds(log, selections)
        total_from_log = sum(log.frequency(pid, 101) for pid in (0, 1, 2, 3))
        total_replayed = sum(len(sel) for sel in selections)
        assert total_from_log == total_replayed
