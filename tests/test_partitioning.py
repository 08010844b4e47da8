import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_schedule, random_schedule
from ltpfleo.partitioning import (
    Partition,
    PartitionSet,
    build_partitions,
    common_window_index,
    common_windows,
    count_selectable_sets,
    intersect_intervals,
    select_candidates,
)


def select(ps, sched, now):
    return select_candidates(ps, sched, now, common_window_index(ps, sched))


def reference_next_common_window(members, sched, now):
    """From scratch: intersect the members' windows pair by pair, then take
    the first common window still open after ``now``."""
    acc = [(w.start_s, w.end_s) for w in sched.windows_for(members[0])]
    for sat in members[1:]:
        acc = [
            (max(lo, w.start_s), min(hi, w.end_s))
            for lo, hi in acc
            for w in sched.windows_for(sat)
            if min(hi, w.end_s) > max(lo, w.start_s)
        ]
    return next(((lo, hi) for lo, hi in sorted(acc) if hi > now), None)


def reference_select(ps, sched, now):
    """(best id, {candidate id: next common window}) by linear scans."""
    eligible = {}
    for p in ps.partitions:
        window = reference_next_common_window(p.members, sched, now)
        if window is not None:
            contacts = [
                next(w.start_s for w in sched.windows_for(s) if w.end_s > now) for s in p.members
            ]
            eligible[p.id] = (max(contacts), window)
    if not eligible:
        return None, {}
    best = min(eligible, key=lambda pid: (eligible[pid][0], pid))
    lo, hi = eligible[best][1]
    return best, {
        pid: window
        for pid, (_, window) in sorted(eligible.items())
        if min(hi, window[1]) > max(lo, window[0])
    }


@st.composite
def interval_schedules(draw):
    """A random partitioned schedule on a coarse grid, so that windows touch,
    share ends and start at t = 0 often."""
    ltp = draw(st.sampled_from([1, 2, 3]))
    k = ltp * draw(st.integers(1, 3))
    windows = {}
    for sat in range(k):
        spans, t = [], 0
        for gap, length in draw(
            st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=5)
        ):
            spans.append((10.0 * (t + gap), 10.0 * (t + gap + length)))
            t += gap + length
        windows[sat] = spans
    order = draw(st.permutations(range(k)))
    parts = tuple(Partition(i, tuple(order[i * ltp : (i + 1) * ltp])) for i in range(k // ltp))
    return make_schedule(windows), PartitionSet(parts, target_ltp=ltp)


class TestIntervalOps:
    def test_intersection_basic(self):
        assert intersect_intervals([(0, 10)], [(5, 20)]) == [(5, 10)]
        assert intersect_intervals([(0, 5)], [(5, 10)]) == []
        assert intersect_intervals([(0, 4), (6, 9)], [(2, 7)]) == [(2, 4), (6, 7)]

    def test_common_windows_three_way(self):
        sched = make_schedule({0: [(0, 100)], 1: [(50, 150)], 2: [(80, 200)]})
        assert common_windows([0, 1, 2], sched) == [(80, 100)]

    def test_next_common_window_skips_past(self):
        sched = make_schedule({0: [(0, 100), (300, 400)], 1: [(0, 100), (300, 400)]})
        ps = build_partitions(sched, 2)
        (pid,) = ps.ids
        # now = 100 is the first window's end: that window is closed
        expected_at = {150.0: (300.0, 400.0), 50.0: (0.0, 100.0), 100.0: (300.0, 400.0)}
        for now, expected in expected_at.items():
            assert reference_next_common_window([0, 1], sched, now) == expected
            assert select(ps, sched, now).common_windows == {pid: expected}
        assert reference_next_common_window([0, 1], sched, 500.0) is None
        assert select(ps, sched, 500.0).empty


class TestBuildPartitions:
    def test_example_topology_three_partitions(self):
        sched = make_schedule({k: [(100 * k, 100 * k + 250)] for k in range(6)})
        ps = build_partitions(sched, 2)
        assert len(ps.partitions) == 3
        assert sorted(ps.satellites) == list(range(6))

    def test_single_group(self):
        sched = make_schedule({k: [(0, 500)] for k in range(6)})
        ps = build_partitions(sched, 6)
        assert len(ps.partitions) == 1
        assert ps.partitions[0].members == tuple(range(6))

    def test_no_privacy_baseline(self):
        sched = make_schedule({k: [(0, 500)] for k in range(4)})
        ps = build_partitions(sched, 1)
        assert [p.members for p in ps.partitions] == [(0,), (1,), (2,), (3,)]

    def test_rejects_indivisible(self):
        sched = make_schedule({k: [(0, 500)] for k in range(5)})
        with pytest.raises(ValueError, match="divisible"):
            build_partitions(sched, 2)

    def test_greedy_prefers_overlapping_members(self):
        # Sats 0/1 overlap fully, 2/3 overlap fully, 0 and 2 never.
        sched = make_schedule({0: [(0, 100)], 1: [(0, 100)], 2: [(200, 300)], 3: [(200, 300)]})
        ps = build_partitions(sched, 2)
        assert {p.members for p in ps.partitions} == {(0, 1), (2, 3)}

    def test_warns_on_zero_common_overlap(self):
        sched = make_schedule({0: [(0, 100)], 1: [(200, 300)]})
        with pytest.warns(UserWarning, match="common visibility"):
            build_partitions(sched, 2)

    def test_disjoint_cover_for_all_divisors(self):
        import warnings

        rng = np.random.default_rng(7)
        for k in (6, 12, 24, 60):
            sched = random_schedule(k, rng)
            for ltp in range(1, k + 1):
                if k % ltp:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ps = build_partitions(sched, ltp)
                assert len(ps.partitions) == k // ltp
                cover = sorted(s for p in ps.partitions for s in p.members)
                assert cover == list(range(k))

    def test_partition_csv(self, tmp_path):
        sched = make_schedule({k: [(0, 500)] for k in range(4)})
        ps = build_partitions(sched, 2)
        path = tmp_path / "partitions.csv"
        ps.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "partition_id,satellite_id"
        assert len(lines) == 5


class TestPartitionValidation:
    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            PartitionSet(partitions=(Partition(0, (0, 1)), Partition(1, (2,))), target_ltp=2)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="multiple"):
            PartitionSet(partitions=(Partition(0, (0, 1)), Partition(1, (1, 2))), target_ltp=2)


class TestCountSelectableSets:
    @pytest.mark.parametrize("k,ltp,expected", [(6, 2, 7), (12, 3, 15), (6, 6, 1)])
    def test_formula(self, k, ltp, expected):
        sched = make_schedule({i: [(0, 500)] for i in range(k)})
        assert count_selectable_sets(build_partitions(sched, ltp)) == expected


class TestSelectCandidates:
    def _three_partition_setup(self, spans):
        sched = make_schedule({k: [spans[k // 2]] for k in range(6)})
        ps = build_partitions(sched, 2)
        return ps, sched

    def test_argmin_without_overlap(self):
        # Partition contact maxima 300 / 200 / 500, pairwise disjoint windows.
        ps, sched = self._three_partition_setup({0: (300, 390), 1: (200, 290), 2: (500, 590)})
        cs = select(ps, sched, 0.0)
        assert sched.next_contact_time(ps.members_of(cs.best_id)[0], 0.0) == 200.0
        assert len(cs.partition_ids) == 1

    def test_overlap_extends_candidates(self):
        sched = make_schedule(
            {0: [(200, 400)], 1: [(200, 400)], 2: [(250, 350)], 3: [(250, 350)]}
        )
        ps = build_partitions(sched, 2)
        cs = select(ps, sched, 0.0)
        assert len(cs.partition_ids) == 2
        best_members = ps.members_of(cs.best_id)
        assert sched.next_contact_time(best_members[0], 0.0) == 200.0

    def test_empty_when_no_common_visibility(self):
        sched = make_schedule({0: [(0, 100)], 1: [(200, 300)]})
        with pytest.warns(UserWarning):
            ps = build_partitions(sched, 2)
        cs = select(ps, sched, 0.0)
        assert cs.empty
        assert cs.partition_ids == ()

    def test_no_future_windows_gives_empty(self):
        sched = make_schedule({0: [(0, 100)], 1: [(0, 100)]})
        ps = build_partitions(sched, 2)
        assert select(ps, sched, 500.0).empty

    def test_tie_break_by_partition_id(self):
        sched = make_schedule({k: [(100, 400)] for k in range(4)})
        ps = build_partitions(sched, 2)
        cs = select(ps, sched, 0.0)
        assert cs.best_id == min(p.id for p in ps.partitions)

    def test_exhaustive_scan_oracle_random_schedules(self):
        # Brute-force oracle: among eligible partitions, none may have a
        # strictly smaller worst member contact time than the selection.
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(1000):
            k = int(rng.choice([4, 6, 8]))
            ltp = int(rng.choice([1, 2]))
            if k % ltp:
                continue
            sched = random_schedule(k, rng)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ps = build_partitions(sched, ltp)
            now = float(rng.uniform(0.0, 10000.0))
            cs = select(ps, sched, now)
            if cs.empty:
                continue

            def worst(pid):
                contacts = [sched.next_contact_time(s, now) for s in ps.members_of(pid)]
                if any(c is None for c in contacts):
                    return None
                if reference_next_common_window(ps.members_of(pid), sched, now) is None:
                    return None
                return max(contacts)

            best = worst(cs.best_id)
            for p in ps.partitions:
                w = worst(p.id)
                if w is not None:
                    assert w >= best or (w == best and p.id >= cs.best_id)
                    assert not (w < best)
            checked += 1
        assert checked > 400

    @settings(max_examples=60, deadline=None)
    @given(
        case=interval_schedules(),
        queries=st.lists(st.integers(0, 240).map(lambda n: 5.0 * n), min_size=1, max_size=8),
    )
    def test_indexed_selection_matches_reference(self, case, queries):
        sched, ps = case
        index = common_window_index(ps, sched)
        for now in queries:
            cs = select_candidates(ps, sched, now, index)
            best, windows = reference_select(ps, sched, now)
            assert cs.best_id == best
            assert cs.partition_ids == tuple(windows)
            assert cs.common_windows == windows
