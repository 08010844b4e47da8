import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpfleo.eventlog import EventLogHeader, RoundRecord
from ltpfleo.privacy_audit import (
    ObservationMatrix,
    build_observation_matrix,
    check_partition_structure,
    differencing_attack,
    direct_min_support,
    ltp_verdict_over_run,
    min_support_leakage,
    observation_records,
    rref,
)

F = Fraction


def matrix_from_rows(rows, partition_of=None, window=(1, 99)):
    n = len(rows[0]) if rows else 0
    return ObservationMatrix(
        satellites=tuple(range(n)),
        rounds=tuple(range(1, len(rows) + 1)),
        rows=[[F(v) for v in row] for row in rows],
        partition_of=partition_of or {},
        window=window,
    )


def make_header(partitions, data_sizes, mode="normalized", ltp_level=2):
    return EventLogHeader(
        config_hash="x",
        seed=0,
        ltp_level=ltp_level,
        alpha=3,
        aggregation_mode=mode,
        partitions=partitions,
        data_sizes=data_sizes,
        model_dim=2,
        loss_kind="quadratic",
    )


def make_round(t, beta, skipped=False, global_after=None):
    return RoundRecord(
        round_index=t,
        t_start_s=float(t),
        t_end_s=float(t) + 1.0,
        skipped=skipped,
        selected=tuple(beta) if not skipped else (),
        beta={} if skipped else {p: F(b) for p, b in beta.items()},
        global_after=global_after,
    )


class TestRref:
    def test_hand_elimination_example(self):
        basis = rref([[F(1), F(1), F(0)], [F(1), F(1), F(1)]])
        assert basis == [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]

    def test_zero_matrix(self):
        assert rref([[F(0), F(0)], [F(0), F(0)]]) == []

    def test_duplicate_rows_do_not_raise_rank(self):
        rows = [[F(2), F(4)], [F(1), F(2)], [F(2), F(4)]]
        assert len(rref(rows)) == 1


class TestBuildObservationMatrix:
    def test_fig1_unit_weight_rows(self):
        # Participants {1,2} then {1,2,3} with unit-style weights: literal
        # mode with singleton partitions gives rows (1,1,0) and (1,1,1).
        header = make_header(
            partitions={0: (0,), 1: (1,), 2: (2,)},
            data_sizes={0: 1, 1: 1, 2: 1},
            mode="literal",
            ltp_level=1,
        )
        records = [
            make_round(1, {0: 1, 1: 1}),
            make_round(2, {0: 1, 1: 1, 2: 1}),
        ]
        m = build_observation_matrix(header, records, (1, 2))
        assert m.rows == [[F(1), F(1), F(0)], [F(1), F(1), F(1)]]

    def test_skipped_round_contributes_no_row(self):
        header = make_header({0: (0,)}, {0: 1}, mode="literal", ltp_level=1)
        records = [make_round(1, {0: 1}), make_round(2, {}, skipped=True), make_round(3, {0: 1})]
        m = build_observation_matrix(header, records, (1, 3))
        assert len(m.rows) == 2
        assert m.rounds == (1, 3)

    def test_partitioned_rows_scale_by_member_data_weight(self):
        header = make_header(
            partitions={0: (1, 2), 1: (3, 4)},
            data_sizes={1: 10, 2: 30, 3: 20, 4: 20},
        )
        records = [make_round(1, {0: F(1, 4), 1: F(3, 4)})]
        m = build_observation_matrix(header, records, (1, 1))
        # Recompute independently from beta and data sizes.
        assert m.rows[0] == [
            F(1, 4) * F(10, 40),
            F(1, 4) * F(30, 40),
            F(3, 4) * F(20, 40),
            F(3, 4) * F(20, 40),
        ]

    def test_colluder_columns_zeroed(self):
        header = make_header(
            partitions={0: (0, 1)}, data_sizes={0: 1, 1: 1}, ltp_level=2
        )
        records = [make_round(1, {0: 1})]
        m = build_observation_matrix(header, records, (1, 1), colluders=[1])
        assert m.rows[0][1] == 0
        assert m.rows[0][0] != 0

    def test_rejects_mixed_dimensions(self):
        header = make_header({0: (0,)}, {0: 1}, ltp_level=1)
        records = [
            make_round(1, {0: 1}, global_after=[0.0, 1.0]),
            make_round(2, {0: 1}, global_after=[0.0, 1.0, 2.0]),
        ]
        with pytest.raises(ValueError, match="dimension"):
            build_observation_matrix(header, records, (1, 2))


class TestMinSupportLeakage:
    def test_fig1_leak_exposes_satellite(self):
        m = matrix_from_rows([[1, 1, 0], [1, 1, 1]], partition_of={0: 0, 1: 1, 2: 2})
        report = min_support_leakage(m, 2)
        assert report.min_support == 1
        assert report.individually_exposed == (2,)
        assert report.verdict == "LTP-FAIL"

    def test_partitioned_rows_pass_at_level_two(self):
        # Blocks {0,1} and {2,3}: every recoverable combination covers a
        # whole block; exhaustive oracle agrees.
        m = matrix_from_rows(
            [[1, 1, 0, 0], [1, 1, 1, 1]],
            partition_of={0: 0, 1: 0, 2: 1, 3: 1},
        )
        report = min_support_leakage(m, 2)
        assert report.min_support == 2
        assert report.individually_exposed == ()
        assert report.passed
        assert direct_min_support(m) == 2

    def test_empty_matrix_passes(self):
        m = matrix_from_rows([[0, 0, 0]])
        report = min_support_leakage(m, 4)
        assert report.rank == 0
        assert report.min_support is None
        assert report.passed

    def test_unequal_weights_within_block_still_collapse(self):
        # Columns proportional to data weights 1:3 across both rounds.
        m = matrix_from_rows(
            [[F(1, 4), F(3, 4), 0, 0], [F(1, 8), F(3, 8), F(1, 2), F(1, 2)]],
            partition_of={0: 0, 1: 0, 2: 1, 3: 1},
        )
        report = min_support_leakage(m, 2)
        assert report.passed
        assert report.min_support == 2

    def test_declared_block_with_broken_proportionality_splits(self):
        # Partition claims {0,1} but the columns are not proportional; blind
        # collapsing would be unsound. Hand oracle: span{(1,2,0),(0,1,0)}
        # contains e0 = (1,2,0) - 2*(0,1,0) and e1, so both are exposed.
        m = matrix_from_rows(
            [[1, 2, 0], [0, 1, 0]],
            partition_of={0: 0, 1: 0, 2: 1},
        )
        report = min_support_leakage(m, 2)
        assert not check_partition_structure(m, {0: 1, 1: 1, 2: 1})
        assert report.min_support == 1
        assert report.individually_exposed == (0, 1)
        assert not report.passed
        assert direct_min_support(m) == 1

    def test_split_without_exposure_matches_direct_oracle(self):
        # Hand oracle: a(1,2,0) + b(1,3,1) has no support-1 member, so the
        # minimum support is 2 even though the declared block is broken.
        m = matrix_from_rows(
            [[1, 2, 0], [1, 3, 1]],
            partition_of={0: 0, 1: 0, 2: 1},
        )
        report = min_support_leakage(m, 2)
        assert report.min_support == 2
        assert report.individually_exposed == ()
        assert direct_min_support(m) == 2

    def test_direct_oracle_matches_blocked_path_random(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n_blocks = int(rng.integers(1, 5))
            block_size = int(rng.integers(1, 4))
            k = n_blocks * block_size
            if k > 12:
                continue
            partition_of = {s: s // block_size for s in range(k)}
            sizes = {s: int(rng.integers(1, 5)) for s in range(k)}
            rows = []
            for _ in range(int(rng.integers(1, 5))):
                betas = {
                    b: F(int(rng.integers(0, 4)), 1)
                    for b in range(n_blocks)
                }
                row = []
                for s in range(k):
                    b = partition_of[s]
                    total = sum(sizes[m] for m in range(k) if partition_of[m] == b)
                    row.append(betas[b] * F(sizes[s], total))
                rows.append(row)
            m = ObservationMatrix(
                satellites=tuple(range(k)),
                rounds=tuple(range(1, len(rows) + 1)),
                rows=rows,
                partition_of=partition_of,
            )
            blocked = min_support_leakage(m, block_size)
            assert blocked.min_support == direct_min_support(m)

    def test_wide_rank_one_window_gets_verdict(self):
        # 70 equal columns form one parallel class of rank 1, so the only
        # recoverable vector covers all 70 satellites.
        rows = [[F(1) for _ in range(70)]]
        m = ObservationMatrix(
            satellites=tuple(range(70)),
            rounds=(1,),
            rows=rows,
            partition_of={s: s for s in range(70)},
        )
        report = min_support_leakage(m, 2)
        assert report.rank == 1
        assert report.min_support == 70
        assert report.individually_exposed == ()
        assert report.verdict == "LTP-PASS(2)"

    def test_row_space_basis_reports_rref(self):
        m = matrix_from_rows([[1, 1, 0], [1, 1, 1]])
        assert rref(m.rows) == [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]


@st.composite
def audit_matrices(draw):
    """Small matrices whose columns are zero, multiples of a few shared
    directions, sums of two of them (so that some sets of classes are
    dependent), or free. Declared partitions are drawn independently, so
    parallel columns cross partitions and partitions need not be
    proportional."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 9))
    entries = st.integers(-3, 3)
    directions = draw(
        st.lists(st.lists(entries, min_size=n_rows, max_size=n_rows), min_size=1, max_size=3)
    )
    scales = st.sampled_from([F(1), F(-1), F(2), F(1, 3), F(-5, 2)])
    cols = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["zero", "parallel", "parallel", "sum", "free"]))
        if kind == "zero":
            cols.append([F(0)] * n_rows)
        elif kind == "parallel":
            d = draw(st.sampled_from(directions))
            scale = draw(scales)
            cols.append([scale * v for v in d])
        elif kind == "sum":
            d, e = draw(st.sampled_from(directions)), draw(st.sampled_from(directions))
            scale = draw(scales)
            cols.append([scale * a + b for a, b in zip(d, e)])
        else:
            cols.append([F(v) for v in draw(st.lists(entries, min_size=n_rows, max_size=n_rows))])
    partition_of = {s: draw(st.integers(0, 3)) for s in range(n_cols)}
    rows = [[cols[j][i] for j in range(n_cols)] for i in range(n_rows)]
    return ObservationMatrix(
        satellites=tuple(range(n_cols)),
        rounds=tuple(range(1, n_rows + 1)),
        rows=rows,
        partition_of=partition_of,
    )


class TestMinSupportProperties:
    @given(audit_matrices(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_satellite_level_oracles(self, m, level):
        report = min_support_leakage(m, level)
        rank = len(rref(m.rows))
        assert report.rank == rank
        assert report.min_support == direct_min_support(m)
        n = len(m.satellites)
        exposed = tuple(
            k for k in range(n)
            if rank and len(rref(m.rows + [[F(int(j == k)) for j in range(n)]])) == rank
        )
        assert report.individually_exposed == exposed
        ok = (report.min_support is None or report.min_support >= level) and not exposed
        assert report.passed == ok


class TestVerdictOverRun:
    def test_single_round_window_recovers_block_sums(self):
        # One row -> the only recoverable combination is the round's own
        # weighted total, i.e. a sum of whole partition blocks (support 4).
        header = make_header(
            partitions={0: (0, 1), 1: (2, 3)},
            data_sizes={k: 1 for k in range(4)},
        )
        records = [make_round(1, {0: F(1, 2), 1: F(1, 2)})]
        reports = ltp_verdict_over_run(header, records, window_rounds=1)
        assert len(reports) == 1
        assert reports[0].rank == 1
        assert reports[0].min_support == 4
        assert reports[0].passed
        matrix = build_observation_matrix(header, records, (1, 1))
        assert check_partition_structure(matrix, header.data_sizes)

    def test_two_round_window_isolates_block_sum(self):
        # Rounds {G0} then {G0,G1}: differencing recovers G1's block sum,
        # support exactly L=2.
        header = make_header(
            partitions={0: (0, 1), 1: (2, 3)},
            data_sizes={k: 1 for k in range(4)},
        )
        records = [
            make_round(1, {0: F(1)}),
            make_round(2, {0: F(1, 2), 1: F(1, 2)}),
        ]
        reports = ltp_verdict_over_run(header, records, window_rounds=2)
        assert reports[0].min_support == 2
        assert reports[0].passed

    def test_full_fairness_windows_pass_quickly(self):
        # 24 partitions of 2, every partition in every round: the shape of a
        # full-fairness run once all partitions have joined. Each window is
        # rank 1 and its only recoverable vector covers all 48 satellites.
        partitions = {p: (2 * p, 2 * p + 1) for p in range(24)}
        header = make_header(partitions, {k: 1 + k % 5 for k in range(48)})
        records = [make_round(t, {p: F(1, 24) for p in range(24)}) for t in range(1, 13)]
        for start in range(1, 9):
            window = [r for r in records if start <= r.round_index < start + 5]
            t0 = time.perf_counter()
            (report,) = ltp_verdict_over_run(header, window, window_rounds=5)
            elapsed = time.perf_counter() - t0
            assert report.rank == 1
            assert report.min_support == 48
            assert report.passed
            assert elapsed < 0.5, f"window {report.window} took {elapsed:.2f} s"

    def test_window_count_sliding(self):
        header = make_header({0: (0, 1)}, {0: 1, 1: 1})
        records = [make_round(t, {0: 1}) for t in range(1, 8)]
        reports = ltp_verdict_over_run(header, records, window_rounds=5)
        assert [r.window for r in reports] == [(1, 5), (2, 6), (3, 7)]

    def test_baseline_differencing_fails(self):
        header = make_header(
            partitions={k: (k,) for k in range(3)},
            data_sizes={k: 1 for k in range(3)},
            mode="baseline",
            ltp_level=2,
        )
        records = [
            make_round(1, {0: F(1, 2), 1: F(1, 2)}),
            make_round(2, {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}),
        ]
        reports = ltp_verdict_over_run(header, records, ltp_level=2, window_rounds=2)
        assert any(not r.passed for r in reports)
        assert any(2 in r.individually_exposed for r in reports)


class TestDifferencingAttack:
    def test_static_models_recovered_exactly(self):
        w1, w2, w3 = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])
        g_before = w1 + w2
        g_after = w1 + w2 + w3
        result = differencing_attack(
            g_before,
            g_after,
            {1: F(1), 2: F(1)},
            {1: F(1), 2: F(1), 3: F(1)},
            true_models={3: w3},
        )
        np.testing.assert_allclose(result.estimate, [2.0, 2.0])
        assert result.individual
        assert result.residual == 0.0

    def test_weighted_baseline_recovery(self):
        rng = np.random.default_rng(5)
        models = {k: rng.normal(size=4) for k in (1, 2, 3)}
        sizes = {1: 10, 2: 20, 3: 30}
        c_before = {k: F(sizes[k], 30) for k in (1, 2)}
        c_after = {k: F(sizes[k], 60) for k in (1, 2, 3)}
        g_before = sum(float(c_before[k]) * models[k] for k in (1, 2))
        g_after = sum(float(c_after[k]) * models[k] for k in (1, 2, 3))
        result = differencing_attack(g_before, g_after, c_before, c_after,
                                     true_models=models)
        np.testing.assert_allclose(result.estimate, models[3], atol=1e-12)
        assert result.residual < 1e-12

    def test_partition_delta_gives_sum_not_individual(self):
        rng = np.random.default_rng(6)
        models = {k: rng.normal(size=3) for k in (0, 1, 2, 3)}
        c_before = {0: F(1, 2), 1: F(1, 2)}
        c_after = {0: F(1, 4), 1: F(1, 4), 2: F(1, 4), 3: F(1, 4)}
        g_before = sum(float(c_before[k]) * models[k] for k in (0, 1))
        g_after = sum(float(c_after[k]) * models[k] for k in range(4))
        result = differencing_attack(
            g_before, g_after, c_before, c_after,
            partition_of={0: 0, 1: 0, 2: 1, 3: 1},
            true_models=models,
        )
        assert not result.individual
        assert result.target_satellites == (2, 3)
        np.testing.assert_allclose(result.estimate, 0.5 * (models[2] + models[3]), atol=1e-12)

    def test_refuses_multi_block_delta(self):
        with pytest.raises(ValueError, match="spans partitions"):
            differencing_attack(
                np.zeros(2),
                np.ones(2),
                {0: F(1)},
                {0: F(1), 1: F(1, 2), 2: F(1, 2)},
                partition_of={0: 0, 1: 1, 2: 2},
            )

    def test_refuses_non_proportional_common_coefficients(self):
        with pytest.raises(ValueError, match="not proportional"):
            differencing_attack(
                np.zeros(2),
                np.ones(2),
                {0: F(1, 2), 1: F(1, 2)},
                {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)},
            )

    def test_drift_residual_equals_measured_drift(self):
        # Models move between rounds; the attack error must equal the
        # drift term measured from ground truth.
        rng = np.random.default_rng(7)
        before = {k: rng.normal(size=3) for k in (1, 2)}
        after = {k: before[k] + 0.01 * rng.normal(size=3) for k in (1, 2)}
        after[3] = rng.normal(size=3)
        c_b = {1: F(1, 2), 2: F(1, 2)}
        c_a = {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}
        g_before = sum(float(c_b[k]) * before[k] for k in (1, 2))
        g_after = sum(float(c_a[k]) * after[k] for k in (1, 2, 3))
        result = differencing_attack(g_before, g_after, c_b, c_a, true_models=after)
        rho = 2.0 / 3.0
        drift = sum(float(c_b[k]) * (after[k] - before[k]) for k in (1, 2))
        expected_residual = np.linalg.norm(rho * drift / float(c_a[3]))
        assert result.residual == pytest.approx(expected_residual, abs=1e-12)

    def test_leave_delta(self):
        rng = np.random.default_rng(8)
        models = {k: rng.normal(size=3) for k in (1, 2, 3)}
        c_before = {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}
        c_after = {1: F(1, 2), 2: F(1, 2)}
        g_before = sum(float(c_before[k]) * models[k] for k in (1, 2, 3))
        g_after = sum(float(c_after[k]) * models[k] for k in (1, 2))
        result = differencing_attack(g_before, g_after, c_before, c_after,
                                     true_models=models)
        np.testing.assert_allclose(result.estimate, models[3], atol=1e-12)


class TestObservationRecords:
    def test_weight_zero_partitions_excluded(self):
        header = make_header({0: (0,), 1: (1,)}, {0: 1, 1: 1}, ltp_level=1)
        records = [make_round(1, {0: 1, 1: 0})]
        (obs,) = observation_records(header, records)
        assert 1 not in obs.coefficients

    def test_structure_check_passes_on_proper_rows(self):
        m = matrix_from_rows(
            [[F(1, 4), F(3, 4), 0, 0], [F(1, 8), F(3, 8), F(1, 2), F(1, 2)]],
            partition_of={0: 0, 1: 0, 2: 1, 3: 1},
        )
        assert check_partition_structure(m, {0: 1, 1: 3, 2: 5, 3: 5})
