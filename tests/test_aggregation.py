from fractions import Fraction

import numpy as np
import pytest

from ltpfleo.aggregation import (
    CacheMissError,
    ModelCache,
    aggregate,
    compute_weights,
    member_weights,
)


class TestComputeWeights:
    def test_worked_example_equal_sizes(self):
        # Hand arithmetic: f=(9,7), equal sizes -> beta = (9/16, 7/16).
        w = compute_weights([3, 4], {3: 9, 4: 7}, {3: 100, 4: 100}, 10)
        assert w.beta[3] == Fraction(9, 16)
        assert w.beta[4] == Fraction(7, 16)
        assert w.beta_float(3) == 0.5625
        assert w.beta_float(4) == 0.4375

    def test_single_partition_gets_everything(self):
        w = compute_weights([2], {2: 4}, {2: 37}, 9)
        assert w.beta[2] == 1

    def test_equal_frequency_reduces_to_data_share(self):
        # Independent recomputation: equal f, sizes 100/300 -> (1/4, 3/4).
        w = compute_weights([0, 1], {0: 5, 1: 5}, {0: 100, 1: 300}, 6)
        assert w.beta[0] == Fraction(1, 4)
        assert w.beta[1] == Fraction(3, 4)

    def test_round_one_fallback_to_data_sizes(self):
        w = compute_weights([0, 1], {0: 0, 1: 0}, {0: 10, 1: 30}, 1)
        assert w.beta[0] == Fraction(1, 4)
        assert w.beta[1] == Fraction(3, 4)

    def test_zero_frequency_partition_is_starved(self):
        w = compute_weights([0, 1], {0: 0, 1: 3}, {0: 10, 1: 10}, 4)
        assert w.weight_starved == (0,)
        assert w.beta[0] == 0
        assert w.beta[1] == 1

    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError, match="empty"):
            compute_weights([], {}, {}, 1)

    def test_rejects_zero_total_data(self):
        with pytest.raises(ValueError, match="zero"):
            compute_weights([0], {0: 1}, {0: 0}, 2)

    def test_scaling_equivariance_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pids = list(range(int(rng.integers(1, 6))))
            freqs = {p: int(rng.integers(0, 20)) for p in pids}
            sizes = {p: int(rng.integers(1, 500)) for p in pids}
            scale = int(rng.integers(2, 100))
            a = compute_weights(pids, freqs, sizes, 21)
            b = compute_weights(pids, freqs, {p: scale * n for p, n in sizes.items()}, 21)
            assert a.beta == b.beta
            for p in pids:
                assert a.beta_float(p) == b.beta_float(p)  # bit-identical floats

    def test_uniform_when_everything_equal(self):
        pids = [0, 1, 2, 3]
        w = compute_weights(pids, {p: 7 for p in pids}, {p: 50 for p in pids}, 9)
        for p in pids:
            assert w.beta[p] == Fraction(1, 4)

    def test_beta_sums_to_one_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pids = list(range(int(rng.integers(1, 7))))
            freqs = {p: int(rng.integers(0, 30)) for p in pids}
            sizes = {p: int(rng.integers(1, 100)) for p in pids}
            w = compute_weights(pids, freqs, sizes, 31)
            assert sum(w.beta.values()) == 1
            assert abs(sum(w.beta_float(p) for p in pids) - 1.0) < 1e-12


def _mv(values):
    return np.asarray(values, dtype=float)


class TestAggregate:
    def test_single_member_identity(self):
        w = compute_weights([0], {0: 1}, {0: 5}, 2)
        out = aggregate(w, {0: {7: _mv([1.0, -2.0, 3.0])}}, {7: 5}, {0: (7,)})
        np.testing.assert_array_equal(out, [1.0, -2.0, 3.0])

    def test_midpoint_of_two_partitions(self):
        w = compute_weights([0, 1], {0: 3, 1: 3}, {0: 10, 1: 10}, 5)
        out = aggregate(
            w,
            {0: {0: _mv([1.0, 0.0])}, 1: {1: _mv([0.0, 1.0])}},
            {0: 10, 1: 10},
            {0: (0,), 1: (1,)},
        )
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            members = {0: (0, 1), 1: (2, 3), 2: (4, 5)}
            sizes = {k: int(rng.integers(1, 40)) for k in range(6)}
            psizes = {p: sum(sizes[k] for k in ms) for p, ms in members.items()}
            freqs = {p: int(rng.integers(1, 9)) for p in members}
            models = {p: {k: _mv(rng.normal(size=4)) for k in ms}
                      for p, ms in members.items()}
            w = compute_weights(list(members), freqs, psizes, 3)
            out = aggregate(w, models, sizes, members)
            # Naive recomputation, scalar loops only.
            expected = np.zeros(4)
            for p, ms in members.items():
                inner = np.zeros(4)
                for k in ms:
                    inner += (sizes[k] / psizes[p]) * models[p][k]
                expected += float(w.beta[p]) * inner
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_convex_combination_norm_bound(self):
        rng = np.random.default_rng(9)
        members = {0: (0, 1), 1: (2, 3)}
        sizes = {k: int(rng.integers(1, 10)) for k in range(4)}
        psizes = {p: sum(sizes[k] for k in ms) for p, ms in members.items()}
        models = {p: {k: _mv(rng.normal(size=6)) for k in ms}
                  for p, ms in members.items()}
        w = compute_weights(list(members), {0: 2, 1: 5}, psizes, 8)
        out = aggregate(w, models, sizes, members)
        max_member = max(np.linalg.norm(m) for d in models.values() for m in d.values())
        assert np.linalg.norm(out) <= max_member + 1e-12

    def test_literal_mode_applies_raw_inner_sum(self):
        w = compute_weights([0], {0: 1}, {0: 20}, 2)
        models = {0: {0: _mv([1.0, 1.0]), 1: _mv([1.0, 1.0])}}
        out = aggregate(w, models, {0: 10, 1: 10}, {0: (0, 1)}, mode="literal")
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_rejects_missing_member(self):
        w = compute_weights([0], {0: 1}, {0: 10}, 2)
        with pytest.raises(ValueError, match="all-or-none"):
            aggregate(w, {0: {0: _mv([1.0])}}, {0: 5, 1: 5}, {0: (0, 1)})

    def test_rejects_dimension_mismatch(self):
        w = compute_weights([0], {0: 1}, {0: 10}, 2)
        models = {0: {0: _mv([1.0, 2.0]), 1: _mv([1.0])}}
        with pytest.raises(ValueError, match="dimension"):
            aggregate(w, models, {0: 5, 1: 5}, {0: (0, 1)})

    def test_rejects_overflow_to_inf(self):
        # Two finite members whose raw sum overflows in literal mode.
        w = compute_weights([0], {0: 1}, {0: 10}, 2)
        models = {0: {0: _mv([1e308]), 1: _mv([1e308])}}
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            aggregate(w, models, {0: 5, 1: 5}, {0: (0, 1)}, mode="literal")


class TestMemberWeights:
    def test_shares(self):
        mw = member_weights([0, 1], {0: 1, 1: 3})
        assert mw[0] == Fraction(1, 4)
        assert mw[1] == Fraction(3, 4)


class TestModelCache:
    def test_visible_age_zero(self):
        cache = ModelCache()
        models, age = cache.fetch_or_cache(0, True, 3, {1: _mv([1.0])})
        assert age == 0
        assert 0 in cache

    def test_cached_age_is_round_delta(self):
        cache = ModelCache()
        cache.fetch_or_cache(0, True, 4, {1: _mv([2.0])})
        models, age = cache.fetch_or_cache(0, False, 10)
        assert age == 6
        np.testing.assert_array_equal(models[1], [2.0])

    def test_miss_raises(self):
        cache = ModelCache()
        with pytest.raises(CacheMissError):
            cache.fetch_or_cache(5, False, 1)

    def test_cache_keeps_the_arrays_not_the_callers_dict(self):
        cache = ModelCache()
        model = _mv([1.0, 1.0])
        fresh = {1: model}
        cache.fetch_or_cache(0, True, 1, fresh)
        fresh[1] = _mv([99.0, 99.0])
        models, _ = cache.fetch_or_cache(0, False, 2)
        assert models[1] is model
