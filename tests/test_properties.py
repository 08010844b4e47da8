"""Property tests of the exact-arithmetic invariants."""
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltpfleo.aggregation import compute_weights
from ltpfleo.partitioning import intersect_intervals
from ltpfleo.privacy_audit import rref
from ltpfleo.scheduling import staleness_filter

weights_inputs = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 500)), min_size=1, max_size=8
)


class TestWeightProperties:
    @given(weights_inputs)
    def test_beta_is_exact_distribution(self, rows):
        pids = list(range(len(rows)))
        freqs = {p: f for p, (f, _) in zip(pids, rows)}
        sizes = {p: n for p, (_, n) in zip(pids, rows)}
        w = compute_weights(pids, freqs, sizes, 10)
        assert sum(w.beta.values()) == 1
        assert all(b >= 0 for b in w.beta.values())

    @given(weights_inputs, st.integers(2, 1000))
    def test_scaling_equivariance(self, rows, scale):
        pids = list(range(len(rows)))
        freqs = {p: f for p, (f, _) in zip(pids, rows)}
        sizes = {p: n for p, (_, n) in zip(pids, rows)}
        a = compute_weights(pids, freqs, sizes, 4)
        b = compute_weights(pids, freqs, {p: scale * n for p, n in sizes.items()}, 4)
        assert a.beta == b.beta


class TestStalenessBandProperty:
    @given(
        st.integers(2, 40),
        st.data(),
    )
    def test_membership_matches_band(self, t, data):
        alpha = data.draw(st.integers(1, t - 1))
        freqs = {p: data.draw(st.integers(0, t - 1)) for p in range(6)}
        out = staleness_filter(list(range(6)), freqs, t, alpha)
        for p in range(6):
            assert (p in out) == (t - alpha <= freqs[p] <= t - 1)


fraction_rows = st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


class TestRrefProperties:
    @given(fraction_rows)
    @settings(max_examples=60)
    def test_idempotent(self, rows):
        basis = rref(rows)
        assert rref(basis) == basis

    @given(fraction_rows)
    @settings(max_examples=60)
    def test_duplicating_rows_preserves_span(self, rows):
        assert rref(rows + rows) == rref(rows)

    @given(fraction_rows)
    @settings(max_examples=60)
    def test_rank_bounded(self, rows):
        assert len(rref(rows)) <= min(len(rows), 4)

    @given(fraction_rows)
    @settings(max_examples=40)
    @example(rows=[[Fraction(0)] * 4, [Fraction(1), 0, 0, 0], [Fraction(1), 0, 0, Fraction(1, 2**49)]])
    def test_float_agreement_on_rank(self, rows):
        # Checked against an independent exact rank: a float rank (e.g.
        # numpy's SVD threshold) drops the 2**-49 entry of the pinned example.
        assert len(rref(rows)) == _integer_rank(rows)


def _integer_rank(rows):
    """Rank by fraction-free elimination over the integers, after clearing
    each row's denominators."""
    work = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row))
        work.append([int(v * scale) for v in row])
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank]
        for r in range(rank + 1, len(work)):
            work[r] = [p[col] * a - work[r][col] * b for a, b in zip(work[r], p)]
        rank += 1
    return rank


class TestIntervalProperties:
    spans = st.lists(
        st.tuples(st.integers(0, 100), st.integers(1, 30)), min_size=0, max_size=6
    )

    @staticmethod
    def _normalize(raw):
        out = []
        t = 0
        for gap, width in raw:
            start = t + gap
            out.append((float(start), float(start + width)))
            t = start + width
        return out

    @given(spans, spans)
    def test_commutative_and_contained(self, a_raw, b_raw):
        a, b = self._normalize(a_raw), self._normalize(b_raw)
        ab = intersect_intervals(a, b)
        assert ab == intersect_intervals(b, a)
        for lo, hi in ab:
            assert hi > lo
            assert any(x0 <= lo and hi <= x1 for x0, x1 in a)
            assert any(x0 <= lo and hi <= x1 for x0, x1 in b)
