"""Exact-arithmetic audit of what the server can recover across rounds.

Every non-skipped round hands the honest-but-curious server one linear
equation over the (quasi-static) client models: the global update with the
coefficients the server itself computed. The auditor accumulates those rows
over a sliding window, takes the exact rational row space, and reports the
smallest client support of any recoverable combination. A minimum support
of at least the partition size certifies long-term privacy; a recoverable
unit vector is an individual exposure.

The support search runs over parallel classes. Proportional columns are
zero or nonzero together in every recoverable vector, so each support is a
union of whole classes, weighted by their satellite counts. In a window of
rank r the largest zero sets are the hyperplanes of the class matroid, and
each is spanned by r - 1 independent classes. The search therefore makes
C(classes, r - 1) exact solves and is exponential only in the window's rank
(at most its number of rounds). Every window gets an exact verdict. Finding
a minimum-weight codeword is NP-hard in general (Vardy 1997), so no
polynomial bound in the rank is to be expected.

No floating point is used anywhere in the span tests: float rank decisions
can both fabricate and hide leaks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .eventlog import EventLogHeader, RoundRecord


# ---------------------------------------------------------------------------
# Exact linear algebra

def rref(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Reduced row-echelon form over exact rationals; returns nonzero rows."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return []
    n_cols = len(m[0])
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = m[pivot_row][col]
        m[pivot_row] = [v / inv for v in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [row for row in m if any(v != 0 for v in row)]


def _integerize(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row to primitive integers (rank-preserving)."""
    out = []
    for row in rows:
        lcm = 1
        for v in row:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        ints = [int(v * lcm) for v in row]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        out.append([v // g for v in ints] if g > 1 else ints)
    return out


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _normal(vectors: Sequence[Sequence[int]], dim: int) -> list[int]:
    """Generalised cross product of dim - 1 integer vectors in Z^dim.

    It is orthogonal to every one of them, and zero iff they are dependent.
    """
    return [(-1) ** i * _det([v[:i] + v[i + 1:] for v in vectors]) for i in range(dim)]


# ---------------------------------------------------------------------------
# Observation model

@dataclass(frozen=True)
class ObservationRecord:
    """One round's linear view: exact coefficient per participating satellite."""

    round_index: int
    coefficients: dict[int, Fraction]


@dataclass
class ObservationMatrix:
    """Rows = rounds in the audit window, columns = satellites."""

    satellites: tuple[int, ...]
    rounds: tuple[int, ...]
    rows: list[list[Fraction]]
    partition_of: dict[int, int] = field(default_factory=dict)
    window: tuple[int, int] = (0, 0)

    def column(self, satellite_id: int) -> list[Fraction]:
        j = self.satellites.index(satellite_id)
        return [row[j] for row in self.rows]


def observation_records(
    header: EventLogHeader, records: Sequence[RoundRecord]
) -> list[ObservationRecord]:
    """Recompute each round's satellite coefficients from the logged weights.

    In the default data-weighted aggregation a member's coefficient is
    beta_G * |D_k| / |D_G|; the literal-sum ablation uses beta_G directly.
    Skipped rounds contribute nothing.
    """
    literal = header.aggregation_mode == "literal"
    out = []
    for rec in records:
        if rec.skipped:
            continue
        coeffs: dict[int, Fraction] = {}
        for pid, beta in rec.beta.items():
            if beta == 0:
                continue
            members = header.partitions[pid]
            total = sum(header.data_sizes[k] for k in members)
            for k in members:
                if literal:
                    coeffs[k] = beta
                else:
                    coeffs[k] = beta * Fraction(header.data_sizes[k], total)
        out.append(ObservationRecord(round_index=rec.round_index, coefficients=coeffs))
    return out


def build_observation_matrix(
    header: EventLogHeader,
    records: Sequence[RoundRecord],
    window: tuple[int, int],
    colluders: Sequence[int] = (),
) -> ObservationMatrix:
    """Assemble the server's accumulated view over a round interval.

    Colluding satellites' columns are zeroed: their models are known to the
    server, so their contributions can be subtracted exactly.
    """
    lo, hi = window
    in_window = [r for r in records if lo <= r.round_index <= hi]
    dims = {len(r.global_after) for r in in_window if r.global_after is not None}
    if len(dims) > 1:
        raise ValueError(f"window {window} mixes model dimensions {sorted(dims)}")
    satellites = tuple(header.satellites)
    colluders = set(colluders)
    obs = observation_records(header, in_window)
    rows = []
    rounds = []
    for rec in obs:
        row = [
            Fraction(0) if sat in colluders else rec.coefficients.get(sat, Fraction(0))
            for sat in satellites
        ]
        rows.append(row)
        rounds.append(rec.round_index)
    return ObservationMatrix(
        satellites=satellites,
        rounds=tuple(rounds),
        rows=rows,
        partition_of=header.partition_of(),
        window=window,
    )


# ---------------------------------------------------------------------------
# Leakage analysis

@dataclass(frozen=True)
class LeakageReport:
    """Verdict for one audit window."""

    window: tuple[int, int]
    ltp_level: int
    rank: int
    min_support: int | None  # None: nothing recoverable at all
    individually_exposed: tuple[int, ...]
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict.startswith("LTP-PASS")

    def to_jsonable(self) -> dict:
        return {
            "window": list(self.window),
            "ltp_level": self.ltp_level,
            "rank": self.rank,
            "min_support": self.min_support,
            "individually_exposed": list(self.individually_exposed),
            "verdict": self.verdict,
        }


def _parallel_classes(
    basis: Sequence[Sequence[Fraction]], satellites: Sequence[int]
) -> list[tuple[list[int], tuple[int, ...]]]:
    """Nonzero columns grouped by direction: (primitive integer direction,
    satellites), in order of first appearance. Zero columns are dropped."""
    classes: dict[tuple[Fraction, ...], list[int]] = {}
    for j, sat in enumerate(satellites):
        col = [row[j] for row in basis]
        lead = next((v for v in col if v != 0), None)
        if lead is not None:
            classes.setdefault(tuple(v / lead for v in col), []).append(sat)
    return [(_integerize([key])[0], tuple(sats)) for key, sats in classes.items()]


def min_support_leakage(matrix: ObservationMatrix, ltp_level: int) -> LeakageReport:
    """Exact leakage verdict for one window.

    Columns are grouped into parallel classes across the whole matrix. For
    every r - 1 independent classes (r the rank) the normal n of their span
    gives the recoverable vector n·B, whose support is every class off that
    hyperplane. The smallest such support is the exact minimum support,
    found with C(classes, r - 1) exact solves; a rank-1 window needs one.
    A satellite is exposed iff it is a class of its own and some hyperplane
    holds every other class, i.e. removing it drops the rank. The verdict
    passes when every recoverable combination touches at least
    ``ltp_level`` satellites and no unit vector is recoverable.
    """
    basis = rref(matrix.rows)
    rank = len(basis)
    classes = _parallel_classes(basis, matrix.satellites)
    directions = [d for d, _ in classes]
    min_support = None
    lone: set[int] = set()  # classes that are alone off some hyperplane
    for spanning in combinations(directions, rank - 1) if rank else ():
        normal = _normal(spanning, rank)
        if not any(normal):
            continue  # dependent classes span no hyperplane
        support = [
            c for c, d in enumerate(directions) if sum(a * b for a, b in zip(normal, d))
        ]
        weight = sum(len(classes[c][1]) for c in support)
        if min_support is None or weight < min_support:
            min_support = weight
        if len(support) == 1:
            lone.add(support[0])
    exposed = sorted(classes[c][1][0] for c in lone if len(classes[c][1]) == 1)

    ok = (min_support is None or min_support >= ltp_level) and not exposed
    return LeakageReport(
        window=matrix.window,
        ltp_level=ltp_level,
        rank=rank,
        min_support=min_support,
        individually_exposed=tuple(exposed),
        verdict=f"LTP-PASS({ltp_level})" if ok else "LTP-FAIL",
    )


def direct_min_support(matrix: ObservationMatrix) -> int | None:
    """Satellite-level brute force, kept as an independent test oracle.

    A set of columns carries a nonzero recoverable vector iff deleting those
    columns drops the rank. Sets of nonzero columns are tried in ascending
    size, each with its own ``rref``; exponential in the satellite count.
    """
    basis = rref(matrix.rows)
    rank = len(basis)
    if rank == 0:
        return None
    active = [j for j in range(len(matrix.satellites)) if any(row[j] for row in basis)]
    for size in range(1, len(active)):
        for cut in combinations(active, size):
            keep = [j for j in active if j not in cut]
            if len(rref([[row[j] for j in keep] for row in basis])) < rank:
                return size
    return len(active)  # deleting every nonzero column leaves rank 0


def check_partition_structure(matrix: ObservationMatrix, data_sizes: Mapping[int, int]) -> bool:
    """Verify the structural privacy argument on actual rows.

    Within each partition, every satellite's column must be the partition's
    round pattern scaled by that satellite's data size: then any recoverable
    vector restricted to the partition is a multiple of its data-weight
    vector and support is a union of whole partitions.
    """
    groups: dict[int, list[int]] = {}
    for sat in matrix.satellites:
        pid = matrix.partition_of.get(sat)
        if pid is None:
            continue
        groups.setdefault(pid, []).append(sat)
    for sats in groups.values():
        cols = {s: matrix.column(s) for s in sats}
        present = [s for s in sats if any(v != 0 for v in cols[s])]
        if len(present) < 2:
            continue
        ref = present[0]
        for s in present[1:]:
            # col_s * |D_ref| == col_ref * |D_s| componentwise
            if any(
                cols[s][r] * data_sizes[ref] != cols[ref][r] * data_sizes[s]
                for r in range(len(matrix.rows))
            ):
                return False
    return True


def ltp_verdict_over_run(
    header: EventLogHeader,
    records: Sequence[RoundRecord],
    ltp_level: int | None = None,
    window_rounds: int = 5,
    *,
    colluders: Sequence[int] = (),
) -> list[LeakageReport]:
    """Audit every sliding window of consecutive rounds; pass iff all pass."""
    if window_rounds < 1:
        raise ValueError("window_rounds must be >= 1")
    level = header.ltp_level if ltp_level is None else ltp_level
    if not records:
        return []
    last = max(r.round_index for r in records)
    first = min(r.round_index for r in records)
    reports = []
    for start in range(first, max(first, last - window_rounds + 1) + 1):
        window = (start, start + window_rounds - 1)
        matrix = build_observation_matrix(header, records, window, colluders=colluders)
        reports.append(min_support_leakage(matrix, level))
    return reports


# ---------------------------------------------------------------------------
# Differencing attack

@dataclass(frozen=True)
class AttackResult:
    estimate: np.ndarray
    target_satellites: tuple[int, ...]
    target_weights: dict[int, Fraction]
    individual: bool
    residual: float | None

    @property
    def flagged(self) -> str:
        return "individual" if self.individual else "not individual"


def differencing_attack(
    global_before: np.ndarray,
    global_after: np.ndarray,
    coeff_before: Mapping[int, Fraction],
    coeff_after: Mapping[int, Fraction],
    *,
    partition_of: Mapping[int, int] | None = None,
    true_models: Mapping[int, np.ndarray] | None = None,
) -> AttackResult:
    """Cross-round differencing: isolate the contribution of the one block
    whose participation changed between two consecutive rounds.

    Requires the common participants' coefficients to be proportional across
    the two rounds (otherwise their terms cannot be cancelled exactly) and
    the participation delta to be a single satellite or a single whole
    partition. When the delta is a full partition the estimate is only the
    partition's weighted sum, flagged not-individual. Against quasi-static
    models the estimate is exact; between-round drift shows up as residual
    when ground-truth models are supplied.
    """
    w_before = np.asarray(global_before, dtype=float)
    w_after = np.asarray(global_after, dtype=float)
    sup_before = {k for k, c in coeff_before.items() if c != 0}
    sup_after = {k for k, c in coeff_after.items() if c != 0}
    added = sup_after - sup_before
    removed = sup_before - sup_after
    if added and removed:
        raise ValueError("participation delta must be one-sided (pure join or pure leave)")
    if not added and not removed:
        raise ValueError("participation sets are identical; nothing to difference")
    delta = added or removed

    if partition_of is not None:
        pids = {partition_of[k] for k in delta}
        if len(pids) != 1:
            raise ValueError(
                f"participation delta spans partitions {sorted(pids)}; the difference "
                "would be a sum over blocks, not an individual block"
            )
    elif len(delta) > 1:
        raise ValueError(
            "multi-satellite delta without partition information; cannot certify a single block"
        )

    common = sup_before & sup_after
    if common:
        ratios = {coeff_after[k] / coeff_before[k] for k in common}
        if len(ratios) != 1:
            raise ValueError(
                "common participants' coefficients are not proportional between rounds; "
                "their contributions cannot be cancelled"
            )
        rho = ratios.pop()
    else:
        rho = Fraction(0)

    if added:
        total = sum(coeff_after[k] for k in delta)
        estimate = (w_after - float(rho) * w_before) / float(total)
        weights = {k: coeff_after[k] / total for k in delta}
    else:
        if rho == 0:
            raise ValueError("leave-delta with no common participants is degenerate")
        total = sum(coeff_before[k] for k in delta)
        estimate = (w_before - w_after / float(rho)) / float(total)
        weights = {k: coeff_before[k] / total for k in delta}

    residual = None
    if true_models is not None:
        target = np.zeros_like(estimate)
        for k in sorted(delta):
            target = target + float(weights[k]) * np.asarray(true_models[k], dtype=float)
        residual = float(np.linalg.norm(estimate - target))

    return AttackResult(
        estimate=estimate,
        target_satellites=tuple(sorted(delta)),
        target_weights=weights,
        individual=len(delta) == 1,
        residual=residual,
    )
