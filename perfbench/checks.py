"""Correctness checks computed apart from the program.

Each check reads the program's outputs (the event log as written on disk,
the contact schedule, the audit reports, analysis.json) and compares them
with quantities the benchmark computes itself: its own circular-orbit
elevation, exact rational weights and row spaces, and a closed-form least
squares optimum. A check returns a list of error strings; empty means it
passed. None of them compares against a stored copy of earlier output.
"""
from __future__ import annotations

import json
import math
from itertools import combinations
from fractions import Fraction

import numpy as np

# Model constants of the two-body, spherical-Earth visibility model.
R_EARTH_KM = 6371.0
MU_KM3_S2 = 398600.4418
EARTH_RATE_RAD_S = 7.292115e-5
# Refined window endpoints lie within half the 0.1 s bisection tolerance of
# the true crossing, so this far outside an endpoint the satellite is below
# the mask.
OUTSIDE_S = 0.25


# ---------------------------------------------------------------------------
# Event log, parsed without the program's reader


def load_log(path) -> tuple[dict, list[dict]]:
    header, rounds = None, []
    with open(path) as fh:
        for line in fh:
            payload = json.loads(line)
            if payload["type"] == "header":
                header = payload
                header["partitions"] = {int(p): m for p, m in payload["partitions"].items()}
                header["data_sizes"] = {int(s): n for s, n in payload["data_sizes"].items()}
                continue
            payload["beta"] = {int(p): Fraction(b) for p, b in payload["beta"].items()}
            payload["frequencies"] = {int(p): f for p, f in payload["frequencies"].items()}
            payload["cached"] = {int(p): a for p, a in payload["cached"].items()}
            models = payload["member_models"]
            payload["member_models"] = (
                None if models is None else {int(s): np.asarray(v) for s, v in models.items()}
            )
            rounds.append(payload)
    rounds.sort(key=lambda r: r["round"])
    return header, rounds


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals


def rref(rows: list[list[Fraction]], pivot_cols: int | None = None):
    """Reduced row-echelon basis of the row space and its pivot columns.

    Pivots are taken among the first ``pivot_cols`` columns (all by default);
    columns after them are carried along, which records how each basis row
    combines the input rows when an identity block is appended.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    if not m:
        return [], pivots
    width = len(m[0]) if pivot_cols is None else pivot_cols
    r = 0
    for col in range(width):
        pick = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        lead = m[r][col]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[0])


# ---------------------------------------------------------------------------
# Visibility


def elevation_deg(cfg, sat: int, t: np.ndarray) -> np.ndarray:
    """Elevation of one Walker-Delta satellite above the station, in degrees."""
    c, gs = cfg.constellation, cfg.station
    planes, per_plane = c.num_orbits, c.sats_per_orbit
    plane, slot = divmod(sat, per_plane)
    a = R_EARTH_KM + c.altitude_km
    raan = math.radians(c.raan_spread_deg) / planes * plane
    inc = math.radians(c.inclination_deg)
    u = (
        2 * math.pi * slot / per_plane
        + 2 * math.pi * c.phasing * plane / (planes * per_plane)
        + math.sqrt(MU_KM3_S2 / a**3) * t
    )
    x = a * (math.cos(raan) * np.cos(u) - math.sin(raan) * math.cos(inc) * np.sin(u))
    y = a * (math.sin(raan) * np.cos(u) + math.cos(raan) * math.cos(inc) * np.sin(u))
    z = a * math.sin(inc) * np.sin(u)
    th = EARTH_RATE_RAD_S * t
    pos = np.stack([np.cos(th) * x + np.sin(th) * y, -np.sin(th) * x + np.cos(th) * y, z], -1)
    lat, lon = math.radians(gs.latitude_deg), math.radians(gs.longitude_deg)
    up = np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])
    rel = pos - R_EARTH_KM * up
    return np.degrees(np.arcsin(rel @ up / np.linalg.norm(rel, axis=-1)))


def check_visibility(cfg, schedule) -> list[str]:
    errors = []
    mask = cfg.station.min_elevation_deg
    horizon = cfg.horizon_s
    sats = sorted(schedule.windows)
    if sats != list(range(cfg.constellation.num_satellites)):
        errors.append(f"schedule covers satellites {sats[:5]}..., not the whole constellation")
    if not any(schedule.windows[s] for s in sats):
        errors.append("no visibility window at all")
    for sat in sats:
        wins = schedule.windows[sat]
        if not wins:
            continue
        start = np.array([w.start_s for w in wins])
        end = np.array([w.end_s for w in wins])
        if np.any(end <= start) or np.any(start[1:] <= end[:-1]):
            errors.append(f"satellite {sat}: windows not sorted and disjoint")
        mid = elevation_deg(cfg, sat, (start + end) / 2)
        for i in np.flatnonzero(mid < mask):
            errors.append(f"satellite {sat} window {i}: {mid[i]:.4f} deg at midpoint")
        inner_start = start > OUTSIDE_S
        before = elevation_deg(cfg, sat, np.where(inner_start, start - OUTSIDE_S, 0.0))
        for i in np.flatnonzero(inner_start & (before >= mask)):
            errors.append(f"satellite {sat} window {i}: above mask before its start")
        inner_end = end < horizon - OUTSIDE_S
        after = elevation_deg(cfg, sat, np.where(inner_end, end + OUTSIDE_S, 0.0))
        for i in np.flatnonzero(inner_end & (after >= mask)):
            errors.append(f"satellite {sat} window {i}: above mask after its end")
    return errors[:20]


# ---------------------------------------------------------------------------
# Rounds of a partitioned run


def effective(rounds: list[dict]) -> list[dict]:
    return [r for r in rounds if not r["skipped"]]


def check_weights(header: dict, rounds: list[dict]) -> list[str]:
    """beta sums to 1 and equals the fairness formula from the logged inputs:
    gamma_G = f_G / sum f * |D_G| / |D_sel|, beta = gamma / sum gamma."""
    errors = []
    sizes = {
        pid: sum(header["data_sizes"][k] for k in members)
        for pid, members in header["partitions"].items()
    }
    for r in effective(rounds):
        beta = r["beta"]
        if sum(beta.values()) != 1:
            errors.append(f"round {r['round']}: beta sums to {sum(beta.values())}")
        chosen = sorted(beta)
        total_size = sum(sizes[p] for p in chosen)
        total_f = sum(r["frequencies"][p] for p in chosen)
        gamma = {
            p: Fraction(sizes[p], total_size)
            * (Fraction(r["frequencies"][p], total_f) if total_f else 1)
            for p in chosen
        }
        g_total = sum(gamma.values())
        expected = {p: g / g_total for p, g in gamma.items()}
        if expected != beta:
            errors.append(f"round {r['round']}: beta differs from the fairness formula")
        if set(chosen) != set(r["fresh"]) | set(r["cached"]):
            errors.append(f"round {r['round']}: weighted partitions are not fresh + cached")
    return errors[:20]


def check_staleness(header: dict, rounds: list[dict]) -> list[str]:
    """Logged frequencies equal a recount of earlier selections, and every
    selected partition sits in the band t - alpha <= f <= t - 1."""
    errors = []
    pids = sorted(header["partitions"])
    counts = {p: 0 for p in pids}
    alpha = header["alpha"]
    for r in rounds:
        t = r["round"]
        if r["frequencies"] != counts:
            errors.append(f"round {t}: logged frequencies differ from the recount")
        tol = t if alpha == "t" else alpha
        for p in r["selected"]:
            if not t - tol <= counts[p] <= t - 1:
                errors.append(f"round {t}: partition {p} selected outside the staleness band")
        if alpha == "t" and sorted(r["selected"]) != pids:
            errors.append(f"round {t}: full fairness must admit every partition")
        if alpha != "t" and not set(r["selected"]) <= set(r["candidates"]):
            errors.append(f"round {t}: a selected partition was not a candidate")
        for p in r["selected"]:
            counts[p] += 1
    return errors[:20]


def check_global_models(header: dict, rounds: list[dict]) -> list[str]:
    """global_after is the data-weighted sum of the logged member models."""
    errors = []
    literal = header["aggregation_mode"] == "literal"
    sizes = header["data_sizes"]
    for r in effective(rounds):
        models = r["member_models"]
        expected = 0.0
        for pid, beta in r["beta"].items():
            members = header["partitions"][pid]
            n_g = sum(sizes[k] for k in members)
            for k in members:
                if k not in models:
                    errors.append(f"round {r['round']}: member model of satellite {k} missing")
                    continue
                share = 1.0 if literal else sizes[k] / n_g
                expected = expected + float(beta) * share * models[k]
        got = np.asarray(r["global_after"])
        scale = max(1.0, float(np.max(np.abs(got))))
        if not np.allclose(got, expected, rtol=0.0, atol=1e-12 * scale):
            errors.append(
                f"round {r['round']}: global_after off the weighted member sum by "
                f"{float(np.max(np.abs(got - expected))):.3e}"
            )
    return errors[:20]


def pooled_least_squares(train, reg: float) -> tuple[np.ndarray, float]:
    """Minimiser and minimum of sum_k |D_k|/N (mean (x w - y)^2 / 2) + reg |w|^2 / 2."""
    X = np.vstack([d.features for d in train])
    y = np.concatenate([d.labels for d in train]).astype(float)
    n, dim = X.shape
    w = np.linalg.solve(X.T @ X / n + reg * np.eye(dim), X.T @ y / n)
    return w, quadratic_loss(w, X, y, reg)


def quadratic_loss(w, X, y, reg: float) -> float:
    res = X @ w - y
    return float(0.5 * np.mean(res * res) + 0.5 * reg * (w @ w))


def check_losses(rounds: list[dict], loss_kind: str, train, reg: float) -> tuple[list[str], float | None]:
    """Final loss below the first; for quadratics, every logged loss equals
    the benchmark's loss of global_after and never drops below the optimum."""
    errors = []
    eff = effective(rounds)
    if not eff:
        return ["no aggregated round"], None
    if not eff[-1]["global_loss"] < eff[0]["global_loss"]:
        errors.append(
            f"final loss {eff[-1]['global_loss']:.6g} not below initial {eff[0]['global_loss']:.6g}"
        )
    f_star = None
    if loss_kind == "quadratic":
        _, f_star = pooled_least_squares(train, reg)
        X = np.vstack([d.features for d in train])
        y = np.concatenate([d.labels for d in train]).astype(float)
        slack = 1e-9 * max(1.0, abs(f_star))
        for r in eff:
            if r["global_loss"] < f_star - slack:
                errors.append(f"round {r['round']}: loss {r['global_loss']} below optimum {f_star}")
            mine = quadratic_loss(np.asarray(r["global_after"]), X, y, reg)
            if abs(mine - r["global_loss"]) > slack:
                errors.append(f"round {r['round']}: logged loss {r['global_loss']} != {mine}")
    return errors[:20], f_star


def check_accuracy(rounds: list[dict], analysis: dict, holdout, num_classes: int) -> list[str]:
    """Hold-out accuracy well above chance (at least three times it), and the
    analysis confusion matrix agrees with it and with the hold-out labels."""
    errors = []
    final = effective(rounds)[-1]
    acc = final["accuracy"]
    if acc is None or acc < 3.0 / num_classes:
        errors.append(f"final hold-out accuracy {acc} not well above chance {1 / num_classes}")
    per_class = analysis.get("per_class_accuracy")
    if per_class is None:
        return errors + ["analysis has no per-class accuracy"]
    labels = np.asarray(holdout.labels).astype(int)
    counts = np.bincount(labels, minlength=num_classes)
    correct = sum(per_class[str(c)] * counts[c] for c in range(num_classes) if counts[c])
    if acc is not None and abs(correct / labels.size - acc) > 1e-9:
        errors.append(f"confusion-matrix accuracy {correct / labels.size} != logged {acc}")
    return errors


def check_analysis(header: dict, rounds: list[dict], analysis: dict, f_star: float | None) -> list[str]:
    errors = []
    pids = sorted(header["partitions"])
    counts = {p: 0 for p in pids}
    for r in rounds:
        for p in r["selected"]:
            counts[p] += 1
    rates = {str(p): counts[p] / len(rounds) for p in pids}
    if analysis["rounds"] != len(rounds):
        errors.append(f"analysis counts {analysis['rounds']} rounds, log has {len(rounds)}")
    if analysis["fairness"]["rates"] != rates:
        errors.append("analysis participation rates differ from the recount")
    if analysis["fairness"]["gap"] != max(rates.values()) - min(rates.values()):
        errors.append("analysis fairness gap differs from the recount")
    if not analysis["weights_ok"]:
        errors.append("analysis reports invalid weights")
    bound = analysis["bound"]
    if (f_star is None) != (bound is None):
        errors.append("convergence bound present on a non-quadratic run or missing on one")
    elif f_star is not None and abs(bound["f_star"] - f_star) > 1e-9 * max(1.0, abs(f_star)):
        errors.append(f"analysis optimum {bound['f_star']} != closed form {f_star}")
    return errors


# ---------------------------------------------------------------------------
# Audit windows


def window_rows(header: dict, rounds: list[dict], window) -> list[list[Fraction]]:
    """The server's equations over a window, built from the log's format: each
    aggregated round gives member k of partition G the coefficient
    beta_G * |D_k| / |D_G| (beta_G in the literal ablation)."""
    lo, hi = window
    sats = sorted(header["data_sizes"])
    col = {s: j for j, s in enumerate(sats)}
    literal = header["aggregation_mode"] == "literal"
    sizes = header["data_sizes"]
    rows = []
    for r in effective(rounds):
        if not lo <= r["round"] <= hi:
            continue
        row = [Fraction(0)] * len(sats)
        for pid, beta in r["beta"].items():
            members = header["partitions"][pid]
            n_g = sum(sizes[k] for k in members)
            for k in members:
                row[col[k]] = beta if literal else beta * Fraction(sizes[k], n_g)
        rows.append(row)
    return rows


def _support_below(basis, pivots, n_cols: int, level: int) -> tuple[int, ...] | None:
    """A set of fewer than ``level`` columns carrying a nonzero row-space
    vector, or None. Removing a set without a pivot column keeps the identity
    block of the reduced basis, so only sets holding a pivot need a test."""
    for size in range(1, level):
        for cols in combinations(range(n_cols), size):
            if not set(cols) & set(pivots):
                continue
            keep = [j for j in range(n_cols) if j not in cols]
            if rank([[row[j] for j in keep] for row in basis]) < len(basis):
                return cols
    return None


def check_partitioned_windows(header: dict, rounds: list[dict], results, level: int) -> list[str]:
    """Each audited window passes, with min support >= level, no exposure, a
    rank equal to the exact rank, and no recoverable vector on fewer than
    ``level`` satellites."""
    errors = []
    n_cols = len(header["data_sizes"])
    for res in results:
        if res.report is None:
            continue
        rep = res.report
        basis, pivots = rref(window_rows(header, rounds, res.window))
        if rep.rank != len(basis):
            errors.append(f"window {res.window}: rank {rep.rank}, exact rank {len(basis)}")
        if not rep.passed or rep.individually_exposed:
            errors.append(f"window {res.window}: verdict {rep.verdict}")
        if basis and (rep.min_support is None or rep.min_support < level):
            errors.append(f"window {res.window}: min support {rep.min_support} < {level}")
        small = _support_below(basis, pivots, n_cols, level)
        if small is not None:
            errors.append(f"window {res.window}: recoverable vector on columns {small}")
    return errors[:20]


def exposed_satellites(rows: list[list[Fraction]], sats: list[int]) -> set[int]:
    """Satellites whose unit vector lies in the row space. A unit vector in the
    row space is a row of the reduced basis; the identity block carried along
    gives its combination x of the rows, and sum_i x_i rows_i is verified to
    be exactly that unit vector."""
    n, r0 = len(sats), len(rows)
    augmented = [row + [Fraction(int(i == k)) for k in range(r0)] for i, row in enumerate(rows)]
    basis, pivots = rref(augmented, pivot_cols=n)
    found = set()
    for row, p in zip(basis, pivots):
        if any(row[j] for j in range(n) if j != p):
            continue
        x = row[n:]
        combo = [sum(x[i] * rows[i][j] for i in range(r0)) for j in range(n)]
        if combo == [Fraction(int(j == p)) for j in range(n)]:
            found.add(sats[p])
    return found


def check_baseline_windows(header: dict, rounds: list[dict], results) -> tuple[list[str], int]:
    """The reported exposures of every window are exactly the satellites whose
    unit vector the benchmark recovers by an exact solve."""
    errors = []
    sats = sorted(header["data_sizes"])
    exposures = 0
    for res in results:
        if res.report is None:
            continue
        solved = exposed_satellites(window_rows(header, rounds, res.window), sats)
        reported = set(res.report.individually_exposed)
        if reported != solved:
            errors.append(
                f"baseline window {res.window}: reported exposures {sorted(reported)}, "
                f"exact solve recovers {sorted(solved)}"
            )
        if reported and res.report.passed:
            errors.append(f"baseline window {res.window}: exposure reported with a PASS verdict")
        exposures += len(reported)
    if exposures == 0:
        errors.append("baseline shows no exposure")
    return errors[:20], exposures
