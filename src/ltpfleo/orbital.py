"""Walker-Delta constellations and ground-station visibility prediction.

Two-body circular orbits over a spherical, uniformly rotating Earth.
Fidelity is deliberately limited to pass timing: no J2, no drag, no
refraction, no link budget.
"""
from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

R_EARTH_KM = 6371.0
MU_EARTH_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.292115e-5  # sidereal

# Endpoint refinement tolerance for visibility windows, in seconds.
BISECTION_TOL_S = 0.1

_DEG = math.pi / 180.0


@dataclass(frozen=True)
class ConstellationSpec:
    """Walker-Delta pattern: equally spaced planes with evenly phased satellites."""

    num_orbits: int
    sats_per_orbit: int
    altitude_km: float
    inclination_deg: float
    raan_spread_deg: float = 360.0
    phasing: int = 1

    def __post_init__(self) -> None:
        if self.num_orbits < 1:
            raise ValueError("num_orbits must be >= 1")
        if self.sats_per_orbit < 1:
            raise ValueError("sats_per_orbit must be >= 1")
        if not 0.0 < self.altitude_km < 2000.0:
            raise ValueError("altitude_km must be in (0, 2000) for LEO")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg must be in [0, 180]")

    @property
    def num_satellites(self) -> int:
        return self.num_orbits * self.sats_per_orbit


@dataclass(frozen=True)
class GroundStation:
    """Aggregation-server site with an elevation mask.

    Masks outside [0, 90) are accepted so tests can force always/never
    visible geometries.
    """

    latitude_deg: float
    longitude_deg: float
    min_elevation_deg: float = 15.0

    def __post_init__(self) -> None:
        if abs(self.latitude_deg) > 90.0:
            raise ValueError("latitude_deg must be in [-90, 90]")
        if not -90.0 <= self.min_elevation_deg <= 90.0:
            raise ValueError("min_elevation_deg must be in [-90, 90]")


@dataclass(frozen=True)
class OrbitalElements:
    """Circular-orbit elements for one satellite."""

    satellite_id: int
    semi_major_axis_km: float
    inclination_rad: float
    raan_rad: float
    anomaly0_rad: float

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.semi_major_axis_km**3 / MU_EARTH_KM3_S2)

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(MU_EARTH_KM3_S2 / self.semi_major_axis_km**3)


@dataclass(frozen=True)
class VisibilityWindow:
    """One contiguous interval during which a satellite clears the mask."""

    satellite_id: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.end_s > self.start_s:
            raise ValueError("window end_s must exceed start_s")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class ContactSchedule:
    """Per-satellite visibility windows over a fixed horizon."""

    horizon_s: float
    sample_step_s: float
    windows: dict[int, tuple[VisibilityWindow, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sample_step_s <= 0:
            raise ValueError("sample_step_s must be positive")
        for sat, wins in self.windows.items():
            prev_end = -math.inf
            for w in wins:
                if w.satellite_id != sat:
                    raise ValueError("window satellite_id does not match key")
                if w.start_s < prev_end:
                    raise ValueError("windows must be sorted and disjoint")
                if w.start_s < 0.0 or w.end_s > self.horizon_s + 1e-9:
                    raise ValueError("window outside [0, horizon_s]")
                prev_end = w.end_s

    @property
    def satellites(self) -> list[int]:
        return sorted(self.windows)

    def windows_for(self, satellite_id: int) -> tuple[VisibilityWindow, ...]:
        return self.windows.get(satellite_id, ())

    @cached_property
    def _bounds(self) -> dict[int, tuple[list[float], list[float]]]:
        """Per satellite: its window starts and its window ends, both sorted."""
        return {
            sat: ([w.start_s for w in wins], [w.end_s for w in wins])
            for sat, wins in self.windows.items()
        }

    def next_window(self, satellite_id: int, now_s: float) -> VisibilityWindow | None:
        """First window still open at or after ``now_s`` (ongoing passes count)."""
        wins = self.windows_for(satellite_id)
        if not wins:
            return None
        i = bisect_right(self._bounds[satellite_id][1], now_s)
        return wins[i] if i < len(wins) else None

    def next_contact_time(self, satellite_id: int, now_s: float) -> float | None:
        """Predicted contact time: start of the satellite's next window."""
        w = self.next_window(satellite_id, now_s)
        return None if w is None else w.start_s

    def visible_at(self, satellite_id: int, t_s: float) -> bool:
        wins = self.windows_for(satellite_id)
        if not wins:
            return False
        i = bisect_right(self._bounds[satellite_id][0], t_s) - 1
        return i >= 0 and wins[i].end_s >= t_s

    def total_visible_s(self, satellite_id: int | None = None) -> float:
        if satellite_id is not None:
            return sum(w.duration_s for w in self.windows_for(satellite_id))
        return sum(w.duration_s for wins in self.windows.values() for w in wins)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["satellite_id", "start_s", "end_s"])
            for sat in self.satellites:
                for w in self.windows[sat]:
                    writer.writerow([sat, repr(w.start_s), repr(w.end_s)])


def build_walker_delta(spec: ConstellationSpec) -> list[OrbitalElements]:
    """Lay out the constellation: one element set per satellite, id-ordered.

    RAAN is spread evenly over ``raan_spread_deg`` across planes; in-plane
    anomalies are equally spaced with the Walker inter-plane phase offset
    ``phasing * 360 / (P * S)`` degrees.
    """
    a = R_EARTH_KM + spec.altitude_km
    inc = spec.inclination_deg * _DEG
    p, s = spec.num_orbits, spec.sats_per_orbit
    total = p * s
    raan_step = spec.raan_spread_deg * _DEG / p
    phase_step = spec.phasing * 2.0 * math.pi / total
    elements = []
    for orbit in range(p):
        raan = orbit * raan_step
        for slot in range(s):
            anomaly = slot * 2.0 * math.pi / s + orbit * phase_step
            elements.append(
                OrbitalElements(
                    satellite_id=orbit * s + slot,
                    semi_major_axis_km=a,
                    inclination_rad=inc,
                    raan_rad=raan % (2.0 * math.pi),
                    anomaly0_rad=anomaly % (2.0 * math.pi),
                )
            )
    return elements


def propagate_eci(elements: OrbitalElements, t_s) -> np.ndarray:
    """Inertial position (km) at time(s) ``t_s`` for a circular orbit.

    Accepts a scalar or an array of times; returns shape (3,) or (N, 3).
    """
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t_s must be >= 0")
    a = elements.semi_major_axis_km
    u = elements.anomaly0_rad + elements.mean_motion_rad_s * t
    cos_u, sin_u = np.cos(u), np.sin(u)
    cos_o, sin_o = math.cos(elements.raan_rad), math.sin(elements.raan_rad)
    cos_i, sin_i = math.cos(elements.inclination_rad), math.sin(elements.inclination_rad)
    # r_eci = Rz(raan) @ Rx(inc) @ [a cos u, a sin u, 0]
    x = a * (cos_o * cos_u - sin_o * cos_i * sin_u)
    y = a * (sin_o * cos_u + cos_o * cos_i * sin_u)
    z = a * (sin_i * sin_u)
    return np.stack([x, y, z], axis=-1)


def propagate_ecef(elements: OrbitalElements, t_s, earth_rotation: bool = True) -> np.ndarray:
    """Earth-fixed position (km) at time(s) ``t_s``.

    ``earth_rotation=False`` freezes the Earth frame at epoch (test mode).
    """
    r = propagate_eci(elements, t_s)
    if not earth_rotation:
        return r
    t = np.asarray(t_s, dtype=float)
    theta = EARTH_ROTATION_RAD_S * t
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x = cos_t * r[..., 0] + sin_t * r[..., 1]
    y = -sin_t * r[..., 0] + cos_t * r[..., 1]
    return np.stack([x, y, r[..., 2]], axis=-1)


def station_ecef(gs: GroundStation) -> np.ndarray:
    """Ground-station position on the spherical Earth surface (km)."""
    lat = gs.latitude_deg * _DEG
    lon = gs.longitude_deg * _DEG
    return R_EARTH_KM * np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


def elevation_deg(sat_pos_km, gs: GroundStation) -> np.ndarray | float:
    """Geometric elevation of the satellite above the station's local horizon."""
    pos = np.asarray(sat_pos_km, dtype=float)
    radius = np.linalg.norm(pos, axis=-1)
    if np.any(radius <= R_EARTH_KM):
        raise ValueError("satellite position must be above the Earth surface")
    site = station_ecef(gs)
    zenith = site / np.linalg.norm(site)
    rel = pos - site
    sin_el = (rel @ zenith) / np.linalg.norm(rel, axis=-1)
    el = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    return float(el) if el.ndim == 0 else el


def compute_visibility(
    spec: ConstellationSpec,
    gs: GroundStation,
    horizon_s: float,
    sample_step_s: float = 10.0,
) -> ContactSchedule:
    """Find, per satellite, the maximal intervals with elevation >= mask.

    Samples the elevation on a uniform grid, then refines every mask crossing
    of a satellite together in one array bisection, to ``BISECTION_TOL_S``.
    Windows touching t=0 or the horizon are clipped there.
    """
    if sample_step_s <= 0:
        raise ValueError("sample_step_s must be positive")
    if sample_step_s > 60.0:
        warnings.warn(
            f"sample_step_s={sample_step_s:g} s exceeds 60 s; short passes may be missed",
            stacklevel=2,
        )
    elements = build_walker_delta(spec)
    if horizon_s <= 0.0:
        return ContactSchedule(
            horizon_s=max(horizon_s, 0.0),
            sample_step_s=sample_step_s,
            windows={el.satellite_id: () for el in elements},
        )

    grid = np.arange(0.0, horizon_s, sample_step_s)
    if grid[-1] < horizon_s:
        grid = np.append(grid, horizon_s)

    windows: dict[int, tuple[VisibilityWindow, ...]] = {}
    for el in elements:
        above = elevation_deg(propagate_ecef(el, grid), gs) >= gs.min_elevation_deg
        step = np.diff(above.astype(np.int8))
        rises = np.flatnonzero(step == 1)  # grid[i] below, grid[i + 1] above
        falls = np.flatnonzero(step == -1)  # grid[j] above, grid[j + 1] below

        def margin(t: np.ndarray, el=el) -> np.ndarray:
            return elevation_deg(propagate_ecef(el, t), gs) - gs.min_elevation_deg

        crossing = _refine_crossings(
            margin,
            np.concatenate([grid[rises], grid[falls + 1]]),
            np.concatenate([grid[rises + 1], grid[falls]]),
        )
        starts = list(crossing[: len(rises)])
        ends = list(crossing[len(rises):])
        if above[0]:
            starts.insert(0, grid[0])
        if above[-1]:
            ends.append(grid[-1])
        windows[el.satellite_id] = tuple(
            VisibilityWindow(satellite_id=el.satellite_id, start_s=start, end_s=end)
            for start, end in zip(starts, ends)
            if end > start
        )
    return ContactSchedule(horizon_s=horizon_s, sample_step_s=sample_step_s, windows=windows)


def _refine_crossings(margin, t_below: np.ndarray, t_above: np.ndarray) -> np.ndarray:
    """Bisect each mask crossing between a below-mask and an above-mask time.

    ``margin`` maps an array of times to elevation minus mask. Each bracket
    halves until it is no longer than ``BISECTION_TOL_S`` and stops there,
    so every crossing takes the same steps as it would bisected on its own.
    """
    lo = np.array(t_below, dtype=float)
    hi = np.array(t_above, dtype=float)
    active = np.flatnonzero(np.abs(hi - lo) > BISECTION_TOL_S)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        up = margin(mid) >= 0.0
        hi[active[up]] = mid[up]
        lo[active[~up]] = mid[~up]
        active = active[np.abs(hi[active] - lo[active]) > BISECTION_TOL_S]
    return 0.5 * (lo + hi)
