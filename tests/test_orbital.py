import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltpfleo.orbital import (
    BISECTION_TOL_S,
    R_EARTH_KM,
    ConstellationSpec,
    GroundStation,
    VisibilityWindow,
    _refine_crossings,
    build_walker_delta,
    compute_visibility,
    elevation_deg,
    propagate_ecef,
    propagate_eci,
    station_ecef,
)

PAPER_SPEC = ConstellationSpec(
    num_orbits=5, sats_per_orbit=10, altitude_km=780.0, inclination_deg=80.0
)
PAPER_GS = GroundStation(latitude_deg=45.0, longitude_deg=-100.0, min_elevation_deg=15.0)

# Kepler oracle, computed independently: 2*pi*sqrt(7151^3 / 398600.4418)
PERIOD_780KM_S = 6018.124217148019


def scalar_bisection(margin, t_below, t_above):
    """Reference: bisect one crossing with scalar margin evaluations."""
    lo, hi = t_below, t_above
    while abs(hi - lo) > BISECTION_TOL_S:
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def scalar_visibility(spec, gs, horizon_s, sample_step_s):
    """Reference: per-satellite windows from a scan of the sampled mask and
    one scalar bisection per crossing."""
    grid = np.arange(0.0, horizon_s, sample_step_s)
    if grid[-1] < horizon_s:
        grid = np.append(grid, horizon_s)
    n = len(grid)
    out = {}
    for el in build_walker_delta(spec):
        above = elevation_deg(propagate_ecef(el, grid), gs) >= gs.min_elevation_deg

        def margin(t, el=el):
            return float(elevation_deg(propagate_ecef(el, t), gs)) - gs.min_elevation_deg

        wins, i = [], 0
        while i < n:
            if not above[i]:
                i += 1
                continue
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            start = grid[i] if i == 0 else scalar_bisection(margin, grid[i - 1], grid[i])
            end = grid[j] if j == n - 1 else scalar_bisection(margin, grid[j + 1], grid[j])
            if end > start:
                wins.append(VisibilityWindow(el.satellite_id, start, end))
            i = j + 1
        out[el.satellite_id] = tuple(wins)
    return out


class TestConstellationSpec:
    def test_rejects_zero_orbits(self):
        with pytest.raises(ValueError):
            ConstellationSpec(num_orbits=0, sats_per_orbit=1, altitude_km=780, inclination_deg=80)

    def test_rejects_zero_sats(self):
        with pytest.raises(ValueError):
            ConstellationSpec(num_orbits=1, sats_per_orbit=0, altitude_km=780, inclination_deg=80)

    def test_rejects_non_leo_altitude(self):
        with pytest.raises(ValueError):
            ConstellationSpec(num_orbits=1, sats_per_orbit=1, altitude_km=2500, inclination_deg=80)

    def test_station_latitude_bounds(self):
        with pytest.raises(ValueError):
            GroundStation(latitude_deg=95.0, longitude_deg=0.0)


class TestBuildWalkerDelta:
    def test_paper_constellation_layout(self):
        elements = build_walker_delta(PAPER_SPEC)
        assert len(elements) == 50
        raans = sorted({round(el.raan_rad, 12) for el in elements})
        assert len(raans) == 5
        steps = np.diff(raans)
        assert np.allclose(steps, math.radians(72.0))

    def test_single_satellite(self):
        spec = ConstellationSpec(num_orbits=1, sats_per_orbit=1, altitude_km=780, inclination_deg=80)
        (el,) = build_walker_delta(spec)
        assert el.anomaly0_rad == 0.0
        assert el.raan_rad == 0.0

    def test_kepler_period(self):
        elements = build_walker_delta(PAPER_SPEC)
        for el in elements:
            assert el.period_s == pytest.approx(PERIOD_780KM_S, abs=1e-6)

    def test_deterministic(self):
        assert build_walker_delta(PAPER_SPEC) == build_walker_delta(PAPER_SPEC)


class TestPropagation:
    def test_epoch_position_from_elements(self):
        (el,) = build_walker_delta(
            ConstellationSpec(num_orbits=1, sats_per_orbit=1, altitude_km=780, inclination_deg=80)
        )
        pos = propagate_eci(el, 0.0)
        # anomaly 0, raan 0: satellite on the +x axis
        np.testing.assert_allclose(pos, [el.semi_major_axis_km, 0.0, 0.0], atol=1e-9)

    def test_periodicity_inertial(self):
        elements = build_walker_delta(PAPER_SPEC)
        el = elements[7]
        p0 = propagate_ecef(el, 0.0, earth_rotation=False)
        p1 = propagate_ecef(el, el.period_s, earth_rotation=False)
        assert np.linalg.norm(p1 - p0) / np.linalg.norm(p0) < 1e-9

    def test_equatorial_orbit_stays_in_plane(self):
        spec = ConstellationSpec(num_orbits=1, sats_per_orbit=4, altitude_km=780, inclination_deg=0.0)
        for el in build_walker_delta(spec):
            pos = propagate_ecef(el, np.linspace(0.0, 2 * el.period_s, 50))
            assert np.all(np.abs(pos[:, 2]) < 1e-9)

    def test_radius_preserved(self):
        elements = build_walker_delta(PAPER_SPEC)
        t = np.linspace(0.0, 86400.0, 977)
        for el in elements[::11]:
            r = np.linalg.norm(propagate_ecef(el, t), axis=-1)
            assert np.all(np.abs(r - (R_EARTH_KM + 780.0)) / (R_EARTH_KM + 780.0) < 1e-6)

    def test_rejects_negative_time(self):
        (el,) = build_walker_delta(
            ConstellationSpec(num_orbits=1, sats_per_orbit=1, altitude_km=780, inclination_deg=80)
        )
        with pytest.raises(ValueError):
            propagate_eci(el, -1.0)

    def test_deterministic_positions(self):
        el = build_walker_delta(PAPER_SPEC)[3]
        a = propagate_ecef(el, 1234.5)
        b = propagate_ecef(el, 1234.5)
        assert a.tobytes() == b.tobytes()


class TestElevation:
    def test_zenith(self):
        gs = GroundStation(latitude_deg=30.0, longitude_deg=40.0, min_elevation_deg=0.0)
        site = station_ecef(gs)
        sat = site * (R_EARTH_KM + 780.0) / R_EARTH_KM
        assert elevation_deg(sat, gs) == pytest.approx(90.0, abs=1e-9)

    def test_antipode_not_visible(self):
        gs = GroundStation(latitude_deg=30.0, longitude_deg=40.0, min_elevation_deg=0.0)
        sat = -station_ecef(gs) * (R_EARTH_KM + 780.0) / R_EARTH_KM
        assert elevation_deg(sat, gs) < 0.0

    def test_horizon_plane_point(self):
        # Tangent-plane construction: site + any tangent direction has elevation 0.
        gs = GroundStation(latitude_deg=12.0, longitude_deg=-75.0, min_elevation_deg=0.0)
        site = station_ecef(gs)
        zenith = site / np.linalg.norm(site)
        east = np.cross([0.0, 0.0, 1.0], zenith)
        east /= np.linalg.norm(east)
        sat = site + 1500.0 * east
        assert abs(elevation_deg(sat, gs)) < 1e-9

    def test_rejects_subsurface_position(self):
        gs = GroundStation(latitude_deg=0.0, longitude_deg=0.0)
        with pytest.raises(ValueError):
            elevation_deg([100.0, 0.0, 0.0], gs)


class TestComputeVisibility:
    def test_impossible_mask_gives_empty_schedule(self):
        gs = GroundStation(latitude_deg=45.0, longitude_deg=-100.0, min_elevation_deg=90.0)
        sched = compute_visibility(PAPER_SPEC, gs, horizon_s=7000.0, sample_step_s=30.0)
        assert all(sched.windows_for(k) == () for k in sched.satellites)

    def test_always_visible_with_open_mask(self):
        spec = ConstellationSpec(num_orbits=1, sats_per_orbit=1, altitude_km=780, inclination_deg=0.0)
        gs = GroundStation(latitude_deg=0.0, longitude_deg=0.0, min_elevation_deg=-90.0)
        sched = compute_visibility(spec, gs, horizon_s=7000.0, sample_step_s=30.0)
        (w,) = sched.windows_for(0)
        assert w.start_s == 0.0
        assert w.end_s == 7000.0

    def test_zero_horizon_is_empty(self):
        sched = compute_visibility(PAPER_SPEC, PAPER_GS, horizon_s=0.0, sample_step_s=10.0)
        assert sched.total_visible_s() == 0.0
        assert len(sched.windows) == 50

    def test_warns_on_coarse_sampling(self):
        spec = ConstellationSpec(num_orbits=1, sats_per_orbit=1, altitude_km=780, inclination_deg=80)
        with pytest.warns(UserWarning, match="short passes"):
            compute_visibility(spec, PAPER_GS, horizon_s=7000.0, sample_step_s=120.0)

    def test_window_endpoints_sit_on_mask(self):
        sched = compute_visibility(PAPER_SPEC, PAPER_GS, horizon_s=20000.0, sample_step_s=10.0)
        elements = {el.satellite_id: el for el in build_walker_delta(PAPER_SPEC)}
        checked = 0
        for sat in sched.satellites:
            for w in sched.windows_for(sat):
                el = elements[sat]
                mid = float(elevation_deg(propagate_ecef(el, 0.5 * (w.start_s + w.end_s)), PAPER_GS))
                assert mid >= PAPER_GS.min_elevation_deg
                for endpoint in (w.start_s, w.end_s):
                    if 0.0 < endpoint < sched.horizon_s:
                        e = float(elevation_deg(propagate_ecef(el, endpoint), PAPER_GS))
                        # 0.1 s of along-track motion changes elevation by < 0.05 deg
                        assert abs(e - PAPER_GS.min_elevation_deg) < 0.05
                        checked += 1
        assert checked > 0

    def test_pass_durations_bounded_one_day(self):
        # Dense 1 s oracle over one day: every pass at 780 km / 15 deg mask is
        # under 900 s (geometric ceiling ~522 s for a static Earth).
        sched = compute_visibility(PAPER_SPEC, PAPER_GS, horizon_s=86400.0, sample_step_s=1.0)
        durations = [w.duration_s for k in sched.satellites for w in sched.windows_for(k)]
        assert durations, "expected at least one pass per day"
        assert all(0.0 < d <= 900.0 for d in durations)

    def test_sampling_refinement_stability(self):
        coarse = compute_visibility(PAPER_SPEC, PAPER_GS, horizon_s=86400.0, sample_step_s=10.0)
        fine = compute_visibility(PAPER_SPEC, PAPER_GS, horizon_s=86400.0, sample_step_s=1.0)
        assert abs(coarse.total_visible_s() - fine.total_visible_s()) / fine.total_visible_s() < 0.01

    def test_schedule_csv_export(self, tmp_path):
        sched = compute_visibility(PAPER_SPEC, PAPER_GS, horizon_s=20000.0, sample_step_s=10.0)
        path = tmp_path / "schedule.csv"
        sched.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "satellite_id,start_s,end_s"
        n_windows = sum(len(sched.windows_for(k)) for k in sched.satellites)
        assert len(lines) == 1 + n_windows


class TestCrossingRefinement:
    @staticmethod
    def margin(t):
        # Arithmetic only, so array and scalar evaluation agree bit for bit:
        # above the mask on [120, 410) of every 700 s.
        phase = np.mod(t, 700.0)
        return (phase - 120.0) * (410.0 - phase)

    @settings(max_examples=60, deadline=None)
    @given(
        brackets=st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 5000.0), st.integers(0, 5000).map(float)),
                st.one_of(
                    st.floats(-40.0, 40.0),
                    st.sampled_from([0.0, BISECTION_TOL_S, -BISECTION_TOL_S, 0.15, 3.0, 40.0]),
                ),
            ),
            max_size=12,
        )
    )
    # The first midpoint, 120, lies exactly on the mask: it counts as above.
    @example([(100.0, 40.0), (430.0, -40.0)])
    def test_array_bisection_matches_scalar_reference(self, brackets):
        below = [t for t, _ in brackets]
        above = [t + width for t, width in brackets]
        refined = _refine_crossings(self.margin, np.array(below), np.array(above))
        expected = [
            scalar_bisection(lambda t: self.margin(np.array([t]))[0], lo, hi)
            for lo, hi in zip(below, above)
        ]
        assert refined.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(
        sats=st.integers(1, 3),
        inclination=st.floats(0.0, 180.0),
        latitude=st.floats(-60.0, 60.0),
        longitude=st.floats(-30.0, 30.0),
        mask=st.sampled_from([-90.0, 0.0, 15.0, 40.0, 90.0]),
        horizon=st.floats(50.0, 15000.0),
        step=st.floats(5.0, 60.0),
    )
    # Station under satellite 0 at epoch: its pass is [0, ~270.03] s.
    @example(1, 60.0, 0.0, 0.0, 15.0, 7000.0, 30.0)
    # Its set crossing falls in the last bracket, [270, 274], 4 s long.
    @example(1, 60.0, 0.0, 0.0, 15.0, 274.0, 10.0)
    # The pass runs past the horizon: one window touching t = 0 and the horizon.
    @example(1, 60.0, 0.0, 0.0, 15.0, 250.0, 10.0)
    # Always and never visible.
    @example(2, 80.0, 45.0, -100.0, -90.0, 1234.5, 10.0)
    @example(2, 80.0, 45.0, -100.0, 90.0, 1234.5, 10.0)
    def test_visibility_matches_scalar_reference(
        self, sats, inclination, latitude, longitude, mask, horizon, step
    ):
        spec = ConstellationSpec(
            num_orbits=1, sats_per_orbit=sats, altitude_km=780.0, inclination_deg=inclination
        )
        gs = GroundStation(latitude, longitude, mask)
        sched = compute_visibility(spec, gs, horizon_s=horizon, sample_step_s=step)
        assert sched.windows == scalar_visibility(spec, gs, horizon, step)


@st.composite
def window_tuples(draw):
    """Sorted disjoint windows on a coarse grid, so that windows touch and
    queries land exactly on their starts and ends."""
    wins, t = [], 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=6)):
        wins.append(VisibilityWindow(0, 10.0 * (t + gap), 10.0 * (t + gap + length)))
        t += gap + length
    return tuple(wins)


class TestScheduleQueries:
    @settings(max_examples=60, deadline=None)
    @given(
        wins=window_tuples(),
        queries=st.lists(st.integers(0, 120).map(lambda n: 2.5 * n), min_size=1, max_size=10),
    )
    def test_bisection_matches_linear_scan(self, wins, queries):
        sched = ContactScheduleFactory(wins)
        for now in queries:
            assert sched.next_window(0, now) == next((w for w in wins if w.end_s > now), None)
            assert sched.visible_at(0, now) == any(w.start_s <= now <= w.end_s for w in wins)
        assert sched.next_window(1, 0.0) is None
        assert not sched.visible_at(1, 0.0)


    def test_next_window_skips_closed(self):
        wins = (
            VisibilityWindow(0, 100.0, 200.0),
            VisibilityWindow(0, 500.0, 700.0),
        )
        sched = ContactScheduleFactory(wins)
        assert sched.next_contact_time(0, 0.0) == 100.0
        assert sched.next_contact_time(0, 150.0) == 100.0  # ongoing pass counts
        assert sched.next_contact_time(0, 300.0) == 500.0
        assert sched.next_contact_time(0, 800.0) is None

    def test_visible_at(self):
        sched = ContactScheduleFactory((VisibilityWindow(0, 100.0, 200.0),))
        assert not sched.visible_at(0, 50.0)
        assert sched.visible_at(0, 150.0)
        assert not sched.visible_at(0, 250.0)


def ContactScheduleFactory(wins):
    from ltpfleo.orbital import ContactSchedule

    return ContactSchedule(horizon_s=1e6, sample_step_s=10.0, windows={0: wins})
