"""Run configuration: a flat key = value text file with a full-default smoke profile.

Every key has a default, so an empty file is a valid smoke run (6 satellites,
3 partitions, 20 rounds). Lines are ``key = value`` with ``#`` comments;
command-line overrides use the same ``key=value`` form. The documented keys
are exactly the entries of DEFAULTS below.
"""
from __future__ import annotations

from pathlib import Path

from .orbital import ConstellationSpec, GroundStation
from .simulator import DataSpec, SimConfig
from .training import InverseDecayRate, LossSpec, SgdConfig

DEFAULTS: dict[str, object] = {
    # constellation (smoke default: two nearly coincident planes, so the
    # three cross-plane satellite pairs share most of every pass)
    "num_orbits": 2,
    "sats_per_orbit": 3,
    "altitude_km": 780.0,
    "inclination_deg": 80.0,
    "raan_spread_deg": 8.0,
    "phasing": 0,
    # ground station
    "gs_latitude_deg": 45.0,
    "gs_longitude_deg": -100.0,
    "min_elevation_deg": 15.0,
    # visibility
    "horizon_s": 172800.0,
    "sample_step_s": 10.0,
    # privacy and scheduling
    "ltp_level": 2,
    "alpha": "t",  # integer tolerance or the sentinel t
    # data
    "data_kind": "blobs",  # blobs | linear-regression | csv
    "num_classes": 4,
    "feature_dim": 2,
    "samples_per_satellite": "40",  # int or comma-separated per-satellite list
    "split": "iid",  # iid | non-iid-2class
    "noise": 0.2,
    "heterogeneity": 0.0,
    "csv_dir": "",
    # loss
    "loss_kind": "logistic-l2",  # quadratic | logistic-l2 | mlp-small
    "regularization": 0.01,
    "clip_radius": 0.0,  # 0 disables ball projection
    "hidden_units": 16,
    # local optimiser
    "local_steps": 5,
    "learning_rate": 0.05,
    "lr_schedule": "constant",  # constant | inverse (c/(offset+step))
    "lr_offset": 0.0,
    "mini_batch": 32,
    # run control (exactly one of rounds / time_budget_s may be set)
    "rounds": 20,
    "time_budget_s": "",
    "overhead_min_s": 60.0,
    "overhead_max_s": 180.0,
    "aggregation_mode": "normalized",  # normalized | literal
    "checkpoint_every": 0,
    "eval_fraction": 0.1,
    "init_scale": 0.01,
    "seed": 42,
}


def parse_config_file(path) -> dict[str, str]:
    """Read raw key = value pairs, rejecting unknown keys with their location."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def apply_overrides(values: dict[str, str], overrides) -> dict[str, str]:
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value
    return values


def _as_int(key: str, raw) -> int:
    try:
        return int(str(raw))
    except ValueError:
        raise ValueError(f"config key {key!r}: expected integer, got {raw!r}") from None


def _as_float(key: str, raw) -> float:
    try:
        return float(str(raw))
    except ValueError:
        raise ValueError(f"config key {key!r}: expected number, got {raw!r}") from None


def build_sim_config(values: dict[str, str] | None = None) -> SimConfig:
    """Resolve raw values over the defaults into a validated SimConfig."""
    merged = {k: str(v) for k, v in DEFAULTS.items()}
    for k, v in (values or {}).items():
        merged[k] = str(v)

    constellation = ConstellationSpec(
        num_orbits=_as_int("num_orbits", merged["num_orbits"]),
        sats_per_orbit=_as_int("sats_per_orbit", merged["sats_per_orbit"]),
        altitude_km=_as_float("altitude_km", merged["altitude_km"]),
        inclination_deg=_as_float("inclination_deg", merged["inclination_deg"]),
        raan_spread_deg=_as_float("raan_spread_deg", merged["raan_spread_deg"]),
        phasing=_as_int("phasing", merged["phasing"]),
    )
    station = GroundStation(
        latitude_deg=_as_float("gs_latitude_deg", merged["gs_latitude_deg"]),
        longitude_deg=_as_float("gs_longitude_deg", merged["gs_longitude_deg"]),
        min_elevation_deg=_as_float("min_elevation_deg", merged["min_elevation_deg"]),
    )

    sizes_raw = merged["samples_per_satellite"]
    if "," in sizes_raw:
        samples: int | tuple[int, ...] = tuple(
            _as_int("samples_per_satellite", part) for part in sizes_raw.split(",") if part.strip()
        )
    else:
        samples = _as_int("samples_per_satellite", sizes_raw)
    data = DataSpec(
        kind=merged["data_kind"],
        num_classes=_as_int("num_classes", merged["num_classes"]),
        feature_dim=_as_int("feature_dim", merged["feature_dim"]),
        samples_per_satellite=samples,
        split=merged["split"],
        noise=_as_float("noise", merged["noise"]),
        heterogeneity=_as_float("heterogeneity", merged["heterogeneity"]),
        csv_dir=merged["csv_dir"] or None,
    )

    clip = _as_float("clip_radius", merged["clip_radius"])
    loss = LossSpec(
        kind=merged["loss_kind"],
        regularization=_as_float("regularization", merged["regularization"]),
        clip_radius=clip if clip > 0 else None,
        num_classes=data.num_classes,
        hidden_units=_as_int("hidden_units", merged["hidden_units"]),
    )

    schedule_kind = merged["lr_schedule"]
    base_rate = _as_float("learning_rate", merged["learning_rate"])
    if schedule_kind == "constant":
        learning_rate: object = base_rate
    elif schedule_kind == "inverse":
        learning_rate = InverseDecayRate(base_rate, _as_float("lr_offset", merged["lr_offset"]))
    else:
        raise ValueError(f"config key 'lr_schedule': unknown schedule {schedule_kind!r}")
    sgd = SgdConfig(
        local_steps=_as_int("local_steps", merged["local_steps"]),
        learning_rate=learning_rate,
        mini_batch=_as_int("mini_batch", merged["mini_batch"]),
        seed=_as_int("seed", merged["seed"]),
    )

    alpha_raw = merged["alpha"]
    alpha: object = alpha_raw if alpha_raw == "t" else _as_int("alpha", alpha_raw)
    rounds = None if merged["rounds"] == "" else _as_int("rounds", merged["rounds"])
    budget = None if merged["time_budget_s"] == "" else _as_float(
        "time_budget_s", merged["time_budget_s"]
    )
    if rounds is not None and budget is not None:
        # the file's default rounds yields to an explicit budget
        if "rounds" not in (values or {}):
            rounds = None
        else:
            raise ValueError("set only one of 'rounds' and 'time_budget_s'")

    return SimConfig(
        constellation=constellation,
        station=station,
        horizon_s=_as_float("horizon_s", merged["horizon_s"]),
        sample_step_s=_as_float("sample_step_s", merged["sample_step_s"]),
        ltp_level=_as_int("ltp_level", merged["ltp_level"]),
        alpha=alpha,
        data=data,
        loss=loss,
        sgd=sgd,
        rounds=rounds,
        time_budget_s=budget,
        overhead_range_s=(
            _as_float("overhead_min_s", merged["overhead_min_s"]),
            _as_float("overhead_max_s", merged["overhead_max_s"]),
        ),
        aggregation_mode=merged["aggregation_mode"],
        checkpoint_every=_as_int("checkpoint_every", merged["checkpoint_every"]),
        eval_fraction=_as_float("eval_fraction", merged["eval_fraction"]),
        init_scale=_as_float("init_scale", merged["init_scale"]),
        seed=_as_int("seed", merged["seed"]),
    )


def load_config(path=None, overrides=None) -> SimConfig:
    values = parse_config_file(path) if path else {}
    apply_overrides(values, overrides)
    return build_sim_config(values)


def config_from_header_payload(payload: dict) -> SimConfig:
    """Rebuild a SimConfig from the dict embedded in an event-log header.

    A learning rate is a number or an ``InverseDecayRate``'s fields.
    """
    cst = payload["constellation"]
    gs = payload["station"]
    data = payload["data"]
    loss = payload["loss"]
    sgd = payload["sgd"]
    lr = sgd["learning_rate"]
    samples = data["samples_per_satellite"]
    return SimConfig(
        constellation=ConstellationSpec(**cst),
        station=GroundStation(**gs),
        horizon_s=payload["horizon_s"],
        sample_step_s=payload["sample_step_s"],
        ltp_level=payload["ltp_level"],
        alpha=payload["alpha"],
        data=DataSpec(
            kind=data["kind"],
            num_classes=data["num_classes"],
            feature_dim=data["feature_dim"],
            samples_per_satellite=(
                tuple(samples) if isinstance(samples, list) else samples
            ),
            split=data["split"],
            noise=data["noise"],
            heterogeneity=data["heterogeneity"],
            csv_dir=data["csv_dir"],
        ),
        loss=LossSpec(**loss),
        sgd=SgdConfig(
            local_steps=sgd["local_steps"],
            learning_rate=InverseDecayRate(**lr) if isinstance(lr, dict) else lr,
            mini_batch=sgd["mini_batch"],
            seed=sgd["seed"],
        ),
        rounds=payload["rounds"],
        time_budget_s=payload["time_budget_s"],
        overhead_range_s=tuple(payload["overhead_range_s"]),
        aggregation_mode=payload["aggregation_mode"],
        checkpoint_every=payload["checkpoint_every"],
        eval_fraction=payload["eval_fraction"],
        init_scale=payload["init_scale"],
        seed=payload["seed"],
    )
