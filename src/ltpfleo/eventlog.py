"""Canonical run artifacts: line-delimited JSON event log and flat binary checkpoints.

The log is the single source of truth for the privacy audit and the
convergence analysis: one header line followed by one record per round.
Weights are stored as exact rational strings and model vectors as full-
precision floats, so replaying a log reproduces the run bit for bit.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = "ltpfleo-events-v1"


class SchemaMismatchError(ValueError):
    def __init__(self, expected: str, found: str):
        super().__init__(f"event log schema mismatch: expected {expected!r}, found {found!r}")
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class EventLogHeader:
    """Run-level facts every consumer needs."""

    config_hash: str
    seed: int
    ltp_level: int
    alpha: object  # integer tolerance or the "t" sentinel
    aggregation_mode: str
    partitions: dict[int, tuple[int, ...]]
    data_sizes: dict[int, int]
    model_dim: int
    loss_kind: str
    config: dict = field(default_factory=dict)
    schema: str = SCHEMA_VERSION

    @property
    def satellites(self) -> list[int]:
        return sorted(self.data_sizes)

    def partition_of(self) -> dict[int, int]:
        return {sat: pid for pid, members in self.partitions.items() for sat in members}

    def to_json(self) -> str:
        payload = {
            "type": "header",
            "schema": self.schema,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "ltp_level": self.ltp_level,
            "alpha": self.alpha,
            "aggregation_mode": self.aggregation_mode,
            "partitions": {str(p): list(m) for p, m in self.partitions.items()},
            "data_sizes": {str(s): n for s, n in self.data_sizes.items()},
            "model_dim": self.model_dim,
            "loss_kind": self.loss_kind,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, payload: dict) -> "EventLogHeader":
        if payload.get("schema") != SCHEMA_VERSION:
            raise SchemaMismatchError(SCHEMA_VERSION, str(payload.get("schema")))
        return cls(
            config_hash=payload["config_hash"],
            seed=payload["seed"],
            ltp_level=payload["ltp_level"],
            alpha=payload["alpha"],
            aggregation_mode=payload["aggregation_mode"],
            partitions={int(p): tuple(m) for p, m in payload["partitions"].items()},
            data_sizes={int(s): int(n) for s, n in payload["data_sizes"].items()},
            model_dim=payload["model_dim"],
            loss_kind=payload["loss_kind"],
            config=payload.get("config", {}),
        )


@dataclass
class RoundRecord:
    """Everything the server saw and decided in one round."""

    round_index: int
    t_start_s: float
    t_end_s: float
    skipped: bool
    candidates: tuple[int, ...] = ()
    selected: tuple[int, ...] = ()
    fresh: tuple[int, ...] = ()
    cached: dict[int, int] = field(default_factory=dict)  # partition -> staleness age
    excluded: tuple[int, ...] = ()
    frequencies: dict[int, int] = field(default_factory=dict)
    beta: dict[int, Fraction] = field(default_factory=dict)
    weight_starved: tuple[int, ...] = ()
    member_models: dict[int, list[float]] | None = None
    global_after: list[float] | None = None
    global_loss: float | None = None
    accuracy: float | None = None

    def to_json(self) -> str:
        payload = {
            "type": "round",
            "round": self.round_index,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "skipped": self.skipped,
            "candidates": list(self.candidates),
            "selected": list(self.selected),
            "fresh": list(self.fresh),
            "cached": {str(p): a for p, a in self.cached.items()},
            "excluded": list(self.excluded),
            "frequencies": {str(p): f for p, f in self.frequencies.items()},
            "beta": {str(p): str(b) for p, b in self.beta.items()},
            "weight_starved": list(self.weight_starved),
            "member_models": (
                None
                if self.member_models is None
                else {str(s): v for s, v in self.member_models.items()}
            ),
            "global_after": self.global_after,
            "global_loss": self.global_loss,
            "accuracy": self.accuracy,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, payload: dict) -> "RoundRecord":
        return cls(
            round_index=payload["round"],
            t_start_s=payload["t_start_s"],
            t_end_s=payload["t_end_s"],
            skipped=payload["skipped"],
            candidates=tuple(payload["candidates"]),
            selected=tuple(payload["selected"]),
            fresh=tuple(payload["fresh"]),
            cached={int(p): int(a) for p, a in payload["cached"].items()},
            excluded=tuple(payload["excluded"]),
            frequencies={int(p): int(f) for p, f in payload["frequencies"].items()},
            beta={int(p): Fraction(b) for p, b in payload["beta"].items()},
            weight_starved=tuple(payload["weight_starved"]),
            member_models=(
                None
                if payload["member_models"] is None
                else {int(s): list(v) for s, v in payload["member_models"].items()}
            ),
            global_after=payload["global_after"],
            global_loss=payload["global_loss"],
            accuracy=payload["accuracy"],
        )


def write_event_log(path, header: EventLogHeader, records) -> None:
    """Write the header line, then one line per round record."""
    with open(path, "w") as fh:
        fh.write(header.to_json() + "\n")
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_event_log(path) -> tuple[EventLogHeader, list[RoundRecord]]:
    header = None
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("type") == "header":
                header = EventLogHeader.from_json(payload)
            elif payload.get("type") == "round":
                records.append(RoundRecord.from_json(payload))
            else:
                raise ValueError(f"unknown event type {payload.get('type')!r}")
    if header is None:
        raise ValueError(f"{path}: missing header line")
    records.sort(key=lambda r: r.round_index)
    return header, records


_CHECKPOINT_HEADER = struct.Struct("<Q")


def save_checkpoint(path, values: np.ndarray) -> None:
    """Flat binary model format: little-endian uint64 dimension + float64 data."""
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    if arr.ndim != 1:
        raise ValueError("checkpoint expects a flat vector")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_HEADER.pack(arr.shape[0]))
        fh.write(arr.tobytes())


def load_checkpoint(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read(_CHECKPOINT_HEADER.size)
        (dim,) = _CHECKPOINT_HEADER.unpack(raw)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.shape[0] != dim:
        raise ValueError(f"checkpoint payload has {data.shape[0]} values, header says {dim}")
    return data.astype(np.float64)
