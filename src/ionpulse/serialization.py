"""JSON file formats for schedules, targets, states, and reports.

Complex numbers serialize as [re, im] pairs.  Schedule schema (field
names are stable):

    {"params": {"eta": f, "omega_carrier_rad_s": f, "fock_dim": n},
     "pulses": [{"kind": "red"|"blue"|"carrier", "k": n,
                 "phase_rad": f, "duration_s": f}, ...],
     "provenance": s}

Target schema is a tagged union on "variant", with one tag and one set
of keys per target variant (synthesis._VARIANTS).  The loaders refuse
non-finite numbers (NaN, Infinity, 1e999).  All file writes are atomic
(write-temp-then-rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .core import PhysicalParams, parse_int
from .states import JointState, Pulse, PulseSchedule
from .synthesis import _VARIANTS, SynthesisReport, TargetState
from .synthesis import complex_pair, parse_complex, parse_float

__all__ = [
    "atomic_write_text",
    "params_to_dict",
    "params_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "target_to_dict",
    "target_from_dict",
    "load_target",
    "state_to_dict",
    "state_from_dict",
    "load_state",
    "report_to_dict",
]


def atomic_write_text(path: str, text: str):
    """Whole-file atomic write: temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {literal}")
    return value


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh, parse_float=_finite, parse_constant=_finite)


# ---------------------------------------------------------------------------
# Physical parameters and schedules


def params_to_dict(params: PhysicalParams) -> dict:
    return {
        "eta": params.eta,
        "omega_carrier_rad_s": params.omega_carrier,
        "fock_dim": params.fock_dim,
    }


def params_from_dict(data: dict) -> PhysicalParams:
    return PhysicalParams(
        eta=parse_float(data["eta"]),
        omega_carrier=parse_float(data["omega_carrier_rad_s"]),
        fock_dim=data["fock_dim"],
    )


def schedule_to_dict(schedule: PulseSchedule) -> dict:
    return {
        "params": params_to_dict(schedule.params),
        "pulses": [
            {
                "kind": p.kind,
                "k": p.k,
                "phase_rad": p.phase,
                "duration_s": p.duration,
            }
            for p in schedule.pulses
        ],
        "provenance": schedule.provenance,
    }


def schedule_from_dict(data: dict) -> PulseSchedule:
    params = params_from_dict(data["params"])
    pulses = tuple(
        Pulse(
            kind=str(p["kind"]),
            k=p["k"],
            phase=parse_float(p["phase_rad"]),
            duration=parse_float(p["duration_s"]),
        )
        for p in data["pulses"]
    )
    return PulseSchedule(params, pulses, provenance=str(data.get("provenance", "")))


def save_schedule(path: str, schedule: PulseSchedule):
    atomic_write_text(path, json.dumps(schedule_to_dict(schedule), indent=2) + "\n")


def load_schedule(path: str) -> PulseSchedule:
    return schedule_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# Targets


def target_to_dict(target: TargetState) -> dict:
    """The target's fields under the tag of the _VARIANTS row it matches."""
    for tag, (variant, fixed) in _VARIANTS.items():
        if type(target) is variant and all(getattr(target, f) == v for f, v in fixed.items()):
            doc = {"variant": tag}
            for key, (name, (encode, _)) in variant._JSON.items():
                doc[key] = encode(getattr(target, name))
            return doc
    raise TypeError(f"unknown target {type(target).__name__}")


def target_from_dict(data: dict) -> TargetState:
    if not isinstance(data, dict):
        raise ValueError(f"a target is a JSON object, got {type(data).__name__}")
    tag = data.get("variant")
    if tag not in _VARIANTS:
        raise ValueError(f"unknown target variant {tag!r}")
    variant, fixed = _VARIANTS[tag]
    fields = {name: decode(data[key]) for key, (name, (_, decode)) in variant._JSON.items()}
    return variant(**fields, **fixed)


def load_target(path: str) -> TargetState:
    return target_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# States and reports


def state_to_dict(state: JointState) -> dict:
    return {
        "fock_dim": state.dim,
        "amplitudes": [complex_pair(a) for a in state.amplitudes],
    }


def state_from_dict(data: dict) -> JointState:
    amps = np.array([parse_complex(a) for a in data["amplitudes"]], dtype=complex)
    if "fock_dim" in data and parse_int(data["fock_dim"]) * 2 != amps.size:
        raise ValueError(
            f"fock_dim {data['fock_dim']} inconsistent with {amps.size} amplitudes"
        )
    return JointState(amps)


def load_state(path: str) -> JointState:
    return state_from_dict(_load_json(path))


def _populations(state: JointState) -> list[dict]:
    return [
        {"m": m, "state": label, "population": state.population(m, s)}
        for m in range(state.dim)
        for s, label in ((0, "g"), (1, "e"))
    ]


def report_to_dict(report: SynthesisReport) -> dict:
    schedule = schedule_to_dict(report.schedule)
    return {
        "schedule": schedule,
        "pulses": [{"index": i, **p} for i, p in enumerate(schedule["pulses"])],
        "predicted_final": state_to_dict(report.predicted_final),
        "populations": _populations(report.predicted_final),
        "fidelity_vs_target": report.fidelity_vs_target,
        "exact_phase_fidelity": report.exact_phase_fidelity,
        "oracle_fidelity": report.oracle_fidelity,
        "total_duration_s": report.total_duration_s,
        "target_rotation_rad": report.target_rotation_rad,
        "final_internal_state": report.final_internal_state,
        "truncation_overlap": report.truncation_overlap,
    }
