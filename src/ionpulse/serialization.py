"""JSON file formats for schedules, targets, states, and reports.

Complex numbers serialize as [re, im] pairs.  Schedule schema (field
names are stable):

    {"params": {"eta": f, "omega_carrier_rad_s": f, "fock_dim": n},
     "pulses": [{"kind": "red"|"blue"|"carrier", "k": n,
                 "phase_rad": f, "duration_s": f}, ...],
     "provenance": s}

Target schema is a tagged union on "variant": synthesis._VARIANTS lists each
tag's keys, whose values the variant parses as its constructor parses any.
Targets are input only: they are read, never written.  The loaders refuse
non-finite numbers (NaN, Infinity, 1e999), and read every JSON object,
each pulse too, through _record, which names the record that is no object
or misses a key.  All file writes are atomic (write-temp-then-rename).
"""

from __future__ import annotations

import json
import math
import os
import stat
from typing import TYPE_CHECKING

import numpy as np

from .core import PhysicalParams, parse_complex, parse_int
from .states import JointState, Pulse, PulseSchedule

if TYPE_CHECKING:  # synthesis loads only when a target is read
    from .synthesis import SynthesisReport, TargetState

__all__ = ["atomic_write_text", "params_to_dict", "params_from_dict", "schedule_to_dict",
           "schedule_from_dict", "save_schedule", "load_schedule", "target_from_dict",
           "load_target", "state_to_dict", "state_from_dict", "load_state", "report_to_dict"]


def atomic_write_text(path: str, text: str):
    """Whole-file atomic write: temp file in the same directory, then rename.

    A new file gets the mode open() would give it, 0666 less the umask; a
    replaced file keeps its own.
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, mode)
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


def _record(value, what: str, *keys) -> list:
    """The values of keys in value, a JSON object; a ValueError names what otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is a JSON object, got {type(value).__name__}")
    try:
        return [value[key] for key in keys]
    except KeyError as exc:
        raise ValueError(f"{what} has no {exc}") from None


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} is a JSON array, got {type(value).__name__}")
    return value


# Physical parameters and schedules
def params_to_dict(params: PhysicalParams) -> dict:
    return {"eta": params.eta, "omega_carrier_rad_s": params.omega_carrier,
            "fock_dim": params.fock_dim}


def params_from_dict(data: dict) -> PhysicalParams:
    return PhysicalParams(*_record(data, "params", "eta", "omega_carrier_rad_s", "fock_dim"))


def schedule_to_dict(schedule: PulseSchedule) -> dict:
    pulses = [{"kind": p.kind, "k": p.k, "phase_rad": p.phase, "duration_s": p.duration}
              for p in schedule.pulses]
    return {"params": params_to_dict(schedule.params), "pulses": pulses,
            "provenance": schedule.provenance}


def schedule_from_dict(data: dict) -> PulseSchedule:
    params, records = _record(data, "a schedule", "params", "pulses")
    params = params_from_dict(params)
    pulses = [Pulse(*_record(p, f"pulse {i}", "kind", "k", "phase_rad", "duration_s"))
              for i, p in enumerate(_array(records, "pulses"))]
    return PulseSchedule(params, pulses, provenance=data.get("provenance", ""))


def save_schedule(path: str, schedule: PulseSchedule):
    atomic_write_text(path, json.dumps(schedule_to_dict(schedule), indent=2) + "\n")


def load_schedule(path: str) -> PulseSchedule:
    return schedule_from_dict(_load_json(path))


# Targets
def target_from_dict(data: dict) -> TargetState:
    from .synthesis import _VARIANTS
    _record(data, "a target")  # refuses a non-object
    if not isinstance(tag := data.get("variant"), str) or tag not in _VARIANTS:
        raise ValueError(f"unknown target variant {tag!r}")
    variant, keys, fixed = _VARIANTS[tag]
    return variant(*_record(data, "a target", *keys), *fixed)


def load_target(path: str) -> TargetState:
    return target_from_dict(_load_json(path))


# States and reports
def state_to_dict(state: JointState) -> dict:
    pairs = state.amplitudes.view(float).reshape(-1, 2)  # [re, im] rows
    return {"fock_dim": state.dim, "amplitudes": pairs.tolist()}


def state_from_dict(data: dict) -> JointState:
    (amplitudes,) = _record(data, "a state", "amplitudes")
    amps = np.array([parse_complex(a) for a in _array(amplitudes, "amplitudes")], dtype=complex)
    if "fock_dim" in data and parse_int(data["fock_dim"]) * 2 != amps.size:
        raise ValueError(f"fock_dim {data['fock_dim']} inconsistent with {amps.size} amplitudes")
    return JointState(amps)


def load_state(path: str) -> JointState:
    return state_from_dict(_load_json(path))


def _populations(state: JointState) -> list[dict]:
    return [{"m": i // 2, "state": "ge"[i % 2], "population": p}
            for i, p in enumerate(state.populations().ravel().tolist())]


def report_to_dict(report: SynthesisReport) -> dict:
    schedule, final = schedule_to_dict(report.schedule), report.predicted_final
    pulses = [{"index": i, **p} for i, p in enumerate(schedule["pulses"])]
    return {"schedule": schedule, "pulses": pulses, "predicted_final": state_to_dict(final),
            "populations": _populations(final), "fidelity_vs_target": report.fidelity_vs_target,
            "exact_phase_fidelity": report.exact_phase_fidelity,
            "total_duration_s": report.schedule.total_duration,
            "target_rotation_rad": report.target_rotation_rad,
            "final_internal_state": report.final_internal_state,
            "truncation_overlap": report.truncation_overlap}
