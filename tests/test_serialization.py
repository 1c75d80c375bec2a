import json
import math
import os
import stat

import numpy as np
import pytest

from ionpulse import (
    BellTarget,
    CoherentTarget,
    EntangledCarrierTarget,
    FockTarget,
    JointState,
    ParityCoherentTarget,
    PhaseStateTarget,
    PhysicalParams,
    Pulse,
    PulseSchedule,
    SuperpositionTarget,
    compile_target,
)
from ionpulse.serialization import (
    atomic_write_text,
    params_from_dict,
    params_to_dict,
    report_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    save_schedule,
    load_schedule,
    load_state,
    load_target,
    state_from_dict,
    state_to_dict,
    target_from_dict,
)
from ionpulse.synthesis import parse_complex


@pytest.fixture
def schedule(params):
    return PulseSchedule(
        params,
        (
            Pulse.carrier(0.5, 3.241317509388881e-05),
            Pulse.red(1, 0.7, 0.00025930540075111056),
            Pulse.blue(3, 1.9, 1.5e-4),
        ),
        provenance="test",
    )


class TestComplexPairs:
    def test_round_trip(self):
        z = 0.6 - 0.8j
        pairs = state_to_dict(JointState([z, 0.0, 0.0, 0.0]))["amplitudes"]
        assert [parse_complex(pair) for pair in pairs] == [z, 0, 0, 0]

    def test_scalar_accepted(self):
        assert parse_complex(2) == 2 + 0j

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_complex([1.0])
        with pytest.raises(ValueError):
            parse_complex("1+2j")


class TestScheduleFormat:
    def test_normative_field_names(self, schedule):
        doc = schedule_to_dict(schedule)
        assert set(doc) == {"params", "pulses", "provenance"}
        assert set(doc["params"]) == {"eta", "omega_carrier_rad_s", "fock_dim"}
        assert set(doc["pulses"][0]) == {"kind", "k", "phase_rad", "duration_s"}

    def test_dict_round_trip_identity(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.provenance == schedule.provenance
        assert restored.params.eta == schedule.params.eta
        assert restored.params.omega_carrier == schedule.params.omega_carrier
        assert restored.params.fock_dim == schedule.params.fock_dim
        for a, b in zip(restored.pulses, schedule.pulses):
            assert (a.kind, a.k) == (b.kind, b.k)
            assert a.phase == b.phase  # bit-exact on the decimal repr
            assert a.duration == b.duration

    def test_json_text_round_trip_stable(self, schedule):
        text = json.dumps(schedule_to_dict(schedule))
        again = json.dumps(schedule_to_dict(schedule_from_dict(json.loads(text))))
        assert text == again

    def test_file_round_trip(self, schedule, tmp_path):
        path = str(tmp_path / "sched.json")
        save_schedule(path, schedule)
        restored = load_schedule(path)
        assert restored.pulses == schedule.pulses

    def test_params_round_trip(self, params):
        assert params_from_dict(params_to_dict(params)).eta == params.eta


R = 1 / math.sqrt(2)

# one document per tag, with README's keys, and the target it reads as
TARGET_DOCS = [
    ({"variant": "fock", "n": 3}, FockTarget(3)),
    (
        {"variant": "superposition", "amplitudes": [[0.6, 0.0], 0.0, [0.0, 0.8]]},
        SuperpositionTarget((0.6, 0.0, 0.8j)),
    ),
    ({"variant": "phase_state", "n_max": 4, "theta_rad": 1.25}, PhaseStateTarget(4, 1.25)),
    ({"variant": "coherent", "alpha": [0.5, -0.25], "n_max": 10}, CoherentTarget(0.5 - 0.25j, 10)),
    (
        {"variant": "even_coherent", "alpha": 0.9, "n_max": 8},
        ParityCoherentTarget(0.9, 8, "even"),
    ),
    (
        {"variant": "odd_coherent", "alpha": [0.9, 0.0], "n_max": 7},
        ParityCoherentTarget(0.9, 7, "odd"),
    ),
    ({"variant": "bell"}, BellTarget()),
    (
        {
            "variant": "entangled_carrier",
            "amplitudes": [[R, 0.0], [0.0, R]],
            "carrier_duration_s": 2e-5,
            "carrier_phase_rad": 0.3,
        },
        EntangledCarrierTarget((R, 1j * R), 2e-5, 0.3),
    ),
]


class TestTargetFormat:
    @pytest.mark.parametrize(
        "doc,target", TARGET_DOCS, ids=[doc["variant"] for doc, _ in TARGET_DOCS]
    )
    def test_decodes(self, doc, target):
        decoded = target_from_dict(doc)
        assert type(decoded) is type(target)
        assert decoded == target

    def test_variant_tags(self):
        tags = {doc["variant"] for doc, _ in TARGET_DOCS}
        assert tags == {
            "fock",
            "superposition",
            "phase_state",
            "coherent",
            "even_coherent",
            "odd_coherent",
            "bell",
            "entangled_carrier",
        }

    def test_complex_numbers_as_pairs(self):
        doc = {"variant": "superposition", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}
        assert target_from_dict(doc).amplitudes == (0.6, 0.8j)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            target_from_dict({"variant": "squeezed"})


class TestStateFormat:
    def test_round_trip_exact(self, rng):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = JointState(amps)
        restored = state_from_dict(state_to_dict(state))
        np.testing.assert_array_equal(restored.amplitudes, state.amplitudes)

    def test_dim_consistency_checked(self):
        doc = state_to_dict(JointState.ground(4))
        doc["fock_dim"] = 3
        with pytest.raises(ValueError):
            state_from_dict(doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "load,text",
    [
        (load_target, '{"variant": "phase_state", "n_max": 3, "theta_rad": %s}'),
        (load_state, '{"amplitudes": [[1.0, 0.0], [%s, 0.0], [0.0, 0.0], [0.0, 0.0]]}'),
        (
            load_schedule,
            '{"params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4}, '
            '"pulses": [{"kind": "red", "k": 1, "phase_rad": %s, "duration_s": 1e-5}]}',
        ),
    ],
    ids=["target", "state", "schedule"],
)
def test_loaders_refuse_non_finite_numbers(tmp_path, load, text, literal):
    path = tmp_path / "doc.json"
    path.write_text(text % literal)
    with pytest.raises(ValueError, match="non-finite JSON number"):
        load(str(path))


class TestReportFormat:
    def test_keys_and_values(self):
        report = compile_target(BellTarget(), PhysicalParams(0.25, 5e4, 5))
        doc = report_to_dict(report)
        assert doc["fidelity_vs_target"] >= 1 - 1e-10
        assert "oracle_fidelity" not in doc  # verify runs the oracle, not synthesize
        assert len(doc["pulses"]) == 2
        assert doc["total_duration_s"] == pytest.approx(
            sum(p["duration_s"] for p in doc["pulses"]), rel=1e-12, abs=0.0
        )
        json.dumps(doc)  # fully JSON-serializable


def test_atomic_write(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "hello")
    assert path.read_text() == "hello"
    atomic_write_text(str(path), "replaced")
    assert path.read_text() == "replaced"
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_atomic_write_modes(tmp_path, umask):
    # a new file gets what open() would give it, 0666 less the umask; a
    # replaced file keeps its own mode, whatever the umask
    path = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(str(path), "new")
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        path.chmod(0o640)
        atomic_write_text(str(path), "replaced")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == "replaced"
    assert list(tmp_path.iterdir()) == [path]
