import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _results(final, phases, error="TruncationOverflowError: red k=3"):
    return {
        "case kernel": final,
        "case pulses": {"orders": ["carrier 0", "red 1"], "phases": phases},
        "other kernel": error,
    }


def test_identical_results_compare_clean():
    final, phases = np.array([0.5 + 0.0j, -0.0 - 0.5j]), np.array([0.1, 2.0])
    assert identity.compare(_results(final, phases), _results(final.copy(), phases.copy())) == []


def test_a_signed_zero_and_one_ulp_are_mismatches():
    final, phases = np.array([0.5 + 0.0j, -0.0 - 0.5j]), np.array([0.1, 2.0])
    zero = final.copy()
    zero[1] = complex(0.0, -0.5)  # equal as numbers: only the bits tell
    ulp = phases.copy()
    ulp[1] = np.nextafter(2.0, 3.0)
    lines = identity.compare(_results(final, phases), _results(zero, ulp))
    assert [line.split(":")[0] for line in lines] == ["case kernel", "case pulses"]
    assert "the first in entry 1" in lines[0] and "phases" in lines[1]


def test_errors_and_missing_cases_are_mismatches():
    final, phases = np.array([1.0 + 0.0j]), np.array([0.1, 2.0])
    base = _results(final, phases)
    head = _results(final, phases, error="TruncationOverflowError: red k=4")
    del head["case pulses"]
    head["new kernel"] = final
    lines = identity.compare(base, head)
    assert lines == sorted([
        "case pulses: only in the base",
        "new kernel: only in the working tree",
        "other kernel: 'TruncationOverflowError: red k=3' against 'TruncationOverflowError: red k=4'",
    ])
    # an error on one side and amplitudes on the other
    assert identity.compare({"x": final}, {"x": "ValueError: k"}) != []


def test_one_byte_of_cli_output_is_a_mismatch():
    out = b'{\n  "pass": true\n}\n'
    base = {"cli verify exit": 0, "cli verify stdout": out, "cli verify stderr": b""}
    head = {**base, "cli verify stdout": out.replace(b"true", b"True")}
    assert identity.compare(base, {**base, "cli verify stdout": bytes(out)}) == []
    assert identity.compare(base, head) == [
        "cli verify stdout: 19 against 19 bytes, the first difference at byte 12: "
        "b'true\\n}\\n' against b'True\\n}\\n'"
    ]
    # a missing last byte and another exit code count too
    head = {**base, "cli verify exit": 1, "cli verify stdout": out[:-1]}
    assert [line.split(":")[0] for line in identity.compare(base, head)] == [
        "cli verify exit", "cli verify stdout"
    ]


def test_cli_cases_run_under_the_given_source_tree():
    src = Path(__file__).resolve().parent.parent / "src"
    out = identity.cli_outputs(src, {"fock": {"variant": "fock", "n": 1}})
    codes = {key: value for key, value in out.items() if key.endswith(" exit")}
    assert codes.pop("cli input error exit") == 2 and set(codes.values()) == {0}
    assert len(codes) == len(identity._GOLDEN_CLI) + 2
    assert out["cli fock synthesize stdout"] == out["cli fock synthesize report.json"]
    assert out["cli fock synthesize schedule.json"].startswith(b'{\n  "params"')
    assert b'"type": "ValueError"' in out["cli input error stderr"]


def test_verify_fidelity_is_recorded_bit_for_bit():
    import ionpulse as ip
    from ionpulse import oracle

    params = ip.PhysicalParams(0.25, 5e4, 14)
    schedule = ip.compile_target(ip.PhaseStateTarget(4, 0.3), params).schedule
    ground, out = ip.JointState.ground(14), {}
    identity._finals(ip, oracle, ground, schedule, "case", out)
    assert sorted(out) == ["case kernel", "case oracle", "case verify"]
    fid = np.float64(ip.verify_schedule(ground, schedule))
    assert out["case verify"] == int(fid.view(np.uint64))
    # one ulp of the fidelity is a mismatch, and so is an error in its place
    ulp = {"case verify": int(np.nextafter(fid, 0.0).view(np.uint64))}
    assert [line.split(":")[0] for line in identity.compare(out, {**out, **ulp})] == ["case verify"]
    assert identity.compare(out, {**out, "case verify": "ValueError: dim"}) != []
