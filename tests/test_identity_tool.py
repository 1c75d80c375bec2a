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
