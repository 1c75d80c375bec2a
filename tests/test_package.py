import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ionpulse

# the src/ionpulse line count: a change that grows the package fails, and one
# that shrinks it sets the budget to its new size
LINE_BUDGET = 1621

# the per-pulse reference API: only the tests and the traced benchmark call it
PER_PULSE_REFERENCE = {
    "apply_pulse_amplitudes",
    "build_hamiltonian",
    "propagate",
    "HamiltonianMatrix",
    "rabi_frequency",
    "RabiValue",
}


def test_public_names_are_pinned():
    # the package re-exports core's and states' __all__ and the names it lists
    # for synthesis and oracle; a name added to or dropped from one of them
    # changes the public surface
    assert sorted(ionpulse.__all__) == [
        "BellTarget",
        "CoherentTarget",
        "DEFAULT_ETA",
        "DEFAULT_OMEGA_RAD_S",
        "EXCITED",
        "FockTarget",
        "GROUND",
        "HamiltonianMatrix",
        "JointState",
        "ParityCoherentTarget",
        "PhaseStateTarget",
        "PhysicalParams",
        "Pulse",
        "PulseSchedule",
        "RabiUnderflowError",
        "RabiValue",
        "SuperpositionTarget",
        "SynthesisReport",
        "TargetState",
        "TruncationOverflowError",
        "__version__",
        "apply_pulse_amplitudes",
        "build_hamiltonian",
        "compile_target",
        "default_fock_dim",
        "fidelity",
        "propagate",
        "rabi_column",
        "rabi_frequency",
        "run_schedule",
        "target_state_vector",
        "verify_schedule",
    ]
    for name in ionpulse.__all__:
        assert hasattr(ionpulse, name), name


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from ionpulse import *", namespace)
    assert set(ionpulse.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ionpulse, name) for name in ionpulse.__all__)


def test_dir_lists_every_public_name_and_lazy_module():
    assert set(ionpulse.__all__) | {"synthesis", "oracle"} <= set(dir(ionpulse))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        ionpulse.not_a_name
    assert not hasattr(ionpulse, "_VARIANTS")  # a lazy module's private name stays there


def test_the_lazy_lists_hold_each_public_definition_of_their_module():
    # synthesis and oracle carry no __all__: the package's lists are their only one
    for home, names in ionpulse._LAZY.items():
        module = importlib.import_module(f"ionpulse.{home}")
        defined = {
            name for name, value in vars(module).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
        }
        assert sorted(names) == sorted(defined)


def test_a_lazy_name_binds_its_module_on_first_use():
    # a fresh interpreter: importing the package loads neither lazy module; the
    # first synthesis name read imports synthesis alone and binds all its names
    code = (
        "import json, sys\n"
        "import ionpulse\n"
        "lazy = ionpulse._LAZY\n"
        "before = ['ionpulse.synthesis' in sys.modules, 'ionpulse.oracle' in sys.modules,\n"
        "          any(n in vars(ionpulse) for names in lazy.values() for n in names)]\n"
        "ionpulse.compile_target\n"
        "after = [name in vars(ionpulse) for name in lazy['synthesis']]\n"
        "oracle = [name in vars(ionpulse) for name in lazy['oracle']]\n"
        "ionpulse.verify_schedule\n"
        "print(json.dumps([before, after, oracle, 'ionpulse.oracle' in sys.modules,\n"
        "                  all(name in vars(ionpulse) for name in lazy['oracle'])]))\n"
    )
    src = str(Path(ionpulse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after, oracle, oracle_loaded, oracle_bound = json.loads(done.stdout)
    assert before == [False, False, False]
    assert all(after) and not any(oracle)
    assert oracle_loaded and oracle_bound


def test_package_stays_within_its_line_budget():
    lines = sum(
        len(path.read_text().splitlines())
        for path in sorted(Path(ionpulse.__file__).parent.glob("*.py"))
    )
    assert lines == LINE_BUDGET, lines


def test_only_the_per_pulse_reference_names_itself_in_the_package():
    # no other definition in src/ionpulse imports, calls or builds one of these
    # names, so they can leave the package without a call site rewritten
    found = []
    for path in sorted(Path(ionpulse.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", None) in PER_PULSE_REFERENCE:
                continue
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                name = sub.name if isinstance(sub, ast.alias) else name
                if name in PER_PULSE_REFERENCE:
                    found.append(f"{path.name}:{sub.lineno} {name}")
    assert found == []


def test_readme_library_snippet_emits_the_durations_it_quotes(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    quoted = re.search(r"carrier pulse of (\S+) s and\s+the red-1 pulse of (\S+) s", readme)
    exec(compile(snippet, "README.md", "exec"), {})
    carrier, red = (line.split() for line in capsys.readouterr().out.splitlines()[:2])
    assert (carrier[0], red[:2]) == ("carrier", ["red", "1"])
    emitted = [f"{float(pulse[3]):.4e}" for pulse in (carrier, red)]
    assert emitted == [f"{float(q):.4e}" for q in quoted.groups()]


def test_a_failing_given_test_reports_as_a_failure(tmp_path):
    # hypothesis imports libcst to write a failing example's patch, and libcst's
    # mypy_extensions.TypedDict import warns; under the project's filterwarnings
    # that warning must not turn the failure into a pytest INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
