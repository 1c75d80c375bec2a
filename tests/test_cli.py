import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ionpulse import PhysicalParams, compile_fock
from ionpulse.cli import main
from ionpulse.serialization import atomic_write_text, save_schedule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_target(tmp_path, doc, name="target.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRabi:
    def test_csv_header_and_default_eta_set(self, capsys):
        code, out, _ = run_cli(capsys, "rabi", "--m-max", "0", "--k-max", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["eta", "m", "k", "rabi_rad_s", "rabi_over_omega"]
        assert len(rows) == 5 * 4  # five standard etas, k = 0..3
        etas = sorted({float(r["eta"]) for r in rows})
        assert etas == [0.202, 0.25, 0.35, 0.5, 0.9]

    def test_reference_row_value(self, capsys):
        code, out, _ = run_cli(capsys, "rabi", "--eta", "0.25", "--k-max", "0")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["rabi_over_omega"]) == pytest.approx(
            math.exp(-0.03125) / 2, rel=1e-12
        )
        assert float(row["rabi_over_omega"]) == pytest.approx(0.4846, abs=1e-4)

    def test_empty_ranges_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "rabi", "--m-max", "-1")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines == ["eta,m,k,rabi_rad_s,rabi_over_omega"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "rabi", "--eta", "0.5", "--k-max", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["rows"]
        assert len(doc["rows"]) == 3

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, out, _ = run_cli(capsys, "rabi", "--k-max", "1", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("eta,m,k")

    def test_k0_column_monotone_decreasing_in_eta(self, capsys):
        # the carrier coupling (W/2) e^{-eta^2/2} shrinks as eta grows
        code, out, _ = run_cli(capsys, "rabi", "--m-max", "0", "--k-max", "0")
        assert code == 0
        rows = sorted(
            ((float(r["eta"]), float(r["rabi_rad_s"])) for r in csv.DictReader(io.StringIO(out)))
        )
        values = [v for _, v in rows]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSynthesize:
    def test_fock_two_pulse_table(self, capsys, tmp_path):
        target = write_target(tmp_path, {"variant": "fock", "n": 1})
        sched_path = tmp_path / "sched.json"
        code, out, _ = run_cli(
            capsys, "synthesize", "--target", target, "--out", str(sched_path)
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["pulses"]) == 2
        assert report["fidelity_vs_target"] >= 1 - 1e-9
        saved = json.loads(sched_path.read_text())
        assert len(saved["pulses"]) == 2

    def test_phase_state_durations(self, capsys, tmp_path):
        target = write_target(
            tmp_path, {"variant": "phase_state", "n_max": 1, "theta_rad": 0.4}
        )
        code, out, _ = run_cli(capsys, "synthesize", "--target", target)
        assert code == 0
        report = json.loads(out)
        t0 = report["pulses"][0]["duration_s"]
        t1 = report["pulses"][1]["duration_s"]
        assert t0 == pytest.approx(3.24e-5, rel=0.01)
        assert t1 == pytest.approx(2.6e-4, rel=0.01)

    def test_report_file(self, capsys, tmp_path):
        target = write_target(tmp_path, {"variant": "bell"})
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "synthesize", "--target", target, "--report", str(report_path)
        )
        assert code == 0
        assert json.loads(report_path.read_text())["fidelity_vs_target"] >= 1 - 1e-9

    def test_malformed_target_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, "synthesize", "--target", str(bad))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "JSONDecodeError"

    def test_unknown_variant_exits_2(self, capsys, tmp_path):
        target = write_target(tmp_path, {"variant": "squeezed"})
        code, _, err = run_cli(capsys, "synthesize", "--target", target)
        assert code == 2
        assert "variant" in json.loads(err)["error"]["message"]

    def test_csv_rejected(self, capsys, tmp_path):
        target = write_target(tmp_path, {"variant": "fock", "n": 1})
        code, _, err = run_cli(capsys, "synthesize", "--target", target, "--format", "csv")
        assert code == 2


class TestSimulate:
    def _fock_schedule(self, tmp_path, n=1, dim=8):
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=dim)
        report = compile_fock(n, params)
        path = tmp_path / "sched.json"
        save_schedule(str(path), report.schedule)
        return str(path)

    def test_empty_schedule_echoes_initial(self, capsys, tmp_path):
        doc = {
            "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4},
            "pulses": [],
            "provenance": "",
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "simulate", "--schedule", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["final"]["amplitudes"][0] == [1.0, 0.0]

    def test_fock_population(self, capsys, tmp_path):
        path = self._fock_schedule(tmp_path, n=2)
        code, out, _ = run_cli(capsys, "simulate", "--schedule", path)
        assert code == 0
        pops = {
            (p["m"], p["state"]): p["population"] for p in json.loads(out)["populations"]
        }
        assert pops[(2, "g")] == pytest.approx(1.0, abs=1e-10)

    def test_bell_populations(self, capsys, tmp_path):
        target = write_target(tmp_path, {"variant": "bell"})
        sched = tmp_path / "bell.json"
        code, _, _ = run_cli(capsys, "synthesize", "--target", target, "--out", str(sched))
        assert code == 0
        code, out, _ = run_cli(capsys, "simulate", "--schedule", str(sched))
        pops = {
            (p["m"], p["state"]): p["population"] for p in json.loads(out)["populations"]
        }
        assert pops[(0, "e")] == pytest.approx(0.5, abs=1e-10)
        assert pops[(1, "g")] == pytest.approx(0.5, abs=1e-10)

    def test_trace(self, capsys, tmp_path):
        path = self._fock_schedule(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--schedule", path, "--trace")
        assert code == 0
        assert len(json.loads(out)["trace"]) == 2

    def test_csv_populations(self, capsys, tmp_path):
        path = self._fock_schedule(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--schedule", path, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["state"] for r in rows} == {"g", "e"}

    def test_initial_state_file(self, capsys, tmp_path):
        doc = {
            "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4},
            "pulses": [],
            "provenance": "",
        }
        sched = tmp_path / "empty.json"
        sched.write_text(json.dumps(doc))
        state = {
            "fock_dim": 4,
            "amplitudes": [[0.0, 0.0]] * 2 + [[1.0, 0.0]] + [[0.0, 0.0]] * 5,
        }
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state))
        code, out, _ = run_cli(
            capsys, "simulate", "--schedule", str(sched), "--initial", str(state_path)
        )
        assert code == 0
        assert json.loads(out)["final"]["amplitudes"][2] == [1.0, 0.0]

    def test_truncation_error_reports_pulse_index(self, capsys, tmp_path):
        doc = {
            "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 3},
            "pulses": [
                {"kind": "blue", "k": 2, "phase_rad": 0.0, "duration_s": 4.29e-4},
                {"kind": "red", "k": 1, "phase_rad": 0.0, "duration_s": 1e-4},
            ],
            "provenance": "",
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--schedule", str(path))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "TruncationOverflowError"
        assert error["pulse_index"] == 1


class TestVerify:
    def _synth(self, capsys, tmp_path, target_doc):
        target = write_target(tmp_path, target_doc)
        sched = tmp_path / "sched.json"
        code, _, _ = run_cli(capsys, "synthesize", "--target", target, "--out", str(sched))
        assert code == 0
        return target, str(sched)

    def test_compiled_schedule_passes(self, capsys, tmp_path):
        _, sched = self._synth(capsys, tmp_path, {"variant": "fock", "n": 3})
        code, out, _ = run_cli(capsys, "verify", "--schedule", sched)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["oracle_fidelity"] >= 1 - 1e-8

    def test_corrupted_duration_fails_against_target(self, capsys, tmp_path):
        target, sched = self._synth(capsys, tmp_path, {"variant": "fock", "n": 2})
        doc = json.loads(Path(sched).read_text())
        doc["pulses"][0]["duration_s"] *= 1.1
        atomic_write_text(sched, json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--schedule", sched, "--target", target)
        assert code == 1
        result = json.loads(out)
        assert result["pass"] is False
        assert result["target_fidelity"] < 1 - 1e-3
        # the two propagation paths still agree on the (wrong) state
        assert result["oracle_fidelity"] >= 1 - 1e-8

    def test_fock_dim_too_small_structured_error(self, capsys, tmp_path):
        doc = {
            "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 3},
            "pulses": [
                {"kind": "blue", "k": 2, "phase_rad": 0.0, "duration_s": 4.29e-4},
                {"kind": "red", "k": 1, "phase_rad": 0.0, "duration_s": 1e-4},
            ],
            "provenance": "",
        }
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "TruncationOverflowError"

    def test_tolerance_flag_loosens_target_gate(self, capsys, tmp_path):
        target, sched = self._synth(capsys, tmp_path, {"variant": "fock", "n": 2})
        doc = json.loads(Path(sched).read_text())
        doc["pulses"][0]["duration_s"] *= 1.1
        atomic_write_text(sched, json.dumps(doc))
        # fails at the default tolerance, passes when loosened to 0.1
        code, _, _ = run_cli(capsys, "verify", "--schedule", sched, "--target", target)
        assert code == 1
        code, out, _ = run_cli(
            capsys, "verify", "--schedule", sched, "--target", target, "--tolerance", "0.1"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True


def test_negative_tolerance_is_input_error(capsys, tmp_path):
    target = write_target(tmp_path, {"variant": "fock", "n": 1})
    code, _, err = run_cli(
        capsys, "synthesize", "--target", target, "--tolerance=-1e-9"
    )
    assert code == 2
    assert "tolerance" in json.loads(err)["error"]["message"]


def test_module_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ionpulse.cli", "rabi", "--eta", "0.25", "--k-max", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("eta,m,k")
