import copy
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ionpulse import (
    DEFAULT_OMEGA_RAD_S,
    FockTarget,
    JointState,
    PhaseStateTarget,
    PhysicalParams,
    cli,
    compile_target,
    oracle,
    rabi_column,
    run_schedule,
    states,
)
from ionpulse.cli import main
from ionpulse.serialization import atomic_write_text, save_schedule, state_to_dict


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

    def test_every_cell_reads_back_as_the_library_value(self, capsys):
        code, out, _ = run_cli(capsys, "rabi")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == len(cli.RABI_ETA_SET) * 11  # m = 0, k = 0..10
        for eta, m, k, w, ratio in rows:
            want = float(rabi_column(float(eta), DEFAULT_OMEGA_RAD_S, int(k), 1)[int(m)])
            assert float(eta) in cli.RABI_ETA_SET
            assert (float(w), float(ratio)) == (want, want / DEFAULT_OMEGA_RAD_S)

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

    def test_report_file_is_the_stdout(self, capsys, tmp_path):
        target = write_target(tmp_path, {"variant": "phase_state", "n_max": 3, "theta_rad": 0.7})
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "synthesize", "--target", target, "--report", str(report_path)
        )
        assert code == 0
        assert report_path.read_bytes() == out.encode()

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

    def test_fock_dim_below_default_exits_2(self, capsys, tmp_path):
        # the phase state N = 3 needs fock_dim >= 5
        target = write_target(tmp_path, {"variant": "phase_state", "n_max": 3, "theta_rad": 0.4})
        code, out, err = run_cli(capsys, "synthesize", "--target", target, "--fock-dim", "4")
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == "fock_dim 4 too small for top Fock level 3 (need >= 5)"

    def test_csv_rejected(self, tmp_path):
        target = write_target(tmp_path, {"variant": "fock", "n": 1})
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--target", target, "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("theta", ["NaN", "Infinity"])
    def test_non_finite_target_number_exits_2(self, capsys, tmp_path, theta):
        path = tmp_path / "target.json"
        path.write_text('{"variant": "phase_state", "n_max": 3, "theta_rad": %s}' % theta)
        code, out, err = run_cli(capsys, "synthesize", "--target", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in json.loads(err)["error"]["message"]


class TestSimulate:
    def _fock_schedule(self, tmp_path, n=1, dim=8):
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=dim)
        report = compile_target(FockTarget(n), params)
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

    def test_populations_agree_bit_for_bit(self, capsys, tmp_path):
        # np.abs of a complex array can differ from the scalar abs in the last
        # bit (353 of these 1,000 amplitudes): populations(), population(m, s)
        # and the CLI's JSON and CSV rows must all read the scalar abs(z) ** 2
        rng = np.random.default_rng(1000)
        amps = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        state = JointState(amps / np.linalg.norm(amps))
        initial, empty = tmp_path / "state.json", tmp_path / "empty.json"
        initial.write_text(json.dumps(state_to_dict(state)))
        params = {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 500}
        empty.write_text(json.dumps({"params": params, "pulses": []}))
        argv = ("simulate", "--schedule", str(empty), "--initial", str(initial))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        populations = json.loads(out)["populations"]
        rows = [(p["m"], "ge".index(p["state"]), p["population"]) for p in populations]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        table = list(csv.reader(io.StringIO(out)))[1:]
        csv_rows = [(int(m), "ge".index(s), float(p)) for m, s, _, _, p in table]
        scalar = [abs(z) ** 2 for z in state.amplitudes.tolist()]
        assert [p for _, _, p in rows] == scalar
        assert csv_rows == rows
        assert state.populations().ravel().tolist() == scalar
        assert [state.population(m, s) for m, s, _ in rows] == scalar

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

    def test_trace_in_csv_exits_2(self, capsys, tmp_path):
        # the CSV table holds only the final state, so the trace would be dropped
        path = self._fock_schedule(tmp_path)
        code, out, err = run_cli(
            capsys, "simulate", "--schedule", path, "--trace", "--format", "csv"
        )
        assert_one_json_error(code, out, err)
        assert "--trace" in json.loads(err)["error"]["message"]

    def test_csv_populations(self, capsys, tmp_path):
        path = self._fock_schedule(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--schedule", path, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["state"] for r in rows} == {"g", "e"}

    def test_csv_cells_read_back_as_the_final_state(self, capsys, tmp_path):
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=6)
        schedule = compile_target(PhaseStateTarget(4, 0.3), params).schedule
        path = tmp_path / "sched.json"
        save_schedule(str(path), schedule)
        code, out, _ = run_cli(capsys, "simulate", "--schedule", str(path), "--format", "csv")
        assert code == 0
        final = run_schedule(JointState.ground(6), schedule)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "state", "re", "im", "population"]
        assert len(rows) == 1 + 2 * 6
        for m, label, re, im, population in rows[1:]:
            s = "ge".index(label)
            a = final.amplitude(int(m), s)
            assert (float(re), float(im)) == (a.real, a.imag)
            assert float(population) == final.population(int(m), s)

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

    def test_nan_initial_amplitude_exits_2(self, capsys, tmp_path):
        path = self._fock_schedule(tmp_path, n=1, dim=4)
        state_path = tmp_path / "state.json"
        state_path.write_text('{"amplitudes": [[1, 0], [NaN, 0]' + ", [0, 0]" * 6 + "]}")
        code, out, err = run_cli(
            capsys, "simulate", "--schedule", path, "--initial", str(state_path)
        )
        assert code == 2
        assert out == ""
        assert "non-finite" in json.loads(err)["error"]["message"]

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

    @pytest.mark.parametrize("name", ["_run", "_oracle_pass"], ids=["kernel", "oracle"])
    def test_an_unnormalized_final_is_an_input_error(self, capsys, tmp_path, monkeypatch, name):
        # a kernel or oracle final scaled by 1 + 1e-9 fails the norm check verify
        # keeps on both raw finals: exit 2, the ValueError on stderr, nothing on stdout
        _, sched = self._synth(capsys, tmp_path, {"variant": "fock", "n": 2})
        final = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: final(*args) * (1 + 1e-9))
        code, out, err = run_cli(capsys, "verify", "--schedule", sched)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "ValueError", "message": "state norm deviates from 1 by 1.000e-09"}

    def test_target_check_runs_the_closed_form_once(self, capsys, tmp_path, monkeypatch):
        target, sched = self._synth(capsys, tmp_path, {"variant": "fock", "n": 2})
        run, calls = states._run, []

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        for module in (states, oracle):
            monkeypatch.setattr(module, "_run", counted)
        code, out, _ = run_cli(capsys, "verify", "--schedule", sched, "--target", target)
        assert code == 0
        assert json.loads(out)["target_fidelity"] >= 1 - 1e-9
        assert len(calls) == 1

    def test_reads_the_support_rule_once(self, capsys, tmp_path, monkeypatch):
        # the kernel and the oracle pass both run from one states._support plan
        phase_state = {"variant": "phase_state", "n_max": 4, "theta_rad": 0.3}
        _, sched = self._synth(capsys, tmp_path, phase_state)
        support, calls = states._support, []

        def counted(amps, dim, pulses):
            calls.append(len(pulses))
            return support(amps, dim, pulses)

        for module in (states, oracle):
            monkeypatch.setattr(module, "_support", counted)
        code, out, _ = run_cli(capsys, "verify", "--schedule", sched)
        assert code == 0 and json.loads(out)["pass"] is True
        assert calls == [5]

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

    def test_target_past_the_schedules_fock_dim_names_its_top_level(self, capsys, tmp_path):
        # a schedule at fock_dim 4 cannot hold the 7 levels of a phase state of N = 6
        _, sched = self._synth(capsys, tmp_path, {"variant": "fock", "n": 2})
        doc = {"variant": "phase_state", "n_max": 6, "theta_rad": 0.0}
        target = write_target(tmp_path, doc, name="big.json")
        code, out, err = run_cli(capsys, "verify", "--schedule", sched, "--target", target)
        assert_one_json_error(code, out, err)
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "fock_dim 4 cannot hold top Fock level 6" in error["message"]

    def test_fock_dim_past_a_dense_matrix_budget_passes(self, capsys, tmp_path):
        # a dense (2D, 2D) H at fock_dim 2897 would take 512.2 MiB
        doc = {
            "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 2897},
            "pulses": [{"kind": "red", "k": 1, "phase_rad": 0.0, "duration_s": 1e-4}],
            "provenance": "",
        }
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "verify", "--schedule", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert json.loads(out)["pass"] is True
        assert peak < 16 * 2**20

    def test_fock_at_a_carrier_laguerre_zero_round_trips(self, capsys, tmp_path):
        # W_{1,0} = 0 at eta = 1: the carrier cannot turn pair 1, so the
        # compiler emits carrier-then-red
        target = write_target(tmp_path, {"variant": "fock", "n": 1})
        sched = tmp_path / "sched.json"
        code, out, _ = run_cli(
            capsys, "synthesize", "--target", target, "--eta", "1", "--out", str(sched)
        )
        assert code == 0
        assert "carrier-then-red" in json.loads(out)["schedule"]["provenance"]
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(sched), "--target", target)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_vacuum_coherent_at_its_default_fock_dim(self, capsys, tmp_path):
        # alpha = 0 compiles at D = 2, fewer levels than its n_max + 1 weights
        doc = {"variant": "coherent", "alpha": 0, "n_max": 4}
        target, sched = self._synth(capsys, tmp_path, doc)
        code, out, _ = run_cli(capsys, "verify", "--schedule", sched, "--target", target)
        assert code == 0
        assert json.loads(out)["target_fidelity"] == 1.0

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


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_fock_dim_past_any_address_space_exits_2(capsys, tmp_path, command):
    # 2e15 complex amplitudes are 28.4 PiB: the allocation is refused at once
    doc = {
        "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 10**15},
        "pulses": [{"kind": "red", "k": 1, "phase_rad": 0.0, "duration_s": 1e-4}],
        "provenance": "",
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--schedule", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"].endswith("MemoryError")


def test_an_order_past_the_truncation_exits_2_in_simulate_and_verify(capsys, tmp_path):
    # red k = D has no pair: simulate once ran it as a no-op while verify refused it
    doc = {
        "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4},
        "pulses": [{"kind": "red", "k": 4, "phase_rad": 0.0, "duration_s": 1e-5}],
        "provenance": "",
    }
    path = tmp_path / "past.json"
    path.write_text(json.dumps(doc))
    errors = []
    for command in ("simulate", "verify"):
        code, out, err = run_cli(capsys, command, "--schedule", str(path))
        assert_one_json_error(code, out, err)
        errors.append(json.loads(err)["error"])
    assert errors[0] == errors[1] == {
        "type": "ValueError", "message": "pulse 0: sideband order k=4 needs k < fock_dim=4"
    }


# flags that the subcommand does not read; argparse's usage error exits 2
@pytest.mark.parametrize(
    "argv",
    [
        ["rabi", "--fock-dim", "8"],
        ["synthesize", "--target", "t.json", "--format", "json"],
        ["simulate", "--schedule", "s.json", "--eta", "0.3"],
        ["simulate", "--schedule", "s.json", "--omega-rad-s", "1e4"],
        ["simulate", "--schedule", "s.json", "--fock-dim", "8"],
        ["verify", "--schedule", "s.json", "--eta", "0.3"],
        ["verify", "--schedule", "s.json", "--omega-rad-s", "1e4"],
        ["verify", "--schedule", "s.json", "--fock-dim", "8"],
        ["verify", "--schedule", "s.json", "--format", "json"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_unread_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rabi", "--omega-rad-s", "inf"],
        ["rabi", "--eta", "inf"],
        ["rabi", "--eta", "nan"],
        ["synthesize", "--target", "t.json", "--tolerance", "inf"],
        ["verify", "--schedule", "s.json", "--tolerance", "nan"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_non_finite_numeric_flag_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite and positive" in json.loads(err)["error"]["message"]


def test_negative_tolerance_is_input_error(capsys, tmp_path):
    target = write_target(tmp_path, {"variant": "fock", "n": 1})
    code, _, err = run_cli(
        capsys, "synthesize", "--target", target, "--tolerance=-1e-9"
    )
    assert code == 2
    assert "tolerance" in json.loads(err)["error"]["message"]



def assert_one_json_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


_PARAMS = {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4}
_PULSE = {"kind": "red", "k": 1, "phase_rad": 0.0, "duration_s": 1e-5}


# each document and record is a JSON object and "pulses" a JSON array; a
# string or an object as "pulses" once loaded as an empty schedule that passed.
# A missing key is named with its record, not raised as a bare KeyError.
@pytest.mark.parametrize(
    "file,doc,expected",
    [
        ("target", [1, 2], "JSON object"),
        ("target", "fock", "JSON object"),
        ("target", 3, "JSON object"),
        ("schedule", [1, 2], "JSON object"),
        ("schedule", "x", "JSON object"),
        ("schedule", 3, "JSON object"),
        ("schedule", {"params": [], "pulses": []}, "JSON object"),
        ("schedule", {"params": _PARAMS, "pulses": ""}, "JSON array"),
        ("schedule", {"params": _PARAMS, "pulses": {}}, "JSON array"),
        ("schedule", {"params": _PARAMS, "pulses": 3}, "JSON array"),
        ("schedule", {"params": _PARAMS, "pulses": [_PULSE, 1]}, "JSON object"),
        ("state", [1, 2], "JSON object"),
        ("state", "x", "JSON object"),
        ("state", 3, "JSON object"),
        ("state", {"fock_dim": 4, "amplitudes": ""}, "JSON array"),
        ("target", {"variant": "fock"}, "a target has no 'n'"),
        ("schedule", {"pulses": []}, "a schedule has no 'params'"),
        ("schedule", {"params": {"eta": 0.25, "fock_dim": 4}, "pulses": []},
         "params has no 'omega_carrier_rad_s'"),
        ("schedule", {"params": _PARAMS, "pulses": [_PULSE, {"kind": "red", "k": 1}]},
         "pulse 1 has no 'phase_rad'"),
        ("schedule", {"params": _PARAMS, "pulses": [{"kind": "red", "k": 1, "phase_rad": 0.0}]},
         "pulse 0 has no 'duration_s'"),
        ("state", {"fock_dim": 4}, "a state has no 'amplitudes'"),
    ],
)
def test_document_of_the_wrong_json_type_exits_2(capsys, tmp_path, file, doc, expected):
    empty = write_target(tmp_path, {"params": _PARAMS, "pulses": []}, "empty.json")
    path = write_target(tmp_path, doc)
    runs = {
        "target": [("synthesize", "--target", path)],
        "schedule": [(command, "--schedule", path) for command in ("simulate", "verify")],
        "state": [("simulate", "--schedule", empty, "--initial", path)],
    }[file]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert_one_json_error(code, out, err)
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert expected in error["message"]


# a JSON value of the wrong type is refused, not rounded or parsed into one
@pytest.mark.parametrize(
    "doc",
    [
        {"variant": "fock", "n": 2.7},
        {"variant": "fock", "n": True},
        {"variant": "phase_state", "n_max": 3.9, "theta_rad": 0.4},
        {"variant": "phase_state", "n_max": 3, "theta_rad": "0.4"},
        {"variant": "coherent", "alpha": ["nan", 0], "n_max": 3},
        {"variant": "coherent", "alpha": True, "n_max": 3},
    ],
    ids=["n-float", "n-bool", "n_max-float", "theta-str", "alpha-nan-str", "alpha-bool"],
)
def test_mistyped_target_field_exits_2(capsys, tmp_path, doc):
    target = write_target(tmp_path, doc)
    assert_one_json_error(*run_cli(capsys, "synthesize", "--target", target))


def test_pulse_list_is_not_a_target(capsys, tmp_path):
    # a forward red/blue sequence is a schedule file, run by simulate or verify
    doc = {
        "variant": "alternating",
        "carrier_duration_s": 1e-5,
        "carrier_phase_rad": 0.0,
        "sideband_pulses": [{"duration_s": 1e-5, "phase_rad": 0.0}],
    }
    code, out, err = run_cli(capsys, "synthesize", "--target", write_target(tmp_path, doc))
    assert_one_json_error(code, out, err)
    assert "unknown target variant 'alternating'" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "field,value",
    [
        ("fock_dim", 8.9), ("k", 2.5), ("eta", "0.25"), ("duration_s", True),
        # refused, not turned by str() into a label such as "None"
        ("kind", None), ("kind", 1), ("kind", ["red"]),
        ("provenance", None), ("provenance", 7), ("provenance", ["bell"]),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_mistyped_schedule_field_exits_2(capsys, tmp_path, command, field, value):
    params = {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 8}
    pulse = {"kind": "red", "k": 2, "phase_rad": 0.0, "duration_s": 1e-4}
    doc = {"params": params, "pulses": [pulse], "provenance": ""}
    (params if field in params else doc if field in doc else pulse)[field] = value
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    assert_one_json_error(*run_cli(capsys, command, "--schedule", str(path)))


@pytest.mark.parametrize(
    "state",
    [
        {"fock_dim": 4.0, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7},
        {"fock_dim": 4, "amplitudes": [True] + [0.0] * 7},
    ],
    ids=["fock_dim-float", "amplitude-bool"],
)
def test_mistyped_state_field_exits_2(capsys, tmp_path, state):
    doc = {
        "params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4},
        "pulses": [],
        "provenance": "",
    }
    sched = tmp_path / "empty.json"
    sched.write_text(json.dumps(doc))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state))
    argv = ("simulate", "--schedule", str(sched), "--initial", str(state_path))
    assert_one_json_error(*run_cli(capsys, *argv))

_JSON_TYPE = {type(None): "null", bool: "bool", int: "number", float: "number", str: "string",
              list: "array", dict: "object"}
_REQUIRED = {
    "schedule": {"params", "pulses", "eta", "omega_carrier_rad_s", "fock_dim",
                 "kind", "k", "phase_rad", "duration_s"},
    "state": {"amplitudes"},
}
_DELETE = object()


def _breakages(key, value, required):
    """Values of another JSON type than value's, a number for a string, 2.5
    for an integer, and deletion if key is required.  Hypothesis favours early
    choices, so the empty values, which a loader may read as nothing, lead."""
    others = ("", {}, [], None, True, "x", [1, 2], {"a": 1})
    out = [v for v in others if _JSON_TYPE[type(v)] != _JSON_TYPE[type(value)]]
    out += [3] if isinstance(value, str) else [2.5] if type(value) is int else []
    return out + [_DELETE] * (key in required)


@st.composite
def _documents(draw):
    """A valid schedule and a start it runs from at D = 12: levels 0 and 1,
    which three pulses of k <= 2 move no further than level 7."""
    orders = st.sampled_from([("carrier", 0), ("red", 1), ("red", 2), ("blue", 1), ("blue", 2)])
    pulses = [
        {"kind": kind, "k": k, "phase_rad": draw(st.floats(0.0, 6.0)),
         "duration_s": draw(st.floats(0.0, 1e-4))}
        for kind, k in draw(st.lists(orders, max_size=3))
    ]
    params = {"eta": draw(st.floats(0.1, 2.0)), "omega_carrier_rad_s": 5e4, "fock_dim": 12}
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    parts[0] += 2.0  # a norm of at least 1
    amps = np.zeros((12, 2, 2))  # (level, g/e, re/im)
    amps[:2] = (parts / np.linalg.norm(parts)).reshape(2, 2, 2)
    state = {"fock_dim": 12, "amplitudes": amps.reshape(24, 2).tolist()}
    # "pulses" first, for the same reason: it is the list that once loaded empty
    return {"schedule": {"pulses": pulses, "params": params, "provenance": "test"}, "state": state}


# a node of a valid document given a value of another JSON type, or a
# required key deleted: the command exits 2 with one JSON error and no output,
# and a deleted key is named in a ValueError
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=_documents(), data=st.data())
def test_malformed_document_exits_2(capsys, tmp_path, docs, data):
    paths = {name: write_target(tmp_path, doc, f"{name}.json") for name, doc in docs.items()}
    runs = [("simulate", "--schedule", paths["schedule"], "--initial", paths["state"]),
            ("verify", "--schedule", paths["schedule"])]
    for argv in runs:
        assert run_cli(capsys, *argv)[0] == 0
    name = data.draw(st.sampled_from(["schedule", "state"]))
    broken = node = copy.deepcopy(docs[name])
    while True:  # down from the root, stopping at each level with odds 1/2
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if not isinstance(node[key], (dict, list)) or not node[key] or data.draw(st.booleans()):
            break
        node = node[key]
    breakage = data.draw(st.sampled_from(_breakages(key, node[key], _REQUIRED[name])))
    if breakage is _DELETE:
        del node[key]
    else:
        node[key] = breakage
    write_target(tmp_path, broken, f"{name}.json")
    for argv in runs[: 2 if name == "schedule" else 1]:
        code, out, err = run_cli(capsys, *argv)
        assert_one_json_error(code, out, err)
        if breakage is _DELETE:
            error = json.loads(err)["error"]
            assert error["type"] == "ValueError", error
            assert f"has no {key!r}" in error["message"], error


def test_module_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ionpulse.cli", "rabi", "--eta", "0.25", "--k-max", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("eta,m,k")
