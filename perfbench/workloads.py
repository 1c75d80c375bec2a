"""The benchmark's seeded workloads.

Each workload draws its inputs from random.Random(seed), runs them as
ops in a closed loop with one client, checks every output with
checks.py, and returns per-stage wall times in milliseconds.  A cycle
holds a fixed multiset of sizes and eta values in a seeded order, with
seeded target families, angles and amplitudes, so whole cycles cost the
same for every seed.

With a tracer that is enabled, simulate and verify are taken apart into
their public per-pulse calls, and probe() takes each op through the
layers it does not call itself, so every layer is measured on every
workload.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import checks

import ionpulse as ip
from ionpulse import cli as ip_cli
from ionpulse import serialization as ip_ser

OMEGA = ip.DEFAULT_OMEGA_RAD_S
ROADMAP_NS = (5, 20, 80)  # phase states of the ROADMAP baseline table
ROADMAP_THETA = 0.3
CLI_CODE = "import sys; from ionpulse.cli import entry; sys.exit(entry())"
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import ionpulse.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)


@dataclass
class Op:
    id: str
    spec: dict  # target in the serialization schema
    eta: float
    dim: int
    fixed: bool = False  # a ROADMAP table op: checked, kept out of the latency samples
    sub: str = ""  # cli_roundtrip: the subcommand
    column_k: int = -1  # envelope: the sideband order of a coupling column

    @property
    def n(self) -> int:
        spec = self.spec
        return spec.get("n", spec.get("n_max", len(spec.get("amplitudes", (0, 0))) - 1))


def make_target(spec: dict):
    """Build the ionpulse target a spec describes, without ionpulse.serialization."""
    v = spec["variant"]
    if v == "fock":
        return ip.FockTarget(spec["n"])
    if v == "phase_state":
        return ip.PhaseStateTarget(spec["n_max"], spec["theta_rad"])
    if v == "superposition":
        return ip.SuperpositionTarget(tuple(complex(re, im) for re, im in spec["amplitudes"]))
    if v == "coherent":
        return ip.CoherentTarget(complex(*spec["alpha"]), spec["n_max"])
    if v in ("even_coherent", "odd_coherent"):
        return ip.ParityCoherentTarget(complex(*spec["alpha"]), spec["n_max"], v.split("_")[0])
    if v == "bell":
        return ip.BellTarget()
    raise ValueError(f"unknown variant {v!r}")


def pair_count(schedule) -> int:
    """2x2 rotations one application of the schedule performs: sum of D - k."""
    return sum(schedule.params.fock_dim - p.k for p in schedule.pulses)


def pulse_docs(schedule) -> list[dict]:
    return [{"kind": p.kind, "k": p.k, "phase_rad": p.phase, "duration_s": p.duration}
            for p in schedule.pulses]


def _phase_spec(rng, n):
    return {"variant": "phase_state", "n_max": n, "theta_rad": rng.uniform(0.0, 2 * math.pi)}


def _superposition_spec(rng, n):
    c = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in c))
    return {"variant": "superposition", "amplitudes": [[a.real / norm, a.imag / norm] for a in c]}


# Size classes per cycle: (N, etas of its ops), 28 ops.  The p50 of op
# latency falls near the bottom of the fourth class and the p90 near the
# bottom of the last, each at least twice as costly as the class below.
# A percentile inside a class of equal sizes does not jump to another size
# when noise reorders a few samples, and near its bottom it keeps reading
# the class's fast samples while a minority of the run is slowed down.
# About two thirds of the ops are at eta = 0.25, the rest at 0.9 or 1.5.
_Q = 0.25
_SMALL = ((_Q, _Q, _Q, 1.5, 0.9), (_Q, _Q, _Q, 0.9), (_Q, _Q, _Q, 1.5))  # ranks 1-13
_MIDDLE = (_Q,) * 7 + (0.9, 1.5)  # ranks 14-22: p50 (14.5) in its 0.25 ops
SYNTH_CLASSES = (
    (5, _SMALL[0]), (10, _SMALL[1]), (15, _SMALL[2]), (25, _MIDDLE),
    (40, (_Q, 0.9)), (60, (_Q, _Q, 0.9, 1.5)),  # ranks 25-28: p90 (25.2)
)
ORACLE_CLASSES = (
    (5, _SMALL[0]), (10, _SMALL[1]), (15, _SMALL[2]), (20, _MIDDLE),
    (30, (_Q, 1.5)), (40, (_Q, _Q, 0.9, 1.5)),  # p90 in the 0.25 ops of N = 40
)


def _ladder_cycle(rng, classes, tag):
    """Phase states and random superpositions, one op per (N, eta) entry."""
    ops = []
    for n, etas in classes:
        for eta in etas:
            spec = _phase_spec(rng, n) if rng.random() < 0.5 else _superposition_spec(rng, n)
            ops.append(Op(f"{tag}.{len(ops)}", spec, eta, 3 * n + 2))
    rng.shuffle(ops)
    return ops


def _roadmap_ops():
    return [Op(f"roadmap.N{n}", {"variant": "phase_state", "n_max": n, "theta_rad": ROADMAP_THETA},
               0.25, 3 * n + 2, fixed=True) for n in ROADMAP_NS]


# ---------------------------------------------------------------------------
# Calls into the layers, decomposed into public per-pulse calls when traced


def compile_op(tr, op):
    target = make_target(op.spec)
    params = ip.PhysicalParams(op.eta, OMEGA, op.dim)
    with tr.span("synthesis.compile_target", key=op.id) as attrs:
        report = ip.compile_target(target, params)
        attrs.update(pulses=len(report.schedule.pulses), pairs=pair_count(report.schedule))
    return report


def simulate(tr, schedule, key=None):
    ground = ip.JointState.ground(schedule.params.fock_dim)
    if not tr.enabled:
        with tr.span("states.run_schedule"):
            return ip.run_schedule(ground, schedule)
    with tr.span("states.run_schedule", key=key, pairs=pair_count(schedule)):
        amps = ground.amplitudes
        for i, pulse in enumerate(schedule.pulses):
            with tr.span("states.apply_pulse_amplitudes", pairs=schedule.params.fock_dim - pulse.k):
                amps = ip.apply_pulse_amplitudes(amps, schedule.params, pulse, pulse_index=i)
        return ip.JointState(amps)


def verify(tr, schedule, key=None) -> float:
    ground = ip.JointState.ground(schedule.params.fock_dim)
    if not tr.enabled:
        with tr.span("oracle.verify_schedule"):
            return ip.verify_schedule(ground, schedule)
    with tr.span("oracle.verify_schedule", key=key):
        closed = simulate(tr, schedule, key)
        state = ground
        for p in schedule.pulses:
            with tr.span("oracle.build_hamiltonian") as attrs:
                ham = ip.build_hamiltonian(schedule.params, p.kind, p.k, p.phase)
                attrs["series_terms"] = ham.series_terms
            with tr.span("oracle.propagate"):
                state = ip.propagate(ham, state, p.duration)
        return ip.fidelity(closed, state)


def serialize(tr, report):
    """Schedule and report to JSON text, then the schedule back."""
    with tr.span("serialization.dump") as attrs:
        schedule_text = json.dumps(ip_ser.schedule_to_dict(report.schedule))
        report_text = json.dumps(ip_ser.report_to_dict(report))
        attrs["bytes"] = len(schedule_text) + len(report_text)
    with tr.span("serialization.load"):
        return ip_ser.schedule_from_dict(json.loads(schedule_text))


def core_probe(tr, schedule):
    """Time rabi_frequency on the op's own pairs: a sample, then the full table."""
    params, dim = schedule.params, schedule.params.fock_dim
    ks = sorted({p.k for p in schedule.pulses})
    pairs = [(m, p.k) for p in schedule.pulses for m in range(dim - p.k)]
    sample = pairs[:: max(1, len(pairs) // 64)][:64]
    with tr.span("core.rabi_sample", calls=len(sample)):
        for m, k in sample:
            ip.rabi_frequency(params, m, k)
    with tr.span("core.table", calls=sum(dim - k for k in ks)):
        for k in ks:
            for m in range(dim - k):
                ip.rabi_frequency(params, m, k)


def run_cli(argv, cwd, env):
    """One ionpulse process, as the console script runs it.

    Returns (returncode, stdout, peak RSS in kB, wall ms).
    """
    out_path = os.path.join(cwd, "stdout.txt")
    with open(out_path, "w") as out, open(os.path.join(cwd, "stderr.txt"), "w") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-c", CLI_CODE, *argv],
                                stdout=out, stderr=err, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = (time.perf_counter_ns() - start) / 1e6
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        return proc.returncode, fh.read(), usage.ru_maxrss, elapsed


def cli_main(tr, argv, call, cwd):
    """In-process ionpulse.cli.main on the same files; its output is discarded."""
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with tr.span("cli.main", sub=argv[0], call=call):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return ip_cli.main(argv)
    finally:
        os.chdir(here)


def import_probe(tr, env):
    """cli.import: five fresh interpreters time `import ionpulse.cli` themselves."""
    for _ in range(5):
        with tr.span("cli.import") as attrs:
            done = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                                  capture_output=True, text=True, check=True)
            attrs["import_ms"] = float(done.stdout)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    single_pass = False  # True: one cycle is the whole workload

    def __init__(self, seed: int, workdir: str, env: dict):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = env
        self.seen = {"N": Counter(), "D": Counter(), "eta": Counter()}
        self.peak_rss_kb = 0  # ionpulse child processes, where a workload starts them

    def setup(self, tr):
        """Generate inputs, precompile, and warm up; timed as set-up."""

    def fixed_ops(self):
        return []

    def cycle(self, index):
        raise NotImplementedError

    def run(self, op, tr):
        """Run one op; returns (problems, {stage: ms}) and counts the op's sizes."""
        self.seen["N"][op.n] += 1
        self.seen["D"][op.dim] += 1
        self.seen["eta"][op.eta] += 1
        return self._run(op, tr)

    def probe(self, op, tr):
        """Traced runs: take the op through the layers it does not call."""
        return []


class SynthLadder(Workload):
    """Closed-form path: compile, simulate from |0>|g>, JSON round trip."""

    name = "synth_ladder"

    def setup(self, tr):
        warm = Op("warmup", {"variant": "phase_state", "n_max": 3, "theta_rad": 0.1}, 0.25, 11)
        self._run(warm, tr)

    def fixed_ops(self):
        return _roadmap_ops()

    def cycle(self, index):
        return _ladder_cycle(self.rng, SYNTH_CLASSES, f"c{index}")

    def _run(self, op, tr):
        t0 = time.perf_counter_ns()
        report = compile_op(tr, op)
        t1 = time.perf_counter_ns()
        final = simulate(tr, report.schedule, op.id)
        t2 = time.perf_counter_ns()
        reloaded = serialize(tr, report)
        t3 = time.perf_counter_ns()
        self.last_report = report
        times = {"op_ms": (t3 - t0) / 1e6, "compile_ms": (t1 - t0) / 1e6,
                 "simulate_ms": (t2 - t1) / 1e6, "serialize_ms": (t3 - t2) / 1e6}
        return checks.check_synth(op.spec, report, final, reloaded), times

    def probe(self, op, tr):
        report = self.last_report
        core_probe(tr, report.schedule)
        # The oracle on one pulse (the last, highest order) from |0>|g>: a whole
        # verify at D up to 182 would cost seconds per op.
        single = ip.PulseSchedule(report.schedule.params, report.schedule.pulses[-1:])
        return checks.check_oracle(verify(tr, single))


class OracleVerify(Workload):
    """verify_schedule on schedules compiled during set-up."""

    name = "oracle_verify"

    def setup(self, tr):
        self.ops = _ladder_cycle(self.rng, ORACLE_CLASSES, "c")
        self.reports = {}
        for op in self.ops + _roadmap_ops():
            tr.begin_op(op.id)
            self.reports[op.id] = compile_op(tr, op)
        warm = Op("warmup", {"variant": "phase_state", "n_max": 3, "theta_rad": 0.1}, 0.25, 11)
        verify(tr, compile_op(tr, warm).schedule)  # first eigh and BLAS start-up

    def fixed_ops(self):
        return _roadmap_ops()

    def cycle(self, index):
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def _run(self, op, tr):
        t0 = time.perf_counter_ns()
        fid = verify(tr, self.reports[op.id].schedule, op.id)
        t1 = time.perf_counter_ns()
        return checks.check_oracle(fid), {"op_ms": (t1 - t0) / 1e6, "verify_ms": (t1 - t0) / 1e6}

    def probe(self, op, tr):
        report = self.reports[op.id]
        core_probe(tr, report.schedule)
        serialize(tr, report)
        return []


class CliRoundtrip(Workload):
    """ionpulse processes: synthesize --out, simulate, verify --target per target.

    Each subprocess is one op.
    """

    name = "cli_roundtrip"
    SUBS = ("synthesize", "simulate", "verify")

    def setup(self, tr):
        rng = self.rng
        specs = [{"variant": "fock", "n": rng.randint(1, 8)} for _ in range(4)]
        specs.append({"variant": "bell"})
        for variant, low in (("coherent", 2), ("odd_coherent", 3)):
            for _ in range(2):
                alpha = cmath.rect(rng.uniform(0.3, 1.2), rng.uniform(0, 2 * math.pi))
                specs.append({"variant": variant, "alpha": [alpha.real, alpha.imag],
                              "n_max": rng.randint(low, 6)})
        specs += [_phase_spec(rng, rng.randint(2, 8)) for _ in range(3)]
        self.specs = specs
        for i, spec in enumerate(specs):
            with open(os.path.join(self.workdir, f"t{i}.json"), "w") as fh:
                json.dump(spec, fh)
        self.dims = [ip.default_fock_dim(make_target(s)) for s in specs]
        for sub in self.SUBS:  # byte-compiled modules and a warm page cache
            run_cli(self._argv(0, sub), self.workdir, self.env)

    def _argv(self, i, sub, in_process=False):
        schedule = f"s{i}{'_in' if in_process else ''}.json"
        if sub == "synthesize":
            return ["synthesize", "--target", f"t{i}.json", "--out", schedule]
        if sub == "simulate":
            return ["simulate", "--schedule", f"s{i}.json"]
        return ["verify", "--schedule", f"s{i}.json", "--target", f"t{i}.json"]

    def cycle(self, index):
        """Four targets; every three cycles cover all twelve in a new order."""
        part = index % 3
        if part == 0:
            self.order = list(range(len(self.specs)))
            self.rng.shuffle(self.order)
        return [Op(f"c{index}.t{i}.{sub}", self.specs[i], ip.DEFAULT_ETA, self.dims[i], sub=sub)
                for i in self.order[4 * part:4 * part + 4] for sub in self.SUBS]

    def _run(self, op, tr):
        i = int(op.id.split(".t")[1].split(".")[0])
        with tr.span("cli.subprocess", sub=op.sub, call=op.id):
            rc, stdout, rss_kb, ms = run_cli(self._argv(i, op.sub), self.workdir, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        spec = op.spec if op.sub == "simulate" else None
        problems = checks.check_cli(rc, stdout, op.sub == "verify", spec)
        return problems, {"op_ms": ms, f"cli_ms.{op.sub}": ms}

    def probe(self, op, tr):
        i = int(op.id.split(".t")[1].split(".")[0])
        if cli_main(tr, self._argv(i, op.sub, in_process=True), op.id, self.workdir) != 0:
            return [f"in-process cli.main {op.sub} failed"]
        if op.sub != "verify":
            return []
        with tr.span("serialization.load"):
            ip_ser.load_schedule(os.path.join(self.workdir, f"s{i}.json"))
        report = compile_op(tr, op)
        simulate(tr, report.schedule, op.id)
        serialize(tr, report)
        core_probe(tr, report.schedule)
        return checks.check_oracle(verify(tr, report.schedule))


def cli_probe(tr, workdir, env):
    """CLI layer figures for workloads that do not start ionpulse processes."""
    probe = CliRoundtrip(0, workdir, env)
    spec = {"variant": "fock", "n": 2}
    probe.specs, probe.dims = [spec], [ip.default_fock_dim(make_target(spec))]
    with open(os.path.join(workdir, "t0.json"), "w") as fh:
        json.dump(spec, fh)
    problems = []
    for r in range(2):
        for sub in CliRoundtrip.SUBS:
            op = Op(f"cliprobe{r}.t0.{sub}", spec, ip.DEFAULT_ETA, probe.dims[0], sub=sub)
            tr.begin_op(op.id)
            problems += probe._run(op, tr)[0]
            if cli_main(tr, probe._argv(0, sub, in_process=True), op.id, workdir) != 0:
                problems.append(f"in-process cli.main {sub} failed")
    return problems


class Envelope(Workload):
    """Correctness sweep against mpmath: Fock compiles and coupling columns."""

    name = "envelope"
    single_pass = True
    ETAS_FOCK = (0.25, 0.9, 1.2, 1.5, math.sqrt(2.0))
    NS_FOCK = (1, 2, 25, 60, 80, 100)
    ETAS_COLUMN = (0.25, 0.9, 1.5, 3.0)
    KS_COLUMN = (0, 1, 3, 10, 30)
    M_MAX = 400

    def setup(self, tr):
        checks.mp_rabi(0.25, OMEGA, 3, 1)  # imports mpmath
        extra = self.rng.sample([n for n in range(3, 100) if n not in self.NS_FOCK], 3)
        self.ns = sorted(self.NS_FOCK + tuple(extra))
        self.max_err = {}

    def cycle(self, index):
        ops = [Op(f"fock.eta{eta:.6g}.n{n}", {"variant": "fock", "n": n}, eta, 3 * n + 2)
               for eta in self.ETAS_FOCK for n in self.ns]
        ops += [Op(f"column.eta{eta:g}.k{k}", {"variant": "column", "n": self.M_MAX}, eta,
                   self.M_MAX + 1, column_k=k)
                for eta in self.ETAS_COLUMN for k in self.KS_COLUMN]
        self.rng.shuffle(ops)
        return ops

    def _run(self, op, tr):
        if op.column_k < 0:
            report = compile_op(tr, op)
            return checks.check_fock(op.n, pulse_docs(report.schedule), op.eta, OMEGA, op.dim), {}
        k = op.column_k
        params = ip.PhysicalParams(op.eta, OMEGA, self.M_MAX + k + 1)
        values = []
        with tr.span("core.rabi_frequency"):
            for m in range(self.M_MAX + 1):
                try:
                    values.append(ip.rabi_frequency(params, m, k).value)
                except ip.RabiUnderflowError:
                    values.append(None)
        problems, worst = checks.check_coupling(values, op.eta, OMEGA, k)
        self.max_err[op.eta] = max(self.max_err.get(op.eta, 0.0), worst)
        return problems, {}


WORKLOADS = {w.name: w for w in (SynthLadder, OracleVerify, CliRoundtrip, Envelope)}

