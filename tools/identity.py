"""Bit-identity of two trees: pulses, kernel and oracle finals, verify fidelities, CLI bytes.

    python3 tools/identity.py --base REV

extracts REV's src/ with `git archive` into a temporary directory, runs one
fixed sweep under REV's src/ and under this working tree's src/, each in its
own Python process, and compares the results through uint64 views, so a
changed sign of zero counts.  Then it runs the CLI cases below as
`python -m ionpulse.cli` under each tree's src/, each tree in a temporary
directory of its own, and compares every byte they write.  Every mismatch is
printed with its case; the exit code is 0 when there are none, 1 otherwise.
Nothing is written to the repository, and no digest is kept: numpy's sin and
cos may round differently on another build, so the two trees are compared on
one machine.

The sweep:
  - the golden targets of tests/golden at eta 0.25, 0.9, 1.5 and 3, at their
    default fock_dim D and at 3 D, from |0>|g>, also stepped pulse by pulse
    through apply_pulse_amplitudes and through build_hamiltonian and propagate;
  - phase states N = 5, 10, 20, 40, 60, 80 at the same etas, D = N + 2 and
    3 N + 2, from |0>|g> and from a seeded start on every level the ladder
    cannot push past the truncation;
  - seeded random complex superpositions N = 5, 20 and 40 at eta 0.25, 0.9
    and 1.5, D = 3 N + 2, from |0>|g>: the benchmark's ladders;
  - a carrier at laser phase 0 and red deposits 1..N at seeded phases and
    durations, N = 5 and 40 at each eta, D = N + 2, from |0>|g>: the carrier
    leaves an exact-zero real part in |0>|e>, so the kernel's reservoir path
    (which every ladder above takes) falls back to its per-pulse loop;
  - one pair a pulse, N = 5 and 40 at each eta, D = N + 2: a carrier at a
    seeded phase, then red 1..N, blue 1..N or 2 N blue-1 pulses at seeded phases
    and durations, from a seeded start whose parts on the ladder's levels
    0..N are +0.0 or -0.0, but on |0>|g> and |0>|e>, which may hold +-1: the
    support bound keeps one pair a pulse, so the oracle's Python sums meet
    zeros of either sign, and CI's parent comparison checks their signs on
    each numpy it installs;
  - a carrier and a blue-400 pulse at eta = 0.25, D = 402, whose coupling
    W_{0,400} underflows, so the kernel raises at pulse 1;
  - 60 seeded schedules of carrier, red and blue pulses with repeated
    orders, from |0>|g>, from a start on the levels below D / 3 and from a
    start on every level.
Each case with kernel and oracle finals also records verify_schedule's
fidelity, as the uint64 word of its float.  A case that raises records the
error's type, message and pulse index instead, and that is compared too.

The CLI cases, each compared by exit code, stdout, stderr and written files:
  - for each golden target: synthesize with --out and --report; simulate
    of that schedule as JSON, as CSV and with --trace; verify with and
    without --target;
  - rabi as CSV and as JSON;
  - verify of a schedule whose "pulses" is not a list, an input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ETAS = (0.25, 0.9, 1.5, 3.0)
OMEGA = 5e4


def _outcome(call):
    """call()'s value, or the type and message of the error it raised, and its
    pulse index where it carries one."""
    try:
        return call()
    except (ValueError, ArithmeticError) as err:
        index = getattr(err, "pulse_index", None)
        return f"{type(err).__name__}: {err}" + ("" if index is None else f" (pulse {index})")


def _finals(ip, oracle, initial, schedule, case, out):
    """The kernel's and the oracle's final amplitudes of schedule from initial,
    and verify_schedule's fidelity as the uint64 word of its float."""
    out[case + " kernel"] = _outcome(lambda: ip.run_schedule(initial, schedule).amplitudes)
    out[case + " oracle"] = _outcome(lambda: oracle._oracle_pass(initial.amplitudes, schedule))
    fid = _outcome(lambda: ip.verify_schedule(initial, schedule))
    out[case + " verify"] = fid if isinstance(fid, str) else int(np.float64(fid).view(np.uint64))


def _stepped(ip, initial, schedule, case, out):
    """The final amplitudes of schedule from initial, stepped pulse by pulse
    through apply_pulse_amplitudes and through build_hamiltonian and propagate."""
    params, amps, state = schedule.params, initial.amplitudes, initial
    for p in schedule.pulses:
        amps = ip.apply_pulse_amplitudes(amps, params, p)
        state = ip.propagate(ip.build_hamiltonian(params, p.kind, p.k, p.phase), state, p.duration)
    out[case + " one-pulse kernel"], out[case + " propagate"] = amps, state.amplitudes


def _compiled(ip, target, params, case, out):
    """The compiled schedule of target, with its pulses recorded; None if it raised."""
    report = _outcome(lambda: ip.compile_target(target, params))
    if isinstance(report, str):
        out[case + " pulses"] = report
        return None
    pulses = report.schedule.pulses
    out[case + " pulses"] = {
        "orders": [f"{p.kind} {p.k}" for p in pulses],
        "phases": np.array([p.phase for p in pulses]),
        "durations": np.array([p.duration for p in pulses]),
    }
    return report.schedule


def _seeded(rng, dim, top):
    """A normalized random state on the levels 0..top of |g> and |e>."""
    amps = np.zeros(2 * dim, dtype=complex)
    amps[: 2 * (top + 1)] = rng.normal(size=2 * (top + 1)) + 1j * rng.normal(size=2 * (top + 1))
    return amps / np.linalg.norm(amps)


def sweep(goldens: list[dict]) -> dict:
    """Every result of the sweep, keyed by case and field, from the ionpulse on sys.path."""
    import ionpulse as ip
    from ionpulse import oracle
    from ionpulse.serialization import target_from_dict

    out = {}
    for eta in ETAS:
        for spec in goldens:
            target = target_from_dict(spec)
            for dim in (ip.default_fock_dim(target), 3 * ip.default_fock_dim(target)):
                case = f"golden {json.dumps(spec, sort_keys=True)} eta={eta} D={dim}"
                params = ip.PhysicalParams(eta, OMEGA, dim)
                schedule = _compiled(ip, target, params, case, out)
                if schedule is not None:
                    _finals(ip, oracle, ip.JointState.ground(dim), schedule, case, out)
                    _stepped(ip, ip.JointState.ground(dim), schedule, case, out)
        for n in (5, 10, 20, 40, 60, 80):
            for dim in (n + 2, 3 * n + 2):
                case = f"phase_state N={n} eta={eta} D={dim}"
                params = ip.PhysicalParams(eta, OMEGA, dim)
                schedule = _compiled(ip, ip.PhaseStateTarget(n, 0.3), params, case, out)
                if schedule is None:
                    continue
                _finals(ip, oracle, ip.JointState.ground(dim), schedule, case + " ground", out)
                seeded = ip.JointState(_seeded(np.random.default_rng(n * dim), dim, dim - n - 2))
                _finals(ip, oracle, seeded, schedule, case + " seeded", out)
    for eta in ETAS[:3]:  # seeded superposition ladders at the benchmark's D = 3 N + 2
        for n in (5, 20, 40):
            c = (1.0, 1j) @ np.random.default_rng(n).normal(size=(2, n + 1))
            target, dim = ip.SuperpositionTarget(tuple(c / np.linalg.norm(c))), 3 * n + 2
            case = f"superposition N={n} eta={eta} D={dim}"
            schedule = _compiled(ip, target, ip.PhysicalParams(eta, OMEGA, dim), case, out)
            if schedule is not None:
                _finals(ip, oracle, ip.JointState.ground(dim), schedule, case, out)
    rng = np.random.default_rng(7)
    for eta in ETAS:  # a reservoir with an exact-zero part: the kernel keeps its loop
        for n in (5, 40):
            pulses = [ip.Pulse("carrier", 0, 0.0, 2e-5)]
            pulses += [ip.Pulse("red", j, float(rng.uniform(0, 2 * math.pi)),
                                float(rng.uniform(0, 3e-4))) for j in range(1, n + 1)]
            schedule = ip.PulseSchedule(ip.PhysicalParams(eta, OMEGA, n + 2), tuple(pulses))
            case = f"carrier at phase 0, red 1-{n} eta={eta} D={n + 2}"
            _finals(ip, oracle, ip.JointState.ground(n + 2), schedule, case, out)
    rng = np.random.default_rng(35)
    for eta in ETAS:  # one pair a pulse: the oracle's Python sums meet zeros of either sign
        for n in (5, 40):
            dim = n + 2
            start = np.zeros(2 * dim, dtype=complex)
            levels = slice(0, 2 * n + 2)  # |0..N>|g> and |0..N>|e>
            start.real[levels], start.imag[levels] = rng.choice([0.0, -0.0], (2, 2 * n + 2))
            start.real[:2], start.imag[:2] = rng.choice([1.0, -1.0, 0.0, -0.0], (2, 2))
            start.real[0] = rng.choice([1.0, -1.0])  # |0>|g> holds amplitude
            initial = ip.JointState(start / np.linalg.norm(start))
            for kind, orders in (("red", range(1, n + 1)), ("blue", range(1, n + 1)),
                                 ("blue", [1] * 2 * n)):
                # half the phases 0: coefficients with exact-zero parts
                size = len(orders) + 1
                phases = rng.uniform(0, 2 * math.pi, size) * rng.integers(2, size=size)
                pulses = [ip.Pulse("carrier", 0, float(phases[0]), 2e-5)]
                pulses += [ip.Pulse(kind, k, float(phase), float(rng.uniform(0, 3e-4)))
                           for k, phase in zip(orders, phases[1:])]
                schedule = ip.PulseSchedule(ip.PhysicalParams(eta, OMEGA, dim), tuple(pulses))
                case = f"signed zeros, carrier and {kind} {orders[0]}-{orders[-1]} x{len(orders)}"
                _finals(ip, oracle, initial, schedule, f"{case} eta={eta} D={dim}", out)
    # W_{0,400} underflows at eta = 0.25: the kernel raises at the blue pulse, index 1
    pulses = (ip.Pulse("carrier", 0, 0.3, 1e-5), ip.Pulse("blue", 400, 0.0, 1e-3))
    schedule = ip.PulseSchedule(ip.PhysicalParams(0.25, OMEGA, 402), pulses)
    _finals(ip, oracle, ip.JointState.ground(402), schedule, "underflow blue 400", out)
    rng = np.random.default_rng(18)
    for i in range(60):
        eta, dim = ETAS[i % len(ETAS)], int(rng.integers(6, 61))
        max_k = dim - 1 if i % 6 == 5 else 3
        pulses = []
        for kind in rng.choice(("carrier", "red", "blue"), size=int(rng.integers(1, 31))).tolist():
            k = 0 if kind == "carrier" else int(rng.integers(1, max_k + 1))
            pulses.append(ip.Pulse(kind, k, float(rng.uniform(0, 2 * math.pi)),
                                   float(rng.uniform(0, 3e-4))))
        schedule = ip.PulseSchedule(ip.PhysicalParams(eta, OMEGA, dim), tuple(pulses))
        for start, top in (("ground", 0), ("third", dim // 3), ("full", dim - 1)):
            initial = ip.JointState(_seeded(rng, dim, top)) if top else ip.JointState.ground(dim)
            _finals(ip, oracle, initial, schedule, f"mixed {i} eta={eta} D={dim} {start}", out)
    return out


# (case, arguments, files it writes); target.json holds the golden target
_GOLDEN_CLI = (
    ("synthesize", ["synthesize", "--target", "target.json", "--out", "schedule.json",
                    "--report", "report.json"], ("schedule.json", "report.json")),
    ("simulate json", ["simulate", "--schedule", "schedule.json"], ()),
    ("simulate csv", ["simulate", "--schedule", "schedule.json", "--format", "csv"], ()),
    ("simulate trace", ["simulate", "--schedule", "schedule.json", "--trace"], ()),
    ("verify", ["verify", "--schedule", "schedule.json"], ()),
    ("verify target", ["verify", "--schedule", "schedule.json", "--target", "target.json"], ()),
)
_BAD_SCHEDULE = {"params": {"eta": 0.25, "omega_carrier_rad_s": 5e4, "fock_dim": 4}, "pulses": ""}
_OTHER_CLI = (
    ("rabi csv", ["rabi", "--m-max", "3", "--k-max", "3"]),
    ("rabi json", ["rabi", "--m-max", "3", "--k-max", "3", "--format", "json"]),
    ("input error", ["verify", "--schedule", "bad.json"]),
)


def cli_outputs(src: Path, goldens: dict[str, dict]) -> dict:
    """Exit code, stdout, stderr and written files of every CLI case, keyed by
    case and field, from `python -m ionpulse.cli` with src on PYTHONPATH, run
    in a temporary directory; goldens maps a tag to its target."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        where = subprocess.run([sys.executable, "-c", "import ionpulse; print(ionpulse.__file__)"],
                               cwd=tmp, env=env, check=True, capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            raise SystemExit(f"ionpulse was imported from {where.stdout.strip()}, not from {src}")

        def run(cwd, case, args, files=()):
            done = subprocess.run([sys.executable, "-m", "ionpulse.cli", *args],
                                  cwd=cwd, env=env, capture_output=True)
            out[f"{case} exit"], out[f"{case} stdout"] = done.returncode, done.stdout
            out[f"{case} stderr"] = done.stderr
            for name in files:
                path = cwd / name
                out[f"{case} {name}"] = path.read_bytes() if path.exists() else None

        for tag, target in goldens.items():  # each in a directory of its own
            (cwd := Path(tmp) / tag).mkdir()
            (cwd / "target.json").write_text(json.dumps(target))
            for case, args, files in _GOLDEN_CLI:
                run(cwd, f"cli {tag} {case}", args, files)
        (Path(tmp) / "bad.json").write_text(json.dumps(_BAD_SCHEDULE))
        for case, args in _OTHER_CLI:
            run(Path(tmp), f"cli {case}", args)
    return out


def _differences(base, head) -> str | None:
    """None if base and head are bit-identical, else what differs."""
    if isinstance(base, bytes) and isinstance(head, bytes) and base != head:
        pairs = enumerate(zip(base, head))
        i = next((i for i, (a, b) in pairs if a != b), min(len(base), len(head)))
        return (f"{len(base)} against {len(head)} bytes, the first difference at byte {i}: "
                f"{base[i : i + 40]!r} against {head[i : i + 40]!r}")
    if isinstance(base, dict) and isinstance(head, dict) and base.keys() == head.keys():
        found = [f"{key}: {d}" for key in base if (d := _differences(base[key], head[key]))]
        return "; ".join(found) or None
    if isinstance(base, np.ndarray) and isinstance(head, np.ndarray):
        if base.dtype != head.dtype or base.shape != head.shape:
            return f"{base.dtype}{base.shape} against {head.dtype}{head.shape}"
        words = [np.ascontiguousarray(a).view(np.uint64) for a in (base, head)]
        bits = words[0] != words[1]
        if not bits.any():
            return None
        i = int(np.flatnonzero(bits)[0]) // (base.itemsize // 8)
        return (f"{int(bits.sum())} words differ, the first in entry {i}: "
                f"{base[i]!r} against {head[i]!r}")
    if type(base) is type(head) and not isinstance(base, (dict, np.ndarray)) and base == head:
        return None
    return f"{base!r} against {head!r}"


def compare(base: dict, head: dict) -> list[str]:
    """One line per case and field whose results differ, or that one side lacks."""
    lines = [f"{key}: only in the base" for key in base.keys() - head.keys()]
    lines += [f"{key}: only in the working tree" for key in head.keys() - base.keys()]
    for key in sorted(base.keys() & head.keys()):
        if (found := _differences(base[key], head[key])) is not None:
            lines.append(f"{key}: {found}")
    return sorted(lines)


def _sweep_to(src: str, goldens: str, out: str):
    """Run the sweep with the ionpulse of src, which must be first on sys.path,
    and pickle its results to out."""
    import ionpulse

    if not ionpulse.__file__.startswith(src):
        raise SystemExit(f"ionpulse was imported from {ionpulse.__file__}, not from {src}")
    with open(goldens) as f:
        results = sweep(json.load(f))
    with open(out, "wb") as f:
        pickle.dump(results, f)


def _run_sweep(src: Path, goldens: Path, out: Path) -> dict:
    """The sweep in a fresh Python process that imports ionpulse from src."""
    paths = [str(src), str(Path(__file__).resolve().parent)]
    args = [str(src), str(goldens), str(out)]
    code = f"import sys; sys.path[:0] = {paths!r}; import identity; identity._sweep_to(*{args!r})"
    subprocess.run([sys.executable, "-c", code], check=True)
    with open(out, "rb") as f:  # written by the sweep above
        return pickle.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    args = parser.parse_args(argv)
    git = ["git", "-C", str(ROOT)]
    rev = subprocess.run(git + ["rev-parse", "--verify", args.base + "^{commit}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    golden = sorted((ROOT / "tests" / "golden").glob("*.json"))
    goldens = {path.stem: json.loads(path.read_text())["target"] for path in golden}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        tree.mkdir()
        (Path(tmp) / "goldens.json").write_text(json.dumps(list(goldens.values())))
        archive = subprocess.run(git + ["archive", "--format=tar", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        base = _run_sweep(tree / "src", Path(tmp) / "goldens.json", Path(tmp) / "base.pkl")
        head = _run_sweep(ROOT / "src", Path(tmp) / "goldens.json", Path(tmp) / "head.pkl")
        base.update(cli_outputs(tree / "src", goldens))
        head.update(cli_outputs(ROOT / "src", goldens))
    mismatches = compare(base, head)
    for line in mismatches:
        print(line)
    errors = sum(isinstance(value, str) for value in head.values())
    print(f"identity: {len(head)} results ({errors} of them errors) against {args.base} "
          f"({rev[:12]}): {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
