"""Command-line interface: rabi | synthesize | simulate | verify.

Each subcommand declares only the flags it reads: simulate and verify
take the physical parameters from the schedule file, so only rabi and
synthesize take --eta and --omega-rad-s, and only synthesize --fock-dim.
Exit codes: 0 success, 1 verification/fidelity failure, 2 input error
(argparse's own usage errors included).  Input errors emit a
machine-readable JSON object on stderr.  Number formatting is
locale-independent ('.' decimal separator).  A command imports synthesis,
oracle and csv itself where it runs them, so simulate loads neither module.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .core import DEFAULT_ETA, DEFAULT_OMEGA_RAD_S, PhysicalParams, rabi_column
from .serialization import _populations, atomic_write_text, load_schedule, load_state, load_target
from .serialization import report_to_dict, save_schedule, state_to_dict
from .states import JointState, _overlaps, run_schedule

# Lamb-Dicke parameters shown in the standard coupling-strength table.
RABI_ETA_SET = (0.202, 0.25, 0.35, 0.5, 0.9)


# flags that more than one subcommand reads
_SHARED = {
    "--eta": dict(type=float, default=None, help="Lamb-Dicke parameter"),
    "--omega-rad-s": dict(type=float, default=DEFAULT_OMEGA_RAD_S,
                          help="carrier Rabi frequency in rad/s"),
    "--out": dict(default=None, help="output file (stdout when omitted)"),
    "--format": dict(choices=("json", "csv"), default=None, help="output format"),
    "--tolerance": dict(type=float, default=None, help="fidelity deviation tolerance"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ionpulse", description="Compile, simulate, and verify "
                                     "sideband pulse schedules for a trapped ion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rabi = sub.add_parser("rabi", help="tabulate sideband Rabi frequencies")
    p_rabi.add_argument("--m-max", type=int, default=0, help="largest Fock index (-1 for none)")
    p_rabi.add_argument("--k-max", type=int, default=10, help="largest sideband order (-1 for none)")

    p_syn = sub.add_parser("synthesize", help="compile a target state into a pulse schedule")
    p_syn.add_argument("--target", required=True, help="target JSON file")
    p_syn.add_argument("--report", default=None, help="also write the report JSON here")
    p_syn.add_argument("--fock-dim", type=int, default=None, help="Fock truncation dimension")

    p_sim = sub.add_parser("simulate", help="run a schedule and print the final state")
    p_sim.add_argument("--schedule", required=True, help="schedule JSON file")
    p_sim.add_argument("--initial", default="ground", help="'ground' or a state JSON file")
    p_sim.add_argument("--trace", action="store_true", help="include intermediate states")

    p_ver = sub.add_parser("verify", help="check a schedule against the Hamiltonian oracle")
    p_ver.add_argument("--schedule", required=True, help="schedule JSON file")
    p_ver.add_argument("--target", default=None, help="optional target JSON to also check")

    for p, flags in ((p_rabi, ("--eta", "--omega-rad-s", "--out", "--format")),
                     (p_syn, ("--eta", "--omega-rad-s", "--out", "--tolerance")),
                     (p_sim, ("--out", "--format")), (p_ver, ("--out", "--tolerance"))):
        for flag in flags:
            p.add_argument(flag, **_SHARED[flag])
    p_syn.set_defaults(eta=DEFAULT_ETA, tolerance=1e-9)
    p_ver.set_defaults(tolerance=1e-8)
    return parser


def _emit(doc, out: str | None):
    """Write doc, a dict as indented JSON or a list of rows (header first) as CSV,
    to out, or to stdout when out is None."""
    if isinstance(doc, dict):
        text = json.dumps(doc, indent=2) + "\n"
    else:
        import csv  # only CSV output loads it
        buf = io.StringIO()
        csv.writer(buf).writerows(doc)
        text = buf.getvalue()
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_rabi(args) -> int:
    etas = [args.eta] if args.eta is not None else list(RABI_ETA_SET)
    size, orders = max(args.m_max, -1) + 1, range(max(args.k_max, -1) + 1)
    omega, rows = args.omega_rad_s, []
    for eta in etas:
        columns = [rabi_column(eta, omega, k, size).tolist() for k in orders]
        for m, ws in enumerate(zip(*columns)):
            rows += [(eta, m, k, w, w / omega) for k, w in enumerate(ws)]
    header = ("eta", "m", "k", "rabi_rad_s", "rabi_over_omega")
    if args.format == "json":
        _emit({"rows": [dict(zip(header, row)) for row in rows]}, args.out)
    else:
        _emit([header, *rows], args.out)
    return 0


def cmd_synthesize(args) -> int:
    from .synthesis import compile_target, default_fock_dim
    target = load_target(args.target)
    fock_dim = args.fock_dim if args.fock_dim is not None else default_fock_dim(target)
    params = PhysicalParams(eta=args.eta, omega_carrier=args.omega_rad_s, fock_dim=fock_dim)
    doc = report_to_dict(report := compile_target(target, params))
    if args.out:
        save_schedule(args.out, report.schedule)
    if args.report:
        _emit(doc, args.report)
    _emit(doc, None)
    return 0 if report.fidelity_vs_target >= 1.0 - args.tolerance else 1


def cmd_simulate(args) -> int:
    if args.trace and args.format == "csv":
        raise ValueError("--trace needs --format json: the CSV table holds only the final state")
    schedule = load_schedule(args.schedule)
    ground = args.initial == "ground"
    initial = JointState.ground(schedule.params.fock_dim) if ground else load_state(args.initial)
    result = run_schedule(initial, schedule, keep_trace=args.trace)
    final, trace = result if args.trace else (result, None)
    if args.format == "csv":
        rows = zip(_populations(final), state_to_dict(final)["amplitudes"])
        doc = [("m", "state", "re", "im", "population")]
        doc += [(p["m"], p["state"], *z, p["population"]) for p, z in rows]
    else:
        doc = {"final": state_to_dict(final), "populations": _populations(final)}
        if trace is not None:
            doc["trace"] = [state_to_dict(s) for s in trace]
    _emit(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    from .oracle import _finals
    schedule = load_schedule(args.schedule)
    final, oracle_fid = _finals(JointState.ground(schedule.params.fock_dim), schedule)
    passed = oracle_fid >= 1.0 - args.tolerance
    doc = {"oracle_fidelity": oracle_fid, "tolerance": args.tolerance}
    if args.target is not None:
        from .synthesis import target_state_vector
        target = target_state_vector(load_target(args.target), schedule.params)
        doc["target_fidelity"] = target_fid = _overlaps(target.amplitudes, final)[0]
        passed = passed and target_fid >= 1.0 - args.tolerance
    doc["pass"] = passed
    _emit(doc, args.out)
    return 0 if passed else 1


_COMMANDS = {"rabi": cmd_rabi, "synthesize": cmd_synthesize, "simulate": cmd_simulate,
             "verify": cmd_verify}

_INPUT_ERRORS = (ValueError, ArithmeticError, KeyError, TypeError, OSError, MemoryError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("tolerance", "eta", "omega_rad_s"):  # each finite and positive, if given
            value = getattr(args, name, None)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "pulse_index", None) is not None:
            error["pulse_index"] = exc.pulse_index
        sys.stderr.write(json.dumps({"error": error}) + "\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
