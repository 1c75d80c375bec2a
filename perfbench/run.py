#!/usr/bin/env python3
"""ionpulse benchmark: seeded workloads, end-to-end metrics, a traced run.

Run from the root of a checkout; ionpulse is imported from ./src.

    python3 perfbench/run.py --workload synth_ladder --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Workloads: synth_ladder, oracle_verify, cli_roundtrip, envelope (see
perfbench/README.md).  One client runs ops in a closed loop: whole
cycles of ops, until --seconds have passed and the latency samples
allow a p90 with ten samples beyond it.  --trace 0 prints the
end-to-end metrics; --trace 1 records spans around every call into a
layer and prints the per-layer metrics.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Run records
and spans go to perfbench/out/.  "--workload all" runs every workload,
untraced and traced, in child processes, and prints the ROADMAP
baseline table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # fixed before numpy loads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from spans import Tracer, layer_metrics  # noqa: E402  (no numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LISTED = ("synth_ladder", "oracle_verify", "cli_roundtrip")  # the timed workloads
ALL = LISTED + ("envelope",)
MIN_SAMPLES = 100  # a p90 with at least ten samples beyond it
SETUP_REPEATS = 3  # setup_s is the median of this many fresh processes
MAX_LOOP_S = 120.0  # stop starting cycles; a run must end within 180 s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ALL + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    return parser.parse_args(argv)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Set-up, measurement loop and records


def set_up(args, tracer, workdir):
    """Import ionpulse, generate inputs, precompile, warm up; returns (workload, s)."""
    start = time.perf_counter()
    ionpulse = importlib.import_module("ionpulse")
    if not Path(ionpulse.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ionpulse from {ionpulse.__file__}, not from {SRC}")
    workloads = importlib.import_module("workloads")
    tracer.begin_op("setup")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, child_env())
    workload.setup(tracer)
    return workload, time.perf_counter() - start


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Record:
    """Counts, failures and latency samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # "layer:ExceptionType" -> count
        self.examples = []
        self.failed_ops = []
        self.samples = {}  # stage -> [ms]
        self.roadmap = {}  # fixed op id -> {stage: ms}
        self.cycle_rates = []  # ops completed per second, one entry per cycle
        self.cycle_ops = 0  # ops completed in the cycles
        self.wall_s = 0.0

    def fail(self, op, key, detail):
        self.failed += 1
        self.failed_ops.append(op.id)
        self.failures[key] = self.failures.get(key, 0) + 1
        if len(self.examples) < 20:
            self.examples.append({"op": op.id, "failure": key, "detail": detail[:300]})


def run_one(workload, op, tracer, rec):
    rec.attempted += 1
    tracer.begin_op(f"{rec.attempted}:{op.id}")  # oracle_verify repeats its op ids
    try:
        with tracer.span("op"):
            problems, times = workload.run(op, tracer)
        if tracer.enabled and not problems:
            with tracer.span("probe"):
                problems = workload.probe(op, tracer)
    except Exception as exc:  # a failing op is counted, and the run goes on
        rec.fail(op, f"{tracer.failed_layer or 'benchmark'}:{type(exc).__name__}", str(exc))
        return False
    if problems:
        rec.fail(op, f"check:{workload.name}", "; ".join(problems))
        return False
    if op.fixed:
        rec.roadmap[op.id] = times
    else:
        for stage, ms in times.items():
            rec.samples.setdefault(stage, []).append(ms)
    return True


def measure(workload, tracer, seconds) -> Record:
    rec = Record()
    for op in workload.fixed_ops():
        run_one(workload, op, tracer, rec)
    # Cycles take turns on the usable CPUs: on a shared host each CPU slows
    # down on its own, and taking turns keeps one slow CPU from setting a run.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(rec.cycle_rates) % len(cpus)]})
            cycle_start, done = time.perf_counter(), 0
            for op in workload.cycle(len(rec.cycle_rates)):
                done += run_one(workload, op, tracer, rec)
            rec.cycle_rates.append(done / (time.perf_counter() - cycle_start))
            rec.cycle_ops += done
            rec.wall_s = time.perf_counter() - start
            if workload.single_pass or rec.wall_s >= MAX_LOOP_S:
                break
            if rec.wall_s >= seconds and len(rec.samples.get("op_ms", ())) >= MIN_SAMPLES:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return rec


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def git_commit():
    """HEAD of ROOT/.git, read without running git (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    """Lines in src/ionpulse/*.py (informational, not a gated metric)."""
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ionpulse").glob("*.py")))


def latency_lines(rec):
    rows = {}
    for stage, values in sorted(rec.samples.items()):
        rows[f"{stage}.p50"] = (statistics.median(values), "ms", len(values))
        rows[f"{stage}.p90"] = (nearest_rank(values, 0.9), "ms", len(values))
    return rows


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    tracer = Tracer(bool(args.trace))
    try:
        workload, setup_s = set_up(args, tracer, str(workdir))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        rec = measure(workload, tracer, args.seconds)
        if workload.name == "cli_roundtrip":
            peak_rss_mb = workload.peak_rss_kb / 1024
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workloads = sys.modules["workloads"]
        probe_problems = []
        if args.trace:
            tracer.begin_op("probe.cli")
            workloads.import_probe(tracer, child_env())
            if workload.name != "cli_roundtrip":
                probe_problems = workloads.cli_probe(tracer, str(workdir), child_env())
        checks = sys.modules["checks"]
        self_test_bad = checks.self_test(sys.modules["ionpulse"])
        env_record = environment(sys.modules["numpy"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = args.workload
    failed_fraction = rec.failed / rec.attempted
    stage_rows = latency_lines(rec)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer.spans).items()}
    elif workload.single_pass:
        metrics = {"failed_fraction": {"value": failed_fraction, "unit": "ratio"}}
    else:
        ops = rec.samples.get("op_ms", [])
        metrics = {
            "ops_per_s": {"value": rec.cycle_ops / rec.wall_s, "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(ops), "unit": "ms"} if ops else None,
            "op_ms.p90": {"value": nearest_rank(ops, 0.9), "unit": "ms"} if ops else None,
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    if name == "envelope":
        for eta, err in sorted(workload.max_err.items()):
            metrics[f"core.max_err_over_w.eta{eta:g}"] = {"value": err, "unit": "ratio"}

    if name in LISTED and (ROOT / "BENCHMARK.json").is_file():
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]}
        if set(metrics) != wanted:
            probe_problems.append(f"metrics differ from BENCHMARK.json: {sorted(wanted ^ set(metrics))}")
    correct = rec.failed == 0 and not self_test_bad and not probe_problems
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "failed_fraction": failed_fraction, "failures": rec.failures,
        "failure_examples": rec.examples,
        "failed_ops": sorted(rec.failed_ops), "checker_self_test_failures": self_test_bad,
        "probe_problems": probe_problems, "metrics": metrics,
        "stages": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in stage_rows.items()},
        "setup_samples_s": setup_samples, "roadmap": rec.roadmap, "samples_ms": rec.samples,
        "cycle_ops_per_s": rec.cycle_rates, "wall_s": rec.wall_s,
        "descriptors": {"ops": rec.attempted,
                        **{k: dict(sorted(c.items())) for k, c in workload.seen.items()}},
        "environment": env_record,
    }
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        tracer.write(OUT / f"{name}-seed{args.seed}-spans.json")

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"cycles {len(rec.cycle_rates)}  wall {rec.wall_s:.2f} s  src_lines {env_record['src_lines']}")
    counts = {"ops_per_s": rec.cycle_ops, "op_ms.p50": len(rec.samples.get("op_ms", ())),
              "setup_s": len(setup_samples)}
    counts["op_ms.p90"] = counts["op_ms.p50"]
    for key, m in metrics.items():
        n = f"  (n={counts[key]})" if key in counts and not args.trace else ""
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}{n}")
    for key, (value, unit, n) in stage_rows.items():
        if not key.startswith("op_ms"):
            print(f"  {key:32s} {value:.6g} {unit}  (n={n})")
    print(f"  {'failed_fraction':32s} {failed_fraction:.6g}  ({rec.failed}/{rec.attempted})")
    for key, count in sorted(rec.failures.items()):
        print(f"    failure {key}: {count}")
    for example in rec.examples:
        print(f"    e.g. {example['op']}: {example['detail']}")
    if self_test_bad:
        print(f"  checker self-test FAILED: {self_test_bad}")
    for problem in probe_problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads, the ROADMAP table and the tracing overhead


def run_all(args) -> int:
    results, status = {}, 0
    for name in ALL:
        for trace in ((0, 1) if name in LISTED else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                status = 1
                continue
            results[f"{name}.trace{trace}"] = json.loads(lines[-1])

    def record(name, trace=0):
        path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
        return json.loads(path.read_text()) if path.is_file() else {}

    print("\nROADMAP baseline (eta = 0.25, PhaseStateTarget(N, 0.3), default fock_dim; one call each)")
    print("| N  | D   | compile    | run_schedule | verify_schedule |")
    synth = record("synth_ladder").get("roadmap", {})
    oracle = record("oracle_verify").get("roadmap", {})
    for n in (5, 20, 80):
        s, o = synth.get(f"roadmap.N{n}", {}), oracle.get(f"roadmap.N{n}", {})
        print(f"| {n:<2} | {3 * n + 2:<3} | {s.get('compile_ms', math.nan):7.1f} ms | "
              f"{s.get('simulate_ms', math.nan):9.1f} ms | {o.get('verify_ms', math.nan):12.1f} ms |")

    print("\nTracing overhead (untraced ops_per_s / traced trace.ops_per_s - 1)")
    overhead = {}
    for name in LISTED:
        plain = results.get(f"{name}.trace0", {}).get("metrics", {}).get("ops_per_s")
        traced = results.get(f"{name}.trace1", {}).get("metrics", {}).get("trace.ops_per_s")
        if plain and traced:
            overhead[name] = plain["value"] / traced["value"] - 1
            print(f"  {name:16s} {overhead[name]:+.3f}")

    summary = {"seed": args.seed, "seconds": args.seconds, "results": results,
               "trace_overhead": overhead, "roadmap": {"synth_ladder": synth, "oracle_verify": oracle},
               "environment": record("synth_ladder").get("environment")}
    (OUT / f"bench-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    print(f"\nwrote {OUT / f'bench-seed{args.seed}.json'}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{k}.{m}": v for k, r in results.items() for m, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ionpulse" / "__init__.py").is_file():
        print(f"error: no ionpulse sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
