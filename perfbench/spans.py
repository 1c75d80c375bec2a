"""In-memory spans around calls into ionpulse's layers, and the per-layer
metrics derived from them.

A span name is "<layer>.<call>", where the layer is one of ionpulse's
modules (core, states, synthesis, oracle, serialization, cli); "op" and
"probe" name the roots.  Every span of one op carries that op's id.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; with enabled=False it only tracks the failing layer."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op_id = None
        self.failed_layer = None

    def begin_op(self, op_id):
        self.op_id = op_id
        self.failed_layer = None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a block; attrs (a dict the block may extend) go into the span."""
        if not self.enabled:
            try:
                yield attrs
            except Exception:
                self.failed_layer = self.failed_layer or name.split(".")[0]
                raise
            return
        rec = {
            "id": len(self.spans),
            "op": self.op_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield attrs
        except Exception as exc:
            rec["error"] = type(exc).__name__
            self.failed_layer = self.failed_layer or name.split(".")[0]
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _ms(rec) -> float:
    return (rec["end_ns"] - rec["start_ns"]) / 1e6


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics as {name: (value, unit)}; a metric without spans is left out."""
    by_name: dict[str, list[dict]] = {}
    for rec in spans:
        if "error" not in rec:
            by_name.setdefault(rec["name"], []).append(rec)
    children: dict[int, list[dict]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)

    out = {}

    def put(name, values, unit, agg=statistics.median):
        if values:
            out[name] = (agg(values), unit)

    def durations(name):
        return [_ms(r) for r in by_name.get(name, [])]

    mean = statistics.fmean
    pulses = by_name.get("states.apply_pulse_amplitudes", [])

    # core: scalar W_{m,k} evaluations of each measured op (the seed makes
    # one per pair per pulse, also inside the compilers)
    per_op = {rec["op"]: 0 for rec in by_name.get("op", [])}
    for rec in pulses + by_name.get("synthesis.compile_target", []):
        if rec["op"] in per_op:
            per_op[rec["op"]] += rec["attrs"]["pairs"]
    put("core.rabi_calls", list(per_op.values()), "count", mean)
    samples = by_name.get("core.rabi_sample", [])
    put("core.rabi_us", [_ms(r) * 1e3 / r["attrs"]["calls"] for r in samples], "us")
    put("core.table_ms", durations("core.table"), "ms")

    # states: the 2x2 pulse kernel
    put("states.pulse_us", [_ms(r) * 1e3 for r in pulses], "us")
    schedules = by_name.get("states.run_schedule", [])
    put("states.pair_updates", [r["attrs"]["pairs"] for r in schedules], "count", mean)
    pairs = sum(r["attrs"]["pairs"] for r in pulses)
    if pairs:
        out["states.ns_per_pair"] = (sum(_ms(r) for r in pulses) * 1e6 / pairs, "ns")

    # synthesis: compile time, and self time net of simulating its own output
    compiles = by_name.get("synthesis.compile_target", [])
    put("synthesis.compile_ms", [_ms(r) for r in compiles], "ms")
    put("synthesis.pulses", [r["attrs"]["pulses"] for r in compiles], "count", mean)
    simulated = {}
    for rec in schedules:
        key = rec["attrs"].get("key")
        simulated[key] = min(simulated.get(key, float("inf")), _ms(rec))
    own = [(r, r["attrs"]["key"]) for r in compiles]
    put("synthesis.self_ms", [_ms(r) - simulated[k] for r, k in own if k in simulated], "ms")

    # oracle: Hamiltonian assembly and propagation, per pulse
    put("oracle.build_ms", durations("oracle.build_hamiltonian"), "ms")
    builds = by_name.get("oracle.build_hamiltonian", [])
    put("oracle.series_terms", [r["attrs"]["series_terms"] for r in builds], "count", mean)
    put("oracle.propagate_ms", durations("oracle.propagate"), "ms")
    verifies = by_name.get("oracle.verify_schedule", [])
    total = sum(_ms(r) for r in verifies)
    closed = sum(_ms(c) for r in verifies for c in children.get(r["id"], [])
                 if c["name"] == "states.run_schedule")
    if total:
        out["oracle.closed_share"] = (closed / total, "ratio")

    # serialization
    put("serialization.dump_ms", durations("serialization.dump"), "ms")
    put("serialization.load_ms", durations("serialization.load"), "ms")
    dumps = by_name.get("serialization.dump", [])
    put("serialization.bytes", [r["attrs"]["bytes"] for r in dumps], "count", mean)

    # cli: interpreter import, in-process main, and the process start-up around it
    put("cli.import_ms", [r["attrs"]["import_ms"] for r in by_name.get("cli.import", [])], "ms")
    mains = by_name.get("cli.main", [])
    for sub in ("synthesize", "simulate", "verify"):
        put(f"cli.main_ms.{sub}", [_ms(r) for r in mains if r["attrs"]["sub"] == sub], "ms")
    in_process = {r["attrs"]["call"]: _ms(r) for r in mains}
    processes = [(r, r["attrs"]["call"]) for r in by_name.get("cli.subprocess", [])]
    put("cli.startup_ms", [_ms(r) - in_process[c] for r, c in processes if c in in_process], "ms")

    roots = by_name.get("op", [])
    if roots:
        out["trace.ops_per_s"] = (len(roots) / (sum(_ms(r) for r in roots) / 1e3), "1/s")
    return out
