"""One repetition of one workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object.  The interpreter imports the
stack, generates the workload's inputs from the seed and builds its
topology (``setup_s``, timed from the launch stamp ``--t0`` the parent
took just before starting this process), then runs the workload once
and measures the process CPU time of that run alone.

The machine's speed drifts: on a shared VM a fixed loop's CPU time moved
by a quarter from one second to the next, and the run phase's CPU time
by as much from one run to the next.  So the run phase is cut into
windows, a fixed reference loop runs after each, and the host figures
are the CPU time scaled by the reference loop's nominal over its
measured time -- CPU milliseconds at the speed at which the loop takes
``REFERENCE_S``.  The loop and the workload slow down together, so the
scaled figure holds still while the raw one drifts.  ``--setup-only``
stops after set-up.  ``--trace 1`` wraps the layers' entry points first
(see ``tracing.py``) and adds the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: the run phase is timed in this many windows of simulated time, each
#: followed by one pass of the reference loop
WINDOWS = 20
REFERENCE_ITERATIONS = 40_000
#: the reference loop's CPU time on the machine the host figures are
#: scaled to (a 2-vCPU 2.1 GHz x86-64 VM running CPython 3.11)
REFERENCE_S = 0.0045
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop."""
    start = time.process_time()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i ^ (i >> 3)
    return time.process_time() - start


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest candidate
    percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it
    (nearest-rank percentiles)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, -(-int(pct * n) // 100))
        value = ordered[rank - 1]
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    return 0.0, ordered[-1], 0


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(outcome, cpu_s: float) -> dict:
    tasks = max(1, outcome.tasks_executed)
    span = outcome.last_completion - outcome.first_arrival
    pct, tail_value, beyond = tail(outcome.turnarounds or [0.0])
    completed = outcome.attempted - outcome.failed
    return {
        "host_ms_per_task": cpu_s * 1e3 / tasks,
        "sim_turnaround_s_p50": _p50(outcome.turnarounds),
        "sim_turnaround_s_tail": tail_value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "tail_samples": len(outcome.turnarounds),
        "qpu_utilization": outcome.busy_s / (outcome.n_qpus * span) if span > 0 else 0.0,
        "completed_ratio": completed / outcome.attempted,
    }


def per_layer(tracer, outcome, snapshot_hits: int) -> dict:
    from tracing import LAYERS

    tasks = max(1, outcome.tasks_executed)
    calls, counts = tracer.calls, tracer.counts
    durations: dict[str, list[float]] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    daemon_schedule: list[float] = []
    for name, layer, start, end, self_s, _parent in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
        if name == "SchedulingAlgorithm.schedule" and layer == "daemon":
            daemon_schedule.append(end - start)
    total_self = sum(self_by_layer.values()) or 1.0

    def us_p50(name: str) -> float:
        return _p50(durations.get(name, ())) * 1e6

    rest = counts["rest_reads"] + counts["rest_writes"]
    placements = counts["placements"]
    events = counts["sim_events"]
    out = {
        "session.submit_us_p50": us_p50("Session.submit"),
        "spec.validate_calls_per_task": calls["JobSpec.validate"] / tasks,
        "federation.placement_us_p50": us_p50("FederationBroker.submit_spec"),
        "federation.reconcile_us_p50": us_p50("FederationBroker.reconcile"),
        "federation.self_ms_per_task": self_by_layer["federation"] * 1e3 / tasks,
        "federation.snapshots_built_per_placement": (
            (counts["snapshot_requests"] - snapshot_hits) / placements if placements else 0.0
        ),
        "federation.bus_events_per_task": counts["bus_events"] / tasks,
        "federation.bus_deliveries_per_task": counts["bus_deliveries"] / tasks,
        "federation.bus_self_us_per_task": (
            self_by_name.get("LifecycleBus.publish", 0.0) * 1e6 / tasks
        ),
        "federation.malleable_tick_us_p50": us_p50("MalleableManager.tick"),
        "federation.resize_events": float(counts["resize_events"]),
        "federation.units_per_multi_job": (
            outcome.multi_units / outcome.multi_jobs if outcome.multi_jobs else 0.0
        ),
        "accounting.self_us_per_task": self_by_layer["accounting"] * 1e6 / tasks,
        "accounting.meter_events_per_task": counts["meter_events"] / tasks,
        "daemon.rest_calls_per_task": rest / tasks,
        "daemon.rest_reads_per_write": (
            counts["rest_reads"] / counts["rest_writes"] if counts["rest_writes"] else 0.0
        ),
        "daemon.rest_self_us_per_call": (
            self_by_name.get("Router.dispatch", 0.0) * 1e6 / rest if rest else 0.0
        ),
        "daemon.schedule_calls_per_task": counts["schedule_calls.daemon"] / tasks,
        "daemon.schedule_us_p50": _p50(daemon_schedule) * 1e6,
        "daemon.queue_depth_p50": _p50(tracer.samples["daemon_queue_depth"]),
    }
    for cls in ("production", "test", "development"):
        out[f"daemon.qpu_wait_sim_s_p50_{cls}"] = _p50(outcome.qpu_waits.get(cls, ()))
    out.update({
        "runtime.status_polls_per_task": calls["DaemonClient.status"] / tasks,
        "runtime.validations_per_task": calls["runtime.ensure_valid"] / tasks,
        "cluster.pending_sim_s_p50": _p50(outcome.pending),
        "cluster.jobs_submitted": float(calls["SlurmController.submit"]),
        "qrmi.execute_calls_per_task": calls["QuantumResource.execute_in_sim"] / tasks,
        "qpu.validations_per_task": calls["DeviceSpecs.check"] / tasks,
        "qpu.validate_self_us_per_task": (
            self_by_name.get("DeviceSpecs.check", 0.0) * 1e6 / tasks
        ),
        "qpu.hamiltonians_built_per_task": calls["RydbergHamiltonian"] / tasks,
        "qpu.hamiltonian_us_p50": us_p50("RydbergHamiltonian"),
        "emulators.runs_per_task": (
            calls["StateVectorEmulator.run"] + calls["MPSEmulator.run"]
        ) / tasks,
        "emulators.self_ms_per_task": self_by_layer["emulators"] * 1e3 / tasks,
        "emulators.strang_steps_per_task": counts["strang_steps"] / tasks,
        "simkernel.events_per_task": events / tasks,
        "simkernel.self_us_per_event": (
            self_by_layer["simkernel"] * 1e6 / events if events else 0.0
        ),
        "observability.scrape_self_us_per_task": (
            self_by_layer["observability"] * 1e6 / tasks
        ),
        "trace.spans": float(len(tracer.spans)),
    })
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_by_layer[layer] / total_self
        out[f"{layer}.calls"] = float(tracer.layer_calls[layer])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    inputs = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    scenario = workloads.build(args.workload, inputs)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu_s = reference_s = 0.0
    start = time.process_time()
    for _ in workloads.run_in_windows(scenario, WINDOWS):
        cpu_s += time.process_time() - start
        reference_s += reference_loop()
        start = time.process_time()
    speed = REFERENCE_S * WINDOWS / reference_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    broker = getattr(scenario, "broker", None)
    snapshot_hits = broker.registry.snapshot_cache_hits if broker is not None else 0
    if tracer is not None:
        tracer.enabled = False  # the checks below are not part of the run
    outcome = scenario.outcome()
    report = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "reference_ms": reference_s * 1e3 / WINDOWS,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "tasks": outcome.tasks_executed,
        "errors": outcome.errors,
        "e2e": end_to_end(outcome, cpu_s * speed),
    }
    if tracer is not None:
        report["layers"] = per_layer(tracer, outcome, snapshot_hits)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
