"""The repository's benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload fed-stream --seed 1 --seconds 30 --trace 0

Each run launches fresh interpreters (``worker.py``), one repetition of
the workload each, until ``--seconds`` of wall time are used; every
repetition of a run uses the same seed and so the same inputs.  Host
cost is process CPU time scaled by a reference loop interleaved with
the run (see ``worker.py``), and a run reports the median over its
repetitions.  ``setup_s`` is the median set-up time of fresh
interpreters.  The simulated metrics are exact: every repetition must
report the same values, and so must the traced repetitions, which
proves tracing changes no scheduling decision.  Jobs failed, refused or
not terminal at the horizon make the result's ``failed`` count and a
failed check.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, with
``trace.overhead_ratio`` = traced over untraced host cost.  The last line
of standard output is one JSON object; earlier lines are a readable
summary.  A failed check prints ``"correct": false``; a repetition that
cannot run (the stack missing, a crash) ends the run with exit code 1
and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("fed-stream", "site-hybrid", "physics-elastic")
#: fewest repetitions a run makes, whatever ``--seconds`` says (a traced
#: run makes this many of each kind, untraced and traced)
MIN_REPS = 3
MIN_REPS_TRACED = 2
#: fewest set-up samples ``setup_s`` is the median of
SETUP_SAMPLES = 7
#: no repetition starts after this much wall time, and none may take
#: longer than the second figure, so a run always ends inside three minutes
WALL_LIMIT_S = 100.0
REP_TIMEOUT_S = 60.0
#: the simulated metrics every repetition must reproduce exactly
EXACT_E2E = (
    "sim_turnaround_s_p50", "sim_turnaround_s_tail", "tail_percentile",
    "tail_beyond", "qpu_utilization", "completed_ratio",
)
#: per-layer metrics that are times, not deterministic counts
TIMED_LAYER_SUFFIXES = ("_us_p50", "self_share", "self_ms_per_task",
                        "self_us_per_task", "self_us_per_call", "self_us_per_event")

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_ms_per_task": "ms",
    "sim_turnaround_s_p50": "s",
    "sim_turnaround_s_tail": "s",
    "qpu_utilization": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def host_ms_per_task(reps: list[dict]) -> float:
    return statistics.median(rep["e2e"]["host_ms_per_task"] for rep in reps)


def launch(args, trace: int, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.time()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"repetition timed out after {exc.timeout}s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("repetition printed nothing")
    return json.loads(lines[-1])


def _unit(name: str) -> str:
    if name.endswith("_ms_per_task"):
        return "ms"
    if name.endswith(("_us_p50", "_us_per_task", "_us_per_call", "_us_per_event")):
        return "us"
    if name.endswith(("_s_p50",)) or "_sim_s_" in name:
        return "s"
    if name.endswith(("self_share", "overhead_ratio")):
        return "ratio"
    return "count"


def run(args) -> tuple[dict, list[str]]:
    start = time.monotonic()
    notes: list[str] = []
    launch(args, 0, setup_only=True)  # compiles bytecode, warms file caches
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        reps = len(plain) + len(traced)
        per_rep = elapsed / reps if reps else 0.0
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_REPS_TRACED
        else:
            enough = len(plain) >= MIN_REPS
        if enough and (elapsed + per_rep > args.seconds or elapsed > WALL_LIMIT_S):
            break
        if args.trace and len(traced) < len(plain):
            traced.append(launch(args, 1))
        else:
            plain.append(launch(args, 0))
    setups = [rep["setup_s"] for rep in plain]
    while (
        not args.trace
        and len(setups) < SETUP_SAMPLES
        and time.monotonic() - start < WALL_LIMIT_S
    ):
        setups.append(launch(args, 0, setup_only=True)["setup_s"])

    errors = [e for rep in plain + traced for e in rep["errors"]]
    reference = plain[0]["e2e"]
    for rep in plain[1:] + traced:
        for key in EXACT_E2E:
            if rep["e2e"][key] != reference[key]:
                errors.append(f"{key} differs between repetitions: "
                              f"{rep['e2e'][key]!r} != {reference[key]!r}")
    for rep in traced[1:]:
        for key, value in rep["layers"].items():
            if not key.endswith(TIMED_LAYER_SUFFIXES) and value != traced[0]["layers"][key]:
                errors.append(f"count {key} differs between traced repetitions")

    host = host_ms_per_task(plain)
    metrics: dict[str, float] = {}
    if args.trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(rep["layers"][key] for rep in traced)
        metrics["trace.overhead_ratio"] = host_ms_per_task(traced) / host
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["host_ms_per_task"] = host
        for key in ("sim_turnaround_s_p50", "sim_turnaround_s_tail", "qpu_utilization"):
            metrics[key] = reference[key]
        metrics["peak_rss_mb"] = statistics.median(rep["peak_rss_mb"] for rep in plain)

    notes.append(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced repetitions, "
        f"{plain[0]['tasks']} tasks and {plain[0]['attempted']} jobs each"
    )
    notes.append(
        "host_ms_per_task (raw CPU ms, reference loop ms) per repetition: "
        + ", ".join(
            f"{rep['e2e']['host_ms_per_task']:.4f} "
            f"({rep['cpu_s'] * 1e3 / rep['tasks']:.4f}, {rep['reference_ms']:.3f})"
            for rep in plain
        )
    )
    notes.append(
        f"sim_turnaround_s_tail is p{reference['tail_percentile']:g} of "
        f"{reference['tail_samples']} jobs, {reference['tail_beyond']} beyond it"
    )
    attempted = sum(rep["attempted"] for rep in plain + traced)
    failed = sum(rep["failed"] for rep in plain + traced)
    # jobs failed, refused or not terminal at the horizon; reported as the
    # result's failed/attempted rather than as a metric that reads 0
    notes.append(f"failed_ratio {failed / attempted:g} ({failed} of {attempted} jobs)")
    notes.extend(f"check failed: {e}" for e in errors[:20])
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": value,
                "unit": END_TO_END_UNITS.get(name) or _unit(name),
            }
            for name, value in metrics.items()
        },
    }
    return result, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, notes = run(args)
    except WorkerFailed as err:
        print(f"benchmark repetition failed: {err}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
