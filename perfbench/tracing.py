"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``src/repro``
layer.  Every wrapped call records one span -- name, layer, start, end,
self time and the index of its parent span, the parent being the span
open when the call began -- plus counts taken at the same boundary.  A
span's self time is its duration minus the time its child spans cover;
spans nest strictly, so that is the sum of the children's durations.

Generator functions (``execute_in_sim``) are driven step by step: each
resumption is one span, because the work happens between yields, and the
call itself is counted once.  Nothing here changes what a wrapped call
returns, raises or yields, so a traced run makes the same scheduling
decisions as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: the layers the per-layer report covers, in report order
LAYERS = (
    "session", "spec", "federation", "accounting", "daemon", "runtime",
    "cluster", "qrmi", "qpu", "emulators", "simkernel", "observability",
)


class Tracer:
    """In-memory span store for one run."""

    def __init__(self) -> None:
        #: (name, layer, start, end, self seconds, parent index or -1)
        self.spans: list = []
        #: call counts by span name and by layer
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        #: counts taken at span boundaries (events, deliveries, ...)
        self.counts: Counter = Counter()
        #: per-call samples (durations are in ``spans``)
        self.samples: dict[str, list] = defaultdict(list)
        #: open spans: [layer, child seconds, span index]
        self._stack: list = []
        self.enabled = True

    # -- span bookkeeping ---------------------------------------------------------

    def _open(self, layer: str) -> list:
        frame = [layer, 0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        self.spans[frame[2]] = (name, frame[0], start, end, duration - frame[1], parent)

    def method(self, owner, attr: str, name: str, layer, after=None) -> None:
        """Wrap ``owner.attr``; ``layer`` is a layer name or a function of
        the caller's module name; ``after(tracer, layer, args, result)``
        takes counts once the call has returned."""
        fn = getattr(owner, attr)
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            where = layer if isinstance(layer, str) else layer(
                sys._getframe(1).f_globals.get("__name__", "")
            )
            frame = tracer._open(where)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, start, clock())
                tracer.calls[name] += 1
                tracer.layer_calls[where] += 1
            if after is not None:
                after(tracer, where, args, result)
            return result

        setattr(owner, attr, wrapper)

    def generator(self, owner, attr: str, name: str, layer: str) -> None:
        """Wrap a generator function: one span per resumption."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer.layer_calls[layer] += 1
            return tracer._drive(fn(*args, **kwargs), name, layer)

        setattr(owner, attr, wrapper)

    def _drive(self, gen, name: str, layer: str):
        clock = time.perf_counter
        value, error = None, None
        while True:
            frame = self._open(layer)
            start = clock()
            try:
                item = gen.throw(error) if error is not None else gen.send(value)
            except StopIteration as stop:
                self._close(frame, name, start, clock())
                return stop.value
            except BaseException:
                self._close(frame, name, start, clock())
                raise
            self._close(frame, name, start, clock())
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the wrapped generator
                value, error = None, exc

    def count_deliveries(self, bus_cls) -> None:
        """Count every event the lifecycle bus delivers to a subscriber,
        one by one or, in batched mode, in per-flush batches."""
        subscribe = bus_cls.subscribe
        tracer = self

        def counted(fn, size):
            if fn is None:
                return None

            @functools.wraps(fn)
            def deliver(arg):
                if tracer.enabled:
                    tracer.counts["bus_deliveries"] += size(arg)
                return fn(arg)

            return deliver

        @functools.wraps(subscribe)
        def wrapper(self, callback, *args, batch=None, **kwargs):
            return subscribe(
                self, counted(callback, _one), *args,
                batch=counted(batch, len), **kwargs,
            )

        bus_cls.subscribe = wrapper


def _one(event) -> int:
    return 1


# -- counts taken at span boundaries ---------------------------------------------------


def _caller_layer(module: str) -> str:
    """``repro.daemon.scheduler`` -> ``daemon``: scheduling algorithms are
    shared by the daemon queue, the broker and the Slurm planner, and a
    call is charged to whichever of them made it."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "scheduling"


def _after_step_batch(tracer, layer, args, result) -> None:
    tracer.counts["sim_events"] += result[1]


def _after_snapshot(tracer, layer, args, result) -> None:
    tracer.counts["snapshot_requests"] += 1


def _after_snapshots(tracer, layer, args, result) -> None:
    tracer.counts["snapshot_requests"] += len(result)


def _after_publish(tracer, layer, args, result) -> None:
    tracer.counts["bus_events"] += 1
    kind = args[1].kind
    if kind == "job_placed":
        tracer.counts["placements"] += 1
    elif kind == "resize":
        tracer.counts["resize_events"] += 1


def _after_meter(tracer, layer, args, result) -> None:
    tracer.counts["meter_events"] += 1


def _after_dispatch(tracer, layer, args, result) -> None:
    tracer.counts["rest_reads" if args[1].method == "GET" else "rest_writes"] += 1


def _after_schedule(tracer, layer, args, result) -> None:
    tracer.counts[f"schedule_calls.{layer}"] += 1
    if layer == "daemon":
        tracer.samples["daemon_queue_depth"].append(len(args[1]))


def _after_emulate(tracer, layer, args, result) -> None:
    tracer.counts["strang_steps"] += args[1].num_steps


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point.  Call after importing ``repro`` and
    before building the stack (bus subscriptions are counted from then)."""
    from repro.accounting import FederationAccounting
    from repro.cluster import SlurmController
    from repro.daemon import MiddlewareDaemon
    from repro.daemon.http import Router
    from repro.emulators.mps import MPSEmulator
    from repro.emulators.statevector import StateVectorEmulator
    from repro.federation import (
        FederationBroker,
        LifecycleBus,
        MalleableManager,
        SiteRegistry,
    )
    from repro.observability import Scraper
    from repro.qpu.hamiltonian import RydbergHamiltonian
    from repro.qpu.specs import DeviceSpecs
    from repro.qrmi import OnPremQPUResource
    from repro.runtime import DaemonClient
    from repro.runtime import environment as runtime_environment
    from repro.scheduling.algorithms import SchedulingAlgorithm
    from repro.session import Session
    from repro.simkernel import Simulator
    from repro.spec import JobSpec

    m = tracer.method
    m(Simulator, "run", "Simulator.run", "simkernel")
    m(Simulator, "step_batch", "Simulator.step_batch", "simkernel", _after_step_batch)
    m(Session, "submit", "Session.submit", "session")
    m(JobSpec, "validate", "JobSpec.validate", "spec")
    m(FederationBroker, "submit_spec", "FederationBroker.submit_spec", "federation")
    m(FederationBroker, "reconcile", "FederationBroker.reconcile", "federation")
    m(SiteRegistry, "snapshot", "SiteRegistry.snapshot", "federation", _after_snapshot)
    m(SiteRegistry, "snapshots", "SiteRegistry.snapshots", "federation", _after_snapshots)
    m(SiteRegistry, "healthy_snapshots", "SiteRegistry.healthy_snapshots", "federation")
    m(LifecycleBus, "publish", "LifecycleBus.publish", "federation", _after_publish)
    tracer.count_deliveries(LifecycleBus)
    m(MalleableManager, "tick", "MalleableManager.tick", "federation")
    m(FederationAccounting, "admission", "FederationAccounting.admission", "accounting")
    m(FederationAccounting, "reserve_placement",
      "FederationAccounting.reserve_placement", "accounting")
    for meter in ("meter_completion", "meter_retry"):
        m(FederationAccounting, meter, f"FederationAccounting.{meter}", "accounting",
          _after_meter)
    m(Router, "dispatch", "Router.dispatch", "daemon", _after_dispatch)
    for call in ("submit_task", "submit_spec", "task_status"):
        m(MiddlewareDaemon, call, f"MiddlewareDaemon.{call}", "daemon")
    # every concrete algorithm overrides schedule(): wrap each override
    pending = [SchedulingAlgorithm]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "schedule" in vars(cls) and cls is not SchedulingAlgorithm:
            m(cls, "schedule", "SchedulingAlgorithm.schedule", _caller_layer,
              _after_schedule)
    m(DaemonClient, "status", "DaemonClient.status", "runtime")
    m(runtime_environment, "ensure_valid", "runtime.ensure_valid", "runtime")
    m(SlurmController, "submit", "SlurmController.submit", "cluster")
    tracer.generator(OnPremQPUResource, "execute_in_sim",
                     "QuantumResource.execute_in_sim", "qrmi")
    m(DeviceSpecs, "check", "DeviceSpecs.check", "qpu")
    m(RydbergHamiltonian, "__init__", "RydbergHamiltonian", "qpu")
    m(StateVectorEmulator, "run", "StateVectorEmulator.run", "emulators", _after_emulate)
    m(MPSEmulator, "run", "MPSEmulator.run", "emulators", _after_emulate)
    m(Scraper, "scrape_once", "Scraper.scrape_once", "observability")
