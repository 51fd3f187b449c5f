"""LifecycleBus: push-based task tracking replaces status polling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedutil import build_federation, make_program

from repro.federation.events import JobEvent, LifecycleBus
from repro.session import Session


def spy_task_status(sites):
    """Wrap every site's task_status with a call counter."""
    counts = {name: 0 for name in sites}
    for name, site in sites.items():
        original = site.task_status

        def counted(owner, task_id, _name=name, _orig=original):
            counts[_name] += 1
            return _orig(owner, task_id)

        site.task_status = counted
    return counts


class TestBusUnit:
    def _event(self, kind="completed", job_id="j1"):
        return JobEvent(time=1.0, kind=kind, job_id=job_id)

    def test_filters_and_unsubscribe(self):
        bus = LifecycleBus()
        seen = []
        all_handle = bus.subscribe(lambda ev: seen.append(("all", ev.kind)))
        bus.subscribe(
            lambda ev: seen.append(("j1", ev.kind)), job_id="j1", kinds=("completed",)
        )
        bus.publish(self._event("running", "j1"))
        bus.publish(self._event("completed", "j1"))
        bus.publish(self._event("completed", "j2"))
        assert seen == [
            ("all", "running"),
            ("all", "completed"),
            ("j1", "completed"),
            ("all", "completed"),
        ]
        bus.unsubscribe(all_handle)
        bus.publish(self._event("completed", "j2"))
        assert len(seen) == 4
        assert bus.published == 4

    def test_subscriber_exceptions_are_isolated(self):
        bus = LifecycleBus()
        seen = []

        def broken(ev):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(lambda ev: seen.append(ev.kind))
        bus.publish(self._event())
        assert seen == ["completed"]
        assert bus.dropped == 1

    def test_batch_keyword_only_accepts_none(self):
        bus = LifecycleBus()
        bus.subscribe(lambda ev: None, batch=None)
        with pytest.raises(TypeError):
            bus.subscribe(lambda ev: None, batch=lambda events: None)


_FILTERS = (
    {},
    {"job_id": "job-a"},
    {"kinds": ("completed", "job_placed")},
    {"job_id": "job-b", "site": "site-0"},
)

_events = st.lists(
    st.builds(
        JobEvent,
        time=st.just(0.0),
        kind=st.sampled_from(("queued", "running", "completed", "job_placed")),
        job_id=st.sampled_from(("job-a", "job-b", "job-c")),
        site=st.sampled_from(("", "site-0", "site-1")),
        task_id=st.sampled_from(("", "t-1", "t-2")),
    ),
    min_size=1,
    max_size=40,
)


def _matches(filters, event):
    return (
        filters.get("job_id", event.job_id) == event.job_id
        and event.kind in filters.get("kinds", (event.kind,))
        and filters.get("site", event.site) == event.site
    )


def _reentrant(event):
    """The follow-up a reentrant subscriber publishes from inside its
    callback (a queued task starts running in the same instant)."""
    return JobEvent(
        time=event.time, kind="running", job_id=event.job_id,
        site=event.site, task_id=event.task_id,
    )


@settings(max_examples=150)
@given(_events, st.lists(st.sampled_from(range(len(_FILTERS))), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=5))
def test_synchronous_delivery_keeps_per_subscriber_order(events, picks, publisher):
    """Each subscriber hears exactly its matching events in the
    depth-first order synchronous dispatch defines: a top-level publish
    reaches every subscriber (wildcards first, then job-filtered, each
    in subscription order) before it returns, and an event published
    from inside a callback is delivered in full before the outer
    delivery moves on to the next subscriber."""
    publisher %= len(picks)
    bus = LifecycleBus()
    seen = [[] for _ in picks]

    def make(i):
        def on_event(event):
            seen[i].append(event)
            if i == publisher and event.kind == "queued":
                bus.publish(_reentrant(event))
        return on_event

    for i, pick in enumerate(picks):
        bus.subscribe(make(i), **_FILTERS[pick])

    # reference model: recursive delivery over the subscription list
    order = sorted(range(len(picks)), key=lambda i: "job_id" in _FILTERS[picks[i]])
    expected = [[] for _ in picks]

    def deliver(event):
        for i in order:
            if _matches(_FILTERS[picks[i]], event):
                expected[i].append(event)
                if i == publisher and event.kind == "queued":
                    deliver(_reentrant(event))

    for event in events:
        bus.publish(event)
        deliver(event)
    assert seen == expected
    assert bus.dropped == 0


class TestSitePublishing:
    def test_task_transitions_flow_onto_bus(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        bus = broker.events
        kinds = []
        bus.subscribe(lambda ev: kinds.append((ev.site, ev.kind)))
        job_id = broker.submit(make_program(shots=30), shots=30)
        sim.run(until=120.0)
        assert broker.status(job_id)["state"] == "completed"
        site = broker.job(job_id).current.site
        site_kinds = [
            k for s, k in kinds if s == site and not k.startswith("job_")
        ]
        assert site_kinds[:2] == ["queued", "running"]
        assert "completed" in site_kinds

    def test_every_broker_over_a_registry_hears_its_sites(self):
        """Two brokers share one registry: each tracks its own jobs by
        push, and each bus hears every site transition exactly once."""
        from repro.federation import FederationBroker

        sim, registry, first, sites = build_federation(n_sites=1)
        second = FederationBroker(sim, registry)
        second.spawn_housekeeping(interval=15.0)
        heard = {id(first): [], id(second): []}
        for broker in (first, second):
            broker.events.subscribe(
                lambda ev, log=heard[id(broker)]: log.append(ev.kind),
                kinds=("queued", "running", "completed"), site="site-0",
            )
        jobs = [(b, b.submit(make_program(shots=10), shots=10)) for b in (first, second)]
        sim.run(until=120.0)
        for broker, job_id in jobs:
            assert broker.status(job_id)["state"] == "completed"
        site_kinds = ["queued", "running", "completed"] * 2
        assert sorted(heard[id(first)]) == sorted(site_kinds)
        assert heard[id(first)] == heard[id(second)]

    def test_broker_job_lifecycle_events(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        bus = broker.events
        seen = []
        job_id = broker.submit(make_program(shots=30), shots=30)
        bus.subscribe(lambda ev: seen.append(ev.kind), job_id=job_id)
        sim.run(until=120.0)
        assert "job_completed" in seen

    def test_attach_is_idempotent_and_covers_late_joiners(self):
        from repro.federation import FederatedSite

        sim, registry, broker, sites = build_federation(n_sites=1)
        session = Session(federation=broker)
        bus = session.attach_events()
        assert session.attach_events() is bus is broker.events
        # a site registered after the broker was built publishes too
        from repro.daemon import MiddlewareDaemon
        from repro.qpu import QPUDevice, ShotClock
        from repro.qrmi import OnPremQPUResource
        from repro.simkernel import RngRegistry

        rng = RngRegistry(9)
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=rng.get("late"),
        )
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
        )
        late = FederatedSite("late-site", daemon, max_queue_depth=4)
        registry.register(late, now=sim.now)
        seen = []
        bus.subscribe(lambda ev: seen.append(ev.site))
        broker.submit(make_program(shots=10), shots=10, pin="late-site/onprem")
        sim.run(until=120.0)
        assert "late-site" in seen


class TestPushReplacesPolling:
    def test_fixed_jobs_never_poll_with_bus_attached(self):
        """A broker nobody attached anything to already tracks its
        fixed-size jobs by push: zero task_status calls."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        counts = spy_task_status(sites)
        job_id = broker.submit(make_program(shots=40), shots=40)
        sim.run(until=300.0)
        assert broker.status(job_id)["state"] == "completed"
        assert broker.result(job_id) is not None
        assert sum(counts.values()) == 0

    def test_malleable_refresh_never_polls_with_bus_attached(self):
        """The acceptance spy: on a broker built without any attach
        call, the resize loop's _refresh consumes pushed transitions —
        zero per-unit task_status polls across the whole job."""
        sim, registry, broker, sites = build_federation(n_sites=3)
        counts = spy_task_status(sites)
        job_id = broker.submit_malleable(
            make_program(shots=20), 9, shots=20
        )
        sim.run(until=1200.0)
        status = broker.malleable_status(job_id)
        assert status["state"] == "completed"
        assert status["completed_units"] == 9
        assert sum(counts.values()) == 0

    def test_push_and_poll_reach_identical_outcomes(self):
        """The push-only broker reproduces, literally, the outcome the
        retired poll-mode broker produced on this scenario (recorded
        from a poll run): every fixed job's state, site and completion
        time, and the malleable job's spread and resize count."""
        sim, registry, broker, sites = build_federation(n_sites=3)
        fixed = [
            broker.submit(make_program(shots=30), shots=30) for _ in range(4)
        ]
        malleable = broker.submit_malleable(make_program(shots=20), 8, shots=20)
        sim.run(until=1200.0)
        jobs = [broker.job(j) for j in fixed]
        assert [(j.state.value, j.current.site, j.finished_at) for j in jobs] == [
            ("completed", "site-0", 15.0),
            ("completed", "site-1", 15.0),
            ("completed", "site-2", 15.0),
            ("completed", "site-0", 15.0),
        ]
        mstatus = broker.malleable_status(malleable)
        assert mstatus["state"] == "completed"
        assert mstatus["completions_by_site"] == {
            "site-0": 3, "site-1": 3, "site-2": 2,
        }
        assert mstatus["resize_events"] == 6
        assert mstatus["finished_at"] == 30.0

    def test_failover_still_works_under_push(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, heartbeat_expiry=40.0
        )
        # saturate nothing; kill the site the job lands on mid-flight
        job_id = broker.submit(make_program(shots=400), shots=400)
        first_site = broker.job(job_id).current.site
        sim.run(until=5.0)
        sites[first_site].kill()
        sim.run(until=600.0)
        job = broker.job(job_id)
        assert job.state.value == "completed"
        assert job.current.site != first_site
