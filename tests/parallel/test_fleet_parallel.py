"""Sharded federation feeds: ``feed_all(..., workers=N)`` must be
observably identical to the serial member loop — detector state,
processed counts, alarm bus, metrics and events — and member crashes
must keep the serial supervisor semantics (isolation, checkpoint
restart, auto-restart)."""

import dataclasses
import random

import pytest

from repro.attack import FloodSource
from repro.obs.events import EventLog, MemorySink
from repro.obs.merge import canonical_events, render_deterministic, rollup_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.rollup import FleetRollup, rollup_from_events, states_from_recorder
from repro.obs.runtime import Instrumentation
from repro.packet import IPv4Network
from repro.router import Federation, FederationFeedError
from repro.trace import (
    AUCKLAND,
    AttackWindow,
    generate_packet_trace,
    mix_flood_into_packets,
)
from repro.trace.synthetic import AddressPlan

NETWORKS = {
    "eng": IPv4Network.parse("10.1.0.0/16"),
    "dorms": IPv4Network.parse("10.2.0.0/16"),
    "library": IPv4Network.parse("10.3.0.0/16"),
}


def member_traffic(stub, seed, duration=600.0):
    rng = random.Random(seed)
    plan = AddressPlan(rng, stub_network=stub)
    return generate_packet_trace(
        AUCKLAND, seed=seed, duration=duration, address_plan=plan
    )


def crashing_stream(packets, crash_after):
    def generate():
        for index, packet in enumerate(packets):
            if index == crash_after:
                raise RuntimeError("sniffer segfault")
            yield packet
    return generate()


def fresh_obs():
    sink = MemorySink(max_events=None)
    return Instrumentation(
        registry=MetricsRegistry(), events=EventLog(sink)
    ), sink


def fed_with_traffic(**kwargs):
    obs, sink = fresh_obs()
    federation = Federation(obs=obs, **kwargs)
    traffic = {}
    for index, (name, stub) in enumerate(sorted(NETWORKS.items())):
        federation.add_network(name, stub)
        trace = member_traffic(stub, seed=10 + index)
        traffic[name] = (trace.outbound, trace.inbound)
    return federation, traffic, obs, sink


def member_fingerprint(federation, name):
    _router, agent = federation.member(name)
    detector = agent.detector
    return {
        "checkpoint": detector.checkpoint(),
        "num_records": len(detector.records),
        "statistic": detector.statistic,
        "k_bar": detector.k_bar,
        "alarm_events": list(agent.alarm_events),
    }


class TestHealthyEquivalence:
    def test_parallel_feed_matches_serial(self):
        serial_fed, serial_traffic, serial_obs, serial_sink = fed_with_traffic()
        parallel_fed, parallel_traffic, parallel_obs, parallel_sink = (
            fed_with_traffic()
        )
        serial_processed = serial_fed.feed_all(serial_traffic, workers=1)
        parallel_processed = parallel_fed.feed_all(
            parallel_traffic, workers=3
        )
        assert parallel_processed == serial_processed
        for name in NETWORKS:
            assert member_fingerprint(parallel_fed, name) == (
                member_fingerprint(serial_fed, name)
            )
        assert parallel_fed.alarms == serial_fed.alarms
        assert parallel_fed.status() == serial_fed.status()
        assert render_deterministic(parallel_obs.registry) == (
            render_deterministic(serial_obs.registry)
        )
        assert canonical_events(parallel_sink.events) == (
            canonical_events(serial_sink.events)
        )

    def test_parallel_feed_then_finish_and_incident(self):
        """The merged detector state keeps working after the feed: a
        second serial feed, finish() and incident() all agree."""
        serial_fed, serial_traffic, _obs, _sink = fed_with_traffic()
        parallel_fed, parallel_traffic, _obs2, _sink2 = fed_with_traffic()
        serial_fed.feed_all(serial_traffic, workers=1)
        parallel_fed.feed_all(parallel_traffic, workers=2)
        serial_fed.finish()
        parallel_fed.finish()
        assert parallel_fed.incident() == serial_fed.incident()
        for name in NETWORKS:
            assert member_fingerprint(parallel_fed, name) == (
                member_fingerprint(serial_fed, name)
            )


class TestCrashSemantics:
    def test_member_crash_is_isolated_and_reported(self):
        federation, traffic, _obs, _sink = fed_with_traffic()
        eng = member_traffic(NETWORKS["eng"], seed=10)
        traffic["eng"] = (
            crashing_stream(eng.outbound, 50), eng.inbound
        )
        with pytest.raises(FederationFeedError) as excinfo:
            federation.feed_all(traffic, workers=3)
        error = excinfo.value
        assert set(error.errors) == {"eng"}
        assert isinstance(error.errors["eng"], RuntimeError)
        assert "sniffer segfault" in str(error.errors["eng"])
        assert error.processed["eng"] == 0
        for name in ("dorms", "library"):
            assert error.processed[name] > 0
        assert federation.members_down == ("eng",)
        # The healthy members' detectors were installed despite the
        # peer failure.
        _router, agent = federation.member("dorms")
        assert agent.detector.checkpoint()["next_period_index"] > 0

    def test_crashed_member_restarts_from_checkpoint(self):
        federation, traffic, _obs, _sink = fed_with_traffic()
        federation.feed_all(traffic, workers=2)
        checkpoint = member_fingerprint(federation, "eng")["checkpoint"]

        more = member_traffic(NETWORKS["eng"], seed=99)
        with pytest.raises(FederationFeedError):
            federation.feed_all(
                {"eng": (crashing_stream(more.outbound, 10), more.inbound)},
                workers=2,
            )
        assert federation.members_down == ("eng",)
        _router, agent = federation.restart_member("eng")
        assert federation.members_down == ()
        assert federation.restarts == {"eng": 1}
        assert agent.detector.checkpoint() == checkpoint

    def test_auto_restart_matches_serial_policy(self):
        outcomes = {}
        for workers in (1, 3):
            federation, traffic, obs, _sink = fed_with_traffic(
                auto_restart=True
            )
            eng = member_traffic(NETWORKS["eng"], seed=10)
            traffic["eng"] = (
                crashing_stream(eng.outbound, 50), eng.inbound
            )
            processed = federation.feed_all(traffic, workers=workers)
            outcomes[workers] = {
                "processed": processed,
                "down": federation.members_down,
                "restarts": federation.restarts,
                # A source that dies mid-read forwards no packet at any
                # worker count: nothing leaks into the packet counters.
                "metrics": render_deterministic(obs.registry),
            }
        assert outcomes[3] == outcomes[1]
        assert outcomes[1]["restarts"] == {"eng": 1}
        assert outcomes[1]["down"] == ()


def twice_flooded(stub, seed):
    """Auckland traffic flooded twice at a low rate: the alarm rises
    near t=260 s, clears, and rises again near t=760 s with no operator
    acknowledgement in between (so the agent responds only once)."""
    rng = random.Random(seed)
    trace = member_traffic(stub, seed, duration=1200.0)
    for window in (AttackWindow(200.0, 100.0), AttackWindow(700.0, 100.0)):
        trace = mix_flood_into_packets(
            trace, FloodSource(pattern=3.0), window, rng
        )
    return trace


def split_feeds():
    """Two consecutive feed_all payloads, [0, 600) and [600, 1200) s;
    only "eng" is flooded, and its first alarm falls in the first one."""
    halves = ({}, {})
    for index, (name, stub) in enumerate(sorted(NETWORKS.items())):
        seed = 20 + index
        trace = (
            twice_flooded(stub, seed) if name == "eng"
            else member_traffic(stub, seed, duration=1200.0)
        )
        for half, keep in zip(halves, (
            lambda packet: packet.timestamp < 600.0,
            lambda packet: packet.timestamp >= 600.0,
        )):
            half[name] = (
                [p for p in trace.outbound if keep(p)],
                [p for p in trace.inbound if keep(p)],
            )
    return halves


class TestConsecutiveFeeds:
    def test_sharded_feeds_keep_earlier_alarms(self):
        fingerprints = {}
        for workers in (1, 2):
            federation, _traffic, _obs, _sink = fed_with_traffic()
            for half in split_feeds():
                federation.feed_all(half, workers=workers)
            _router, agent = federation.member("eng")
            assert len(agent.alarm_events) == 1
            assert federation.status()["eng"]["alarms_seen"] == 2
            fingerprints[workers] = (
                {name: member_fingerprint(federation, name)
                 for name in NETWORKS},
                federation.status(),
                federation.alarms,
            )
        assert fingerprints[2] == fingerprints[1]


def by_member(states):
    """Recorder and event states name agents by router; the federation
    names them by member."""
    return [
        dataclasses.replace(state, name=state.name.removeprefix("router-"))
        for state in states
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_three_rollup_sources_agree(workers):
    """Federation.rollup(), the recorder's /fleet rebuild and the offline
    event-log rebuild describe one enabled run identically: alarms
    count rises, degraded periods count, no crash."""
    sink = MemorySink(max_events=None)
    events = EventLog(sink)
    obs = Instrumentation(
        registry=MetricsRegistry(),
        events=events,
        recorder=FlightRecorder(events=events),
    )
    federation = Federation(obs=obs)
    for name, stub in sorted(NETWORKS.items()):
        federation.add_network(name, stub)
    for half in split_feeds():
        federation.feed_all(half, workers=workers)
    federation.finish(end_time=1200.0)
    _router, dorms = federation.member("dorms")
    assert dorms.detector.observe_missing_period().degraded

    live = federation.rollup()
    assert live.top["alarms"].top()[0]["weight"] == 2
    assert live.top["degraded"].top()[0]["agent"] == "dorms"
    k = federation.fleet_top_k
    recorder = FleetRollup.from_states(
        by_member(states_from_recorder(obs.recorder)),
        k=k,
        watermark=max(
            point["end_time"]
            for point in obs.recorder.last_snapshots().values()
        ),
    )
    offline = rollup_from_events(
        [
            {**event, "agent": event["agent"].removeprefix("router-")}
            if "agent" in event else event
            for event in sink.events
        ],
        k=k,
    )
    assert rollup_snapshot(recorder) == rollup_snapshot(live)
    assert rollup_snapshot(offline) == rollup_snapshot(live)
