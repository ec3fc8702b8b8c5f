"""Federation tests: enrollment, fan-out, alarm bus, merged incidents."""

import dataclasses
import random

import pytest

from repro.attack import FloodSource
from repro.obs.events import EventLog, MemorySink
from repro.obs.merge import canonical_events, rollup_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.rollup import FleetRollup, rollup_from_events, states_from_recorder
from repro.obs.runtime import Instrumentation
from repro.packet import IPv4Network, MACAddress
from repro.router import Federation
from repro.trace import AUCKLAND, AttackWindow, generate_packet_trace, mix_flood_into_packets
from repro.trace.synthetic import AddressPlan

NETWORKS = {
    "eng": IPv4Network.parse("10.1.0.0/16"),
    "dorms": IPv4Network.parse("10.2.0.0/16"),
    "library": IPv4Network.parse("10.3.0.0/16"),
}


def member_traffic(stub, seed, flooded=False, mac=None):
    rng = random.Random(seed)
    plan = AddressPlan(rng, stub_network=stub)
    trace = generate_packet_trace(
        AUCKLAND, seed=seed, duration=1200.0, address_plan=plan
    )
    if flooded:
        flood = FloodSource(pattern=10.0, mac=mac)
        trace = mix_flood_into_packets(
            trace, flood, AttackWindow(240.0, 600.0), rng
        )
    return trace


class TestFederation:
    def test_enrollment(self):
        federation = Federation()
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        assert federation.network_names == sorted(NETWORKS)
        with pytest.raises(ValueError):
            federation.add_network("eng", NETWORKS["eng"])
        with pytest.raises(KeyError):
            federation.member("unknown")

    def test_only_flooded_member_alarms(self):
        federation = Federation()
        flooder_mac = MACAddress.parse("02:bd:00:00:00:99")
        for name, stub in NETWORKS.items():
            router, _agent = federation.add_network(name, stub)
            if name == "dorms":
                router.inventory.register(flooder_mac, name="dorm-pc-666")
        alarms_seen = []
        federation.on_alarm = alarms_seen.append

        for index, (name, stub) in enumerate(sorted(NETWORKS.items())):
            trace = member_traffic(
                stub, seed=40 + index,
                flooded=(name == "dorms"), mac=flooder_mac,
            )
            federation.feed(name, trace.outbound, trace.inbound)
        federation.finish(end_time=1200.0)

        assert federation.any_alarm
        assert [a.network_name for a in federation.alarms] == ["dorms"]
        assert alarms_seen and alarms_seen[0].network_name == "dorms"

        incident = federation.incident()
        assert incident.networks_alarming == ["dorms"]
        assert incident.hosts_localized == 1
        network, suspect = incident.suspects[0]
        assert network == "dorms"
        assert suspect.name == "dorm-pc-666"

    def test_quiet_fleet_no_incident(self):
        federation = Federation()
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        for index, (name, stub) in enumerate(sorted(NETWORKS.items())):
            trace = member_traffic(stub, seed=50 + index)
            federation.feed(name, trace.outbound, trace.inbound)
        federation.finish(end_time=1200.0)
        assert not federation.any_alarm
        assert federation.incident().suspects == ()

    def test_multiple_members_alarm_independently(self):
        federation = Federation()
        mac_a = MACAddress.parse("02:bd:00:00:00:aa")
        mac_b = MACAddress.parse("02:bd:00:00:00:bb")
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        traffic = {
            "eng": member_traffic(NETWORKS["eng"], 60, flooded=True, mac=mac_a),
            "dorms": member_traffic(NETWORKS["dorms"], 61, flooded=True, mac=mac_b),
            "library": member_traffic(NETWORKS["library"], 62),
        }
        for name, trace in traffic.items():
            federation.feed(name, trace.outbound, trace.inbound)
        federation.finish(end_time=1200.0)
        assert sorted(a.network_name for a in federation.alarms) == [
            "dorms", "eng",
        ]
        incident = federation.incident()
        suspect_macs = {host.mac for _network, host in incident.suspects}
        assert {mac_a, mac_b} <= suspect_macs


class TestFleetRollup:
    def build_and_feed(self, obs=None):
        from repro.obs.runtime import enabled_instrumentation

        federation = Federation(
            obs=obs or enabled_instrumentation(), fleet_top_k=4
        )
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        flood_mac = MACAddress.parse("02:bd:00:00:00:77")
        traffic = {
            name: member_traffic(
                stub, seed=70 + index,
                flooded=(name == "dorms"), mac=flood_mac,
            )
            for index, (name, stub) in enumerate(sorted(NETWORKS.items()))
        }
        federation.feed_all(
            {
                name: (trace.outbound, trace.inbound)
                for name, trace in traffic.items()
            }
        )
        return federation

    def test_rollup_reflects_member_detector_state(self):
        federation = self.build_and_feed()
        federation.finish(end_time=1200.0)
        rollup = federation.rollup()
        assert rollup.counts["total"] == len(NETWORKS)
        assert rollup.counts["alarming"] >= 1
        assert rollup.counts["down"] == 0
        assert rollup.quorum == 1.0
        assert rollup.watermark is not None
        top = {e["agent"] for e in rollup.top["cusum"].top()}
        assert "dorms" in top

    def test_feed_all_emits_fleet_series_and_event(self):
        from repro.obs.runtime import enabled_instrumentation

        obs = enabled_instrumentation()
        federation = self.build_and_feed(obs=obs)
        assert federation.last_rollup is not None
        (total,) = obs.tsdb.series("fleet_agents_total")
        assert total.samples[-1][1] == float(len(NETWORKS))
        (quorum,) = obs.tsdb.series("fleet_quorum")
        assert quorum.samples[-1][1] == 1.0
        assert obs.tsdb.series("fleet_cusum_p99")
        sink = obs.memory_events()
        fleet_events = [
            e for e in sink.events if e.get("event") == "fleet_rollup"
        ]
        assert fleet_events
        assert fleet_events[-1]["agents"] == len(NETWORKS)

    def test_down_member_degrades_quorum_in_rollup(self):
        federation = self.build_and_feed()
        federation._note_crash("library", RuntimeError("boom"))
        rollup = federation.rollup()
        assert rollup.counts["down"] == 1
        assert rollup.quorum == pytest.approx(2.0 / 3.0)


def logged_federation(names, recorder=False):
    """A federation with a metrics registry, an unbounded in-memory
    event log and (optionally) a flight recorder, enrolling *names* in
    the given order."""
    sink = MemorySink(max_events=None)
    events = EventLog(sink)
    obs = Instrumentation(
        registry=MetricsRegistry(),
        events=events,
        recorder=FlightRecorder(events=events) if recorder else None,
    )
    federation = Federation(obs=obs)
    for name in names:
        federation.add_network(name, NETWORKS[name])
    return federation, obs, sink


class TestFinishOrder:
    def test_finish_is_independent_of_enrollment_order(self):
        """finish() closes trailing periods in sorted-name order, like
        feed_all, so the last periods' events and the alarms they raise
        do not depend on the order of add_network calls."""
        trace = member_traffic(NETWORKS["eng"], seed=80)
        flood = FloodSource(pattern=10.0)
        trace = mix_flood_into_packets(
            trace, flood, AttackWindow(220.0, 20.0), random.Random(80)
        )
        # Stop mid-flood: the flooded period is still open when the
        # feed ends, so only finish() closes it and raises the alarms.
        outbound = [p for p in trace.outbound if p.timestamp < 235.0]
        inbound = [p for p in trace.inbound if p.timestamp < 235.0]
        runs = []
        for names in (sorted(NETWORKS), sorted(NETWORKS, reverse=True)):
            federation, _obs, sink = logged_federation(names)
            federation.feed_all(
                {name: (outbound, inbound) for name in names}
            )
            assert not federation.any_alarm
            federation.finish(end_time=240.0)
            runs.append((canonical_events(sink.events), federation.alarms))
        assert [a.network_name for a in runs[0][1]] == sorted(NETWORKS)
        assert runs[1] == runs[0]


def twice_flooded(stub, seed):
    """Auckland traffic flooded twice at a low rate: the alarm rises
    near t=260 s, clears, and rises again near t=760 s with no operator
    acknowledgement in between (so the agent responds only once)."""
    rng = random.Random(seed)
    trace = member_traffic(stub, seed)
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
            else member_traffic(stub, seed)
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
    def test_consecutive_feeds_keep_earlier_alarms(self):
        federation, _obs, _sink = logged_federation(sorted(NETWORKS))
        for half in split_feeds():
            federation.feed_all(half)
        _router, agent = federation.member("eng")
        assert len(agent.alarm_events) == 1
        assert federation.status()["eng"]["alarms_seen"] == 2
        assert [a.network_name for a in federation.alarms] == ["eng"]


def by_member(states):
    """Recorder and event states name agents by router; the federation
    names them by member."""
    return [
        dataclasses.replace(state, name=state.name.removeprefix("router-"))
        for state in states
    ]


def test_three_rollup_sources_agree():
    """Federation.rollup(), the recorder's /fleet rebuild and the offline
    event-log rebuild describe one enabled run identically: alarms
    count rises, degraded periods count, no crash."""
    federation, obs, sink = logged_federation(sorted(NETWORKS), recorder=True)
    for half in split_feeds():
        federation.feed_all(half)
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
