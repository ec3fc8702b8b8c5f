"""The fleet-replay workload process: a Federation replays every
member's pcap pair packet by packet, serially, one period at a time.

    python3 perfbench/fleet_replay.py MODE INPUTS RESULT SECONDS [SPANS]

MODE is ``setup`` (stop once the first pass could begin), ``run``
(untraced passes) or ``traced`` (passes with span wrappers).  One pass
builds a fresh Federation and opens each member's two captures with
``PcapReader.iter_packets``.  Each step then calls
``feed_all(workers=1)`` with every member's next observation period of
traffic, cut from those streams as they are read; the step ends with
the fleet rollup ``feed_all`` emits.  ``finish()`` closes the pass.
Passes repeat until SECONDS have gone by (at least one).  Telemetry is
off.
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402


def build_federation(members):
    from repro.packet.addresses import IPv4Network
    from repro.router.fleet import Federation

    federation = Federation()
    for member in members:
        federation.add_network(member["name"], IPv4Network.parse(member["stub"]))
    return federation


class PeriodWindows:
    """Cuts one time-sorted packet stream at period boundaries, lazily:
    ``window(end)`` yields the packets before *end* not yet taken."""

    def __init__(self, packets):
        self._packets = iter(packets)
        self.head = next(self._packets, None)

    def window(self, end):
        while self.head is not None and self.head.timestamp < end:
            yield self.head
            self.head = next(self._packets, None)


def replay_pass(federation, members, inputs, period):
    """One feed of every member, a period per step; returns the step
    times, the pass's verdict time and per-member outputs."""
    from repro.pcap.reader import PcapReader

    now_ns = time.monotonic_ns
    readers = []
    streams = {}
    t0 = now_ns()
    for member in members:
        out_reader = PcapReader.open(os.path.join(inputs, member["pcap_out"]))
        in_reader = PcapReader.open(os.path.join(inputs, member["pcap_in"]))
        readers += [out_reader, in_reader]
        streams[member["name"]] = (
            PeriodWindows(out_reader.iter_packets()),
            PeriodWindows(in_reader.iter_packets()),
        )
    steps = []
    packets = 0
    end = period
    while any(w.head is not None for pair in streams.values() for w in pair):
        traffic = {
            name: (out.window(end), inb.window(end)) for name, (out, inb) in streams.items()
        }
        t1 = now_ns()
        processed = federation.feed_all(traffic, workers=1)
        steps.append(now_ns() - t1)
        packets += sum(processed.values())
        end += period
    federation.finish()
    t2 = now_ns()
    for reader in readers:
        reader.close()
    outputs = {}
    for member in members:
        detector = federation.member(member["name"])[1].detector
        outputs[member["name"]] = [
            [r.period_index, r.syn_count, r.synack_count, r.statistic, r.alarm]
            for r in detector.records
        ]
    return {
        "steps_ns": steps,
        "feed_ns": sum(steps),
        "verdict_ns": t2 - t0,
        "packets": packets,
        "outputs": outputs,
    }


def main(argv):
    mode, inputs, result_path, seconds = argv[0], argv[1], argv[2], float(argv[3])
    rec = None
    if mode == "traced":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    with open(os.path.join(inputs, "manifest.json")) as handle:
        manifest = json.load(handle)
    members = manifest["members"]
    period = manifest["period_s"]
    federation = build_federation(members)
    result = {
        "started_ns": STARTED_NS, "ready_ns": time.monotonic_ns(),
        "passes": [], "calibration": [],
    }
    if mode != "setup":
        deadline = time.monotonic_ns() + int(seconds * 1e9)
        while True:
            result["calibration"].append(calibrate.kernel())
            if rec is None:
                outcome = replay_pass(federation, members, inputs, period)
            else:
                with rec.span("replay.pass"):
                    outcome = replay_pass(federation, members, inputs, period)
            result["passes"].append(outcome)
            if time.monotonic_ns() >= deadline:
                break
            if rec is not None:
                rec.forget_instances()
            federation = build_federation(members)
        if rec is not None:
            result["layers"] = spans.layer_metrics(rec, "replay.pass")
            rec.write(argv[4], {"workload": "fleet-replay", "started_ns": STARTED_NS})
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
