"""Two-interface timestamp-merge equivalence.

``core.sniffer.merge_directional_streams`` is the object path's one
interleaving rule: a lazy ``heapq.merge``, ties outbound-first, no
lookahead.  The fastpath merges columns with a stable lexsort when both
captures are time-sorted and an exact two-pointer replica of the heap
when they are not.  These tests pin the two implementations to each
other packet by packet — on identical captures, clock-skewed captures,
and jittered (unsorted) captures — and pin every object-path replay
(detector, router, federation, last-mile variant) to the fastpath on
reordered captures.
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest

from repro.core.lastmile import LastMileSynDog
from repro.core.sniffer import merge_directional_streams
from repro.core.syndog import SynDog
from repro.fastpath.pipeline import (
    _merge_columns,
    detect_from_pcap_images,
    scan_capture,
)
from repro.faults.models import reorder_stream, skew_timestamp
from repro.packet.addresses import IPv4Network
from repro.pcap.reader import PcapReader
from repro.pcap.writer import packets_to_pcap_bytes
from repro.router import Federation, LeafRouter, SynDogAgent
from repro.trace.profiles import SITE_PROFILES
from repro.trace.synthetic import generate_packet_trace

from ._oracle import assert_detection_identical


def _oracle_merge(outbound_image: bytes, inbound_image: bytes):
    merged = merge_directional_streams(
        PcapReader(io.BytesIO(outbound_image)).iter_packets(strict=False),
        PcapReader(io.BytesIO(inbound_image)).iter_packets(strict=False),
    )
    timestamps, lanes = [], []
    for packet, is_outbound in merged:
        timestamps.append(packet.timestamp)
        lanes.append(is_outbound)
    return timestamps, lanes


def _fast_merge(outbound_image: bytes, inbound_image: bytes):
    merged = _merge_columns(
        scan_capture(outbound_image), scan_capture(inbound_image)
    )
    return merged.timestamps.tolist(), merged.outbound.tolist()


def _assert_merges_equal(outbound_image: bytes, inbound_image: bytes):
    oracle_ts, oracle_lanes = _oracle_merge(outbound_image, inbound_image)
    fast_ts, fast_lanes = _fast_merge(outbound_image, inbound_image)
    assert fast_ts == oracle_ts
    assert fast_lanes == oracle_lanes


def _site_images(seed: int = 7, duration: float = 240.0):
    trace = generate_packet_trace(
        SITE_PROFILES["harvard"], seed=seed, duration=duration
    )
    return list(trace.outbound), list(trace.inbound)


class TestMergeEquivalence:
    def test_identical_captures(self):
        """Both interfaces carrying the same timestamps: every merge
        step is a tie, so the outbound-first rule decides the whole
        order — the harshest test of tie-breaking."""
        outbound, _ = _site_images()
        image = packets_to_pcap_bytes(outbound)
        _assert_merges_equal(image, image)
        assert_detection_identical(image, image)

    def test_disjoint_and_interleaved_captures(self):
        outbound, inbound = _site_images()
        _assert_merges_equal(
            packets_to_pcap_bytes(outbound), packets_to_pcap_bytes(inbound)
        )

    def test_skewed_clock_offset(self):
        """A constant clock offset between the two capture hosts — each
        capture stays sorted, so the lexsort path runs — must still
        produce the oracle's exact interleaving."""
        outbound, inbound = _site_images()
        rng = random.Random(0)
        for offset in (-7.5, -0.001, 0.001, 37.0):
            skewed = [
                packet.at(max(0.0, skew_timestamp(packet.timestamp, rng, offset=offset)))
                for packet in inbound
            ]
            out_image = packets_to_pcap_bytes(outbound)
            in_image = packets_to_pcap_bytes(skewed)
            _assert_merges_equal(out_image, in_image)
            assert_detection_identical(out_image, in_image)

    def test_skewed_clock_jitter_unsorted(self):
        """Jitter large enough to reorder neighbours forces the
        two-pointer (head-vs-head) merge — the heapq degenerate case —
        and must stay packet-exact."""
        outbound, inbound = _site_images()
        rng = random.Random(3)
        jittered = [
            packet.at(
                max(0.0, skew_timestamp(packet.timestamp, rng, jitter=5.0))
            )
            for packet in inbound
        ]
        timestamps = [packet.timestamp for packet in jittered]
        assert timestamps != sorted(timestamps)  # really unsorted
        out_image = packets_to_pcap_bytes(outbound)
        in_image = packets_to_pcap_bytes(jittered)
        _assert_merges_equal(out_image, in_image)
        assert_detection_identical(out_image, in_image)

    def test_both_sides_unsorted(self):
        outbound, inbound = _site_images(seed=11)
        rng = random.Random(9)
        shuffle_out = list(outbound)
        rng.shuffle(shuffle_out)
        shuffle_in = list(inbound)
        rng.shuffle(shuffle_in)
        out_image = packets_to_pcap_bytes(shuffle_out)
        in_image = packets_to_pcap_bytes(shuffle_in)
        _assert_merges_equal(out_image, in_image)
        assert_detection_identical(out_image, in_image)

    def test_lexsort_and_two_pointer_agree_on_sorted_input(self):
        """On sorted inputs the two fastpath merge strategies must be
        interchangeable (the lexsort is just the vectorized shortcut)."""
        from repro.fastpath.pipeline import _two_pointer_merge

        outbound, inbound = _site_images(seed=5)
        out_cols = scan_capture(packets_to_pcap_bytes(outbound))
        in_cols = scan_capture(packets_to_pcap_bytes(inbound))
        ts = np.concatenate([out_cols.timestamps, in_cols.timestamps])
        tag = np.zeros(ts.size, dtype=np.uint8)
        tag[out_cols.decoded:] = 1
        lexsort_order = np.lexsort((tag, ts))
        two_pointer_order = _two_pointer_merge(
            out_cols.timestamps, in_cols.timestamps
        )
        assert lexsort_order.tolist() == two_pointer_order.tolist()

    def test_empty_sides(self):
        outbound, _ = _site_images(seed=2, duration=120.0)
        image = packets_to_pcap_bytes(outbound)
        empty = packets_to_pcap_bytes([])
        _assert_merges_equal(image, empty)
        _assert_merges_equal(empty, image)
        _assert_merges_equal(empty, empty)


# ----------------------------------------------------------------------
# Reordered captures through every object-path replay
# ----------------------------------------------------------------------
REORDERED_CASES = [
    (site, seed) for site in ("harvard", "auckland", "lbl") for seed in (1, 2)
]
STUB = IPv4Network.parse("10.0.0.0/8")


def _reordered_images(site: str, seed: int, duration: float = 400.0):
    """Both interfaces displaced by multi-path reordering, so packets
    arrive late within their own capture."""
    trace = generate_packet_trace(
        SITE_PROFILES[site], seed=seed, duration=duration
    )
    rng = random.Random(seed)
    return (
        packets_to_pcap_bytes(
            reorder_stream(trace.outbound, rng, probability=0.2, window=8)
        ),
        packets_to_pcap_bytes(
            reorder_stream(trace.inbound, rng, probability=0.2, window=8)
        ),
    )


def _packets(image: bytes):
    return PcapReader(io.BytesIO(image)).iter_packets(strict=False)


def _periods(records):
    return [
        (r.period_index, r.syn_count, r.synack_count, r.statistic, r.alarm)
        for r in records
    ]


@pytest.fixture(scope="module")
def reordered():
    """``{name: (outbound image, inbound image, fastpath periods)}``."""
    cases = {}
    for site, seed in REORDERED_CASES:
        out_image, in_image = _reordered_images(site, seed)
        timestamps = scan_capture(out_image).timestamps
        assert np.any(timestamps[1:] < timestamps[:-1])  # really reordered
        _result, dog = detect_from_pcap_images(out_image, in_image)
        cases[f"{site}-{seed}"] = (out_image, in_image, _periods(dog.records))
    return cases


class TestReorderedCaptureReplays:
    """A late packet counts in the open period on every path: the
    object replays must reproduce the fastpath's per-period counts,
    statistics and alarms exactly."""

    def test_syndog_observe_streams(self, reordered):
        for out_image, in_image, expected in reordered.values():
            dog = SynDog()
            dog.observe_streams(_packets(out_image), _packets(in_image))
            assert _periods(dog.records) == expected

    def test_leaf_router_replay(self, reordered):
        for out_image, in_image, expected in reordered.values():
            router = LeafRouter(STUB)
            agent = SynDogAgent(router)
            router.replay(_packets(out_image), _packets(in_image))
            agent.finish()
            assert _periods(agent.detector.records) == expected

    def test_federation_feed_all(self, reordered):
        federation = Federation()
        for name in reordered:
            federation.add_network(name, STUB)
        federation.feed_all(
            {
                name: (_packets(out_image), _packets(in_image))
                for name, (out_image, in_image, _) in reordered.items()
            }
        )
        federation.finish()
        for name, (_out, _in, expected) in reordered.items():
            _router, agent = federation.member(name)
            assert _periods(agent.detector.records) == expected

    def test_last_mile_observe_streams(self, reordered):
        """The victim-side variant feeds its inbound stream to the
        inner detector's SYN slot, so ``inbound=X, outbound=Y`` must
        match the fastpath over the images ``(X, Y)``."""
        for out_image, in_image, expected in reordered.values():
            dog = LastMileSynDog()
            result = dog.observe_streams(
                inbound=_packets(out_image), outbound=_packets(in_image)
            )
            assert _periods(result.records) == expected
