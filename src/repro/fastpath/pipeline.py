"""The columnar detection pipeline: scan → merge → periodize → SynDog.

Feeds :class:`~repro.core.syndog.SynDog` the *same per-period count
deltas* the object pipeline's :class:`~repro.core.sniffer.CountExchange`
would emit, computed with vectorized passes instead of per-packet
callbacks:

* the two interface captures are scanned into decoded-record columns
  (timestamp + class code) by :func:`scan_capture`;
* the directions are interleaved by the object path's one rule,
  :func:`~repro.core.sniffer.merge_directional_streams` (ties
  outbound-first, no lookahead), replicated over columns — a stable
  lexsort on (timestamp, direction) when both captures are time-sorted,
  an exact two-pointer replica when a fault-injected capture is
  reordered;
* period boundaries replicate ``CountExchange``'s *accumulated* float
  clock (``start += t0`` per close, not ``start + k*t0``), and each
  packet lands in the period given by the running max of merged
  timestamps — bit-for-bit the exchange's behaviour on out-of-order
  timestamps;
* per-period (SYN, SYN/ACK) counts come from ``np.bincount`` and are
  fed through ``SynDog.observe_period`` with the exact start times the
  exchange would report, so normalization, CUSUM, TSDB series, events,
  alerts and the ``cusum.step`` profiler stage are untouched.

Metrics parity: the sniffer/exchange counter totals
(``sniffer_packets_total``, ``sniffer_packets_counted_total``,
``exchange_periods_total``) are bulk-incremented, through the bound
handles of the ``CountExchange`` the object run would have fed, to the
values that run would leave; the detector's exchange clock is synced so
checkpoints taken after a fastpath run equal the object pipeline's.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, List, Optional, Tuple, Union

import numpy as np

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.sniffer import CountExchange
from ..core.syndog import DetectionResult, SynDog
from ..packet.classify import ClassifierStats
from ..pcap.format import LINKTYPE_ETHERNET, PcapTruncatedError
from .classify import CLASS_SKIP, CLASS_SYN, CLASS_SYN_ACK, accumulate_stats, classify_block
from .columns import DEFAULT_BLOCK_BYTES, ColumnarPcapReader

__all__ = [
    "DirectionColumns",
    "scan_capture",
    "detect_from_pcap_images",
    "counts_from_pcaps_fast",
]

PathLike = Union[str, Path]
Source = Union[str, Path, bytes, BinaryIO]

_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)


@dataclass
class DirectionColumns:
    """One interface capture reduced to decoded-record columns.

    Skipped (undecodable) records are excluded from the columns — they
    never reach the sniffers in the object pipeline — but stay audited
    in ``skipped_records``, mirroring ``PcapReader``'s counters.
    """

    timestamps: np.ndarray  # float64, decoded records in capture order
    codes: np.ndarray       # uint8 class codes, aligned with timestamps
    steps: np.ndarray       # uint8 rejection-step codes, aligned
    records_read: int
    skipped_records: int
    truncation: Optional[PcapTruncatedError]

    @property
    def decoded(self) -> int:
        return int(self.timestamps.size)

    def classifier_stats(self) -> ClassifierStats:
        """The statistics a ``PacketClassifier`` fed every decoded
        packet would hold (the oracle the differential suite compares
        against)."""
        return accumulate_stats(ClassifierStats(), self.codes, self.steps)


def scan_capture(
    source: Source,
    strict: bool = False,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> DirectionColumns:
    """Scan one capture (path, bytes image, or open binary stream) into
    :class:`DirectionColumns`.  Tolerant by default, like the streaming
    detection entry points; raw block buffers are dropped as soon as
    each block is classified, so memory stays O(block)."""
    if isinstance(source, (str, Path)):
        reader = ColumnarPcapReader.open(source, obs=obs)
    elif isinstance(source, (bytes, bytearray, memoryview)):
        reader = ColumnarPcapReader(io.BytesIO(bytes(source)), obs=obs)
    else:
        reader = ColumnarPcapReader(source, obs=obs)
    ethernet = reader.header.network == LINKTYPE_ETHERNET
    prof_classify = (
        obs.profiler.stage("fastpath.classify", sample_every=1)
        if obs is not None and obs.profiler.enabled
        else None
    )
    ts_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []
    step_parts: List[np.ndarray] = []
    skipped = 0
    try:
        for block in reader.iter_blocks(strict=strict, block_bytes=block_bytes):
            token = None if prof_classify is None else prof_classify.begin()
            codes, steps = classify_block(block, ethernet)
            keep = codes != CLASS_SKIP
            kept = int(np.count_nonzero(keep))
            skipped += codes.size - kept
            if kept == codes.size:
                ts_parts.append(block.timestamps)
                code_parts.append(codes)
                step_parts.append(steps)
            elif kept:
                ts_parts.append(block.timestamps[keep])
                code_parts.append(codes[keep])
                step_parts.append(steps[keep])
            if prof_classify is not None:
                prof_classify.end(
                    token, packets=len(block), nbytes=int(block.caplens.sum())
                )
    finally:
        reader.close()
    if ts_parts:
        timestamps = np.concatenate(ts_parts)
        codes = np.concatenate(code_parts)
        steps = np.concatenate(step_parts)
    else:
        timestamps, codes, steps = _EMPTY_F8, _EMPTY_U8, _EMPTY_U8
    return DirectionColumns(
        timestamps=timestamps,
        codes=codes,
        steps=steps,
        records_read=reader.records_read,
        skipped_records=skipped,
        truncation=reader.truncation,
    )


# ----------------------------------------------------------------------
# Merge + periodize
# ----------------------------------------------------------------------
def _two_pointer_merge(ts_out: np.ndarray, ts_in: np.ndarray) -> np.ndarray:
    """Exact replica of
    :func:`~repro.core.sniffer.merge_directional_streams` over the two
    tagged streams (tags 0=outbound, 1=inbound): repeatedly take
    whichever stream's head has the smaller (timestamp, tag) key.
    Valid for *unsorted* inputs too — reordered fault-injected captures
    — because with two iterators the heap degenerates to this
    head-vs-head comparison."""
    n_out, n_in = len(ts_out), len(ts_in)
    order = np.empty(n_out + n_in, dtype=np.int64)
    a = ts_out.tolist()
    b = ts_in.tolist()
    i = j = k = 0
    while i < n_out and j < n_in:
        if a[i] <= b[j]:  # ties break outbound-first: (t, 0) < (t, 1)
            order[k] = i
            i += 1
        else:
            order[k] = n_out + j
            j += 1
        k += 1
    while i < n_out:
        order[k] = i
        i += 1
        k += 1
    while j < n_in:
        order[k] = n_out + j
        j += 1
        k += 1
    return order


def _is_sorted(ts: np.ndarray) -> bool:
    return ts.size < 2 or bool(np.all(ts[1:] >= ts[:-1]))


@dataclass
class _Merged:
    timestamps: np.ndarray  # float64, merged order
    outbound: np.ndarray    # bool, lane came from the outbound capture
    codes: np.ndarray       # uint8, merged order


def _merge_columns(out: DirectionColumns, inb: DirectionColumns) -> _Merged:
    ts = np.concatenate([out.timestamps, inb.timestamps])
    tag = np.zeros(ts.size, dtype=np.uint8)
    tag[out.decoded:] = 1
    codes = np.concatenate([out.codes, inb.codes])
    if _is_sorted(out.timestamps) and _is_sorted(inb.timestamps):
        # Stable sort on (timestamp, tag) == the object merge on sorted input.
        order = np.lexsort((tag, ts))
    else:
        order = _two_pointer_merge(out.timestamps, inb.timestamps)
    return _Merged(
        timestamps=ts[order], outbound=tag[order] == 0, codes=codes[order]
    )


@dataclass
class _Periodized:
    """Per-period counts plus the per-packet period index column."""

    starts: List[float]          # accumulated period start times, len P+1
    syn_counts: np.ndarray       # int64, len P+1 (last = unflushed period)
    synack_counts: np.ndarray    # int64, len P+1
    packet_period: np.ndarray    # int64 per merged packet
    closed_periods: int          # P: periods packet timestamps closed

    @property
    def flush_period(self) -> int:
        return self.closed_periods


def _periodize(merged: _Merged, period: float, start_time: float = 0.0) -> _Periodized:
    """Replicate ``CountExchange``'s period arithmetic over columns.

    Boundaries are produced by *repeated addition* (``start += t0``),
    matching the exchange's float accumulation exactly; a packet counts
    toward the period implied by the running max of merged timestamps,
    which is how the exchange treats timestamps that step backwards.
    """
    ts = merged.timestamps
    boundaries: List[float] = []
    starts: List[float] = [start_time]
    if ts.size:
        running_max = np.maximum.accumulate(ts)
        last = float(running_max[-1])
        boundary = start_time + period
        while last >= boundary:
            boundaries.append(boundary)
            starts.append(boundary)
            boundary += period
        packet_period = np.searchsorted(
            np.asarray(boundaries, dtype=np.float64), running_max, side="right"
        )
    else:
        packet_period = np.empty(0, dtype=np.int64)
    closed = len(boundaries)
    syn_lane = merged.outbound & (merged.codes == CLASS_SYN)
    synack_lane = ~merged.outbound & (merged.codes == CLASS_SYN_ACK)
    syn_counts = np.bincount(
        packet_period[syn_lane], minlength=closed + 1
    ).astype(np.int64)
    synack_counts = np.bincount(
        packet_period[synack_lane], minlength=closed + 1
    ).astype(np.int64)
    return _Periodized(
        starts=starts,
        syn_counts=syn_counts,
        synack_counts=synack_counts,
        packet_period=packet_period,
        closed_periods=closed,
    )


# ----------------------------------------------------------------------
# Metrics parity
# ----------------------------------------------------------------------
def _bulk_counter_totals(
    exchange: CountExchange,
    outbound: np.ndarray,
    codes: np.ndarray,
    periods: int,
) -> None:
    """Advance *exchange*'s bound sniffer/exchange counters to the
    totals a packet-at-a-time object run through it would have
    accumulated over the merged lanes *outbound*/*codes* (a no-op when
    its registry is disabled)."""
    if exchange._m_out_seen is None:
        return
    inbound = ~outbound
    exchange._m_out_seen.inc(int(np.count_nonzero(outbound)))
    exchange._m_out_counted.inc(
        int(np.count_nonzero(outbound & (codes == CLASS_SYN)))
    )
    exchange._m_in_seen.inc(int(np.count_nonzero(inbound)))
    exchange._m_in_counted.inc(
        int(np.count_nonzero(inbound & (codes == CLASS_SYN_ACK)))
    )
    exchange._m_periods.inc(periods)


def _drive_detector(
    detector: SynDog,
    merged: _Merged,
    grid: _Periodized,
    stop_at_first_alarm: bool,
) -> None:
    """Feed the periodized counts through ``SynDog.observe_period`` with
    the object pipeline's exact semantics, including the packet-group
    granularity of ``stop_at_first_alarm`` (the object path checks the
    alarm only after consuming *all* periods one packet closed) and the
    final single-period flush when no early stop happens."""
    period = detector.parameters.observation_period
    starts = grid.starts
    syn = grid.syn_counts
    synack = grid.synack_counts
    exchange = detector.exchange

    def observe(k: int) -> bool:
        record = detector.observe_period(
            int(syn[k]), int(synack[k]), start_time=starts[k]
        )
        return record.alarm

    if stop_at_first_alarm and grid.closed_periods:
        packet_period = grid.packet_period
        previous = np.concatenate(([0], packet_period[:-1]))
        closers = np.flatnonzero(packet_period > previous)
        for position in closers:
            low = int(previous[position])
            high = int(packet_period[position])
            alarmed = False
            for k in range(low, high):
                alarmed = observe(k) or alarmed
            if alarmed:
                # Early stop: the object run returns mid-stream, so the
                # exchange clock and the metric totals reflect only the
                # packets up to (and including) the closing one.
                exchange.load_state(
                    {"period_index": high, "period_start": starts[high]}
                )
                prefix = slice(0, int(position) + 1)
                _bulk_counter_totals(
                    exchange, merged.outbound[prefix], merged.codes[prefix], high
                )
                return
    else:
        for k in range(grid.closed_periods):
            observe(k)
    # End of stream: close the trailing period (``flush``).
    observe(grid.flush_period)
    closed = grid.closed_periods + 1
    exchange.load_state(
        {"period_index": closed, "period_start": starts[-1] + period}
    )
    _bulk_counter_totals(exchange, merged.outbound, merged.codes, closed)


# ----------------------------------------------------------------------
# Public entry points (the fastpath twins of experiments.streaming)
# ----------------------------------------------------------------------
def detect_from_sources(
    outbound: Source,
    inbound: Source,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    stop_at_first_alarm: bool = False,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    detector: Optional[SynDog] = None,
) -> Tuple[DetectionResult, SynDog]:
    """Columnar twin of
    :func:`repro.experiments.streaming.detect_from_pcaps` over any
    capture sources (paths, byte images, open streams)."""
    out_cols = scan_capture(
        outbound, strict=False, obs=obs, block_bytes=block_bytes
    )
    in_cols = scan_capture(
        inbound, strict=False, obs=obs, block_bytes=block_bytes
    )
    if detector is None:
        detector = SynDog(parameters=parameters, obs=obs)
    merged = _merge_columns(out_cols, in_cols)
    grid = _periodize(merged, detector.parameters.observation_period)
    _drive_detector(detector, merged, grid, stop_at_first_alarm)
    return detector.result(), detector


def detect_from_pcap_images(
    outbound_image: bytes,
    inbound_image: bytes,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    stop_at_first_alarm: bool = False,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Tuple[DetectionResult, SynDog]:
    """In-memory variant (what the profiling workload drives)."""
    return detect_from_sources(
        outbound_image,
        inbound_image,
        parameters=parameters,
        stop_at_first_alarm=stop_at_first_alarm,
        obs=obs,
        block_bytes=block_bytes,
    )


def counts_from_pcaps_fast(
    outbound_path: PathLike,
    inbound_path: PathLike,
    period: float = 20.0,
    name: str = "pcap",
    block_bytes: int = DEFAULT_BLOCK_BYTES,
):
    """Columnar twin of
    :func:`repro.experiments.streaming.counts_from_pcaps`: aggregate two
    interface captures into a CountTrace with byte-identical per-period
    counts (including the trailing flush period)."""
    from ..trace.events import CountTrace, TraceMetadata

    out_cols = scan_capture(outbound_path, strict=False, block_bytes=block_bytes)
    in_cols = scan_capture(inbound_path, strict=False, block_bytes=block_bytes)
    merged = _merge_columns(out_cols, in_cols)
    grid = _periodize(merged, float(period))
    reports = list(zip(grid.syn_counts.tolist(), grid.synack_counts.tolist()))
    # Metrics parity with the object aggregation, which feeds an
    # ambient-instrumented CountExchange packet by packet.
    _bulk_counter_totals(
        CountExchange(observation_period=period),
        merged.outbound,
        merged.codes,
        grid.closed_periods + 1,
    )
    metadata = TraceMetadata(
        name=name,
        duration=len(reports) * period,
        bidirectional=False,
        description=f"aggregated from {outbound_path} / {inbound_path}",
    )
    return CountTrace(
        metadata=metadata,
        period=period,
        counts=tuple((int(syn), int(synack)) for syn, synack in reports),
    )
