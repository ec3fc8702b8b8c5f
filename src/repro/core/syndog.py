"""The SYN-dog agent: sniffers → normalization → CUSUM → decision.

This is the paper's contribution assembled end-to-end.  A
:class:`SynDog` ingests the packet streams at a leaf router's two
interfaces, aggregates per-period SYN / SYN-ACK counts, normalizes the
difference by the EWMA estimate of the mean SYN/ACK volume (Eq. 1),
feeds the normalized series into the non-parametric CUSUM test
(Eq. 2–4), and raises an alarm when the statistic crosses the flooding
threshold N.  Total state: two packet counters, one EWMA float, one
CUSUM float — O(1) regardless of traffic volume, which is why the agent
itself cannot be flooded.

Two ingestion styles are offered:

* packet level — :meth:`observe_outbound` / :meth:`observe_inbound`, for
  router integration and pcap replay;
* count level — :meth:`observe_period`, for trace-driven experiments
  that pre-aggregate counts (how the paper's simulations work).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..obs.fanout import PeriodFanOut, count_checkpoint_restore
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.packet import Packet
from .cusum import NonParametricCusum
from .normalization import NormalizedDifference
from .parameters import DEFAULT_PARAMETERS, SynDogParameters
from .sniffer import CountExchange, PeriodReport, merge_directional_streams

__all__ = ["SynDog", "DetectionRecord", "DetectionResult", "CHECKPOINT_VERSION"]

#: Version tag written into every checkpoint so a future format change
#: can refuse (or migrate) stale state instead of silently misreading it.
CHECKPOINT_VERSION = 1

#: Fallback agent names (``syndog-0``, ``syndog-1``, ...) so several
#: anonymous detectors sharing one flight recorder / event log stay
#: distinguishable.
_AGENT_SEQ = itertools.count()


@dataclass(frozen=True)
class DetectionRecord:
    """The agent's full view of one observation period."""

    period_index: int
    start_time: float
    end_time: float
    syn_count: int
    synack_count: int
    k_bar: float       #: K̄ used to normalize this period
    x: float           #: normalized difference X_n = Δ_n / K̄
    statistic: float   #: CUSUM statistic y_n
    alarm: bool        #: decision d_N(y_n)
    degraded: bool = False  #: counts were carried forward / held, not observed


@dataclass(frozen=True)
class DetectionResult:
    """Summary of a complete run over a trace."""

    records: Tuple[DetectionRecord, ...]
    first_alarm_period: Optional[int]
    first_alarm_time: Optional[float]

    @property
    def alarmed(self) -> bool:
        return self.first_alarm_period is not None

    @property
    def statistics(self) -> List[float]:
        """The y_n series — what Figures 5, 7, 8 and 9 plot."""
        return [record.statistic for record in self.records]

    @property
    def max_statistic(self) -> float:
        return max((record.statistic for record in self.records), default=0.0)

    def detection_delay_periods(self, attack_start_time: float) -> Optional[float]:
        """Detection delay in observation periods after *attack_start_time*
        (the paper's Tables 2 and 3 metric), or None if no alarm fired.

        Delay is measured from attack start to the *end* of the period
        whose report triggered the alarm, in units of t0.
        """
        if self.first_alarm_period is None or self.first_alarm_time is None:
            return None
        return max(0.0, self.first_alarm_time - attack_start_time) / (
            self.records[0].end_time - self.records[0].start_time
        )


class SynDog:
    """A SYN-dog software agent for one leaf router.

    Parameters
    ----------
    parameters:
        The detector parameterization; defaults to the paper's universal
        constants (t0 = 20 s, a = 0.35, h = 0.7, N = 1.05).
    start_time:
        Timestamp at which the first observation period opens.
    initial_k:
        Optional warm-start value for K̄; when omitted the first
        period's SYN/ACK count initializes the estimate.
    freeze_k_on_alarm:
        When True, K̄ stops updating while the alarm is active.
    staleness_cap:
        Degraded-mode bound: how many *consecutive* missing observation
        periods may be bridged by carrying the last observed counts
        forward (each such period is surfaced with ``degraded=True``).
        Beyond the cap the detector *holds* — the statistic freezes and
        K̄ stops updating — rather than keep re-feeding stale counts.
    name:
        The agent's identity in events, flight-recorder tapes and
        ``/healthz`` (a deployed agent uses its router's name);
        defaults to a process-unique ``syndog-<n>``.
    """

    def __init__(
        self,
        parameters: SynDogParameters = DEFAULT_PARAMETERS,
        start_time: float = 0.0,
        initial_k: Optional[float] = None,
        freeze_k_on_alarm: bool = False,
        staleness_cap: int = 3,
        obs: Optional[Instrumentation] = None,
        name: Optional[str] = None,
    ) -> None:
        if staleness_cap < 0:
            raise ValueError(f"staleness_cap cannot be negative: {staleness_cap}")
        self.parameters = parameters
        self.staleness_cap = int(staleness_cap)
        self.name = name if name is not None else f"syndog-{next(_AGENT_SEQ)}"
        obs = resolve_instrumentation(obs)
        self.exchange = CountExchange(
            observation_period=parameters.observation_period,
            start_time=start_time,
            obs=obs,
        )
        self.normalizer = NormalizedDifference(
            alpha=parameters.ewma_alpha,
            initial_k=initial_k,
            freeze_on_alarm=freeze_k_on_alarm,
        )
        self.cusum = NonParametricCusum(
            drift=parameters.drift, threshold=parameters.threshold
        )
        # The record history is evidence (result(), records); the O(1)
        # summary below is the agent state every view reads, folded
        # from each record by _fold.
        self._records: List[DetectionRecord] = []
        self._next_period_index = 0
        self._last_record: Optional[DetectionRecord] = None
        self._first_alarm: Optional[DetectionRecord] = None
        self._degraded_count = 0
        self._alarm_rises = 0
        self._prev_alarm = False
        self._freeze_k_on_alarm = freeze_k_on_alarm
        # Degradation bookkeeping: the last real counts (carry-forward
        # source) and how many periods in a row went missing.
        self._last_counts: Optional[Tuple[int, int]] = None
        self._consecutive_missing = 0
        # Every closed period's telemetry, in one fixed order; empty
        # (one check per period) when the bundle is disabled.
        self._periods = PeriodFanOut(obs, self.name, parameters.threshold)
        # Per-period stage: always timed in timers mode (sample_every=1)
        # — period cadence is t0 = 20 s, clocks here are cheap.
        self._prof_cusum = (
            obs.profiler.stage("cusum.step", sample_every=1)
            if obs.profiler.enabled
            else None
        )

    # ------------------------------------------------------------------
    # Count-level ingestion (trace-driven experiments)
    # ------------------------------------------------------------------
    def observe_period(
        self,
        syn_count: int,
        synack_count: int,
        start_time: Optional[float] = None,
    ) -> DetectionRecord:
        """Feed one observation period's aggregated counts.

        ``start_time`` defaults to contiguous periods from t = 0; when
        the caller supplies it (packet-level ingestion, warm-up-skipping
        wrappers) the period index is derived from it so record indices
        and times always agree on one absolute clock.
        """
        record = self._ingest(syn_count, synack_count, start_time, degraded=False)
        self._last_counts = (syn_count, synack_count)
        self._consecutive_missing = 0
        return record

    def observe_missing_period(
        self, start_time: Optional[float] = None
    ) -> DetectionRecord:
        """Handle one observation period whose report never arrived.

        A stalled sniffer, a lost IPC message or a restart gap must not
        silently reset (or silently skew) the change-point test, so
        missed periods are processed *explicitly*:

        * up to ``staleness_cap`` consecutive misses, the last observed
          counts are carried forward through the normal pipeline — the
          statistic keeps evolving on the best available estimate;
        * beyond the cap (or before any period was ever observed) the
          detector holds: the statistic and K̄ freeze and an empty
          record is emitted.

        Either way the record is flagged ``degraded=True`` and counted
        in ``degraded_periods_total``, so a chaos run (or a production
        incident) is visible in every export.
        """
        self._consecutive_missing += 1
        if (
            self._last_counts is None
            or self._consecutive_missing > self.staleness_cap
        ):
            # Hold: period index and clock advance, statistic and K̄
            # do not.
            return self._close(start_time, 0, 0, 0.0, degraded=True)
        syn_count, synack_count = self._last_counts
        return self._ingest(syn_count, synack_count, start_time, degraded=True)

    def _period_coordinates(
        self, start_time: Optional[float]
    ) -> Tuple[int, float]:
        t0 = self.parameters.observation_period
        if start_time is None:
            return self._next_period_index, self._next_period_index * t0
        return int(round(start_time / t0)), start_time

    def _ingest(
        self,
        syn_count: int,
        synack_count: int,
        start_time: Optional[float],
        degraded: bool,
    ) -> DetectionRecord:
        # One "cusum.step" = normalization (Δ_n → X_n) + CUSUM update,
        # attributed per period.
        prof = self._prof_cusum
        token = None if prof is None else prof.begin()
        x = self.normalizer.observe(
            syn_count, synack_count, alarm_active=self.cusum.alarm
        )
        self.cusum.update(x)
        if prof is not None:
            prof.end(token, packets=1)
        return self._close(start_time, syn_count, synack_count, x, degraded)

    def _close(
        self,
        start_time: Optional[float],
        syn_count: int,
        synack_count: int,
        x: float,
        degraded: bool,
    ) -> DetectionRecord:
        """Record the period at the current K̄ and CUSUM state, fold it
        into the summary and fan it out."""
        period_index, start_time = self._period_coordinates(start_time)
        record = DetectionRecord(
            period_index=period_index,
            start_time=start_time,
            end_time=start_time + self.parameters.observation_period,
            syn_count=syn_count,
            synack_count=synack_count,
            k_bar=self.normalizer.k_bar,
            x=x,
            statistic=self.cusum.statistic,
            alarm=self.cusum.alarm,
            degraded=degraded,
        )
        transition = record.alarm != self._prev_alarm
        self._fold(record)
        self._periods.emit(record, transition)
        return record

    def _fold(self, record: DetectionRecord) -> None:
        """Fold one closed period's record into the history and the
        O(1) summary."""
        self._records.append(record)
        self._next_period_index += 1
        self._last_record = record
        if record.degraded:
            self._degraded_count += 1
        if record.alarm:
            if self._first_alarm is None:
                self._first_alarm = record
            if not self._prev_alarm:
                self._alarm_rises += 1
        self._prev_alarm = record.alarm

    def observe_counts(
        self, counts: Iterable[Tuple[int, int]]
    ) -> DetectionResult:
        """Run over a whole pre-aggregated (SYN, SYN/ACK) count series."""
        for syn_count, synack_count in counts:
            self.observe_period(syn_count, synack_count)
        return self.result()

    # ------------------------------------------------------------------
    # Packet-level ingestion (router integration / pcap replay)
    # ------------------------------------------------------------------
    def _consume_reports(
        self, reports: Sequence[PeriodReport]
    ) -> List[DetectionRecord]:
        return [
            self.observe_period(
                report.syn_count, report.synack_count, start_time=report.start_time
            )
            for report in reports
        ]

    def observe_outbound(self, packet: Packet) -> List[DetectionRecord]:
        """Feed one packet crossing the outbound interface.  Returns the
        detection records for any periods that closed."""
        return self._consume_reports(self.exchange.observe_outbound(packet))

    def observe_inbound(self, packet: Packet) -> List[DetectionRecord]:
        """Feed one packet crossing the inbound interface."""
        return self._consume_reports(self.exchange.observe_inbound(packet))

    def observe_streams(
        self,
        outbound: Iterable[Packet],
        inbound: Iterable[Packet],
        end_time: Optional[float] = None,
        stop_at_first_alarm: bool = False,
    ) -> DetectionResult:
        """Replay the two interfaces' packet streams through the agent.

        The streams are interleaved lazily by
        :func:`~repro.core.sniffer.merge_directional_streams`, as the
        router would see them in real time, so a replay runs in
        constant memory over any iterables (lists, generators, pcap
        readers).  With ``stop_at_first_alarm`` the replay returns as
        soon as the alarm fires — the on-line deployment behaviour,
        where the response begins mid-stream — without flushing the
        open period.
        """
        for packet, is_outbound in merge_directional_streams(outbound, inbound):
            if is_outbound:
                records = self.observe_outbound(packet)
            else:
                records = self.observe_inbound(packet)
            if stop_at_first_alarm and any(record.alarm for record in records):
                return self.result()
        self.flush(end_time=end_time)
        return self.result()

    def flush(self, end_time: Optional[float] = None) -> List[DetectionRecord]:
        """Close the trailing observation period at end of stream."""
        return self._consume_reports(self.exchange.flush(end_time=end_time))

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def alarm(self) -> bool:
        """Current decision: is a SYN flooding source active in the stub
        network?"""
        return self.cusum.alarm

    @property
    def statistic(self) -> float:
        """Current CUSUM statistic y_n."""
        return self.cusum.statistic

    @property
    def k_bar(self) -> float:
        """Current estimate of the mean SYN/ACK volume per period."""
        return self.normalizer.k_bar

    @property
    def records(self) -> Tuple[DetectionRecord, ...]:
        return tuple(self._records)

    @property
    def last_record(self) -> Optional[DetectionRecord]:
        """The most recent period's record (None before the first)."""
        return self._last_record

    @property
    def next_period_index(self) -> int:
        """Periods observed, those before a restore included."""
        return self._next_period_index

    @property
    def alarm_rises(self) -> int:
        """Not-alarmed to alarmed transitions since built or restored."""
        return self._alarm_rises

    def result(self) -> DetectionResult:
        first_alarm = self._first_alarm
        return DetectionResult(
            records=tuple(self._records),
            first_alarm_period=None if first_alarm is None else first_alarm.period_index,
            first_alarm_time=None if first_alarm is None else first_alarm.end_time,
        )

    @property
    def degraded_periods(self) -> int:
        """How many of this agent's records were produced in degraded
        mode (carried forward or held)."""
        return self._degraded_count

    def min_detectable_rate(self) -> float:
        """The agent's *current* detection floor (Eq. 8) given its live
        K̄ estimate — 37 SYN/s at a UNC-sized site, 1.75 at Auckland."""
        return self.parameters.min_detectable_rate(self.k_bar)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """The agent's complete O(1) detection state as a
        JSON-serializable dict.

        Everything a restarted process needs to continue the run as if
        never interrupted: the EWMA K̄ estimate, the CUSUM state, the
        period clock, and the degraded-mode bookkeeping.  The per-period
        record history is *not* included — it is O(n) evidence, already
        exported through events/metrics, and a restart must not need it.
        """
        return {
            "version": CHECKPOINT_VERSION,
            "name": self.name,
            "next_period_index": self._next_period_index,
            "prev_alarm": self._prev_alarm,
            "k_estimate": self.normalizer.estimator.raw_estimate,
            "cusum": self.cusum.state_dict(),
            "exchange": self.exchange.state_dict(),
            "last_counts": (
                None if self._last_counts is None else list(self._last_counts)
            ),
            "consecutive_missing": self._consecutive_missing,
            "parameters": {
                "observation_period": self.parameters.observation_period,
                "drift": self.parameters.drift,
                "attack_increase": self.parameters.attack_increase,
                "threshold": self.parameters.threshold,
                "ewma_alpha": self.parameters.ewma_alpha,
                "normal_mean": self.parameters.normal_mean,
            },
            "staleness_cap": self.staleness_cap,
            "freeze_k_on_alarm": self._freeze_k_on_alarm,
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        parameters: Optional[SynDogParameters] = None,
        obs: Optional[Instrumentation] = None,
        name: Optional[str] = None,
    ) -> "SynDog":
        """Rebuild an agent from a :meth:`checkpoint` dict — the one
        checkpoint loader.

        The restored agent produces records from ``next_period_index``
        onward that are bit-identical to what the uninterrupted agent
        would have produced — the guarantee the checkpoint round-trip
        tests pin down.  Its record history starts empty, as a restarted
        process's would.  ``parameters``/``obs``/``name`` default to the
        checkpointed values (parameters are always reconstructed from
        the checkpoint unless overridden, so a restart cannot silently
        change the test's configuration).
        """
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this build writes {CHECKPOINT_VERSION})"
            )
        if parameters is None:
            parameters = SynDogParameters(**state["parameters"])
        obs = resolve_instrumentation(obs)
        dog = cls(
            parameters=parameters,
            staleness_cap=int(state.get("staleness_cap", 3)),
            freeze_k_on_alarm=bool(state.get("freeze_k_on_alarm", False)),
            obs=obs,
            name=name if name is not None else state.get("name"),
        )
        dog._next_period_index = int(state["next_period_index"])
        dog._prev_alarm = bool(state["prev_alarm"])
        dog.normalizer.estimator.load(state["k_estimate"])
        dog.cusum.load_state(state["cusum"])
        dog.exchange.load_state(state["exchange"])
        last_counts = state.get("last_counts")
        dog._last_counts = (
            None if last_counts is None else (int(last_counts[0]), int(last_counts[1]))
        )
        dog._consecutive_missing = int(state.get("consecutive_missing", 0))
        count_checkpoint_restore(obs)
        return dog

    def clear_alarm(self) -> None:
        """Operator acknowledgement: reset the CUSUM statistic to zero
        and re-arm the detector.

        The K̄ estimate and the observation clock are *kept* — clearing
        an alarm must not make the agent forget what normal traffic
        looks like, or the next attack would get a fresh warm-up to hide
        in.  If the flood is still running, the statistic re-accumulates
        and the alarm re-fires within the usual detection delay.
        """
        self.cusum.reset()

    def __repr__(self) -> str:
        return (
            f"SynDog(periods={self._next_period_index}, y={self.statistic:.4f}, "
            f"K={self.k_bar:.1f}, alarm={self.alarm})"
        )
