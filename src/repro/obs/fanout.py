"""The per-period fan-out: where every closed detector period goes.

:class:`PeriodFanOut` builds, once per (bundle, agent), the ordered
tuple of the bundle's enabled consumers; :data:`PERIOD_SINKS` fixes the
order: history store (tick, then the ``syndog_*`` samples), registry,
event log, flight recorder, alert manager (last, so rules see this
period's samples).  A disabled component contributes no sink, so the
null bundle costs a detector one check per period.  A period closed
without a live detector (a synthetic fleet's) only folds into the
recorder's tape (:func:`fold_period`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .tsdb import append_period_point, period_point

__all__ = ["PERIOD_SINKS", "PeriodFanOut", "fold_period", "count_checkpoint_restore"]

#: ``sink(record, point, transition)``: the closed period's
#: ``DetectionRecord``, its :func:`~repro.obs.tsdb.period_point`, and
#: whether its alarm bit differs from the previous period's.
Sink = Callable[[Any, Dict[str, Any], bool], None]


def _tsdb_sink(obs: Any, agent: str) -> Optional[Sink]:
    tsdb = obs.tsdb
    if not tsdb.enabled:
        return None

    def sink(record: Any, point: Dict[str, Any], transition: bool) -> None:
        # Snapshot the pipeline *before* this period's emissions (the
        # watermark the parallel merge re-creates), then the point.
        tsdb.tick(record.end_time)
        append_period_point(tsdb, agent, point)

    return sink


def _registry_sink(obs: Any, agent: str) -> Optional[Sink]:
    registry = obs.registry
    if not registry.enabled:
        return None
    periods = registry.counter(
        "syndog_periods_total", "Observation periods processed"
    )
    syn = registry.counter(
        "syndog_syn_total", "Outbound SYNs aggregated over all periods"
    )
    synack = registry.counter(
        "syndog_synack_total", "Inbound SYN/ACKs aggregated over all periods"
    )
    transitions = registry.counter(
        "syndog_alarm_transitions_total", "Alarm state transitions", ("state",)
    )
    statistic = registry.gauge("syndog_statistic", "Current CUSUM statistic y_n")
    x = registry.gauge("syndog_x", "Latest normalized difference X_n")
    k_bar = registry.gauge(
        "syndog_k_bar", "Current EWMA estimate of SYN/ACKs per period"
    )
    alarm = registry.gauge(
        "syndog_alarm", "Current decision d_N (1 = flooding source)"
    )
    degraded = registry.counter(
        "degraded_periods_total",
        "Observation periods handled in degraded mode "
        "(carried forward or held), by agent",
        ("agent",),
    ).labels(agent)

    def sink(record: Any, point: Dict[str, Any], transition: bool) -> None:
        periods.inc()
        syn.inc(record.syn_count)
        synack.inc(record.synack_count)
        statistic.set(record.statistic)
        x.set(record.x)
        k_bar.set(record.k_bar)
        alarm.set(1.0 if record.alarm else 0.0)
        if record.degraded:
            degraded.inc()
        if transition:
            transitions.labels("raised" if record.alarm else "cleared").inc()

    return sink


def _events_sink(obs: Any, agent: str) -> Optional[Sink]:
    events = obs.events
    if not events.enabled:
        return None

    def sink(record: Any, point: Dict[str, Any], transition: bool) -> None:
        events.emit("period", agent=agent, **point)
        if transition:
            events.emit(
                "alarm_raised" if record.alarm else "alarm_cleared",
                agent=agent,
                period_index=record.period_index,
                time=record.end_time,
                statistic=record.statistic,
                k_bar=record.k_bar,
            )

    return sink


def _recorder_sink(obs: Any, agent: str) -> Optional[Sink]:
    recorder = obs.recorder
    if not recorder.enabled:
        return None

    def sink(record: Any, point: Dict[str, Any], transition: bool) -> None:
        recorder.record(agent, point)

    return sink


def _alerts_sink(obs: Any, agent: str) -> Optional[Sink]:
    alerts = obs.alerts
    if not alerts.enabled:
        return None

    def sink(record: Any, point: Dict[str, Any], transition: bool) -> None:
        alerts.evaluate(record.end_time)

    return sink


#: The fan-out order: one sink builder per consumer, None when disabled.
PERIOD_SINKS = (_tsdb_sink, _registry_sink, _events_sink, _recorder_sink, _alerts_sink)


class PeriodFanOut:
    """One agent's ordered period consumers on one bundle.  Building it
    registers the agent's metric families, so they export at zero
    before its first period."""

    __slots__ = ("obs", "threshold", "sinks")

    def __init__(self, obs: Any, agent: str, threshold: float) -> None:
        self.obs = obs
        self.threshold = threshold
        built = (build(obs, agent) for build in PERIOD_SINKS)
        self.sinks: Tuple[Sink, ...] = tuple(s for s in built if s is not None)

    def emit(self, record: Any, transition: bool) -> None:
        """Feed one closed period to every sink, in order; *transition*
        is whether ``record.alarm`` differs from the previous period's."""
        sinks = self.sinks
        if sinks:
            point = period_point(record, self.threshold)
            for sink in sinks:
                sink(record, point, transition)


def fold_period(obs: Any, agent: str, record: Any, threshold: float) -> None:
    """Fold-only entry for a period closed without a live detector (a
    synthetic fleet's): the flight recorder's tape takes it without
    alarm-context capture; nothing else sees it."""
    if obs.recorder.enabled:
        obs.recorder.track(agent, period_point(record, threshold))


def count_checkpoint_restore(obs: Any) -> None:
    """``/healthz`` continuity accounting: one detector rebuilt from a
    checkpoint instead of starting cold."""
    if obs.registry.enabled:
        obs.registry.counter(
            "syndog_checkpoints_restored_total",
            "Detector agents rebuilt from checkpoint state",
        ).inc()
