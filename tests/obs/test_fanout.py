"""The per-period fan-out: live emission and replayed records agree."""

from repro.core.syndog import SynDog
from repro.obs import builtin_rules, canonical_tsdb, enabled_instrumentation
from repro.obs.fanout import PeriodFanOut
from repro.obs.merge import canonical_events


def _bundle():
    return enabled_instrumentation(alert_rules=builtin_rules(threshold=1.05))


def _live_detector(obs):
    """Normal traffic, a carried-forward gap and a held one, an alarm, an
    operator clear, and a second alarm."""
    dog = SynDog(obs=obs, name="router-lab")
    for _ in range(12):
        dog.observe_period(100, 100)
    for _ in range(5):  # staleness_cap 3: three carried, two held
        dog.observe_missing_period()
    for _ in range(8):
        dog.observe_period(100, 100)
    for _ in range(3):
        dog.observe_period(900, 100)
    dog.clear_alarm()
    for _ in range(4):
        dog.observe_period(100, 100)
    for _ in range(3):
        dog.observe_period(900, 100)
    return dog


class TestReplay:
    def test_replayed_records_rebuild_the_live_bundle(self):
        live = _bundle()
        dog = _live_detector(live)
        records = dog.records
        assert dog.degraded_periods == 5
        assert dog.alarm_rises == 2
        assert any(a.alarm and not b.alarm for a, b in zip(records, records[1:]))

        fresh = _bundle()
        replay = PeriodFanOut(fresh, dog.name, dog.parameters.threshold)
        prev_alarm = False
        for record in records:
            replay.emit(record, record.alarm != prev_alarm)
            prev_alarm = record.alarm
        live.finalize()
        fresh.finalize()

        assert canonical_tsdb(fresh.tsdb) == canonical_tsdb(live.tsdb)
        assert fresh.recorder.status() == live.recorder.status()
        contexts = [
            canonical_events(obs.memory_events().of_kind("alarm_context"))
            for obs in (live, fresh)
        ]
        assert len(contexts[0]) == 2
        assert contexts[1] == contexts[0]


class TestOrder:
    def test_tick_snapshots_the_registry_before_this_periods_counts(self):
        obs = _bundle()
        dog = SynDog(obs=obs, name="router-lab")
        for _ in range(4):
            dog.observe_period(100, 100)
        (periods,) = obs.tsdb.series("syndog_periods_total")
        assert [value for _t, value in periods.samples] == [0.0, 1.0, 2.0, 3.0]
