"""The detector's O(1) summary agrees with its record history.

``SynDog`` folds five fields per period — next period index, last
record, degraded count, alarm rises and first alarm — and every state
view (result(), checkpoint(), the federation rollup and status) reads
those instead of scanning ``records``.  Over random count series with
missing periods and a checkpoint/restore mid-run, the fields must
equal what the records imply.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.syndog import SynDog
from repro.obs.runtime import NULL_INSTRUMENTATION

# One period each: a (SYN, SYN/ACK) count pair, or None when the
# period's report never arrived.  Independent draws make alarms rise
# and clear several times per series.
periods = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 400), st.integers(0, 400)),
    ),
    min_size=1,
    max_size=60,
)
staleness_caps = st.integers(min_value=0, max_value=3)


def feed(dog, period):
    if period is None:
        return dog.observe_missing_period()
    return dog.observe_period(*period)


def fresh(cap):
    return SynDog(staleness_cap=cap, obs=NULL_INSTRUMENTATION, name="dog")


def summary(dog):
    result = dog.result()
    return {
        "next_period_index": dog.next_period_index,
        "checkpoint_next": dog.checkpoint()["next_period_index"],
        "last_record": dog.last_record,
        "degraded": dog.degraded_periods,
        "rises": dog.alarm_rises,
        "first_alarm": (result.first_alarm_period, result.first_alarm_time),
    }


def derived(records, first_index, prev_alarm):
    """The same five values, computed from the history alone."""
    first = next((record for record in records if record.alarm), None)
    rises = 0
    for record in records:
        rises += record.alarm and not prev_alarm
        prev_alarm = record.alarm
    next_index = first_index + len(records)
    return {
        "next_period_index": next_index,
        "checkpoint_next": next_index,
        "last_record": records[-1] if records else None,
        "degraded": sum(1 for record in records if record.degraded),
        "rises": rises,
        "first_alarm": (
            (None, None) if first is None
            else (first.period_index, first.end_time)
        ),
    }


@given(series=periods, cap=staleness_caps)
def test_summary_matches_records(series, cap):
    dog = fresh(cap)
    for period in series:
        feed(dog, period)
        assert summary(dog) == derived(dog.records, 0, False)


@given(series=periods, cap=staleness_caps, data=st.data())
def test_summary_after_restore_covers_the_restored_history(series, cap, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(series)))
    dog = fresh(cap)
    for period in series[:cut]:
        feed(dog, period)
    state = dog.checkpoint()
    restored = SynDog.restore(state, obs=NULL_INSTRUMENTATION)
    for period in series[cut:]:
        feed(restored, period)
    # Restore keeps the clock; the history (and so the summary of it)
    # starts over, as a crashed process's would.
    assert summary(restored) == derived(
        restored.records, state["next_period_index"], state["prev_alarm"]
    )
    reference = fresh(cap)
    for period in series:
        feed(reference, period)
    assert restored.next_period_index == reference.next_period_index
    assert restored.records == reference.records[cut:]
    assert restored.checkpoint() == reference.checkpoint()

