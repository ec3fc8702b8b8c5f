"""The fleet-periods workload process: one fleet centre stepping a
Federation's agents period by period on a simulated clock.

    python3 perfbench/fleet_periods.py MODE INPUTS RESULT [SPANS]

MODE is ``setup`` (stop once the first step could begin), ``run`` (one
untraced episode) or ``traced`` (one episode with span wrappers).  Each
step feeds every member's ``SynDog.observe_period`` its next count pair
and then calls ``Federation.rollup()``; the next step starts when the
previous one returns (a closed loop).  Telemetry is fully on:
``enabled_instrumentation(alert_rules=builtin_rules())``.
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402

CALIBRATE_EVERY = 100


def setup(inputs):
    from repro.obs import builtin_rules, enabled_instrumentation
    from repro.packet.addresses import IPv4Network
    from repro.router.fleet import Federation
    from repro.trace.io import load_count_trace

    with open(os.path.join(inputs, "manifest.json")) as handle:
        manifest = json.load(handle)
    counts = [
        load_count_trace(os.path.join(inputs, member["counts"])).counts
        for member in manifest["members"]
    ]
    obs = enabled_instrumentation(alert_rules=builtin_rules())
    federation = Federation(obs=obs)
    detectors = [
        federation.add_network(member["name"], IPv4Network.parse(member["stub"]))[1].detector
        for member in manifest["members"]
    ]
    return federation, detectors, counts


def episode(federation, detectors, counts, rec=None):
    """Step every period; returns per-step wall times in ns and the
    calibration kernel's times, sampled between steps every
    ``CALIBRATE_EVERY`` periods (outside the timed steps)."""
    now_ns = time.monotonic_ns
    step_id = rec.name_id("fleet.step") if rec is not None else None
    steps = []
    calibration = []
    for period in range(len(counts[0])):
        if period % CALIBRATE_EVERY == 0:
            calibration.append(calibrate.kernel())
        index = rec.enter(step_id) if rec is not None else None
        t0 = now_ns()
        for detector, series in zip(detectors, counts):
            syn, synack = series[period]
            detector.observe_period(syn, synack)
        federation.rollup()
        steps.append(now_ns() - t0)
        if rec is not None:
            rec.exit(index)
    return steps, calibration


def first_alarm(detector):
    for record in detector.records:
        if record.alarm:
            return record.period_index
    return -1


def main(argv):
    mode, inputs, result_path = argv[0], argv[1], argv[2]
    rec = None
    if mode == "traced":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    federation, detectors, counts = setup(inputs)
    result = {"started_ns": STARTED_NS, "ready_ns": time.monotonic_ns()}
    if mode != "setup":
        result["steps_ns"], result["calibration"] = episode(
            federation, detectors, counts, rec
        )
        result["loop_ns"] = sum(result["steps_ns"])
        result["first_alarm"] = [first_alarm(d) for d in detectors]
        result["final_statistic"] = [d.statistic for d in detectors]
        if rec is not None:
            result["layers"] = spans.layer_metrics(rec, "fleet.step")
            rec.write(argv[3], {"workload": "fleet-periods", "started_ns": STARTED_NS})
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
