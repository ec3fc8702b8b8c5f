"""SYN-dog benchmark: one command, three workloads, oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout (the program is imported from
``src/``).  Each workload runs the program in fresh processes on inputs
generated from ``--seed`` (cached under ``.perfbench/cache``), checks
every verdict against an oracle stored beside the input, and prints one
``metric`` line per metric followed by a JSON result as the last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
workload with span wrappers and reports the per-layer metrics (the
spans file goes to ``.perfbench/out``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CACHE = STATE / "cache"
OUT = STATE / "out"
#: This run's temporary files (child output, child result JSON).
TMP = OUT / f"tmp-{os.getpid()}"

WORKLOADS = ("capture-detect", "fleet-periods", "fleet-replay")

#: Fewest set-up samples and fewest timed units in one run.
MIN_SETUPS = 5
MIN_UNITS = 3
#: fleet-replay runs its passes in this many child processes per run.
REPLAY_CHILDREN = 4
#: Every child must finish within this many seconds.
CHILD_TIMEOUT = 150.0
#: Layers must add up to verdict_s within this share.
RECONCILE_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "agent_periods_per_s": "1/s",
    "fleet_period_ms_p50": "ms",
    "replay_pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics scaled to the reference machine speed.
SCALED_TIMES = ("setup_s", "verdict_s", "fleet_period_ms_p50")
SCALED_RATES = ("agent_periods_per_s", "replay_pkts_per_s")

now_ns = time.monotonic_ns


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One finished child process: exit code, wall clock span and peak
    resident memory (from ``wait4``, so it is the child's own)."""

    def __init__(self, argv: List[str], env: Dict[str, str]) -> None:
        stdout_path = TMP / "child.stdout"
        stderr_path = TMP / "child.stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            self.spawn_ns = now_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                self.exit_ns = now_ns()
            finally:
                killer.cancel()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_bytes()
        self.stderr = stderr_path.read_bytes()
        stdout_path.unlink()
        stderr_path.unlink()

    @property
    def wall_s(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e9

    def require(self, expected: Tuple[int, ...] = (0,)) -> "Child":
        if self.returncode not in expected:
            raise BenchError(
                f"child exited {self.returncode}: "
                f"{self.stderr.decode(errors='replace')[-1500:]}"
            )
        return self


def python_child(script: str, *args: Any) -> Child:
    return Child([sys.executable, str(HERE / script), *map(str, args)], child_env())


def read_json(path: Path) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(
    setups: List[float],
    verdicts: List[float],
    steps_ms: List[float],
    agent_periods: float,
    packets: float,
    busy_s: float,
    rss_mb: float,
) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(verdicts),
        "agent_periods_per_s": agent_periods / busy_s,
        "fleet_period_ms_p50": percentile(steps_ms, 50),
        "replay_pkts_per_s": packets / busy_s,
        "peak_rss_mb": rss_mb,
    }


def interleave(
    run: "Run",
    seconds: float,
    unit: Callable[[], Any],
    probe: Callable[[], float],
    probes_per_unit: int,
) -> Tuple[List[Any], List[float]]:
    """Alternate timed units with set-up probes until *seconds* have
    passed, so both sample the same stretch of machine time; the
    calibration kernel runs before each of them."""
    units: List[Any] = []
    setups: List[float] = []
    deadline = now_ns() + seconds * 1e9
    while len(units) < MIN_UNITS or len(setups) < MIN_SETUPS or now_ns() < deadline:
        run.calibrate()
        units.append(unit())
        for _ in range(probes_per_unit):
            run.calibrate()
            setups.append(probe())
    return units, setups


def normalize(raw: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """Scale medians and rates to the reference machine speed; memory
    stays as measured."""
    out = dict(raw)
    for name in SCALED_TIMES:
        out[name] = raw[name] / slowdown
    for name in SCALED_RATES:
        out[name] = raw[name] * slowdown
    return out


# ----------------------------------------------------------------------
# Oracle checks: each returns (attempted, failed)
# ----------------------------------------------------------------------
def check_capture(stdout: bytes, returncode: int, oracle: Dict[str, Any]) -> Tuple[int, int]:
    same = stdout.decode(errors="replace") == oracle["stdout"] and returncode == oracle["returncode"]
    return 1, 0 if same else 1


def check_fleet_periods(result: Dict[str, Any], oracle: Dict[str, Any]) -> Tuple[int, int]:
    """First-alarm periods must match exactly; final CUSUM values to a
    relative 1e-9 (the batch recursion agrees with the scalar detector
    to a few ulps, not bit for bit, over 1000 periods)."""
    pairs = zip(
        result["first_alarm"], result["final_statistic"],
        oracle["first_alarm"], oracle["final_statistic"],
    )
    failed = sum(
        1 for alarm, y, want_alarm, want_y in pairs
        if alarm != want_alarm or not math.isclose(y, want_y, rel_tol=1e-9, abs_tol=1e-12)
    )
    return len(oracle["first_alarm"]), failed


def check_fleet_replay(outputs: Dict[str, Any], oracle: Dict[str, Any]) -> Tuple[int, int]:
    records = oracle["records"]
    failed = sum(1 for name, expected in records.items() if outputs.get(name) != expected)
    return len(records), failed


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Run:
    """Accumulates one run's verdict checks and calibration samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.calibration: List[float] = []

    def count(self, outcome: Tuple[int, int]) -> None:
        self.attempted += outcome[0]
        self.failed += outcome[1]

    def calibrate(self) -> None:
        self.calibration.append(calibrate.kernel())

    @property
    def slowdown(self) -> float:
        """This run's machine speed against the reference: the median
        calibration time over the reference time."""
        return statistics.median(self.calibration) / calibrate.REFERENCE_S


def run_capture(
    entry: Path, manifest: Dict[str, Any], seconds: float, trace: bool, run: Run
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from inputs import detect_argv

    argv = detect_argv(entry)
    oracle = manifest["oracle"]
    cli = [sys.executable, "-m", "repro", *argv]
    env = child_env()
    result_path = TMP / "launcher.json"
    spans_path = OUT / "spans-capture-detect.npz"

    def invoke() -> Child:
        child = Child(cli, env).require((0, 2))
        run.count(check_capture(child.stdout, child.returncode, oracle))
        return child

    def traced() -> Tuple[Child, Dict[str, Any]]:
        child = python_child(
            "cli_launcher.py", "--traced", result_path, spans_path, "--", *argv
        ).require((0, 2))
        run.count(check_capture(child.stdout, child.returncode, oracle))
        return child, read_json(result_path)

    def probe() -> float:
        child = python_child(
            "cli_launcher.py", "--setup-only", result_path, "--", *argv
        ).require()
        return (read_json(result_path)["ready_ns"] - child.spawn_ns) / 1e9

    invoke()  # warm the page cache and bytecode cache; checked, not timed
    if not trace:
        children, setups = interleave(run, seconds, invoke, probe, 1)
        walls = [c.wall_s for c in children]
        periods = manifest["periods"]
        verdict = statistics.median(walls)
        raw = end_to_end(
            setups=setups,
            verdicts=walls,
            steps_ms=[w / periods * 1e3 for w in walls],
            agent_periods=periods,
            packets=manifest["packets"],
            busy_s=verdict,
            rss_mb=max(c.maxrss_mb for c in children),
        )
        return normalize(raw, run.slowdown), {
            "invocations": len(children), "setup_samples": len(setups), "raw_metrics": raw,
        }

    plain: List[Child] = []
    rows: List[Dict[str, float]] = []
    deadline = now_ns() + seconds * 1e9
    while len(rows) < MIN_UNITS or now_ns() < deadline:
        plain.append(invoke())
        child, stamps = traced()
        spans = stamps["spans"]
        row = dict(stamps["layers"])
        row.update({
            "wall_s": child.wall_s,
            "interp.start_s": (stamps["started_ns"] - child.spawn_ns) / 1e9,
            "cli.import_s": spans["cli.import"] / 1e9,
            "fastpath.import_s": spans["fastpath.import"] / 1e9,
            "cli.main.self_s": spans["cli.main"] / 1e9,
            "trace.install_s": spans["trace.install"] / 1e9,
            "teardown_s": (child.exit_ns - stamps["written_ns"]) / 1e9,
            "fastpath_s": sum(spans.get(n, 0) for n in (
                "fastpath.columns", "fastpath.classify", "fastpath.scan", "fastpath.pipeline",
            )) / 1e9,
            "detector_s": sum(spans.get(n, 0) for n in (
                "core.syndog.observe_period", "core.normalization.observe", "core.cusum.update",
            )) / 1e9,
        })
        rows.append(row)
    layers = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    verdict = statistics.median(c.wall_s for c in plain)
    accounted = {
        "interp.start_s": layers["interp.start_s"],
        "cli.import_s": layers["cli.import_s"],
        "fastpath.import_s": layers["fastpath.import_s"],
        "fastpath_s": layers["fastpath_s"],
        "detector_s": layers["detector_s"],
    }
    gaps = {
        "cli.main.self_s": layers["cli.main.self_s"],
        "teardown_s": layers["teardown_s"],
        "trace.install_s": layers["trace.install_s"],
    }
    unaccounted = (verdict - sum(accounted.values())) / verdict
    largest = max(gaps, key=gaps.get)
    metrics = {key: layers[key] for key in stamps["layers"]}
    metrics.update({
        "cli.import_s": layers["cli.import_s"],
        "interp.start_s": layers["interp.start_s"],
        "fastpath.import_s": layers["fastpath.import_s"],
        "cli.main.self_s": layers["cli.main.self_s"],
        "capture.unaccounted_share": unaccounted,
        "trace.overhead_share": layers["wall_s"] / verdict - 1.0,
    })
    detail = {
        "reconciliation": {
            "verdict_s": verdict,
            "accounted": accounted,
            "unaccounted_share": unaccounted,
            "tolerance": RECONCILE_TOLERANCE,
            "within_tolerance": abs(unaccounted) <= RECONCILE_TOLERANCE,
            "named_gaps": gaps,
            "largest_gap": largest,
        },
        "traced_invocations": len(rows),
        "untraced_invocations": len(plain),
    }
    print(f"reconcile verdict_s {verdict:.4f} s = layers {sum(accounted.values()):.4f} s "
          f"+ unaccounted {unaccounted:+.2%} (tolerance ±{RECONCILE_TOLERANCE:.0%}); "
          f"largest gap {largest} {gaps[largest]:.4f} s")
    return metrics, detail


def run_fleet_periods(
    entry: Path, manifest: Dict[str, Any], seconds: float, trace: bool, run: Run
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    oracle = manifest["oracle"]
    result_path = TMP / "fleet-periods.json"
    spans_path = OUT / "spans-fleet-periods.npz"

    def episode(mode: str) -> Tuple[Child, Dict[str, Any]]:
        args = [mode, entry, result_path] + ([spans_path] if mode == "traced" else [])
        child = python_child("fleet_periods.py", *args).require()
        result = read_json(result_path)
        run.count(check_fleet_periods(result, oracle))
        run.calibration += result["calibration"]
        return child, result

    members = len(manifest["members"])
    periods = manifest["periods"]

    def probe() -> float:
        child = python_child("fleet_periods.py", "setup", entry, result_path).require()
        return (read_json(result_path)["ready_ns"] - child.spawn_ns) / 1e9

    if not trace:
        episodes, setups = interleave(run, seconds, lambda: episode("run"), probe, 2)
        setups += [(r["ready_ns"] - c.spawn_ns) / 1e9 for c, r in episodes]
        loops = [r["loop_ns"] / 1e9 for _c, r in episodes]
        busy = sum(loops)
        raw = end_to_end(
            setups=setups,
            verdicts=loops,
            steps_ms=[s / 1e6 for _c, r in episodes for s in r["steps_ns"]],
            agent_periods=members * periods * len(episodes),
            packets=manifest["packets"] * len(episodes),
            busy_s=busy,
            rss_mb=max(c.maxrss_mb for c, _r in episodes),
        )
        steps = sum(len(r["steps_ns"]) for _c, r in episodes)
        return normalize(raw, run.slowdown), {
            "episodes": len(episodes), "steps": steps, "setup_samples": len(setups),
            "raw_metrics": raw,
        }

    _child, plain = episode("run")
    _child, traced = episode("traced")
    steps = plain["steps_ns"]
    tenth = max(1, len(steps) // 10)
    metrics = dict(traced["layers"])
    metrics["fleet.step_growth"] = statistics.median(steps[-tenth:]) / statistics.median(steps[:tenth])
    # 1000 steps, so ten lie beyond the 99th percentile.
    metrics["fleet_period_ms_p99"] = percentile([s / 1e6 for s in steps], 99)
    metrics["trace.overhead_share"] = traced["loop_ns"] / plain["loop_ns"] - 1.0
    return metrics, {"episodes": 2}


def run_fleet_replay(
    entry: Path, manifest: Dict[str, Any], seconds: float, trace: bool, run: Run
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    oracle = manifest["oracle"]
    result_path = TMP / "fleet-replay.json"
    spans_path = OUT / "spans-fleet-replay.npz"

    def passes(mode: str, budget: float) -> Tuple[Child, Dict[str, Any]]:
        args = [mode, entry, result_path, budget] + ([spans_path] if mode == "traced" else [])
        child = python_child("fleet_replay.py", *args).require()
        result = read_json(result_path)
        for outcome in result["passes"]:
            run.count(check_fleet_replay(outcome["outputs"], oracle))
        run.calibration += result["calibration"]
        return child, result

    def probe() -> float:
        child = python_child("fleet_replay.py", "setup", entry, result_path, 0).require()
        return (read_json(result_path)["ready_ns"] - child.spawn_ns) / 1e9

    if not trace:
        share = seconds / REPLAY_CHILDREN
        children, setups = interleave(run, seconds, lambda: passes("run", share), probe, 2)
        setups += [(r["ready_ns"] - c.spawn_ns) / 1e9 for c, r in children]
        done = [p for _c, r in children for p in r["passes"]]
        # Each pass runs right after a calibration kernel in its own
        # process, and is scaled by that kernel's speed rather than the
        # run's median: the host's speed drifts within a run on the scale
        # of a pass.  Set-up probes are scaled by the run's median.
        speeds = [k / calibrate.REFERENCE_S for _c, r in children for k in r["calibration"]]

        def figures(pass_speeds: List[float], setup_speed: float) -> Dict[str, float]:
            scaled = list(zip(done, pass_speeds))
            return end_to_end(
                setups=[s / setup_speed for s in setups],
                verdicts=[p["verdict_ns"] / 1e9 / v for p, v in scaled],
                steps_ms=[s / 1e6 / v for p, v in scaled for s in p["steps_ns"]],
                agent_periods=manifest["agent_periods"] * len(done),
                packets=sum(p["packets"] for p in done),
                busy_s=sum(p["feed_ns"] / 1e9 / v for p, v in scaled),
                rss_mb=max(c.maxrss_mb for c, _r in children),
            )

        raw = figures([1.0] * len(done), 1.0)
        steps = sum(len(p["steps_ns"]) for p in done)
        return figures(speeds, run.slowdown), {
            "passes": len(done), "steps": steps, "setup_samples": len(setups),
            "raw_metrics": raw,
        }

    _child, plain = passes("run", seconds / 2)
    _child, traced = passes("traced", seconds / 2)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_share"] = (
        statistics.median(p["feed_ns"] for p in traced["passes"])
        / statistics.median(p["feed_ns"] for p in plain["passes"]) - 1.0
    )
    return metrics, {"passes": len(plain["passes"]) + len(traced["passes"])}


def input_entry(workload: str, seed: int, digest: str) -> Path:
    """The cached input for (workload, seed), generated in a child
    process on a miss so run.py never holds the program's memory:
    a child's peak RSS counts its parent's at spawn time."""
    from inputs import cached

    return cached(CACHE, workload, seed, digest,
                  lambda out: python_child("inputs.py", workload, seed, out).require())


RUNNERS = {
    "capture-detect": run_capture,
    "fleet-periods": run_fleet_periods,
    "fleet-replay": run_fleet_replay,
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def program_digest() -> str:
    """Digest of the checkout's program source (children import it from
    ``src`` through ``PYTHONPATH``)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}; run from a source checkout")
    from inputs import source_digest

    return source_digest(SRC)


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric names and units, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def environment_stamp(args: argparse.Namespace, manifest: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "packets": manifest["packets"],
        "members": manifest["agents"],
        "periods": manifest["periods"],
    }


def benchmark(args: argparse.Namespace) -> int:
    digest = program_digest()
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, input_entry(args.workload, args.seed, digest))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def measure(args: argparse.Namespace, entry: Path) -> int:
    manifest = read_json(entry / "manifest.json")
    stamp = environment_stamp(args, manifest)
    run = Run()
    metrics, detail = RUNNERS[args.workload](entry, manifest, args.seconds, bool(args.trace), run)
    if not args.trace:
        detail["slowdown"] = run.slowdown
        detail["calibration_samples"] = len(run.calibration)
    if args.trace:
        units = per_layer_units()
        undeclared = sorted(set(metrics) - set(units))
        if undeclared:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
        metrics = {name: metrics.get(name, 0.0) for name in units}
    else:
        units = END_TO_END_UNITS
    stamp["error_share"] = run.failed / run.attempted if run.attempted else 1.0
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("samples " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    record = {"stamp": stamp, "metrics": metrics, "detail": detail,
              "attempted": run.attempted, "failed": run.failed}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that a wrong oracle is counted as a failure")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            program_digest()
            sys.path.insert(0, str(SRC))
            from selftest import selftest

            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
