"""Negative self-test of the oracle checks (``run.py --selftest``).

For each workload a small input is generated and the real program is
run on it once.  Checked against its true oracle the run must read
``error_share == 0``; checked against a copy whose expected alarm period
is deliberately wrong it must read ``error_share > 0``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
from typing import Any, Callable, Dict, List, Tuple

import inputs
import run as bench

SMALL_CAPTURE = {"site": "harvard", "duration": 300.0, "rate": 30.0, "start": 100.0, "length": 150.0}
SMALL_FLEET = {
    "site": "auckland", "members": 3, "periods": 60, "flood_every": 3,
    "rate": 5.0, "start_period": 20, "length": 600.0,
}
SMALL_REPLAY = dict(inputs.FLEET_REPLAY, duration=60.0, start=10.0, length=40.0)
SEED = 7


def _shift_capture(oracle: Dict[str, Any]) -> Dict[str, Any]:
    wrong = copy.deepcopy(oracle)
    wrong["stdout"] = re.sub(
        r"\(period (\d+)\)", lambda m: f"(period {int(m.group(1)) + 1})", oracle["stdout"]
    )
    assert wrong["stdout"] != oracle["stdout"], "oracle has no alarm period"
    return wrong


def _shift_fleet(oracle: Dict[str, Any]) -> Dict[str, Any]:
    wrong = copy.deepcopy(oracle)
    flooded = next(i for i, a in enumerate(oracle["first_alarm"]) if a >= 0)
    wrong["first_alarm"][flooded] += 1
    return wrong


def _shift_replay(oracle: Dict[str, Any]) -> Dict[str, Any]:
    wrong = copy.deepcopy(oracle)
    for records in wrong["records"].values():
        first = next((r for r in records if r[4]), None)
        if first is not None:
            first[4] = False  # expect the alarm one period later
            return wrong
    raise AssertionError("oracle has no alarm")


def selftest() -> int:
    root = bench.STATE / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    bench.TMP.mkdir(parents=True, exist_ok=True)
    result_path = root / "result.json"
    cases: List[Tuple[str, Callable[[Dict[str, Any]], Tuple[int, int]], Dict[str, Any], Dict[str, Any]]] = []
    try:
        entry = root / "capture"
        entry.mkdir()
        inputs.build_capture(entry, SEED, bench.child_env(), SMALL_CAPTURE)
        oracle = json.load(open(entry / "manifest.json"))["oracle"]
        child = bench.Child(
            [bench.sys.executable, "-m", "repro", *inputs.detect_argv(entry)], bench.child_env()
        ).require((0, 2))
        cases.append((
            "capture-detect",
            lambda o, c=child: bench.check_capture(c.stdout, c.returncode, o),
            oracle, _shift_capture(oracle),
        ))

        entry = root / "fleet-periods"
        entry.mkdir()
        inputs.build_fleet_periods(entry, SEED, SMALL_FLEET)
        oracle = json.load(open(entry / "manifest.json"))["oracle"]
        bench.python_child("fleet_periods.py", "run", entry, result_path).require()
        result = bench.read_json(result_path)
        cases.append((
            "fleet-periods",
            lambda o, r=result: bench.check_fleet_periods(r, o),
            oracle, _shift_fleet(oracle),
        ))

        entry = root / "fleet-replay"
        entry.mkdir()
        inputs.build_fleet_replay(entry, SEED, SMALL_REPLAY)
        oracle = json.load(open(entry / "manifest.json"))["oracle"]
        bench.python_child("fleet_replay.py", "run", entry, result_path, 0).require()
        outputs = bench.read_json(result_path)["passes"][0]["outputs"]
        cases.append((
            "fleet-replay",
            lambda o, out=outputs: bench.check_fleet_replay(out, o),
            oracle, _shift_replay(oracle),
        ))
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(bench.TMP, ignore_errors=True)

    ok = True
    for name, check, oracle, wrong in cases:
        attempted, failed = check(oracle)
        wrong_attempted, wrong_failed = check(wrong)
        good = failed == 0 and wrong_failed > 0
        ok &= good
        print(f"selftest {name}: true oracle error_share {failed / attempted:.3f}, "
              f"wrong alarm period error_share {wrong_failed / wrong_attempted:.3f} "
              f"-> {'ok' if good else 'FAILED'}")
    return 0 if ok else 1
