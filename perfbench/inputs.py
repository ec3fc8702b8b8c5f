"""Seeded workload inputs and their oracles, cached per seed.

Every input is a pure function of the workload seed and the source tree.
A cache entry is keyed by both (a digest of ``src/repro``) and is built
in a temporary directory that is renamed into place once complete, so a
killed run never leaves a half-written entry behind.  Each entry holds a
``manifest.json`` describing the input and its oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Bump when the generators below change what they write.
GENERATOR_VERSION = 2

#: Cache entries kept per workload; older ones are removed.
CACHE_ENTRIES = 24

#: capture-detect: a UNC half-hour two-interface capture with a
#: constant-rate flood mixed into the outbound stream (well above the
#: ~34 SYN/s Eq. 8 floor of this profile, so the verdict is an alarm).
CAPTURE = {"site": "unc", "duration": 1800.0, "rate": 80.0, "start": 600.0, "length": 600.0}

#: fleet-periods: Auckland count traces, every 10th member flooded.
FLEET_PERIODS = {
    "site": "auckland", "members": 30, "periods": 1000, "flood_every": 10,
    "rate": 5.0, "start_period": 400, "length": 600.0,
}

#: fleet-replay: one member per site profile, each on its own /16 stub;
#: the Auckland member is flooded.  The flood ends inside the capture,
#: so every step carries every member's traffic.
FLEET_REPLAY = {
    "sites": ("auckland", "harvard", "lbl", "unc"), "duration": 120.0,
    "flooded": "auckland", "rate": 20.0, "start": 40.0, "length": 60.0,
    "period": 20.0,
}

SPECS = {"capture-detect": CAPTURE, "fleet-periods": FLEET_PERIODS, "fleet-replay": FLEET_REPLAY}


class GenerationError(RuntimeError):
    """The generated input does not have the property its workload
    needs (for instance, a flooded member that never alarms)."""


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


def source_digest(src: Path) -> str:
    """Digest of every ``.py`` file of the program under ``src/repro``."""
    h = hashlib.sha256(str(GENERATOR_VERSION).encode())
    for path in sorted((src / "repro").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cached(
    cache: Path,
    workload: str,
    seed: int,
    digest: str,
    build: Callable[[Path], None],
) -> Path:
    """The cache entry for (workload, seed, digest), built on a miss.
    The entry name also carries a digest of the workload's input spec."""
    spec = json.dumps(SPECS[workload], sort_keys=True).encode()
    root = cache / workload
    entry = root / f"seed{seed}-{digest}-{hashlib.sha256(spec).hexdigest()[:8]}"
    if (entry / "manifest.json").is_file():
        os.utime(entry)
        return entry
    root.mkdir(parents=True, exist_ok=True)
    partial = root / f".tmp-{os.getpid()}-{seed}"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir()
    try:
        build(partial)
        try:
            partial.rename(entry)
        except OSError:
            if not (entry / "manifest.json").is_file():
                raise  # not a lost race with a concurrent run
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    entries = sorted(
        (p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-CACHE_ENTRIES]:
        if stale != entry:
            shutil.rmtree(stale, ignore_errors=True)
    return entry


def _write_manifest(out: Path, manifest: Dict[str, Any]) -> None:
    with open(out / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=1)


# ----------------------------------------------------------------------
# capture-detect
# ----------------------------------------------------------------------
def detect_argv(entry: Path) -> List[str]:
    """The ``repro detect`` arguments for a capture entry."""
    return [
        "detect",
        "--pcap-out", str(entry / "capture.out.pcap"),
        "--pcap-in", str(entry / "capture.in.pcap"),
        "--quiet",
    ]


def build_capture(
    out: Path, seed: int, env: Dict[str, str], spec: Optional[Dict[str, Any]] = None
) -> None:
    from repro.attack.flooder import FloodSource
    from repro.pcap.writer import write_pcap
    from repro.trace.mixer import AttackWindow, mix_flood_into_packets
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import generate_packet_trace

    spec = spec or CAPTURE
    trace = generate_packet_trace(
        get_profile(spec["site"]), seed=derive_seed(seed, "capture"),
        duration=spec["duration"],
    )
    trace = mix_flood_into_packets(
        trace,
        FloodSource(pattern=spec["rate"]),
        AttackWindow(spec["start"], spec["length"]),
        random.Random(derive_seed(seed, "capture-flood")),
    )
    write_pcap(out / "capture.out.pcap", trace.outbound)
    write_pcap(out / "capture.in.pcap", trace.inbound)
    # The oracle: the per-packet object pipeline's CLI output.
    oracle = subprocess.run(
        [sys.executable, "-m", "repro", *detect_argv(out), "--no-fastpath"],
        env=env, capture_output=True, timeout=120,
    )
    if oracle.returncode != 2:
        raise GenerationError(
            f"capture oracle exited {oracle.returncode}, expected 2 (alarm): "
            f"{oracle.stderr.decode(errors='replace')[-500:]}"
        )
    stdout = oracle.stdout.decode()
    periods = int(stdout.split("periods observed :")[1].split()[0])
    _write_manifest(out, {
        "spec": spec,
        "packets": len(trace.outbound) + len(trace.inbound),
        "periods": periods,
        "agents": 1,
        "oracle": {"stdout": stdout, "returncode": oracle.returncode},
    })


# ----------------------------------------------------------------------
# fleet-periods
# ----------------------------------------------------------------------
def build_fleet_periods(
    out: Path, seed: int, spec: Optional[Dict[str, Any]] = None
) -> None:
    import numpy as np

    from repro.attack.flooder import FloodSource
    from repro.core.batch import batch_detect
    from repro.trace.io import save_count_trace
    from repro.trace.mixer import AttackWindow, mix_flood_into_counts
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import generate_count_trace

    spec = spec or FLEET_PERIODS
    profile = get_profile(spec["site"])
    period = 20.0
    members = []
    traces = []
    for i in range(spec["members"]):
        trace = generate_count_trace(
            profile, seed=derive_seed(seed, f"fleet-{i}"),
            duration=spec["periods"] * period,
        )
        flooded = i % spec["flood_every"] == 0
        if flooded:
            trace = mix_flood_into_counts(
                trace,
                FloodSource(pattern=spec["rate"]),
                AttackWindow(spec["start_period"] * period, spec["length"]),
            )
        name = f"m{i:03d}"
        save_count_trace(trace, out / f"{name}.csv")
        members.append({
            "name": name, "stub": f"10.{i + 1}.0.0/16",
            "counts": f"{name}.csv", "flooded": flooded,
        })
        traces.append(trace)
    syn = np.array([t.syn_counts for t in traces], dtype=np.int64)
    synack = np.array([t.synack_counts for t in traces], dtype=np.int64)
    # The oracle: the vectorized batch recursion over the same counts.
    y, first = batch_detect(syn, synack)
    for member, alarm in zip(members, first.tolist()):
        if member["flooded"] and alarm < 0:
            raise GenerationError(f"flooded member {member['name']} never alarms")
    _write_manifest(out, {
        "spec": spec,
        "members": members,
        "agents": len(members),
        "periods": spec["periods"],
        "packets": int(syn.sum() + synack.sum()),
        "oracle": {"first_alarm": first.tolist(), "final_statistic": y[:, -1].tolist()},
    })


# ----------------------------------------------------------------------
# fleet-replay
# ----------------------------------------------------------------------
def build_fleet_replay(
    out: Path, seed: int, spec: Optional[Dict[str, Any]] = None
) -> None:
    from repro.attack.flooder import FloodSource
    from repro.fastpath.pipeline import detect_from_pcap_images
    from repro.packet.addresses import IPv4Network
    from repro.pcap.writer import packets_to_pcap_bytes
    from repro.trace.mixer import AttackWindow, mix_flood_into_packets
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import AddressPlan, generate_packet_trace

    spec = spec or FLEET_REPLAY
    members = []
    oracle = {}
    packets = 0
    for i, site in enumerate(spec["sites"]):
        stub = f"10.{i + 1}.0.0/16"
        rng = random.Random(derive_seed(seed, f"replay-plan-{site}"))
        trace = generate_packet_trace(
            get_profile(site), seed=derive_seed(seed, f"replay-{site}"),
            duration=spec["duration"],
            address_plan=AddressPlan(rng, stub_network=IPv4Network.parse(stub)),
        )
        if site == spec["flooded"]:
            trace = mix_flood_into_packets(
                trace,
                FloodSource(pattern=spec["rate"]),
                AttackWindow(spec["start"], spec["length"]),
                random.Random(derive_seed(seed, "replay-flood")),
            )
        images = packets_to_pcap_bytes(trace.outbound), packets_to_pcap_bytes(trace.inbound)
        (out / f"{site}.out.pcap").write_bytes(images[0])
        (out / f"{site}.in.pcap").write_bytes(images[1])
        # The oracle: the columnar fast path over the same captures.
        result, _ = detect_from_pcap_images(*images)
        records = [
            [r.period_index, r.syn_count, r.synack_count, r.statistic, r.alarm]
            for r in result.records
        ]
        if site == spec["flooded"] and not result.alarmed:
            raise GenerationError(f"flooded member {site} never alarms")
        oracle[site] = records
        packets += len(trace.outbound) + len(trace.inbound)
        members.append({
            "name": site, "stub": stub,
            "pcap_out": f"{site}.out.pcap", "pcap_in": f"{site}.in.pcap",
        })
    _write_manifest(out, {
        "spec": dict(spec, sites=list(spec["sites"])),
        "members": members,
        "agents": len(members),
        "period_s": spec["period"],
        "periods": max(len(records) for records in oracle.values()),
        "agent_periods": sum(len(records) for records in oracle.values()),
        "packets": packets,
        "oracle": {"records": oracle},
    })


GENERATORS: Dict[str, Callable[[Path, int], None]] = {
    "capture-detect": lambda out, seed: build_capture(out, seed, dict(os.environ)),
    "fleet-periods": build_fleet_periods,
    "fleet-replay": build_fleet_replay,
}


if __name__ == "__main__":
    # python3 perfbench/inputs.py WORKLOAD SEED OUT: build one cache entry
    # in its own process, so run.py stays small.
    GENERATORS[sys.argv[1]](Path(sys.argv[3]), int(sys.argv[2]))
