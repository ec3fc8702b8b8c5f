"""Command-line interface.

The operational surface a network operator (or a curious reader) would
actually touch::

    repro-syndog generate --site auckland --seed 7 --out trace.csv
    repro-syndog attack   --counts trace.csv --rate 5 --start 360 --out mixed.csv
    repro-syndog detect   --counts mixed.csv
    repro-syndog detect   --pcap-out out.pcap --pcap-in in.pcap
    repro-syndog observe  --trace mixed.csv --metrics-out metrics.prom \
                          --events-out events.jsonl --serve 9100 --alerts
    repro-syndog report   events.jsonl --format markdown --profile
    repro-syndog profile  --mode cost-model --flame-out prof.folded
    repro-syndog query    'max_over_time(syndog_cusum[5m])' --events events.jsonl
    repro-syndog alerts   --events events.jsonl --json
    repro-syndog chaos    --seed 42 --schedule lossy-crash --out report.json
    repro-syndog soak     --sim-days 2 --workers 2 --out soak.json
    repro-syndog respond  --seed 7 --rate 200 --out respond.json \
                          --timeline-out timeline.json --events-out ev.jsonl
    repro-syndog respond  --replay ev.jsonl --timeline-out replayed.json
    repro-syndog campaign --networks 1000 --workers 4 --json campaign.json
    repro-syndog sensitivity --site auckland --workers 4
    repro-syndog table    2
    repro-syndog figure   5
    repro-syndog theory   --k-bar 1922

Every subcommand is importable (``from repro.cli import main``) and
returns a process exit code, so the whole surface is unit-testable
without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from typing import Iterator, List, Optional, Sequence

from .attack.flooder import FloodSource
from .core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from .core.syndog import SynDog
from .experiments.report import render_series, render_table
from .trace.events import CountTrace
from .trace.io import load_count_trace, save_count_trace
from .trace.mixer import AttackWindow, mix_flood_into_counts
from .trace.profiles import SITE_PROFILES, get_profile
from .trace.synthetic import generate_count_trace, generate_packet_trace

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ALARM = 2  # detect: a flooding source was found
EXIT_DEGRADED = 3  # chaos: degradation exceeded the allowed envelope
EXIT_USAGE = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-syndog",
        description="SYN-dog: sniff SYN flooding sources (ICDCS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ------------------------------------------------------------ generate
    generate = sub.add_parser(
        "generate", help="synthesize background traffic for a site profile"
    )
    generate.add_argument(
        "--site", choices=sorted(SITE_PROFILES), default="auckland"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--duration", type=float, default=None,
        help="seconds (default: the site's Table 1 duration)",
    )
    generate.add_argument(
        "--format", choices=("counts", "pcap"), default="counts",
        help="counts: per-period CSV; pcap: two capture files (.out/.in)",
    )
    generate.add_argument("--out", required=True, help="output path (or prefix for pcap)")

    # -------------------------------------------------------------- attack
    attack = sub.add_parser(
        "attack", help="mix a SYN flood into a count trace"
    )
    attack.add_argument("--counts", required=True, help="background count-trace CSV")
    attack.add_argument("--rate", type=float, required=True, help="flood SYN/s")
    attack.add_argument("--start", type=float, default=360.0, help="attack start (s)")
    attack.add_argument(
        "--duration", type=float, default=600.0, help="attack duration (s)"
    )
    attack.add_argument("--out", required=True)

    # -------------------------------------------------------------- detect
    detect = sub.add_parser("detect", help="run SYN-dog over a trace")
    source = detect.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", help="count-trace CSV")
    source.add_argument("--pcap-out", help="pcap of the outbound interface")
    detect.add_argument(
        "--pcap-in", help="pcap of the inbound interface (with --pcap-out)"
    )
    detect.add_argument("--drift", type=float, default=DEFAULT_PARAMETERS.drift,
                        help="a (default 0.35)")
    detect.add_argument("--threshold", type=float,
                        default=DEFAULT_PARAMETERS.threshold, help="N (default 1.05)")
    detect.add_argument("--period", type=float,
                        default=DEFAULT_PARAMETERS.observation_period,
                        help="t0 seconds (default 20; counts input keeps its own)")
    detect.add_argument("--quiet", action="store_true",
                        help="suppress the per-period series")
    detect.add_argument("--report", action="store_true",
                        help="on alarm, print the forensic attack report "
                             "(onset, end, rate estimates)")
    detect.add_argument("--json", metavar="PATH",
                        help="also write the full per-period detection "
                             "record as JSON")
    detect.add_argument("--metrics-out", metavar="PATH",
                        help="write pipeline metrics in Prometheus "
                             "text-exposition format")
    detect.add_argument("--serve", type=int, metavar="PORT",
                        help="serve live telemetry (/metrics /healthz "
                             "/events) on PORT for the run's duration "
                             "(0 picks a free port)")
    detect.add_argument("--fastpath", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="pcap input: columnar batched pipeline "
                             "(default); --no-fastpath keeps the "
                             "per-packet object pipeline, the "
                             "differential oracle — results are "
                             "byte-identical either way")

    # ------------------------------------------------------------- observe
    observe = sub.add_parser(
        "observe",
        help="run detection with the full observability layer enabled: "
             "Prometheus metrics, JSONL events, span profile",
    )
    obs_source = observe.add_mutually_exclusive_group(required=True)
    obs_source.add_argument("--trace", help="count-trace CSV")
    obs_source.add_argument("--pcap-out", help="pcap of the outbound interface")
    observe.add_argument(
        "--pcap-in", help="pcap of the inbound interface (with --pcap-out)"
    )
    observe.add_argument("--drift", type=float,
                         default=DEFAULT_PARAMETERS.drift, help="a (default 0.35)")
    observe.add_argument("--threshold", type=float,
                         default=DEFAULT_PARAMETERS.threshold,
                         help="N (default 1.05)")
    observe.add_argument("--period", type=float,
                         default=DEFAULT_PARAMETERS.observation_period,
                         help="t0 seconds (default 20; counts input keeps "
                              "its own)")
    observe.add_argument("--metrics-out", metavar="PATH",
                         help="Prometheus text-exposition output file")
    observe.add_argument("--events-out", metavar="PATH",
                         help="JSONL event stream output file "
                              "(one event per observation period)")
    observe.add_argument("--serve", type=int, metavar="PORT",
                         help="serve live telemetry (/metrics /healthz "
                              "/events /query /alerts) on PORT for the "
                              "run's duration (0 picks a free port)")
    observe.add_argument("--hold", type=float, default=None,
                         metavar="SECONDS",
                         help="with --serve: keep the server up this "
                              "long after the run so scrapers can query "
                              "the finished history")
    observe.add_argument("--alerts", action="store_true",
                         help="arm the builtin alert rules for live "
                              "per-period evaluation")
    observe.add_argument("--rules", metavar="JSON",
                         help="alert rules file (implies --alerts)")
    observe.add_argument("--trace-out", metavar="PATH",
                         help="write the span profile as Chrome "
                              "trace-event JSON (chrome://tracing, "
                              "Perfetto)")
    observe.add_argument("--fastpath", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="pcap input: columnar batched pipeline "
                              "(default); --no-fastpath keeps the "
                              "per-packet object oracle")

    # --------------------------------------------------------------- query
    query = sub.add_parser(
        "query",
        help="evaluate a PromQL-lite expression over recorded telemetry "
             "(offline events JSONL or a live telemetry server)",
    )
    query.add_argument("expr", metavar="EXPR",
                       help="e.g. 'max_over_time(syndog_cusum[5m])' or "
                            'syndog_x_n{agent="syn-dog"}')
    query_source = query.add_mutually_exclusive_group(required=True)
    query_source.add_argument("--events", metavar="JSONL",
                              help="events JSONL from observe "
                                   "--events-out")
    query_source.add_argument("--url", metavar="URL",
                              help="base URL of a live telemetry server "
                                   "(observe --serve)")
    query.add_argument("--at", type=float, default=None, metavar="T",
                       help="evaluation time in trace seconds "
                            "(default: newest sample)")
    query.add_argument("--json", action="store_true",
                       help="print the raw result document as JSON")

    # -------------------------------------------------------------- alerts
    alerts = sub.add_parser(
        "alerts",
        help="evaluate alert rules over recorded telemetry and print "
             "the lifecycle history (exit 2 when any rule fired)",
    )
    alerts_source = alerts.add_mutually_exclusive_group(required=True)
    alerts_source.add_argument("--events", metavar="JSONL",
                               help="events JSONL from observe "
                                    "--events-out (deterministic replay)")
    alerts_source.add_argument("--url", metavar="URL",
                               help="base URL of a live telemetry server "
                                    "(live alert state)")
    alerts.add_argument("--rules", metavar="JSON",
                        help="alert rules file (default: the builtin "
                             "watch-the-watchers rules)")
    alerts.add_argument("--threshold", type=float,
                        default=DEFAULT_PARAMETERS.threshold,
                        help="CUSUM threshold N the builtin "
                             "near-threshold rule watermarks against "
                             "(default 1.05)")
    alerts.add_argument("--json", action="store_true",
                        help="print the full alerts document as JSON")

    # --------------------------------------------------------------- fleet
    fleet = sub.add_parser(
        "fleet",
        help="fleet telemetry rollup: population counters, quantile "
             "digests over detector state and top-K suspect tables "
             "(O(K) however large the fleet; exit 2 when any agent "
             "is alarming)",
    )
    fleet_source = fleet.add_mutually_exclusive_group(required=True)
    fleet_source.add_argument("--url", metavar="URL",
                              help="base URL of a live telemetry server "
                                   "(GET /fleet)")
    fleet_source.add_argument("--events", metavar="JSONL",
                              help="events JSONL from observe "
                                   "--events-out (offline rebuild)")
    fleet_source.add_argument("--synthetic", type=int, metavar="N",
                              help="roll up an N-agent deterministic "
                                   "synthetic fleet (benchmarks, CI "
                                   "byte-identity checks)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="synthetic fleet seed (default 0)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="shard the synthetic rollup across worker "
                            "processes; the merged document is "
                            "byte-identical at any count (default 1)")
    fleet.add_argument("--k", type=int, default=8,
                       help="suspect-table size K (default 8)")
    fleet.add_argument("--serve", type=int, metavar="PORT",
                       help="with --synthetic: serve the fleet on a "
                            "live telemetry server (/fleet, /healthz)")
    fleet.add_argument("--hold", type=float, default=None, metavar="SECONDS",
                       help="keep the --serve server up this long")
    fleet.add_argument("--json", action="store_true",
                       help="print the rollup document as JSON")

    # -------------------------------------------------------------- report
    report = sub.add_parser(
        "report",
        help="forensic report over one or more events JSONL files: "
             "alarm timelines, detection latency, false alarms, "
             "CUSUM traces",
    )
    report.add_argument("events", nargs="+", metavar="EVENTS_JSONL",
                        help="events JSONL file(s) from observe "
                             "--events-out")
    report.add_argument("--format", choices=("text", "markdown", "json"),
                        default="text")
    report.add_argument("--min-alarm-periods", type=int, default=2,
                        help="alarm spans clearing in fewer periods "
                             "count as false alarms (default 2)")
    report.add_argument("--profile", action="store_true",
                        help="append the per-stage cost section folded "
                             "from the log's profile events")
    report.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")

    # ------------------------------------------------------------- profile
    profile = sub.add_parser(
        "profile",
        help="profile the packet pipeline per stage over a small "
             "deterministic campaign; export flamegraph/callgrind",
    )
    profile.add_argument("--mode", choices=("cost-model", "timers"),
                         default="cost-model",
                         help="cost-model: deterministic fixed per-op "
                              "costs (byte-identical at any --workers); "
                              "timers: real wall/CPU/alloc measurements")
    profile.add_argument("--site", choices=sorted(SITE_PROFILES),
                         default="auckland")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--networks", type=int, default=2,
                         help="stub networks driven through the pipeline")
    profile.add_argument("--duration", type=float, default=None,
                         help="seconds of synthetic trace per network "
                              "(default 60)")
    profile.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes sharding the networks "
                              "(cost-model profiles are byte-identical "
                              "for every N)")
    profile.add_argument("--sample-every", type=int, default=64,
                         metavar="K",
                         help="timers mode: time 1 of every K calls on "
                              "per-packet stages (default 64)")
    profile.add_argument("--json", metavar="PATH",
                         help="write the canonical profile document "
                              "(sorted keys; the CI byte-diff format)")
    profile.add_argument("--flame-out", metavar="PATH",
                         help="write folded stacks for flamegraph.pl / "
                              "speedscope / inferno")
    profile.add_argument("--callgrind-out", metavar="PATH",
                         help="write callgrind format for kcachegrind / "
                              "qcachegrind")
    profile.add_argument("--events-out", metavar="PATH",
                         help="JSONL event stream (carries the profile "
                              "event for repro report --profile)")
    profile.add_argument("--baseline", metavar="JSON",
                         help="per-stage ns/packet baseline "
                              "(BENCH_profile.json); exit 2 when any "
                              "stage regresses past the tolerance")
    profile.add_argument("--baseline-tolerance", type=float, default=1.5,
                         metavar="X",
                         help="allowed ns/packet multiple of the "
                              "baseline (default 1.5)")
    profile.add_argument("--fastpath", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="profile the columnar ingestion arm "
                              "(fastpath.parse/fastpath.classify; "
                              "default) or, with --no-fastpath, the "
                              "per-packet object arm (pcap.parse/"
                              "federation.feed/classify/sniff.update)")

    # --------------------------------------------------------------- table
    table = sub.add_parser("table", help="regenerate a paper table (1, 2 or 3)")
    table.add_argument("number", type=int, choices=(1, 2, 3))
    table.add_argument("--trials", type=int, default=10)
    table.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes sharding the trials "
                            "(tables 2 and 3; default: all cores)")
    table.add_argument("--json", metavar="PATH",
                       help="also write the rows as JSON (tables 2 and 3)")

    # -------------------------------------------------------------- figure
    figure = sub.add_parser(
        "figure", help="regenerate a paper figure (3, 4, 5, 7, 8 or 9)"
    )
    figure.add_argument("number", type=int, choices=(3, 4, 5, 7, 8, 9))
    figure.add_argument("--seed", type=int, default=0)

    # ------------------------------------------------------------ campaign
    campaign = sub.add_parser(
        "campaign",
        help="simulate a distributed campaign against a fleet of SYN-dogs",
    )
    campaign.add_argument("--aggregate", type=float, default=14000.0,
                          help="campaign rate V toward the victim (SYN/s)")
    campaign.add_argument("--networks", type=int, required=True,
                          help="stub networks A the campaign spreads over")
    campaign.add_argument("--site", choices=sorted(SITE_PROFILES),
                          default="auckland",
                          help="fleet profile (every network this size)")
    campaign.add_argument("--sample", type=int, default=6,
                          help="networks actually simulated (uniform sample)")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--workers", type=int, default=None, metavar="N",
                          help="worker processes sharding the simulated "
                               "networks (default: all cores; output is "
                               "byte-identical for every N)")
    campaign.add_argument("--json", metavar="PATH",
                          help="write the campaign result as "
                               "deterministic JSON")
    campaign.add_argument("--metrics-out", metavar="PATH",
                          help="write fleet metrics in Prometheus "
                               "text-exposition format")
    campaign.add_argument("--serve", type=int, metavar="PORT",
                          help="serve live telemetry (/metrics /healthz "
                               "/events) on PORT for the run's duration "
                               "(0 picks a free port)")
    campaign.add_argument("--fastpath", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="accepted for symmetry with detect/"
                               "profile; the campaign simulates at "
                               "count level, which has no per-packet "
                               "parse to batch, so both settings run "
                               "the same code")

    # --------------------------------------------------------------- chaos
    from .faults.schedule import BUILTIN_SCHEDULES, DEFAULT_SCHEDULE

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection campaign and assert the "
             "degradation envelope (baseline vs faulted detection)",
    )
    chaos.add_argument("--seed", type=int, default=42,
                       help="root seed: same seed + schedule = "
                            "byte-identical report")
    chaos.add_argument("--schedule", choices=sorted(BUILTIN_SCHEDULES),
                       default=DEFAULT_SCHEDULE,
                       help=f"built-in fault schedule "
                            f"(default {DEFAULT_SCHEDULE})")
    chaos.add_argument("--site", choices=sorted(SITE_PROFILES),
                       default="auckland")
    chaos.add_argument("--rate", type=float, default=5.0,
                       help="flood SYN/s mixed into the background")
    chaos.add_argument("--attack-start", type=float, default=360.0,
                       help="flood onset (s)")
    chaos.add_argument("--attack-duration", type=float, default=600.0,
                       help="flood duration (s)")
    chaos.add_argument("--duration", type=float, default=1800.0,
                       help="total trace length (s)")
    chaos.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes sharding the baseline/"
                            "faulted arms (default: all cores; the "
                            "report is byte-identical for every N)")
    chaos.add_argument("--max-delay-ratio", type=float, default=2.0,
                       help="envelope: faulted detection delay must stay "
                            "within this multiple of the baseline")
    chaos.add_argument("--out", metavar="PATH",
                       help="write the degradation report as "
                            "deterministic JSON")
    chaos.add_argument("--metrics-out", metavar="PATH",
                       help="write fault/degradation metrics in "
                            "Prometheus text-exposition format")
    chaos.add_argument("--alerts-out", metavar="PATH",
                       help="replay the builtin alert rules over the "
                            "campaign's telemetry history and write the "
                            "deterministic alerts document as JSON "
                            "(byte-identical for every --workers N)")
    chaos.add_argument("--max-memory-events", type=int, default=100_000,
                       metavar="N",
                       help="bound on the in-memory event sink (small "
                            "bounds exercise drop accounting and the "
                            "events_dropping alert)")

    # ---------------------------------------------------------------- soak
    soak = sub.add_parser(
        "soak",
        help="long-horizon soak: epochs of detect/checkpoint/restore "
             "with fault bursts and attack windows, judged by SLO "
             "burn rates and the resource ledger",
    )
    soak.add_argument("--seed", type=int, default=42,
                      help="root seed: same seed + scenario = "
                           "byte-identical report")
    soak.add_argument("--site", choices=sorted(SITE_PROFILES),
                      default="auckland")
    soak.add_argument("--sim-days", type=int, default=2,
                      help="simulated days of continuous operation")
    soak.add_argument("--periods-per-epoch", type=int, default=288,
                      help="observation periods per epoch; one epoch = "
                           "one checkpoint/restore cycle and one work "
                           "shard (epochs must divide a day evenly)")
    soak.add_argument("--rate", type=float, default=5.0,
                      help="flood SYN/s mixed into attack epochs")
    soak.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker processes sharding the epochs "
                           "(default: all cores; the report is "
                           "byte-identical for every N)")
    soak.add_argument("--tsdb-retention", type=int, default=2048,
                      metavar="N",
                      help="per-series telemetry retention; the default "
                           "reaches compaction equilibrium inside the "
                           "first simulated day, so the ledger flatness "
                           "gate measures steady state, not ramp-up")
    soak.add_argument("--out", metavar="PATH",
                      help="write the soak report as deterministic JSON")
    soak.add_argument("--metrics-out", metavar="PATH",
                      help="write soak metrics in Prometheus "
                           "text-exposition format")
    soak.add_argument("--events-out", metavar="PATH",
                      help="also append structured events as JSONL")
    soak.add_argument("--serve", type=int, metavar="PORT",
                      help="serve live telemetry (/metrics /healthz "
                           "/slo /query ...) on PORT for the run's "
                           "duration (0 picks a free port)")
    soak.add_argument("--hold", type=float, default=None, metavar="SECONDS",
                      help="with --serve: keep the server up this long "
                           "after the soak so scrapers can query the "
                           "finished run's /slo and ledger history")

    # ------------------------------------------------------------- respond
    respond = sub.add_parser(
        "respond",
        help="closed-loop detect->respond campaign: unmitigated vs "
             "playbook-mitigated flood, with recovery and collateral "
             "verdicts",
    )
    respond.add_argument("--seed", type=int, default=7,
                         help="root seed: same seed + playbook = "
                              "byte-identical report")
    respond.add_argument("--rate", type=float, default=200.0,
                         help="flood SYN/s aimed at the victim")
    respond.add_argument("--client-rate", type=float, default=15.0,
                         help="legitimate connection attempts per second")
    respond.add_argument("--duration", type=float, default=300.0,
                         help="total scenario length (s)")
    respond.add_argument("--attack-start", type=float, default=60.0,
                         help="flood onset (s)")
    respond.add_argument("--attack-duration", type=float, default=120.0,
                         help="flood duration (s)")
    respond.add_argument("--period", type=float, default=5.0,
                         help="detector observation period t0 (s)")
    respond.add_argument("--backlog", type=int, default=256,
                         help="victim listen-queue capacity")
    respond.add_argument("--playbook", metavar="PATH",
                         help="playbook file (JSON or YAML-lite; default: "
                              "the built-in block-and-shield playbook)")
    respond.add_argument("--flaky", type=int, default=0, metavar="N",
                         help="inject N deterministic actuator failures "
                              "per action kind (exercises retry/backoff)")
    respond.add_argument("--recovery-factor", type=float, default=2.0,
                         help="pass bar: mitigated handshake completion "
                              "over the attack window must be at least "
                              "this multiple of the unmitigated arm's")
    respond.add_argument("--alert-cut", type=float, default=50.0,
                         help="syndog_delta threshold for the syn_flood "
                              "alert rule driving the engine")
    respond.add_argument("--workers", type=int, default=None, metavar="N",
                         help="worker processes sharding the two arms "
                              "(default: all cores; the report is "
                              "byte-identical for every N)")
    respond.add_argument("--out", metavar="PATH",
                         help="write the campaign report as "
                              "deterministic JSON")
    respond.add_argument("--timeline-out", metavar="PATH",
                         help="write the mitigation timeline document as "
                              "deterministic JSON (byte-identical to an "
                              "offline --replay of the events JSONL)")
    respond.add_argument("--events-out", metavar="PATH",
                         help="append obs events as JSONL (the replayable "
                              "record of every response transition)")
    respond.add_argument("--metrics-out", metavar="PATH",
                         help="write response/defense metrics in "
                              "Prometheus text-exposition format")
    respond.add_argument("--serve", type=int, metavar="PORT",
                         help="serve live telemetry (/metrics /healthz "
                              "/events /query /alerts) on PORT for the "
                              "run's duration (0 picks a free port)")
    respond.add_argument("--hold", type=float, default=None, metavar="S",
                         help="with --serve: keep the server up S seconds "
                              "after the campaign so scrapers can read "
                              "the finished run")
    respond.add_argument("--replay", metavar="EVENTS",
                         help="offline mode: rebuild the mitigation "
                              "timeline document from an events JSONL "
                              "written by a previous run (no simulation; "
                              "byte-identical to its --timeline-out)")

    # --------------------------------------------------------- sensitivity
    sensitivity = sub.add_parser(
        "sensitivity",
        help="sweep the (a, N) tuning grid: false-alarm rate vs "
             "detection delay per cell, with an operator recommendation",
    )
    sensitivity.add_argument("--site", choices=sorted(SITE_PROFILES),
                             default="auckland")
    sensitivity.add_argument("--drifts", type=float, nargs="+",
                             default=[0.05, 0.1, 0.2, 0.35, 0.5],
                             help="drift (a) values to sweep")
    sensitivity.add_argument("--thresholds", type=float, nargs="+",
                             default=[0.3, 0.6, 1.05, 2.0],
                             help="threshold (N) values to sweep")
    sensitivity.add_argument("--rate", type=float, default=5.0,
                             help="reference flood SYN/s for the "
                                  "detection-delay column")
    sensitivity.add_argument("--traces", type=int, default=5,
                             help="normal traces and attack trials per cell")
    sensitivity.add_argument("--seed", type=int, default=0)
    sensitivity.add_argument("--max-false-alarm-rate", type=float,
                             default=0.0,
                             help="false-alarm budget for the "
                                  "recommendation (onsets per period)")
    sensitivity.add_argument("--workers", type=int, default=None,
                             metavar="N",
                             help="worker processes sharding trace "
                                  "synthesis (default: all cores; cells "
                                  "are byte-identical for every N)")
    sensitivity.add_argument("--json", metavar="PATH",
                             help="write the grid as deterministic JSON")

    # -------------------------------------------------------------- theory
    theory = sub.add_parser(
        "theory", help="print the analytic bounds for a site size"
    )
    theory.add_argument(
        "--k-bar", type=float, required=True,
        help="mean SYN/ACKs per observation period at the deployment site",
    )
    theory.add_argument("--aggregate", type=float, default=14000.0,
                        help="campaign rate V for the coverage bound (SYN/s)")

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    profile = get_profile(args.site)
    if args.format == "counts":
        trace = generate_count_trace(
            profile, seed=args.seed, duration=args.duration
        )
        save_count_trace(trace, args.out)
        print(f"wrote {trace.num_periods} periods "
              f"({trace.duration:.0f}s of {profile.name}) to {args.out}")
        return EXIT_OK
    from .pcap.writer import write_pcap

    trace = generate_packet_trace(profile, seed=args.seed, duration=args.duration)
    out_path = f"{args.out}.out.pcap"
    in_path = f"{args.out}.in.pcap"
    write_pcap(out_path, trace.outbound)
    write_pcap(in_path, trace.inbound)
    print(f"wrote {len(trace.outbound)} outbound packets to {out_path}")
    print(f"wrote {len(trace.inbound)} inbound packets to {in_path}")
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    background = load_count_trace(args.counts)
    mixed = mix_flood_into_counts(
        background,
        FloodSource(pattern=args.rate),
        AttackWindow(args.start, args.duration),
    )
    save_count_trace(mixed, args.out)
    extra = sum(mixed.syn_counts) - sum(background.syn_counts)
    print(f"mixed {extra} flood SYNs ({args.rate}/s for {args.duration:.0f}s "
          f"from t={args.start:.0f}s) into {args.out}")
    return EXIT_OK


@contextmanager
def _serving(
    obs, port: Optional[int], hold: Optional[float] = None
) -> Iterator[None]:
    """Run the block with the telemetry server up (no-op without a
    port); the server stops — gracefully — when the block exits.
    *hold* keeps it up that many seconds after the block so scrapers
    can still query the finished run's history."""
    if port is None or obs is None:
        yield
        return
    from .obs.server import ObsServer

    server = ObsServer(obs, port=port)
    server.start()
    print(f"telemetry         : serving {server.url}"
          f"  (/metrics /healthz /events /query /alerts /slo)")
    try:
        yield
        if hold:
            import time

            print(f"telemetry         : holding for {hold:g}s")
            time.sleep(hold)
    finally:
        server.stop()


def _detect_parameters(args: argparse.Namespace) -> SynDogParameters:
    return SynDogParameters(
        observation_period=args.period,
        drift=args.drift,
        attack_increase=2.0 * args.drift,
        threshold=args.threshold,
    )


def _cmd_detect(args: argparse.Namespace) -> int:
    parameters = _detect_parameters(args)
    obs = None
    if args.metrics_out or args.serve is not None:
        from .obs import enabled_instrumentation

        # A live scrape server wants /events to answer, so keep the
        # in-memory sink when serving.
        obs = enabled_instrumentation(memory_events=args.serve is not None)
    with _serving(obs, args.serve):
        if args.counts:
            trace = load_count_trace(args.counts)
            if trace.period != parameters.observation_period:
                parameters = SynDogParameters(
                    observation_period=trace.period,
                    drift=args.drift,
                    attack_increase=2.0 * args.drift,
                    threshold=args.threshold,
                )
            from .trace.validation import validate_count_trace

            for finding in validate_count_trace(trace):
                print(f"[{finding.severity.value}] {finding.code}: "
                      f"{finding.message}", file=sys.stderr)
            dog = SynDog(parameters=parameters, obs=obs)
            with (obs.tracer.span("detect.run") if obs is not None
                  else nullcontext()):
                result = dog.observe_counts(trace.counts)
        else:
            if not args.pcap_in:
                print("detect: --pcap-out requires --pcap-in",
                      file=sys.stderr)
                return EXIT_USAGE
            from .experiments.streaming import detect_from_pcaps

            result, dog = detect_from_pcaps(
                args.pcap_out, args.pcap_in, parameters=parameters, obs=obs,
                fastpath=args.fastpath,
            )
    if obs is not None:
        samples = obs.finalize(args.metrics_out)
        if args.metrics_out:
            print(f"wrote {samples} metric samples to {args.metrics_out}")
    if args.json:
        from .experiments.export import detection_result_to_dict, save_json

        save_json(detection_result_to_dict(result), args.json)
        print(f"wrote detection record to {args.json}")
    if not args.quiet:
        times = [record.end_time for record in result.records]
        print(render_series("y_n", times, list(result.statistics)))
    print(f"periods observed : {len(result.records)}")
    print(f"K-bar estimate   : {dog.k_bar:.1f} SYN/ACKs per period")
    print(f"detection floor  : {dog.min_detectable_rate():.2f} SYN/s (Eq. 8)")
    print(f"max statistic    : {result.max_statistic:.4f} "
          f"(threshold N = {parameters.threshold})")
    if result.alarmed:
        print(f"ALARM            : flooding source detected at "
              f"t = {result.first_alarm_time:.0f}s "
              f"(period {result.first_alarm_period})")
        if args.report:
            from .experiments.forensics import characterize_attack

            report = characterize_attack(result, parameters=parameters)
            print("--- forensic report ---")
            print(f"estimated onset  : t = {report.estimated_onset_time:.0f}s")
            print(f"estimated end    : t = {report.estimated_end_time:.0f}s "
                  f"(duration {report.estimated_duration:.0f}s)")
            print(f"estimated rate   : {report.estimated_rate:.2f} SYN/s "
                  f"seen by this router")
            print(f"baseline X       : {report.baseline_x:.4f}; "
                  f"attacked X: {report.attack_x:.4f}")
        return EXIT_ALARM
    print("verdict          : no flooding source detected")
    return EXIT_OK


def _cmd_observe(args: argparse.Namespace) -> int:
    """``detect`` with the full observability layer switched on."""
    from .obs import enabled_instrumentation

    parameters = _detect_parameters(args)
    alert_rules = None
    if args.alerts or args.rules:
        from .obs.alerts import builtin_rules, rules_from_file

        alert_rules = (
            rules_from_file(args.rules) if args.rules
            else builtin_rules(threshold=args.threshold)
        )
    obs = enabled_instrumentation(
        events_path=args.events_out, alert_rules=alert_rules
    )
    with _serving(obs, args.serve, hold=args.hold):
        if args.trace:
            trace = load_count_trace(args.trace)
            if trace.period != parameters.observation_period:
                parameters = SynDogParameters(
                    observation_period=trace.period,
                    drift=args.drift,
                    attack_increase=2.0 * args.drift,
                    threshold=args.threshold,
                )
            dog = SynDog(parameters=parameters, obs=obs)
            with obs.tracer.span("observe.run"):
                result = dog.observe_counts(trace.counts)
        else:
            if not args.pcap_in:
                print("observe: --pcap-out requires --pcap-in",
                      file=sys.stderr)
                return EXIT_USAGE
            from .experiments.streaming import detect_from_pcaps

            with obs.tracer.span("observe.run"):
                result, dog = detect_from_pcaps(
                    args.pcap_out, args.pcap_in, parameters=parameters,
                    obs=obs, fastpath=args.fastpath,
                )
    events_emitted = obs.events.events_emitted
    run_seconds = obs.tracer.total_seconds("observe.run")
    samples = obs.finalize(args.metrics_out)
    summary = obs.summary()
    print(f"periods observed : {len(result.records)}")
    print(f"events emitted   : {events_emitted}")
    if summary["events_dropped"]:
        print(f"events DROPPED   : {summary['events_dropped']} "
              f"(bounded memory sink overflowed)")
    if summary["alarm_contexts"]:
        print(f"alarm contexts   : {summary['alarm_contexts']} "
              f"(flight recorder)")
    print(f"detection pass   : {run_seconds * 1e3:.2f} ms wall clock")
    print(f"K-bar estimate   : {dog.k_bar:.1f} SYN/ACKs per period")
    print(f"max statistic    : {result.max_statistic:.4f} "
          f"(threshold N = {parameters.threshold})")
    if args.metrics_out:
        print(f"metrics          : {samples} samples -> {args.metrics_out}")
    if args.events_out:
        print(f"events           : JSONL -> {args.events_out}")
    if alert_rules is not None:
        doc = obs.alerts.to_dict()
        fired = sorted({
            transition["rule"]
            for transition in doc["transitions"]
            if transition["to"] == "firing"
        })
        print(f"alerts           : {len(doc['rules'])} rules, "
              f"{doc['evaluations']} evaluations, "
              f"{len(doc['transitions'])} transitions")
        if fired:
            print(f"alerts fired     : {', '.join(fired)}")
    if args.trace_out:
        from .obs.exporters import write_chrome_trace

        spans = write_chrome_trace(obs.tracer, args.trace_out)
        print(f"trace            : {spans} span events -> {args.trace_out}")
    if result.alarmed:
        print(f"ALARM            : flooding source detected at "
              f"t = {result.first_alarm_time:.0f}s "
              f"(period {result.first_alarm_period})")
        return EXIT_ALARM
    print("verdict          : no flooding source detected")
    return EXIT_OK


def _fetch_json(url: str) -> dict:
    """GET *url* and decode the JSON body (raises OSError/ValueError)."""
    import json
    from urllib.request import urlopen

    with urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


def _server_url(base: str, path: str, params: Optional[dict] = None) -> str:
    from urllib.parse import urlencode

    base = base.rstrip("/")
    if not base.startswith("http://") and not base.startswith("https://"):
        base = "http://" + base
    url = base + path
    if params:
        url += "?" + urlencode(params)
    return url


def _load_events_strict(command: str, path) -> Optional[list]:
    """Load an events JSONL for offline forensics, refusing to limp
    along on a log that cannot support any: a truncated/corrupt file
    (e.g. the writer died mid-line) or an empty one yields a one-line
    diagnostic on stderr and ``None`` — the caller exits 2, because for
    a forensics command the broken log *is* the finding, and a clean
    "0 events, all quiet" report would hide it."""
    from .obs.events import read_jsonl

    try:
        events = read_jsonl(path)
    except ValueError as exc:  # includes json.JSONDecodeError
        print(f"{command}: truncated or corrupt events file {path}: {exc}",
              file=sys.stderr)
        return None
    if not events:
        print(f"{command}: empty events file: {path}", file=sys.stderr)
        return None
    return events


def _cmd_query(args: argparse.Namespace) -> int:
    """Evaluate one PromQL-lite expression over recorded telemetry."""
    import json

    from .obs.tsdb import QueryError

    if args.url:
        params = {"expr": args.expr}
        if args.at is not None:
            params["at"] = args.at
        try:
            doc = _fetch_json(_server_url(args.url, "/query", params))
        except (OSError, ValueError) as exc:
            print(f"query: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        from pathlib import Path

        from .obs.tsdb import tsdb_from_events

        if not Path(args.events).exists():
            print(f"query: no such events file: {args.events}",
                  file=sys.stderr)
            return EXIT_USAGE
        events = _load_events_strict("query", args.events)
        if events is None:
            return EXIT_ALARM
        tsdb = tsdb_from_events(events)
        try:
            result = tsdb.query(args.expr, at=args.at)
        except QueryError as exc:
            print(f"query: {exc}", file=sys.stderr)
            return EXIT_USAGE
        at = args.at if args.at is not None else tsdb.last_time()
        doc = {"expr": args.expr, "at": at, "result": result,
               "count": len(result)}
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"expr             : {doc.get('expr', args.expr)}")
    at = doc.get("at")
    print(f"evaluated at     : "
          f"{'-' if at is None else f't = {at:g}s'}")
    rows = doc.get("result") or []
    if not rows:
        print("result           : empty vector")
        return EXIT_OK
    print(f"result           : {len(rows)} series")
    for entry in rows:
        labels = entry.get("labels") or {}
        rendered = "{" + ", ".join(
            f'{key}="{value}"' for key, value in sorted(labels.items())
        ) + "}"
        print(f"  {rendered} {entry['value']:g}")
    return EXIT_OK


def _render_alerts_text(doc: dict) -> str:
    """Human view of an alerts document (live or replayed)."""
    if not doc.get("enabled", False):
        return "alerting         : disabled (no alert manager)"
    lines = [
        f"rules            : {len(doc.get('rules', []))}",
        f"evaluations      : {doc.get('evaluations', 0)}"
        + (" (closed)" if doc.get("closed") else ""),
    ]
    states = doc.get("states", {})
    for rule in doc.get("rules", []):
        state = states.get(rule["name"], {})
        lines.append(
            f"  {rule['name']:<24} [{rule.get('severity', '?'):>4}] "
            f"state={state.get('state', '?')} "
            f"fired={state.get('fired_count', 0)} "
            f"resolved={state.get('resolved_count', 0)}"
        )
    transitions = doc.get("transitions", [])
    lines.append(f"transitions      : {len(transitions)}")
    for transition in transitions:
        value = transition.get("value")
        lines.append(
            f"  t={transition['t']:>7g}s {transition['rule']:<24} "
            f"-> {transition['to']}"
            + ("" if value is None else f" (value {value:g})")
        )
    for name, message in doc.get("rule_errors", {}).items():
        lines.append(f"  rule error: {name}: {message}")
    return "\n".join(lines)


def _cmd_alerts(args: argparse.Namespace) -> int:
    """Alert-rule evaluation over recorded telemetry: live state from a
    server, or a deterministic replay over an events JSONL."""
    import json

    if args.url:
        try:
            doc = _fetch_json(_server_url(args.url, "/alerts"))
        except (OSError, ValueError) as exc:
            print(f"alerts: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        from pathlib import Path

        from .obs.alerts import builtin_rules, replay_rules, rules_from_file
        from .obs.events import read_jsonl
        from .obs.tsdb import tsdb_from_events

        if not Path(args.events).exists():
            print(f"alerts: no such events file: {args.events}",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            rules = (
                rules_from_file(args.rules) if args.rules
                else builtin_rules(threshold=args.threshold)
            )
        except (ValueError, OSError) as exc:
            print(f"alerts: bad rules file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        tsdb = tsdb_from_events(read_jsonl(args.events))
        doc = replay_rules(rules, tsdb).to_dict()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_render_alerts_text(doc))
    fired = doc.get("firing") or [
        transition["rule"]
        for transition in doc.get("transitions", ())
        if transition["to"] == "firing"
    ]
    return EXIT_ALARM if fired else EXIT_OK


def _render_fleet_text(doc: dict) -> str:
    """Human view of a fleet rollup document."""
    agents = doc.get("agents", {})
    lines = [
        f"fleet            : {agents.get('total', 0)} agents "
        f"(ok {agents.get('ok', 0)}, degraded {agents.get('degraded', 0)}, "
        f"alarming {agents.get('alarming', 0)}, down {agents.get('down', 0)})",
        f"quorum           : {agents.get('quorum', 1.0):.4f}",
        f"alarm fraction   : {agents.get('alarm_fraction', 0.0):.4f}",
    ]
    watermark = doc.get("watermark")
    lines.append(
        "watermark        : "
        + ("-" if watermark is None else f"t = {watermark:g}s")
    )
    digests = doc.get("digests", {})
    if digests:
        lines.append(f"{'digest':<18} {'p50':>10} {'p90':>10} {'p99':>10} "
                     f"{'max':>10}")
        for metric in sorted(digests):
            digest = digests[metric]
            quantiles = digest.get("quantiles", {})

            def _cell(value):
                return "-" if value is None else f"{value:.4g}"

            lines.append(
                f"  {metric:<16} {_cell(quantiles.get('p50')):>10} "
                f"{_cell(quantiles.get('p90')):>10} "
                f"{_cell(quantiles.get('p99')):>10} "
                f"{_cell(digest.get('max')):>10}"
            )
    titles = {
        "alarms": "most alarming (alarm count)",
        "cusum": "highest CUSUM",
        "degraded": "most degraded (periods)",
    }
    for ranking in sorted(doc.get("top", {})):
        entries = doc["top"][ranking].get("entries", [])
        if not entries:
            continue
        lines.append(f"top suspects     : {titles.get(ranking, ranking)}")
        for entry in entries:
            error = entry.get("error", 0.0)
            lines.append(
                f"  {entry['agent']:<24} {entry['weight']:>10g}"
                + ("" if not error else f"  (±{error:g})")
            )
    return "\n".join(lines)


def _synthetic_fleet_document(
    n: int, seed: int, k: int, workers: int
) -> dict:
    """Shard the synthetic fleet through the WorkPlan engine and fold
    the shard rollups home with ``merge_rollup_snapshots``,
    byte-identical at any worker count."""
    from .obs.merge import merge_rollup_snapshots
    from .obs.rollup import synthetic_shard_rollup
    from .parallel import WorkPlan, run_plan

    chunk = 256  # fixed chunking: the grid never depends on --workers
    tasks = [
        (seed, start, min(start + chunk, n), k)
        for start in range(0, n, chunk)
    ]
    snapshots = run_plan(
        WorkPlan.partition(tasks), synthetic_shard_rollup, workers=workers
    )
    return merge_rollup_snapshots(snapshots, k=k).to_dict()


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet summary: live /fleet scrape, offline events rebuild, or a
    sharded synthetic fleet (the O(K)-document demonstration)."""
    import json

    if args.serve is not None and args.synthetic is None:
        print("fleet: --serve requires --synthetic", file=sys.stderr)
        return EXIT_USAGE
    if args.url:
        try:
            doc = _fetch_json(_server_url(args.url, "/fleet"))
        except (OSError, ValueError) as exc:
            print(f"fleet: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif args.events:
        from pathlib import Path

        from .obs.events import read_jsonl
        from .obs.rollup import rollup_from_events

        if not Path(args.events).exists():
            print(f"fleet: no such events file: {args.events}",
                  file=sys.stderr)
            return EXIT_USAGE
        doc = rollup_from_events(read_jsonl(args.events), k=args.k).to_dict()
    else:
        if args.synthetic < 0:
            print(f"fleet: --synthetic must be >= 0: {args.synthetic}",
                  file=sys.stderr)
            return EXIT_USAGE
        doc = _synthetic_fleet_document(
            args.synthetic, seed=args.seed, k=args.k, workers=args.workers
        )
        if args.serve is not None:
            from .core.syndog import DetectionRecord
            from .obs import enabled_instrumentation
            from .obs.fanout import fold_period
            from .obs.rollup import synthetic_fleet_states

            obs = enabled_instrumentation(memory_events=True)
            for state in synthetic_fleet_states(args.synthetic,
                                                seed=args.seed):
                if state.down:
                    continue  # a down agent's tape never got a snapshot
                record = DetectionRecord(
                    period_index=0, start_time=0.0, end_time=20.0,
                    syn_count=state.delta, synack_count=0, k_bar=1.0,
                    x=state.x, statistic=state.cusum, alarm=state.alarm,
                    degraded=state.degraded_periods > 0,
                )
                fold_period(obs, state.name, record,
                            DEFAULT_PARAMETERS.threshold)
            with _serving(obs, args.serve, hold=args.hold or 0.0):
                pass
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_render_fleet_text(doc))
    alarming = (doc.get("agents") or {}).get("alarming", 0)
    return EXIT_ALARM if alarming else EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        from .experiments.tables import table1

        print(table1())
        return EXIT_OK
    from .experiments.tables import table2, table3

    rows, rendered = (table2 if args.number == 2 else table3)(
        num_trials=args.trials, workers=args.workers
    )
    print(rendered)
    if args.json:
        from .experiments.export import save_json, table_rows_to_dict

        save_json(
            table_rows_to_dict(rows, title=f"Table {args.number}"), args.json
        )
        print(f"wrote rows to {args.json}")
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import figures

    if args.number in (3, 4):
        panels = (figures.figure3 if args.number == 3 else figures.figure4)(
            seed=args.seed
        )
        for panel in panels:
            print(panel.render())
        return EXIT_OK
    if args.number == 5:
        for panel, _result in figures.figure5(seed=args.seed):
            print(panel.render())
        return EXIT_OK
    if args.number in (7, 8):
        maker = figures.figure7 if args.number == 7 else figures.figure8
        for panel, _result in maker(seed=args.seed):
            print(panel.render())
        return EXIT_OK
    panel, _result = figures.figure9(seed=args.seed)
    print(panel.render())
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection campaign: baseline vs faulted detection, with a
    hard exit-code verdict on the degradation envelope."""
    import json

    from .experiments.chaos import (
        chaos_alerts_document,
        render_chaos_report,
        run_chaos_campaign,
    )
    from .faults.schedule import get_schedule
    from .obs import enabled_instrumentation

    obs = enabled_instrumentation(max_memory_events=args.max_memory_events)
    report = run_chaos_campaign(
        site=args.site,
        seed=args.seed,
        schedule=get_schedule(args.schedule),
        rate=args.rate,
        attack_start=args.attack_start,
        attack_duration=args.attack_duration,
        duration=args.duration,
        max_delay_ratio=args.max_delay_ratio,
        obs=obs,
        workers=args.workers,
    )
    print(render_chaos_report(report))
    if args.out:
        from pathlib import Path

        # sort_keys + no timestamps: two runs with the same seed and
        # schedule must produce byte-identical files (CI diffs them).
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report           : JSON -> {args.out}")
    if args.alerts_out:
        from pathlib import Path

        # The replayed document depends only on the merged telemetry
        # history, so it is byte-identical for every --workers N.
        alerts_doc = chaos_alerts_document(obs)
        Path(args.alerts_out).write_text(
            json.dumps(alerts_doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        fired = sorted({
            transition["rule"]
            for transition in alerts_doc["transitions"]
            if transition["to"] == "firing"
        })
        print(f"alerts           : JSON -> {args.alerts_out}"
              + (f"  (fired: {', '.join(fired)})" if fired else ""))
    samples = obs.finalize(args.metrics_out)
    if args.metrics_out:
        print(f"metrics          : {samples} samples -> {args.metrics_out}")
    return EXIT_OK if report.within_envelope else EXIT_DEGRADED


def _cmd_soak(args: argparse.Namespace) -> int:
    """Long-horizon soak campaign: simulated days of synthesize ->
    detect -> checkpoint -> restore -> continue, with periodic fault
    bursts and attack windows, judged by multi-window SLO burn rates
    and the resource ledger's memory-flatness verdict."""
    import json

    from .experiments.soak import render_soak_report, run_soak_campaign
    from .obs import enabled_instrumentation

    obs = enabled_instrumentation(
        events_path=args.events_out,
        tsdb_retention=args.tsdb_retention,
    )
    with _serving(obs, args.serve, hold=args.hold):
        report = run_soak_campaign(
            site=args.site,
            seed=args.seed,
            sim_days=args.sim_days,
            periods_per_epoch=args.periods_per_epoch,
            rate=args.rate,
            obs=obs,
            workers=args.workers,
        )
        print(render_soak_report(report))
        if args.out:
            from pathlib import Path

            # sort_keys + no timestamps: the same seed and scenario
            # must produce byte-identical files at any --workers N
            # (CI diffs them).
            Path(args.out).write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
            print(f"report           : JSON -> {args.out}")
        samples = obs.finalize(args.metrics_out)
        if args.metrics_out:
            print(f"metrics          : {samples} samples -> "
                  f"{args.metrics_out}")
        if args.events_out:
            print(f"events           : JSONL -> {args.events_out}")
    return EXIT_OK if report.healthy else EXIT_DEGRADED


def _cmd_respond(args: argparse.Namespace) -> int:
    """Closed-loop response campaign: run the unmitigated and the
    playbook-mitigated arms of the same flood, print the recovery
    verdict, and persist the deterministic report/timeline artifacts.
    With ``--replay`` no simulation runs: the timeline document is
    rebuilt purely from a previous run's events JSONL."""
    import json
    from pathlib import Path

    from .experiments.respond import (
        render_respond_report,
        run_respond_campaign,
        timeline_document,
    )

    if args.replay:
        from .defense.response import timeline_from_events
        from .obs.events import read_jsonl

        try:
            events = list(read_jsonl(args.replay))
        except OSError as exc:
            print(f"respond: cannot read events: {exc}", file=sys.stderr)
            return EXIT_USAGE
        document = timeline_document(timeline_from_events(events))
        rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if args.timeline_out:
            Path(args.timeline_out).write_text(rendered, encoding="utf-8")
            print(f"timeline         : JSON -> {args.timeline_out}  "
                  f"(replayed {document['count']} entries from "
                  f"{args.replay})")
        else:
            print(rendered, end="")
        return EXIT_OK

    playbook = None
    if args.playbook:
        from .defense.response import Playbook

        try:
            playbook = Playbook.from_file(args.playbook)
        except (OSError, ValueError) as exc:
            print(f"respond: bad playbook: {exc}", file=sys.stderr)
            return EXIT_USAGE

    from .obs import enabled_instrumentation

    obs = enabled_instrumentation(
        events_path=args.events_out,
        memory_events=args.serve is not None,
    )
    with _serving(obs, args.serve, hold=args.hold):
        report = run_respond_campaign(
            seed=args.seed,
            rate=args.rate,
            client_rate=args.client_rate,
            duration=args.duration,
            attack_start=args.attack_start,
            attack_duration=args.attack_duration,
            period=args.period,
            backlog_capacity=args.backlog,
            playbook=playbook,
            alert_cut=args.alert_cut,
            actuator_failures=args.flaky,
            recovery_factor=args.recovery_factor,
            obs=obs,
            workers=args.workers,
        )
        print(render_respond_report(report))
        if args.out:
            # sort_keys + no timestamps: same seed + playbook must give
            # byte-identical files at every --workers N (CI diffs them).
            Path(args.out).write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"report           : JSON -> {args.out}")
        if args.timeline_out:
            document = timeline_document(report.mitigated["timeline"])
            Path(args.timeline_out).write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"timeline         : JSON -> {args.timeline_out}  "
                  f"({document['count']} entries)")
        samples = obs.finalize(args.metrics_out)
        if args.metrics_out:
            print(f"metrics          : {samples} samples -> {args.metrics_out}")
        if args.events_out:
            print(f"events           : JSONL -> {args.events_out}")
    return EXIT_OK if report.passed else EXIT_DEGRADED


def _cmd_theory(args: argparse.Namespace) -> int:
    parameters = DEFAULT_PARAMETERS
    k_bar = args.k_bar
    floor = parameters.min_detectable_rate(k_bar)
    rows = [
        ["K-bar (SYN/ACKs per period)", k_bar],
        ["f_min, Eq. 8 (SYN/s)", round(floor, 2)],
        ["design detection time (periods)", parameters.design_detection_periods],
        ["design detection time (seconds)", parameters.design_detection_seconds],
        [f"max hidden stub networks at V={args.aggregate:.0f}/s",
         parameters.max_hidden_sources(args.aggregate, k_bar)],
    ]
    for rate_multiple in (1.2, 1.5, 2.0, 3.0):
        rate = floor * rate_multiple
        rows.append([
            f"expected delay at {rate:.1f} SYN/s (periods)",
            round(parameters.detection_periods_for_rate(rate, k_bar), 2),
        ])
    print(render_table(["quantity", "value"], rows,
                       title="SYN-dog analytic bounds (paper defaults)"))
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .attack.ddos import DDoSCampaign
    from .experiments.campaign import simulate_campaign
    from .packet.addresses import IPv4Address

    profile = get_profile(args.site)
    campaign = DDoSCampaign.evenly_distributed(
        IPv4Address.parse("198.51.100.80"), args.aggregate, args.networks
    )
    obs = None
    if args.metrics_out or args.serve is not None:
        from .obs import enabled_instrumentation

        obs = enabled_instrumentation(memory_events=args.serve is not None)
    with _serving(obs, args.serve):
        result = simulate_campaign(
            campaign, profile, base_seed=args.seed, max_networks=args.sample,
            obs=obs, workers=args.workers,
        )
    if obs is not None:
        samples = obs.finalize(args.metrics_out)
        if args.metrics_out:
            print(f"wrote {samples} metric samples to {args.metrics_out}")
    if args.json:
        from .experiments.export import campaign_result_to_dict, save_json

        save_json(campaign_result_to_dict(result), args.json)
        print(f"wrote campaign result to {args.json}")
    f_i = campaign.per_network_rate(0)
    floor = DEFAULT_PARAMETERS.min_detectable_rate(
        profile.k_bar_target or profile.expected_k_bar()
    )
    print(f"campaign        : {args.aggregate:.0f} SYN/s over "
          f"{args.networks} {profile.name}-scale stub networks")
    print(f"per-network rate: f_i = {f_i:.2f} SYN/s "
          f"(local Eq. 8 floor ~ {floor:.2f})")
    print(f"sampled networks: {result.num_networks}")
    print(f"dogs barking    : {result.detection_fraction:.0%}")
    if result.first_alarm_delay is not None:
        print(f"first alarm     : {result.first_alarm_delay:.0f} periods "
              f"after campaign start")
        print(f"flood attributed: {result.attributable_fraction:.0%} "
              f"of the sampled volume")
        return EXIT_ALARM
    print("verdict         : the campaign hides below every sampled floor")
    return EXIT_OK


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    """The Section 4.2.3 tuning sweep as an operator command: measure
    every (a, N) cell, print the grid, and recommend the most sensitive
    setting inside the false-alarm budget."""
    from .experiments.sensitivity import recommend_parameters, sweep_parameters

    profile = get_profile(args.site)
    cells = sweep_parameters(
        profile,
        drifts=args.drifts,
        thresholds=args.thresholds,
        flood_rate=args.rate,
        num_normal_traces=args.traces,
        num_attack_trials=args.traces,
        base_seed=args.seed,
        workers=args.workers,
    )
    rows = [
        [
            cell.drift,
            cell.threshold,
            f"{cell.false_alarm_rate:.4f}",
            f"{cell.detection_probability:.0%}",
            ("-" if cell.mean_delay_periods is None
             else f"{cell.mean_delay_periods:.1f}"),
            f"{cell.f_min:.2f}",
        ]
        for cell in cells
    ]
    print(render_table(
        ["a", "N", "FA/period", "P(detect)", "delay", "f_min"],
        rows,
        title=f"sensitivity grid ({profile.name}, {args.rate:.1f} SYN/s)",
    ))
    pick = recommend_parameters(
        cells, max_false_alarm_rate=args.max_false_alarm_rate
    )
    if pick is None:
        print("recommendation  : no cell fits the false-alarm budget")
    else:
        print(f"recommendation  : a={pick.drift} N={pick.threshold} "
              f"(floor {pick.f_min:.2f} SYN/s)")
    if args.json:
        from .experiments.export import save_json, sensitivity_cells_to_dict

        save_json(
            sensitivity_cells_to_dict(cells, site=profile.name), args.json
        )
        print(f"wrote sensitivity grid to {args.json}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    """Forensics over events JSONL: what happened, from the log alone."""
    from .obs.analyze import analyze_files, render_report

    for path in args.events:
        from pathlib import Path

        if not Path(path).exists():
            print(f"report: no such events file: {path}", file=sys.stderr)
            return EXIT_USAGE
        # Validate before analyzing: a truncated or empty log must be
        # a loud exit-2 diagnostic, not a quiet "nothing happened".
        if _load_events_strict("report", path) is None:
            return EXIT_ALARM
    report = analyze_files(
        args.events, min_alarm_periods=args.min_alarm_periods
    )
    rendered = render_report(report, fmt=args.format, profile=args.profile)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered)
    return EXIT_ALARM if report.detection_count else EXIT_OK


def _load_profile_baseline(path: str) -> dict:
    """Read a per-stage ns/packet baseline: either a full
    BENCH_profile.json document (``{"stages": [...]}``) or a bare
    ``{stage: ns_per_packet}`` mapping."""
    import json
    from pathlib import Path

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and "stages" in data:
        return {
            row["stage"]: float(row["ns_per_packet"])
            for row in data["stages"]
        }
    return {stage: float(value) for stage, value in data.items()}


def _cmd_profile(args: argparse.Namespace) -> int:
    """Per-stage cost attribution over the canonical pipeline workload."""
    from .experiments.profiling import (
        DEFAULT_PROFILE_DURATION,
        run_profile_campaign,
    )
    from .obs import enabled_instrumentation
    from .obs.profiler import (
        write_callgrind,
        write_folded,
        write_profile_json,
    )

    site = get_profile(args.site)
    obs = enabled_instrumentation(
        profiler=args.mode,
        profiler_sample_every=args.sample_every,
        events_path=args.events_out,
    )
    outcomes = run_profile_campaign(
        site,
        networks=args.networks,
        base_seed=args.seed,
        duration=(args.duration if args.duration is not None
                  else DEFAULT_PROFILE_DURATION),
        obs=obs,
        workers=args.workers,
        fastpath=args.fastpath,
    )
    document = obs.profiler.to_dict()
    obs.finalize()
    total_packets = sum(outcome["packets"] for outcome in outcomes)
    print(f"profiled         : {len(outcomes)} networks, "
          f"{total_packets} packets ({site.name}, mode {args.mode})")
    print(f"{'stage':<16} {'calls':>9} {'packets':>9} "
          f"{'ns/call':>12} {'ns/packet':>12} {'total ms':>10}")
    for row in document["stages"]:
        print(f"{row['stage']:<16} {row['calls']:>9} {row['packets']:>9} "
              f"{row['ns_per_call']:>12.1f} {row['ns_per_packet']:>12.1f} "
              f"{row['ns_total'] / 1e6:>10.3f}")
    if args.json:
        write_profile_json(document, args.json)
        print(f"profile          : JSON -> {args.json}")
    if args.flame_out:
        stacks = write_folded(document, args.flame_out)
        print(f"flamegraph       : {stacks} folded stacks -> "
              f"{args.flame_out}")
    if args.callgrind_out:
        stages = write_callgrind(document, args.callgrind_out)
        print(f"callgrind        : {stages} stages -> {args.callgrind_out}")
    if args.events_out:
        print(f"events           : JSONL -> {args.events_out}")
    if args.baseline:
        try:
            baseline = _load_profile_baseline(args.baseline)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"profile: bad baseline file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        regressions = []
        for row in document["stages"]:
            budget = baseline.get(row["stage"])
            if budget is None:
                continue
            allowed = budget * args.baseline_tolerance
            verdict = "ok" if row["ns_per_packet"] <= allowed else "REGRESSED"
            print(f"baseline         : {row['stage']:<16} "
                  f"{row['ns_per_packet']:.1f} vs {budget:.1f} ns/packet "
                  f"(allowed {allowed:.1f}) {verdict}")
            if verdict != "ok":
                regressions.append(row["stage"])
        if regressions:
            print(f"REGRESSION       : {', '.join(sorted(regressions))}")
            return EXIT_ALARM
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "campaign": _cmd_campaign,
    "attack": _cmd_attack,
    "detect": _cmd_detect,
    "observe": _cmd_observe,
    "report": _cmd_report,
    "profile": _cmd_profile,
    "query": _cmd_query,
    "alerts": _cmd_alerts,
    "fleet": _cmd_fleet,
    "chaos": _cmd_chaos,
    "soak": _cmd_soak,
    "respond": _cmd_respond,
    "sensitivity": _cmd_sensitivity,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "theory": _cmd_theory,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
