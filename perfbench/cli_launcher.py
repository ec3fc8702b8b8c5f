"""Launch ``repro.cli.main`` the way ``python -m repro`` does, for the
capture-detect workload's set-up probes and traced runs.

    python3 perfbench/cli_launcher.py --setup-only RESULT -- detect ...
    python3 perfbench/cli_launcher.py --traced RESULT SPANS -- detect ...

``--setup-only`` imports the CLI, builds its parser, parses the
arguments and stops: the moment it stops is when the first unit of work
could begin.  ``--traced`` times ``import repro.cli``, imports the
fast-path modules ``detect`` imports lazily, installs the span wrappers
and runs ``main``.  Both write their clock stamps (``time.monotonic_ns``,
one clock for every process on the host) to RESULT as JSON.
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    split = argv.index("--")
    mode, paths, cli_argv = argv[0], argv[1:split], argv[split + 1:]
    stamps = {"started_ns": STARTED_NS}
    if mode == "--setup-only":
        import repro.cli

        repro.cli.build_parser().parse_args(cli_argv)
        stamps["ready_ns"] = time.monotonic_ns()
        with open(paths[0], "w") as handle:
            json.dump(stamps, handle)
        return 0

    import spans

    rec = spans.Recorder()
    with rec.span("cli.import"):
        import repro.cli
    with rec.span("fastpath.import"):
        import repro.fastpath  # noqa: F401
    with rec.span("trace.install"):
        spans.install(rec)
    with rec.span("cli.main"):
        code = repro.cli.main(cli_argv)
    stamps["main_done_ns"] = time.monotonic_ns()
    summary = rec.summary()
    stamps["layers"] = spans.layer_metrics(rec, "cli.main")
    stamps["spans"] = {name: row["self_ns"] for name, row in summary.items()}
    stamps["cli.main_total_ns"] = summary["cli.main"]["total_ns"]
    sys.stdout.flush()
    rec.write(paths[1], {"workload": "capture-detect", "started_ns": STARTED_NS})
    stamps["written_ns"] = time.monotonic_ns()
    with open(paths[0], "w") as handle:
        json.dump(stamps, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
