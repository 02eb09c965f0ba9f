"""One fresh benchmark process: set up ``irsbeam``, optionally install the
tracer, run the real CLI entry point once and report what it cost.

Usage: python3 child.py SPEC_JSON

The spec names the ``src`` directory to import from, the config document,
the subcommand and its arguments, and where to write the report. Set-up
is the import of ``irsbeam`` (numpy included) plus ``parse_config`` on the
workload config; the timed part runs ``irsbeam.cli.main`` from argument
parsing until the CSV is written.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    config_text = Path(spec["config"]).read_text()

    start = time.perf_counter()
    import irsbeam
    from irsbeam import cli
    from irsbeam.config import parse_config
    parse_config(config_text, scenario=spec["command"])
    setup_s = time.perf_counter() - start

    src = Path(spec["src"]).resolve()
    if Path(irsbeam.__file__).resolve().parent.parent != src:
        print(f"irsbeam was imported from {irsbeam.__file__}, not from {src}",
              file=sys.stderr)
        return 1

    entry = cli.main
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        entry = tracer.install()

    start = time.perf_counter()
    code = entry(spec["argv"])
    run_s = time.perf_counter() - start

    report = {
        "exit": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.export()
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
