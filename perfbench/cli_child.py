"""One ``conecenter`` CLI call under the tracer, for the cli workload's traced run.

Usage (from the checkout root, PYTHONPATH=src):
    python3 perfbench/cli_child.py SPANS_FILE COMMAND POLYGON [OPTIONS...]

Runs ``conecenter.cli.main`` on the remaining arguments like
``python -m conecenter`` does, then writes the recorded spans to SPANS_FILE
as JSON.  The import of the package is its own span, ``cli.import``.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    start = time.perf_counter()
    import conecenter.cli

    tracer.spans.append(["cli.import", start, time.perf_counter(), -1])
    tracer.install()
    try:
        status = conecenter.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
