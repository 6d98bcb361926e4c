"""Run the momenta CLI with tracing installed and write its per-layer totals.

Usage: python benchmarks/traced_cli.py SUMMARY.json <momenta arguments...>

The import of ``momenta.cli`` is timed as the ``cli.import`` span; the CLI's
exit code is this process's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import tracing


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    start = perf_counter()
    import momenta.cli

    tracer.record("cli.import", start, perf_counter())
    try:
        with tracing.installed(tracer):
            code = momenta.cli.main(argv)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracing.summarize(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
