"""Traced `dlbac` process: python3 bench/serve_child.py SPANS_JSON dlbac-args...

Installs the benchmark's span wrappers, runs `dlbac.cli.main` with the given
arguments, and writes the spans to SPANS_JSON when it exits.  SIGTERM ends
it through SystemExit, so a blocking `serve` unwinds and its spans are kept.
"""

import signal
import sys
from pathlib import Path

import tracing

import dlbac.cli


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return dlbac.cli.main(sys.argv[2:])
    finally:
        tracing.write(Path(sys.argv[1]), {"spans": tracer.dump()})


if __name__ == "__main__":
    sys.exit(main())
