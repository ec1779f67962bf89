"""Run the momentlab command line with the benchmark's tracer installed.

    PERFBENCH_SPANS_DIR=<dir> python perfbench/cli_traced.py <cli arguments>

Behaves like ``python -m momentlab.cli <cli arguments>`` and writes the
process's spans to <dir>/<pid>.json when it exits.  The traced pass of
cli_oneshot uses it to see the layers inside each CLI process.
"""

import os
import sys
from pathlib import Path

import tracer

if __name__ == "__main__":
    spans = tracer.Tracer().install()
    spans.enable()
    from momentlab import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        spans.dump(Path(os.environ["PERFBENCH_SPANS_DIR"]) / f"{os.getpid()}.json")
    sys.exit(code)
