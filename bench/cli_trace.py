"""Run one CLI invocation with the tracer installed.

    python3 bench/cli_trace.py TOTALS_PATH <wittsums arguments...>

Behaves like `python -m wittsums.cli <arguments...>` (same exit code, same
output) and writes the invocation's raw per-layer totals to TOTALS_PATH.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    import wittsums.cli

    tracer = tracing.Tracer()
    tracer.install()
    rc = tracer.span("cli.main", wittsums.cli.main)(argv)
    with open(totals_path, "w") as fh:
        json.dump(tracer.totals(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
