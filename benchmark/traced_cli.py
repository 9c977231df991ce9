"""Run one slowtrack CLI command under the outside-in tracer.

    python3 benchmark/traced_cli.py TRACE_JSON slowtrack-args...

The command runs exactly as ``python3 -m slowtrack slowtrack-args...``
would (same argument parsing, same exit code), with the probes of
`tracer.SLOWTRACK_PROBES` installed. The tracer's totals and the list of
absent probes are written to TRACE_JSON once the command has ended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE_JSON slowtrack-args...", file=sys.stderr)
        return 2
    out, args = Path(argv[0]), argv[1:]
    tr = tracer.Tracer()
    tr.install(tracer.SLOWTRACK_PROBES)
    import slowtrack.cli

    try:
        code = slowtrack.cli.main(args)
    finally:
        tr.uninstall()
        out.write_text(
            json.dumps({"totals": tr.metrics(), "absent": tr.absent}, indent=1),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
