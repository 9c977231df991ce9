#!/usr/bin/env python3
"""Run one command and report its own wall time, CPU time and peak RSS.

    python3 scripts/measure.py -- CMD [ARG ...]

Prints one JSON line after the command ends,

    {"exit": 0, "wall_s": 0.21, "cpu_s": 0.2, "peak_rss_mb": 41.5}

and exits with the command's exit code (128 + N if signal N ended it).
CPU time and peak RSS are the command's `rusage` from `os.wait4`. On
Linux a child's `ru_maxrss` starts from its parent's high-water mark at
fork, so this launcher imports nothing beyond the standard library's
`os`, `sys`, `time` and `json`: its own mark, about 14 MB, is the floor
of the reported peak, not the mark of whatever process ran it.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cmd = argv[1:]
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    except OSError as err:
        print(f"measure.py: cannot run {cmd[0]}: {err.strerror}", file=sys.stderr)
        return 127
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "exit": code,
        "wall_s": round(wall, 4),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),  # KiB on Linux
    }), flush=True)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
