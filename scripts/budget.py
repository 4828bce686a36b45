#!/usr/bin/env python3
"""Run one command and hold it to a wall-time and peak-RSS budget.

    python3 scripts/budget.py WALL_S RSS_MB COMMAND [ARG ...]

The command inherits stdin, stdout and stderr.  Afterwards one line on
stderr gives its wall time and the peak resident set size of the largest
process it ran (``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``, which
counts every descendant that was waited for, in KiB on Linux; printed in
MiB, as ``MB``).  The exit status is the command's own when it fails, 1
when it ran over either budget, else 0.  Standard library only, so it runs
wherever the package's tests run.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: budget.py WALL_S RSS_MB COMMAND [ARG ...]", file=sys.stderr)
        return 2
    wall_budget, rss_budget = float(argv[0]), float(argv[1])
    command = argv[2:]
    start = time.monotonic()
    status = subprocess.run(command).returncode
    wall = time.monotonic() - start
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    over = wall > wall_budget or rss > rss_budget
    print(
        f"{' '.join(command)}: wall {wall:.2f} s of {wall_budget:g}, peak RSS {rss:.0f} MB of {rss_budget:g}"
        + (" -- over budget" if over else ""),
        file=sys.stderr,
    )
    return status or int(over)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
