"""A fixed calibration loop that runs beside each benchmark child.

Usage: python3 perfbench/calibrate.py CPU

The process pins itself to CPU, prints ``ready`` and repeats one fixed chunk
of exact-arithmetic work until its standard input is closed.  Then it prints
one JSON object: the chunks done and the mean CPU seconds per chunk.

Why: the benchmark host is a few vCPUs of a machine shared with other
tenants, and their load changes the speed of a vCPU by up to 2x, second by
second.  A calibrator pinned to the same vCPU as the measured child shares
that vCPU with it in scheduler slices of a few milliseconds, so both see the
same mix of fast and slow moments.  ``run.py`` divides the child's times by
the calibrator's speed relative to ``REFERENCE_CHUNK_S``.  The loop uses only
the standard library, so no change to the program under test changes it.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from fractions import Fraction

# CPU seconds one chunk takes on the reference CPU.  Times reported by the
# benchmark are seconds of that CPU.  About the fastest chunk time seen on a
# 2-vCPU Intel Xeon host with Python 3.11.
REFERENCE_CHUNK_S = 0.015


def chunk() -> int:
    """Build a law of 58 Bernoulli sums, term by term, with Fractions."""
    law = [Fraction(1)]
    for k in range(2, 60):
        p = Fraction(k % 13 + 1, k % 11 + 14)
        q = 1 - p
        new = [Fraction(0)] * (len(law) + 1)
        for i, mass in enumerate(law):
            new[i] += mass * q
            new[i + 1] += mass * p
        law = new
    return len(law)


def main(argv: list[str]) -> int:
    (cpu,) = argv
    os.sched_setaffinity(0, {int(cpu)})
    print("ready", flush=True)
    chunks = 0
    started = time.process_time()
    while True:
        chunk()
        chunks += 1
        if select.select([sys.stdin], [], [], 0)[0]:
            break
    spent = time.process_time() - started
    print(json.dumps({"chunks": chunks, "chunk_s": spent / chunks}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
