"""Host-speed probe: a fixed numpy kernel timed on the benchmark's CPU.

    python3 bench/probe.py SAMPLES_FILE

Runs until terminated.  Every ``PERIOD_S`` it runs :func:`kernel` once and
appends ``<time.monotonic() at the end> <CPU seconds of the kernel>`` to
SAMPLES_FILE.  The benchmark pins itself, every ``varexp`` process and this
probe to one CPU, so the probe sees the speed the workload gets at the same
moments.  On a shared virtual machine that speed drifts by tens of percent
over seconds while the program does not change; the kernel itself never
changes, so its CPU time measures the drift.  It is benchmark code and
imports nothing from ``varexp``, so a faster program does not move it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

PERIOD_S = 0.05
_LINE = np.sin(np.pi * np.linspace(0.0, 1.0, 129))
_SQUARE = np.outer(_LINE[::3], _LINE[::3])


def kernel() -> float:
    """Small-array differences, powers and reductions, like the program's
    energy kernels; about 1.8 ms of CPU on a 2.1 GHz Xeon."""
    acc = 0.0
    for _ in range(30):
        for a in (_LINE, _SQUARE):
            g = np.empty_like(a)
            g[1:-1] = (a[2:] - a[:-2]) * 0.5
            g[0] = a[1] - a[0]
            g[-1] = a[-1] - a[-2]
            m = np.abs(g) ** 1.5 * g
            acc += float(np.sum(m * a)) + float(np.max(np.abs(m)))
    return acc


def main(path: str) -> None:
    with open(path, "w", buffering=1) as out:
        while True:
            c0 = time.thread_time()
            kernel()
            cpu = time.thread_time() - c0
            out.write(f"{time.monotonic()!r} {cpu!r}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
