"""Host speed probe: a fixed pure-Python kernel timed on one CPU.

The hosts this benchmark runs on are shared: the same code runs up to
1.7x slower while other tenants load the sibling hardware thread, and the
slow spells last from a second to minutes.  So a monitor process runs this
probe every ``PERIOD_S`` seconds on the CPU that does the measured work,
and every timed interval is reported in *host-normalized* seconds: its
raw seconds, less the time the hypervisor did not run the CPU (steal),
times (``REFERENCE_S`` over the mean probe around the interval) to the
power ``SLOWDOWN_EXPONENT``.
The probe is timed in thread CPU time, so it sees how fast the CPU runs,
not how busy the measured work keeps it.

Run as a script, pinned to ``--cpu`` until it is terminated: with ``--out``
it is the monitor, appending ``<monotonic time> <probe seconds> <steal
seconds>`` lines to a file, where steal is the CPU's cumulative time not
run by the hypervisor; with ``--spin`` it keeps that CPU busy at the ``SCHED_IDLE``
priority, which runs only when nothing else wants the CPU.  A virtual CPU
that goes idle runs the next burst of work markedly slower (the probe
takes about 1.5x as long after a sleep as on a busy CPU), so the served
workload, whose server sleeps between requests, keeps its CPU busy this
way.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

ITERATIONS = 8000

#: Seconds the monitor sleeps between probes.
PERIOD_S = 0.1

#: The probe's time on an unloaded core of the reference host (a Xeon
#: vCPU); normalized times read as seconds on that host.
REFERENCE_S = 0.001

#: How the measured work's slowdown follows the probe's: when the probe
#: runs k times slower, the program's ops run about k**1.2 times slower.
#: Fitted on the reference host, where the probe ranged over 1.1-1.9 ms
#: and fixed ops were timed beside it (the WG-Log op fitted 1.34, the
#: interactive XML-GL rotation 1.17); with an exponent of 1 their
#: normalized times still rose 10-12 % from fast to slow spells.
SLOWDOWN_EXPONENT = 1.2


def probe() -> float:
    """Thread CPU seconds of one run of the fixed kernel.

    The kernel creates no container objects, so it cannot trigger a
    garbage collection over the caller's heap.
    """
    table = dict.fromkeys(range(257), 0)
    started = time.thread_time()
    for number in range(ITERATIONS):
        key = number % 257
        table[key] = table[key] + number * 3 // 2
    return time.thread_time() - started


def steal_seconds(cpu: int) -> float:
    """Seconds the hypervisor has not run ``cpu`` since boot (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] == f"cpu{cpu}":
                return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="host speed monitor")
    parser.add_argument("--cpu", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out")
    mode.add_argument("--spin", action="store_true")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    if args.spin:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        while not stopping:
            probe()
        return 0
    with open(args.out, "w", encoding="utf-8") as out:
        while not stopping:
            seconds = probe()
            out.write(f"{time.monotonic()} {seconds} {steal_seconds(args.cpu)}\n")
            out.flush()
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
