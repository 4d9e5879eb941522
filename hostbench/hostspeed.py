"""The host's speed, sampled all through a suite run.

::

    python3 hostbench/hostspeed.py    # one sample per line until SIGTERM

This host's CPU speed drifts by a third or more within minutes, and every
time a run measures drifts with it.  The benchmark pins itself and every
process it starts to one CPU (the two CPUs drift independently); on the
suite workloads it runs this sampler beside the program.  Every
:data:`INTERVAL` seconds the sampler parses and compiles a fixed Python
module (interpreter work like the program's own, in none of the
program's code) and prints the CPU time that took: CPU time, so that a
sample the program preempts is not counted slower for the wait.
:meth:`HostSpeed.factor` rescales a run's times to the speed at which a
sample takes :data:`REFERENCE_SECONDS`.

A sample on an idle CPU reads faster than one beside a busy program
(caches stay warm), so the samples stand for the program's speed only
where the program keeps the CPU busy all through the run, as a suite
run does.  The service workloads idle between requests, by an amount a
change to the program moves, so their times are not rescaled.
"""

from __future__ import annotations

import ast
import signal
import statistics
import subprocess
import sys
import time

#: the fixed module each sample parses and compiles
REFERENCE_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    c = [a * {i} + b for _ in range(3)]\n"
    f"    d = {{'k': c, 'n': {i}, 's': str(a)}}\n"
    f"    if a > b:\n"
    f"        return d\n"
    f"    return sum(c) - {i}\n"
    for i in range(25)
)

#: median CPU time of one sample at the host speed that reported times
#: are scaled to (about this host's typical speed)
REFERENCE_SECONDS = 0.0065

#: seconds between two samples (the sampler takes about 2 % of its CPU)
INTERVAL = 0.25


def sample() -> float:
    start = time.thread_time()
    compile(ast.parse(REFERENCE_SOURCE), "<reference>", "exec")
    return time.thread_time() - start


class HostSpeed:
    """The sampler process of one run."""

    def __init__(self) -> None:
        self.samples = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        out, _ = self._proc.communicate()
        self.samples = [float(line) for line in out.split()]

    def factor(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.samples)


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    while True:
        print(repr(sample()), flush=True)
        time.sleep(INTERVAL)


if __name__ == "__main__":
    sys.exit(main())
