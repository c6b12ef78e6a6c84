"""Host speed: one fixed piece of work, timed at idle moments of a run.

The benchmark host is a share of a bigger machine, and its speed moves
with the neighbours' load.  On the 2-CPU reference host a fixed
single-threaded loop took 0.19 s and 0.41 s half an hour apart, and the
benchmark's CPU-bound figures (set-up, grid rounds, reloads) halved with
it, with no steal time to show for it.  A figure measured in one such
state cannot be compared with one measured in the other, so CPU-bound
figures are reported *at reference speed*: scaled by
``REFERENCE_PROBE_S`` over the median probe time of the same run.  The
probe touches no code of the program under test, so a change to the
program moves the scaled figure exactly as it moves the raw one; the raw
figures are printed on the run's ``host speed`` line.

The probe mixes the kinds of work the workloads do: interpreter loops,
string handling, small-matrix BLAS and fancy-index gathers.  It runs in
one process per CPU at once, with nothing else of the benchmark
running: before, between and after the timed operations.
"""

from __future__ import annotations

import os
import statistics
import struct
from time import perf_counter

#: A probe time of the reference host; it only sets the scale of the
#: scaled figures (a host whose probe takes this long reports raw values).
REFERENCE_PROBE_S = 0.040
#: Probes taken at each idle moment that is not between two operations.
PROBES = 8
#: Probes run and dropped when the probe processes start.
WARM_UP = 3
#: Probe processes run at once: one per CPU of the 2-CPU reference host,
#: so that a neighbour slowing down either CPU shows in the probe.
PARALLEL = 2


def _work() -> float:
    """Wall-clock seconds of one fixed unit of CPU-bound work."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((160, 160))
    rows = rng.integers(0, 160, size=4096)
    started = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    text = ",".join(str(i) for i in range(40_000))
    total += len(text.split(","))
    for _ in range(12):
        matrix = np.tanh(matrix @ matrix * 1e-2)
        total += int(matrix[rows].sum() > 0)
    seconds = perf_counter() - started
    if total <= 0:
        raise AssertionError("probe work was skipped")
    return seconds


class HostSpeed:
    """``PARALLEL`` probe processes, the probe times of one run, their factor.

    The processes are forked once, before the workload allocates anything,
    each pinned to its own CPU, and warmed up.  Each probe sends every
    process a request at once and averages their replies.  ``close``
    stops and reaps them.
    """

    def __init__(self) -> None:
        #: One tuple per probe: each probe process's seconds.
        self.samples: list[tuple[float, ...]] = []
        self._workers: list[tuple[int, int, int]] = []

    def start(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        for index in range(PARALLEL):
            request_read, request_write = os.pipe()
            reply_read, reply_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(request_write)
                    os.close(reply_read)
                    for _, sibling_request, sibling_reply in self._workers:
                        os.close(sibling_request)
                        os.close(sibling_reply)
                    # One process per CPU: woken together, unpinned probes
                    # were often queued on one CPU and read twice as long.
                    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
                    while os.read(request_read, 1) == b"x":
                        os.write(reply_write, struct.pack("d", _work()))
                    status = 0
                finally:
                    os._exit(status)
            os.close(request_read)
            os.close(reply_write)
            self._workers.append((pid, request_write, reply_read))
        for _ in range(WARM_UP):
            self._probe()

    def _probe(self) -> tuple[float, ...]:
        for _, request, _ in self._workers:
            os.write(request, b"x")
        times = []
        for _, _, reply in self._workers:
            data = os.read(reply, 8)
            if len(data) != 8:
                raise RuntimeError("a host-speed probe process failed")
            times.append(struct.unpack("d", data)[0])
        return tuple(times)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self._probe())

    def close(self) -> None:
        workers, self._workers = self._workers, []
        for pid, request, reply in workers:
            try:
                os.write(request, b"q")
            except OSError:
                pass
            os.close(request)
            os.close(reply)
            os.waitpid(pid, 0)

    def median_s(self, cpus: int) -> float:
        """Median probe time: of the fastest CPU (``cpus=1``) or the mean of all."""
        pick = min if cpus == 1 else statistics.mean
        return statistics.median(pick(times) for times in self.samples)

    def factor(self, cpus: int) -> float:
        """Multiply a time by this to get it at reference speed (<1: host is slow).

        ``cpus`` is how many CPUs the figure's work keeps busy: a
        single-threaded phase runs on the least loaded CPU, work spread
        over every CPU waits for the most loaded one too.
        """
        return REFERENCE_PROBE_S / self.median_s(cpus)
