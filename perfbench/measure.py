"""Timing statistics, the host speed probes and process memory."""

from __future__ import annotations

import math
import resource
import socket
import statistics
import threading
import time
from collections.abc import Sequence

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return n * (100.0 - pct) / 100.0


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond.

    ``None`` when even the median leaves fewer than ``MIN_BEYOND``.
    """
    chosen = None
    for pct in TAIL_LADDER:
        # The tolerance absorbs float error in 100 - 99.9.
        if samples_beyond(n, pct) >= MIN_BEYOND - 1e-9:
            chosen = pct
    return chosen


def min_samples(pct: float) -> int:
    """The smallest sample count for which ``pct`` is a valid tail."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - pct) - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile."""
    return float(np.percentile(values, pct))


def calibration_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop (host drift probe).

    The loop never changes, so a move in this number between runs is
    the host, not the code under test.
    """
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        timings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(timings)


#: The reference host speed: the probe's CPU ms on a 2-vCPU Xeon VM
#: when no other tenant contends for its core.  Under contention the
#: probe, and the library's CPU time with it, takes up to twice as long.
#: The probe's code never changes, so scaling a timing by it removes the
#: host's speed, not a change in the code under test.
PROBE_REF_MS = 1.0

#: Strings the host speed probe works on.
_PROBE_WORDS = ("canonical", "linking", "entity", "relation", "phrase", "knowledge", "open", "base")


def _probe_work(iterations: int) -> float:
    """A fixed mix of the interpreter work the library does: string
    slicing, dict updates, float arithmetic."""
    table: dict[str, int] = {}
    total = 0.0
    for index in range(iterations):
        word = _PROBE_WORDS[index % 8]
        key = word[index % 3 :] + word[: index % 3]
        table[key] = table.get(key, 0) + 1
        total += (index * 0.5) % 7.0
    return len(table) + total


#: Iterations of the full-length probe, the one ``PROBE_REF_MS`` times.
PROBE_ITERATIONS = 2500


def probe_ms(iterations: int = PROBE_ITERATIONS, clock=time.process_time) -> float:
    """CPU time of the probe, in ms of the full-length probe: a shorter
    run is scaled up, so every probe reads on the same scale."""
    start = clock()
    _probe_work(iterations)
    return (clock() - start) * 1e3 * PROBE_ITERATIONS / iterations


class SpeedSampler:
    """Samples the host speed from a side thread while a block runs.

    Every ``period_s`` the thread runs the probe, so a long call into
    the library (a set-up) is paired with how fast the host ran during
    it, not only at its ends.  On return ``cpu_s`` is the block's process
    CPU time without the probes' own, and ``scaled_s`` that time at the
    reference host speed.
    """

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        self.samples_ms: list[float] = []
        self.cpu_s = 0.0
        self._probes_cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="perfbench-speed")

    def _sample(self) -> None:
        start = time.thread_time()
        while not self._stop.wait(self.period_s):
            self.samples_ms.append(probe_ms(clock=time.thread_time))
        self._probes_cpu_s = time.thread_time() - start

    def __enter__(self) -> SpeedSampler:
        self._cpu_start = time.process_time()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        self.cpu_s = time.process_time() - self._cpu_start - self._probes_cpu_s

    @property
    def scaled_s(self) -> float:
        if not self.samples_ms:
            # A block shorter than one period: nothing to scale by.
            return self.cpu_s
        return self.cpu_s * PROBE_REF_MS / statistics.fmean(self.samples_ms)


#: The loopback probe's CPU ms on the reference host (3 round trips).
LOOPBACK_REF_MS = 0.04


class LoopbackProbe:
    """Round trips over a loopback TCP connection to a thread that echoes
    them: the kernel I/O and thread hand-off work a request's path does,
    which contention slows by a different factor than interpreter work.
    """

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._echo, name="perfbench-loopback")
        self._thread.start()
        self._conn = socket.create_connection(self._listener.getsockname())
        self._conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _echo(self) -> None:
        conn, _ = self._listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn:
            while data := conn.recv(256):
                conn.sendall(data)

    def ms(self, trips: int = 3) -> float:
        """Process CPU time of ``trips`` round trips, in ms."""
        start = time.process_time()
        for _ in range(trips):
            self._conn.sendall(b"x" * 128)
            self._conn.recv(256)
        return (time.process_time() - start) * 1e3

    def close(self) -> None:
        """Stop the echo thread and wait for it."""
        self._conn.close()
        self._thread.join()
        self._listener.close()

    def __enter__(self) -> LoopbackProbe:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def slowdown(interp_ms: float, loopback_ms: float, refresh: bool) -> float:
    """How many times slower than the reference host an op's kind of
    work ran, from the two probes measured around it.

    A plain request is mostly loopback I/O and hand-offs between the
    client, server and service threads, which the loopback probe
    measures.  A refresh adds graph building and inference, interpreter
    and numpy work, so it takes the mean of both probes.
    """
    loopback = loopback_ms / LOOPBACK_REF_MS
    if not refresh:
        return loopback
    return (interp_ms / PROBE_REF_MS + loopback) / 2.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
