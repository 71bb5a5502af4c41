"""CPU speed sampled inside a child process, so that its times can be
reported at a reference speed.

On a host whose cores are shared, the same work can take from one to two
times as long from one second to the next.  A Sampler times a fixed
calibration chunk every SAMPLE_EVERY_S seconds from a SIGALRM handler, on
the CPU and during the seconds where the child's own work runs.  A time t
measured in the child, less the time the chunks took, is reported as
t * REFERENCE_CHUNK_S / (mean chunk time): the time it would take at the
speed where the chunk takes REFERENCE_CHUNK_S.
"""

from __future__ import annotations

import gc
import signal
import time

CHUNK_ROUNDS = 10_000
SAMPLE_EVERY_S = 0.1
REFERENCE_CHUNK_S = 0.004  # the chunk's time at the reference speed


def calibration_chunk(rounds: int = CHUNK_ROUNDS) -> float:
    """Seconds a fixed loop of dict and integer work takes now.

    The loop allocates nothing the garbage collector tracks, and the collector
    is off while it runs, so the size of the process's heap does not enter
    the time; its table is small, so neither does much of the cache state.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(rounds):
        key = i & 1023
        table[key] = table.get(key, 0) + i * i
        acc += (i * 12345678901234567) // 97
    dt = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return dt


class Sampler:
    """Times the calibration chunk when started, every SAMPLE_EVERY_S seconds
    and when stopped; paused_s is the time all chunks so far took."""

    def __init__(self):
        self.chunks: list[float] = []
        self.paused_s = 0.0

    def _sample(self, *_):
        dt = calibration_chunk()
        self.chunks.append(dt)
        self.paused_s += dt

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> dict:
        """Stop sampling: {"paused_s", "factor"}, where factor scales a time
        measured in this process to the reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        mean = sum(self.chunks) / len(self.chunks)
        return {"paused_s": self.paused_s, "factor": REFERENCE_CHUNK_S / mean}
