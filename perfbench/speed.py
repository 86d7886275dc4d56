"""Machine-speed probe, so that times can be reported at a fixed speed.

On a shared host the same Python code runs up to twice as slow for stretches
of seconds to minutes, because of other tenants on the same cores; process
CPU time slows down with it. `SpeedProbe` samples the current speed every
INTERVAL_S seconds by timing a fixed pure-Python kernel (no `zqforce` code,
so a change to the package cannot move it) from a SIGALRM handler, which
runs between bytecodes of the measured code in the same thread.
`scaled_seconds` turns a wall-clock interval into seconds at the reference
speed: the interval with the probe's own time removed, times the mean of
REFERENCE_S / kernel time over the samples taken during it.
"""

from __future__ import annotations

import random
import signal
import time
from collections import deque

INTERVAL_S = 0.1
# Kernel time at the reference speed, about its median on a 2-vCPU Intel
# Xeon host. Reported seconds are seconds at this speed.
REFERENCE_S = 0.001
_NEAREST = 9  # samples used for an interval too short to contain that many


def _make_kernel():
    rng = random.Random(12345)
    n = 600
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        adj[u].append(v)
        adj[v].append(u)
    words = [(x * 2654435761) & 0xFFFF for x in range(800)]

    def kernel():
        total = 0
        for src in (0, 17):
            dist = {src: 0}
            queue = deque((src,))
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            total += sum(dist.values())
        text = "\n".join(f"{a} {b}" for a, b in zip(words, sorted(words)))
        total += sum(int(line.split()[1]) for line in text.splitlines())
        return total

    return kernel


class SpeedProbe:
    """Context manager that samples (start time, kernel seconds) while active."""

    def __init__(self):
        self.samples = []
        self._kernel = _make_kernel()
        self._previous = None

    def sample(self):
        start = time.monotonic()
        self._kernel()
        self.samples.append((start, time.monotonic() - start))

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False


def scaled_seconds(start: float, end: float, samples) -> float:
    """Seconds the interval [start, end] would take at the reference speed."""
    inside = [(t, d) for t, d in samples if start <= t < end]
    probe_time = sum(d for _, d in inside)
    if len(inside) < _NEAREST:
        middle = (start + end) / 2
        inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:_NEAREST]
    speed = sum(REFERENCE_S / d for _, d in inside) / len(inside)
    return (end - start - probe_time) * speed
