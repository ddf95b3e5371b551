"""A fixed piece of work that tells how fast the box is right now.

The reference sandbox is two vCPUs of a shared host: the very same
simulator pass takes 2.7–4.6 s depending on the minute it runs in, and
medians over passes do not remove a slowdown that outlasts the run.  So
every simulator pass interleaves this kernel with the simulation — in the
marker events that already split the run into steps — and reports its
timings at the kernel's nominal speed.  Twenty back-to-back passes of one
seed spread 19.7 % raw and 5.0 % rescaled.

The kernel imports nothing from ``repro``: no change under ``src/`` can
make it faster.  It is a heap of tuples, slotted objects and a dict — the
simulator's own diet.
"""

import heapq
import os
import statistics
import time

#: Seconds one kernel call takes on the reference box at its quietest.
#: Only a scale: it makes rescaled timings read as quiet-box seconds.
NOMINAL_S = 1.6e-3


class _Cell:
    __slots__ = ("value",)


_CELLS = [_Cell() for _ in range(1024)]


def kernel(rounds=1500):
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    seen = {}
    for i in range(256):
        push(heap, (float(i), i, _CELLS[i % 1024]))
    for i in range(rounds):
        when, key, cell = pop(heap)
        cell.value = i
        seen[key & 4095] = (when, cell)
        push(heap, (when + ((key * 2654435761) % 97) * 0.01, i,
                    _CELLS[(key + i) % 1024]))


class Pace:
    """Runs the kernel on request and keeps what it cost."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        #: (start, end) of every call, for carving steps out of a run
        self.spans = []

    def mark(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.calls += 1
        self.seconds += end - start
        self.spans.append((start, end))

    def burst(self, calls):
        """``calls`` kernel runs in a row; returns their speed."""
        before = self.calls, self.seconds
        for _ in range(calls):
            self.mark()
        return speed(self.calls - before[0], self.seconds - before[1])


def speed(calls, seconds):
    """The box's speed as a share of nominal (1.0 = quiet reference box)."""
    return NOMINAL_S * calls / seconds if seconds > 0 else 1.0


# ----------------------------------------------------------------------
# waiting for a calm box

#: A 4 KiB append + fsync reads 0.5-0.9 ms on the reference disk when it
#: is calm, 2-7 ms when the host is busy; the service's work is mostly
#: such commits, so a load pass waits (a little) for calm.  A little: in a
#: busy hour the probe jumps from one 3 s sample to the next, and says
#: little about the seconds after it.
CALM_FSYNC_MS = 1.2
CALM_SPEED = 0.75
CALM_WAIT_S = 5.0


def fsync_ms_p50(path, samples=40):
    """Median latency of appending 4 KiB to ``path`` and fsyncing it."""
    block = b"\0" * 4096
    taken = []
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    try:
        for _ in range(samples):
            start = time.perf_counter()
            os.write(fd, block)
            os.fsync(fd)
            taken.append((time.perf_counter() - start) * 1e3)
            time.sleep(0.003)
    finally:
        os.close(fd)
        os.unlink(path)
    return statistics.median(taken)


def wait_for_calm(path, patience_s=CALM_WAIT_S):
    """Probe disk and CPU until both read calm or ``patience_s`` is spent
    (0: probe once, wait for nothing).

    Returns ``(fsync ms, kernel speed, seconds waited)`` of the last
    probe.  On a box that is never calm this costs ``patience_s`` per
    pass and changes nothing else.
    """
    started = time.monotonic()
    while True:
        fsync_ms = fsync_ms_p50(path)
        cpu = Pace().burst(40)
        waited = time.monotonic() - started
        if (fsync_ms <= CALM_FSYNC_MS and cpu >= CALM_SPEED) \
                or waited >= patience_s:
            return fsync_ms, cpu, waited
        time.sleep(1.0)
