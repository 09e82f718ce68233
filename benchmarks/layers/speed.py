"""Machine-speed calibration: every time the benchmark reports is scaled
to a reference speed.

The machines this benchmark runs on are shared, and their speed drifts:
a CPU-bound loop that takes 0.8 ms takes 1.5 ms a moment later, and
stretches of such slowdowns last from a tenth of a second to tens of
minutes.  The drift is per vCPU: on a 2-vCPU machine the two vCPUs'
speeds, sampled side by side every quarter second for 20 s, correlated
-0.06.  Two sets of ten runs of one commit, half an hour apart, had
medians up to 45% apart.  So the benchmark times a fixed pure-Python
loop (:func:`probe`, about 1 ms of CPU time on an idle machine) on the
vCPUs doing the work — just before each set-up, every :data:`EVERY_S`
seconds between timed ops, or from a background :class:`Sampler` — and
reports a time ``t`` measured while the loop took ``c`` as
``t × REFERENCE_S / c``: the time the op would have taken on a machine
running the loop in :data:`REFERENCE_S`.

A change to the program moves the program's times and not the loop's,
so it moves the reported times in full; a slow stretch of the machine
moves both, and cancels.  The loop hashes tuples, updates a dict and
sorts, like the fingerprint and memo layers.  The unscaled numbers are
reported next to the scaled ones under ``raw``.

Which vCPUs do the work: a single-threaded workload is pinned to the
first vCPU it may use (:func:`cpus_of`); serve pins the server to the
second and the load generator to the first, and is scaled by the
server's; the sweep's pool workers float over all of them.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from typing import Iterable, List

#: What one :func:`probe` loop takes on the reference machine (about an
#: idle 2-vCPU Xeon virtual machine running Python 3.11), in seconds.
REFERENCE_S = 1.0e-3
#: Loop iterations per probe, and probes per sample (the median counts).
PROBE_STEPS = 2600
PROBE_REPS = 5
#: Seconds of timed ops between two samples.
EVERY_S = 0.2
#: Seconds between two samples of a :class:`Sampler`.
BACKGROUND_EVERY_S = 0.1
#: Workloads whose work runs on every vCPU (serve: server and load
#: generator; the sweep: pool workers); the others use the first only.
SPREAD = ("serve-mixed", "sweep-hom")


def available() -> List[int]:
    """The vCPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def cpus_of(workload: str) -> List[int]:
    """The vCPUs ``workload`` runs on."""
    cpus = available()
    return cpus if workload in SPREAD else cpus[:1]


def probe() -> object:
    """The fixed calibration work."""
    table = {}
    acc = 0
    for i in range(PROBE_STEPS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(key)
    return acc, sorted(table.items())


def probe_times(cpus: Iterable[int], reps: int) -> float:
    """Mean over ``cpus`` of the median CPU time of ``reps`` probes on
    each, taken by moving the calling thread onto each in turn (its
    affinity is restored).  CPU time, not wall time, so a probe that
    shares its vCPU with busy work still measures the vCPU's speed."""
    saved = os.sched_getaffinity(0)
    times: List[float] = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            runs = []
            for _ in range(reps):
                start = time.thread_time()
                probe()
                runs.append(time.thread_time() - start)
            times.append(statistics.median(runs))
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.mean(times)


def sample(cpus: Iterable[int]) -> float:
    """One speed sample of ``cpus``: :data:`PROBE_REPS` probes on each,
    with the garbage collector kept out of them."""
    gc.disable()
    try:
        return probe_times(cpus, PROBE_REPS)
    finally:
        gc.enable()


class Sampler:
    """Samples the speed of ``cpus`` from a background thread, one probe
    per vCPU every :data:`BACKGROUND_EVERY_S` seconds, while the work
    runs in other processes on those vCPUs (the sweep's pool workers).
    In a test over ten seeds, samples taken only between the sweep's
    rounds, 1-2 s apart, left its ``ops_per_s`` spread at 0.092 of the
    median (0.078 unscaled); these brought it to 0.063.  Use as a
    context manager."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = list(cpus)
        self._samples: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(BACKGROUND_EVERY_S):
            value = probe_times(self.cpus, 1)
            with self._lock:
                self._samples.append(value)

    def drain(self) -> float:
        """The mean sample since the last drain (a fresh sample if none
        was taken)."""
        with self._lock:
            samples, self._samples = self._samples, []
        return statistics.mean(samples) if samples else sample(self.cpus)


def factor(*samples: float) -> float:
    """Scale from measured to reference time, for a stretch that the
    given samples (taken at its ends) bracket."""
    return REFERENCE_S / statistics.mean(samples)
