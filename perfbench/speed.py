"""Host-speed probe: end-to-end times in reference-speed seconds.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent over seconds to minutes, with other tenants' load. Every
program process slows down with it, so a raw wall time measures the
neighbours as much as the program. A probe process runs beside the
workload for the whole run: every ``INTERVAL_S`` it times one pass of a
fixed kernel (an interpreted loop, then a numpy distance block and
partial sort, the two kinds of work the program does; about a
millisecond in all, so it takes ~4% of one core) and appends
``start duration`` to a file, on the same monotonic clock as every
other timestamp of the run.

The host's slowness over an interval is the median probe pass in it,
widened by ``PAD_S`` on both sides, divided by ``REF_PASS_S``, the
typical pass on the reference box (2-core Intel Xeon VM). A
time measured over that interval is reported divided by the slowness,
as the time it would have taken on the reference box at its quiet
speed; a rate is multiplied by it. A change to the program moves the
measured time and not the probe, so it moves the reported time by the
same share.

An idle virtual CPU halts, and waking it goes through the host's
scheduler: on a busy host that adds milliseconds to every hand-off a
request makes between threads and processes, an amount that tracks
neither the program nor the probe. For the whole run, :class:`NoIdle`
keeps every CPU busy with a process of the lowest scheduling class,
which the kernel preempts as soon as anything else is runnable; the
CPUs then never halt and a hand-off costs what it costs on a
dedicated machine.

    python3 perfbench/speed.py OUT       # probe until SIGTERM
    python3 perfbench/speed.py --spin N  # keep CPU N busy until SIGTERM
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: A typical probe pass on the reference box.
REF_PASS_S = 1.5e-3
INTERVAL_S = 0.025
PAD_S = 1.0
_LOOPS = 10_000


def _kernel(X, Q) -> None:
    s = 0
    for i in range(_LOOPS):
        s += i * i
    d = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
    d.argpartition(20, axis=1)


def probe(out: Path) -> None:
    """Time one kernel pass every INTERVAL_S until SIGTERM or until the
    parent process is gone."""
    import numpy as np

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    rng = np.random.default_rng(0)
    X, Q = rng.random((4000, 8)), rng.random((4, 8))
    with open(out, "w", buffering=1) as fh:
        while os.getppid() == parent:
            t0 = time.perf_counter()
            _kernel(X, Q)
            fh.write(f"{t0:.6f} {time.perf_counter() - t0:.9f}\n")
            time.sleep(INTERVAL_S)


class SpeedProbe:
    """The probe process of one run, and the slowness it measured."""

    def __init__(self, path: Path):
        self.path = path
        self.proc: Optional[subprocess.Popen] = None
        self._t: List[float] = []
        self._d: List[float] = []
        self._read_at = float("-inf")

    def __enter__(self) -> "SpeedProbe":
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def _read(self) -> None:
        self._read_at = time.perf_counter()
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            lines = []
        pairs = [line.split() for line in lines]
        pairs = [(float(p[0]), float(p[1])) for p in pairs if len(p) == 2]
        self._t = [t for t, _ in pairs]
        self._d = [d for _, d in pairs]

    def slowness(self, start: float, end: float) -> float:
        """Median probe pass within ``PAD_S`` of [start, end], over the
        reference pass: 2.0 means the host ran at half its quiet speed."""
        if ((not self._t or self._t[-1] < end + PAD_S)
                and time.perf_counter() - self._read_at > INTERVAL_S):
            self._read()
        lo = bisect.bisect_left(self._t, start - PAD_S)
        hi = bisect.bisect_right(self._t, end + PAD_S)
        if hi - lo < 5:
            raise RuntimeError(f"only {hi - lo} speed probes around "
                               f"[{start:.3f}, {end:.3f}]")
        return statistics.median(self._d[lo:hi]) / REF_PASS_S

    def seconds(self, elapsed: float, start: float, end: float) -> float:
        """``elapsed``, measured over [start, end], in reference seconds."""
        return elapsed / self.slowness(start, end)


def spin(cpu: int) -> None:
    """Busy-loop on ``cpu`` in SCHED_IDLE until SIGTERM or until the
    parent process is gone."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while os.getppid() == parent:
        for _ in range(1_000_000):
            pass


class NoIdle:
    """One :func:`spin` process per CPU this process may use, while open."""

    def __enter__(self) -> "NoIdle":
        self.procs = [subprocess.Popen([sys.executable, __file__, "--spin", str(cpu)])
                      for cpu in sorted(os.sched_getaffinity(0))]
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()


if __name__ == "__main__":
    if sys.argv[1] == "--spin":
        spin(int(sys.argv[2]))
    else:
        probe(Path(sys.argv[1]))
