"""Seeded inputs of the three workloads.

Everything the program receives is generated here from ``--seed``: the
same seed gives the same datasets, query points and request bodies.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

#: fit-lowd: the paper's Section 7.4 Gaussian mixture, d=3. n is sized
#: so a default fit takes about 5 s on one core: three fresh-process
#: fits fill a 20 s run.
LOWD_N, LOWD_D = 12_000, 3

#: serve-sweep: stored points and the pool of fresh query points drawn
#: from the same mixture. n is sized so three set-ups (fit, save, start
#: the server) stay under 20 s.
SWEEP_N, SWEEP_D, SWEEP_QUERIES = 8_000, 8, 6_000

#: serve-stream: the regime-0 sample the initial store is fitted on
#: (large enough that its set-up fit, reported as fit_s, is not a
#: sub-second blip), and
#: the replayed stream: regime-0 points sent during set-up (the first
#: drift check, which seeds the drift reference, happens among them),
#: regime-0 points that fill the window before the timed replay, the
#: timed regime-0 and regime-1 points, then more regime 1 for the
#: saturation bursts. Regime 1 holds STREAM_REGIME1 + STREAM_TAIL points.
STREAM_FIT_N, STREAM_D = 4_000, 3
STREAM_WARM, STREAM_FILL, STREAM_REGIME0 = 32, 160, 64
STREAM_REGIME1, STREAM_TAIL = 176, 2_936

MIN_PTS = (10, 30)


def make_dataset(kind: str, seed: int) -> np.ndarray:
    """The dataset a workload fits its model on."""
    from repro.datasets import make_drifting_stream, make_performance_dataset

    if kind == "lowd":
        return make_performance_dataset(LOWD_N, LOWD_D, seed=seed)
    if kind == "stream":
        rng = np.random.default_rng([seed, 1])
        return make_drifting_stream(
            n_each=STREAM_FIT_N, d=STREAM_D, n_regimes=1, seed=rng
        ).points
    raise ValueError(f"unknown dataset kind {kind!r}")


def sweep_points(seed: int) -> np.ndarray:
    """Stored points followed by query points, one mixture draw."""
    from repro.datasets import make_performance_dataset

    return make_performance_dataset(SWEEP_N + SWEEP_QUERIES, SWEEP_D, seed=seed)


class SweepMix:
    """The serve-sweep request mix, as lists of points.

    A fixed cycle of eight requests: five carry one fresh point, two
    re-send one of the last 16 fresh single points (so the LRU cache
    answers them), and one carries 16 fresh points. The cycle is fixed
    and only the coordinates depend on the seed, so the share of heavy
    requests is the same in every run. Successive :meth:`take` calls
    continue the same sequence of fresh points.
    """

    def __init__(self, seed: int):
        self.pool = sweep_points(seed)[SWEEP_N:]
        self.rng = np.random.default_rng([seed, 2])
        self.cursor = 0
        self.index = 0
        self.recent: List[list] = []

    def take(self, count: int) -> List[list]:
        out: List[list] = []
        for _ in range(count):
            slot = self.index % 8
            self.index += 1
            if slot in (1, 5) and self.recent:
                pick = int(self.rng.integers(len(self.recent)))
                out.append([self.recent[pick]])
                continue
            m = 16 if slot == 7 else 1
            pts = [
                self.pool[(self.cursor + j) % len(self.pool)].tolist()
                for j in range(m)
            ]
            self.cursor = (self.cursor + m) % len(self.pool)
            if m == 1:
                self.recent = (self.recent + pts)[-16:]
            out.append(pts)
        return out


def stream_points(seed: int) -> np.ndarray:
    """The replayed stream: warm-up, fill and timed regime 0, regime 1,
    then the regime-1 tail the saturation bursts send."""
    from repro.datasets import make_drifting_stream

    rng = np.random.default_rng([seed, 3])
    n_each = STREAM_REGIME1 + STREAM_TAIL
    s = make_drifting_stream(n_each=n_each, d=STREAM_D, n_regimes=2, seed=rng)
    n0 = STREAM_WARM + STREAM_FILL + STREAM_REGIME0
    return np.vstack([s.points[:n0], s.points[n_each:]])


def body(points: list, min_pts=None) -> bytes:
    payload = {"points": points}
    if min_pts is not None:
        payload["min_pts"] = min_pts
    return json.dumps(payload).encode("utf-8")
