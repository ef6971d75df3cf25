"""One fit in a fresh process: ``fit X.npy OUT.rlof``.

Loads ``X``, runs ``LocalOutlierFactor(min_pts=(10, 30)).fit(X)`` with
every other setting at its default, then ``.save(OUT)``, and prints one
JSON line: the wall time of fit plus save, its start and end on the
shared monotonic clock, and this process's resident-set high-water
mark. Running each fit in its own process keeps that high-water mark
the fit's own.

``gen KIND SEED OUT.npy`` writes a workload's dataset instead (see
``inputs.make_dataset``); it is the fit-lowd set-up step.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fit(x_path: str, out_path: str) -> dict:
    import numpy as np

    from inputs import MIN_PTS
    from repro import LocalOutlierFactor

    X = np.load(x_path)
    t0 = time.perf_counter()
    est = LocalOutlierFactor(min_pts=MIN_PTS).fit(X)
    est.save(out_path)
    t1 = time.perf_counter()
    return {"fit_s": t1 - t0, "t0": t0, "t1": t1, "peak_rss_mb": _peak_rss_mb()}


def main(argv) -> int:
    if argv[0] == "fit":
        print(json.dumps(fit(argv[1], argv[2])), flush=True)
        return 0
    if argv[0] == "gen":
        import numpy as np

        from inputs import make_dataset

        np.save(argv[3], make_dataset(argv[1], int(argv[2])))
        return 0
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
