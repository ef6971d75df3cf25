#!/usr/bin/env python
"""Benchmark harness for the step-1 materialization builder.

Times :func:`repro.core.materialize` — one ``query_with_ties`` per
object through the index front door, the paper's literal step 1 and the
package's one builder — over a grid of dataset sizes and ``n_jobs``
worker counts, and emits a machine-readable ``BENCH_materialize.json``.

Every run records wall-clock seconds and the process peak RSS
(``resource.getrusage`` — the OS high-water mark, monotone across the
rows of one harness invocation; context, *never* asserted) next to the
deterministic :mod:`repro.obs` counters and span timers (the actual
contract: ``distance.kernel_calls``, ``distance.evaluations``,
``knn.queries``, ``graph.builds``). A ``derived`` section reports, per
size, the wall-clock speedup of each ``n_jobs`` value over the serial
run, so the fork pool's effect is a recorded number instead of raw-row
archaeology.

Usage::

    PYTHONPATH=src python benchmarks/bench_materialize.py \
        --sizes 500 1000 2000 --n-jobs 1 2 --out BENCH_materialize.json

    # CI schema check of an emitted file:
    python benchmarks/bench_materialize.py --validate BENCH_materialize.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time

import numpy as np

SCHEMA = "repro.bench.materialize/v3"

#: required keys (and types) of every result record — the CI smoke job
#: validates emitted files against this. v3 drops v2's ``path`` and
#: ``block_size``: there is one builder.
RESULT_FIELDS = {
    "n": int,
    "dim": int,
    "min_pts_ub": int,
    "index": str,
    "n_jobs": int,
    "wall_s": float,
    "peak_rss_kb": int,
    "counters": dict,
    "timers": dict,
}


def _run_one(X, ub, n_jobs, index_name):
    from repro import obs
    from repro.core import materialize

    t0 = time.perf_counter()
    with obs.collect() as snap:
        db = materialize(X, ub, index=index_name, n_jobs=n_jobs)
    wall = time.perf_counter() - t0
    # Process high-water RSS (KB on Linux): monotone within one harness
    # invocation, so the value after a run bounds that run's footprint.
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    assert db.n_points == X.shape[0]
    return wall, peak_rss_kb, snap["counters"], snap["timers"]


def run(args) -> dict:
    results = []
    for n in args.sizes:
        X = np.random.default_rng(args.seed).normal(size=(n, args.dim))
        ub = min(args.min_pts_ub, n - 1)
        for n_jobs in args.n_jobs:
            wall, peak_rss_kb, counters, timers = _run_one(X, ub, n_jobs, args.index)
            results.append(
                {
                    "n": n,
                    "dim": args.dim,
                    "min_pts_ub": ub,
                    "index": args.index,
                    "n_jobs": n_jobs,
                    "wall_s": round(wall, 6),
                    "peak_rss_kb": peak_rss_kb,
                    "counters": counters,
                    "timers": {
                        name: {
                            "count": rec["count"],
                            "total_s": round(rec["total_s"], 6),
                        }
                        for name, rec in timers.items()
                    },
                }
            )
            print(
                f"n={n:>6} n_jobs={n_jobs} wall={wall:8.4f}s "
                f"peak_rss={peak_rss_kb / 1024:7.1f}MB "
                f"kernel_calls={counters.get('distance.kernel_calls', 0)}",
                file=sys.stderr,
            )

    speedups = {}
    for n in args.sizes:
        rows = {r["n_jobs"]: r["wall_s"] for r in results if r["n"] == n}
        serial = rows.get(1)
        if serial:
            speedups[str(n)] = {
                str(jobs): round(serial / wall, 3)
                for jobs, wall in rows.items() if jobs != 1 and wall
            }

    return {
        "schema": SCHEMA,
        "config": {
            "sizes": args.sizes,
            "dim": args.dim,
            "min_pts_ub": args.min_pts_ub,
            "n_jobs": args.n_jobs,
            "index": args.index,
            "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "derived": {"n_jobs_speedup_vs_serial": speedups},
    }


def validate(payload) -> list:
    """Return a list of schema problems (empty == valid)."""
    problems = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    for section in ("config", "environment", "derived"):
        if not isinstance(payload.get(section), dict):
            problems.append(f"missing or non-dict section {section!r}")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
        return problems
    for i, record in enumerate(results):
        for field, typ in RESULT_FIELDS.items():
            value = record.get(field)
            ok = isinstance(value, typ) and not (
                typ in (int, float) and isinstance(value, bool)
            )
            if typ is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not ok:
                problems.append(
                    f"results[{i}].{field} must be {typ.__name__}, got {value!r}"
                )
        counters = record.get("counters")
        if isinstance(counters, dict) and not all(
            isinstance(v, int) for v in counters.values()
        ):
            problems.append(f"results[{i}].counters values must be integers")
        rss = record.get("peak_rss_kb")
        if isinstance(rss, int) and rss <= 0:
            problems.append(f"results[{i}].peak_rss_kb must be positive")
        timers = record.get("timers")
        if isinstance(timers, dict) and not all(
            isinstance(v, dict) and {"count", "total_s"} <= set(v)
            for v in timers.values()
        ):
            problems.append(
                f"results[{i}].timers values must be "
                "{{'count': int, 'total_s': float}} records"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", type=int, default=[500, 1000, 2000])
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--min-pts-ub", type=int, default=20)
    parser.add_argument(
        "--n-jobs", nargs="+", type=int, default=[1, 2],
        help="worker counts to sweep (the builder runs once per value)",
    )
    parser.add_argument("--index", default="brute")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_materialize.json")
    parser.add_argument(
        "--validate", metavar="PATH", default=None,
        help="validate an emitted JSON file against the schema and exit",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate:
        with open(args.validate) as fh:
            payload = json.load(fh)
        problems = validate(payload)
        for problem in problems:
            print(f"schema error: {problem}", file=sys.stderr)
        print(
            f"{args.validate}: "
            + ("INVALID" if problems else f"valid ({len(payload['results'])} records)")
        )
        return 1 if problems else 0

    payload = run(args)
    problems = validate(payload)
    if problems:  # the harness must never emit what its own check rejects
        for problem in problems:
            print(f"internal schema error: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(payload['results'])} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
