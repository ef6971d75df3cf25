"""The blocked argkmin self k-NN, and stability.

Not paper artifacts — library engineering benches:

* the BLAS-blocked argkmin engine (the brute backend's batch-query API)
  vs the per-object query loop that builds the neighborhood graph;
* ranking stability under MinPts choice and subsampling (quantifying
  why Section 6.2's range heuristic matters in practice).
"""

import time

import numpy as np
import pytest

from repro.analysis import min_pts_stability, subsample_stability
from repro.core import NeighborhoodGraph
from repro.datasets import make_fig8_dataset, make_performance_dataset
from repro.index import argkmin_self

from conftest import report, run_once


def test_blocked_materialization_speedup(benchmark):
    X = make_performance_dataset(2500, dim=4, seed=0)

    def run_fast():
        return argkmin_self(X, 30, x_chunk=512)

    t0 = time.perf_counter()
    loop_graph = NeighborhoodGraph.from_index(X, 30)
    t_loop = time.perf_counter() - t0
    ids, _, counts = run_once(benchmark, run_fast)
    np.testing.assert_array_equal(counts, loop_graph.row_lengths)
    np.testing.assert_array_equal(ids, loop_graph.padded_ids[loop_graph.padded_ids >= 0])
    report(
        "Blocked argkmin self k-NN (n=2500, d=4, k=30)",
        [f"query-loop graph build: {t_loop:.2f}s; blocked engine benchmarked "
         f"above (identical neighborhoods)"],
    )


def test_minpts_stability_quantified(benchmark):
    """Single-MinPts rankings vs the range heuristic: stable on simple
    data, unstable on multi-scale data — the quantitative argument for
    Section 6.2."""
    simple = np.vstack(
        [np.random.default_rng(0).normal(size=(200, 2)), [[9.0, 9.0]]]
    )
    multiscale = make_fig8_dataset(seed=0).X

    def run():
        return (
            min_pts_stability(simple, 10, 30, k=1),
            min_pts_stability(multiscale, 10, 50, k=10),
        )

    simple_rep, multi_rep = run_once(benchmark, run)
    report(
        "MinPts stability (top-k Jaccard vs the max-aggregated ranking)",
        [
            f"simple data, k=1:     mean={simple_rep.mean:.2f} worst={simple_rep.worst:.2f}",
            f"figure-8 data, k=10:  mean={multi_rep.mean:.2f} worst={multi_rep.worst:.2f}",
        ],
    )
    assert simple_rep.worst == 1.0
    assert multi_rep.worst < 0.5


def test_subsample_stability(benchmark):
    X = np.vstack(
        [np.random.default_rng(1).normal(size=(300, 2)),
         [[8.0, 8.0], [-7.0, 7.0], [0.0, -9.0]]]
    )
    rep = run_once(
        benchmark, subsample_stability, X, 10, 3, 0.9, 8
    )
    report(
        "Subsample stability (top-3, 90% subsamples, 8 trials)",
        [f"mean top-k persistence: {rep.mean:.2f} (worst {rep.worst:.2f})"],
    )
    assert rep.mean > 0.6
