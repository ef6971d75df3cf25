"""Parallel equivalence of the one builder, and the batch-query API.

Step 1 has one builder, the per-object query loop
(:meth:`MaterializationDB.materialize`), optionally sharded across a
process pool with ``n_jobs``. The index's batch-query API stays next to
it: ``query_batch_with_ties`` per block of rows, and the chunked argkmin
engine behind the brute backend (``argkmin_self``). Equivalence is the
contract (docs/performance.md): identical neighbor ids and (distance,
id) order everywhere; bit-identical distances within the vectorized
family and under ``n_jobs``; and a batch query on the brute backend
costs one distance-kernel invocation per block, asserted on repro.obs
counters (never the clock).
"""

import numpy as np
import pytest

from repro import materialize, obs
from repro.core import MaterializationDB, NeighborhoodGraph
from repro.core.parallel import fork_available, map_sharded, resolve_n_jobs
from repro.exceptions import ValidationError
from repro.index import argkmin_self, make_index

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture
def duplicate_heavy():
    """Clusters of exact duplicates (5 copies each) plus scatter, so
    k-distance ties and zero distances stress every selection path."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(12, 2))
    return np.vstack([np.repeat(base, 5, axis=0), rng.normal(size=(25, 2))])


def assert_same_db(a, b, exact=True):
    np.testing.assert_array_equal(a.padded_ids, b.padded_ids)
    if exact:
        np.testing.assert_array_equal(a.padded_dists, b.padded_dists)
    else:
        np.testing.assert_allclose(
            a.padded_dists, b.padded_dists, rtol=1e-9, atol=1e-7
        )


def argkmin_db(X, k, **argkmin_kw):
    """M from one whole-dataset ``argkmin_self`` call."""
    graph = NeighborhoodGraph.from_csr_blocks([argkmin_self(X, k, **argkmin_kw)], k)
    return MaterializationDB.from_graph(graph)


def batched_db(X, k, block_size, index="brute"):
    """M from one ``query_batch_with_ties`` call per block of rows."""
    idx = make_index(index).fit(X)
    n = len(X)
    blocks = [
        idx.query_batch_with_ties(
            X[s : s + block_size], k, exclude=np.arange(s, min(s + block_size, n))
        )
        for s in range(0, n, block_size)
    ]
    rows_ids = [row[row >= 0] for ids, _ in blocks for row in ids]
    rows_dists = [row[np.isfinite(row)] for _, dists in blocks for row in dists]
    return MaterializationDB.from_graph(
        NeighborhoodGraph.from_rows(rows_ids, rows_dists, k_max=k)
    )


def dataset(request_name, tie_ring, duplicate_heavy, random_points):
    return {
        "tied": tie_ring,
        "duplicates": duplicate_heavy,
        "random": random_points,
    }[request_name]


@pytest.mark.parametrize("data_name", ["tied", "duplicates", "random"])
class TestCrossPathEquivalence:
    UB = 4

    def test_fast_matches_query_loop_at_every_block_size(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        std = materialize(X, self.UB)
        for bs in (1, 7, len(X), len(X) + 13):
            fast = argkmin_db(X, self.UB, x_chunk=bs)
            # Same neighbor sets and order; distances to within ulps
            # (the tile kernel uses the expanded BLAS form).
            assert_same_db(std, fast, exact=False)

    def test_batched_bit_identical_to_fast(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        for bs in (1, 7, len(X), len(X) + 13):
            fast = argkmin_db(X, self.UB, x_chunk=bs)
            batched = batched_db(X, self.UB, block_size=bs)
            assert_same_db(fast, batched, exact=True)

    def test_batched_matches_loop_on_tree_backend(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        std = materialize(X, self.UB, index="kdtree")
        batched = batched_db(X, self.UB, block_size=7, index="kdtree")
        assert_same_db(std, batched, exact=True)

    @needs_fork
    def test_parallel_fast_bit_identical(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        serial = argkmin_db(X, self.UB, x_chunk=5, n_threads=1)
        parallel = argkmin_db(X, self.UB, x_chunk=5, n_threads=2)
        assert_same_db(serial, parallel, exact=True)

    @needs_fork
    def test_parallel_query_loop_bit_identical(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        serial = materialize(X, self.UB, n_jobs=1)
        parallel = materialize(X, self.UB, n_jobs=2)
        assert_same_db(serial, parallel, exact=True)

    def test_lof_scores_agree_across_paths(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        ref = materialize(X, self.UB).lof(self.UB)
        fast = argkmin_db(X, self.UB, x_chunk=9).lof(self.UB)
        batched = batched_db(X, self.UB, block_size=9).lof(self.UB)
        np.testing.assert_allclose(fast, ref, rtol=1e-9)
        np.testing.assert_allclose(batched, ref, rtol=1e-9)


class TestKernelCallCounters:
    def test_batched_brute_is_o_n_over_block(self, random_points):
        n = len(random_points)  # 120
        block = 32  # -> ceil(120/32) = 4 blocks
        with obs.collect() as loop:
            materialize(random_points, 5)
        with obs.collect() as batched:
            batched_db(random_points, 5, block_size=block)
        assert loop["counters"]["distance.kernel_calls"] == n
        assert batched["counters"]["distance.kernel_calls"] == 4
        assert batched["counters"]["knn.batch_queries"] == 4
        # Both issue n logical queries and compute n^2 scalar distances.
        assert (
            loop["counters"]["knn.queries"]
            == batched["counters"]["knn.queries"]
            == n
        )
        assert (
            loop["counters"]["distance.evaluations"]
            == batched["counters"]["distance.evaluations"]
            == n * n
        )

    @needs_fork
    def test_parallel_counters_match_serial(self, random_points):
        with obs.collect() as serial:
            argkmin_self(random_points, 5, x_chunk=16, n_threads=1)
        with obs.collect() as parallel:
            argkmin_self(random_points, 5, x_chunk=16, n_threads=2)
        assert serial["counters"] == parallel["counters"]

    @needs_fork
    def test_parallel_query_loop_counters_match_serial(self, random_points):
        with obs.collect() as serial:
            materialize(random_points, 5, n_jobs=1)
        with obs.collect() as parallel:
            materialize(random_points, 5, n_jobs=2)
        assert serial["counters"] == parallel["counters"]


class TestEdgeCases:
    def test_n2_ub1_every_block_size(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        std = materialize(X, 1)
        for bs in (1, 2, 5):
            fast = argkmin_db(X, 1, x_chunk=bs)
            assert_same_db(std, fast, exact=False)
            assert fast.padded_ids.tolist() == [[1], [0]]

    def test_ub_equals_n_minus_1_with_oversize_final_block(self):
        X = np.random.default_rng(5).normal(size=(7, 2))
        std = materialize(X, 6)
        for bs in (1, 3, 6, 7, 100):
            assert_same_db(std, argkmin_db(X, 6, x_chunk=bs), exact=False)
            assert_same_db(std, batched_db(X, 6, block_size=bs), exact=False)

    def test_ub_equals_n_minus_1_all_duplicates_but_one(self):
        # Zero distances at the partition boundary + the inf diagonal.
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        std = materialize(X, 3)
        for bs in (1, 2, 4, 9):
            assert_same_db(std, argkmin_db(X, 3, x_chunk=bs), exact=False)

    def test_block_size_validation_unchanged(self, random_points):
        with pytest.raises(ValidationError):
            argkmin_self(random_points, 5, x_chunk=0)
        with pytest.raises(ValidationError):
            argkmin_self(random_points, 5, y_chunk=0)


class TestNJobsResolution:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_minus_one_uses_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "2"])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValidationError):
            resolve_n_jobs(bad)

    def test_map_sharded_preserves_order(self):
        assert map_sharded(lambda x: x * x, range(7), 1) == [
            0, 1, 4, 9, 16, 25, 36
        ]

    @needs_fork
    def test_map_sharded_parallel_preserves_order(self):
        assert map_sharded(lambda x: x * x, range(7), 3) == [
            0, 1, 4, 9, 16, 25, 36
        ]


class TestLOFCache:
    def test_repeated_lof_costs_no_extra_scans(self, random_points):
        db = materialize(random_points, 8)
        with obs.collect() as snap:
            first = db.lof(5)
            second = db.lof(5)
        assert first is second
        # One lrd pass + one lof pass, counted once despite two calls.
        assert snap["counters"]["mscan.passes"] == 2

    def test_lof_range_revisit_is_free(self, random_points):
        db = materialize(random_points, 8)
        with obs.collect() as snap:
            db.lof_range(4, 6)
            db.lof_range(4, 6)
        assert snap["counters"]["mscan.passes"] == 6

    def test_distinct_ks_cached_independently(self, random_points):
        db = materialize(random_points, 8)
        a = db.lof(4)
        b = db.lof(5)
        assert a is db.lof(4)
        assert b is db.lof(5)
        assert not np.array_equal(a, b)


class TestEstimatorAndSurface:
    @needs_fork
    def test_estimator_n_jobs_identical_scores(self, random_points):
        from repro import LocalOutlierFactor

        serial = LocalOutlierFactor(min_pts=(4, 6)).fit(random_points)
        parallel = LocalOutlierFactor(min_pts=(4, 6), n_jobs=2).fit(random_points)
        np.testing.assert_array_equal(serial.scores_, parallel.scores_)


class TestForkWorkers:
    """The raw-fork primitives under the serving fleet
    (`repro.serve.run_fleet`): exit-code aggregation across long-lived
    forked workers."""

    @needs_fork
    def test_clean_workers_exit_zero(self):
        from repro.core.parallel import fork_workers, wait_workers

        pids = fork_workers(3, lambda index: 0)
        assert len(pids) == len(set(pids)) == 3
        assert wait_workers(pids) == 0

    @needs_fork
    def test_worst_exit_code_wins(self):
        from repro.core.parallel import fork_workers, wait_workers

        pids = fork_workers(3, lambda index: index)  # exits 0, 1, 2
        assert wait_workers(pids) == 2

    @needs_fork
    def test_crashed_worker_exits_nonzero(self):
        from repro.core.parallel import fork_workers, wait_workers

        def boom(index):
            raise RuntimeError("worker crash")

        assert wait_workers(fork_workers(1, boom)) == 1

    @needs_fork
    def test_signal_killed_worker_counts_shell_style(self):
        import os
        import signal
        import time

        from repro.core.parallel import fork_workers, wait_workers

        pids = fork_workers(1, lambda index: time.sleep(60) or 0)
        os.kill(pids[0], signal.SIGTERM)
        assert wait_workers(pids) == 128 + signal.SIGTERM
