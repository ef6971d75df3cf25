"""Blocked self k-NN through the argkmin engine, against the one builder.

Step 1 has one builder (:meth:`MaterializationDB.materialize`, the
per-object query loop). The chunked argkmin engine stays the index's
batch-query API; these tests pin that its blocked whole-dataset self
k-NN (:func:`repro.index.argkmin_self`), packed into the same
:class:`NeighborhoodGraph`, answers like the builder's rows.
"""

import time

import numpy as np
import pytest

from repro import lof_scores, materialize, obs
from repro.core import MaterializationDB, NeighborhoodGraph
from repro.exceptions import ValidationError
from repro.index import argkmin_self


def blocked_db(X, k, **argkmin_kw):
    """M built from one argkmin_self call instead of the query loop."""
    graph = NeighborhoodGraph.from_csr_blocks([argkmin_self(X, k, **argkmin_kw)], k)
    return MaterializationDB.from_graph(graph)


class TestEquivalence:
    def test_identical_neighbor_sets(self, random_points):
        fast = blocked_db(random_points, 10)
        standard = materialize(random_points, 10)
        np.testing.assert_array_equal(fast.padded_ids, standard.padded_ids)
        # Distances agree to within a few ulps (the tile kernel uses the
        # expanded-form BLAS computation).
        np.testing.assert_allclose(
            fast.padded_dists, standard.padded_dists, rtol=1e-9
        )

    def test_lof_identical(self, random_points):
        np.testing.assert_allclose(
            blocked_db(random_points, 8).lof(8),
            lof_scores(random_points, 8),
            rtol=1e-15,
        )

    def test_block_size_irrelevant(self, random_points):
        for bs in (1, 7, 64, 10_000):
            mat = blocked_db(random_points, 6, x_chunk=bs)
            np.testing.assert_allclose(
                mat.lof(6), lof_scores(random_points, 6), rtol=1e-12
            )

    def test_tie_semantics_preserved(self, tie_ring):
        mat = blocked_db(tie_ring, 4)
        ids, dists = mat.neighborhood_of(0, 4)
        assert len(ids) == 6
        np.testing.assert_allclose(dists, [1, 2, 2, 3, 3, 3])

    def test_manhattan_metric(self, random_points):
        fast = blocked_db(random_points, 5, metric="manhattan").lof(5)
        standard = lof_scores(random_points, 5, metric="manhattan")
        np.testing.assert_allclose(fast, standard, rtol=1e-12)


class TestPerformance:
    """Counter-based cost assertions (exact, deterministic).

    The paper's claim is about *work*, so we assert on repro.obs
    distance-kernel counters; a timing check survives only as the
    opt-in slow test below.
    """

    def test_faster_than_query_loop(self):
        # "Faster" measured as Python-level distance-kernel invocations:
        # the blocked engine issues ceil(n / x_chunk) tile calls, the
        # query loop one pairwise_to_point call per object.
        X = np.random.default_rng(0).normal(size=(1500, 3))
        with obs.collect() as fast:
            argkmin_self(X, 20, x_chunk=512)
        with obs.collect() as loop:
            materialize(X, 20)
        fast_calls = fast["counters"]["distance.kernel_calls"]
        loop_calls = loop["counters"]["distance.kernel_calls"]
        assert fast_calls * 10 <= loop_calls  # acceptance bound: >= 10x
        # Exact expectations, not just the ratio: ceil(1500/512) blocks
        # versus one k-NN query (= one kernel call) per object.
        assert fast_calls == 3
        assert fast["counters"]["argkmin.tiles"] == 3
        assert loop_calls == 1500
        assert loop["counters"]["knn.queries"] == 1500
        # Both paths compute the same number of scalar distances.
        assert (
            fast["counters"]["distance.evaluations"]
            == loop["counters"]["distance.evaluations"]
            == 1500 * 1500
        )

    @pytest.mark.slow
    def test_faster_than_query_loop_wallclock(self):
        # Opt-in (pytest -m slow): timing on shared CI boxes is jitter.
        X = np.random.default_rng(0).normal(size=(1500, 3))
        argkmin_self(X, 20, x_chunk=512)  # warm the BLAS/numpy paths
        t0 = time.monotonic()
        argkmin_self(X, 20, x_chunk=512)
        t_fast = time.monotonic() - t0
        t0 = time.monotonic()
        materialize(X, 20)
        t_loop = time.monotonic() - t0
        assert t_fast < t_loop  # typically 10-50x, assert conservatively


class TestValidation:
    def test_bad_block_size(self, random_points):
        with pytest.raises(ValidationError):
            argkmin_self(random_points, 5, x_chunk=0)

    def test_min_pts_bounds(self, random_points):
        with pytest.raises(ValidationError):
            argkmin_self(random_points, len(random_points))
