"""Cross-backend equivalence, asserted alongside populated counters.

Two families of checks:

* the blocked ``argkmin_self`` engine (the brute backend's batch-query
  API) vs the per-object query loop: identical neighbor sets and
  distances for every metric and for degenerate block sizes
  (1, n-1, n, 2n);
* every registered index backend returns the same k-NN result as the
  brute-force oracle on a tied/duplicated dataset, while its query
  counters (per-index stats and the global repro.obs registry) fill in.
"""

import numpy as np
import pytest

from repro import materialize, obs
from repro.core import MaterializationDB, NeighborhoodGraph
from repro.index import argkmin_self, available_indexes, make_index

METRICS = ("euclidean", "manhattan", "chebyshev")


def argkmin_db(X, k, **argkmin_kw):
    """M from one whole-dataset ``argkmin_self`` call."""
    graph = NeighborhoodGraph.from_csr_blocks([argkmin_self(X, k, **argkmin_kw)], k)
    return MaterializationDB.from_graph(graph)


@pytest.fixture(scope="module")
def small_points():
    rng = np.random.default_rng(321)
    return rng.normal(size=(60, 3))


@pytest.fixture(scope="module")
def tied_points():
    """Clustered data with exact duplicates and co-linear ties: the
    worst case for tie-breaking, where deterministic (distance, id)
    order is the only thing keeping backends in agreement."""
    rng = np.random.default_rng(11)
    base = np.vstack(
        [
            rng.normal(size=(25, 2)),
            np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        ]
    )
    # Triplicate five rows: MinPts-fold duplicates with distance-0 ties.
    return np.vstack([base, base[:5], base[:5]])


class TestFastPathEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("block_size_kind", ["one", "n-1", "n", "2n"])
    def test_identical_to_query_loop(self, small_points, metric, block_size_kind):
        n = len(small_points)
        block_size = {"one": 1, "n-1": n - 1, "n": n, "2n": 2 * n}[block_size_kind]
        standard = materialize(small_points, 7, metric=metric)
        with obs.collect() as snap:
            fast = argkmin_db(small_points, 7, metric=metric, x_chunk=block_size)
        np.testing.assert_array_equal(fast.padded_ids, standard.padded_ids)
        np.testing.assert_allclose(
            fast.padded_dists, standard.padded_dists, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(fast.lof(7), standard.lof(7), rtol=1e-9)
        # The block counter reflects the requested granularity exactly.
        expected_blocks = -(-n // block_size)  # ceil
        assert snap["counters"]["argkmin.tiles"] == expected_blocks
        assert snap["counters"]["distance.kernel_calls"] == expected_blocks

    def test_duplicates_identical_to_query_loop(self, tied_points):
        fast = argkmin_db(tied_points, 6)
        standard = materialize(tied_points, 6)
        np.testing.assert_array_equal(fast.padded_ids, standard.padded_ids)
        np.testing.assert_allclose(
            fast.padded_dists, standard.padded_dists, rtol=1e-9, atol=1e-12
        )


@pytest.mark.parametrize("name", sorted(available_indexes()))
class TestBackendsAgreeOnTies:
    def test_knn_matches_brute_with_counters(self, tied_points, name):
        brute = make_index("brute").fit(tied_points)
        idx = make_index(name).fit(tied_points)
        idx.stats.reset()
        with obs.collect() as snap:
            for i in (0, 5, 17, 25, len(tied_points) - 1):
                for k in (1, 4, 9):
                    a = brute.query(tied_points[i], k, exclude=i)
                    b = idx.query(tied_points[i], k, exclude=i)
                    np.testing.assert_array_equal(
                        b.ids, a.ids, err_msg=f"{name} k={k} i={i}"
                    )
                    np.testing.assert_allclose(
                        b.distances, a.distances, rtol=1e-12, atol=1e-12
                    )
        # The query path was really instrumented: per-index stats and the
        # global registry both saw the traffic.
        assert idx.stats.queries == 15
        assert snap["counters"]["knn.queries"] == 30  # brute + idx
        assert snap["counters"]["distance.kernel_calls"] > 0
        assert snap["counters"]["distance.evaluations"] > 0

    def test_tie_inclusive_neighborhoods_match_brute(self, tied_points, name):
        brute = make_index("brute").fit(tied_points)
        idx = make_index(name).fit(tied_points)
        for i in (0, 30, 36):  # rows with exact duplicates
            a = brute.query_with_ties(tied_points[i], 3, exclude=i)
            b = idx.query_with_ties(tied_points[i], 3, exclude=i)
            np.testing.assert_array_equal(b.ids, a.ids, err_msg=name)
            np.testing.assert_allclose(b.distances, a.distances, atol=1e-12)

    def test_materialization_identical_across_backends(self, tied_points, name):
        reference = materialize(tied_points, 5, index="brute")
        with obs.collect() as snap:
            mat = materialize(tied_points, 5, index=name)
        np.testing.assert_array_equal(mat.padded_ids, reference.padded_ids)
        np.testing.assert_allclose(
            mat.padded_dists, reference.padded_dists, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(mat.lof(5), reference.lof(5), rtol=1e-9)
        assert snap["counters"]["knn.queries"] >= len(tied_points)
