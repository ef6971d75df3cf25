"""Unit tests for repro.core.graph — the shared columnar neighborhood core.

Every builder must produce the same graph, per-k views must slice it
consistently (tie semantics included), the dirty-subset protocol must
feed the scoring kernels with results bit-identical to the full pass,
and each static build must bump the ``graph.builds`` counter.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import scoring
from repro.core.graph import (
    DynamicNeighborhoodGraph,
    NeighborhoodGraph,
    NeighborhoodView,
)
from repro.exceptions import ValidationError
from repro.index import argkmin_self, argkmin_with_ties, make_index


def small_cloud(seed=0, n=30, d=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


def tied_grid():
    # Integer grid: masses of exact distance ties, exact float distances.
    return np.array(
        [[x, y] for x in range(5) for y in range(5)], dtype=np.float64
    )


class TestBuilders:
    def test_from_index_and_batched_agree(self):
        X = tied_grid()
        a = NeighborhoodGraph.from_index(X, 4)
        # The batch-query API's CSR blocks, 7 query rows at a time.
        n = len(X)
        blocks = [
            argkmin_with_ties(
                X[s : s + 7], X, 4, exclude=np.arange(s, min(s + 7, n))
            )
            for s in range(0, n, 7)
        ]
        b = NeighborhoodGraph.from_csr_blocks(blocks, 4)
        np.testing.assert_array_equal(a.padded_ids, b.padded_ids)
        np.testing.assert_array_equal(a.padded_dists, b.padded_dists)

    def test_from_rows_roundtrip(self):
        X = small_cloud()
        g = NeighborhoodGraph.from_index(X, 5)
        rows_ids = [g.padded_ids[i, : g.row_lengths[i]] for i in range(g.n_points)]
        rows_dists = [g.padded_dists[i, : g.row_lengths[i]] for i in range(g.n_points)]
        h = NeighborhoodGraph.from_rows(rows_ids, rows_dists, k_max=5)
        np.testing.assert_array_equal(g.padded_ids, h.padded_ids)
        np.testing.assert_array_equal(g.padded_dists, h.padded_dists)

    def test_from_index_accepts_fitted_instance(self):
        X = small_cloud(3)
        idx = make_index("brute").fit(X)
        g = NeighborhoodGraph.from_index(X, 4, index=idx)
        assert g.n_points == len(X)

    def test_prefitted_index_wrong_size_rejected(self):
        X = small_cloud(1)
        idx = make_index("brute").fit(X[:-2])
        with pytest.raises(ValidationError):
            NeighborhoodGraph.from_index(X, 3, index=idx)

    def test_builds_counter(self):
        obs.enable()
        obs.reset()
        X = small_cloud(2, n=20)
        NeighborhoodGraph.from_index(X, 3)
        NeighborhoodGraph.from_csr_blocks([argkmin_self(X, 3)], 3)
        assert obs.counter("graph.builds") == 2

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            NeighborhoodGraph(np.zeros((3, 2), dtype=np.int64), np.zeros((3, 3)), 2)
        with pytest.raises(ValidationError):
            NeighborhoodGraph(
                np.zeros((3, 2), dtype=np.int64), np.zeros((3, 2)), k_max=5
            )


class TestViews:
    def test_view_rows_match_per_object_queries(self):
        X = tied_grid()
        g = NeighborhoodGraph.from_index(X, 4)
        idx = make_index("brute").fit(X)
        view = g.view(3)
        assert isinstance(view, NeighborhoodView)
        for i in range(len(X)):
            hood = idx.query_with_ties(X[i], 3, exclude=i)
            ids, dists = view.row(i)
            np.testing.assert_array_equal(ids, hood.ids)
            np.testing.assert_array_equal(dists, hood.distances)

    def test_counts_at_least_k_and_ties_included(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 4)
        view = g.view(4)
        assert np.all(view.counts >= 4)
        assert np.any(view.counts > 4)  # grid ties overflow k

    def test_view_cache_and_kdist_override(self):
        g = NeighborhoodGraph.from_index(small_cloud(5), 6)
        assert g.view(4) is g.view(4)
        bigger = g.k_distances(6)
        override = g.view(4, kdist=bigger)
        assert override is not g.view(4)
        assert np.all(override.counts >= g.view(4).counts)

    def test_k_bounds_enforced(self):
        g = NeighborhoodGraph.from_index(small_cloud(6), 4)
        with pytest.raises(ValidationError):
            g.view(5)
        with pytest.raises(ValidationError):
            g.k_distances(0)


class TestDirtySubset:
    def test_pinned_subview_matches_full_view(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 5)
        full = g.view(5)
        rows = np.array([0, 7, 24, 3])
        sub = g.pin(5).subview(rows)
        np.testing.assert_array_equal(sub.row_ids, rows)
        for pos, r in enumerate(rows):
            ids_full, dists_full = full.row(int(r))
            ids_sub, dists_sub = sub.row(pos)
            np.testing.assert_array_equal(ids_full, ids_sub)
            np.testing.assert_array_equal(dists_full, dists_sub)

    def test_lrd_of_bit_identical_to_full_kernel(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 5)
        view = g.view(5)
        kdist = g.k_distances(5)
        reach = scoring.reach_dist_values(view.dists, kdist[view.ids])
        full_lrd = scoring.lrd_values(reach, view.offsets)
        rows = np.arange(g.n_points)
        sub_lrd = scoring.lrd_of(g, rows)
        np.testing.assert_array_equal(full_lrd, sub_lrd)
        some = np.array([2, 11, 19])
        np.testing.assert_array_equal(full_lrd[some], scoring.lrd_of(g, some))

    def test_empty_subset(self):
        g = NeighborhoodGraph.from_index(small_cloud(7), 3)
        assert scoring.lrd_of(g, np.array([], dtype=np.int64)).size == 0


class TestDynamicGraph:
    def test_set_drop_and_subview(self):
        dyn = DynamicNeighborhoodGraph(2)
        dyn.set_row(0, [1, 2], [1.0, 2.0], 2.0)
        dyn.set_row(5, [0, 2], [1.5, 2.5], 2.5)
        dyn.set_row(2, [0, 5], [0.5, 1.0], 1.0)
        assert 5 in dyn and len(dyn) == 3
        assert dyn.rows() == [0, 2, 5]
        view = dyn.subview([0, 5])
        assert view.n_rows == 2
        np.testing.assert_array_equal(view.ids, [1, 2, 0, 2])
        np.testing.assert_array_equal(view.kdist, [2.0, 2.5])
        dyn.drop_row(5)
        assert 5 not in dyn
        assert np.isnan(dyn.kdist_values(np.array([5]))[0])

    def test_dynamic_matches_static_kernels(self):
        X = tied_grid()
        g = NeighborhoodGraph.from_index(X, 4)
        view = g.view(4)
        dyn = DynamicNeighborhoodGraph(4)
        for i in range(g.n_points):
            ids, dists = view.row(i)
            dyn.set_row(i, ids, dists, float(view.kdist[i]))
        rows = np.arange(g.n_points)
        np.testing.assert_array_equal(
            scoring.lrd_of(g.pin(4), rows), scoring.lrd_of(dyn, rows)
        )
